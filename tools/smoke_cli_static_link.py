#!/usr/bin/env python3
"""Check that a kusd binary is a static PIE: no program interpreter.

The Release CLI is linked with -static-pie (tools/CMakeLists.txt), so
its launch skips the dynamic loader. A build edit that drops the flag
still builds and passes every other test, so this reads the ELF program
headers instead: the binary fails if it has a PT_INTERP segment (it
would start through ld.so) or is not position independent (ET_DYN; a
plain -static link gives up ASLR).

  python3 tools/smoke_cli_static_link.py <kusd>
"""

import struct
import sys

ET_DYN = 3
PT_INTERP = 3


def problems_of(path):
    with open(path, "rb") as f:
        data = f.read()
    if data[:4] != b"\x7fELF":
        return ["not an ELF file"]
    if data[4] != 2:
        return ["not a 64-bit ELF file"]
    order = "<" if data[5] == 1 else ">"
    e_type, = struct.unpack_from(order + "H", data, 16)
    e_phoff, = struct.unpack_from(order + "Q", data, 32)
    e_phentsize, e_phnum = struct.unpack_from(order + "HH", data, 54)
    problems = []
    if e_type != ET_DYN:
        problems.append(f"ELF type {e_type}, want ET_DYN (a PIE)")
    for i in range(e_phnum):
        p_type, = struct.unpack_from(order + "I", data,
                                     e_phoff + i * e_phentsize)
        if p_type == PT_INTERP:
            start = e_phoff + i * e_phentsize
            p_offset, = struct.unpack_from(order + "Q", data, start + 8)
            p_filesz, = struct.unpack_from(order + "Q", data, start + 32)
            interp = data[p_offset:p_offset + p_filesz].rstrip(b"\0")
            problems.append("has a PT_INTERP segment: starts through "
                            + interp.decode(errors="replace"))
    return problems


def main() -> int:
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    problems = problems_of(sys.argv[1])
    for problem in problems:
        print(f"FAIL {sys.argv[1]}: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
