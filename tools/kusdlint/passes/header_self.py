"""Header/module include hygiene: spell what you use, drop what you don't.

The compile-level half of this contract is the `kusd_header_check` CMake
target (one generated TU per public header — a header that relies on a
transitive include fails to build). This pass is the static half, at
module granularity, and also covers .cpp files:

  missing-include   the file spells `mod::` (or `kusd::mod::`) for some
                    other module but never directly includes a `mod/...`
                    header — it compiles only through a transitive
                    include, so an unrelated cleanup can break it
  dead-include      the file directly includes `mod/...` but never
                    spells `mod::` (nor a macro that module provides) —
                    a stale edge that widens rebuilds and muddies the
                    layering graph

A file that *declares* `namespace kusd::mod` (a forward declaration)
provides mod to itself and is exempt from missing-include for it.
Macro-only uses are attributed via MACRO_MODULES (KUSD_CHECK* comes from
util/check.hpp without any `util::` spelling at the use site).
"""

import re

from kusdlint import base, cpplex
from kusdlint.passes.layering import DECLARED_DAG, module_of

MODULE_USE = re.compile(
    r"\b(" + "|".join(sorted(DECLARED_DAG)) + r")\s*::")
NAMESPACE_DECL = re.compile(
    r"\bnamespace\s+(?:kusd\s*::\s*)?(\w+)\s*(?:::\s*\w+\s*)*\{")

# Macro prefix -> providing module (macros leave no `mod::` spelling at
# the use site). The check macros come from util/check.hpp (KUSD_CHECK,
# KUSD_CHECK_MSG, KUSD_DCHECK); the prefixes are deliberately that
# specific — build-system defines like KUSD_SIMD_ENABLED (set for
# rng/simd.cpp's tier probe) are not include obligations.
MACRO_MODULES = {
    "KUSD_CHECK": "util",
    "KUSD_DCHECK": "util",
}


@base.register
class HeaderSelfPass(base.Pass):
    name = "header-self"
    description = ("module-level include-what-you-use across src/ "
                   "(missing direct includes, dead includes)")

    def __init__(self):
        self.checked = 0

    def run(self, ctx):
        findings = []
        files = ctx.cpp_files("src")
        self.checked = len(files)
        for rel in files:
            own = module_of(rel)
            stripped = ctx.read_stripped(rel)

            declared = set(NAMESPACE_DECL.findall(stripped))
            used: dict[str, int] = {}
            for lineno, line in enumerate(stripped.splitlines(), start=1):
                for match in MODULE_USE.finditer(line):
                    used.setdefault(match.group(1), lineno)
                for prefix, mod in MACRO_MODULES.items():
                    if re.search(r"\b" + prefix, line):
                        used.setdefault(mod, lineno)

            included: dict[str, int] = {}
            for lineno, target, quoted in cpplex.parse_includes(
                    ctx.read(rel)):
                head = target.split("/", 1)[0] if quoted and "/" in target \
                    else None
                if head in DECLARED_DAG:
                    included.setdefault(head, lineno)

            for mod, first_use in sorted(used.items()):
                if mod == own or mod in declared or mod in included:
                    continue
                findings.append(base.Finding(
                    file=rel, line=first_use, code="missing-include",
                    message=f"uses {mod}:: but has no direct #include of a "
                            f"{mod}/ header — relies on a transitive "
                            f"include"))
            for mod, inc_line in sorted(included.items()):
                if mod == own or mod in used:
                    continue
                findings.append(base.Finding(
                    file=rel, line=inc_line, code="dead-include",
                    message=f"includes {mod}/ but never uses {mod}:: — "
                            f"dead include"))
        return findings
