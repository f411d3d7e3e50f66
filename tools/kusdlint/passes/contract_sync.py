"""Registry/docs/CLI contract sync.

The engine roster lives in exactly one authoritative place —
`register_builtin_engines` in src/sim/engines.cpp — but it is *described*
in three more: the engine catalog table in docs/architecture.md, the
`--engine`/`--graph` rows of docs/sweep.md, and the kusd CLI usage text.
Nothing at compile time ties those together, so a new engine (or a
renamed flag) silently rots the docs. This pass re-parses the C++
registrations (comment-stripped, string literals kept) and diffs them
against each prose surface, plus the sweep CSV schema against the
header list in Sweep::csv_header().

Codes:
  missing-doc-row      registered engine absent from the architecture.md
                       engine catalog table
  ghost-doc-row        catalog row for an engine that is not registered
  doc-desc-drift       catalog description differs from the registered
                       .description string
  doc-flag-drift       catalog flag cell disagrees with the registered
                       EngineInfo flag
  missing-doc-section  architecture.md has no "## Engine catalog" table
  sweep-doc-drift      docs/sweep.md --engine/--graph rows miss a
                       registered (graph-axis) engine name
  cli-help-drift       kusd CLI usage text never mentions a graph-axis
                       engine name
  schema-drift         docs/sweep.md CSV schema block differs from
                       Sweep::csv_header()
  flag-doc-drift       a flag accepted by any subcommand's known-flags
                       set has no `--flag` row in docs/sweep.md, or a
                       documented row names a flag no subcommand accepts
  knob-ledger-missing  a settable value has no row in architecture.md's
                       "## Knob ledger": a field of a public src/
                       `*Options`/`*Spec` struct, a subcommand flag, a
                       CMake option() or a getenv() name (or the section
                       itself is missing)
  knob-ledger-ghost    a ledger row names no such knob, or a constant
                       that src/ does not declare

The ledger's first column names each row's knobs in backticks:
`Struct::field`, `--flag`, an ALL_CAPS CMake option or environment
variable, or a tuning constant (`kName`, optionally qualified).
"""

import re

from kusdlint import base, cpplex

ADD_CALL = re.compile(r"registry\s*\.\s*add\s*\(")
STRING = re.compile(r'"((?:[^"\\]|\\.)*)"')
DESCRIPTION = re.compile(
    r'\.description\s*=\s*((?:"(?:[^"\\]|\\.)*"\s*)+)')
FLAG = re.compile(
    r"\.(requires_decided_start|uses_graph_axis|uses_chunk_options|"
    r"aggregated_topology)\s*=\s*(true|false)")
FLAGS = ("requires_decided_start", "uses_graph_axis",
         "uses_chunk_options", "aggregated_topology")

# Catalog column header -> EngineInfo flag it mirrors.
CATALOG_FLAG_COLUMNS = {
    "graph axis": "uses_graph_axis",
    "chunked": "uses_chunk_options",
    "decided start": "requires_decided_start",
    "aggregated": "aggregated_topology",
}

# Each subcommand's accepted-flag set (the reject-unknown-keys literal)
# and the `| `--flag` | ...` option rows of docs/sweep.md. Every
# subcommand carries its own set; all are checked.
KNOWN_FLAGS_SET = re.compile(
    r"std\s*::\s*set\s*<\s*std\s*::\s*string\s*>\s*known\s*=\s*\{")
COMMAND_FN = re.compile(r"\bcmd_(\w+)\s*\(")
FLAG_ROW = re.compile(r"^\s*\|\s*`--([\w-]+)`", re.MULTILINE)

# The knob surfaces the ledger must cover.
OPTION_STRUCT = re.compile(r"\bstruct\s+(\w+(?:Options|Spec))\s*\{")
CMAKE_OPTION = re.compile(r"^\s*option\s*\(\s*(\w+)", re.MULTILINE)
GETENV = re.compile(r'\bgetenv\s*\(\s*"(\w+)"\s*\)')
LEDGER_SECTION = re.compile(r"^##\s+Knob ledger\s*$", re.MULTILINE)
TICKED = re.compile(r"`([^`]+)`")
CONSTANT_NAME = re.compile(r"^(?:\w+::)*(k[A-Z]\w*)$")


def span(text: str, start: int, open_ch: str = "(",
         close_ch: str = ")") -> str:
    """Text inside the balanced pair whose opener is at text[start]."""
    depth = 0
    for idx in range(start, len(text)):
        if text[idx] == open_ch:
            depth += 1
        elif text[idx] == close_ch:
            depth -= 1
            if depth == 0:
                return text[start + 1:idx]
    return text[start + 1:]


def paren_span(text: str, start: int) -> str:
    return span(text, start)


def parse_registrations(text: str) -> list[dict]:
    """Engine registrations from comment-stripped engines.cpp text.

    Each is {name, line, description, <flag>: bool...}; the name is the
    first string literal inside the add(...) call, the description the
    concatenation of adjacent literals after `.description =`.
    """
    engines = []
    for match in ADD_CALL.finditer(text):
        call = paren_span(text, match.end() - 1)
        name_match = STRING.search(call)
        if not name_match:
            continue
        entry = {
            "name": name_match.group(1),
            "line": text.count("\n", 0, match.start()) + 1,
            "description": "",
        }
        desc = DESCRIPTION.search(call)
        if desc:
            entry["description"] = "".join(STRING.findall(desc.group(1)))
        for flag in FLAGS:
            entry[flag] = False
        for flag_match in FLAG.finditer(call):
            entry[flag_match.group(1)] = flag_match.group(2) == "true"
        engines.append(entry)
    return engines


def parse_catalog(text: str) -> tuple[dict | None, int]:
    """The "## Engine catalog" table as {name: {line, description,
    <column>: bool}}, plus the section's line number (None, 0 if the
    section or its table is missing)."""
    section = re.search(r"^##\s+Engine catalog\s*$", text, re.MULTILINE)
    if not section:
        return None, 0
    section_line = text.count("\n", 0, section.start()) + 1
    rows = {}
    columns: list[str] = []
    for offset, line in enumerate(
            text[section.end():].splitlines(), start=section_line + 1):
        if line.startswith("## "):
            break
        if not line.lstrip().startswith("|"):
            continue
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if not columns:
            columns = [c.lower() for c in cells]
            continue
        if set(cells[0]) <= {"-", ":", " "}:
            continue  # separator row
        name = cells[0].strip("`")
        row = {"line": offset, "description": ""}
        for header, cell in zip(columns[1:], cells[1:]):
            if header == "description":
                row["description"] = cell
            elif header in CATALOG_FLAG_COLUMNS:
                row[CATALOG_FLAG_COLUMNS[header]] = cell != ""
        rows[name] = row
    return (rows if columns else None), section_line


def struct_fields(body: str) -> list[tuple[str, int]]:
    """(name, offset in body) of each data member of a struct body.

    Members are the body's top-level `;`-terminated declarations; nested
    types, `using`/`static`/`friend` declarations and member functions
    (a declarator ending in `)` or a trailing qualifier) are skipped,
    and a default initializer (`= ...` or `{...}`) is cut off before the
    name is read.
    """
    fields = []
    depth = start = 0
    for idx, ch in enumerate(body):
        if ch in "{(<":
            depth += 1
        elif ch in "})>":
            depth -= 1
        elif ch == ";" and depth == 0:
            decl = body[start:idx]
            offset = start + len(decl) - len(decl.lstrip())
            start = idx + 1
            decl = decl.strip()
            if not decl or re.match(
                    r"(enum|struct|class|using|static|friend|template)\b",
                    decl) or "operator" in decl:
                continue
            head = re.split(r"\s*(?:=|\{)", decl, maxsplit=1)[0].strip()
            if re.search(r"\)\s*(const|noexcept|override)?\s*$", head):
                continue
            name = re.search(r"(\w+)\s*(\[[^\]]*\])?$", head)
            if name:
                fields.append((name.group(1), offset))
    return fields


def mentions(name: str, text: str) -> bool:
    """Word-boundary mention ('graph' must not match 'graph-batched')."""
    return re.search(r"(?<![\w-])" + re.escape(name) + r"(?![\w-])",
                     text) is not None


@base.register
class ContractSyncPass(base.Pass):
    name = "contract-sync"
    description = ("sim::Registry registrations vs the architecture.md "
                   "engine catalog, sweep.md axes/schema, CLI help, and "
                   "every knob vs the knob ledger")

    # Overridable so self-tests can point at a fixture tree.
    engines_file = "src/sim/engines.cpp"
    architecture_file = "docs/architecture.md"
    sweep_doc = "docs/sweep.md"
    sweep_source = "src/runner/sweep.cpp"
    cli_file = "tools/kusd_cli.cpp"
    # Where CMake option()s and getenv() names are looked for (the root
    # CMakeLists.txt is always read).
    cmake_dirs = ("cmake", "src", "tools", "tests", "bench", "examples")
    getenv_dirs = ("src", "tools", "bench", "examples")

    def __init__(self):
        self.checked = 0

    def run(self, ctx):
        for rel in (self.engines_file, self.architecture_file,
                    self.sweep_doc, self.sweep_source, self.cli_file):
            if not (ctx.root / rel).is_file():
                raise base.UsageError(f"contract-sync: {rel} not found "
                                      f"under {ctx.root}")
        findings = []
        engines = parse_registrations(
            cpplex.strip_comments(ctx.read(self.engines_file)))
        self.checked = len(engines)
        if not engines:
            raise base.UsageError(
                f"contract-sync: no registry.add() calls parsed from "
                f"{self.engines_file}")
        by_name = {e["name"]: e for e in engines}

        findings += self.check_catalog(ctx, by_name)
        findings += self.check_sweep_doc(ctx, by_name)
        findings += self.check_cli(ctx, by_name)
        findings += self.check_schema(ctx)
        findings += self.check_sweep_flags(ctx)
        findings += self.check_knob_ledger(ctx)
        return findings

    def check_catalog(self, ctx, by_name):
        findings = []
        catalog, section_line = parse_catalog(
            ctx.read(self.architecture_file))
        if catalog is None:
            return [base.Finding(
                file=self.architecture_file, line=0,
                code="missing-doc-section",
                message="no '## Engine catalog' table — every registered "
                        "engine must be documented there")]
        for name, engine in sorted(by_name.items()):
            row = catalog.get(name)
            if row is None:
                findings.append(base.Finding(
                    file=self.architecture_file, line=section_line,
                    code="missing-doc-row",
                    message=f"engine '{name}' is registered in "
                            f"{self.engines_file} but has no engine "
                            f"catalog row"))
                continue
            if row["description"] != engine["description"]:
                findings.append(base.Finding(
                    file=self.architecture_file, line=row["line"],
                    code="doc-desc-drift",
                    message=f"engine '{name}': catalog says "
                            f"'{row['description']}' but the registration "
                            f"says '{engine['description']}'"))
            for flag in FLAGS:
                if flag in row and row[flag] != engine[flag]:
                    findings.append(base.Finding(
                        file=self.architecture_file, line=row["line"],
                        code="doc-flag-drift",
                        message=f"engine '{name}': catalog marks {flag}="
                                f"{row[flag]} but the registration says "
                                f"{engine[flag]}"))
        for name, row in sorted(catalog.items()):
            if name not in by_name:
                findings.append(base.Finding(
                    file=self.architecture_file, line=row["line"],
                    code="ghost-doc-row",
                    message=f"catalog row for '{name}' but no such engine "
                            f"is registered"))
        return findings

    def check_sweep_doc(self, ctx, by_name):
        findings = []
        text = ctx.read(self.sweep_doc)
        engine_row = graph_row = None
        for lineno, line in enumerate(text.splitlines(), start=1):
            if re.match(r"\s*\|\s*`--engine`", line):
                engine_row = (lineno, line)
            elif re.match(r"\s*\|\s*`--graph`", line):
                graph_row = (lineno, line)
        for name in sorted(by_name):
            if engine_row and not mentions(name, engine_row[1]):
                findings.append(base.Finding(
                    file=self.sweep_doc, line=engine_row[0],
                    code="sweep-doc-drift",
                    message=f"--engine row does not list registered "
                            f"engine '{name}'"))
            if by_name[name]["uses_graph_axis"] and graph_row and \
                    not mentions(name, graph_row[1]):
                findings.append(base.Finding(
                    file=self.sweep_doc, line=graph_row[0],
                    code="sweep-doc-drift",
                    message=f"--graph row does not mention graph-axis "
                            f"engine '{name}'"))
        return findings

    def check_cli(self, ctx, by_name):
        findings = []
        literals = cpplex.extract_string_literals(ctx.read(self.cli_file))
        usage = " ".join(value for _, value in literals)
        for name in sorted(by_name):
            if by_name[name]["uses_graph_axis"] and \
                    not mentions(name, usage):
                findings.append(base.Finding(
                    file=self.cli_file, line=0, code="cli-help-drift",
                    message=f"usage text never mentions graph-axis "
                            f"engine '{name}'"))
        return findings

    def accepted_flags(self, ctx) -> dict:
        """flag -> the first subcommand whose known-flags set has it."""
        source = cpplex.strip_comments(ctx.read(self.cli_file))
        matches = list(KNOWN_FLAGS_SET.finditer(source))
        if not matches:
            raise base.UsageError(
                f"contract-sync: no known-flags set literal "
                f"(std::set<std::string> known = {{...}}) parsed from "
                f"{self.cli_file}")
        accepted = {}
        for match in matches:
            command = "sweep"
            for fn in COMMAND_FN.finditer(source, 0, match.start()):
                command = fn.group(1)
            flags = STRING.findall(span(source, match.end() - 1, "{", "}"))
            for flag in flags:
                accepted.setdefault(flag, command)
        return accepted

    def collect_knobs(self, ctx) -> dict:
        """Every settable value: ledger name -> (file, line, kind)."""
        knobs = {}
        for rel in ctx.cpp_files("src"):
            if not rel.endswith(".hpp"):
                continue
            text = cpplex.strip_comments(ctx.read(rel))
            for match in OPTION_STRUCT.finditer(text):
                body_start = match.end()
                body = span(text, body_start - 1, "{", "}")
                for name, offset in struct_fields(body):
                    line = text.count("\n", 0, body_start + offset) + 1
                    knobs[f"{match.group(1)}::{name}"] = (
                        rel, line, "option field")
        for flag, command in self.accepted_flags(ctx).items():
            knobs[f"--{flag}"] = (self.cli_file, 0, f"{command} flag")
        cmake_files = ["CMakeLists.txt"] + [
            p.relative_to(ctx.root).as_posix()
            for d in self.cmake_dirs if (ctx.root / d).is_dir()
            for p in sorted((ctx.root / d).rglob("*"))
            if p.name == "CMakeLists.txt" or p.suffix == ".cmake"]
        for rel in cmake_files:
            if not ctx.exists(rel):
                continue
            text = ctx.read(rel)
            for match in CMAKE_OPTION.finditer(text):
                knobs.setdefault(match.group(1), (
                    rel, text.count("\n", 0, match.start()) + 1,
                    "CMake option"))
        for rel in ctx.cpp_files(*self.getenv_dirs):
            text = cpplex.strip_comments(ctx.read(rel))
            for match in GETENV.finditer(text):
                knobs.setdefault(match.group(1), (
                    rel, text.count("\n", 0, match.start()) + 1,
                    "environment variable"))
        return knobs

    def declared_constants(self, ctx) -> set:
        """Names of the constexpr constants and enumerators in src/."""
        names = set()
        for rel in ctx.cpp_files("src"):
            text = cpplex.strip_noise(ctx.read(rel))
            names.update(re.findall(r"\bconstexpr\b[^;=]*?\b(k[A-Z]\w*)\s*=",
                                    text))
            for body in re.findall(r"\benum\b[^;{]*\{([^}]*)\}", text):
                names.update(re.findall(r"\b(k[A-Z]\w*)\b", body))
        return names

    def check_knob_ledger(self, ctx):
        """Every settable value vs the rows of the knob ledger.

        A knob with no row is `knob-ledger-missing`, reported where the
        knob is declared; a row naming something that is not a knob (a
        removed field or flag, a constant src/ no longer declares) is
        `knob-ledger-ghost`.
        """
        knobs = self.collect_knobs(ctx)
        doc = ctx.read(self.architecture_file)
        section = LEDGER_SECTION.search(doc)
        if not section:
            return [base.Finding(
                file=self.architecture_file, line=0,
                code="knob-ledger-missing",
                message="no '## Knob ledger' section — every option "
                        "field, flag, CMake option and environment "
                        "variable needs a row there")]
        section_line = doc.count("\n", 0, section.start()) + 1
        rows = {}  # ledger name -> line
        header_seen = False
        for offset, line in enumerate(
                doc[section.end():].splitlines(), start=section_line + 1):
            if line.startswith("## "):
                break
            if not line.lstrip().startswith("|"):
                header_seen = False
                continue
            first = line.strip().strip("|").split("|")[0]
            if not header_seen:
                header_seen = True  # the table's header row
                continue
            if set(first.strip()) <= {"-", ":", " "}:
                continue  # separator row
            for name in TICKED.findall(first):
                rows.setdefault(name, offset)

        findings = []
        for name, (rel, line, kind) in sorted(knobs.items()):
            if name not in rows:
                findings.append(base.Finding(
                    file=rel, line=line, code="knob-ledger-missing",
                    message=f"{kind} '{name}' has no row in the knob "
                            f"ledger of {self.architecture_file}"))
        constants = None
        for name, line in sorted(rows.items(), key=lambda kv: kv[1]):
            if name in knobs:
                continue
            constant = CONSTANT_NAME.match(name)
            if constant:
                if constants is None:
                    constants = self.declared_constants(ctx)
                if constant.group(1) in constants:
                    continue
            findings.append(base.Finding(
                file=self.architecture_file, line=line,
                code="knob-ledger-ghost",
                message=f"ledger row names '{name}', which is no option "
                        f"field, flag, CMake option, environment "
                        f"variable or constant declared in src/"))
        return findings

    def check_sweep_flags(self, ctx):
        """Every subcommand's accepted flags vs docs/sweep.md option rows.

        Each subcommand rejects unknown keys against its own set literal
        (cmd_sweep, cmd_merge, ...); every member of every set must have
        a `--flag` table row in docs/sweep.md and every documented row
        must name a flag some subcommand accepts, so a new flag (e.g.
        --shard or merge's --inputs) cannot land without its
        documentation — and a removed one cannot leave a ghost row
        behind. Flags are attributed to the nearest enclosing cmd_*
        function for the diagnostic.
        """
        accepted = self.accepted_flags(ctx)
        doc = ctx.read(self.sweep_doc)
        documented = {}
        for row in FLAG_ROW.finditer(doc):
            documented.setdefault(row.group(1),
                                  doc.count("\n", 0, row.start()) + 1)
        findings = []
        for flag in sorted(set(accepted) - set(documented)):
            findings.append(base.Finding(
                file=self.sweep_doc, line=0, code="flag-doc-drift",
                message=f"{accepted[flag]} flag '--{flag}' is accepted "
                        f"by {self.cli_file} but has no option row in "
                        f"{self.sweep_doc}"))
        for flag in sorted(set(documented) - set(accepted)):
            findings.append(base.Finding(
                file=self.sweep_doc, line=documented[flag],
                code="flag-doc-drift",
                message=f"option row documents '--{flag}' but no kusd "
                        f"subcommand accepts it"))
        return findings

    def check_schema(self, ctx):
        source = cpplex.strip_comments(ctx.read(self.sweep_source))
        header_match = re.search(r"csv_header\s*\(\s*\)\s*\{", source)
        if not header_match:
            return [base.Finding(
                file=self.sweep_source, line=0, code="schema-drift",
                message="could not locate Sweep::csv_header()")]
        body = source[header_match.end():
                      source.index(";", header_match.end())]
        columns = STRING.findall(body)

        doc = ctx.read(self.sweep_doc)
        anchor = re.search(r"CSV header = JSONL keys:", doc)
        if not anchor:
            return [base.Finding(
                file=self.sweep_doc, line=0, code="schema-drift",
                message="no 'CSV header = JSONL keys:' schema block")]
        anchor_line = doc.count("\n", 0, anchor.start()) + 1
        fence = re.search(r"```\n(.*?)```", doc[anchor.end():], re.DOTALL)
        if not fence:
            return [base.Finding(
                file=self.sweep_doc, line=anchor_line, code="schema-drift",
                message="no fenced schema block after 'CSV header = "
                        "JSONL keys:'")]
        documented = [c.strip() for c in
                      fence.group(1).replace("\n", "").split(",")
                      if c.strip()]
        if documented != columns:
            return [base.Finding(
                file=self.sweep_doc, line=anchor_line, code="schema-drift",
                message=f"documented schema {documented} != "
                        f"Sweep::csv_header() {columns}")]
        return []
