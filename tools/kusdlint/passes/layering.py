"""Module layering: the #include graph must match the declared DAG.

The engine stack is layered — util/rng/stats/urn at the bottom, then the
model layer (pp, core, gossip, analysis), then sim (the
engine roster), then runner (drivers), with tools/bench/tests/examples
on top — and the whole architecture rests on includes only pointing
*down* that order (see docs/architecture.md, "Module layering"). The
compiler cannot tell an upward include from a downward one, so this pass
re-derives the include graph on every run and diffs it against
DECLARED_DAG below.

Adding a genuinely new downward dependency means editing DECLARED_DAG —
a one-line, reviewable, conscious act. An upward include has no such
spelling: it is always a finding.

The drivers — src/runner/ and tools/kusd_cli.cpp — build, run and
observe every trial through sim::Registry's engines, so they may not
include a concrete simulator's header (SIMULATOR_HEADERS) either, even
where the DAG allows the edge: one trial path, no per-engine code above
the registry's factories.

Codes:
  forbidden-dep     include edge not in the declared DAG
  simulator-include a driver includes a simulator header
  unknown-module    file or include target in a src/ directory the DAG
                    does not declare
  unresolved-include quoted include that is neither a declared module
                    path nor a sibling file of the includer
"""

from kusdlint import base, cpplex

# Module -> the modules it may include. Exactly today's downward edges:
# extending it is a deliberate, reviewed edit, and the derived graph is
# checked for cycles on every run so the declaration cannot rot into one.
DECLARED_DAG = {
    "util": set(),
    "rng": {"util"},
    "stats": {"util"},
    "urn": {"rng", "util"},
    "pp": {"rng", "urn", "util"},
    "core": {"pp", "rng", "urn", "util"},
    "gossip": {"core", "pp", "rng", "util"},
    "analysis": {"pp", "rng", "util"},
    "sim": {"core", "gossip", "pp", "rng", "urn", "util"},
    "runner": {"core", "pp", "rng", "sim", "stats", "urn", "util"},
}

# The concrete simulators (each a core::Engine), which only the registry's
# factories in sim, tests, benches and examples construct directly.
SIMULATOR_HEADERS = {
    "core/usd.hpp",
    "core/batched_usd.hpp",
    "core/graph_scheduler.hpp",
    "core/sync_usd.hpp",
    "gossip/gossip_usd.hpp",
    "sim/batched_graph_engine.hpp",
}


def is_driver(rel: str) -> bool:
    return rel.startswith("src/runner/") or rel == "tools/kusd_cli.cpp"


# Top-of-stack consumers: may include any src module (they are the "cli"
# layer of the DAG; nothing may include *them*, which holds trivially
# because they are not on the kusd include path).
CONSUMER_DIRS = ("tools", "bench", "tests", "examples")


def find_cycle(dag: dict) -> list | None:
    """A cycle in the declared DAG as [a, b, ..., a], or None."""
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {node: WHITE for node in dag}
    stack = []

    def visit(node):
        color[node] = GRAY
        stack.append(node)
        for dep in sorted(dag.get(node, ())):
            if dep not in dag:
                continue
            if color[dep] == GRAY:
                return stack[stack.index(dep):] + [dep]
            if color[dep] == WHITE:
                cycle = visit(dep)
                if cycle:
                    return cycle
        stack.pop()
        color[node] = BLACK
        return None

    for node in sorted(dag):
        if color[node] == WHITE:
            cycle = visit(node)
            if cycle:
                return cycle
    return None


def module_of(rel: str) -> str | None:
    """src/<mod>/... -> mod; tools|bench|tests|examples/... -> dir name."""
    parts = rel.split("/")
    if parts[0] == "src" and len(parts) >= 3:
        return parts[1]
    if parts[0] in CONSUMER_DIRS:
        return parts[0]
    return None


@base.register
class LayeringPass(base.Pass):
    name = "layering"
    description = ("#include graph under src/, bench/, tests/, tools/, "
                   "examples/ vs the declared module DAG")

    def __init__(self):
        self.checked = 0

    def run(self, ctx):
        findings = []
        cycle = find_cycle(DECLARED_DAG)
        if cycle:
            findings.append(base.Finding(
                file="", line=0, code="dag-cycle",
                message="DECLARED_DAG is cyclic: " + " -> ".join(cycle)))

        files = ctx.cpp_files("src", *CONSUMER_DIRS)
        self.checked = len(files)
        for rel in files:
            mod = module_of(rel)
            if mod is None:
                findings.append(base.Finding(
                    file=rel, line=0, code="unknown-module",
                    message="file is outside every declared module "
                            "directory"))
                continue
            if mod not in DECLARED_DAG and mod not in CONSUMER_DIRS:
                findings.append(base.Finding(
                    file=rel, line=0, code="unknown-module",
                    message=f"module '{mod}' is not in the declared DAG — "
                            f"declare its dependencies in "
                            f"tools/kusdlint/passes/layering.py"))
                continue
            for lineno, target, quoted in cpplex.parse_includes(
                    ctx.read(rel)):
                if not quoted:
                    continue  # angle includes are system/third-party
                if target in SIMULATOR_HEADERS and is_driver(rel):
                    findings.append(base.Finding(
                        file=rel, line=lineno, code="simulator-include",
                        message=f"includes {target}: drivers get their "
                                f"engines from sim::Registry, not a "
                                f"simulator header"))
                head = target.split("/", 1)[0] if "/" in target else None
                if head in DECLARED_DAG:
                    if mod in CONSUMER_DIRS or head == mod:
                        continue
                    if head not in DECLARED_DAG.get(mod, set()):
                        allowed = ", ".join(
                            sorted(DECLARED_DAG.get(mod, set()))) or "nothing"
                        findings.append(base.Finding(
                            file=rel, line=lineno, code="forbidden-dep",
                            message=f"includes {target}: module '{mod}' may "
                                    f"only depend on {allowed} (see "
                                    f"DECLARED_DAG)"))
                    continue
                # Not a module path: accept a file that resolves next to
                # the includer (tests/chi_square.hpp style) or relative to the
                # repo root (tools/ sources are compiled with -I src).
                parent = (ctx.root / rel).parent
                if (parent / target).exists() or \
                        (ctx.root / "src" / target).exists():
                    continue
                findings.append(base.Finding(
                    file=rel, line=lineno, code="unresolved-include",
                    message=f"quoted include '{target}' is neither a "
                            f"declared module path nor a sibling file"))
        return findings
