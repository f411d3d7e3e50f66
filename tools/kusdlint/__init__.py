"""kusdlint — architecture-aware static analysis for the kusd tree.

A small, stdlib-only pass framework: each pass encodes one convention the
compiler cannot check (layer ordering, header self-sufficiency, RNG
stream discipline, registry/docs contract sync, determinism hazards, doc
link rot). Passes share the C++ lexing in `cpplex`, report uniform
`Finding`s, and get per-pass allowlists with stale-entry failure from the
framework, so an audited exception can never rot into a blanket waiver.

Entry point:
  tools/lint_all.py   run every pass (or a subset, --pass NAME) over the repo

See docs/verification.md for the pass table and allowlist policy.
"""

from kusdlint.base import (  # noqa: F401
    Allowlist,
    Context,
    Finding,
    Pass,
    UsageError,
    all_passes,
    get_pass,
    register,
)
