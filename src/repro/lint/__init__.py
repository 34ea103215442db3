"""``repro-lint``: AST-based invariant checker for the reproduction.

The repository's core guarantee — byte-identical campaigns across
serial, parallel and chunked runs of the paper's generative models —
rests on coding invariants that ordinary tests only probe at runtime:
every random draw flows from a named seed stream, nothing in the
deterministic layers reads wall clocks or global RNG state, work
shipped to worker processes is module-level and argument-closed, and
structural contracts (the :class:`~repro.dataset.records.SessionTable`
schema, the src/tests dependency direction) stay in sync with their
canonical definitions.  This package enforces those invariants *statically*, at
review time, over ``src/``, ``tools/`` and ``benchmarks/``.

Layout
------
* :mod:`repro.lint.rules` — the pluggable Rule API: :class:`Finding`,
  :class:`Rule`, :class:`ProjectRule`, the rule registry and the
  per-file analysis context;
* :mod:`repro.lint.determinism` — D-series determinism rules;
* :mod:`repro.lint.parallelism` — P-series parallel-safety rules;
* :mod:`repro.lint.structure` — S-series structural contract rules;
* :mod:`repro.lint.graph` — per-file :class:`ModuleSummary` extraction
  and the folded :class:`ProjectGraph` whole-program view;
* :mod:`repro.lint.dataflow` — fixpoint dataflow (RNG/seed
  provenance, lock-order pairs) over the project call graph;
* :mod:`repro.lint.provenance` — W-series interprocedural RNG rules;
* :mod:`repro.lint.threads` — T-series serve-stack thread-safety rules;
* :mod:`repro.lint.suppress` — inline ``# repro-lint: disable=RULE``
  suppressions;
* :mod:`repro.lint.baseline` — the checked-in baseline of grandfathered
  findings;
* :mod:`repro.lint.driver` — the (optionally parallel) file-level
  driver;
* :mod:`repro.lint.report` — human and JSON reporters plus the report's
  JSON Schema;
* :mod:`repro.lint.app` — the command-line front end shared by
  ``repro-traffic lint`` and ``python -m repro.lint``.

Run it with ``repro-traffic lint`` or ``python -m repro.lint``; see
``docs/LINTING.md`` for the rule catalog and suppression syntax.
"""

from .baseline import Baseline, BaselineError
from .dataflow import DataflowResult
from .driver import LintResult, lint_paths, lint_source
from .graph import ModuleSummary, ProjectGraph, summarize_source
from .report import render_human, render_json, validate_report
from .rules import (
    Finding,
    FileContext,
    LintError,
    ProjectRule,
    Rule,
    all_rules,
    default_rules,
    get_rule,
    project_rules,
    register,
    run_project_rules,
)

__all__ = [
    "Baseline",
    "BaselineError",
    "DataflowResult",
    "FileContext",
    "Finding",
    "LintError",
    "LintResult",
    "ModuleSummary",
    "ProjectGraph",
    "ProjectRule",
    "Rule",
    "all_rules",
    "default_rules",
    "get_rule",
    "lint_paths",
    "lint_source",
    "project_rules",
    "register",
    "render_human",
    "render_json",
    "run_project_rules",
    "summarize_source",
    "validate_report",
]
