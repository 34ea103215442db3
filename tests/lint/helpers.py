"""Shared helpers: run one rule against an in-memory snippet.

Rule fixtures pass *virtual* repo-relative paths (``src/repro/core/x.py``)
to place a snippet inside or outside a rule's scope — no files touch disk.
"""

from __future__ import annotations

import textwrap

from repro.lint import (
    Finding,
    ProjectGraph,
    ProjectRule,
    get_rule,
    lint_source,
    run_project_rules,
    summarize_source,
)

#: Default virtual path inside every rule's scope (core is covered by all
#: D/P/S scoping prefixes that matter to the fixtures).
CORE_PATH = "src/repro/core/snippet.py"


def run_rule(rule_id: str, source: str, path: str = CORE_PATH) -> list[Finding]:
    """Findings of one rule on a dedented snippet at a virtual path."""
    report = lint_source(path, textwrap.dedent(source), [get_rule(rule_id)])
    return [f for f in report.findings if f.rule == rule_id]


def build_graph(files: dict[str, str]) -> ProjectGraph:
    """A :class:`ProjectGraph` over in-memory dedented sources."""
    summaries = [
        summarize_source(path, textwrap.dedent(source))
        for path, source in sorted(files.items())
    ]
    return ProjectGraph([s for s in summaries if s is not None])


def run_project_rule(rule_id: str, files: dict[str, str]) -> list[Finding]:
    """Findings of one project rule over an in-memory file set."""
    rule = get_rule(rule_id)
    assert isinstance(rule, ProjectRule), f"{rule_id} is not a project rule"
    graph = build_graph(files)
    return [
        f for f in run_project_rules(graph, [rule]) if f.rule == rule_id
    ]
