"""Fixpoint dataflow over the project call graph.

Per-file summaries record only *direct* facts — a parameter used as a
draw receiver, a parameter passed to a seed position — and this engine
closes them over call edges until nothing changes:

* ``rng_params``: parameters a function (transitively) draws random
  numbers from.  Seed of the W-series: passing a shared Generator to a
  function in this relation consumes the caller's stream.
* ``seed_params``: parameters that (transitively) reach a
  generator-construction seed position — reusing such a value across
  units reuses a stream.
* ``rng_returners``: functions whose return value is a Generator
  (directly constructed, or returned from another returner).
* ``lock_acquires`` / ``lock_pairs``: locks a function acquires
  anywhere below it, and the (held → acquired) order pairs observable
  from it — the T503 inversion relation.

All sets iterate in sorted order and the fixpoint is order-independent
(pure set unions), so results are deterministic regardless of worker
count or summary arrival order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .graph import CallSite, FunctionSummary, ProjectGraph


@dataclass(frozen=True)
class DataflowResult:
    """The solved fixpoints, keyed by function qualname."""

    rng_params: dict[str, frozenset[str]]
    seed_params: dict[str, frozenset[str]]
    rng_returners: frozenset[str]
    lock_acquires: dict[str, frozenset[str]]
    lock_pairs: dict[str, frozenset[tuple[str, str, int, int]]]

    def draws_from(self, qualname: str) -> frozenset[str]:
        """Parameters the function transitively draws RNG state from."""
        return self.rng_params.get(qualname, frozenset())


def arg_bindings(
    call: "CallSite", callee: "FunctionSummary"
) -> Iterator[tuple[str, str]]:
    """``(caller identifier, callee parameter)`` pairs of one call site.

    Maps positional identifiers by index (``self`` stripped on methods)
    and keyword identifiers by name; starred/complex arguments resolve
    to nothing, which keeps the analysis sound-but-incomplete in the
    safe direction (no invented flows).
    """
    params = callee.effective_params()
    for index, name in enumerate(call.args):
        if name is not None and index < len(params):
            yield name, params[index]
    for keyword, name in call.keywords:
        if name is not None and keyword in params:
            yield name, keyword


def _propagate_params(
    project: "ProjectGraph",
    direct: dict[str, set[str]],
) -> dict[str, frozenset[str]]:
    """Close a param-sink relation over call edges until fixpoint."""
    changed = True
    while changed:
        changed = False
        for qualname in sorted(project.functions):
            function = project.functions[qualname]
            own_params = frozenset(function.params)
            sinks = direct[qualname]
            for call in function.calls:
                if call.callee is None:
                    continue
                callee = project.functions.get(call.callee)
                if callee is None:
                    continue
                callee_sinks = direct[callee.qualname]
                if not callee_sinks:
                    continue
                for caller_name, callee_param in arg_bindings(call, callee):
                    if (
                        callee_param in callee_sinks
                        and caller_name in own_params
                        and caller_name not in sinks
                    ):
                        sinks.add(caller_name)
                        changed = True
    return {q: frozenset(s) for q, s in direct.items()}


def _solve_returners(project: "ProjectGraph") -> frozenset[str]:
    """Functions whose return value is (transitively) a Generator."""
    from .graph import RNG_CONSTRUCTORS

    returners: set[str] = set()
    changed = True
    while changed:
        changed = False
        for qualname in sorted(project.functions):
            if qualname in returners:
                continue
            function = project.functions[qualname]
            for callee in function.returned_callees:
                if callee in RNG_CONSTRUCTORS or callee in returners:
                    returners.add(qualname)
                    changed = True
                    break
    return frozenset(returners)


def _solve_locks(
    project: "ProjectGraph",
) -> tuple[
    dict[str, frozenset[str]],
    dict[str, frozenset[tuple[str, str, int, int]]],
]:
    """Transitive lock acquisitions and (held → acquired) order pairs.

    A call made while holding lock A to a function that (transitively)
    acquires lock B contributes the pair ``(A, B)`` anchored at the
    call site — the cross-function half of the T503 inversion check.
    """
    acquires: dict[str, set[str]] = {
        q: {lock for lock, _, _ in f.lock_acquisitions}
        for q, f in project.functions.items()
    }
    changed = True
    while changed:
        changed = False
        for qualname in sorted(project.functions):
            function = project.functions[qualname]
            mine = acquires[qualname]
            for call in function.calls:
                if call.callee is None or call.callee not in acquires:
                    continue
                extra = acquires[call.callee] - mine
                if extra:
                    mine |= extra
                    changed = True
    pairs: dict[str, set[tuple[str, str, int, int]]] = {
        q: set(f.lock_pairs) for q, f in project.functions.items()
    }
    for qualname in sorted(project.functions):
        function = project.functions[qualname]
        for call in function.calls:
            if not call.locks_held:
                continue
            if call.callee is None or call.callee not in acquires:
                continue
            for acquired in sorted(acquires[call.callee]):
                for held in call.locks_held:
                    if held != acquired:
                        pairs[qualname].add(
                            (held, acquired, call.line, call.col)
                        )
    return (
        {q: frozenset(s) for q, s in acquires.items()},
        {q: frozenset(s) for q, s in pairs.items()},
    )


def solve(project: "ProjectGraph") -> DataflowResult:
    """Solve every fixpoint the W/T rules consume."""
    rng_direct = {
        q: set(f.rng_param_draws) for q, f in project.functions.items()
    }
    seed_direct = {
        q: set(f.seed_sink_params) for q, f in project.functions.items()
    }
    acquires, pairs = _solve_locks(project)
    return DataflowResult(
        rng_params=_propagate_params(project, rng_direct),
        seed_params=_propagate_params(project, seed_direct),
        rng_returners=_solve_returners(project),
        lock_acquires=acquires,
        lock_pairs=pairs,
    )
