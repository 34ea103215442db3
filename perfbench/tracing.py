"""In-memory span recorder and the timing wrappers of the traced run.

The traced run never edits program source: :meth:`Tracer.wrap` swaps a
timing wrapper in for one public function or method, at every place the
program looks it up (the class dict, or every ``repro.*`` module that
imported the function by name), and :meth:`Tracer.restore` puts the
originals back.  Each call becomes one span — name, start, end, parent
span, run id — kept in a list and written out only when the run ends.

A layer's *self* time is its span's duration minus the part of that
interval its child spans cover (:func:`self_seconds`).
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Any, Callable

#: Span tuple layout: (span_id, parent_id, name, start, end).
SPAN_ID, PARENT, NAME, START, END = range(5)


class Tracer:
    """Spans and counters of one run, recorded in memory."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.counts: Counter[str] = Counter()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[Any, str, Any]] = []
        #: Span names and counter names of every wrapped target.
        self.names: set[str] = set()
        self.count_keys: set[str] = set()

    # -- recording --------------------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- wrappers ---------------------------------------------------------
    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        count: dict[str, Callable[[tuple, Any], float]] | None = None,
    ) -> None:
        """Time every call of ``owner.attr`` as a span named ``name``.

        ``owner`` is a class (methods, class- and static methods) or a
        module (functions; every loaded ``repro`` module holding the same
        function object is patched too).  ``count`` maps counter names to
        ``fn(args, result)``, the increment of one call.  A target that
        does not exist raises :class:`AttributeError`: a renamed layer
        must fail the run, not report zero.
        """
        if isinstance(owner, type):
            raw = owner.__dict__.get(attr)
        else:
            raw = getattr(owner, attr, None)
        if raw is None:
            raise AttributeError(
                f"{getattr(owner, '__name__', owner)!r} has no {attr!r} to trace"
            )
        self.names.add(name)
        self.count_keys.add(name + ".calls")
        self.count_keys.update(count or ())
        if isinstance(owner, type):
            if isinstance(raw, (classmethod, staticmethod)):
                inner = self._timed(raw.__func__, name, count)
                self._patch(owner, attr, type(raw)(inner))
            else:
                self._patch(owner, attr, self._timed(raw, name, count))
            return
        timed = self._timed(raw, name, count)
        for module in list(sys.modules.values()):
            module_name = getattr(module, "__name__", "") or ""
            if module_name.startswith("repro") and (
                module.__dict__.get(attr) is raw
            ):
                self._patch(module, attr, timed)

    def _timed(self, fn: Callable, name: str, count) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            stack = tracer._stack()
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append((span_id, parent, name, start, end))
            tracer.counts[name + ".calls"] += 1
            for key, increment in (count or {}).items():
                tracer.counts[key] += increment(args, result)
            return result

        return timed

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def totals(self, counts) -> dict[str, float]:
        """``counts`` as a plain dict over every wrapped counter name.

        Looking up a name that no wrapper records raises ``KeyError``
        instead of reading as zero.
        """
        return {key: counts.get(key, 0) for key in self.count_keys}

    def restore(self) -> None:
        """Put every wrapped original back (reverse order)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def write_spans(path: Path, run_id: str, spans) -> None:
    """Write spans as JSON lines, one object per span (the trace file)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        for span_id, parent, name, start, end in spans:
            handle.write(
                json.dumps(
                    {
                        "run": run_id,
                        "id": span_id,
                        "parent": parent,
                        "name": name,
                        "start": start,
                        "end": end,
                    }
                )
                + "\n"
            )


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Total length of the union of ``intervals``."""
    total, reach = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= reach:
            continue
        total += hi - max(lo, reach)
        reach = hi
    return total


def busy_seconds(spans, names) -> dict[str, float]:
    """Summed duration per span name, zero for a name with no span.

    ``names`` are the wrapped span names; the result is a plain dict, so
    a name that no wrapper records raises ``KeyError`` on lookup.
    """
    busy = dict.fromkeys(names, 0.0)
    for span in spans:
        busy[span[NAME]] += span[END] - span[START]
    return busy


def self_seconds(spans) -> dict[str, float]:
    """Summed self time per span name: duration minus child coverage."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        children[span[PARENT]].append((span[START], span[END]))
    own: dict[str, float] = {}
    for span in spans:
        clipped = [
            (max(lo, span[START]), min(hi, span[END]))
            for lo, hi in children.get(span[SPAN_ID], [])
        ]
        own[span[NAME]] = own.get(span[NAME], 0.0) + (
            span[END] - span[START]
        ) - _covered([c for c in clipped if c[1] > c[0]])
    return own


def by_root(spans, root: str) -> list[list[tuple]]:
    """Spans grouped by the ``root`` span they descend from.

    Spans outside every root subtree (set-up, output checks) are dropped;
    groups come in the roots' start order.
    """
    parent_of = {span[SPAN_ID]: span[PARENT] for span in spans}
    name_of = {span[SPAN_ID]: span[NAME] for span in spans}
    owner: dict[int, int] = {0: 0}

    def resolve(span_id: int) -> int:
        chain = []
        while span_id not in owner:
            if name_of.get(span_id) == root:
                owner[span_id] = span_id
                break
            chain.append(span_id)
            span_id = parent_of.get(span_id, 0)
        found = owner[span_id]
        for link in chain:
            owner[link] = found
        return found

    groups: dict[int, list[tuple]] = defaultdict(list)
    for span in spans:
        found = resolve(span[SPAN_ID])
        if found:
            groups[found].append(span)
    starts = {s[SPAN_ID]: s[START] for s in spans if s[NAME] == root}
    return [groups[key] for key in sorted(groups, key=starts.__getitem__)]


def coverage(spans, root: str, structural: set[str]) -> float:
    """Share of the ``root`` spans' time inside non-structural spans.

    ``spans`` must already be restricted to the roots' subtrees
    (:func:`by_root`).  Structural spans (such as the executor loop)
    only frame work; the share is what named layers below them cover.
    """
    total = sum(s[END] - s[START] for s in spans if s[NAME] == root)
    if not total:
        return 0.0
    named = [
        (s[START], s[END])
        for s in spans
        if s[NAME] != root and s[NAME] not in structural
    ]
    return _covered(named) / total
