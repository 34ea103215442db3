"""S-series rules: structural contracts between subsystems.

Cross-cutting data contracts — the canonical
:class:`~repro.dataset.records.SessionTable` column schema, the
src/tests dependency direction — are easy to drift one call site at a
time.  These rules pin every literal occurrence to the single canonical
definition.
"""

from __future__ import annotations

import ast
from typing import Iterable

from .rules import FileContext, Finding, Rule, register

#: Canonical SessionTable column dtypes (numpy attribute names).  Must
#: mirror the Columns section of repro.dataset.records.SessionTable —
#: a deliberate double entry: schema changes must touch both files, so
#: the lint run turns accidental drift into a review-time error.
SESSION_TABLE_DTYPES: dict[str, tuple[str, ...]] = {
    "service_idx": ("numpy.int16",),
    "bs_id": ("numpy.int32",),
    "day": ("numpy.int16",),
    "start_minute": ("numpy.int16",),
    "duration_s": ("numpy.float32",),
    "volume_mb": ("numpy.float32",),
    "truncated": ("bool", "numpy.bool_"),
}

#: Array constructors whose dtype keyword the S301 rule inspects.
_ARRAY_CONSTRUCTORS = frozenset(
    {
        "numpy.array", "numpy.asarray", "numpy.empty", "numpy.zeros",
        "numpy.ones", "numpy.full", "numpy.arange", "numpy.repeat",
    }
)

#: Canonical dtype *strings* per column, as they appear in the
#: ``ColumnSpec`` descriptors of ``repro.dataset.records.TABLE_SCHEMA``
#: (the arena-era schema source of truth).  Derived from
#: :data:`SESSION_TABLE_DTYPES` so the two spellings cannot drift apart.
_COLUMN_DTYPE_STRINGS: dict[str, str] = {
    name: allowed[0].removeprefix("numpy.").removesuffix("_")
    for name, allowed in SESSION_TABLE_DTYPES.items()
}


@register
class SessionTableDtypeDrift(Rule):
    """S301 — SessionTable column literals contradicting the schema."""

    id = "S301"
    title = "SessionTable column dtype drift"
    severity = "error"
    rationale = (
        "The SessionTable schema (int16/int32/float32 columns) is the "
        "interchange format of the whole stack and part of every cache "
        "key and golden baseline.  A call site constructing a column with "
        "a different explicit dtype either silently widens campaign "
        "artifacts or breaks byte-identity across code paths."
    )

    def applies_to(self, ctx: FileContext) -> bool:
        """Scope: the library package."""
        return ctx.in_dirs("src")

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        """Flag explicit column dtypes that contradict the schema."""
        for call in ctx.calls():
            name = ctx.qualified(call.func)
            if name is None:
                continue
            if name.endswith("ColumnSpec"):
                yield from self._check_column_spec(ctx, call)
                continue
            if not name.endswith("SessionTable"):
                continue
            for kw in call.keywords:
                if kw.arg not in SESSION_TABLE_DTYPES:
                    continue
                dtype = self._explicit_dtype(ctx, kw.value)
                if dtype is None:
                    continue
                allowed = SESSION_TABLE_DTYPES[kw.arg]
                if dtype not in allowed:
                    yield self.finding(
                        ctx, kw.value,
                        f"column {kw.arg!r} constructed with dtype "
                        f"{dtype.replace('numpy', 'np')}, schema says "
                        f"{allowed[0].replace('numpy', 'np')}",
                    )

    def _check_column_spec(
        self, ctx: FileContext, call: ast.Call
    ) -> Iterable[Finding]:
        """Pin ``ColumnSpec(name, dtype)`` literals to the canonical schema.

        The schema descriptor tuple in ``repro.dataset.records`` is the
        arena-era source of truth; a descriptor renaming a column or
        changing its dtype string must also touch the lint mirror here, so
        accidental drift fails the lint run instead of silently changing
        artifact layouts.
        """
        args: dict[str, ast.expr] = {}
        for position, arg in enumerate(call.args[:2]):
            args[("name", "dtype")[position]] = arg
        for kw in call.keywords:
            if kw.arg in ("name", "dtype"):
                args[kw.arg] = kw.value
        name_node, dtype_node = args.get("name"), args.get("dtype")
        if not (
            isinstance(name_node, ast.Constant)
            and isinstance(name_node.value, str)
            and isinstance(dtype_node, ast.Constant)
            and isinstance(dtype_node.value, str)
        ):
            return
        column, dtype = name_node.value, dtype_node.value
        expected = _COLUMN_DTYPE_STRINGS.get(column)
        if expected is None:
            yield self.finding(
                ctx, name_node,
                f"ColumnSpec names unknown column {column!r}; the lint "
                "schema mirror knows "
                f"{sorted(_COLUMN_DTYPE_STRINGS)}",
            )
        elif dtype != expected:
            yield self.finding(
                ctx, dtype_node,
                f"ColumnSpec for {column!r} declares dtype {dtype!r}, "
                f"schema says {expected!r}",
            )

    @staticmethod
    def _explicit_dtype(ctx: FileContext, value: ast.expr) -> str | None:
        """Dtype literal of a column-constructor call, if present."""
        if not isinstance(value, ast.Call):
            return None
        name = ctx.qualified(value.func)
        if name not in _ARRAY_CONSTRUCTORS:
            return None
        dtype = None
        for kw in value.keywords:
            if kw.arg == "dtype":
                dtype = kw.value
        if dtype is None:
            return None
        return ctx.qualified(dtype)


@register
class TestImportInLibrary(Rule):
    """S303 — ``repro.*`` importing from tests/ or benchmarks/."""

    id = "S303"
    title = "library imports test/benchmark code"
    severity = "error"
    rationale = (
        "src/repro is the shipped package; tests/ and benchmarks/ are "
        "repo-only and absent from installs.  A library import of either "
        "works in CI and breaks for every downstream user."
    )

    _FORBIDDEN = ("tests", "benchmarks", "conftest")

    def applies_to(self, ctx: FileContext) -> bool:
        """Scope: the library package."""
        return ctx.in_dirs("src")

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        """Flag imports of the repo-only top-level packages."""
        for node in ast.walk(ctx.tree):
            modules: list[str] = []
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                modules = [node.module] if node.module else []
            for module in modules:
                top = module.split(".", 1)[0]
                if top in self._FORBIDDEN:
                    yield self.finding(
                        ctx, node,
                        f"library module imports {module!r}; shipped code "
                        "must not depend on repo-only packages",
                    )


@register
class SysPathMutation(Rule):
    """S304 — ``sys.path`` surgery inside the library."""

    id = "S304"
    title = "sys.path mutated in library code"
    severity = "error"
    rationale = (
        "sys.path edits make import resolution depend on call order and "
        "working directory — a reproducibility hazard and a packaging "
        "smell.  Scripts under tools/ and benchmarks/ may bootstrap "
        "their path; the installed package never does."
    )

    def applies_to(self, ctx: FileContext) -> bool:
        """Scope: the library package."""
        return ctx.in_dirs("src")

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        """Flag mutations and rebinds of ``sys.path``."""
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call) and isinstance(
                node.func, ast.Attribute
            ):
                target = node.func.value
                if (
                    ctx.qualified(target) == "sys.path"
                    and node.func.attr in ("append", "insert", "extend",
                                           "remove", "pop")
                ):
                    yield self.finding(
                        ctx, node,
                        "sys.path mutated in library code; fix packaging "
                        "instead of the import path",
                    )
            elif isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    if ctx.qualified(target) == "sys.path":
                        yield self.finding(
                            ctx, node,
                            "sys.path rebound in library code; fix "
                            "packaging instead of the import path",
                        )


@register
class PrintInComputeLayer(Rule):
    """S305 — ``print()`` inside the compute layers."""

    id = "S305"
    title = "print() in compute layer"
    severity = "warning"
    rationale = (
        "Stage progress flows through the telemetry renderer "
        "(Telemetry.observe/message) so verbosity flags, JSON logging and "
        "event capture stay consistent; a stray print() bypasses all "
        "three.  CLI, io.tables and obs are the sanctioned output seams."
    )

    _SCOPE = (
        "src/repro/core",
        "src/repro/dataset",
        "src/repro/analysis",
        "src/repro/pipeline",
        "src/repro/verify",
        "src/repro/usecases",
        "src/repro/campaign",
        "src/repro/serve",
    )

    def applies_to(self, ctx: FileContext) -> bool:
        """Scope: compute layers (CLI/io/obs print deliberately)."""
        return ctx.in_dirs(*self._SCOPE)

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        """Flag bare ``print`` calls."""
        for call in ctx.calls():
            if isinstance(call.func, ast.Name) and call.func.id == "print":
                yield self.finding(
                    ctx, call,
                    "print() in a compute layer bypasses the telemetry "
                    "renderer; use Telemetry.message/observe",
                )
