"""D-series rules: determinism of the generative engine.

The paper's models (arrivals as Gaussian + Pareto mixtures, log-normal
volume mixtures, Eq (3)–(5)) are reproduced under a hard guarantee:
equal root seeds produce byte-identical campaigns regardless of worker
count, chunking or host platform.  Every rule in this pack encodes one
way that guarantee has broken — or nearly broken — in practice:
module-level RNG state, unseeded generators, wall-clock reads, default
integer dtypes that differ across platforms, gzip headers embedding
mtimes, and shared-RNG draws whose results depend on container
iteration order.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from .rules import FileContext, Finding, Rule, register

#: Layers that must stay free of wall clocks and ambient randomness.
DETERMINISTIC_DIRS = (
    "src/repro/core",
    "src/repro/pipeline",
    "src/repro/io",
    "src/repro/campaign",
)

#: Generator/simulator hot paths where array dtypes must be explicit.
HOT_PATH_FILES = (
    "src/repro/core/generator.py",
    "src/repro/dataset/simulator.py",
    "src/repro/dataset/streaming.py",
)

#: Legacy ``numpy.random`` module-level draw/state functions.  Calling
#: any of them consumes or mutates the hidden global RandomState.
LEGACY_NP_RANDOM = frozenset(
    {
        "seed", "get_state", "set_state", "random", "random_sample",
        "ranf", "sample", "rand", "randn", "randint", "random_integers",
        "choice", "bytes", "shuffle", "permutation", "beta", "binomial",
        "chisquare", "dirichlet", "exponential", "f", "gamma", "geometric",
        "gumbel", "hypergeometric", "laplace", "logistic", "lognormal",
        "logseries", "multinomial", "multivariate_normal",
        "negative_binomial", "noncentral_chisquare", "noncentral_f",
        "normal", "pareto", "poisson", "power", "rayleigh",
        "standard_cauchy", "standard_exponential", "standard_gamma",
        "standard_normal", "standard_t", "triangular", "uniform",
        "vonmises", "wald", "weibull", "zipf",
    }
)

#: Wall-clock reads forbidden in the deterministic layers.  The
#: monotonic timers (``perf_counter``, ``process_time``, ``monotonic``)
#: stay allowed: telemetry measures durations with them, strictly
#: out-of-band.
WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)


@register
class ModuleLevelNumpyRandom(Rule):
    """D101 — calls into the hidden ``numpy.random`` global RandomState."""

    id = "D101"
    title = "module-level numpy.random state"
    severity = "error"
    rationale = (
        "numpy.random.seed()/rand()/… share one hidden global RandomState: "
        "draws depend on everything drawn before them, across modules and "
        "worker processes.  Every stream must come from a spawned "
        "SeedSequence (repro.pipeline.context.stream_rng)."
    )

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        """Flag any ``numpy.random.<legacy>`` call expression."""
        for call in ctx.calls():
            name = ctx.qualified(call.func)
            if name is None or not name.startswith("numpy.random."):
                continue
            tail = name[len("numpy.random."):]
            if tail in LEGACY_NP_RANDOM:
                yield self.finding(
                    ctx, call,
                    f"call to numpy.random.{tail} uses the global "
                    "RandomState; draw from a seed-stream Generator instead",
                )


@register
class UnseededDefaultRng(Rule):
    """D102 — ``default_rng()`` with no seed argument."""

    id = "D102"
    title = "unseeded default_rng()"
    severity = "error"
    rationale = (
        "default_rng() with no argument seeds from OS entropy, so two runs "
        "of the same command diverge.  Every Generator must be constructed "
        "from the run's root seed via a named seed stream."
    )

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        """Flag zero-argument ``numpy.random.default_rng`` calls."""
        for call in ctx.calls():
            if ctx.qualified(call.func) != "numpy.random.default_rng":
                continue
            if not call.args and not call.keywords:
                yield self.finding(
                    ctx, call,
                    "default_rng() without a seed draws OS entropy; pass a "
                    "SeedSequence from the run's seed streams",
                )


@register
class WallClockInDeterministicLayer(Rule):
    """D103 — wall-clock reads inside core/pipeline/io."""

    id = "D103"
    title = "wall clock in deterministic layer"
    severity = "error"
    rationale = (
        "time.time()/datetime.now() make outputs depend on when a run "
        "happens (PR 3's gzip-mtime bug entered this way).  The "
        "deterministic layers may measure durations with the monotonic "
        "timers, but must never read calendar time."
    )

    def applies_to(self, ctx: FileContext) -> bool:
        """Only the deterministic layers are in scope."""
        return ctx.in_dirs(*DETERMINISTIC_DIRS)

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        """Flag calendar-time calls (monotonic timers stay allowed)."""
        for call in ctx.calls():
            name = ctx.qualified(call.func)
            if name in WALL_CLOCK_CALLS:
                yield self.finding(
                    ctx, call,
                    f"{name}() reads the wall clock inside a deterministic "
                    "layer; outputs must not depend on run time",
                )


@register
class StdlibRandomImport(Rule):
    """D104 — the stdlib ``random`` module in core/pipeline/io."""

    id = "D104"
    title = "stdlib random in deterministic layer"
    severity = "error"
    rationale = (
        "The stdlib random module is one more hidden global stream, seeded "
        "from OS entropy at interpreter start.  All randomness flows "
        "through numpy Generators derived from the run seed."
    )

    def applies_to(self, ctx: FileContext) -> bool:
        """Only the deterministic layers are in scope."""
        return ctx.in_dirs(*DETERMINISTIC_DIRS)

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        """Flag ``import random`` / ``from random import …``."""
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random" or alias.name.startswith(
                        "random."
                    ):
                        yield self.finding(
                            ctx, node,
                            "stdlib random imported in a deterministic "
                            "layer; use seed-stream numpy Generators",
                        )
            elif isinstance(node, ast.ImportFrom):
                if not node.level and node.module == "random":
                    yield self.finding(
                        ctx, node,
                        "stdlib random imported in a deterministic layer; "
                        "use seed-stream numpy Generators",
                    )


@register
class ImplicitDtypeInHotPath(Rule):
    """D105 — dtype-unspecified ``np.full``/``np.arange`` in hot paths."""

    id = "D105"
    title = "implicit array dtype in generator hot path"
    severity = "warning"
    rationale = (
        "np.full and np.arange infer their dtype from the fill/stop "
        "values: a Python int becomes the platform C long (int32 on "
        "Windows, int64 elsewhere), so campaign bytes differ across "
        "platforms — exactly the generate_bs_day bug PR 3 fixed.  Hot-path "
        "constructions must pin dtype= explicitly."
    )

    _CONSTRUCTORS = ("numpy.full", "numpy.arange")

    def applies_to(self, ctx: FileContext) -> bool:
        """Only the generator/simulator hot-path modules are in scope."""
        return ctx.in_dirs(*HOT_PATH_FILES)

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        """Flag value-dtyped constructors missing an explicit dtype."""
        for call in ctx.calls():
            name = ctx.qualified(call.func)
            if name not in self._CONSTRUCTORS:
                continue
            if ctx.keyword(call, "dtype") is None:
                yield self.finding(
                    ctx, call,
                    f"{name.replace('numpy', 'np')} without dtype= infers a "
                    "platform-dependent dtype in a generator hot path",
                )


def _assigned_names(stmts: Iterable[ast.stmt]) -> set[str]:
    """Names bound anywhere inside the given statements."""
    bound: set[str] = set()
    for stmt in stmts:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(
                node.ctx, (ast.Store, ast.Del)
            ):
                bound.add(node.id)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                bound.add(node.name)
    return bound


def _rng_args(call: ast.Call) -> Iterator[str]:
    """Names of rng-looking arguments of one call."""
    values = list(call.args) + [kw.value for kw in call.keywords]
    for value in values:
        if isinstance(value, ast.Name) and rng_named(value.id):
            yield value.id


def rng_named(name: str) -> bool:
    """The name heuristic D106 (and the W-series) treat as a generator."""
    return name == "rng" or name.endswith("_rng")


def is_view_loop(iter_expr: ast.expr) -> bool:
    """Whether a loop iterates a dict view (possibly wrapped).

    Shared with the whole-program W403 rule, which generalizes D106
    across call boundaries.
    """
    expr = iter_expr
    # Unwrap enumerate()/sorted()/list()/tuple() one level at a time.
    while (
        isinstance(expr, ast.Call)
        and isinstance(expr.func, ast.Name)
        and expr.func.id in ("enumerate", "sorted", "list", "tuple")
        and expr.args
    ):
        expr = expr.args[0]
    return (
        isinstance(expr, ast.Call)
        and isinstance(expr.func, ast.Attribute)
        and expr.func.attr in ("items", "values", "keys")
    )


@register
class SharedRngInCollectionLoop(Rule):
    """D106 — one shared RNG consumed while looping a container view."""

    id = "D106"
    title = "shared RNG drawn inside collection-order loop"
    severity = "error"
    rationale = (
        "Draws from one Generator inside a loop over dict views make "
        "every unit's samples depend on the container's iteration order "
        "and on all units before it — the exact coupling the per-(day, BS) "
        "seed streams removed.  Derive a fresh rng per unit from "
        "unit_seed()/stream_rng() instead."
    )

    def applies_to(self, ctx: FileContext) -> bool:
        """Scope: the deterministic compute layers."""
        return ctx.in_dirs(
            "src/repro/core", "src/repro/dataset", "src/repro/pipeline"
        )

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        """Flag rng args consumed inside ``for … in x.items()/…`` bodies."""
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.For):
                continue
            if not self._is_view_loop(node.iter):
                continue
            local = _assigned_names(node.body) | _assigned_names([node.target])
            for call in ast.walk(ast.Module(body=node.body, type_ignores=[])):
                if not isinstance(call, ast.Call):
                    continue
                for rng_name in _rng_args(call):
                    if rng_name not in local:
                        yield self.finding(
                            ctx, call,
                            f"shared generator {rng_name!r} consumed inside "
                            "a dict-view loop couples results to iteration "
                            "order; derive a per-unit seed stream",
                        )

    @staticmethod
    def _is_view_loop(iter_expr: ast.expr) -> bool:
        """Whether the loop iterates a dict view (possibly wrapped)."""
        return is_view_loop(iter_expr)


@register
class UnpinnedGzipMtime(Rule):
    """D107 — gzip writes without a pinned header mtime."""

    id = "D107"
    title = "gzip write without pinned mtime"
    severity = "error"
    rationale = (
        "gzip.open()/GzipFile default to embedding the current wall clock "
        "(and the output filename) in the stream header, so two exports "
        "of the same campaign differ byte-wise — the exact PR 3 trace bug. "
        "Write through gzip.GzipFile(..., mtime=0)."
    )

    def applies_to(self, ctx: FileContext) -> bool:
        """Scope: the library (tools/benchmarks may write throwaways)."""
        return ctx.in_dirs("src")

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        """Flag literal write-mode gzip constructors lacking mtime=."""
        for call in ctx.calls():
            name = ctx.qualified(call.func)
            if name not in ("gzip.open", "gzip.GzipFile"):
                continue
            mode = self._literal_mode(ctx, call)
            if mode is None or "w" not in mode and "a" not in mode and "x" not in mode:
                continue
            if ctx.keyword(call, "mtime") is None:
                yield self.finding(
                    ctx, call,
                    f"{name} in write mode embeds the wall clock in the "
                    "gzip header; pass mtime=0 (gzip.GzipFile) for "
                    "byte-deterministic output",
                )

    @staticmethod
    def _literal_mode(ctx: FileContext, call: ast.Call) -> str | None:
        """The call's mode argument when given as a string literal."""
        mode = ctx.keyword(call, "mode")
        if mode is None and len(call.args) >= 2:
            mode = call.args[1]
        if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
            return mode.value
        return None
