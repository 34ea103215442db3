"""Positive and negative fixtures for every S-series rule."""

from __future__ import annotations

from .helpers import run_rule


class TestS301SessionTableDtype:
    """S301 pins explicit column dtypes to the canonical schema."""

    def test_flags_widened_column(self):
        """``bs_id`` built as int64 contradicts the int32 schema."""
        bad = """
            import numpy as np
            from repro.dataset.records import SessionTable

            def build(n):
                return SessionTable(
                    bs_id=np.full(n, 7, dtype=np.int64),
                )
        """
        found = run_rule("S301", bad)
        assert len(found) == 1
        assert "bs_id" in found[0].message

    def test_allows_schema_dtype(self):
        """The schema dtype passes, and implicit dtypes are out of scope."""
        good = """
            import numpy as np
            from repro.dataset.records import SessionTable

            def build(n, starts):
                return SessionTable(
                    bs_id=np.full(n, 7, dtype=np.int32),
                    day=np.full(n, 1, dtype=np.int16),
                    start_minute=starts,
                )
        """
        assert run_rule("S301", good) == []

    def test_out_of_scope_ignored(self):
        """tests/ may build odd tables on purpose."""
        bad = """
            import numpy as np
            from repro.dataset.records import SessionTable
            t = SessionTable(day=np.full(3, 1, dtype=np.int64))
        """
        assert run_rule("S301", bad, "tools/x.py") == []

    def test_flags_column_spec_dtype_drift(self):
        """A schema descriptor widening a column contradicts the mirror."""
        bad = """
            from repro.dataset.records import ColumnSpec
            SCHEMA = (
                ColumnSpec("bs_id", "int64"),
            )
        """
        found = run_rule("S301", bad)
        assert len(found) == 1
        assert "bs_id" in found[0].message
        assert "int64" in found[0].message

    def test_flags_column_spec_unknown_column(self):
        """A descriptor naming a column outside the schema is drift too."""
        bad = """
            from repro.dataset.records import ColumnSpec
            EXTRA = ColumnSpec("latency_ms", "float32")
        """
        found = run_rule("S301", bad)
        assert len(found) == 1
        assert "latency_ms" in found[0].message

    def test_allows_canonical_column_specs(self):
        """The canonical descriptor tuple passes, keyword form included."""
        good = """
            from repro.dataset.records import ColumnSpec
            SCHEMA = (
                ColumnSpec("service_idx", "int16"),
                ColumnSpec("bs_id", "int32"),
                ColumnSpec("day", "int16"),
                ColumnSpec("start_minute", "int16"),
                ColumnSpec("duration_s", "float32"),
                ColumnSpec("volume_mb", "float32"),
                ColumnSpec(name="truncated", dtype="bool"),
            )
        """
        assert run_rule("S301", good) == []

    def test_column_spec_non_literal_ignored(self):
        """Descriptors built from variables are out of static reach."""
        good = """
            from repro.dataset.records import ColumnSpec
            def widen(name, dtype):
                return ColumnSpec(name, dtype)
        """
        assert run_rule("S301", good) == []


class TestS303TestImportInLibrary:
    """S303 keeps the src → tests dependency arrow one-way."""

    def test_flags_tests_import(self):
        """``from tests.x import y`` breaks every installed copy."""
        bad = "from tests.conftest import campaign\n"
        assert len(run_rule("S303", bad)) == 1

    def test_flags_benchmarks_import(self):
        """benchmarks/ is repo-only too."""
        assert len(run_rule("S303", "import benchmarks.bench_x\n")) == 1

    def test_allows_library_imports(self):
        """Intra-package imports are the normal case."""
        good = """
            from repro.dataset.records import SessionTable
            import numpy as np
        """
        assert run_rule("S303", good) == []

    def test_tests_importing_tests_ignored(self):
        """tests/ importing tests/ is out of scope (src only)."""
        src = "from tests.lint.helpers import run_rule\n"
        assert run_rule("S303", src, "tests/lint/test_x.py") == []


class TestS304SysPath:
    """S304 bans sys.path surgery in the shipped package."""

    def test_flags_append(self):
        """``sys.path.append`` makes imports depend on call order."""
        bad = """
            import sys
            sys.path.append("..")
        """
        assert len(run_rule("S304", bad)) == 1

    def test_flags_rebind(self):
        """Rebinding ``sys.path`` wholesale is the same hazard."""
        bad = """
            import sys
            sys.path = ["/tmp"]
        """
        assert len(run_rule("S304", bad)) == 1

    def test_allows_read(self):
        """Reading sys.path is harmless."""
        good = """
            import sys
            first = sys.path[0]
        """
        assert run_rule("S304", good) == []

    def test_tools_out_of_scope(self):
        """Scripts may bootstrap their import path."""
        src = """
            import sys
            sys.path.insert(0, "src")
        """
        assert run_rule("S304", src, "tools/demo.py") == []


class TestS305PrintInCompute:
    """S305 routes compute-layer output through telemetry."""

    def test_flags_print(self):
        """A stray print() bypasses verbosity flags and JSON logging."""
        bad = """
            def fit(x):
                print("fitting", x)
                return x
        """
        found = run_rule("S305", bad)
        assert len(found) == 1
        assert found[0].severity == "warning"

    def test_cli_layer_exempt(self):
        """The CLI prints deliberately."""
        src = "print('usage: ...')\n"
        assert run_rule("S305", src, "src/repro/cli.py") == []
