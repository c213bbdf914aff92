"""Tests for analysis helpers: CDF queries, stats, tables."""

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.analysis.cdf import cdf_at, quantile, tail_fraction
from repro.analysis.stats import bootstrap_ci, mean_confidence_interval, relative_reduction
from repro.analysis.tables import Table
from repro.errors import ConfigurationError


class TestCDFQueries:
    def test_cdf_at(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        assert cdf_at(x, 2.0) == 0.5
        assert cdf_at(x, 0.0) == 0.0
        assert cdf_at(x, 10.0) == 1.0

    def test_tail_fraction(self):
        x = np.array([0.1, 0.5, 0.8, 0.9])
        assert tail_fraction(x, 0.7) == 0.5

    def test_quantile(self):
        x = np.arange(101, dtype=float)
        assert quantile(x, 0.5) == 50.0
        with pytest.raises(ConfigurationError):
            quantile(x, 1.5)

    def test_nan_handling(self):
        assert cdf_at(np.array([1.0, np.nan]), 1.0) == 1.0
        with pytest.raises(ConfigurationError):
            cdf_at(np.array([np.nan]), 1.0)


class TestStats:
    def test_mean_ci_contains_mean(self, rng):
        x = rng.normal(10, 2, 40)
        m, lo, hi = mean_confidence_interval(x)
        assert lo <= m <= hi
        assert m == pytest.approx(x.mean())

    def test_mean_ci_width_shrinks_with_samples(self, rng):
        small = rng.normal(0, 1, 10)
        large = rng.normal(0, 1, 1000)
        _, lo_s, hi_s = mean_confidence_interval(small)
        _, lo_l, hi_l = mean_confidence_interval(large)
        assert (hi_l - lo_l) < (hi_s - lo_s)

    def test_degenerate_cases(self):
        m, lo, hi = mean_confidence_interval([5.0])
        assert m == lo == hi == 5.0
        m, lo, hi = mean_confidence_interval([3.0, 3.0, 3.0])
        assert lo == hi == 3.0

    def test_bootstrap_ci(self, rng):
        x = rng.normal(5, 1, 60)
        point, lo, hi = bootstrap_ci(x, rng=rng)
        assert lo <= point <= hi
        assert point == pytest.approx(x.mean())

    def test_relative_reduction(self):
        assert relative_reduction(100.0, 32.0) == pytest.approx(0.68)
        assert relative_reduction(100.0, 120.0) == pytest.approx(-0.2)
        with pytest.raises(ConfigurationError):
            relative_reduction(0.0, 1.0)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            mean_confidence_interval([])
        with pytest.raises(ConfigurationError):
            mean_confidence_interval([1.0], confidence=1.5)

    def test_student_t_values_pinned(self):
        # Pinned Student-t intervals: the lazy scipy import keeps them exact.
        assert mean_confidence_interval([1.0, 2.0, 4.0, 8.0]) == (
            3.75, -1.1759430482302937, 8.675943048230295
        )
        assert mean_confidence_interval([0.5, 0.25, 3.0], confidence=0.9) == (
            1.25, -1.3136630864941328, 3.8136630864941328
        )


class TestColdImport:
    @staticmethod
    def _loaded_after_import(module):
        code = (
            "import sys, repro, repro.experiments.registry; "
            f"print({module!r} in sys.modules)"
        )
        src = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.abspath(src)] + [p for p in [env.get("PYTHONPATH")] if p]
        )
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True,
            text=True, check=True,
        )
        return out.stdout.strip() == "True"

    def test_package_import_leaves_scipy_stats_unloaded(self):
        # scipy.stats is the slowest import reachable from the package;
        # only mean_confidence_interval needs it, and it imports lazily.
        assert not self._loaded_after_import("scipy.stats")

    def test_package_import_leaves_scipy_ndimage_unloaded(self):
        # Only EMA's minimum filter needs scipy.ndimage: the DP kernel
        # binds it on its first call, trailing_window_min on each call.
        assert not self._loaded_after_import("scipy.ndimage")

    def test_package_import_leaves_live_http_server_unloaded(self):
        # repro.obs resolves its exports lazily: only the live plane's
        # exporter needs http.server, and nothing the package imports
        # loads the live plane.
        assert not self._loaded_after_import("http.server")


class TestTable:
    def test_render_alignment(self):
        t = Table(["name", "value"], formats=[None, ".2f"], title="T")
        t.add_row(["alpha", 1.234])
        t.add_row(["b", 10.0])
        out = t.render()
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "1.23" in out and "10.00" in out
        # All data lines share the same width.
        assert len(lines[2]) == len(lines[3])

    def test_markdown(self):
        t = Table(["a", "b"])
        t.add_row([1, 2])
        md = t.to_markdown()
        assert "| a | b |" in md
        assert "| 1 | 2 |" in md

    def test_row_length_checked(self):
        t = Table(["a", "b"])
        with pytest.raises(ConfigurationError):
            t.add_row([1])

    def test_format_length_checked(self):
        with pytest.raises(ConfigurationError):
            Table(["a", "b"], formats=[".2f"])

    def test_string_cells_ignore_format(self):
        t = Table(["x"], formats=[".3f"])
        t.add_row(["n/a"])
        assert "n/a" in t.render()
