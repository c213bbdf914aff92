"""Tests for the experiment registry, CLI, and common infrastructure.

The heavyweight figure runs are exercised by benchmarks/; here we
cover dispatch, scale handling, table rendering, and the two fastest
experiment modules end-to-end.
"""

import pytest

from repro.errors import ConfigurationError
from repro.experiments.common import ExperimentResult, paper_config
from repro.experiments.registry import EXPERIMENTS, main, run_experiment
from repro.analysis.tables import Table
from repro.sim import engine
from repro.sim.executor import RunExecutor, use_executor


class TestPaperConfig:
    def test_full_scale_is_the_paper_setting(self):
        cfg = paper_config("full")
        assert cfg.n_users == 40
        assert cfg.n_slots == 10_000
        assert cfg.vbr_segments == 30
        assert cfg.buffer_capacity_s == 60.0

    def test_bench_scale_preserves_contention(self):
        full, bench = paper_config("full"), paper_config("bench")
        assert bench.n_users == full.n_users
        assert bench.capacity_kbps == full.capacity_kbps
        assert bench.n_slots < full.n_slots

    def test_overrides_apply(self):
        assert paper_config("bench", n_users=8).n_users == 8

    def test_unknown_scale_rejected(self):
        with pytest.raises(ConfigurationError):
            paper_config("galactic")


class TestRegistry:
    def test_all_figures_registered(self):
        assert set(EXPERIMENTS) == {
            "fig02",
            "fig03",
            "fig04",
            "fig05",
            "fig06",
            "fig07",
            "fig08",
            "fig09",
            "fig10",
            "theorem1",
            "churn",
        }

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ConfigurationError):
            run_experiment("fig99")

    def test_fig07_runs_end_to_end(self):
        result = run_experiment("fig07", scale="bench")
        assert isinstance(result, ExperimentResult)
        assert result.exp_id == "fig07"
        assert result.data["ema"]["mean_j"] < result.data["default"]["mean_j"]
        rendered = result.render()
        assert "fig07" in rendered and "ema" in rendered
        assert "| scheduler |" in result.to_markdown()

    def test_fig06_runs_end_to_end(self):
        result = run_experiment("fig06", scale="bench")
        assert result.data["ema"]["mean_windowed"] > result.data["default"]["mean_windowed"]


class TestCLI:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig02" in out and "theorem1" in out

    def test_run_prints_tables(self, capsys):
        assert main(["run", "fig07", "--scale", "bench"]) == 0
        out = capsys.readouterr().out
        assert "ema" in out

    def test_run_markdown(self, capsys):
        assert main(["run", "fig07", "--scale", "bench", "--markdown"]) == 0
        assert "| scheduler |" in capsys.readouterr().out


class TestPhasedDrivers:
    """A figure's slot loops: one for every sweep point's calibration
    (reference, probe and grid), one for every point's comparison.
    fig04 and fig08 run that pair once per panel; fig10 calibrates RTMA
    and EMA in one loop each."""

    @pytest.mark.parametrize(
        "exp_id, loops, runs",
        [
            ("fig02", 2, 12),
            ("fig03", 2, 12),
            ("fig04", 4, 78),
            ("fig05", 2, 39),
            ("fig08", 4, 66),
            ("fig09", 2, 33),
            ("fig10", 3, 57),
        ],
    )
    def test_slot_loops_at_bench_scale(self, monkeypatch, exp_id, loops, runs):
        census = {"loops": 0, "runs": 0}
        slot_loop = engine._slot_loop

        def counted(tasks, *args):
            census["loops"] += 1
            census["runs"] += len(tasks)
            return slot_loop(tasks, *args)

        monkeypatch.setattr(engine, "_slot_loop", counted)
        with use_executor(RunExecutor()):
            run_experiment(exp_id, scale="bench")
        assert census == {"loops": loops, "runs": runs}


class TestExperimentResult:
    def test_render_joins_tables(self):
        t1 = Table(["a"])
        t1.add_row([1])
        t2 = Table(["b"])
        t2.add_row([2])
        res = ExperimentResult("figXX", "two tables", [t1, t2])
        out = res.render()
        assert "figXX" in out and "a" in out and "b" in out
