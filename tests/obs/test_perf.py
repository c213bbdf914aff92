"""Tests of the benchmark history ledger and change-point detection
(:mod:`repro.obs.perf`) plus the ``repro-bench`` CLI."""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess

import pytest

from repro.errors import ConfigurationError
from repro.obs.bench_cli import main as bench_main
from repro.obs.metrics import MetricsRegistry
from repro.obs.perf import (
    BenchRecord,
    bench_entries,
    bootstrap_median_ci,
    check_against_history,
    classify_change,
    load_ledger,
    machine_fingerprint,
    record_snapshot,
    trend_html,
    warn_gate_skipped,
)
from repro.obs.provenance import short_revision, tree_revision

KERNEL_HIST = "bench.test_rtma_allocate_slot[numpy].seconds"


def _snapshot(p50: float = 1e-3) -> dict:
    return {
        "counters": {},
        "gauges": {"scaling.rtma.u200.slots_per_sec": 5000.0},
        "info": {},
        "histograms": {
            KERNEL_HIST: {
                "count": 30,
                "mean": p50 * 1.05,
                "p50": p50,
                "p95": p50 * 1.3,
                "min": p50 * 0.8,
                "max": p50 * 1.5,
            }
        },
    }


def _write_snapshot(tmp_path, p50=1e-3, name="BENCH_kernels.json"):
    path = tmp_path / name
    path.write_text(json.dumps(_snapshot(p50)))
    return path


class TestFingerprint:
    def test_stable_and_short(self):
        a, b = machine_fingerprint(), machine_fingerprint()
        assert a["id"] == b["id"]
        assert len(a["id"]) == 12
        assert a["python"] and a["numpy"]


class TestBenchEntries:
    def test_histograms_and_gauges_flatten(self):
        entries = bench_entries(_snapshot())
        assert entries[KERNEL_HIST]["p50"] == 1e-3
        assert entries["scaling.rtma.u200.slots_per_sec"] == {"value": 5000.0}

    def test_empty_histograms_skipped(self):
        entries = bench_entries({"histograms": {"x": {"count": 0}}, "gauges": {}})
        assert entries == {}


class TestLedger:
    def test_record_and_load_round_trip(self, tmp_path):
        snap = _write_snapshot(tmp_path)
        ledger = tmp_path / "history.jsonl"
        record = record_snapshot(snap, ledger)
        assert record.source == "kernels"
        # Detected from the "[numpy]" token inside the histogram name.
        assert record.backend == "numpy"
        assert record.machine_id == machine_fingerprint()["id"]
        loaded = load_ledger(ledger)
        assert len(loaded) == 1
        assert loaded[0].entries == record.entries

    def test_append_preserves_order(self, tmp_path):
        snap = _write_snapshot(tmp_path)
        ledger = tmp_path / "history.jsonl"
        first = record_snapshot(snap, ledger)
        second = record_snapshot(snap, ledger)
        assert first.recorded_at <= second.recorded_at
        assert len(load_ledger(ledger)) == 2

    def test_missing_snapshot_raises(self, tmp_path):
        with pytest.raises(ConfigurationError):
            record_snapshot(tmp_path / "nope.json", tmp_path / "history.jsonl")

    def test_malformed_lines_skipped(self, tmp_path):
        snap = _write_snapshot(tmp_path)
        ledger = tmp_path / "history.jsonl"
        record_snapshot(snap, ledger)
        with ledger.open("a") as fh:
            fh.write("not json\n")
        assert len(load_ledger(ledger)) == 1

    def test_load_missing_ledger_is_empty(self, tmp_path):
        assert load_ledger(tmp_path / "absent.jsonl") == []


def _git(repo, *args) -> str:
    out = subprocess.run(
        ["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
        cwd=repo,
        capture_output=True,
        check=True,
    )
    return out.stdout.decode()


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
class TestTreeRevision:
    @pytest.fixture
    def repo(self, tmp_path):
        repo = tmp_path / "repo"
        (repo / "src" / "sub").mkdir(parents=True)
        (repo / "benchmarks").mkdir()
        _git(repo, "init", "-q")
        (repo / "src" / "a.py").write_text("one\n")
        (repo / "README.md").write_text("docs\n")
        (repo / "benchmarks" / "history.jsonl").write_text("{}\n")
        (repo / ".gitignore").write_text("*.log\n")
        _git(repo, "add", "src", "README.md", "benchmarks", ".gitignore")
        _git(repo, "commit", "-q", "-m", "first")
        return repo

    def test_clean_tree_stamps_head(self, repo):
        head = _git(repo, "rev-parse", "HEAD").strip()
        assert tree_revision(repo) == head
        # Ignored files leave the tree clean.
        (repo / "src" / "run.log").write_text("noise\n")
        assert tree_revision(repo) == head

    def test_changed_tracked_file_stamps_diff_hash(self, repo):
        head = _git(repo, "rev-parse", "HEAD").strip()
        (repo / "src" / "a.py").write_text("two\n")
        diff = subprocess.run(
            ["git", "diff", "HEAD"], cwd=repo, capture_output=True, check=True
        ).stdout
        first = tree_revision(repo)
        assert first == f"{head}+dirty:{hashlib.sha256(diff).hexdigest()[:12]}"
        # A subdirectory of the checkout stamps the same revision.
        assert tree_revision(repo / "src" / "sub") == first
        # Another uncommitted change on the same commit stamps differently.
        (repo / "src" / "a.py").write_text("three\n")
        second = tree_revision(repo)
        assert second.startswith(f"{head}+dirty:")
        assert second != first
        assert short_revision(first) == f"{head[:12]}+dirty:{first[-12:]}"

    def test_untracked_file_is_dirty(self, repo):
        head = _git(repo, "rev-parse", "HEAD").strip()
        (repo / "src" / "sub" / "new.py").write_text("x = 1\n")
        first = tree_revision(repo)
        assert first.startswith(f"{head}+dirty:")
        assert tree_revision(repo / "src" / "sub") == first
        # The untracked file's contents count, not just its name.
        (repo / "src" / "sub" / "new.py").write_text("x = 2\n")
        assert tree_revision(repo) not in (first, head)

    def test_ledger_and_docs_keep_the_revision(self, repo):
        head = _git(repo, "rev-parse", "HEAD").strip()
        (repo / "benchmarks" / "history.jsonl").write_text("{}\n{}\n")
        (repo / "README.md").write_text("more docs\n")
        (repo / "NOTES.md").write_text("untracked\n")
        assert tree_revision(repo) == head
        (repo / "src" / "a.py").write_text("two\n")
        dirty = tree_revision(repo)
        assert dirty.startswith(f"{head}+dirty:")
        # Records appended from one code change share its revision.
        (repo / "benchmarks" / "history.jsonl").write_text("{}\n{}\n{}\n")
        assert tree_revision(repo) == dirty
        # A bench file is measured code.
        (repo / "benchmarks" / "bench_x.py").write_text("x = 1\n")
        assert tree_revision(repo) not in (dirty, head)

    def test_outside_a_checkout_has_no_revision(self, tmp_path):
        outside = tmp_path / "plain"
        outside.mkdir()
        assert tree_revision(outside) is None
        assert short_revision(None) == "unknown"

    def test_record_snapshot_stores_the_tree_revision(self, tmp_path, monkeypatch):
        stamp = "0123456789abcdef+dirty:fedcba987654"
        monkeypatch.setattr("repro.obs.perf.tree_revision", lambda: stamp)
        ledger = tmp_path / "history.jsonl"
        record = record_snapshot(_write_snapshot(tmp_path), ledger)
        assert record.git_rev == stamp
        assert [r.git_rev for r in load_ledger(ledger)] == [stamp]


class TestChangePoint:
    def test_insufficient_window(self):
        point = classify_change("m", [1.0, 1.0], 2.0)
        assert point.verdict == "insufficient"
        assert not point.is_failure

    def test_regression_detected(self):
        point = classify_change("m", [1.0] * 6, 2.0)
        assert point.verdict == "regressed"
        assert point.is_failure
        assert point.rel_delta == pytest.approx(1.0)

    def test_improvement_detected(self):
        point = classify_change("m", [1.0] * 6, 0.5)
        assert point.verdict == "improved"

    def test_small_delta_inside_min_effect_is_ok(self):
        # 3% above a perfectly tight window: outside the (degenerate)
        # CI but under the 5% minimum-effect floor.
        point = classify_change("m", [1.0] * 6, 1.03)
        assert point.verdict == "ok"

    def test_noisy_window_widens_ci(self):
        window = [1.0, 1.4, 0.7, 1.2, 0.9, 1.3, 0.8, 1.1]
        point = classify_change("m", window, 1.25)
        assert point.verdict == "ok"  # inside the bootstrap CI

    def test_higher_is_better_direction(self):
        point = classify_change(
            "scaling.ema.u1000.slots_per_sec",
            [5000.0] * 6,
            2000.0,
            lower_is_better=False,
        )
        assert point.verdict == "regressed"

    def test_bootstrap_deterministic(self):
        sample = [1.0, 1.1, 0.9, 1.05, 0.95]
        assert bootstrap_median_ci(sample, seed=7) == bootstrap_median_ci(
            sample, seed=7
        )

    def test_bootstrap_validates_inputs(self):
        with pytest.raises(ConfigurationError):
            bootstrap_median_ci([])
        with pytest.raises(ConfigurationError):
            bootstrap_median_ci([1.0], confidence=2.0)


def _record(ts, p50, backend="numpy", machine="m1", source="kernels"):
    return BenchRecord(
        recorded_at=ts,
        source=source,
        git_rev="abc",
        backend=backend,
        numba_version=None,
        machine={"id": machine},
        entries={"k.p50": {"p50": p50}},
    )


class TestHistoryCheck:
    def test_regression_against_trailing_window(self):
        ledger = [_record(float(i), 1.0) for i in range(6)]
        check = check_against_history(ledger, _record(10.0, 2.0))
        assert not check.ok
        assert check.failures[0].name == "k.p50"

    def test_steady_candidate_ok(self):
        ledger = [_record(float(i), 1.0) for i in range(6)]
        check = check_against_history(ledger, _record(10.0, 1.01))
        assert check.ok and check.compared == 1

    def test_other_backend_never_compared(self):
        ledger = [_record(float(i), 1.0, backend="numba") for i in range(6)]
        check = check_against_history(ledger, _record(10.0, 2.0))
        assert check.compared == 0
        assert check.skipped == 1
        assert check.notes  # "no ledger history ..."

    def test_other_machine_never_compared_by_default(self):
        ledger = [_record(float(i), 1.0, machine="other") for i in range(6)]
        assert check_against_history(ledger, _record(10.0, 2.0)).compared == 0
        relaxed = check_against_history(
            ledger, _record(10.0, 2.0), match_machine=False
        )
        assert not relaxed.ok

    def test_candidate_reloaded_from_disk_excluded(self, tmp_path):
        """A freshly-appended candidate must not feed its own window."""
        ledger_path = tmp_path / "history.jsonl"
        snap = _write_snapshot(tmp_path, p50=1e-3)
        for _ in range(5):
            record_snapshot(snap, ledger_path)
        snap = _write_snapshot(tmp_path, p50=2e-3)
        candidate = record_snapshot(snap, ledger_path)
        check = check_against_history(ledger_path, candidate)
        point = next(p for p in check.points if p.name == KERNEL_HIST)
        assert point.window == 5  # not 6
        assert point.verdict == "regressed"


class TestTrendHtml:
    def test_dashboard_renders_sparklines_and_verdicts(self, tmp_path):
        ledger = [_record(float(i), 1.0) for i in range(6)]
        ledger.append(_record(10.0, 2.0))
        html = trend_html(ledger)
        assert "<svg" in html
        assert "regressed" in html
        assert "k.p50" in html

    def test_empty_ledger_message(self):
        assert "ledger is empty" in trend_html([])


class TestGateSkipWarn:
    def test_counter_and_warn_line(self, capsys, caplog):
        registry = MetricsRegistry()
        warn_gate_skipped("no baseline for backend numba", registry)
        assert registry.counter("perf.gate_skipped").value == 1
        assert "perf gate skipped" in capsys.readouterr().out

    def test_ambient_metrics_fallback(self, capsys):
        from repro.obs.instrument import Instrumentation, use_instrumentation

        instr = Instrumentation()
        with use_instrumentation(instr):
            warn_gate_skipped("missing ledger")
        assert instr.metrics.counter("perf.gate_skipped").value == 1


class TestBenchCli:
    def test_record_trend_check_end_to_end(self, tmp_path, capsys):
        ledger = tmp_path / "history.jsonl"
        for i in range(4):
            snap = _write_snapshot(tmp_path, p50=1e-3)
            assert bench_main(
                ["record", str(snap), "--ledger", str(ledger)]
            ) == 0
        out = capsys.readouterr().out
        assert "recorded kernels" in out

        trend_out = tmp_path / "trend.html"
        assert bench_main(
            ["trend", "--ledger", str(ledger), "--out", str(trend_out)]
        ) == 0
        assert "<svg" in trend_out.read_text()

        # Steady history: check passes.
        assert bench_main(["check", "--ledger", str(ledger)]) == 0
        assert "repro-bench check: ok" in capsys.readouterr().out

        # Append a 3x regression: check exits 3.
        snap = _write_snapshot(tmp_path, p50=3e-3)
        assert bench_main(["record", str(snap), "--ledger", str(ledger)]) == 0
        assert bench_main(["check", "--ledger", str(ledger)]) == 3
        captured = capsys.readouterr()
        assert "REGRESSED" in captured.err

    def test_check_empty_ledger_warns_not_fails(self, tmp_path, capsys):
        rc = bench_main(["check", "--ledger", str(tmp_path / "none.jsonl")])
        assert rc == 0
        assert "perf gate skipped" in capsys.readouterr().out

    def test_check_short_history_warns(self, tmp_path, capsys):
        ledger = tmp_path / "history.jsonl"
        snap = _write_snapshot(tmp_path)
        for _ in range(2):
            assert bench_main(
                ["record", str(snap), "--ledger", str(ledger)]
            ) == 0
        assert bench_main(["check", "--ledger", str(ledger)]) == 0
        assert "perf gate skipped" in capsys.readouterr().out

    def test_record_rejects_empty_snapshot(self, tmp_path, capsys):
        bad = tmp_path / "empty.json"
        bad.write_text("{}")
        assert bench_main(
            ["record", str(bad), "--ledger", str(tmp_path / "h.jsonl")]
        ) == 2
        assert "error" in capsys.readouterr().err

    def test_trend_empty_ledger_errors(self, tmp_path, capsys):
        assert bench_main(
            ["trend", "--ledger", str(tmp_path / "none.jsonl"),
             "--out", str(tmp_path / "t.html")]
        ) == 2

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            bench_main(["--version"])
        assert exc.value.code == 0
        assert "repro-bench" in capsys.readouterr().out
