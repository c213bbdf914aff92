"""End-to-end tests of the ``repro-trace`` CLI (quickstart target)."""

import gzip
import json

import pytest

from repro.obs.analyze import main as analyze_main
from repro.obs.cli import main


class TestReproTrace:
    def test_quickstart_writes_all_artifacts(self, tmp_path, capsys):
        out = tmp_path / "trace_out"
        rc = main(["quickstart", "--out", str(out)])
        assert rc == 0

        trace = out / "trace.jsonl"
        manifest_path = out / "manifest.json"
        metrics_path = out / "metrics.json"
        assert trace.exists() and manifest_path.exists() and metrics_path.exists()

        events = [json.loads(line) for line in trace.read_text().splitlines()]
        slot_events = [e for e in events if e["kind"] == "slot"]
        # >= 1 event per simulated slot: three schedulers x 300 slots.
        assert len(slot_events) >= 900
        # Run boundaries frame each scheduler's run.
        starts = [e for e in events if e["kind"] == "run.start"]
        ends = [e for e in events if e["kind"] == "run.end"]
        assert [e["scheduler"] for e in starts] == ["default", "rtma", "ema"]
        assert len(ends) == 3
        # Per-user payloads live in the column stream beside the trace:
        # each run.start names its columns, and the export puts them
        # back on every slot event.
        assert not any("users" in e for e in slot_events)
        assert (out / "trace.columns.npy").stat().st_size > 0
        assert all(e["columns"]["names"][0] == "phi" for e in starts)
        inline = tmp_path / "inline.jsonl"
        assert analyze_main(["--export-jsonl", str(inline), str(out)]) == 0
        inline_slots = [
            e for e in map(json.loads, inline.read_text().splitlines()) if e["kind"] == "slot"
        ]
        assert len(inline_slots) == len(slot_events)
        assert all(len(e["users"]["phi"]) == 8 for e in inline_slots)

        manifest = json.loads(manifest_path.read_text())
        assert len(manifest["config_hash"]) == 64
        assert manifest["seed"] == 0
        assert manifest["package_version"]
        assert manifest["wall_time_s"] > 0
        assert manifest["extra"]["n_trace_events"] == len(events)

        metrics = json.loads(metrics_path.read_text())
        assert metrics["counters"]["engine.slots"] == 900
        assert metrics["counters"]["scheduler.invocations"] == 900

        printed = capsys.readouterr().out
        # Phase table covers the full pipeline.
        for phase in ("playback", "observe", "schedule", "transmit", "rrc", "feedback"):
            assert phase in printed
        assert "scheduler" in printed  # summary table header

    def test_refuses_to_overwrite_without_force(self, tmp_path, capsys):
        out = tmp_path / "trace_out"
        assert main(["quickstart", "--out", str(out)]) == 0
        first = (out / "trace.jsonl").read_bytes()

        assert main(["quickstart", "--out", str(out)]) == 2
        assert (out / "trace.jsonl").read_bytes() == first
        assert "--force" in capsys.readouterr().err

        assert main(["quickstart", "--out", str(out), "--force", "--seed", "1"]) == 0
        assert (out / "trace.jsonl").read_bytes() != first

    def test_gzip_output_and_force_swaps_format(self, tmp_path):
        out = tmp_path / "trace_out"
        assert main(["quickstart", "--out", str(out), "--gzip"]) == 0
        gz = out / "trace.jsonl.gz"
        assert gz.exists() and not (out / "trace.jsonl").exists()
        with gzip.open(gz, "rt", encoding="utf-8") as f:
            first = json.loads(f.readline())
        assert first["kind"] == "run.start"

        # The guard also covers format changes: switching to plain
        # output must not leave the stale .gz behind.
        assert main(["quickstart", "--out", str(out)]) == 2
        assert main(["quickstart", "--out", str(out), "--force"]) == 0
        assert (out / "trace.jsonl").exists() and not gz.exists()
        # --force takes the stale trace's column stream with it.
        assert (out / "trace.columns.npy").exists()
        assert not (out / "trace.columns.npy.gz").exists()

    def test_report_flag_writes_selfcontained_html(self, tmp_path):
        out = tmp_path / "trace_out"
        assert main(["quickstart", "--out", str(out), "--report"]) == 0
        html = (out / "report.html").read_text()
        assert "<svg" in html
        for marker in ("http://", "https://", "<script", "src="):
            assert marker not in html


class TestVersionFlag:
    """Every console script answers ``--version`` with the package
    version (satellite of the performance-observatory issue; the flag
    is wired through :func:`repro.obs.cli.add_version_argument`)."""

    CLIS = {
        "repro-trace": "repro.obs.cli",
        "repro-analyze": "repro.obs.analyze",
        "repro-compare": "repro.obs.compare",
        "repro-report": "repro.obs.report",
        "repro-watch": "repro.obs.live.watch",
        "repro-experiments": "repro.experiments.registry",
        "repro-bench": "repro.obs.bench_cli",
    }

    @pytest.mark.parametrize("prog", sorted(CLIS))
    def test_version_prints_prog_and_version(self, prog, capsys):
        import importlib

        from repro import __version__

        cli_main = importlib.import_module(self.CLIS[prog]).main
        with pytest.raises(SystemExit) as exc:
            cli_main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.strip() == f"{prog} {__version__}"
