"""Repository benchmark: end-to-end and per-layer metrics of four workloads.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload rtma_panel --seed 1 --seconds 10 --trace 0

Workloads: ``rtma_panel``, ``ema_panel``, ``stacked_seeds``,
``churn_traced`` (see ``perfbench/workloads.py`` and
``perfbench/README.md``).  The last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; ``--trace 0`` gives
the end-to-end metrics (``wall_s``, ``user_slots_per_s``, ``setup_s``,
``peak_rss_mb``), ``--trace 1`` the per-layer ones.

This process only orchestrates, with the standard library.  Set-up
time is taken as the median over several fresh interpreters
(``worker.py --probe``) of the time from process start until the
worker reports ready; the workload itself runs in one more fresh
worker, whose own ready time is one more set-up sample.  Times are
in reference seconds: host time corrected for the host's speed at the
moment, measured by a reference loop interleaved with the work
(``hostspeed.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOAD_NAMES = ("rtma_panel", "ema_panel", "stacked_seeds", "churn_traced")
#: Set-up probes started before the workload process.
SETUP_PROBES = 4
#: Hard limit on any one child process.
CHILD_TIMEOUT_S = 150.0


def child_env() -> dict:
    env = dict(os.environ)
    src = str(Path("src").resolve())
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["REPRO_KERNEL_BACKEND"] = "numpy"
    # A fixed hash seed keeps set/dict layouts identical across processes.
    env["PYTHONHASHSEED"] = "0"
    # One BLAS/OpenMP thread: the workloads run with jobs=1 and the
    # benchmark host has two cores shared with other work.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def start_worker(args, env, probe: bool):
    """Start a worker; returns (process, set-up seconds, worker import seconds).

    Set-up seconds are reference seconds (``hostspeed.py``): the worker
    reports its set-up probe's wall time and reference time, and the
    part of the set-up before its probe started (interpreter start-up)
    is scaled by the probe's first speed reading.
    """
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if probe:
        cmd.append("--probe")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True)
    line = proc.stdout.readline()
    host_s = time.perf_counter() - t0
    if not line.startswith("READY "):
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker did not become ready (got {line!r})")
    import_s, probe_wall_s, probe_ref_s, first_speed = map(float, line.split()[1:])
    return proc, probe_ref_s + (host_s - probe_wall_s) * first_speed, import_s


def finish(proc) -> str:
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError("worker timed out") from None
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (Path("src") / "repro" / "__init__.py").is_file():
        print("perfbench: run from the root of a repro checkout (no src/repro here)",
              file=sys.stderr)
        return 2
    env = child_env()
    # Users pay bytecode compilation once per install, not per run.
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", "src", str(HERE)],
        check=True, env=env, stdout=subprocess.DEVNULL, timeout=CHILD_TIMEOUT_S,
    )

    setup, imports = [], []
    for _ in range(SETUP_PROBES):
        proc, setup_s, import_s = start_worker(args, env, probe=True)
        finish(proc)
        setup.append(setup_s)
        imports.append(import_s)
    proc, setup_s, import_s = start_worker(args, env, probe=False)
    setup.append(setup_s)
    imports.append(import_s)
    result = json.loads(finish(proc).strip().splitlines()[-1])

    if args.trace:
        metrics = dict(result["layers"])
        metrics["setup.import_s"] = statistics.median(imports)
        units = {m["name"]: m["unit"] for m in load_spec()["per_layer"]}
    else:
        metrics = {
            "wall_s": result["wall_s"],
            "user_slots_per_s": result["user_slots_per_s"],
            "setup_s": statistics.median(setup),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        units = {m["name"]: m["unit"] for m in load_spec()["end_to_end"]}
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "config": result["config"],
        "wall_samples": result["wall_samples"],
        "raw_wall_samples": result["raw_wall_samples"],
        "speed_samples": result["speed_samples"],
        "setup_samples": setup,
    }))
    for name, value in metrics.items():
        print(f"{name:28s} {value:>16.6g} {units[name]}")
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


def load_spec() -> dict:
    return json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


if __name__ == "__main__":
    sys.exit(main())
