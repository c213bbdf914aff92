"""repro — reproduction of "Joint Media Streaming Optimization of
Energy and Rebuffering Time in Cellular Networks" (ICPP 2015).

The package rebuilds the paper's gateway scheduling framework end to
end: the radio substrate (RSSI traces, throughput/power fits, RRC tail
accounting), the media substrate (playback buffers, streaming
clients), the gateway (Fig. 1), the two proposed schedulers — RTMA
(Algorithm 1) and EMA (Algorithm 2, Lyapunov drift-plus-penalty with
an exact per-slot DP) — the five comparison baselines, and a
slot-driven simulator with per-figure experiment harnesses.

Quickstart
----------
>>> from repro import SimConfig, compare_schedulers
>>> from repro import RTMAScheduler, DefaultScheduler
>>> cfg = SimConfig(n_users=10, n_slots=500, seed=7)
>>> results = compare_schedulers(
...     cfg, {"default": DefaultScheduler(), "rtma": RTMAScheduler()}
... )
>>> results["rtma"].pc_s <= results["default"].pc_s
True
"""

from repro.baselines import (
    DefaultScheduler,
    EStreamerScheduler,
    OnOffScheduler,
    SalsaScheduler,
    ThrottlingScheduler,
)
from repro.core import (
    EMAScheduler,
    RTMAScheduler,
    Scheduler,
    signal_threshold_for_energy_budget,
)
from repro.radio import (
    EnviPowerModel,
    LinearThroughputModel,
    RRCFleet,
    RRCParams,
    RRCStateMachine,
    SinusoidSignalModel,
    get_profile,
    list_profiles,
    tail_energy_mj,
)
from repro.media import PlaybackBuffer, StreamingClient, VideoSession
from repro.obs import (
    Instrumentation,
    JsonlTraceWriter,
    MetricsRegistry,
    NullTracer,
    PhaseProfiler,
    RecordingTracer,
    use_instrumentation,
)
from repro.sim import (
    SimConfig,
    Simulation,
    SimulationResult,
    SummaryStats,
    Workload,
    calibrate_ema_v,
    compare_schedulers,
    generate_workload,
    run_scheduler,
    sweep,
)

__version__ = "1.2.0"

__all__ = [
    # core
    "Scheduler",
    "RTMAScheduler",
    "EMAScheduler",
    "signal_threshold_for_energy_budget",
    # baselines
    "DefaultScheduler",
    "ThrottlingScheduler",
    "OnOffScheduler",
    "SalsaScheduler",
    "EStreamerScheduler",
    # radio
    "SinusoidSignalModel",
    "LinearThroughputModel",
    "EnviPowerModel",
    "RRCParams",
    "RRCStateMachine",
    "RRCFleet",
    "tail_energy_mj",
    "get_profile",
    "list_profiles",
    # media
    "VideoSession",
    "PlaybackBuffer",
    "StreamingClient",
    # observability
    "Instrumentation",
    "use_instrumentation",
    "NullTracer",
    "RecordingTracer",
    "JsonlTraceWriter",
    "MetricsRegistry",
    "PhaseProfiler",
    # simulation
    "SimConfig",
    "Simulation",
    "SimulationResult",
    "SummaryStats",
    "Workload",
    "generate_workload",
    "run_scheduler",
    "compare_schedulers",
    "sweep",
    "calibrate_ema_v",
    "__version__",
]
