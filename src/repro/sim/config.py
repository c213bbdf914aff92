"""Simulation configuration.

:class:`SimConfig` captures every knob of a run.  The defaults are the
paper's Section VI evaluation setting: 40 users, 10000 one-second
slots, 20 MB/s serving capacity, 250-500 MB videos at 300-600 KB/s,
sinusoidal signal in [-110, -50] dBm with 30 dBm noise, and the
``umts-3g`` radio profile (EnVi fits + PerES RRC timers).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any

from repro import constants
from repro.errors import ConfigurationError
from repro.faults import FaultPlan
from repro.net.slicing import BackgroundTraffic
from repro.radio.profiles import RadioProfile, get_profile
from repro.radio.signal import SignalModel, SinusoidSignalModel

__all__ = ["SimConfig"]


@dataclass(frozen=True)
class SimConfig:
    """All parameters of one simulation run.

    The gateway follows the paper: it is never limited by the origin
    server and reads each flow's exact required rate, so neither has a
    knob here.

    Attributes
    ----------
    n_users, n_slots, tau_s, delta_kb, capacity_kbps:
        Cell geometry: user count, horizon, slot length, frame size,
        BS serving capacity ``S`` (KB/s).
    video_size_range_kb:
        ``(min, max)`` of the per-user uniform video-size draw.
    rate_range_kbps:
        ``(min, max)`` of the per-user uniform required-rate draw.
    vbr_segments:
        ``0`` gives each user a constant rate (the common reading of
        the paper's setup).  A positive value makes rates *variable*:
        each user's session is divided into segments of this many
        slots, each drawing a fresh rate from ``rate_range_kbps``.
    mean_video_size_kb:
        When set, overrides the size draw with sizes rescaled to hit
        this mean exactly — the paper's "average required data amount"
        sweep axis (Figs. 4b/8b).
    profile:
        A :class:`~repro.radio.profiles.RadioProfile` or its name.
    signal_model:
        Any :class:`~repro.radio.signal.SignalModel`; ``None`` means
        the paper's sinusoid.
    buffer_capacity_s:
        Client playback buffer cap in seconds (``None`` = unbounded,
        as the paper implies).
    background:
        Optional non-video downlink load competing inside the BS.
    seed:
        Workload RNG seed; identical seeds give identical workloads
        across schedulers (the comparisons rely on this).
    arrival_process:
        How session start slots are drawn: ``"all_at_zero"`` (default —
        the paper's fixed population, bit-identical to the historical
        behaviour and consuming no RNG), ``"poisson"`` (exponential
        inter-arrival gaps at ``arrival_rate_per_slot``; sessions may
        land beyond the horizon and then never arrive), or ``"trace"``
        (explicit per-user slots from ``arrival_trace``).
    arrival_rate_per_slot:
        Mean arrivals per slot for the Poisson process (required by —
        and only valid with — ``arrival_process="poisson"``).
    arrival_trace:
        Tuple of ``n_users`` non-negative arrival slots (required by —
        and only valid with — ``arrival_process="trace"``).
    admission:
        Admission policy consulted when a session arrives:
        ``"accept-all"`` (default), ``"capacity-threshold"``
        (cap concurrent sessions at ``admission_max_active``) or
        ``"budget-aware"`` (admit while every active session can still
        be guaranteed ``admission_min_units_per_user`` data units of
        the nominal per-slot budget).  Anything except the default
        gives the run a session lifecycle (see :attr:`has_churn`).
    admission_max_active:
        Concurrent-session cap for ``admission="capacity-threshold"``.
    admission_min_units_per_user:
        Per-user unit guarantee for ``admission="budget-aware"``.
    faults:
        Optional :class:`~repro.faults.FaultPlan` injecting signal
        blackouts, BS capacity outage/degradation windows, and per-flow
        delivery stalls into the run.  ``None`` (default) is the
        healthy-cell path, bit-identical to every prior release; the
        plan draws nothing from the workload RNG, so attaching one
        never perturbs the generated workload.  When ``None``, an
        ambient plan installed with
        :func:`repro.faults.use_fault_plan` applies instead
        (``repro-experiments --faults``).
    kernel_backend:
        Kernel dispatch backend for the run: ``"numpy"``, ``"numba"``,
        ``"python"`` or ``"auto"`` (numba when importable).  ``None``
        defers to the ambient selection
        (:func:`repro.kernels.set_backend` /
        ``$REPRO_KERNEL_BACKEND`` / auto).  All backends produce
        bit-identical results (guarded by
        ``tests/integration/test_backend_equivalence.py``).
    """

    n_users: int = constants.DEFAULT_N_USERS
    n_slots: int = constants.DEFAULT_N_SLOTS
    tau_s: float = constants.DEFAULT_TAU_S
    delta_kb: float = constants.DEFAULT_DELTA_KB
    capacity_kbps: float = constants.BS_CAPACITY_KBPS
    video_size_range_kb: tuple[float, float] = (
        constants.VIDEO_SIZE_MIN_KB,
        constants.VIDEO_SIZE_MAX_KB,
    )
    rate_range_kbps: tuple[float, float] = (
        constants.DATA_RATE_MIN_KBPS,
        constants.DATA_RATE_MAX_KBPS,
    )
    vbr_segments: int = 0
    mean_video_size_kb: float | None = None
    profile: RadioProfile | str = "umts-3g"
    signal_model: SignalModel | None = None
    buffer_capacity_s: float | None = None
    background: BackgroundTraffic | None = None
    seed: int = 0
    arrival_process: str = "all_at_zero"
    arrival_rate_per_slot: float | None = None
    arrival_trace: tuple[int, ...] | None = None
    admission: str = "accept-all"
    admission_max_active: int | None = None
    admission_min_units_per_user: int | None = None
    faults: FaultPlan | None = None
    kernel_backend: str | None = None

    def __post_init__(self) -> None:
        if self.n_users <= 0 or self.n_slots <= 0:
            raise ConfigurationError("n_users and n_slots must be positive")
        if self.tau_s <= 0 or self.delta_kb <= 0 or self.capacity_kbps <= 0:
            raise ConfigurationError("tau_s, delta_kb, capacity_kbps must be positive")
        lo, hi = self.video_size_range_kb
        if not 0 < lo <= hi:
            raise ConfigurationError("invalid video size range")
        rlo, rhi = self.rate_range_kbps
        if not 0 < rlo <= rhi:
            raise ConfigurationError("invalid rate range")
        if self.vbr_segments < 0:
            raise ConfigurationError("vbr_segments must be >= 0")
        if self.mean_video_size_kb is not None and self.mean_video_size_kb <= 0:
            raise ConfigurationError("mean_video_size_kb must be positive")
        if self.buffer_capacity_s is not None and self.buffer_capacity_s <= 0:
            raise ConfigurationError("buffer_capacity_s must be positive")
        self._validate_lifecycle()
        if self.faults is not None:
            if not isinstance(self.faults, FaultPlan):
                raise ConfigurationError(
                    f"faults must be a FaultPlan, got {type(self.faults).__name__}"
                )
            self.faults.validate_for(self.n_users)
        if self.kernel_backend is not None:
            from repro.kernels.backend import BACKEND_CHOICES

            if self.kernel_backend not in BACKEND_CHOICES:
                raise ConfigurationError(
                    f"kernel_backend must be one of {BACKEND_CHOICES}, "
                    f"got {self.kernel_backend!r}"
                )

    def _validate_lifecycle(self) -> None:
        from repro.sim.arrivals import ARRIVAL_PROCESSES

        if self.arrival_process not in ARRIVAL_PROCESSES:
            raise ConfigurationError(
                f"arrival_process must be one of {ARRIVAL_PROCESSES}, "
                f"got {self.arrival_process!r}"
            )
        if self.arrival_process == "poisson":
            if self.arrival_rate_per_slot is None or self.arrival_rate_per_slot <= 0:
                raise ConfigurationError(
                    "arrival_process='poisson' requires a positive arrival_rate_per_slot"
                )
        elif self.arrival_rate_per_slot is not None:
            raise ConfigurationError(
                "arrival_rate_per_slot is only valid with arrival_process='poisson'"
            )
        if self.arrival_process == "trace":
            trace = self.arrival_trace
            if trace is None or len(trace) != self.n_users:
                raise ConfigurationError(
                    "arrival_process='trace' requires arrival_trace with one "
                    "slot per user"
                )
            if any(int(s) < 0 for s in trace):
                raise ConfigurationError("arrival_trace slots must be >= 0")
        elif self.arrival_trace is not None:
            raise ConfigurationError(
                "arrival_trace is only valid with arrival_process='trace'"
            )

        from repro.core.admission import ADMISSION_POLICIES

        if self.admission not in ADMISSION_POLICIES:
            raise ConfigurationError(
                f"admission must be one of {ADMISSION_POLICIES}, "
                f"got {self.admission!r}"
            )
        if self.admission == "capacity-threshold":
            if self.admission_max_active is None or self.admission_max_active <= 0:
                raise ConfigurationError(
                    "admission='capacity-threshold' requires a positive "
                    "admission_max_active"
                )
        elif self.admission_max_active is not None:
            raise ConfigurationError(
                "admission_max_active is only valid with admission='capacity-threshold'"
            )
        if self.admission == "budget-aware":
            if (
                self.admission_min_units_per_user is None
                or self.admission_min_units_per_user <= 0
            ):
                raise ConfigurationError(
                    "admission='budget-aware' requires a positive "
                    "admission_min_units_per_user"
                )
        elif self.admission_min_units_per_user is not None:
            raise ConfigurationError(
                "admission_min_units_per_user is only valid with "
                "admission='budget-aware'"
            )

    @property
    def has_churn(self) -> bool:
        """Whether the run has session churn.

        The default ``all_at_zero`` + ``accept-all`` combination runs
        the engine's slot loop on a fixed population and stays
        bit-identical to every prior release; anything else adds
        admission control and session retirement to the same loop.
        Rows are sessions either way, so churn runs stack with any
        compatible run.
        """
        return self.arrival_process != "all_at_zero" or self.admission != "accept-all"

    @property
    def radio(self) -> RadioProfile:
        """The resolved radio profile object."""
        if isinstance(self.profile, RadioProfile):
            return self.profile
        return get_profile(self.profile)

    def make_signal_model(self) -> SignalModel:
        """The signal model, defaulting to the paper's sinusoid."""
        if self.signal_model is not None:
            return self.signal_model
        return SinusoidSignalModel()

    @property
    def unit_budget_per_slot(self) -> int:
        """Constraint (2) unit budget at the nominal capacity."""
        return int(self.tau_s * self.capacity_kbps // self.delta_kb)

    def with_(self, **changes: Any) -> "SimConfig":
        """A modified copy (sweep helper): ``cfg.with_(n_users=20)``."""
        return replace(self, **changes)
