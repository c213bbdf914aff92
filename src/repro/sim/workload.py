"""Seeded workload generation: flows + signal traces.

A :class:`Workload` bundles everything stochastic about a run — the
per-user video sessions and the RSSI trace — generated once from the
config's seed so that every scheduler under comparison faces the
*identical* workload.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError, SimulationError
from repro.media.video import ConstantBitrateProfile, PiecewiseBitrateProfile, VideoSession
from repro.net.flows import VideoFlow
from repro.sim.arrivals import generate_arrival_slots
from repro.sim.config import SimConfig

__all__ = ["Workload", "generate_workload", "resolve_workload"]


@dataclass(frozen=True)
class Workload:
    """One realized workload: flows plus the signal trace."""

    flows: list[VideoFlow]
    #: RSSI trace, shape ``(n_slots, n_users)``, dBm.
    signal_dbm: np.ndarray

    @property
    def n_users(self) -> int:
        return len(self.flows)

    @property
    def n_slots(self) -> int:
        return self.signal_dbm.shape[0]

    def total_video_kb(self) -> float:
        """Aggregate *offered* media bytes across all sessions.

        Every generated session counts, whether or not it is later
        admitted (or even arrives within the horizon).  Use
        :meth:`admitted_video_kb` for the load the gateway accepted —
        summaries report both so rejected sessions never silently
        deflate per-user averages.
        """
        return float(sum(f.video.size_kb for f in self.flows))

    def offered_video_kb(self) -> float:
        """Alias of :meth:`total_video_kb` (explicit offered-load name)."""
        return self.total_video_kb()

    def admitted_video_kb(self, admitted: np.ndarray) -> float:
        """Media bytes of the sessions flagged in ``admitted`` (bool mask)."""
        admitted = np.asarray(admitted, dtype=bool)
        if admitted.shape != (len(self.flows),):
            raise ConfigurationError(
                "admitted mask must have one entry per session"
            )
        return float(
            sum(f.video.size_kb for f, ok in zip(self.flows, admitted) if ok)
        )

    def arrival_slots(self) -> np.ndarray:
        """Per-session arrival slots (``int64``)."""
        return np.array([f.arrival_slot for f in self.flows], dtype=np.int64)

    def mean_rate_kbps(self) -> float:
        """Mean of per-user mean required rates."""
        return float(
            np.mean([f.video.profile.mean_rate_kbps() for f in self.flows])
        )


def _draw_sizes(cfg: SimConfig, rng: np.random.Generator) -> np.ndarray:
    lo, hi = cfg.video_size_range_kb
    sizes = rng.uniform(lo, hi, size=cfg.n_users)
    if cfg.mean_video_size_kb is not None:
        # Rescale so the realized mean hits the requested sweep point
        # exactly (Figs. 4b/8b vary the *average* data amount).
        sizes = sizes * (cfg.mean_video_size_kb / sizes.mean())
    return sizes


def _make_profile(cfg: SimConfig, rng: np.random.Generator):
    rlo, rhi = cfg.rate_range_kbps
    if cfg.vbr_segments == 0:
        return ConstantBitrateProfile(float(rng.uniform(rlo, rhi)))
    # VBR: enough segments to outlast any plausible session; the
    # profile cycles if exceeded.
    n_segments = 64
    rates = rng.uniform(rlo, rhi, size=n_segments)
    return PiecewiseBitrateProfile(rates, segment_slots=cfg.vbr_segments)


def generate_workload(cfg: SimConfig) -> Workload:
    """Build the seeded workload for ``cfg``.

    Draw order is fixed (sizes, then rates, then signal) so that runs
    differing only in scheduler see byte-identical workloads, and runs
    differing in one config axis perturb the others minimally.
    """
    rng = np.random.default_rng(cfg.seed)
    sizes = _draw_sizes(cfg, rng)
    profiles = [_make_profile(cfg, rng) for _ in range(cfg.n_users)]
    signal = cfg.make_signal_model().generate(cfg.n_slots, cfg.n_users, rng)
    if not np.all(np.isfinite(signal)):
        raise ConfigurationError("signal model produced non-finite values")
    # Arrivals draw last (and "all_at_zero" draws nothing) so enabling
    # an arrival process never perturbs sizes/rates/signal for a seed.
    arrivals = generate_arrival_slots(cfg, rng)
    flows = []
    for uid in range(cfg.n_users):
        video = VideoSession(float(sizes[uid]), profiles[uid])
        flows.append(
            VideoFlow(user_id=uid, video=video, arrival_slot=int(arrivals[uid]))
        )
    return Workload(flows=flows, signal_dbm=signal)


def resolve_workload(cfg: SimConfig, workload: Workload | None = None) -> Workload:
    """``workload`` (or, when ``None``, the seeded one for ``cfg``),
    checked to cover ``cfg``'s users and horizon."""
    wl = workload if workload is not None else generate_workload(cfg)
    if wl.n_users != cfg.n_users:
        raise SimulationError(
            f"workload has {wl.n_users} users, config says {cfg.n_users}"
        )
    if wl.n_slots < cfg.n_slots:
        raise SimulationError(
            f"workload trace covers {wl.n_slots} slots, "
            f"config needs {cfg.n_slots}"
        )
    return wl
