"""Shared infrastructure for the figure experiments."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.tables import Table
from repro.errors import ConfigurationError
from repro.sim.config import SimConfig
from repro.sim.workload import Workload, generate_workload

__all__ = ["ExperimentResult", "paper_config", "SCALES"]

SCALES = ("bench", "full")


@dataclass
class ExperimentResult:
    """Output of one figure reproduction."""

    exp_id: str
    title: str
    tables: list[Table]
    #: Raw numeric series keyed by name (for assertions and plotting).
    data: dict = field(default_factory=dict)

    def render(self) -> str:
        parts = [f"== {self.exp_id}: {self.title} =="]
        parts.extend(t.render() for t in self.tables)
        return "\n\n".join(parts)

    def to_markdown(self) -> str:
        parts = [f"### {self.exp_id}: {self.title}"]
        parts.extend(t.to_markdown() for t in self.tables)
        return "\n\n".join(parts)


def paper_config(scale: str = "bench", seed: int = 0, **overrides) -> SimConfig:
    """The Section VI evaluation configuration at a given scale.

    ``bench`` shrinks sessions and the horizon (~7x) while keeping the
    demand-to-capacity ratio (~85% with 40 users) and the VBR dynamics
    that drive contention; ``full`` is the paper's literal setting.
    """
    if scale == "full":
        cfg = SimConfig(
            n_users=40,
            n_slots=10_000,
            vbr_segments=30,
            buffer_capacity_s=60.0,
            seed=seed,
        )
    elif scale == "bench":
        cfg = SimConfig(
            n_users=40,
            n_slots=1_500,
            video_size_range_kb=(100.0 * 1024.0, 200.0 * 1024.0),
            vbr_segments=30,
            buffer_capacity_s=60.0,
            seed=seed,
        )
    else:
        raise ConfigurationError(f"unknown scale {scale!r}; use one of {SCALES}")
    return cfg.with_(**overrides) if overrides else cfg


def calibration_kwargs(scale: str) -> dict:
    """RTMA's calibration budget: cheaper at bench scale."""
    if scale == "bench":
        return {"iterations": 6, "calibration_slots": 500}
    return {"iterations": 9, "calibration_slots": 2000}


def ema_calibration_kwargs(scale: str) -> dict:
    """EMA's calibration budget (V grid size and horizon)."""
    return {"iterations": 6, "calibration_slots": 400 if scale == "bench" else 1500}


def _with_workloads(configs: list[SimConfig]) -> list[tuple[SimConfig, Workload]]:
    return [(cfg, generate_workload(cfg)) for cfg in configs]


def users_axis(base: SimConfig, scale: str) -> tuple[tuple[int, ...], list]:
    """The user-count sweep: its user counts and, for each, the
    ``(config, workload)`` point the runner's phases take.
    """
    counts = (20, 30, 40) if scale == "bench" else (20, 25, 30, 35, 40)
    return counts, _with_workloads([base.with_(n_users=n) for n in counts])


def sizes_axis(base: SimConfig, scale: str) -> tuple[tuple[int, ...], list]:
    """The data-amount sweep of Figs. 4b and 8b: its sizes (MB) and
    their ``(config, workload)`` points.

    The paper's x-axis runs 150..550 MB; bench scale shrinks the mean
    video size proportionally.
    """
    scale_factor = 1.0 if scale == "full" else (150.0 * 1024.0) / (375.0 * 1024.0)
    sizes_mb = (150, 350, 550) if scale == "bench" else (150, 250, 350, 450, 550)
    configs = [
        base.with_(mean_video_size_kb=mb * 1024.0 * scale_factor) for mb in sizes_mb
    ]
    return sizes_mb, _with_workloads(configs)
