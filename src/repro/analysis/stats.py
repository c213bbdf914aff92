"""Summary statistics for multi-seed experiment replication."""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["mean_confidence_interval", "bootstrap_ci", "relative_reduction"]


def mean_confidence_interval(
    samples, confidence: float = 0.95
) -> tuple[float, float, float]:
    """``(mean, lo, hi)`` via the Student-t interval.

    A single sample yields a degenerate interval at the point.
    ``scipy.stats`` is imported here, not at module level: it is the
    package's slowest import and nothing on the simulation path needs it.
    """
    from scipy import stats as sps

    if not 0.0 < confidence < 1.0:
        raise ConfigurationError("confidence must be in (0, 1)")
    x = np.asarray(samples, dtype=float).ravel()
    if x.size == 0:
        raise ConfigurationError("need at least one sample")
    m = float(x.mean())
    if x.size == 1:
        return m, m, m
    sem = float(sps.sem(x))
    if sem == 0.0:
        return m, m, m
    half = float(sem * sps.t.ppf(0.5 + confidence / 2.0, x.size - 1))
    return m, m - half, m + half


def bootstrap_ci(
    samples,
    statistic=np.mean,
    confidence: float = 0.95,
    n_resamples: int = 2000,
    rng=None,
) -> tuple[float, float, float]:
    """``(point, lo, hi)`` via percentile bootstrap."""
    if not 0.0 < confidence < 1.0:
        raise ConfigurationError("confidence must be in (0, 1)")
    x = np.asarray(samples, dtype=float).ravel()
    if x.size == 0:
        raise ConfigurationError("need at least one sample")
    gen = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    point = float(statistic(x))
    if x.size == 1:
        return point, point, point
    idx = gen.integers(0, x.size, size=(n_resamples, x.size))
    reps = np.asarray([statistic(x[row]) for row in idx], dtype=float)
    alpha = (1.0 - confidence) / 2.0
    lo, hi = np.quantile(reps, [alpha, 1.0 - alpha])
    return point, float(lo), float(hi)


def relative_reduction(baseline: float, treatment: float) -> float:
    """``(baseline - treatment) / baseline`` — the paper's 'reduces X%'.

    Positive means the treatment improved on the baseline.
    """
    if baseline <= 0:
        raise ConfigurationError("baseline must be positive")
    return (baseline - treatment) / baseline
