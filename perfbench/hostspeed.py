"""Host-speed correction: a fixed reference loop interleaved with the work.

The benchmark host is a couple of cores of a shared machine whose speed
changes in phases of seconds to minutes (other tenants), by up to 2x.
Wall time alone then measures the host as much as the program.  A
:class:`SpeedProbe` runs a fixed reference loop (code of this file, not
of the program) from a ``SIGALRM`` timer every :data:`INTERVAL_S` of
wall time while the measured work runs, and converts the work's wall time
into *reference seconds*: each stretch of work between two probes is
scaled by how fast the probes around it ran compared to
:data:`REF_PYTHON_S` / :data:`REF_NUMPY_S`, the reference loop's time
on the reference host in a fast phase.  The probes' own time is taken
out first.

Only the standard library is needed for the Python loop, so a probe can
run while ``numpy`` itself is being imported (set-up); the numpy loop
joins once numpy is loaded and the probe is built with ``numpy=True``.
"""

from __future__ import annotations

import signal
import statistics
import time

#: Reference-host time of one :func:`python_loop` / :func:`numpy_loop`.
REF_PYTHON_S = 0.0012
REF_NUMPY_S = 0.0008
#: Wall time between probes (each takes about 2 ms).
INTERVAL_S = 0.05
#: Probes on each side of a stretch whose median gives its speed.
NEIGHBOURS = 3


def python_loop() -> int:
    acc = 0
    table = {}
    for i in range(12_000):
        acc += i * 3 % 7
        table[i & 255] = acc
    return acc


def numpy_loop():
    import numpy as np

    a = np.arange(256.0)
    for _ in range(200):
        a = np.minimum(a * 1.0001, 500.0) + a.sum() * 1e-9
    return a


class SpeedProbe:
    """Reference loops on a wall-clock timer around a stretch of work.

    Use as ``start()`` ... ``stop()``; then :meth:`reference_s` gives
    the stretch's wall time minus probe time, scaled to the reference
    host's speed.  One probe runs at ``start`` and one at ``stop``, so
    every stretch has a probe on each side.
    """

    def __init__(self, numpy: bool) -> None:
        self.numpy = numpy
        self.ref_s = REF_PYTHON_S + (REF_NUMPY_S if numpy else 0.0)
        #: (start, duration) of each probe, in ``time.perf_counter`` seconds.
        self.probes: list[tuple[float, float]] = []
        self.t_start = self.t_stop = 0.0
        self._previous = None

    def _probe(self, *_args) -> None:
        t0 = time.perf_counter()
        python_loop()
        if self.numpy:
            numpy_loop()
        self.probes.append((t0, time.perf_counter() - t0))

    def start(self) -> None:
        self.probes = []
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        self.t_start = time.perf_counter()
        self._probe()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)
        self._probe()
        self.t_stop = time.perf_counter()

    @property
    def wall_s(self) -> float:
        return self.t_stop - self.t_start

    @property
    def probe_s(self) -> float:
        return sum(d for _, d in self.probes)

    def speeds(self) -> list[float]:
        """Host speed at each probe (reference time ÷ smoothed probe time)."""
        durations = [d for _, d in self.probes]
        out = []
        for i in range(len(durations)):
            window = durations[max(0, i - NEIGHBOURS): i + NEIGHBOURS + 1]
            out.append(self.ref_s / statistics.median(window))
        return out

    def speed(self) -> float:
        """Mean host speed over the stretch (1.0 = the reference host)."""
        return self.reference_s() / (self.wall_s - self.probe_s)

    def reference_s(self) -> float:
        """Work time of the stretch in reference seconds."""
        speeds = self.speeds()
        total = 0.0
        for i in range(1, len(self.probes)):
            prev_start, prev_d = self.probes[i - 1]
            work = self.probes[i][0] - (prev_start + prev_d)
            total += work * 0.5 * (speeds[i - 1] + speeds[i])
        return total
