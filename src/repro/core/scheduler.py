"""Scheduler interface.

Every policy — the paper's RTMA and EMA plus all reimplemented
baselines — is a :class:`Scheduler`: given a
:class:`~repro.net.gateway.SlotObservation` it returns the integer
data-unit allocation ``phi_i(n)`` for all users, subject to the link
constraint (Eq. 1) and the capacity constraint (Eq. 2).

Most baselines only differ in what each user *wants* in a slot; a
:class:`ClipScheduler` returns those wanted units from
:meth:`ClipScheduler.want` and fits them to Eqs. (1)-(2) with
:func:`~repro.core.allocation.clip_to_constraints`, which a stack of
runs (:mod:`repro.sim.batch`) does once per slot for all its runs.

Schedulers may be stateful (EMA maintains virtual queues; ON-OFF keeps
per-user hysteresis state); the engine calls :meth:`Scheduler.notify`
after transmission with what was actually delivered so a policy's
internal state tracks ground truth, and :meth:`Scheduler.reset` between
runs.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.core.allocation import clip_to_constraints
from repro.net.gateway import SlotObservation

__all__ = ["Scheduler", "ClipScheduler"]


class Scheduler(abc.ABC):
    """Base class for per-slot data-unit allocation policies.

    An observation's rows are the served runs' sessions, fixed for the
    whole run: row ``i`` of a run's segment is its user ``i`` from the
    first slot to the last, under churn too (a session that has not
    arrived, was rejected or has retired is simply inactive).  So
    per-user state sized from the first observation stays aligned,
    and a policy never resizes or recycles it.
    """

    #: Human-readable policy name (used in result tables).
    name: str = "scheduler"

    @abc.abstractmethod
    def allocate(self, obs: SlotObservation) -> np.ndarray:
        """Return the allocation ``phi`` (int64 array, shape (n_users,)).

        Must satisfy ``0 <= phi_i <= obs.link_units[i]`` and, for each
        run segment ``r``, ``sum(phi[run_offsets[r]:run_offsets[r+1]])
        <= obs.run_unit_budgets[r]``; inactive users must get 0.
        """

    def notify(
        self, obs: SlotObservation, phi: np.ndarray, delivered_kb: np.ndarray
    ) -> None:
        """Post-transmission feedback hook (default: no-op).

        ``delivered_kb`` may be smaller than ``phi * delta`` when a
        session ran out of bytes; stateful policies should track the
        delivered amounts, not the requested ones.
        """

    def reset(self) -> None:
        """Clear internal state before a fresh run (default: no-op)."""

    def finalize_runs(self, registries) -> None:
        """Publish each served run's final state into its registry.

        ``registries`` holds one :class:`~repro.obs.metrics.MetricsRegistry`
        per run the scheduler serves, in segment order; an instrumented
        loop calls this once, after its last slot or at an abort (EMA
        publishes its virtual queues).  Default: nothing to publish.
        """

    def trace_snapshots(self) -> list[tuple[int, str, dict]]:
        """State a traced run records after each slot's feedback.

        ``(run, kind, fields)`` triples, ``run`` indexing the runs the
        scheduler serves; the engine records each as a ``kind`` trace
        event of that run's slot.  Default: none.
        """
        return []

    @staticmethod
    def _zeros(obs: SlotObservation) -> np.ndarray:
        """Fresh all-zeros allocation for ``obs``."""
        return np.zeros(obs.n_users, dtype=np.int64)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<{type(self).__name__} {self.name!r}>"


class ClipScheduler(Scheduler):
    """A policy that decides each user's wanted units; Eqs. (1)-(2)
    then fit them head-of-line.

    :meth:`allocate` is ``clip_to_constraints(self.want(obs), obs)``.
    A stack of runs calls :meth:`want` on each block of its rows and
    clips the whole stack once (:class:`repro.sim.batch._BlockScheduler`),
    which is the same allocation because Eq. (2) holds per run segment.
    """

    #: Parameters that, when equal, let one instance serve several runs
    #: of a stack: its per-user state is row-elementwise and sizes
    #: itself to the rows it sees.  Only a class that declares the
    #: tuple itself shares; ``None`` (or a subclass that inherits it)
    #: serves its own run.
    shared_params: tuple[str, ...] | None = None

    @abc.abstractmethod
    def want(self, obs: SlotObservation) -> np.ndarray:
        """Float wanted units per user, before Eqs. (1)-(2).

        Makes every state update of the slot's allocation.
        """

    def allocate(self, obs: SlotObservation) -> np.ndarray:
        return clip_to_constraints(self.want(obs), obs)
