"""Admission control for background tuning rounds.

The daemon never runs a round the moment it becomes due.  Due tenants
enter a fair round-robin ready queue; :meth:`RoundScheduler.admit`
hands out at most ``max_concurrent`` running jobs at a time, in FIFO
order over the queue, and a tenant that is still due when its round
completes re-enters at the *tail* — so one hot tenant (the 1%-of-
tenants-90%-of-traffic skew case) cannot starve fifty cold ones.

Time is a deterministic :class:`~repro.engine.faults.VirtualClock`:
it advances by one tick per scheduler event (offer/admit/complete),
never reads the wall clock, and stamps every job — so a test can
assert the exact admission order and timestamps of a whole run, and
two replays of the same ingest stream schedule identically.

Thread-safe: the daemon's worker threads and ingest handlers share
one scheduler; all state transitions happen under the scheduler lock.
Fairness and determinism are properties of the queue discipline, not
of thread timing — whichever worker admits next gets the queue head.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional

from repro.engine.faults import VirtualClock

__all__ = ["RoundJob", "RoundScheduler"]


@dataclass(frozen=True)
class RoundJob:
    """One admitted tuning round (a ticket, not the round itself)."""

    tenant_id: str
    #: Global admission sequence number (0, 1, 2, ... over the
    #: daemon's lifetime) — the total order tests assert against.
    seq: int
    #: Virtual-clock times of enqueue and admission.
    offered_at: float
    admitted_at: float


class RoundScheduler:
    """Fair, bounded, deterministic admission of tuning rounds."""

    def __init__(self, max_concurrent: int = 1):
        if max_concurrent < 1:
            raise ValueError("max_concurrent must be >= 1")
        self.max_concurrent = max_concurrent
        self.clock = VirtualClock()
        self._lock = threading.Lock()
        #: tenant id -> virtual enqueue time, in FIFO order.  A tenant
        #: appears at most once (queued) and never while running.
        self._ready: Deque[str] = deque()
        self._offered_at: Dict[str, float] = {}
        self._running: Dict[str, RoundJob] = {}
        self._seq = 0
        self.admitted_total = 0
        self.completed_total = 0

    # ------------------------------------------------------------------
    # state transitions
    # ------------------------------------------------------------------

    def offer(self, tenant_id: str) -> bool:
        """Mark a tenant's round as due; returns True if newly queued.

        A tenant already queued or running is not double-queued — one
        round at a time per tenant is what keeps a tenant's advisor
        state single-writer.
        """
        with self._lock:
            self.clock.sleep(1.0)
            if tenant_id in self._offered_at or tenant_id in self._running:
                return False
            self._ready.append(tenant_id)
            self._offered_at[tenant_id] = self.clock.now()
            return True

    def admit(self) -> Optional[RoundJob]:
        """Admit the next ready tenant, or None (full / nothing due)."""
        with self._lock:
            if len(self._running) >= self.max_concurrent:
                return None
            if not self._ready:
                return None
            self.clock.sleep(1.0)
            tenant_id = self._ready.popleft()
            job = RoundJob(
                tenant_id=tenant_id,
                seq=self._seq,
                offered_at=self._offered_at.pop(tenant_id),
                admitted_at=self.clock.now(),
            )
            self._seq += 1
            self._running[tenant_id] = job
            self.admitted_total += 1
            return job

    def complete(self, job: RoundJob, requeue: bool = False) -> None:
        """Finish a job; ``requeue`` puts the tenant back at the tail
        (it was still due when its round ended — fairness means it
        waits behind every other ready tenant)."""
        with self._lock:
            self.clock.sleep(1.0)
            current = self._running.get(job.tenant_id)
            if current is None or current.seq != job.seq:
                raise ValueError(
                    f"job {job.seq} for {job.tenant_id!r} is not running"
                )
            del self._running[job.tenant_id]
            self.completed_total += 1
            if requeue:
                self._ready.append(job.tenant_id)
                self._offered_at[job.tenant_id] = self.clock.now()

    def forget(self, tenant_id: str) -> None:
        """Drop a queued tenant (e.g. removed from the registry)."""
        with self._lock:
            if tenant_id in self._offered_at:
                self._ready.remove(tenant_id)
                del self._offered_at[tenant_id]

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def idle(self) -> bool:
        """True when nothing is queued or running."""
        with self._lock:
            return not self._ready and not self._running

    def queued(self) -> List[str]:
        with self._lock:
            return list(self._ready)

    def running(self) -> List[str]:
        with self._lock:
            return sorted(self._running)

    def snapshot(self) -> dict:
        """Counters for the status API."""
        with self._lock:
            return {
                "queued": list(self._ready),
                "running": sorted(self._running),
                "max_concurrent": self.max_concurrent,
                "admitted_total": self.admitted_total,
                "completed_total": self.completed_total,
                "virtual_time": self.clock.now(),
            }
