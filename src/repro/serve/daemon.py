"""The streaming tuning daemon: many tenants, background rounds.

:class:`TuningDaemon` is the long-running counterpart of the one-shot
library path (``AutoIndexAdvisor.tune()``).  It glues the three serve
pieces together: the :class:`~repro.serve.registry.TenantRegistry`
owns per-tenant contexts, each tenant's
:class:`~repro.core.lifecycle.TuningSession` decides when a round is
*due*, and the :class:`~repro.serve.scheduler.RoundScheduler` decides
when a due round may *run* (admission control: at most
``max_concurrent_rounds`` at a time, fair round-robin across
tenants).

Two execution modes share every line of round logic:

* ``workers=0`` (inline): due rounds run synchronously inside
  :meth:`ingest`, at the exact stream offset that made them due.
  This is the determinism contract — a single-tenant stream pumped
  through the daemon produces bit-identical reports, template-store
  state, and applied indexes to calling ``tune()`` at the same
  offsets, because both paths are the same
  :func:`~repro.core.lifecycle.run_round` at the same points in the
  same statement order.
* ``workers>0`` (threaded): worker threads drain the scheduler in
  the background while ingest returns immediately.  Per-tenant locks
  keep each tenant single-writer; the scheduler's queue discipline
  (not thread timing) fixes the admission order.

Both paths run under the determinism lint: no wall-clock imports —
scheduling time is the scheduler's virtual clock.
"""

from __future__ import annotations

import threading
from typing import Iterable, List, Optional

from repro.serve.config import TenantSpec
from repro.serve.registry import TenantRegistry
from repro.serve.scheduler import RoundJob, RoundScheduler

__all__ = ["TuningDaemon"]


class TuningDaemon:
    """Long-running multi-tenant tuning service."""

    def __init__(
        self,
        checkpoint_root=None,
        max_concurrent_rounds: int = 1,
        workers: int = 0,
    ):
        if workers < 0:
            raise ValueError("workers must be >= 0")
        self.registry = TenantRegistry(checkpoint_root=checkpoint_root)
        self.scheduler = RoundScheduler(max_concurrent=max_concurrent_rounds)
        self.workers = workers
        #: Completed (or budget-skipped) round records, in admission
        #: order: {"tenant_id", "seq", "skipped", "report"|"reason"}.
        self.rounds: List[dict] = []
        self._record_lock = threading.Lock()
        self._cond = threading.Condition()
        self._stop = False
        self._drain = False
        self._started = False
        self._threads: List[threading.Thread] = []

    # ------------------------------------------------------------------
    # tenants
    # ------------------------------------------------------------------

    def add_tenant(self, spec: TenantSpec) -> dict:
        runtime = self.registry.create(spec)
        return runtime.status()

    # ------------------------------------------------------------------
    # ingest
    # ------------------------------------------------------------------

    def ingest(
        self, tenant_id: str, statements: Iterable[str]
    ) -> dict:
        """Feed statements into one tenant's stream.

        Statements are observed one at a time; the round-due check
        happens after *each* statement so a round always fires at the
        exact stream offset that made it due — this is what makes the
        inline mode bit-identical to the library path.
        """
        runtime = self.registry.get(tenant_id)
        ingested = 0
        rounds_run = 0
        for sql in statements:
            with runtime.lock:
                runtime.session.ingest(sql)
                ingested += 1
                due = runtime.session.due() and not (
                    runtime.session.budget.exhausted()
                )
            if due and self.scheduler.offer(tenant_id):
                if self.workers == 0:
                    rounds_run += self.pump()
                else:
                    with self._cond:
                        self._cond.notify_all()
        with runtime.lock:
            counters = runtime.session.counters()
        return {
            "tenant_id": tenant_id,
            "ingested": ingested,
            "rounds_run": rounds_run,
            **counters,
        }

    # ------------------------------------------------------------------
    # rounds
    # ------------------------------------------------------------------

    def pump(self, max_rounds: Optional[int] = None) -> int:
        """Inline drain: admit and run due rounds until the scheduler
        has nothing admissible (or ``max_rounds`` is hit)."""
        ran = 0
        while max_rounds is None or ran < max_rounds:
            job = self.scheduler.admit()
            if job is None:
                break
            self._execute(job)
            ran += 1
        return ran

    def _execute(self, job: RoundJob) -> dict:
        """Run one admitted round under the tenant's lock."""
        runtime = self.registry.get(job.tenant_id)
        with runtime.lock:
            if runtime.session.budget.exhausted():
                record = {
                    "tenant_id": job.tenant_id,
                    "seq": job.seq,
                    "skipped": True,
                    "reason": "round budget exhausted",
                }
                requeue = False
            else:
                report = runtime.session.run_round()
                record = {
                    "tenant_id": job.tenant_id,
                    "seq": job.seq,
                    "skipped": False,
                    "report": report.to_dict(),
                }
                if self.registry.checkpoint_root is not None:
                    runtime.save(self.registry.checkpoint_root)
                requeue = runtime.session.due() and not (
                    runtime.session.budget.exhausted()
                )
        with self._record_lock:
            self.rounds.append(record)
        self.scheduler.complete(job, requeue=requeue)
        return record

    # ------------------------------------------------------------------
    # worker threads
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Spawn background round workers (no-op when ``workers=0``)."""
        if self._started:
            return
        self._started = True
        for i in range(self.workers):
            thread = threading.Thread(
                target=self._worker_loop,
                name=f"round-worker-{i}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)

    def _worker_loop(self) -> None:
        while True:
            job = self.scheduler.admit()
            if job is None:
                with self._cond:
                    if self._stop:
                        # Draining: stay alive while any round is
                        # queued or running (a running round may
                        # requeue its tenant).
                        if not (
                            self._drain and not self.scheduler.idle()
                        ):
                            return
                    self._cond.wait(timeout=0.05)
                continue
            try:
                self._execute(job)
            finally:
                with self._cond:
                    self._cond.notify_all()

    # ------------------------------------------------------------------
    # API surface
    # ------------------------------------------------------------------

    def status(self) -> dict:
        with self._record_lock:
            completed = sum(
                1 for r in self.rounds if not r["skipped"]
            )
            skipped = len(self.rounds) - completed
        return {
            "tenants": {
                runtime.tenant_id: runtime.status()
                for runtime in self.registry.runtimes()
            },
            "scheduler": self.scheduler.snapshot(),
            "rounds_completed": completed,
            "rounds_skipped": skipped,
            "workers": self.workers,
            "stopping": self._stop,
        }

    def round_log(self, tenant_id: Optional[str] = None) -> List[dict]:
        with self._record_lock:
            records = list(self.rounds)
        if tenant_id is not None:
            records = [
                r for r in records if r["tenant_id"] == tenant_id
            ]
        return records

    def recommendations(self, tenant_id: str) -> List[dict]:
        """Pending (gated) recommendations for one tenant."""
        runtime = self.registry.get(tenant_id)
        with runtime.lock:
            return [
                rec.to_dict()
                for rec in runtime.advisor.pending_recommendations()
            ]

    def resolve_review(
        self,
        tenant_id: str,
        rec_id: int,
        accept: bool,
        note: str = "",
    ) -> dict:
        """Record a DBA verdict on a gated recommendation and act on
        it (apply the accepted change / train on the rejection)."""
        runtime = self.registry.get(tenant_id)
        with runtime.lock:
            if accept:
                rec = runtime.advisor.accept_recommendation(
                    rec_id, note=note
                )
            else:
                rec = runtime.advisor.reject_recommendation(
                    rec_id, note=note
                )
            if self.registry.checkpoint_root is not None:
                runtime.save(self.registry.checkpoint_root)
            return rec.to_dict()

    # ------------------------------------------------------------------
    # shutdown
    # ------------------------------------------------------------------

    def shutdown(self, drain: bool = True) -> dict:
        """Stop the daemon: optionally drain queued rounds, stop
        workers, and checkpoint every tenant."""
        with self._cond:
            self._stop = True
            self._drain = drain
            self._cond.notify_all()
        if self.workers == 0 and drain:
            self.pump()
        for thread in self._threads:
            thread.join(timeout=30.0)
        saved = self.registry.save_all()
        with self._record_lock:
            completed = sum(
                1 for r in self.rounds if not r["skipped"]
            )
        return {
            "rounds_completed": completed,
            "checkpoints_saved": saved,
            "tenants": self.registry.tenant_ids(),
        }
