"""Scheduler: the coordinator's local pool and its supervision.

The local pool is one consumer of the store's claim path: it runs the
shared claim -> execute -> settle loop
(:class:`~repro.service.claims.ClaimRunner`) over the in-process
:class:`~repro.service.store.JobStore`.  Leases, heartbeats, the
renewal horizon, fencing, cancel, deadlines and drain live there, and
behave the same for remote ``repro worker`` agents.  With
``ServiceConfig.isolate_jobs`` (the default) each job runs in a worker
*process* -- one warm process per slot, reused across claims -- so a
segfaulting or wedged solve costs one job, not the service.

What the scheduler itself owns is the coordinator's side of
supervision, which covers local and remote claims alike:

* **Recovery.**  On start, jobs left ``running`` by a dead process are
  requeued (:meth:`~repro.service.store.JobStore.recover`); the re-run
  either recomputes or hits the result cache, so each job reaches a
  terminal state exactly once.  The ``service.crash_claimed`` and
  ``service.crash_settling`` chaos sites kill the process inside the
  claim window to exercise exactly that.
* **The reaper.**  A thread requeues jobs whose lease lapsed -- a hung
  or dead worker loses its job within one lease period -- with the same
  audited transitions as recovery.
* **Queue supervision.**  :meth:`Scheduler.supervise_queue` fails
  queued jobs past their deadline and quarantines jobs that spent
  ``max_job_attempts`` claims; every claim, local or over HTTP, runs it
  first.
* **The claim.**  :meth:`Scheduler.claim` is the one claim path for
  local slots and the HTTP endpoint alike: on an empty queue it waits
  on the store's wake-up (one waiter per newly claimable job) for at
  most the caller's wait, then claims once more.  :meth:`Scheduler.stop`
  wakes every waiter so a drain is not held up by an idle slot.
* **Registration.**  The pool registers in the worker table as
  ``local`` (capacity = ``num_workers``).  With
  ``ServiceConfig.local_workers=False`` (``serve --no-local-workers``)
  no slot starts and the service is a pure coordinator.
"""

from __future__ import annotations

import logging
import os
import socket
import threading

from repro.core.config import RunnerConfig, ServiceConfig
from repro.exceptions import ServiceError
from repro.obs.metrics import metrics
from repro.resilience.faults import maybe_fire
from repro.runner.cache import ResultCache
from repro.service.claims import ClaimRunner
from repro.service.store import JobStore, service_crash

logger = logging.getLogger(__name__)


def settle_claim(store: JobStore, analysis_id: str, key: str, state: str,
                 status: str | None = None, error: str | None = None,
                 token: str | None = None) -> bool:
    """Fenced settle plus the settle counters, for every settle path.

    Both the local pool and the HTTP settle route end here, so a job
    moves the same ``/metricz`` counters whoever ran it.  A settle the
    fence refuses -- the claim was reaped, and perhaps re-claimed, while
    its worker ran -- is counted as ``service.stale_settles``; the
    re-run settles the identical cached result.

    Returns:
        Whether the settle landed.
    """
    try:
        store.settle(analysis_id, key, state, status=status, error=error,
                     token=token)
    except ServiceError:
        metrics().counter("service.stale_settles").inc()
        return False
    if status == "deadline_exceeded":
        metrics().counter("service.jobs.deadline_exceeded").inc()
    else:
        metrics().counter({
            "done": "service.jobs_done",
            "failed": "service.jobs_failed",
            "cancelled": "service.jobs_cancelled",
        }[state]).inc()
    return True


class _StoreTransport:
    """The claim verbs against the in-process store (the local pool)."""

    def __init__(self, scheduler: Scheduler):
        self.scheduler = scheduler
        self.store = scheduler.store

    def claim(self, lease_seconds: float,
              wait_seconds: float = 0.0) -> dict | None:
        claimed = self.scheduler.claim(lease_seconds,
                                       self.scheduler.worker_id,
                                       wait_seconds)
        if claimed is not None:
            service_crash("service.crash_claimed", key=claimed["key"])
        return claimed

    def heartbeat(self, analysis_id: str, key: str, token: str,
                  lease_seconds: float) -> str:
        return self.store.heartbeat(analysis_id, key, lease_seconds, token)

    def cancel_requested(self, analysis_id: str, key: str) -> bool:
        return self.store.cancel_requested(analysis_id, key)

    def settle(self, analysis_id: str, key: str, token: str, state: str,
               status: str | None = None, error: str | None = None,
               result: dict | None = None,
               spans: list[dict] | None = None) -> bool:
        # The result is already in the shared cache and the spans in
        # the ambient tracer: the executor ran in this process.
        service_crash("service.crash_settling", key=key)
        return settle_claim(self.store, analysis_id, key, state,
                            status=status, error=error, token=token)

    def release(self, analysis_id: str, key: str, token: str) -> bool:
        return self.store.release(analysis_id, key, token=token)


class Scheduler:
    """The local claim pool plus recovery, the reaper and supervision."""

    def __init__(self, store: JobStore, cache: ResultCache | None,
                 config: ServiceConfig,
                 runner_config: RunnerConfig | None = None):
        self.store = store
        self.cache = cache
        self.config = config
        self.runner_config = runner_config or RunnerConfig()
        #: The local pool's identity in the store's worker table.
        self.worker_id = "local"
        self.runner = ClaimRunner(
            _StoreTransport(self),
            supervision=config.supervision,
            runner_config=self.runner_config,
            cache=cache,
            isolate_jobs=config.isolate_jobs,
            poll_interval_seconds=config.poll_interval_seconds)
        self._reaper: threading.Thread | None = None

    @property
    def stop_event(self) -> threading.Event:
        """The drain signal (shared with in-flight ``run_sweep`` calls)."""
        return self.runner.stop_event

    @property
    def counts(self) -> dict[str, int]:
        """Local claims processed, by outcome (see :class:`ClaimRunner`)."""
        return self.runner.counts

    def start(self) -> None:
        """Recover orphaned jobs, then start the workers and reaper.

        With ``local_workers=False`` the pool is skipped entirely
        (coordinator mode): recovery, supervision, and the reaper still
        run -- remote agents depend on them -- but no local thread ever
        claims a job.
        """
        recovered = self.store.recover()
        if recovered:
            logger.warning(
                "recovered %d job(s) left running by a previous process",
                recovered)
            metrics().counter("service.jobs.recovered").inc(recovered)
        self.supervise_queue()
        self.stop_event.clear()
        if self.config.local_workers:
            self.store.register_worker(
                self.worker_id, kind="local", host=socket.gethostname(),
                pid=os.getpid(), capacity=self.config.num_workers)
            self.runner.start(self.config.num_workers)
        self._reaper = threading.Thread(
            target=self._reaper_loop, name="repro-service-reaper",
            daemon=True)
        self._reaper.start()

    def stop(self, drain: bool = True) -> None:
        """Request a stop and join the workers.

        With ``drain`` (the default) in-flight jobs get
        ``drain_timeout_seconds`` in all to settle; without it the join
        is immediate.  Either way anything still ``running`` afterwards
        is requeued by the reaper or the next start's recovery, never
        lost.
        """
        # Set the stop first: a waiter woken before it would claim again.
        self.stop_event.set()
        self.store.wake_waiters()
        self.runner.stop(
            self.config.drain_timeout_seconds if drain else 0.0)
        if self._reaper is not None:
            self._reaper.join(timeout=1.0)
            self._reaper = None
        if self.config.local_workers:
            self.store.deregister_worker(self.worker_id)

    def run_until_idle(self) -> int:
        """Drain the queue on the calling thread (tests, one-shot mode).

        Returns:
            How many jobs were settled (or released).
        """
        return self.runner.run_until_idle()

    def reap_once(self) -> int:
        """One reaper pass: requeue expired leases, then re-supervise.

        Public so tests (and one-shot tools) can drive the reaper
        deterministically instead of waiting out the interval.  The
        ``reaper.tick`` chaos site skips the whole pass, delaying
        recovery by one interval.

        Returns:
            How many jobs the pass touched (requeued or cancelled).
        """
        if maybe_fire("reaper.tick"):
            logger.warning("reaper pass skipped by injected fault")
            return 0
        reaped = self.store.reap_expired()
        if reaped:
            requeued = sum(1 for job in reaped if job["requeued"])
            logger.warning(
                "reaped %d expired lease(s): %d requeued, %d cancelled",
                len(reaped), requeued, len(reaped) - requeued)
            metrics().counter("service.jobs.reaped").inc(len(reaped))
        self.supervise_queue()
        return len(reaped)

    def _reaper_loop(self) -> None:
        interval = self.config.supervision.resolved_reap_interval()
        while not self.stop_event.wait(interval):
            try:
                self.reap_once()
            except Exception:
                logger.exception("reaper pass failed; will retry")

    def claim(self, lease_seconds: float, worker_id: str,
              wait_seconds: float = 0.0) -> dict | None:
        """Claim the best queued job, waiting up to ``wait_seconds``.

        Supervises the queue, then claims.  If the queue was empty it
        waits for the store's wake-up -- returning at once if a job
        became claimable since the generation read before the claim --
        and claims once more.  The wait stays outside
        :meth:`JobStore.claim`, which remains one SQLite transaction.

        Returns:
            The claim, or ``None`` when the wait ran out, another
            consumer won the job, or the scheduler is stopping.
        """
        generation = self.store.generation
        self.supervise_queue()
        claimed = self.store.claim(lease_seconds=lease_seconds,
                                   worker_id=worker_id)
        if (claimed is None and wait_seconds > 0
                and self.store.wait_for_work(generation, wait_seconds)
                and not self.stop_event.is_set()):
            self.supervise_queue()
            claimed = self.store.claim(lease_seconds=lease_seconds,
                                       worker_id=worker_id)
        return claimed

    def supervise_queue(self) -> None:
        """Deadline + quarantine sweep over the queued set.

        Every consumer of the claim path runs it before claiming -- the
        local pool's transport, and the HTTP claim endpoint before
        handing work to a remote agent.
        """
        expired = self.store.expire_deadlines()
        if expired:
            logger.warning("failed %d queued job(s) past their deadline",
                           len(expired))
            metrics().counter(
                "service.jobs.deadline_exceeded").inc(len(expired))
        quarantined = self.store.quarantine_exhausted(
            self.config.supervision.max_job_attempts)
        if quarantined:
            for job in quarantined:
                logger.error(
                    "quarantined job %s after %d attempt(s)",
                    job["key"][:12], job["attempts"])
            metrics().counter(
                "service.jobs.quarantined").inc(len(quarantined))
