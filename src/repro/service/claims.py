"""The one claim -> execute -> settle loop behind every queue consumer.

The coordinator's local pool (:class:`~repro.service.scheduler.Scheduler`)
and a remote ``repro worker`` (:class:`~repro.distrib.worker.WorkerAgent`)
both run jobs through a :class:`ClaimRunner`.  They differ only in how
they reach the queue: a :class:`ClaimTransport` of five verbs, backed by
the in-process :class:`~repro.service.store.JobStore` or by the fleet's
HTTP claim protocol.  The supervision contract is therefore the same on
both paths:

* **Claiming.**  The claim verb itself waits for work: an idle slot
  blocks in ``claim(lease, wait_seconds=poll_interval_seconds)`` until
  a job becomes claimable -- the local store wakes one waiter per
  claimable job, and ``POST /v1/claims`` long-polls the same way -- so
  an empty claim goes straight back to claiming, with no sleep.  The
  poll interval only bounds one wait, as the fallback for writers the
  wake-up cannot see.
* **Execution.**  A claimed job runs through the existing sweep
  executor (:func:`repro.runner.executor.run_sweep` on a single-job
  campaign) -- the same wall timeouts, bounded retries, process
  isolation, result cache and chaos hooks as ``repro sweep``, so the
  answer is byte-for-byte the one ``repro sweep`` computes.
  ``attempt_base`` carries the store-level attempt count into the
  executor, so chaos plans keyed on attempts behave the same across
  crashes, reaps and worker hops.
* **Warm workers.**  With process isolation each slot owns one
  :class:`~repro.runner.executor.WarmWorker`, forked on its first
  claim and reused by the next jobs.  The executor retires it after a
  broken pool, any attempt that did not return ok (error or wall
  timeout) or a cancel that abandons the attempt; crash attribution
  still runs each suspect in a fresh pool.  The slot shuts its worker
  down when its loop exits.
* **Leases.**  A heartbeat thread renews the claim's lease while the
  job runs.  Because it outlives a solve wedged inside a worker
  process, renewal stops at a horizon: the job's worst-case wall budget
  (attempts x wall timeout + backoff, when a wall timeout is derivable)
  capped by ``SupervisionConfig.max_lease_renewal_seconds``.  Past it
  the lease lapses and the coordinator's reaper requeues the job.  Jobs
  with neither bound renew indefinitely; for those the reaper covers
  dropped heartbeats and dead processes, not in-process wedges.
* **Fencing.**  Every verb presents the claim's token.  A renewal
  answered ``lost`` means the claim no longer owns the job (reaped,
  settled or re-claimed): the slot stops computing and skips the settle,
  because the re-run under the new claim settles the identical
  content-addressed result.
* **Cancel + deadlines.**  The executor polls the transport's
  ``cancel_requested`` between dispatches, so a cancelled job settles
  ``cancelled``.  A job claimed past its deadline settles
  ``deadline_exceeded`` without computing; otherwise the remaining
  budget clamps the executor's wall timeout.
* **Drain.**  The stop event is the executor's ``stop_event``: the
  in-flight attempt finishes, a claim that never started is released
  (attempt refunded), and the slots are joined against one shared
  deadline.  A slot still busy after it is abandoned to its lease.  An
  idle local slot is woken at once; one parked in a remote long-poll
  returns within its poll interval.
"""

from __future__ import annotations

import logging
import threading
import time
from contextlib import nullcontext
from typing import Protocol

from repro.core.config import RunnerConfig, SupervisionConfig
from repro.exceptions import AdmissionError, ServiceError
from repro.obs.trace import Tracer
from repro.runner.cache import ResultCache
from repro.runner.executor import JobOutcome, WarmWorker, run_sweep
from repro.runner.jobs import Job
from repro.service.store import InjectedServiceCrash

logger = logging.getLogger(__name__)


class ClaimTransport(Protocol):
    """How a :class:`ClaimRunner` reaches the job queue."""

    def claim(self, lease_seconds: float,
              wait_seconds: float = 0.0) -> dict | None:
        """Claim the best queued job, waiting up to ``wait_seconds``
        for one to become claimable (``None`` when none did)."""

    def heartbeat(self, analysis_id: str, key: str, token: str,
                  lease_seconds: float) -> str:
        """Renew a lease: ``renewed``, ``dropped`` or ``lost``."""

    def cancel_requested(self, analysis_id: str, key: str) -> bool:
        """Whether a cooperative cancel was requested for the job."""

    def settle(self, analysis_id: str, key: str, token: str, state: str,
               status: str | None = None, error: str | None = None,
               result: dict | None = None,
               spans: list[dict] | None = None) -> bool:
        """Commit the terminal state; False when the fence refused it."""

    def release(self, analysis_id: str, key: str, token: str) -> bool:
        """Hand an unstarted claim back; False when the claim is stale."""


class ClaimRunner:
    """Slot threads turning claims into settled jobs over one transport.

    Args:
        transport: The five claim verbs (:class:`ClaimTransport`).
        supervision: Lease, heartbeat and renewal-cap knobs.
        runner_config: Executor knobs for the jobs themselves.
        cache: Result cache handed to the executor (``None`` for none).
        isolate_jobs: Run each job in a worker process (the executor's
            pooled path) instead of on the slot thread.  Each slot
            keeps one warm worker process across its claims.
        poll_interval_seconds: The longest single wait for work inside
            one claim; an empty claim is followed straight by the next.
            Also the pause after a failed transport call.
        ship_spans: Trace each job with its own tracer and ship the
            spans in the settle (a remote agent's spans would otherwise
            stay in its own process).  Without it jobs trace into the
            ambient tracer.
    """

    def __init__(self, transport: ClaimTransport, *,
                 supervision: SupervisionConfig,
                 runner_config: RunnerConfig,
                 cache: ResultCache | None,
                 isolate_jobs: bool,
                 poll_interval_seconds: float,
                 ship_spans: bool = False):
        self.transport = transport
        self.supervision = supervision
        self.runner_config = runner_config
        self.cache = cache
        self.isolate_jobs = isolate_jobs
        self.poll_interval_seconds = poll_interval_seconds
        self.ship_spans = ship_spans
        #: The drain signal, shared with in-flight ``run_sweep`` calls.
        self.stop_event = threading.Event()
        self._threads: list[threading.Thread] = []
        self._counts_lock = threading.Lock()
        #: Processed claims by outcome (``done``/``failed``/
        #: ``cancelled``/``stale``/``released``).
        self.counts: dict[str, int] = {}

    def start(self, slots: int) -> None:
        """Start ``slots`` threads, each looping claim -> run -> settle."""
        self.stop_event.clear()
        for index in range(slots):
            thread = threading.Thread(
                target=self._slot_loop, args=(index,),
                name=f"repro-claim-slot-{index}", daemon=True)
            self._threads.append(thread)
            thread.start()

    def stop(self, drain_timeout: float) -> int:
        """Set the stop event and join the slots by one shared deadline.

        Returns:
            How many slots were still busy when the deadline passed;
            their claims are left to lapse and be reaped (or recovered
            at the coordinator's next start).
        """
        self.stop_event.set()
        deadline = time.monotonic() + drain_timeout
        for thread in self._threads:
            thread.join(timeout=max(0.0, deadline - time.monotonic()))
        self._threads = [t for t in self._threads if t.is_alive()]
        if self._threads:
            logger.warning(
                "%d slot(s) still busy after the drain timeout; their "
                "claims will lapse and be reaped", len(self._threads))
        return len(self._threads)

    def run_until_idle(self) -> int:
        """Drain the queue on the calling thread (tests, one-shot mode).

        Returns:
            How many claims were processed (settled or released).
        """
        processed = 0
        with self._warm_worker() as warm:
            while not self.stop_event.is_set() \
                    and self.run_one(warm_worker=warm):
                processed += 1
        return processed

    def _warm_worker(self):
        """A slot's worker process, shut down when the ``with`` block
        exits (``None`` without process isolation)."""
        return WarmWorker() if self.isolate_jobs else nullcontext()

    def _slot_loop(self, index: int) -> None:
        with self._warm_worker() as warm:
            while not self.stop_event.is_set():
                try:
                    self.run_one(self.poll_interval_seconds, warm)
                except InjectedServiceCrash:
                    # In-process chaos: this slot "dies".  Its claim
                    # stays running in the store, exactly as after a
                    # real crash, until restart recovery or the reaper
                    # requeues it.
                    logger.warning("slot %d killed by injected crash",
                                   index)
                    return
                except AdmissionError as exc:
                    # The coordinator shed our claim: honor its
                    # Retry-After.
                    self.stop_event.wait(exc.retry_after
                                         or self.poll_interval_seconds)
                except ServiceError as exc:
                    # Transport retries are spent; treat an unreachable
                    # coordinator as a long poll -- it may be
                    # restarting.
                    logger.warning("slot %d: claim transport failed: %s",
                                   index, exc)
                    self.stop_event.wait(self.poll_interval_seconds)

    def _count(self, outcome: str) -> None:
        with self._counts_lock:
            self.counts[outcome] = self.counts.get(outcome, 0) + 1

    def run_one(self, wait_seconds: float = 0.0,
                warm_worker: WarmWorker | None = None) -> bool:
        """Claim, run and settle one job; False when no job was claimed.

        Args:
            wait_seconds: How long the claim may wait for work when the
                queue is empty (0 answers at once).
            warm_worker: The slot's reusable worker process, for jobs
                run with process isolation (``None`` forks per job).
        """
        claimed = self.transport.claim(self.supervision.lease_seconds,
                                       wait_seconds)
        if claimed is None:
            return False
        analysis_id, key = claimed["analysis_id"], claimed["key"]
        token = claimed["claim_token"]
        if self.stop_event.is_set():
            # A drain raced the claim: refund it instead of running it.
            self._release(analysis_id, key, token)
            return True
        job = Job(payload=claimed["payload"])

        wall_timeout = None
        if claimed["deadline_at"] is not None:
            remaining = claimed["deadline_at"] - time.time()
            if remaining <= 0:
                # Claimed at the buzzer: fail fast rather than compute
                # an answer nobody is waiting for.
                self._settle(analysis_id, key, token, JobOutcome(
                    job=job, status="deadline_exceeded",
                    error="deadline_exceeded: end-to-end deadline passed "
                          "before the job could start"))
                return True
            default_wall = self.runner_config.wall_timeout_for(
                job.params.get("time_limit"))
            wall_timeout = remaining if default_wall is None \
                else min(default_wall, remaining)

        lost = threading.Event()
        heartbeat_stop = threading.Event()
        heartbeat = threading.Thread(
            target=self._heartbeat_loop,
            args=(analysis_id, key, token, heartbeat_stop,
                  self._renewal_horizon(job, wall_timeout), lost),
            name="repro-claim-heartbeat", daemon=True)
        heartbeat.start()

        def cancel_check() -> bool:
            return lost.is_set() \
                or self.transport.cancel_requested(analysis_id, key)

        tracer = Tracer() if self.ship_spans else None
        try:
            outcome = run_sweep(
                [job],
                num_workers=2 if self.isolate_jobs else 1,
                cache=self.cache,
                config=self.runner_config,
                wall_timeout=wall_timeout,
                tracer=tracer,
                handle_signals=False,
                stop_event=self.stop_event,
                cancel_check=cancel_check,
                attempt_base=claimed["attempts"] - 1,
                warm_worker=warm_worker,
            )
            settled = outcome.outcomes[0] if outcome.outcomes else None
        except InjectedServiceCrash:
            raise
        except Exception as exc:
            # The executor settles task failures itself, so this is a
            # harness bug or a poisoned payload: fail the job rather
            # than wedge it in 'running'.
            logger.exception("job %s failed outside the executor",
                             key[:12])
            settled = JobOutcome(job=job, status="error",
                                 error=f"{type(exc).__name__}: {exc}")
        finally:
            # A real process death takes the heartbeat thread with it;
            # an in-process crash must behave the same, so the lease
            # stops being renewed on every exit path.
            heartbeat_stop.set()
            heartbeat.join(timeout=1.0)

        if lost.is_set():
            logger.warning(
                "claim for job %s was lost while running (reaped or "
                "re-claimed); discarding the stale outcome", key[:12])
            self._count("stale")
        elif settled is None:
            # The drain landed before the attempt started: refund it.
            self._release(analysis_id, key, token)
        else:
            self._settle(analysis_id, key, token, settled,
                         spans=tracer.export() if tracer is not None
                         else None)
        return True

    def _settle(self, analysis_id: str, key: str, token: str,
                settled: JobOutcome,
                spans: list[dict] | None = None) -> None:
        if settled.status == "cancelled":
            state = "cancelled"
        elif settled.ok:
            state = "done"
        else:
            state = "failed"
        landed = self.transport.settle(
            analysis_id, key, token, state, status=settled.status,
            error=settled.error, result=settled.result, spans=spans)
        if not landed:
            logger.warning(
                "settle for job %s refused by the fence (reaped and "
                "re-claimed); the re-run settles identically", key[:12])
        self._count(state if landed else "stale")

    def _release(self, analysis_id: str, key: str, token: str) -> None:
        released = self.transport.release(analysis_id, key, token)
        self._count("released" if released else "stale")

    def _renewal_horizon(self, job: Job,
                         wall_timeout: float | None) -> float | None:
        """Latest time this claim's heartbeat may renew the lease.

        A healthy executor returns within the worst case of every
        attempt plus backoff; past that the claim is presumed wedged.
        ``max_lease_renewal_seconds`` caps the horizon regardless.  With
        neither bound the horizon is ``None`` (renew indefinitely).
        """
        supervision = self.supervision
        wall = wall_timeout if wall_timeout is not None else \
            self.runner_config.wall_timeout_for(job.params.get("time_limit"))
        budget = supervision.max_lease_renewal_seconds
        if wall is not None:
            cfg = self.runner_config
            worst = ((cfg.retries + 1) * wall
                     + cfg.retries * cfg.backoff_max_seconds
                     + supervision.lease_seconds)
            budget = worst if budget is None else min(budget, worst)
        return None if budget is None else time.time() + budget

    def _heartbeat_loop(self, analysis_id: str, key: str, token: str,
                        stop: threading.Event, renew_until: float | None,
                        lost: threading.Event | None = None) -> None:
        """Renew the lease until ``stop``, the horizon, or a lost fence.

        Sets ``lost`` (when given) once a renewal reports that this
        claim no longer owns the job.
        """
        supervision = self.supervision
        interval = supervision.resolved_heartbeat_interval()
        while not stop.wait(interval):
            if renew_until is not None and time.time() >= renew_until:
                logger.warning(
                    "job %s exceeded its worst-case wall budget; "
                    "letting the lease lapse so the reaper recovers it",
                    key[:12])
                return
            try:
                outcome = self.transport.heartbeat(
                    analysis_id, key, token, supervision.lease_seconds)
            except Exception:
                # The lease keeps aging but the claim may still be
                # ours: retry at the next tick and let the reaper
                # arbitrate if the failures persist.
                logger.exception("heartbeat for job %s failed", key[:12])
                continue
            if outcome == "lost":
                # The fence guarantees these renewals can never touch a
                # new claim's lease; stop beating and stop computing.
                logger.warning(
                    "lease for job %s lost (reaped or settled); "
                    "stopping heartbeats", key[:12])
                if lost is not None:
                    lost.set()
                return
            if outcome == "dropped":
                # Chaos swallowed the beat; the claim is still ours.
                logger.debug("heartbeat for job %s dropped", key[:12])
