"""Admission control and backpressure for the analysis service.

Analysis capacity is a shared resource: a MILP campaign can hold worker
threads for minutes, so accepting every submission would just move the
failure from "rejected at the door" (cheap, explicit, retryable) to
"accepted and starved" (invisible until a client times out).  The
controller therefore sheds load *at submission time*:

* **Global queue depth** -- a submission whose jobs would push the
  number of live (queued + running) jobs past ``max_queue_depth`` is
  shed with HTTP 429.
* **Per-client in-flight cap** -- one client cannot occupy more than
  ``max_inflight_per_client`` live jobs, so a single batch submitter
  cannot starve interactive users.

A submission that can *never* be admitted -- more jobs in one batch
than the queue can hold even when empty -- is a **permanent**
rejection: HTTP 400 with no ``Retry-After``, so clients split the
batch instead of retrying forever.

The distributed fleet adds a third pressure point on the *claim* side:
an over-scaled worker fleet polling ``POST /v1/claims`` can stampede
the store (every claim is a synchronous, fsync'd SQLite write).
``admit_claim`` therefore runs a token bucket refilled at
``ServiceConfig.max_claims_per_second`` (burst of one second's worth);
claims beyond it are shed with HTTP 429 + ``Retry-After`` sized to the
bucket's refill time.  Unset (the default) admits every claim.

Retryable shed responses carry a ``Retry-After`` hint: the configured
floor, scaled up by how long the blocking backlog takes to clear when
the store has service-time history (a saturated queue of ten-minute
solves should not invite retries every five seconds).  Global sheds
divide the backlog across the whole worker pool; per-client sheds
divide the *client's* backlog by that client's effective share of the
workers (the pool split across the clients currently holding work).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

from repro.core.config import ServiceConfig
from repro.obs.metrics import metrics
from repro.service.store import JobStore


@dataclass(frozen=True)
class AdmissionDecision:
    """The outcome of one admission check.

    Attributes:
        admitted: Whether the submission may enter the queue.
        reason: Human-readable shed reason (``None`` when admitted).
        retry_after: Suggested client back-off in seconds (the HTTP
            ``Retry-After`` header); ``None`` when admitted or when the
            rejection is permanent.
        permanent: The submission can never be admitted as shaped
            (e.g. more jobs than the queue can hold even when empty);
            retrying is pointless, the API maps this to HTTP 400.
    """

    admitted: bool
    reason: str | None = None
    retry_after: float | None = None
    permanent: bool = False


class AdmissionController:
    """Decides, per submission, whether the service takes the work."""

    def __init__(self, store: JobStore, config: ServiceConfig):
        self.store = store
        self.config = config
        rate = config.max_claims_per_second
        self._claim_lock = threading.Lock()
        self._claim_burst = max(1.0, rate) if rate is not None else 0.0
        self._claim_tokens = self._claim_burst  # start full: no cold shed
        self._claim_refilled_at = time.monotonic()

    def admit(self, client: str, num_jobs: int) -> AdmissionDecision:
        """Check one submission of ``num_jobs`` jobs from ``client``.

        Deduped resubmissions never reach this check (they add no jobs);
        callers consult the store first.
        """
        if num_jobs > self.config.max_queue_depth:
            # Even an empty queue could not hold this batch: retrying
            # can never succeed, so reject permanently (HTTP 400, no
            # Retry-After) instead of inviting an infinite retry loop.
            metrics().counter("service.shed_permanent").inc()
            return AdmissionDecision(
                admitted=False,
                reason=(
                    f"submission of {num_jobs} jobs exceeds the queue "
                    f"depth cap {self.config.max_queue_depth} outright "
                    f"and can never be admitted; split the batch"
                ),
                permanent=True,
            )
        depth = self.store.depth()
        if depth + num_jobs > self.config.max_queue_depth:
            metrics().counter("service.shed_queue_depth").inc()
            return AdmissionDecision(
                admitted=False,
                reason=(
                    f"queue is saturated: {depth} live jobs + {num_jobs} "
                    f"submitted would exceed the depth cap "
                    f"{self.config.max_queue_depth}"
                ),
                retry_after=self.retry_after(depth),
            )
        inflight = self.store.inflight_for(client)
        if inflight + num_jobs > self.config.max_inflight_per_client:
            metrics().counter("service.shed_client_cap").inc()
            return AdmissionDecision(
                admitted=False,
                reason=(
                    f"client {client!r} has {inflight} jobs in flight; "
                    f"{num_jobs} more would exceed the per-client cap "
                    f"{self.config.max_inflight_per_client}"
                ),
                retry_after=self.retry_after_for_client(inflight),
            )
        return AdmissionDecision(admitted=True)

    def admit_claim(self, worker_id: str) -> AdmissionDecision:
        """Check one ``POST /v1/claims`` against the claim-rate bucket.

        Sheds (HTTP 429) when the fleet's aggregate claim rate exceeds
        ``ServiceConfig.max_claims_per_second``; the ``Retry-After``
        hint is the time until one token refills, so a shed worker
        backs off exactly long enough instead of thundering back.
        """
        rate = self.config.max_claims_per_second
        if rate is None:
            return AdmissionDecision(admitted=True)
        with self._claim_lock:
            now = time.monotonic()
            self._claim_tokens = min(
                self._claim_burst,
                self._claim_tokens
                + (now - self._claim_refilled_at) * rate)
            self._claim_refilled_at = now
            if self._claim_tokens >= 1.0:
                self._claim_tokens -= 1.0
                return AdmissionDecision(admitted=True)
            wait = (1.0 - self._claim_tokens) / rate
        metrics().counter("service.shed_claims").inc()
        return AdmissionDecision(
            admitted=False,
            reason=(
                f"claim rate exceeds {rate}/s (worker {worker_id!r}); "
                f"the fleet is polling faster than the store should "
                f"absorb"
            ),
            retry_after=max(wait, 0.05),
        )

    def retry_after(self, backlog: int) -> float:
        """The ``Retry-After`` hint for a shed with ``backlog`` jobs.

        With service-time history, estimates how long the backlog takes
        to clear across the worker pool; always at least the configured
        floor, and capped at an hour so a misbehaving estimate cannot
        tell clients to go away for a week.
        """
        floor = self.config.retry_after_seconds
        per_job = self.store.recent_job_seconds()
        if per_job is None:
            return floor
        estimate = backlog * per_job / max(1, self.config.num_workers)
        return min(max(floor, estimate), 3600.0)

    def retry_after_for_client(self, backlog: int) -> float:
        """``Retry-After`` for a per-client shed with ``backlog`` jobs.

        The client's backlog does not drain across the whole pool -- it
        drains at that client's effective share of the workers (the pool
        split across every client currently holding live work).  Scaling
        by the whole pool underestimates the wait whenever other clients
        have jobs queued, inviting doomed early retries.  Same floor and
        one-hour cap as the global hint.
        """
        floor = self.config.retry_after_seconds
        per_job = self.store.recent_job_seconds()
        if per_job is None:
            return floor
        active = max(1, self.store.active_clients())
        share = self.config.num_workers / active
        estimate = backlog * per_job / max(share, 1e-9)
        return min(max(floor, estimate), 3600.0)
