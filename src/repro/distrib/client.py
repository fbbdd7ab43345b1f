"""The fleet side of the claim protocol: an HTTP client for workers.

:class:`FleetClient` extends :class:`~repro.service.client.ServiceClient`
with the endpoints a remote worker agent needs -- claim, heartbeat,
settle, release, and worker registration.  Its claim verbs are the
:class:`~repro.service.claims.ClaimTransport` a remote agent's
:class:`~repro.service.claims.ClaimRunner` runs over.  Every endpoint
gets bounded, deterministic retries, because *each is replay-safe by
construction*:

* **claim** -- a claim request that died on the wire claimed nothing; a
  claim whose *response* was lost left an orphaned lease that simply
  lapses and is reaped.  Either way a retry is harmless.
* **heartbeat / release** -- fenced on the claim token; a replay either
  renews/releases the same claim again (idempotent) or is refused with
  409 because the claim is no longer live.
* **settle** -- a replay of a settle that in fact landed is refused
  (409) by the fence; the agent treats that as *already settled*, which
  is exactly what it means.
* **register / deregister** -- upserts keyed on the worker id.

The ``distrib.claim`` / ``distrib.heartbeat`` / ``distrib.settle``
chaos sites (:mod:`repro.resilience.faults`) hook the per-attempt send
path (the ``chaos`` argument of ``ServiceClient._request``, the one
retry loop): a firing site drops the request *before it reaches the
wire*, consuming one retry attempt -- so a plan with the default
``attempts=(1,)`` makes the first send vanish and the retry succeed,
deterministically, with no real network flakiness required.

HTTP error responses are never retried -- they are answers (409 = the
fence refused you; 429 = back off), not transport failures.
"""

from __future__ import annotations

from repro.core.config import DistribConfig
from repro.service.client import ServiceClient


class FleetClient(ServiceClient):
    """A worker agent's connection to one coordinator.

    Args:
        base_url: ``http://host:port`` of the coordinating service.
        worker_id: This worker's fleet identity; sent as ``X-Client``
            and stamped on every claim.
        config: Fleet knobs (timeouts, retry budget, backoff shape).
    """

    def __init__(self, base_url: str, worker_id: str,
                 config: DistribConfig | None = None):
        config = config or DistribConfig()
        super().__init__(
            base_url, client_id=worker_id,
            timeout=config.request_timeout_seconds,
            retries=config.retries,
            retry_backoff_seconds=config.retry_backoff_seconds,
            retry_backoff_max_seconds=config.retry_backoff_max_seconds)
        self.worker_id = worker_id
        self.config = config
        #: ``(analysis_id, key)`` of claims whose last heartbeat
        #: carried ``cancel_requested``.
        self._cancelling: set[tuple[str, str]] = set()

    # -- worker registration --------------------------------------------

    def register(self, capacity: int = 1, kind: str = "remote",
                 host: str | None = None, pid: int | None = None) -> dict:
        """Announce this worker to the coordinator (idempotent upsert)."""
        status, doc, headers = self._request(
            "POST", "/v1/workers",
            {"id": self.worker_id, "kind": kind, "host": host,
             "pid": pid, "capacity": int(capacity)},
            idempotent=True)
        self._raise_for(status, doc, headers)
        return doc

    def deregister(self) -> bool:
        """Stamp this worker as drained; False if it was never known."""
        status, doc, headers = self._request(
            "DELETE", f"/v1/workers/{self.worker_id}", idempotent=True)
        if status == 404:
            return False
        self._raise_for(status, doc, headers)
        return True

    def fleet(self) -> dict:
        """The coordinator's registered-worker roster."""
        status, doc, headers = self._request("GET", "/v1/workers")
        self._raise_for(status, doc, headers)
        return doc

    # -- the fenced claim protocol --------------------------------------

    def claim(self, lease_seconds: float | None = None,
              wait_seconds: float = 0.0) -> dict | None:
        """Claim the best queued job, long-polling for one when idle.

        Args:
            lease_seconds: The claim's lease (the coordinator's default
                when ``None``).
            wait_seconds: How long the coordinator may hold the request
                waiting for a job on an empty queue.  Capped here at
                half the request timeout, and by the coordinator at its
                own limit.

        Returns:
            The claim document (with its ``claim_token`` fence and
            ``lease_expires_at``), or ``None`` when no job came.

        Raises:
            AdmissionError: The coordinator shed this claim (the fleet
                is polling past ``max_claims_per_second``); carries the
                ``Retry-After`` to honor.
        """
        body: dict = {"worker": self.worker_id}
        if lease_seconds is not None:
            body["lease_seconds"] = float(lease_seconds)
        if wait_seconds > 0:
            body["wait_seconds"] = min(
                float(wait_seconds),
                self.config.request_timeout_seconds / 2)
        status, doc, headers = self._request(
            "POST", "/v1/claims", body, idempotent=True,
            chaos=("distrib.claim", self.worker_id))
        self._raise_for(status, doc, headers)
        return doc.get("claim")

    def heartbeat(self, analysis_id: str, key: str, token: str,
                  lease_seconds: float) -> str:
        """Renew a claim's lease; the response is also the cancel channel.

        Returns:
            ``"lost"`` when the fence refused the renewal (the claim was
            reaped, settled, or superseded -- stop beating); otherwise
            the coordinator's outcome (``renewed`` or ``dropped``).  A
            ``cancel_requested`` flag in the response is remembered for
            :meth:`cancel_requested`.
        """
        status, doc, headers = self._request(
            "POST", f"/v1/claims/{analysis_id}/{key}/heartbeat",
            {"token": token, "lease_seconds": float(lease_seconds)},
            idempotent=True, chaos=("distrib.heartbeat", key))
        if status == 409:
            return "lost"
        self._raise_for(status, doc, headers)
        if doc.get("cancel_requested"):
            self._cancelling.add((analysis_id, key))
        return doc["outcome"]

    def cancel_requested(self, analysis_id: str, key: str) -> bool:
        """Whether a heartbeat response asked to cancel this job."""
        return (analysis_id, key) in self._cancelling

    def settle(self, analysis_id: str, key: str, token: str, state: str,
               status: str | None = None, error: str | None = None,
               result: dict | None = None,
               spans: list[dict] | None = None) -> bool:
        """Commit a claim's terminal state to the coordinator.

        Returns:
            ``True`` when this settle landed; ``False`` when the fence
            refused it (stale claim, or a replay of a settle that
            already landed) -- the job is terminal either way, just not
            by our hand, so the agent moves on.
        """
        self._cancelling.discard((analysis_id, key))
        body: dict = {"token": token, "state": state}
        if status is not None:
            body["status"] = status
        if error is not None:
            body["error"] = error
        if result is not None:
            body["result"] = result
        if spans:
            body["spans"] = spans
        http_status, doc, headers = self._request(
            "POST", f"/v1/claims/{analysis_id}/{key}/settle", body,
            idempotent=True, chaos=("distrib.settle", key))
        if http_status == 409:
            return False
        self._raise_for(http_status, doc, headers)
        return True

    def release(self, analysis_id: str, key: str, token: str) -> bool:
        """Hand an unstarted claim back (drain path); False if stale."""
        self._cancelling.discard((analysis_id, key))
        status, doc, headers = self._request(
            "POST", f"/v1/claims/{analysis_id}/{key}/release",
            {"token": token}, idempotent=True,
            chaos=("distrib.claim", key))
        if status == 409:
            return False
        self._raise_for(status, doc, headers)
        return True

    def claims(self) -> dict:
        """The coordinator's active-claim listing (ops visibility)."""
        status, doc, headers = self._request("GET", "/v1/claims")
        self._raise_for(status, doc, headers)
        return doc
