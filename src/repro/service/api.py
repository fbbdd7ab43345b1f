"""The analysis service: REST API over the queue, scheduler, and store.

A zero-dependency serving layer (stdlib ``http.server``) that turns the
batch sweep runner into a queryable system:

====== ================================= ===============================
verb   path                              semantics
====== ================================= ===============================
POST   ``/v1/analyses``                  submit a sweep spec; 201
                                         accepted, 200 deduped, 429
                                         shed (+ ``Retry-After``), 400
                                         invalid
GET    ``/v1/analyses/<id>``             state + per-state job counts
GET    ``/v1/analyses/<id>/result``      the results document; 202
                                         while unfinished, 410 for
                                         evicted rows
DELETE ``/v1/analyses/<id>``             cancel: queued jobs now,
                                         running jobs cooperatively;
                                         404 unknown, 409 all-terminal
GET    ``/v1/quarantine``                quarantined jobs, all analyses
GET    ``/v1/analyses/<id>/quarantine``  quarantined jobs of one
                                         analysis
POST   ``/v1/analyses/<id>/retry``       requeue quarantined jobs with
                                         a fresh attempt budget
POST   ``/v1/claims``                    claim the best queued job with
                                         a lease + fencing token (the
                                         remote worker protocol),
                                         waiting up to ``wait_seconds``
                                         for one; 200 with ``claim:
                                         null`` when none came, 429
                                         when claim rate is shed
GET    ``/v1/claims``                    active claims: who runs what,
                                         whose lease expires when
POST   ``/v1/claims/<aid>/<key>/heartbeat``  renew the claim's lease
                                         (fenced on the token); 409
                                         once the claim is lost
POST   ``/v1/claims/<aid>/<key>/settle``  commit the claim's terminal
                                         state, result, and trace
                                         spans (fenced); 409 stale
POST   ``/v1/claims/<aid>/<key>/release``  hand an unstarted claim back
                                         to the queue (fenced)
POST   ``/v1/workers``                   register a worker identity
GET    ``/v1/workers``                   the fleet + per-worker
                                         in-flight counts
DELETE ``/v1/workers/<id>``              deregister (worker drain)
GET    ``/healthz``                      liveness + queue counts +
                                         fleet size
GET    ``/metricz``                      the ``repro.obs`` registry
====== ================================= ===============================

Submissions are the same ``sweep_spec`` JSON documents ``repro sweep``
takes, with two serving-layer extensions (``priority``, an integer, and
``deadline_seconds``, an end-to-end budget after which queued jobs fail
fast and running jobs have their wall timeout clamped) and one
restriction: instance documents must be *embedded*, not file references
-- the server never reads paths off its own filesystem on a client's
behalf.

Request handling is deliberately boring: every connection runs on its
own thread (``ThreadingHTTPServer``) and is kept alive between
requests (HTTP/1.1) until the client closes it, it idles past
:data:`IDLE_TIMEOUT_SECONDS`, or a request's body goes unread (a
``413``, a bad ``Content-Length``), whose bytes must not be parsed as
the next request.  Admission control happens before any row is
written, and each request is recorded as an ``http_request`` span on
the ambient tracer plus ``service.http_*`` counters, so ``/metricz``
and a ``serve --trace`` file tell the same story.
"""

from __future__ import annotations

import json
import logging
import math
import os
import selectors
import socket
import threading
import time
from collections.abc import Callable
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

from repro.core.config import RunnerConfig, ServiceConfig
from repro.exceptions import CacheKeyError, ModelingError, ServiceError
from repro.obs.metrics import metrics
from repro.obs.trace import current_tracer
from repro.runner.cache import ResultCache
from repro.runner.jobs import _FILE_KEYS, SweepSpec
from repro.service.admission import AdmissionController
from repro.service.results import ResultStore
from repro.service.scheduler import Scheduler, settle_claim
from repro.service.store import JobStore

logger = logging.getLogger(__name__)

#: Cap on one claim request's ``wait_seconds`` long-poll, well below
#: a worker agent's default request timeout (30 s).
MAX_CLAIM_WAIT_SECONDS = 5.0

#: Default cap on accepted request bodies (a spec with embedded
#: documents for a continental-scale topology fits comfortably; a
#: runaway upload does not get to exhaust server memory).  The
#: effective limit is ``ServiceConfig.max_body_bytes`` (``serve
#: --max-body-bytes``); this constant is its default.
MAX_BODY_BYTES = 64 * 1024 * 1024

#: How long a kept-alive connection may sit idle (or a socket read or
#: write stall) before its handler thread closes it, so an abandoned
#: client connection does not pin a server thread forever.  Clients
#: reuse a connection for at most
#: :data:`repro.service.client.MAX_IDLE_SECONDS`, well inside this.
IDLE_TIMEOUT_SECONDS = 60.0

#: How long :meth:`AnalysisService.stop` waits for each connection's
#: handler to finish the reply it is writing once its read side is shut.
HANDLER_JOIN_SECONDS = 5.0


def expand_submission(doc: dict) -> tuple[
        str, str, int, float | None, Callable[[], list]]:
    """Validate a submitted document and hash it, deferring expansion.

    Returns:
        ``(analysis_id, name, priority, deadline_seconds, jobs)`` with
        ``jobs()`` returning the queue rows -- ``(key, label, payload)``
        triples in sweep order, keyed from the same encoding of the
        instance as ``analysis_id`` -- and ``deadline_seconds`` the
        client's optional end-to-end budget (``None`` when absent).
        A resubmission never needs ``jobs()``.

    Raises:
        ServiceError: The document is not a valid self-contained sweep
            spec (message says why; maps to HTTP 400).
    """
    if not isinstance(doc, dict):
        raise ServiceError("the request body must be a JSON object",
                           status=400)
    doc = dict(doc)
    priority = doc.pop("priority", 0)
    if not isinstance(priority, int):
        raise ServiceError("priority must be an integer", status=400)
    deadline_seconds = doc.pop("deadline_seconds", None)
    if deadline_seconds is not None:
        if not isinstance(deadline_seconds, (int, float)) \
                or isinstance(deadline_seconds, bool) \
                or deadline_seconds <= 0:
            raise ServiceError(
                "deadline_seconds must be a positive number", status=400)
        deadline_seconds = float(deadline_seconds)
    instance = doc.get("instance")
    if isinstance(instance, dict):
        refs = [key for key in _FILE_KEYS
                if isinstance(instance.get(key), str)]
        if refs:
            raise ServiceError(
                f"instance documents must be embedded, not file "
                f"references (found path strings for: {', '.join(refs)}); "
                f"the server does not read files on a client's behalf",
                status=400,
            )
    try:
        spec = SweepSpec.from_dict(doc)
        spec_hash, expand = spec.keyed()
    except (ModelingError, CacheKeyError) as exc:
        raise ServiceError(f"invalid sweep spec: {exc}", status=400) \
            from exc

    # The hash encoded every value the job keys encode, so expanding
    # raises no CacheKeyError.
    return spec_hash, spec.name, priority, deadline_seconds, lambda: [
        (job.key, job.label, job.payload) for job in expand()]


class AnalysisService:
    """Everything behind the HTTP surface, wired together.

    Owns the durable store, the scheduler pool, the admission
    controller, and the result store with its eviction loop.  The HTTP
    handler calls into this object only -- it holds no state of its own
    -- so tests can drive the service directly, without sockets.
    """

    def __init__(self, workdir: str, config: ServiceConfig | None = None,
                 runner_config: RunnerConfig | None = None):
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.config = config or ServiceConfig()
        self.store = JobStore(self.workdir / "service.db")
        self.cache = ResultCache(self.workdir / "cache")
        self.scheduler = Scheduler(self.store, self.cache, self.config,
                                   runner_config=runner_config)
        self.admission = AdmissionController(self.store, self.config)
        self.results = ResultStore(self.cache, self.store, self.config)
        self.started_at = time.time()
        # Open HTTP connections and the handler thread serving each.
        self._connections: dict[socket.socket, threading.Thread] = {}
        self._connections_lock = threading.Lock()

    def start(self) -> None:
        """Recover, then start the worker pool and the eviction loop."""
        self.scheduler.start()
        self.results.start()

    def stop(self, drain: bool = True) -> None:
        """Stop workers (draining by default) and the eviction loop."""
        self.scheduler.stop(drain=drain)
        self.results.stop()
        self._end_connections()
        # The gauge is computed where it is read; this is the final
        # read, for the closing snapshot of a traced ``serve``.
        metrics().gauge("service.queue_depth").set(self.store.depth())
        self.store.close()

    def _opened(self, connection: socket.socket) -> None:
        with self._connections_lock:
            self._connections[connection] = threading.current_thread()

    def _closed(self, connection: socket.socket) -> None:
        with self._connections_lock:
            self._connections.pop(connection, None)

    def _end_connections(self) -> None:
        """End every open HTTP connection and join its handler thread.

        A kept-alive connection's handler would otherwise wait out
        :data:`IDLE_TIMEOUT_SECONDS` and could touch the store after it
        is closed.  Shutting the read side lets a handler finish the
        reply in flight, then read end-of-stream and return; the
        scheduler has already woken any long-polling claim.
        """
        with self._connections_lock:
            connections = list(self._connections.items())
        for connection, _ in connections:
            try:
                connection.shutdown(socket.SHUT_RD)
            except OSError:
                pass  # already closed by its client
        for _, thread in connections:
            thread.join(timeout=HANDLER_JOIN_SECONDS)

    # -- operations the HTTP handler maps onto -------------------------

    def submit(self, doc: dict, client: str) -> tuple[int, dict, dict]:
        """Handle one submission; returns (status, body, headers)."""
        analysis_id, name, priority, deadline_seconds, expand = \
            expand_submission(doc)
        existing = self.store.analysis_status(analysis_id)
        if existing is not None:
            metrics().counter("service.deduped").inc()
            return 200, {
                "id": analysis_id, "deduped": True,
                "total_jobs": existing["total_jobs"],
                "state": existing["state"],
                "location": f"/v1/analyses/{analysis_id}",
            }, {}
        jobs = expand()
        decision = self.admission.admit(client, len(jobs))
        if not decision.admitted:
            metrics().counter("service.shed").inc()
            if decision.permanent:
                # Never admittable as shaped: 400, and deliberately no
                # Retry-After -- retrying the same batch cannot succeed.
                return 400, {"error": decision.reason}, {}
            return 429, {
                "error": decision.reason,
                "retry_after_seconds": decision.retry_after,
            }, {"Retry-After": str(max(1, round(decision.retry_after)))}
        accepted = self.store.submit(analysis_id, name, client, jobs,
                                     priority=priority,
                                     deadline_seconds=deadline_seconds)
        metrics().counter("service.submitted").inc()
        metrics().counter("service.jobs_accepted").inc(len(jobs))
        return 201, {
            "id": accepted["id"], "deduped": accepted["deduped"],
            "total_jobs": accepted["total_jobs"],
            "state": "queued",
            "location": f"/v1/analyses/{analysis_id}",
        }, {}

    def status(self, analysis_id: str) -> tuple[int, dict, dict]:
        doc = self.store.analysis_status(analysis_id)
        if doc is None:
            return 404, {"error": f"unknown analysis {analysis_id!r}"}, {}
        return 200, doc, {}

    def result(self, analysis_id: str) -> tuple[int, dict, dict]:
        """The assembled results document of a finished analysis.

        Shaped like ``repro sweep``'s ``results.json`` jobs array, so a
        client can diff the two directly (the bit-identical acceptance
        check does exactly that).
        """
        status = self.store.analysis_status(analysis_id)
        if status is None:
            return 404, {"error": f"unknown analysis {analysis_id!r}"}, {}
        if not status["finished"]:
            retry = self.admission.retry_after(
                status["counts"]["queued"] + status["counts"]["running"])
            return 202, {
                "id": analysis_id, "state": status["state"],
                "counts": status["counts"],
                "retry_after_seconds": retry,
            }, {"Retry-After": str(max(1, round(retry)))}
        jobs = []
        evicted = 0
        for row in self.store.analysis_jobs(analysis_id):
            result = self.results.get(row["key"]) \
                if row["state"] == "done" else None
            if row["state"] == "done" and result is None:
                evicted += 1
            jobs.append({
                "key": row["key"],
                "label": row["label"],
                "params": row["params"],
                "state": row["state"],
                "status": row["status"],
                "attempts": row["attempts"],
                "result": result,
                "error": row["error"],
                "evicted": bool(row["state"] == "done" and result is None),
            })
        body = {
            "kind": "service_results",
            "id": analysis_id,
            "name": status["name"],
            "state": status["state"],
            "counts": status["counts"],
            "evicted": evicted,
            "jobs": jobs,
        }
        # Every computed result gone from the store: the document is a
        # tombstone, which HTTP spells 410 Gone.
        done = status["counts"]["done"]
        if done and evicted == done:
            return 410, body, {}
        return 200, body, {}

    def cancel(self, analysis_id: str) -> tuple[int, dict, dict]:
        """Cancel: queued jobs now, running jobs cooperatively.

        404 for an unknown analysis, 409 when every job is already
        terminal (nothing to cancel -- distinguishable from "no such
        analysis" so clients can tell a typo from a no-op).
        """
        outcome = self.store.cancel_analysis(analysis_id)
        if outcome is None:
            return 404, {"error": f"unknown analysis {analysis_id!r}"}, {}
        if outcome["already_terminal"]:
            return 409, {
                "error": f"analysis {analysis_id!r} has no live jobs; "
                         "every job is already in a terminal state",
                "id": analysis_id,
            }, {}
        metrics().counter("service.jobs_cancelled").inc(
            outcome["cancelled"])
        return 200, {
            "id": analysis_id,
            "cancelled": outcome["cancelled"],
            "cancelling": outcome["cancelling"],
            "note": ("queued jobs are cancelled immediately; running "
                     "jobs are cancelled cooperatively at the "
                     "executor's next poll"),
        }, {}

    def quarantine(self, analysis_id: str | None = None
                   ) -> tuple[int, dict, dict]:
        """List quarantined jobs (optionally scoped to one analysis)."""
        jobs = self.store.quarantined_jobs(analysis_id)
        return 200, {"jobs": jobs, "total": len(jobs)}, {}

    def retry(self, analysis_id: str) -> tuple[int, dict, dict]:
        """Requeue an analysis's quarantined jobs with a fresh budget."""
        status = self.store.analysis_status(analysis_id)
        if status is None:
            return 404, {"error": f"unknown analysis {analysis_id!r}"}, {}
        retried = self.store.retry_quarantined(analysis_id)
        if retried:
            metrics().counter("service.jobs.retried").inc(retried)
        return 200, {
            "id": analysis_id,
            "retried": retried,
            "location": f"/v1/analyses/{analysis_id}",
        }, {}

    # -- the remote claim protocol (repro.distrib) ----------------------

    def claim_next(self, body: dict, client: str) -> tuple[int, dict, dict]:
        """Hand the best queued job to a remote worker (fenced + leased).

        The body may carry ``worker`` (the claiming identity; defaults
        to the ``X-Client`` header), ``lease_seconds`` (defaults to the
        service's supervision lease) and ``wait_seconds`` (default 0:
        answer at once).  Runs the same claim path as the local pool
        (:meth:`Scheduler.claim`): the deadline + quarantine sweep, so
        remote workers never receive work the coordinator already knows
        is dead, then the claim, and on an empty queue a wait for the
        store's wake-up of at most ``wait_seconds``, capped at
        :data:`MAX_CLAIM_WAIT_SECONDS`.  The claim-rate shed applies
        once per request, however long it waits.  An empty queue is a
        normal answer -- 200 with ``claim: null`` and the
        ``wait_seconds`` the server honoured -- not an error.
        """
        worker_id = body.get("worker") or client
        if not isinstance(worker_id, str) or not worker_id:
            raise ServiceError("worker must be a non-empty string",
                               status=400)
        decision = self.admission.admit_claim(worker_id)
        if not decision.admitted:
            return 429, {
                "error": decision.reason,
                "retry_after_seconds": decision.retry_after,
            }, {"Retry-After": str(max(1, round(decision.retry_after)))}
        lease = body.get("lease_seconds",
                         self.config.supervision.lease_seconds)
        if not isinstance(lease, (int, float)) \
                or isinstance(lease, bool) or lease <= 0:
            raise ServiceError("lease_seconds must be a positive number",
                               status=400)
        wait = body.get("wait_seconds", 0.0)
        if not isinstance(wait, (int, float)) \
                or isinstance(wait, bool) or not math.isfinite(wait) \
                or wait < 0:
            raise ServiceError(
                "wait_seconds must be a non-negative number", status=400)
        wait = min(float(wait), MAX_CLAIM_WAIT_SECONDS)
        claimed = self.scheduler.claim(float(lease), worker_id, wait)
        if claimed is None:
            metrics().counter("service.claims_empty").inc()
            return 200, {"claim": None, "wait_seconds": wait}, {}
        metrics().counter("service.claims_granted").inc()
        claimed["lease_seconds"] = float(lease)
        return 200, {"claim": claimed}, {}

    def claim_list(self) -> tuple[int, dict, dict]:
        """Active claims: holder, lease expiry, heartbeat freshness."""
        claims = self.store.running_claims()
        return 200, {"claims": claims, "total": len(claims)}, {}

    def claim_heartbeat(self, analysis_id: str, key: str,
                        body: dict) -> tuple[int, dict, dict]:
        """Renew a remote claim's lease (fenced on the claim token).

        The response doubles as the cancel channel: it carries the
        job's ``cancel_requested`` flag, so a remote executor learns of
        a cooperative cancel within one heartbeat interval without
        polling a second endpoint.  409 means the claim is lost
        (reaped, settled, or re-claimed) -- stop beating.
        """
        token = self._claim_token(body)
        lease = body.get("lease_seconds",
                         self.config.supervision.lease_seconds)
        if not isinstance(lease, (int, float)) \
                or isinstance(lease, bool) or lease <= 0:
            raise ServiceError("lease_seconds must be a positive number",
                               status=400)
        outcome = self.store.heartbeat(analysis_id, key, float(lease),
                                       token)
        if outcome == "lost":
            return 409, {"outcome": "lost"}, {}
        return 200, {
            "outcome": outcome,
            "cancel_requested": self.store.cancel_requested(analysis_id,
                                                            key),
        }, {}

    def claim_settle(self, analysis_id: str, key: str,
                     body: dict) -> tuple[int, dict, dict]:
        """Commit a remote claim's terminal state (fenced).

        The body carries the executor's outcome: ``state``
        (done/failed/cancelled), ``status``, ``error``, the ``result``
        document for done jobs (written to the coordinator's
        content-addressed cache *before* the store transition, matching
        the local pool's crash ordering), and optional trace ``spans``
        merged into the coordinator's ambient tracer.  A stale settle
        -- the claim was reaped and re-claimed -- is refused with 409;
        the agent treats that as already-handled, because the re-run
        settles the same content-addressed result.
        """
        token = self._claim_token(body)
        state = body.get("state")
        if state not in ("done", "failed", "cancelled"):
            raise ServiceError(
                "state must be one of done/failed/cancelled", status=400)
        status = body.get("status")
        error = body.get("error")
        result = body.get("result")
        if state == "done" and result is not None:
            self.cache.put(key, result)
        spans = body.get("spans")
        if spans and current_tracer().enabled:
            # Prefixed by job key so two workers' span ids never collide.
            current_tracer().merge(spans, prefix=f"{key[:12]}:")
        if not settle_claim(self.store, analysis_id, key, state,
                            status=status, error=error, token=token):
            return 409, {
                "error": f"job {key[:12]} of analysis {analysis_id[:12]} "
                         "is not running under this claim; refusing to "
                         "settle it",
                "settled": False,
            }, {}
        metrics().counter("service.remote_settles").inc()
        return 200, {"settled": True, "state": state}, {}

    def claim_release(self, analysis_id: str, key: str,
                      body: dict) -> tuple[int, dict, dict]:
        """Hand an unstarted claim back to the queue (fenced).

        The remote drain path: the claim's attempt is refunded and the
        job requeues.  409 when the claim no longer owns the job.
        """
        token = self._claim_token(body)
        released = self.store.release(analysis_id, key, token=token)
        if not released:
            return 409, {
                "error": f"job {key[:12]} is not running under this "
                         "claim; nothing to release",
                "released": False,
            }, {}
        metrics().counter("service.claims_released").inc()
        return 200, {"released": True}, {}

    @staticmethod
    def _claim_token(body: dict) -> str:
        token = body.get("token")
        if not isinstance(token, str) or not token:
            raise ServiceError("the claim token is required", status=400)
        return token

    # -- worker registration --------------------------------------------

    def worker_register(self, body: dict,
                        client: str) -> tuple[int, dict, dict]:
        """Register a worker identity (idempotent upsert)."""
        worker_id = body.get("id") or client
        if not isinstance(worker_id, str) or not worker_id:
            raise ServiceError("worker id must be a non-empty string",
                               status=400)
        capacity = body.get("capacity", 1)
        if not isinstance(capacity, int) or isinstance(capacity, bool) \
                or capacity < 1:
            raise ServiceError("capacity must be a positive integer",
                               status=400)
        row = self.store.register_worker(
            worker_id, kind=str(body.get("kind", "remote")),
            host=body.get("host"), pid=body.get("pid"),
            capacity=capacity)
        self._fleet_gauges()
        return 201, row, {}

    def worker_list(self) -> tuple[int, dict, dict]:
        """The registered fleet with per-worker in-flight counts."""
        fleet = self._fleet_gauges()
        return 200, {"workers": fleet, "total": len(fleet)}, {}

    def worker_deregister(self, worker_id: str) -> tuple[int, dict, dict]:
        """Stamp a worker as drained; 404 for an unknown identity."""
        known = self.store.deregister_worker(worker_id)
        if not known:
            return 404, {"error": f"unknown worker {worker_id!r}"}, {}
        self._fleet_gauges()
        return 200, {"id": worker_id, "deregistered": True}, {}

    def _fleet_gauges(self) -> list[dict]:
        """Refresh the fleet gauges from store state; returns the fleet."""
        fleet = self.store.fleet()
        metrics().gauge("service.fleet_size").set(len(fleet))
        metrics().gauge("service.fleet_capacity").set(
            sum(worker["capacity"] for worker in fleet))
        metrics().gauge("service.fleet_inflight").set(
            sum(worker["inflight"] for worker in fleet))
        return fleet

    # -- health + metrics ----------------------------------------------

    def health(self) -> tuple[int, dict, dict]:
        counts = self.store.counts()
        depth = counts["queued"] + counts["running"]
        metrics().gauge("service.queue_depth").set(depth)
        fleet = self._fleet_gauges()
        return 200, {
            "ok": True,
            "uptime_seconds": time.time() - self.started_at,
            "queue_depth": depth,
            "counts": counts,
            "workers": (self.config.num_workers
                        if self.config.local_workers else 0),
            "max_queue_depth": self.config.max_queue_depth,
            "fleet": {
                "workers": len(fleet),
                "capacity": sum(w["capacity"] for w in fleet),
                "inflight": {w["id"]: w["inflight"] for w in fleet},
            },
        }, {}

    def metricz(self) -> tuple[int, dict, dict]:
        metrics().gauge("service.queue_depth").set(self.store.depth())
        self._fleet_gauges()
        return 200, metrics().snapshot(), {}


class _Handler(BaseHTTPRequestHandler):
    """Routes HTTP verbs/paths onto the :class:`AnalysisService`."""

    #: Set by make_server(); shared across handler instances.
    service: AnalysisService = None
    server_version = "repro-service/1"
    protocol_version = "HTTP/1.1"
    #: Idle and stall limit of one connection (socket timeout).
    timeout = IDLE_TIMEOUT_SECONDS
    #: Headers and body go out in two sends; without TCP_NODELAY the
    #: second waits on the client's delayed ACK on every kept-alive
    #: exchange.
    disable_nagle_algorithm = True

    # -- plumbing ------------------------------------------------------

    def setup(self) -> None:
        super().setup()
        self.service._opened(self.connection)

    def finish(self) -> None:
        try:
            super().finish()
        finally:
            self.service._closed(self.connection)

    def log_message(self, format, *args):  # noqa: A002 - stdlib name
        logger.debug("%s %s", self.address_string(), format % args)

    def _reply(self, status: int, body: dict, headers: dict) -> None:
        payload = json.dumps(body, sort_keys=True).encode("utf-8")
        self.send_response(status)
        if self._unread_body:
            # Its bytes are still in the stream and would be parsed as
            # the next request; this connection ends with this reply.
            self.send_header("Connection", "close")
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        for name, value in headers.items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(payload)

    def _client(self) -> str:
        return self.headers.get("X-Client", "anonymous")

    def _body(self, required: bool = True) -> dict:
        try:
            length = int(self.headers.get("Content-Length", 0))
        except ValueError as exc:
            raise ServiceError("Content-Length is not an integer",
                               status=400) from exc
        limit = self.service.config.max_body_bytes
        if length > limit:
            # Rejected before a single body byte is read: an advertised
            # Content-Length is not an invitation to buffer it.
            raise ServiceError(
                f"request body of {length} bytes exceeds the "
                f"{limit}-byte limit", status=413)
        raw = self.rfile.read(length) if length > 0 else b""
        self._unread_body = length < 0
        if not raw and not required:
            return {}
        if not raw:
            raise ServiceError("a JSON request body is required",
                               status=400)
        try:
            return json.loads(raw)
        except ValueError as exc:
            raise ServiceError(f"request body is not valid JSON: {exc}",
                               status=400) from exc

    def _handle(self, method: str) -> None:
        started = time.monotonic()
        status = 500
        # Whether the request declares a body no route has read (yet).
        self._unread_body = "Transfer-Encoding" in self.headers or \
            self.headers.get("Content-Length", "0").strip() != "0"
        try:
            status, body, headers = self._route(method)
            self._reply(status, body, headers)
        except ServiceError as exc:
            status = exc.status or 400
            self._reply(status, {"error": str(exc)}, {})
        except BrokenPipeError:
            pass
        except Exception as exc:
            logger.exception("unhandled error serving %s %s", method,
                             self.path)
            try:
                self._reply(500, {"error": f"internal error: {exc}"}, {})
            except OSError:
                pass
        finally:
            seconds = time.monotonic() - started
            metrics().counter("service.http_requests").inc()
            metrics().counter(f"service.http_{status}").inc()
            current_tracer().record(
                "http_request", seconds, method=method, path=self.path,
                status=status)

    def _route(self, method: str) -> tuple[int, dict, dict]:
        service = self.service
        path = self.path.split("?", 1)[0].rstrip("/")
        if method == "GET" and path == "/healthz":
            return service.health()
        if method == "GET" and path == "/metricz":
            return service.metricz()
        if path == "/v1/analyses":
            if method == "POST":
                return service.submit(self._body(), self._client())
            raise ServiceError("method not allowed", status=405)
        if path == "/v1/quarantine":
            if method == "GET":
                return service.quarantine()
            raise ServiceError("method not allowed", status=405)
        if path == "/v1/claims":
            if method == "POST":
                return service.claim_next(self._body(required=False),
                                          self._client())
            if method == "GET":
                return service.claim_list()
            raise ServiceError("method not allowed", status=405)
        if path.startswith("/v1/claims/"):
            parts = path[len("/v1/claims/"):].split("/")
            if len(parts) == 3 and all(parts) and method == "POST":
                analysis_id, key, action = parts
                if action == "heartbeat":
                    return service.claim_heartbeat(analysis_id, key,
                                                   self._body())
                if action == "settle":
                    return service.claim_settle(analysis_id, key,
                                                self._body())
                if action == "release":
                    return service.claim_release(analysis_id, key,
                                                 self._body())
        if path == "/v1/workers":
            if method == "POST":
                return service.worker_register(self._body(required=False),
                                               self._client())
            if method == "GET":
                return service.worker_list()
            raise ServiceError("method not allowed", status=405)
        if path.startswith("/v1/workers/"):
            worker_id = path[len("/v1/workers/"):]
            if worker_id and "/" not in worker_id and method == "DELETE":
                return service.worker_deregister(worker_id)
        if path.startswith("/v1/analyses/"):
            rest = path[len("/v1/analyses/"):]
            parts = rest.split("/")
            if len(parts) == 1 and parts[0]:
                if method == "GET":
                    return service.status(parts[0])
                if method == "DELETE":
                    return service.cancel(parts[0])
                raise ServiceError("method not allowed", status=405)
            if len(parts) == 2 and parts[0] and parts[1] == "result" \
                    and method == "GET":
                return service.result(parts[0])
            if len(parts) == 2 and parts[0] and parts[1] == "quarantine" \
                    and method == "GET":
                return service.quarantine(parts[0])
            if len(parts) == 2 and parts[0] and parts[1] == "retry" \
                    and method == "POST":
                return service.retry(parts[0])
        raise ServiceError(f"no route for {method} {self.path}",
                           status=404)

    # -- verbs ---------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        self._handle("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._handle("POST")

    def do_DELETE(self) -> None:  # noqa: N802
        self._handle("DELETE")


class _Server(ThreadingHTTPServer):
    """The service's HTTP server; ``shutdown()`` returns at once.

    The stdlib loop notices a shutdown only at its next ``select`` tick
    (0.5 s by default).  This loop also selects on a pipe that
    :meth:`shutdown` writes to, so it wakes as soon as it is asked to
    stop and never wakes while idle.  Handler threads are daemons;
    :meth:`AnalysisService.stop` ends their connections and joins them.
    """

    daemon_threads = True

    def __init__(self, address, handler):
        super().__init__(address, handler)
        self._wake_read, self._wake_write = os.pipe()
        self._stopping = False
        self._stopped = threading.Event()

    def serve_forever(self, poll_interval: float | None = None) -> None:
        self._stopped.clear()
        try:
            with selectors.DefaultSelector() as selector:
                selector.register(self, selectors.EVENT_READ)
                selector.register(self._wake_read, selectors.EVENT_READ)
                while not self._stopping:
                    ready = selector.select(poll_interval)
                    if self._stopping:
                        break
                    for key, _ in ready:
                        if key.fileobj is self:
                            self._handle_request_noblock()
                        else:
                            os.read(self._wake_read, 512)
                    self.service_actions()
        finally:
            self._stopping = False
            self._stopped.set()

    def shutdown(self) -> None:
        """Stop :meth:`serve_forever` and wait until it has returned."""
        self._stopping = True
        os.write(self._wake_write, b"\0")
        self._stopped.wait()

    def server_close(self) -> None:
        super().server_close()
        os.close(self._wake_read)
        os.close(self._wake_write)


def make_server(service: AnalysisService) -> ThreadingHTTPServer:
    """Bind the HTTP server for a service (``port=0`` = ephemeral)."""
    handler = type("BoundHandler", (_Handler,), {"service": service})
    return _Server((service.config.host, service.config.port), handler)


def write_state_file(service: AnalysisService,
                     server: ThreadingHTTPServer) -> Path:
    """Record the bound address (and pid) in ``<workdir>/service.json``.

    Written *after* the bind so ``port=0`` users (tests, smoke CI) can
    discover the ephemeral port by polling for this file.
    """
    host, port = server.server_address[0], server.server_address[1]
    state = {"host": host, "port": int(port), "pid": os.getpid(),
             "url": f"http://{host}:{port}"}
    path = Path(service.workdir) / "service.json"
    path.write_text(json.dumps(state, sort_keys=True))
    return path


def serve_forever(service: AnalysisService,
                  server: ThreadingHTTPServer) -> None:
    """Run the server until SIGINT/SIGTERM, then drain and stop.

    The signal handler only sets an event; the actual teardown --
    ``server.shutdown()`` then a draining ``service.stop()`` -- runs on
    the main thread, mirroring the executor's graceful-shutdown
    semantics (satellite: drain-on-stop).
    """
    import signal

    stop = threading.Event()

    def _on_signal(signum, frame):
        stop.set()

    previous = {}
    for signum in (signal.SIGINT, signal.SIGTERM):
        previous[signum] = signal.signal(signum, _on_signal)
    thread = threading.Thread(target=server.serve_forever,
                              name="repro-service-http", daemon=True)
    service.start()
    thread.start()
    try:
        stop.wait()
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
        server.shutdown()
        thread.join(timeout=5.0)
        server.server_close()
        service.stop(drain=True)
