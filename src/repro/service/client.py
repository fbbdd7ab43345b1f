"""A small stdlib client for the analysis service.

Speaks HTTP/1.1 through :mod:`http.client`, keeping one connection per
thread alive across requests, so CLI subcommands, tests, worker agents
and the CI smoke script all talk to the service the same way --
including the unhappy paths: 429 sheds surface as
:class:`~repro.exceptions.AdmissionError` carrying the server's
``Retry-After``, other HTTP errors as
:class:`~repro.exceptions.ServiceError` with the server's JSON error
message and status attached.

A kept-alive connection is reused only while it is sound: it was opened
in this process (a forked child opens its own), it has been idle for at
most :data:`MAX_IDLE_SECONDS`, and a zero-timeout poll finds nothing to
read on it -- an idle socket that polls readable was closed by the
peer (a restarted server, the server's idle timeout) or holds bytes
nobody asked for.  Otherwise it is closed and a fresh one is opened
*before* the request is sent, so a dead connection costs a reconnect,
not a retry.  :meth:`ServiceClient.close` (or a ``with`` block) closes
every connection the client holds.

Transient transport failures -- connection refused during a service
restart, a reset mid-poll, a response cut off after its headers -- are
:class:`~repro.exceptions.ServiceError` with no ``status``, and are
retried with bounded, deterministic jittered backoff, but only where a
replay is safe: idempotent GETs
(status/result/health polling) always, and ``submit`` explicitly,
because submissions are deduped by spec content hash (``spec_hash``)
so replaying one is a no-op on the second delivery.  Other POSTs and
DELETEs fail fast by default -- a replayed cancel or retry could act
on state the first delivery already changed.  Nothing is ever resent
behind the retry rules' back.  HTTP *error responses* are never
retried here; they are answers, not failures.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import select
import threading
import time
import urllib.parse
import weakref

from repro.exceptions import AdmissionError, ServiceError
from repro.resilience.faults import maybe_fire

#: A kept-alive connection idle longer than this is closed and reopened
#: rather than reused, well inside the server's idle timeout
#: (:data:`repro.service.api.IDLE_TIMEOUT_SECONDS`), so a request is not
#: sent down a connection the server is just then timing out.
MAX_IDLE_SECONDS = 20.0


class _Connection:
    """One thread's kept-alive connection; closed when the thread ends."""

    def __init__(self, conn: http.client.HTTPConnection):
        self.http = conn
        self.pid = os.getpid()
        self.idle_since = time.monotonic()

    def reusable(self) -> bool:
        """Open, from this process, not idle too long, and not closed
        by the peer: an idle socket that polls readable is at EOF or
        holds bytes no request asked for (urllib3's check)."""
        sock = self.http.sock
        if sock is None or self.pid != os.getpid() \
                or time.monotonic() - self.idle_since > MAX_IDLE_SECONDS:
            return False
        poller = select.poll()
        poller.register(sock, select.POLLIN)
        return not poller.poll(0)

    def close(self) -> None:
        # In a forked child this closes only the child's copy of the
        # descriptor; the parent's connection stays intact.
        self.http.close()

    __del__ = close


class ServiceClient:
    """Talks to one analysis service at ``base_url``.

    Each thread that makes a request keeps its own connection open for
    the next one; :meth:`close` (or leaving a ``with`` block) closes
    them all.

    Args:
        base_url: ``http://host:port`` of the service.
        client_id: Sent as ``X-Client`` (admission bookkeeping).
        timeout: Per-request timeout in seconds.
        retries: Transient-failure retry budget for requests whose
            replay is safe (idempotent GETs; ``submit`` via spec-hash
            dedup).  ``0`` disables retrying entirely.
        retry_backoff_seconds: Base backoff before the first retry;
            doubles per attempt with deterministic per-path jitter.
        retry_backoff_max_seconds: Backoff ceiling.
    """

    def __init__(self, base_url: str, client_id: str = "anonymous",
                 timeout: float = 30.0, retries: int = 2,
                 retry_backoff_seconds: float = 0.25,
                 retry_backoff_max_seconds: float = 5.0):
        self.base_url = base_url.rstrip("/")
        self.client_id = client_id
        self.timeout = timeout
        self.retries = max(0, int(retries))
        self.retry_backoff_seconds = retry_backoff_seconds
        self.retry_backoff_max_seconds = retry_backoff_max_seconds
        url = urllib.parse.urlsplit(self.base_url)
        if url.scheme not in ("http", "https") or not url.netloc:
            raise ValueError(
                f"service URL must look like http://host:port, got "
                f"{base_url!r}")
        self._connection_class = http.client.HTTPSConnection \
            if url.scheme == "https" else http.client.HTTPConnection
        self._netloc = url.netloc
        self._path_prefix = url.path
        self._local = threading.local()
        self._open_lock = threading.Lock()
        self._open: weakref.WeakSet[_Connection] = weakref.WeakSet()

    def close(self) -> None:
        """Close every connection this client holds (any thread's).

        The client stays usable: the next request reconnects.
        """
        with self._open_lock:
            held = list(self._open)
            self._open.clear()
        for connection in held:
            connection.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _backoff(self, attempt: int, key: str) -> float:
        """Deterministic jittered backoff before retry ``attempt``."""
        raw = self.retry_backoff_seconds * 2 ** (attempt - 1)
        digest = hashlib.sha256(f"{key}\0{attempt}".encode()).digest()
        raw *= 1.0 + 0.5 * (int.from_bytes(digest[:8], "big")
                            / float(1 << 64))
        return min(raw, self.retry_backoff_max_seconds)

    def _request(self, method: str, path: str,
                 body: dict | None = None,
                 idempotent: bool | None = None,
                 chaos: tuple[str, str] | None = None
                 ) -> tuple[int, dict, dict]:
        """One HTTP exchange, with transient retries when safe.

        ``idempotent=None`` derives the default: GETs are, everything
        else is not.  Callers whose replay is safe by construction
        (``submit``: spec-hash dedup; the fleet protocol: fenced
        claims) pass ``idempotent=True`` explicitly.

        ``chaos`` is an optional ``(site, key)`` fault site
        (:mod:`repro.resilience.faults`) fired before each attempt: a
        firing site drops that attempt before it reaches the wire, as
        a transport failure, so injected drops consume retry attempts
        exactly like real ones.
        """
        if idempotent is None:
            idempotent = method == "GET"
        budget = self.retries if idempotent else 0
        backoff_key = f"{method} {path}" if chaos is None \
            else f"{chaos[0]}:{chaos[1]}"
        attempt = 0
        while True:
            attempt += 1
            try:
                if chaos is not None and maybe_fire(
                        chaos[0], key=chaos[1], attempt=attempt):
                    raise ServiceError(
                        f"injected {chaos[0]} drop for {chaos[1][:12]} "
                        f"(attempt {attempt})")
                return self._request_once(method, path, body)
            except ServiceError as exc:
                transient = exc.status is None
                if not transient or attempt > budget:
                    raise
            time.sleep(self._backoff(attempt, key=backoff_key))

    def _connection(self) -> _Connection:
        """This thread's connection, reconnected unless reusable."""
        connection = getattr(self._local, "connection", None)
        if connection is not None:
            if connection.reusable():
                return connection
            connection.close()
        conn = self._connection_class(self._netloc, timeout=self.timeout)
        conn.connect()
        connection = self._local.connection = _Connection(conn)
        with self._open_lock:
            self._open.add(connection)
        return connection

    def _request_once(self, method: str, path: str,
                      body: dict | None = None) -> tuple[int, dict, dict]:
        data = None
        headers = {"X-Client": self.client_id}
        if body is not None:
            data = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        try:
            connection = self._connection()
        except OSError as exc:
            # No `status`: transport-level, the marker _request keys
            # retry decisions on.
            raise ServiceError(
                f"cannot reach service at {self.base_url}: {exc}") from exc
        try:
            connection.http.request(method, self._path_prefix + path,
                                    body=data, headers=headers)
            response = connection.http.getresponse()
            raw = response.read()
        except (OSError, http.client.HTTPException) as exc:
            # The connection broke after the request went out (a server
            # that died mid-response): transport-level too, and the
            # connection is beyond reuse.
            connection.close()
            raise ServiceError(
                f"lost the response from {self.base_url}: "
                f"{exc!r}") from exc
        connection.idle_since = time.monotonic()
        status, response_headers = response.status, dict(response.headers)
        if status < 400:
            return status, json.loads(raw or b"{}"), response_headers
        try:
            doc = json.loads(raw or b"{}")
        except ValueError:
            doc = {"error": raw.decode("utf-8", "replace")}
        return status, doc, response_headers

    def _raise_for(self, status: int, doc: dict, headers: dict) -> None:
        if status == 429:
            retry = doc.get("retry_after_seconds")
            if retry is None:
                try:
                    retry = float(headers.get("Retry-After", "") or 0) or None
                except ValueError:
                    retry = None
            raise AdmissionError(doc.get("error", "load shed"),
                                 retry_after=retry)
        if status >= 400:
            raise ServiceError(doc.get("error", f"HTTP {status}"),
                               status=status)

    def submit(self, spec_doc: dict, priority: int = 0,
               deadline_seconds: float | None = None) -> dict:
        """Submit a sweep spec; returns the accepted/deduped summary.

        Args:
            spec_doc: The ``sweep_spec`` document (embedded instances).
            priority: Larger numbers are claimed first.
            deadline_seconds: Optional end-to-end budget; jobs still
                queued past it fail fast with ``deadline_exceeded``,
                and running jobs get their wall timeout clamped to the
                remainder.
        """
        body = dict(spec_doc)
        if priority:
            body["priority"] = priority
        if deadline_seconds is not None:
            body["deadline_seconds"] = deadline_seconds
        # Replay-safe: a resubmission dedupes on the spec's content
        # hash, so retrying a submit whose response was lost returns
        # the already-accepted analysis.
        status, doc, headers = self._request("POST", "/v1/analyses", body,
                                             idempotent=True)
        self._raise_for(status, doc, headers)
        return doc

    def status(self, analysis_id: str) -> dict:
        status, doc, headers = self._request(
            "GET", f"/v1/analyses/{analysis_id}")
        self._raise_for(status, doc, headers)
        return doc

    def result(self, analysis_id: str) -> dict | None:
        """The results document, or ``None`` while still in progress."""
        status, doc, headers = self._request(
            "GET", f"/v1/analyses/{analysis_id}/result")
        if status == 202:
            return None
        if status == 410:
            # Gone: every computed result was evicted.  The tombstone
            # document still describes the analysis.
            return doc
        self._raise_for(status, doc, headers)
        return doc

    def wait(self, analysis_id: str, timeout: float = 300.0,
             poll_interval: float = 0.25) -> dict:
        """Poll until the analysis finishes; returns its results doc."""
        deadline = time.monotonic() + timeout
        while True:
            doc = self.result(analysis_id)
            if doc is not None:
                return doc
            if time.monotonic() >= deadline:
                raise ServiceError(
                    f"analysis {analysis_id} did not finish within "
                    f"{timeout:g}s")
            time.sleep(poll_interval)

    def cancel(self, analysis_id: str) -> dict:
        """Cancel an analysis (queued jobs now, running cooperatively).

        Raises:
            ServiceError: With ``status`` 404 for an unknown analysis,
                409 when every job is already terminal.
        """
        status, doc, headers = self._request(
            "DELETE", f"/v1/analyses/{analysis_id}")
        self._raise_for(status, doc, headers)
        return doc

    def quarantine(self, analysis_id: str | None = None) -> dict:
        """Quarantined jobs -- all of them, or one analysis's."""
        path = "/v1/quarantine" if analysis_id is None \
            else f"/v1/analyses/{analysis_id}/quarantine"
        status, doc, headers = self._request("GET", path)
        self._raise_for(status, doc, headers)
        return doc

    def retry(self, analysis_id: str) -> dict:
        """Requeue an analysis's quarantined jobs (fresh attempts)."""
        status, doc, headers = self._request(
            "POST", f"/v1/analyses/{analysis_id}/retry")
        self._raise_for(status, doc, headers)
        return doc

    def health(self) -> dict:
        status, doc, headers = self._request("GET", "/healthz")
        self._raise_for(status, doc, headers)
        return doc

    def metrics(self) -> dict:
        status, doc, headers = self._request("GET", "/metricz")
        self._raise_for(status, doc, headers)
        return doc
