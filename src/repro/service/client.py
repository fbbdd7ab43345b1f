"""A small stdlib client for the analysis service.

Wraps ``urllib`` so CLI subcommands, tests, and the CI smoke script all
talk to the service the same way -- including the unhappy paths: 429
sheds surface as :class:`~repro.exceptions.AdmissionError` carrying the
server's ``Retry-After``, other HTTP errors as
:class:`~repro.exceptions.ServiceError` with the server's JSON error
message and status attached.

Transient transport failures -- connection refused during a service
restart, a reset mid-poll, a response cut off after its headers -- are
:class:`~repro.exceptions.ServiceError` with no ``status``, and are
retried with bounded, deterministic jittered backoff, but only where a
replay is safe: idempotent GETs
(status/result/health polling) always, and ``submit`` explicitly,
because submissions are deduped by spec content hash (``spec_hash``)
so replaying one is a no-op on the second delivery.  Other POSTs and
DELETEs fail fast by default -- a replayed cancel or retry could act
on state the first delivery already changed.  HTTP *error responses*
are never retried here; they are answers, not failures.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import time
import urllib.error
import urllib.request

from repro.exceptions import AdmissionError, ServiceError


class ServiceClient:
    """Talks to one analysis service at ``base_url``.

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

    def _backoff(self, attempt: int, key: str) -> float:
        """Deterministic jittered backoff before retry ``attempt``."""
        raw = self.retry_backoff_seconds * 2 ** (attempt - 1)
        digest = hashlib.sha256(f"{key}\0{attempt}".encode()).digest()
        raw *= 1.0 + 0.5 * (int.from_bytes(digest[:8], "big")
                            / float(1 << 64))
        return min(raw, self.retry_backoff_max_seconds)

    def _request(self, method: str, path: str,
                 body: dict | None = None,
                 idempotent: bool | None = None
                 ) -> tuple[int, dict, dict]:
        """One HTTP exchange, with transient retries when safe.

        ``idempotent=None`` derives the default: GETs are, everything
        else is not.  Callers whose replay is safe by construction
        (``submit``: spec-hash dedup; the fleet protocol: fenced
        claims) pass ``idempotent=True`` explicitly.
        """
        if idempotent is None:
            idempotent = method == "GET"
        budget = self.retries if idempotent else 0
        attempt = 0
        while True:
            attempt += 1
            try:
                return self._request_once(method, path, body)
            except ServiceError as exc:
                transient = exc.status is None
                if not transient or attempt > budget:
                    raise
            time.sleep(self._backoff(attempt, key=f"{method} {path}"))

    def _request_once(self, method: str, path: str,
                      body: dict | None = None) -> tuple[int, dict, dict]:
        data = None
        headers = {"X-Client": self.client_id}
        if body is not None:
            data = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        request = urllib.request.Request(
            self.base_url + path, data=data, headers=headers,
            method=method)
        try:
            with urllib.request.urlopen(request,
                                        timeout=self.timeout) as response:
                return (response.status,
                        json.loads(response.read() or b"{}"),
                        dict(response.headers))
        except urllib.error.HTTPError as exc:
            raw = exc.read()
            try:
                doc = json.loads(raw or b"{}")
            except ValueError:
                doc = {"error": raw.decode("utf-8", "replace")}
            return exc.code, doc, dict(exc.headers or {})
        except urllib.error.URLError as exc:
            # No `status`: transport-level, the marker _request keys
            # retry decisions on.
            raise ServiceError(
                f"cannot reach service at {self.base_url}: "
                f"{exc.reason}") from exc
        except (http.client.HTTPException, ConnectionError) as exc:
            # The connection broke after the request went out (a server
            # that died mid-response): transport-level too.
            raise ServiceError(
                f"lost the response from {self.base_url}: "
                f"{exc!r}") from exc

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
