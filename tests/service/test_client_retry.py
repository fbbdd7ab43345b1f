"""Client transport retries: bounded, jittered, and replay-safe only."""

import socket
import threading

import pytest

from repro.exceptions import ServiceError
from repro.service.client import ServiceClient


class FlakyClient(ServiceClient):
    """Counts requests; fails the first ``failures`` with no status."""

    def __init__(self, failures: int, status: int = 200, doc=None,
                 **kwargs):
        kwargs.setdefault("retry_backoff_seconds", 0.001)
        kwargs.setdefault("retry_backoff_max_seconds", 0.002)
        super().__init__("http://example.invalid", **kwargs)
        self.failures = failures
        self.calls = 0
        self._status = status
        self._doc = doc or {"ok": True}

    def _request_once(self, method, path, body=None):
        self.calls += 1
        if self.calls <= self.failures:
            raise ServiceError("connection refused")  # no status
        return self._status, dict(self._doc), {}


class TestTransientRetries:
    def test_get_retries_transient_failures(self):
        client = FlakyClient(failures=2, retries=2)
        status, doc, _ = client._request("GET", "/healthz")
        assert status == 200 and doc == {"ok": True}
        assert client.calls == 3

    def test_budget_exhausted_raises_the_transport_error(self):
        client = FlakyClient(failures=5, retries=2)
        with pytest.raises(ServiceError) as err:
            client._request("GET", "/healthz")
        assert err.value.status is None
        assert client.calls == 3  # initial try + 2 retries

    def test_non_idempotent_post_fails_fast(self):
        client = FlakyClient(failures=1, retries=3)
        with pytest.raises(ServiceError):
            client._request("POST", "/v1/analyses/x/retry")
        assert client.calls == 1

    def test_submit_is_replay_safe_and_retries(self):
        # Submissions dedupe on the spec content hash, so the POST is
        # explicitly marked idempotent and rides the retry budget.
        client = FlakyClient(failures=1, retries=2, status=201,
                             doc={"id": "a1", "total_jobs": 1})
        doc = client.submit({"kind": "sweep_spec"})
        assert doc["id"] == "a1"
        assert client.calls == 2

    def test_http_errors_are_answers_not_failures(self):
        # A 500 response reaches _raise_for untouched: the server
        # answered, and replaying an answered request is not ours to
        # decide here.
        client = FlakyClient(failures=0, status=500,
                             doc={"error": "boom"}, retries=3)
        with pytest.raises(ServiceError) as err:
            client.health()
        assert err.value.status == 500
        assert client.calls == 1

    def test_zero_budget_disables_retrying(self):
        client = FlakyClient(failures=1, retries=0)
        with pytest.raises(ServiceError):
            client._request("GET", "/healthz")
        assert client.calls == 1


def cut_off_server(responses: int) -> tuple[str, threading.Thread]:
    """A localhost server that answers ``responses`` requests with
    headers promising more body than it sends, then hangs up."""
    listener = socket.create_server(("127.0.0.1", 0))

    def serve():
        with listener:
            for _ in range(responses):
                conn, _ = listener.accept()
                with conn:
                    conn.recv(65536)
                    conn.sendall(b"HTTP/1.1 201 Created\r\n"
                                 b"Content-Type: application/json\r\n"
                                 b"Content-Length: 200\r\n\r\n{\"id\"")

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    host, port = listener.getsockname()
    return f"http://{host}:{port}", thread


class TestCutOffResponse:
    def test_cut_off_response_is_a_transport_error(self):
        url, server = cut_off_server(responses=1)
        client = ServiceClient(url, retries=0)
        with pytest.raises(ServiceError) as err:
            client.submit({"kind": "sweep_spec"})
        assert err.value.status is None
        server.join(timeout=10)

    def test_cut_off_submit_is_retried(self):
        url, server = cut_off_server(responses=2)
        client = ServiceClient(url, retries=1, retry_backoff_seconds=0.001,
                               retry_backoff_max_seconds=0.002)
        with pytest.raises(ServiceError) as err:
            client.submit({"kind": "sweep_spec"})
        assert err.value.status is None
        # Both responses were read: the second came from the retry.
        server.join(timeout=10)
        assert not server.is_alive()


class TestReadTimeout:
    def test_silent_server_is_a_transport_error(self):
        """Regression: a read timeout escaped as a bare TimeoutError,
        which a claim slot's loop does not catch."""
        listener = socket.create_server(("127.0.0.1", 0))
        with listener:
            host, port = listener.getsockname()
            client = ServiceClient(f"http://{host}:{port}", timeout=0.2,
                                   retries=0)
            with pytest.raises(ServiceError) as err:
                client.health()  # accepted by the backlog, never answered
            assert err.value.status is None


class TestBackoff:
    def test_backoff_is_deterministic_doubling_and_capped(self):
        client = ServiceClient("http://example.invalid",
                               retry_backoff_seconds=0.25,
                               retry_backoff_max_seconds=1.0)
        first = client._backoff(1, key="GET /x")
        again = client._backoff(1, key="GET /x")
        assert first == again  # pure function of (key, attempt)
        second = client._backoff(2, key="GET /x")
        assert second > first
        assert client._backoff(10, key="GET /x") == 1.0  # capped
        # Jitter keys on the path, so different endpoints desynchronize.
        assert client._backoff(1, key="GET /y") != first


class TestBaseUrl:
    @pytest.mark.parametrize("url", ["localhost:8080", "ftp://host:1",
                                     "http://"])
    def test_a_url_without_http_host_is_refused_up_front(self, url):
        with pytest.raises(ValueError):
            ServiceClient(url)
