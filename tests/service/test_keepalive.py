"""Kept-alive client connections, the server's side of them, and the
keys and params a job carries across them."""

import json
import os
import socket
import sys
import threading
import time
from http.server import ThreadingHTTPServer

import pytest

from repro.cli import main
from repro.core.config import DistribConfig, ServiceConfig
from repro.distrib.worker import WorkerAgent
from repro.exceptions import ServiceError
from repro.runner import jobs as jobs_module
from repro.runner.cache import job_key
from repro.service import api
from repro.service.api import AnalysisService
from repro.service.client import ServiceClient
from tests.service._specs import echo_spec


class CountingServer(ThreadingHTTPServer):
    """The service's HTTP server, counting the connections it accepts
    and the requests it routes."""

    daemon_threads = True

    def __init__(self, address, service):
        handler = type("CountingHandler", (api._Handler,), {
            "service": service, "_route": self._routed})
        super().__init__(address, handler)
        self.accepted = 0
        self.connections: list[socket.socket] = []
        self.requests: list[tuple[str, str]] = []

    @staticmethod
    def _routed(handler, method):
        handler.server.requests.append((method, handler.path))
        return api._Handler._route(handler, method)

    def get_request(self):
        conn, address = super().get_request()
        self.accepted += 1
        self.connections.append(conn)
        return conn, address

    def kill(self) -> None:
        """Stop as a dead process would: every connection torn down."""
        self.shutdown()
        self.server_close()
        for conn in self.connections:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass


def start(service, address=("127.0.0.1", 0)) -> CountingServer:
    server = CountingServer(address, service)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    host, port = server.server_address[:2]
    server.url = f"http://{host}:{port}"
    return server


def make_service(workdir, **overrides) -> AnalysisService:
    config = dict(port=0, num_workers=1, isolate_jobs=False,
                  local_workers=False, poll_interval_seconds=0.02)
    config.update(overrides)
    return AnalysisService(workdir, config=ServiceConfig(**config))


@pytest.fixture
def served(tmp_path):
    service = make_service(tmp_path / "svc")
    server = start(service)
    yield service, server
    server.kill()
    service.stop(drain=False)


def read_until_eof(sock: socket.socket, timeout: float = 5.0) -> bytes:
    sock.settimeout(timeout)
    chunks = []
    while True:
        chunk = sock.recv(65536)
        if not chunk:
            return b"".join(chunks)
        chunks.append(chunk)


class TestReuse:
    def test_sequential_requests_share_one_connection(self, served):
        _, server = served
        client = ServiceClient(server.url)
        accepted = client.submit(echo_spec([1, 2]))
        for _ in range(10):
            client.health()
            client.status(accepted["id"])
        assert client.result(accepted["id"]) is None  # still queued
        assert len(server.requests) == 22
        assert server.accepted == 1

    def test_each_thread_keeps_its_own_connection(self, served):
        _, server = served
        client = ServiceClient(server.url)
        answered = []

        def ask():
            for _ in range(10):
                answered.append(client.health()["ok"])

        threads = [threading.Thread(target=ask) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert answered == [True] * 80
        assert server.accepted == 8
        assert len(server.requests) == 80

    def test_kept_alive_round_trips_do_not_stall(self, served):
        # Headers and body leave the server in two sends; with Nagle on,
        # each reply waits for the client's delayed ACK (~40 ms here).
        _, server = served
        client = ServiceClient(server.url)
        spec = echo_spec([1])
        client.submit(spec)
        started = time.perf_counter()
        for _ in range(50):
            assert client.submit(spec)["deduped"] is True
        assert time.perf_counter() - started < 1.0
        assert server.accepted == 1

    def test_server_restart_between_non_idempotent_requests(self, tmp_path):
        workdir = tmp_path / "svc"
        service = make_service(workdir)
        server = start(service)
        client = ServiceClient(server.url, retries=0)
        first = client.submit(echo_spec([1], name="first"))["id"]
        second = client.submit(echo_spec([2], name="second"))["id"]
        assert client.cancel(first)["cancelled"] == 1
        address = server.server_address
        server.kill()
        service.stop(drain=False)

        service = make_service(workdir)
        restarted = start(service, address)
        try:
            # retries=0 and a DELETE: a send down the dead connection
            # would fail outright.  The stale check catches it first.
            assert client.cancel(second)["cancelled"] == 1
            assert restarted.requests == [
                ("DELETE", f"/v1/analyses/{second}")]
            assert restarted.accepted == 1
        finally:
            restarted.kill()
            service.stop(drain=False)

    def test_lost_response_is_never_resent(self, served):
        # A reply cut off mid-stream: a DELETE is not replayed, even
        # though the client's retry budget is not spent.
        _, server = served
        client = ServiceClient(server.url, retries=3,
                               retry_backoff_seconds=0.001)
        analysis = client.submit(echo_spec([1]))["id"]

        def cut(handler, method):
            handler.server.requests.append((method, handler.path))
            handler.connection.shutdown(socket.SHUT_RDWR)
            raise BrokenPipeError

        server.RequestHandlerClass._route = cut
        with pytest.raises(ServiceError) as err:
            client.cancel(analysis)
        assert err.value.status is None
        assert server.requests.count(
            ("DELETE", f"/v1/analyses/{analysis}")) == 1


class TestLifecycle:
    def test_close_closes_every_threads_connection(self, served):
        _, server = served
        client = ServiceClient(server.url)
        asked, release = threading.Event(), threading.Event()

        def other_thread():
            client.health()
            asked.set()
            release.wait(10)

        worker = threading.Thread(target=other_thread)
        worker.start()
        asked.wait(10)
        client.health()
        held = list(client._open)
        assert len(held) == 2
        client.close()
        release.set()
        worker.join()
        assert all(connection.http.sock is None for connection in held)
        client.health()  # still usable: reconnects
        assert server.accepted == 3

    def test_a_finished_threads_connection_is_closed(self, served):
        _, server = served
        client = ServiceClient(server.url)
        worker = threading.Thread(target=client.health)
        worker.start()
        worker.join()
        # The thread's connection went with it: nothing is left open.
        assert not list(client._open)

    def test_context_manager_closes(self, served):
        _, server = served
        with ServiceClient(server.url) as client:
            client.health()
            [connection] = list(client._open)
        assert connection.http.sock is None

    def test_idle_timeout_frees_an_abandoned_connection(self, served,
                                                        monkeypatch):
        _, server = served
        monkeypatch.setattr(api._Handler, "timeout", 0.2)
        with socket.create_connection(server.server_address[:2]) as sock:
            started = time.monotonic()
            assert read_until_eof(sock) == b""
            assert time.monotonic() - started < 4.0
        # A client whose connection the server timed out reconnects
        # before its next request instead of failing it.
        client = ServiceClient(server.url, retries=0)
        client.health()
        time.sleep(0.6)
        client.health()
        assert server.accepted == 3

    def test_forked_child_never_uses_the_parents_connection(self, served):
        _, server = served
        client = ServiceClient(server.url)
        client.health()
        pid = os.fork()
        if pid == 0:  # the child
            code = 1
            try:
                client.health()
                code = 0
            finally:
                os._exit(code)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        assert server.accepted == 2
        client.health()  # the parent's connection is intact
        assert server.accepted == 2
        assert len(server.requests) == 3

    def test_cli_client_closes_its_connection(self, served, monkeypatch,
                                              capsys):
        _, server = served
        closed = []
        close = ServiceClient.close
        monkeypatch.setattr(ServiceClient, "close",
                            lambda self: (closed.append(self), close(self)))
        assert main(["client", "health", "--url", server.url]) == 0
        assert json.loads(capsys.readouterr().out)["ok"] is True
        assert len(closed) == 1

    def test_worker_agent_drain_closes_its_client(self, served):
        _, server = served
        agent = WorkerAgent(server.url, config=DistribConfig(num_workers=1),
                            worker_id="closer", isolate_jobs=False)
        agent.start()
        agent.stop()
        assert not list(agent.client._open)
        assert ("DELETE", "/v1/workers/closer") in server.requests


class TestUnreadBody:
    def exchange(self, server, head: bytes, body: bytes) -> bytes:
        with socket.create_connection(server.server_address[:2]) as sock:
            sock.sendall(head + body
                         + b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
            return read_until_eof(sock)

    def test_oversized_body_closes_the_connection(self, tmp_path):
        """Regression: the unread body of a 413 was parsed as the next
        request on the connection, so the GET behind it got an HTML
        ``400 Bad request syntax`` instead of its answer."""
        service = make_service(tmp_path / "svc", max_body_bytes=100)
        server = start(service)
        try:
            body = json.dumps(echo_spec(range(40))).encode()
            assert len(body) > 100
            reply = self.exchange(
                server, b"POST /v1/analyses HTTP/1.1\r\nHost: x\r\n"
                b"Content-Length: %d\r\n\r\n" % len(body), body)
            assert reply.startswith(b"HTTP/1.1 413")
            assert reply.count(b"HTTP/1.1 ") == 1
            assert b"Connection: close" in reply
            # A kept-alive client that hit the 413 carries on.
            with ServiceClient(server.url) as client:
                with pytest.raises(ServiceError) as err:
                    client.submit(echo_spec(range(40)))
                assert err.value.status == 413
                assert client.health()["ok"] is True
        finally:
            server.kill()
            service.stop(drain=False)

    def test_bad_content_length_closes_the_connection(self, served):
        _, server = served
        reply = self.exchange(
            server, b"POST /v1/analyses HTTP/1.1\r\nHost: x\r\n"
            b"Content-Length: many\r\n\r\n", b'{"a": 1}')
        assert reply.startswith(b"HTTP/1.1 400")
        assert reply.count(b"HTTP/1.1 ") == 1
        assert b"Connection: close" in reply

    def test_body_a_route_ignores_closes_the_connection(self, served):
        _, server = served
        reply = self.exchange(
            server, b"POST /v1/analyses/nope/retry HTTP/1.1\r\nHost: x\r\n"
            b"Content-Length: 8\r\n\r\n", b'{"a": 1}')
        assert reply.startswith(b"HTTP/1.1 404")
        assert reply.count(b"HTTP/1.1 ") == 1

    def test_read_body_keeps_the_connection(self, served):
        _, server = served
        with socket.create_connection(server.server_address[:2]) as sock:
            body = json.dumps({"id": "w1"}).encode()
            sock.sendall(b"POST /v1/workers HTTP/1.1\r\nHost: x\r\n"
                         b"Content-Length: %d\r\n\r\n" % len(body) + body
                         + b"GET /healthz HTTP/1.1\r\nHost: x\r\n"
                         b"Connection: close\r\n\r\n")
            reply = read_until_eof(sock)
        assert reply.startswith(b"HTTP/1.1 201")
        assert reply.count(b"HTTP/1.1 200") == 1


class TestKeys:
    def test_claimed_key_is_the_payloads_job_key(self, served):
        service, server = served
        ServiceClient(server.url).submit(echo_spec([0.1, -0.0, "é"]))
        local = service.scheduler.runner.transport
        claimed = [local.claim(30.0)]
        agent = WorkerAgent(server.url, worker_id="keys",
                            isolate_jobs=False)
        claimed += [agent.client.claim(30.0), agent.client.claim(30.0)]
        assert len({claim["key"] for claim in claimed}) == 3
        for claim in claimed:
            assert claim["key"] == job_key(claim["payload"])

    def test_result_params_round_trip_bit_for_bit(self, served):
        service, server = served
        client = ServiceClient(server.url)
        spec = echo_spec([1])
        spec["base"] = {"a": 0.1, "b": 1e-300, "c": -0.0, "d": "é",
                        "e": 12345678901234567890, "f": [1.5, None]}
        accepted = client.submit(spec)
        service.scheduler.runner.run_until_idle()
        [job] = client.result(accepted["id"])["jobs"]
        expected = {**spec["base"], "value": 1}
        assert json.dumps(job["params"], sort_keys=True) \
            == json.dumps(expected, sort_keys=True)
        assert job["key"] == job_key({"task": spec["task"],
                                      "instance": spec["instance"],
                                      "params": expected})

    def test_claimed_job_is_not_hashed_again(self, served, monkeypatch):
        service, server = served
        accepted = ServiceClient(server.url).submit(echo_spec([1, 2]))
        hashed = []
        monkeypatch.setattr(jobs_module, "job_key",
                            lambda payload: hashed.append(payload))
        assert service.scheduler.runner.run_until_idle() == 2
        assert service.store.analysis_status(
            accepted["id"])["counts"]["done"] == 2
        assert hashed == []
