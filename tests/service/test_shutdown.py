"""Stopping the HTTP server and the service does not wait on timers.

``ThreadingHTTPServer.shutdown`` notices a stop only at the next tick
of its ``select`` loop, and a kept-alive connection's handler thread
would sit out its idle timeout.  The service's server wakes at once,
and ``AnalysisService.stop`` ends every connection and joins its
handler before the store closes.
"""

import http.client
import json
import threading
import time

import pytest

from repro.core.config import ServiceConfig
from repro.service import AnalysisService, make_server


def healthy(connection: http.client.HTTPConnection) -> bool:
    """One ``/healthz`` exchange on a kept-alive connection."""
    connection.request("GET", "/healthz")
    return json.loads(connection.getresponse().read())["ok"]


@pytest.fixture
def served(tmp_path):
    """A service (workers not started) behind a serving HTTP server."""
    before = set(threading.enumerate())
    service = AnalysisService(tmp_path / "svc", config=ServiceConfig(
        port=0, num_workers=1, isolate_jobs=False, local_workers=False))
    server = make_server(service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    yield service, server, thread, (host, port), before
    if thread.is_alive():
        server.shutdown()
        server.server_close()
        service.stop(drain=False)


def timed_shutdown(server, thread) -> float:
    start = time.monotonic()
    server.shutdown()
    elapsed = time.monotonic() - start
    thread.join(timeout=1.0)
    assert not thread.is_alive()
    server.server_close()
    return elapsed


def test_an_idle_server_shuts_down_at_once(served):
    service, server, thread, _, _ = served
    time.sleep(0.2)  # idle inside its select
    assert timed_shutdown(server, thread) < 0.1
    service.stop(drain=False)


def test_no_handler_thread_outlives_stop(served):
    service, server, thread, address, before = served
    connections = [http.client.HTTPConnection(*address, timeout=10)
                   for _ in range(3)]
    assert all(healthy(connection) for connection in connections)
    handlers = [t for t in threading.enumerate()
                if t not in before and t is not thread]
    # Each connection is kept alive, and a handler thread serves it.
    assert len(handlers) == len(connections)
    assert timed_shutdown(server, thread) < 0.1
    start = time.monotonic()
    service.stop(drain=False)
    assert time.monotonic() - start < 1.0
    assert [t for t in handlers if t.is_alive()] == []
    for connection in connections:
        connection.close()


def test_a_restarted_loop_still_serves(served):
    service, server, thread, address, _ = served
    server.shutdown()
    thread.join(timeout=1.0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    connection = http.client.HTTPConnection(*address, timeout=10)
    assert healthy(connection)
    connection.close()
    assert timed_shutdown(server, thread) < 0.1
    service.stop(drain=False)
