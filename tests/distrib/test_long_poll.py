"""Remote agents: the claim long-poll wakes them, and their slots keep
warm worker processes that a drain shuts down."""

import multiprocessing
import threading
import time

import pytest

from repro.core.config import DistribConfig, ServiceConfig
from repro.distrib.worker import WorkerAgent
from repro.service.api import AnalysisService, make_server
from repro.service.client import ServiceClient
from tests.service._specs import echo_spec

PID_TASK = "tests.runner._workers:pid_task"


@pytest.fixture
def coordinator(tmp_path):
    """A pure coordinator (no local workers) on an ephemeral port."""
    config = ServiceConfig(port=0, num_workers=1, isolate_jobs=False,
                           local_workers=False, poll_interval_seconds=0.02)
    service = AnalysisService(tmp_path / "svc", config=config)
    server = make_server(service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[0], server.server_address[1]
    service.base_url = f"http://{host}:{port}"
    service.start()
    yield service
    server.shutdown()
    thread.join(timeout=5)
    service.stop(drain=False)


def make_agent(coordinator, poll_seconds: float) -> WorkerAgent:
    return WorkerAgent(
        coordinator.base_url,
        config=DistribConfig(num_workers=1,
                             poll_interval_seconds=poll_seconds,
                             retry_backoff_seconds=0.01,
                             retry_backoff_max_seconds=0.05),
        worker_id="long-poller", isolate_jobs=True)


def children() -> set[int]:
    return {child.pid for child in multiprocessing.active_children()}


def pid_spec(values) -> dict:
    return dict(echo_spec(values, name="pids"), task=PID_TASK)


def test_idle_agent_claims_a_new_job_at_once(coordinator):
    # A 5s poll interval: only the long-poll's wake-up meets the bound.
    agent = make_agent(coordinator, poll_seconds=5.0)
    client = ServiceClient(coordinator.base_url, client_id="test")
    agent.start()
    try:
        time.sleep(0.3)  # the slot's claim is parked at the coordinator
        submitted_at = time.time()
        accepted = client.submit(echo_spec([1], name="wake"))
        client.wait(accepted["id"], timeout=30, poll_interval=0.02)
        claimed_at = min(
            t["at"] for t in coordinator.store.transitions(accepted["id"])
            if t["to_state"] == "running")
        assert claimed_at - submitted_at < 0.5
    finally:
        agent.stop()
    assert agent.counts == {"done": 1}


def test_agent_reuses_its_worker_and_drains_it(coordinator):
    existing = children()
    agent = make_agent(coordinator, poll_seconds=0.05)
    client = ServiceClient(coordinator.base_url, client_id="test")
    agent.start()
    try:
        pids = []
        for value in (1, 2):
            accepted = client.submit(
                dict(pid_spec([value]), name=f"pid-{value}"))
            results = client.wait(accepted["id"], timeout=30,
                                  poll_interval=0.02)
            pids.append(results["jobs"][0]["result"]["pid"])
        assert pids[0] == pids[1]
        assert pids[0] in children() - existing
    finally:
        agent.stop()
    assert not children() - existing
