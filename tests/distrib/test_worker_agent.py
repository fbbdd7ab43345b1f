"""The remote worker agent: execution, cancel, fencing, chaos, drain."""

import threading
import time

import pytest

from repro.core.config import DistribConfig, ServiceConfig, SupervisionConfig
from repro.distrib.worker import WorkerAgent
from repro.resilience.faults import FaultPlan, FaultPoint, injected
from repro.service.api import AnalysisService, make_server
from repro.service.client import ServiceClient
from tests.service._specs import echo_spec, sleep_spec


@pytest.fixture
def coordinator(tmp_path):
    """A pure coordinator on an ephemeral port."""
    config = ServiceConfig(port=0, num_workers=1, isolate_jobs=False,
                           local_workers=False,
                           poll_interval_seconds=0.02)
    service = AnalysisService(tmp_path / "svc", config=config)
    server = make_server(service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[0], server.server_address[1]
    service.base_url = f"http://{host}:{port}"
    yield service
    server.shutdown()
    thread.join(timeout=5)
    service.stop(drain=False)


def make_agent(coordinator, isolate_jobs=False, **overrides):
    defaults = dict(num_workers=1, poll_interval_seconds=0.05,
                    retry_backoff_seconds=0.01,
                    retry_backoff_max_seconds=0.05)
    defaults.update(overrides)
    lease = {knob: defaults.pop(knob) for knob in
             ("lease_seconds", "heartbeat_interval_seconds")
             if knob in defaults}
    return WorkerAgent(coordinator.base_url,
                       config=DistribConfig(**defaults),
                       supervision=SupervisionConfig(**lease),
                       worker_id="agent-under-test",
                       isolate_jobs=isolate_jobs)


class TestExecution:
    def test_agent_drains_the_queue(self, coordinator):
        client = ServiceClient(coordinator.base_url, client_id="test")
        accepted = client.submit(echo_spec([1, 2, 3]))
        agent = make_agent(coordinator)
        agent.client.register(capacity=1)
        assert agent.run_until_idle() == 3
        assert agent.counts == {"done": 3}
        results = client.result(accepted["id"])
        assert sorted(j["result"]["echo"] for j in results["jobs"]) \
            == [1, 2, 3]

    def test_task_failures_settle_failed_not_crash(self, coordinator):
        client = ServiceClient(coordinator.base_url, client_id="test")
        spec = echo_spec([1], name="boom")
        spec["task"] = "tests.runner._workers:error_task"
        accepted = client.submit(spec)
        agent = make_agent(coordinator)
        assert agent.run_until_idle() == 1
        assert agent.counts == {"failed": 1}
        job = client.result(accepted["id"])["jobs"][0]
        assert job["state"] == "failed"
        assert "injected failure" in job["error"]

    def test_threaded_start_and_graceful_stop(self, coordinator):
        client = ServiceClient(coordinator.base_url, client_id="test")
        accepted = client.submit(echo_spec([1, 2, 3, 4], name="threads"))
        agent = make_agent(coordinator, num_workers=2,
                           drain_timeout_seconds=10.0)
        agent.start()
        try:
            results = client.wait(accepted["id"], timeout=30)
        finally:
            agent.stop(drain=True)
        assert results["counts"]["done"] == 4
        # A clean drain deregisters: the fleet listing empties out.
        assert coordinator.store.fleet() == []


class TestCancel:
    def test_remote_cancel_lands_within_a_heartbeat(self, coordinator):
        client = ServiceClient(coordinator.base_url, client_id="test")
        accepted = client.submit(sleep_spec(10.0, [1], name="cancelme"))
        # Pool isolation: the executor polls the cancel check while the
        # sleeping future is in flight (the serial path cannot be
        # interrupted mid-task).
        agent = make_agent(coordinator, isolate_jobs=True,
                           lease_seconds=5.0,
                           heartbeat_interval_seconds=0.05,
                           drain_timeout_seconds=10.0)
        agent.start()
        try:
            deadline = time.monotonic() + 10
            while client.status(accepted["id"])["counts"]["running"] == 0:
                assert time.monotonic() < deadline
                time.sleep(0.02)
            client.cancel(accepted["id"])
            results = client.wait(accepted["id"], timeout=20)
        finally:
            agent.stop(drain=True)
        assert results["counts"]["cancelled"] == 1
        assert agent.counts == {"cancelled": 1}


class TestFencing:
    def test_reaped_claim_is_discarded_and_rerun_settles(self, coordinator):
        client = ServiceClient(coordinator.base_url, client_id="test")
        accepted = client.submit(sleep_spec(0.5, [1], name="reapme"))
        # Lease far shorter than the job, heartbeats effectively off:
        # the reaper takes the claim while the agent is mid-sleep.
        slow = make_agent(coordinator, lease_seconds=0.1,
                          heartbeat_interval_seconds=60.0)
        ran_in = threading.Thread(target=slow.run_until_idle, daemon=True)
        ran_in.start()
        time.sleep(0.25)
        assert coordinator.scheduler.reap_once() >= 1
        # A second agent picks the requeued job and settles it.
        fast = make_agent(coordinator, lease_seconds=30.0)
        fast.worker_id = fast.client.worker_id = "agent-two"
        fast.client.client_id = "agent-two"
        assert fast.run_until_idle() == 1
        ran_in.join(timeout=15)
        assert not ran_in.is_alive()
        assert slow.counts.get("stale", 0) == 1
        assert fast.counts == {"done": 1}
        # Exactly-once: one terminal transition, ever.
        terminal = [t for t in coordinator.store.transitions(accepted["id"])
                    if t["to_state"] in ("done", "failed", "cancelled")]
        assert len(terminal) == 1
        assert client.result(accepted["id"])["counts"]["done"] == 1


class TestChaos:
    def test_distrib_drops_are_retried_transparently(self, coordinator):
        client = ServiceClient(coordinator.base_url, client_id="test")
        accepted = client.submit(echo_spec([1, 2], name="chaotic"))
        plan = FaultPlan(seed=7, points=[
            FaultPoint("distrib.claim", attempts=(1,)),
            FaultPoint("distrib.heartbeat", attempts=(1,)),
            FaultPoint("distrib.settle", attempts=(1,)),
        ])
        agent = make_agent(coordinator, retries=3)
        with injected(plan):
            assert agent.run_until_idle() == 2
        assert agent.counts == {"done": 2}
        results = client.result(accepted["id"])
        assert sorted(j["result"]["echo"] for j in results["jobs"]) \
            == [1, 2]
        # Each job reached a terminal state exactly once despite the
        # dropped first attempt of every fleet request.
        terminal = [t for t in coordinator.store.transitions(accepted["id"])
                    if t["to_state"] == "done"]
        assert len(terminal) == 2

    def test_exhausted_retry_budget_surfaces(self, coordinator):
        plan = FaultPlan(seed=7, points=[
            FaultPoint("distrib.claim", attempts=()),  # every attempt
        ])
        agent = make_agent(coordinator, retries=1)
        from repro.exceptions import ServiceError

        with injected(plan), pytest.raises(ServiceError):
            agent.client.claim(lease_seconds=1.0)
