"""The shared claim loop on remote agents: renewal horizon, counters."""

import threading
import time

import pytest

from repro.core.config import DistribConfig, ServiceConfig, SupervisionConfig
from repro.distrib.worker import WorkerAgent
from repro.obs.metrics import metrics
from repro.resilience.faults import injected
from repro.runner.jobs import SweepSpec
from repro.service.api import AnalysisService, make_server
from repro.service.client import ServiceClient
from repro.service.scheduler import Scheduler
from repro.service.store import JobStore
from tests.service._specs import echo_spec

SUPERVISION = SupervisionConfig(lease_seconds=0.3,
                                max_lease_renewal_seconds=0.5)
TERMINAL = ("done", "failed", "cancelled", "quarantined")


@pytest.fixture
def coordinator(tmp_path):
    """A pure coordinator on an ephemeral port (reaper driven by hand)."""
    config = ServiceConfig(port=0, num_workers=1, isolate_jobs=False,
                           local_workers=False, poll_interval_seconds=0.02,
                           supervision=SUPERVISION)
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


def make_agent(coordinator, name: str) -> WorkerAgent:
    return WorkerAgent(
        coordinator.base_url,
        config=DistribConfig(num_workers=1, poll_interval_seconds=0.05,
                             retry_backoff_seconds=0.01,
                             retry_backoff_max_seconds=0.05),
        supervision=SUPERVISION, worker_id=name, isolate_jobs=False)


def wait_for(predicate, timeout: float = 15.0) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition not met in time"
        time.sleep(0.02)


class TestWedgedRemoteJob:
    HANG_SECONDS = 4.0

    def test_reaped_within_its_renewal_horizon(self, coordinator,
                                               monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS_HANG_SECONDS",
                           str(self.HANG_SECONDS))
        client = ServiceClient(coordinator.base_url, client_id="test")
        accepted = client.submit(echo_spec([5], name="wedged"))
        wedged = make_agent(coordinator, "wedged")
        plan = {"kind": "fault_plan", "seed": 3,
                "points": [{"site": "worker.hang", "attempts": [1]}]}
        started = time.monotonic()
        runner = threading.Thread(target=wedged.run_until_idle,
                                  daemon=True)
        with injected(plan):
            runner.start()
            wait_for(lambda: coordinator.store.counts()["running"] == 1)
            # The agent renews for its 0.5s horizon, then the 0.3s
            # lease lapses and the reaper takes the job.
            wait_for(lambda: coordinator.scheduler.reap_once() >= 1,
                     timeout=self.HANG_SECONDS)
        assert time.monotonic() - started < self.HANG_SECONDS - 1.0
        second = make_agent(coordinator, "second")
        assert second.run_until_idle() == 1
        assert second.counts == {"done": 1}
        runner.join(timeout=self.HANG_SECONDS + 10.0)
        assert not runner.is_alive()
        assert wedged.counts == {"stale": 1}
        terminal = [t for t in coordinator.store.transitions(accepted["id"])
                    if t["to_state"] in TERMINAL]
        assert len(terminal) == 1
        assert client.result(accepted["id"])["counts"]["done"] == 1


def settle_counters() -> dict:
    counters = metrics().snapshot()["counters"]
    return {name: value for name, value in counters.items()
            if name.startswith("service.jobs")
            or name == "service.stale_settles"}


def moved(before: dict, after: dict) -> dict:
    return {name: after[name] - before.get(name, 0.0) for name in after
            if after[name] != before.get(name, 0.0)}


class TestSettleCounters:
    def test_deadline_passed_job_counts_alike_local_and_remote(
            self, coordinator, tmp_path, monkeypatch):
        # The queue sweep misses the passed deadline (as when it passes
        # between the sweep and the claim), so the claim loop itself
        # settles the job deadline_exceeded.
        store = JobStore(tmp_path / "local.db")
        try:
            spec = SweepSpec.from_dict(echo_spec([1], name="late-local"))
            store.submit(spec.spec_hash, spec.name, "test",
                         [(j.key, j.label, j.payload)
                          for j in spec.expand()],
                         deadline_seconds=0.01)
            scheduler = Scheduler(store, None, ServiceConfig(
                num_workers=1, isolate_jobs=False))
            monkeypatch.setattr(store, "expire_deadlines", lambda: [])
            time.sleep(0.05)
            before = settle_counters()
            assert scheduler.run_until_idle() == 1
            local = moved(before, settle_counters())
        finally:
            store.close()

        client = ServiceClient(coordinator.base_url, client_id="test")
        client.submit(dict(echo_spec([1], name="late-remote"),
                           deadline_seconds=0.01))
        monkeypatch.setattr(coordinator.store, "expire_deadlines",
                            lambda: [])
        time.sleep(0.05)
        before = settle_counters()
        assert make_agent(coordinator, "late").run_until_idle() == 1
        remote = moved(before, settle_counters())

        assert local == remote == {"service.jobs.deadline_exceeded": 1.0}
