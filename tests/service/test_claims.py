"""The shared claim loop on the local pool: lost leases and drain."""

import threading
import time
from pathlib import Path

import pytest

from repro.core.config import ServiceConfig, SupervisionConfig
from repro.resilience.faults import injected
from repro.runner.cache import ResultCache
from repro.runner.jobs import SweepSpec
from repro.service.scheduler import Scheduler
from repro.service.store import JobStore
from tests.service._specs import sleep_spec

TERMINAL = ("done", "failed", "cancelled", "quarantined")


@pytest.fixture
def store(tmp_path):
    store = JobStore(tmp_path / "service.db")
    yield store
    store.close()


def submitted(store, doc) -> str:
    spec = SweepSpec.from_dict(doc)
    store.submit(spec.spec_hash, spec.name, "test",
                 [(j.key, j.label, j.payload) for j in spec.expand()])
    return spec.spec_hash


def marked_sleep_task(payload: dict) -> dict:
    """Touch a per-job marker once running, then sleep."""
    params = payload["params"]
    (Path(params["marker_dir"]) / str(params["value"])).touch()
    time.sleep(params["sleep_seconds"])
    return {"slept": True}


def wait_for(predicate, timeout: float = 15.0) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition not met in time"
        time.sleep(0.02)


class TestLostLease:
    SLEEP_SECONDS = 8.0

    def test_lost_claim_stops_computing_and_skips_settle(
            self, store, tmp_path):
        # Pool isolation: the executor polls its cancel check while the
        # sleeping job is in flight.
        analysis_id = submitted(
            store, sleep_spec(self.SLEEP_SECONDS, [1], name="lost"))
        config = ServiceConfig(
            num_workers=1, isolate_jobs=True, poll_interval_seconds=0.02,
            supervision=SupervisionConfig(lease_seconds=0.3,
                                          heartbeat_interval_seconds=0.05))
        scheduler = Scheduler(store, ResultCache(tmp_path / "cache"),
                              config)
        processed = []
        drop_beats = {"kind": "fault_plan", "seed": 5,
                      "points": [{"site": "lease.heartbeat"}]}
        started = time.monotonic()
        worker = threading.Thread(
            target=lambda: processed.append(scheduler.run_until_idle()),
            daemon=True)
        with injected(drop_beats):
            worker.start()
            wait_for(lambda: store.counts()["running"] == 1)
            # Every beat is dropped, so the lease lapses: reap the job
            # and hand it to another worker while the sleep runs on.
            wait_for(lambda: scheduler.reap_once() == 1)
            other = store.claim(lease_seconds=60.0, worker_id="other")
        # Beats reach the store again and report the lease lost.
        worker.join(timeout=self.SLEEP_SECONDS - 2.0)
        elapsed = time.monotonic() - started
        assert not worker.is_alive()
        assert elapsed < self.SLEEP_SECONDS / 2
        assert processed == [1]
        assert scheduler.counts == {"stale": 1}
        # The stale claim never settled: the re-claim's settle is the
        # one terminal transition.
        store.settle(analysis_id, other["key"], "done", status="done",
                     token=other["claim_token"])
        terminal = [t for t in store.transitions(analysis_id)
                    if t["to_state"] in TERMINAL]
        assert len(terminal) == 1


class TestDrainDeadline:
    DRAIN_SECONDS = 1.0

    def test_busy_pool_stops_within_one_drain_timeout(
            self, store, tmp_path):
        doc = sleep_spec(10.0, [1, 2], name="busy")
        doc["task"] = f"{__name__}:marked_sleep_task"
        doc["base"]["marker_dir"] = str(tmp_path)
        analysis_id = submitted(store, doc)
        config = ServiceConfig(
            num_workers=2, isolate_jobs=True, poll_interval_seconds=0.02,
            drain_timeout_seconds=self.DRAIN_SECONDS)
        scheduler = Scheduler(store, ResultCache(tmp_path / "cache"),
                              config)
        scheduler.start()
        # Both attempts are executing, not merely claimed.
        wait_for(lambda: all((tmp_path / v).exists() for v in "12"))
        started = time.monotonic()
        scheduler.stop(drain=True)
        elapsed = time.monotonic() - started
        # Both workers outlast the timeout; they share one deadline
        # instead of getting a full timeout each.
        assert elapsed < self.DRAIN_SECONDS + 0.5
        # Release the abandoned workers: cancel their jobs, join them.
        store.cancel_analysis(analysis_id)
        assert scheduler.runner.stop(10.0) == 0
