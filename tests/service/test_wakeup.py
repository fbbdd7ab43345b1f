"""Idle claim slots wake when work arrives instead of sleeping a poll.

The poll interval is set far above every bound asserted here, so these
tests only pass when the store's wake-up reaches the waiting slot.
"""

import threading
import time

import pytest

from repro.core.config import ServiceConfig, SupervisionConfig
from repro.runner.jobs import SweepSpec
from repro.service.api import AnalysisService
from repro.service.scheduler import Scheduler
from repro.service.store import JobStore
from tests.service._specs import echo_spec

#: Far longer than any bound below: a slot that sleeps it out fails.
POLL_SECONDS = 5.0
#: How soon an idle consumer must claim a job that just arrived.
CLAIM_BOUND_SECONDS = 0.5


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


def claimed_at(store, analysis_id: str) -> float:
    """Wall time of the analysis's first claim, from the audit log."""
    return min(t["at"] for t in store.transitions(analysis_id)
               if t["to_state"] == "running")


def wait_for(predicate, timeout: float = 15.0) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition not met in time"
        time.sleep(0.01)


class Waiter:
    """``wait_for_work`` on a thread, remembering when it returned."""

    def __init__(self, store, generation: int, timeout: float):
        self.result = None
        self.returned_at = None
        self.thread = threading.Thread(
            target=self._run, args=(store, generation, timeout),
            daemon=True)
        self.thread.start()

    def _run(self, store, generation, timeout):
        self.result = store.wait_for_work(generation, timeout)
        self.returned_at = time.monotonic()

    @property
    def woke(self) -> bool:
        return self.returned_at is not None


class TestStoreWakeUp:
    def test_wait_times_out_without_work(self, store):
        started = time.monotonic()
        assert store.wait_for_work(store.generation, 0.1) is False
        assert time.monotonic() - started >= 0.1

    def test_submit_between_empty_claim_and_wait_is_not_lost(self, store):
        # The consumer reads the generation, claims nothing, and only
        # then waits: a submit landing in that gap must still count.
        generation = store.generation
        assert store.claim(lease_seconds=30.0) is None
        submitted(store, echo_spec([1]))
        started = time.monotonic()
        assert store.wait_for_work(generation, POLL_SECONDS) is True
        assert time.monotonic() - started < 0.1

    def test_one_claimable_job_wakes_one_waiter(self, store):
        generation = store.generation
        waiters = [Waiter(store, generation, POLL_SECONDS)
                   for _ in range(2)]
        time.sleep(0.2)  # both are blocked in the wait
        submitted(store, echo_spec([1]))
        wait_for(lambda: any(w.woke for w in waiters), timeout=1.0)
        time.sleep(0.2)
        assert sum(w.woke for w in waiters) == 1
        # Shutdown wakes everyone still waiting.
        store.wake_waiters()
        wait_for(lambda: all(w.woke for w in waiters), timeout=1.0)

    def test_a_batch_wakes_one_waiter_per_job(self, store):
        generation = store.generation
        waiters = [Waiter(store, generation, POLL_SECONDS)
                   for _ in range(3)]
        time.sleep(0.2)
        submitted(store, echo_spec([1, 2]))
        wait_for(lambda: sum(w.woke for w in waiters) == 2, timeout=1.0)
        time.sleep(0.2)
        assert sum(w.woke for w in waiters) == 2
        store.wake_waiters()

    def test_every_requeue_path_wakes_waiters(self, store):
        analysis_id = submitted(store, echo_spec([1]))

        def bumps(action) -> bool:
            generation = store.generation
            action()
            return store.wait_for_work(generation, 0.0)

        claim = store.claim(lease_seconds=30.0)
        assert bumps(lambda: store.release(
            analysis_id, claim["key"], token=claim["claim_token"]))
        store.claim(lease_seconds=0.01)
        time.sleep(0.05)
        assert bumps(store.reap_expired)
        store.claim(lease_seconds=30.0)
        assert bumps(store.recover)
        store.quarantine_exhausted(max_attempts=1)
        assert store.counts()["quarantined"] == 1
        assert bumps(lambda: store.retry_quarantined(analysis_id))
        # Transitions that leave nothing claimable do not bump it.
        assert not bumps(store.reap_expired)
        assert not bumps(lambda: store.retry_quarantined(analysis_id))


class TestScheduler:
    def test_run_until_idle_never_waits(self, store):
        scheduler = Scheduler(store, None, ServiceConfig(
            num_workers=1, isolate_jobs=False,
            poll_interval_seconds=POLL_SECONDS))
        started = time.monotonic()
        assert scheduler.run_until_idle() == 0
        assert time.monotonic() - started < CLAIM_BOUND_SECONDS

    def test_stop_on_an_idle_pool_is_prompt(self, store):
        scheduler = Scheduler(store, None, ServiceConfig(
            num_workers=2, isolate_jobs=True,
            poll_interval_seconds=POLL_SECONDS))
        scheduler.start()
        time.sleep(0.3)  # every slot is waiting for work
        started = time.monotonic()
        scheduler.stop()
        assert time.monotonic() - started < 1.0
        assert not scheduler.runner._threads

    def test_idle_service_claims_a_new_job_at_once(self, tmp_path):
        service = AnalysisService(tmp_path / "svc", config=ServiceConfig(
            port=0, num_workers=2, isolate_jobs=True,
            poll_interval_seconds=POLL_SECONDS,
            supervision=SupervisionConfig(lease_seconds=30.0)))
        service.start()
        try:
            time.sleep(0.3)  # both slots made an empty claim and wait
            submitted_at = time.time()
            status, accepted, _ = service.submit(echo_spec([1]), "test")
            assert status == 201
            wait_for(lambda: service.store.analysis_status(
                accepted["id"])["finished"])
            assert claimed_at(service.store, accepted["id"]) \
                - submitted_at < CLAIM_BOUND_SECONDS
        finally:
            service.stop()
