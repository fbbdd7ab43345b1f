"""One warm worker process per claim slot, retired after any doubt.

Jobs run ``pid_task``, which reports the process that ran it: equal
pids mean the slot reused its worker, a new pid means it was retired
and a fresh one forked.
"""

import multiprocessing
import os
import time

import pytest

from repro.core.config import RunnerConfig, ServiceConfig
from repro.resilience.faults import injected
from repro.runner.executor import WarmWorker, run_sweep
from repro.runner.jobs import Job, SweepSpec
from repro.service.scheduler import Scheduler
from repro.service.store import JobStore
from tests.service._specs import sleep_spec

PID_TASK = "tests.runner._workers:pid_task"


@pytest.fixture
def store(tmp_path):
    store = JobStore(tmp_path / "service.db")
    yield store
    store.close()


def pid_spec(value, name=None) -> dict:
    return {
        "kind": "sweep_spec", "name": name or f"pid-{value}",
        "task": PID_TASK,
        "instance": {"topology": {"nodes": [], "links": []}},
        "grid": {"value": [value]},
    }


def submitted(store, doc) -> tuple[str, str]:
    """Submit a one-job spec; returns (analysis id, job key)."""
    spec = SweepSpec.from_dict(doc)
    [job] = spec.expand()
    store.submit(spec.spec_hash, spec.name, "test",
                 [(job.key, job.label, job.payload)])
    return spec.spec_hash, job.key


def wait_for(predicate, timeout: float = 30.0) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition not met in time"
        time.sleep(0.02)


def settled(store, analysis_id: str) -> dict:
    wait_for(lambda: store.analysis_status(analysis_id)["finished"])
    [job] = store.analysis_jobs(analysis_id)
    return job


def children() -> set[int]:
    return {child.pid for child in multiprocessing.active_children()}


def one_slot(store, tmp_path, **runner) -> Scheduler:
    """A started one-slot pool with process isolation."""
    from repro.runner.cache import ResultCache

    scheduler = Scheduler(
        store, ResultCache(tmp_path / "cache"),
        ServiceConfig(num_workers=1, isolate_jobs=True,
                      poll_interval_seconds=0.05,
                      drain_timeout_seconds=10.0),
        runner_config=RunnerConfig(num_workers=2, **runner))
    scheduler.start()
    return scheduler


def pid_of(scheduler, store, value) -> int:
    """Run one pid job through the pool; the pid that computed it."""
    analysis_id, key = submitted(store, pid_spec(value))
    job = settled(store, analysis_id)
    assert job["state"] == "done", job
    return scheduler.cache.get(key)["pid"]


class TestReuse:
    def test_jobs_in_a_row_share_the_slots_worker(self, store, tmp_path):
        scheduler = one_slot(store, tmp_path)
        try:
            first = pid_of(scheduler, store, 1)
            second = pid_of(scheduler, store, 2)
        finally:
            scheduler.stop()
        assert first == second != os.getpid()

    def test_run_sweep_reuses_a_warm_worker(self):
        warm = WarmWorker()
        try:
            pids = [run_sweep([Job(payload={"task": PID_TASK,
                                            "params": {"value": v}})],
                              num_workers=2, handle_signals=False,
                              warm_worker=warm).outcomes[0].result["pid"]
                    for v in (1, 2, 3)]
        finally:
            warm.retire()
        assert len(set(pids)) == 1


class TestRetirement:
    def test_crash_is_charged_to_its_job_only(self, store, tmp_path):
        scheduler = one_slot(store, tmp_path, retries=1,
                             backoff_seconds=0.0)
        try:
            before = pid_of(scheduler, store, 1)
            doc = pid_spec(2, name="crasher")
            crash_key = SweepSpec.from_dict(doc).expand()[0].key
            plan = {"kind": "fault_plan", "seed": 1,
                    "points": [{"site": "worker.crash",
                                "match": crash_key, "attempts": []}]}
            with injected(plan):
                analysis_id, _ = submitted(store, doc)
                crashed = settled(store, analysis_id)
            after = pid_of(scheduler, store, 3)
        finally:
            scheduler.stop()
        assert crashed["state"] in ("failed", "quarantined")
        assert "crashed" in crashed["error"]
        assert after != before

    def test_wall_timeout_retires_the_worker(self, store, tmp_path):
        scheduler = one_slot(store, tmp_path, retries=0,
                             wall_timeout_margin=0.3)
        try:
            before = pid_of(scheduler, store, 1)
            doc = sleep_spec(5.0, [1], name="overrun")
            doc["base"]["time_limit"] = 0.0
            analysis_id, _ = submitted(store, doc)
            timed_out = settled(store, analysis_id)
            after = pid_of(scheduler, store, 2)
        finally:
            scheduler.stop()
        assert timed_out["status"] == "timeout"
        assert after != before

    def test_cancel_mid_job_retires_the_worker(self, store, tmp_path):
        scheduler = one_slot(store, tmp_path)
        try:
            before = pid_of(scheduler, store, 1)
            # The job sleeps long enough that a busy host still polls the
            # cancel before the job could finish and settle done.
            analysis_id, _ = submitted(
                store, sleep_spec(5.0, [1], name="cancelled"))
            wait_for(lambda: store.counts()["running"] == 1)
            store.cancel_analysis(analysis_id)
            cancelled_at = time.monotonic()
            assert settled(store, analysis_id)["state"] == "cancelled"
            waited = time.monotonic() - cancelled_at
            after = pid_of(scheduler, store, 2)
        finally:
            scheduler.stop()
        assert waited < 2.0
        assert after != before


class TestCrashRetryCancel:
    def test_delete_during_the_crash_retry_cancels_the_job(
            self, store, tmp_path):
        """The crash breaks the warm worker, the isolation pass charges
        attempt 1, and attempt 2 sleeps in a fresh pool: a cancel then
        settles the job at once, and the slot goes on to its next job."""
        scheduler = one_slot(store, tmp_path, retries=2,
                             backoff_seconds=0.0)
        try:
            doc = sleep_spec(5.0, [1], name="crash-then-sleep")
            crash_key = SweepSpec.from_dict(doc).expand()[0].key
            plan = {"kind": "fault_plan", "seed": 1,
                    "points": [{"site": "worker.crash",
                                "match": crash_key, "attempts": [1]}]}
            with injected(plan):
                analysis_id, _ = submitted(store, doc)
                wait_for(lambda: store.counts()["running"] == 1)
                time.sleep(1.0)
                store.cancel_analysis(analysis_id)
                cancelled_at = time.monotonic()
                job = settled(store, analysis_id)
                waited = time.monotonic() - cancelled_at
            after = pid_of(scheduler, store, 2)
        finally:
            scheduler.stop()
        assert job["state"] == "cancelled"
        assert waited < 2.0
        assert after != os.getpid()


class TestShutdown:
    def test_stop_leaves_no_worker_process(self, store, tmp_path):
        existing = children()
        scheduler = Scheduler(
            store, None, ServiceConfig(num_workers=2, isolate_jobs=True,
                                       poll_interval_seconds=0.05))
        scheduler.start()
        try:
            for value in (1, 2, 3):
                settled(store, submitted(store, pid_spec(value))[0])
            # The workers outlive their jobs: they are warm.
            assert children() - existing
        finally:
            scheduler.stop()
        assert not children() - existing
