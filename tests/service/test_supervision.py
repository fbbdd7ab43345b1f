"""Self-healing supervision: reaper, quarantine, deadlines, cancel.

The acceptance scenarios for the supervision layer, driven by
deterministic chaos plans:

* a worker hung via ``worker.hang`` (heartbeats stalled via
  ``lease.heartbeat``) loses its job to the reaper within one lease
  period, and the re-run settles with no duplicate terminal
  transitions;
* a job that kills its worker every time it is claimed converges to
  the terminal ``quarantined`` state after the claim budget, with
  exactly one terminal audit transition, while other analyses keep
  being served;
* a running job is cooperatively cancelled via the store's
  ``cancel_requested`` flag within one executor poll interval.
"""

import threading
import time

import pytest

from repro.core.config import ServiceConfig, SupervisionConfig
from repro.obs.metrics import metrics
from repro.resilience.faults import injected
from repro.runner.cache import ResultCache
from repro.runner.jobs import SweepSpec
from repro.service.scheduler import Scheduler
from repro.service.store import InjectedServiceCrash, JobStore
from tests.service._specs import echo_spec, sleep_spec


@pytest.fixture
def store(tmp_path):
    store = JobStore(tmp_path / "service.db")
    yield store
    store.close()


@pytest.fixture
def cache(tmp_path):
    return ResultCache(tmp_path / "cache")


def submitted(store, doc, priority: int = 0) -> tuple[str, list]:
    spec = SweepSpec.from_dict(doc)
    jobs = spec.expand()
    store.submit(spec.spec_hash, spec.name, "test",
                 [(j.key, j.label, j.payload) for j in jobs],
                 priority=priority)
    return spec.spec_hash, jobs


def supervised_config(**supervision) -> ServiceConfig:
    return ServiceConfig(
        num_workers=2, isolate_jobs=False,
        poll_interval_seconds=0.02, drain_timeout_seconds=10.0,
        supervision=SupervisionConfig(**supervision))


def wait_for(predicate, timeout: float = 15.0) -> float:
    """Poll until ``predicate()`` is truthy; returns elapsed seconds."""
    started = time.monotonic()
    while time.monotonic() - started < timeout:
        if predicate():
            return time.monotonic() - started
        time.sleep(0.02)
    raise AssertionError(f"condition not met within {timeout:g}s")


def counter(name: str) -> float:
    return metrics().snapshot()["counters"].get(name, 0.0)


class TestHungWorkerReaped:
    #: The worker wedges on the job's first attempt (4s, far past the
    #: 0.3s lease), and its heartbeats are stalled -- a fully hung
    #: worker.  Attempt numbering is continuous across claims
    #: (``attempt_base``), so the re-run (store attempt 2) is clean.
    HANG_SECONDS = 4.0
    PLAN = {"kind": "fault_plan", "seed": 11, "points": [
        {"site": "worker.hang", "attempts": [1]},
        {"site": "lease.heartbeat"},
    ]}

    def test_reaped_and_rerun_within_one_lease_period(
            self, store, cache, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS_HANG_SECONDS",
                           str(self.HANG_SECONDS))
        analysis_id, jobs = submitted(store, echo_spec([7], name="hang"))
        config = supervised_config(lease_seconds=0.3,
                                   reap_interval_seconds=0.1)
        reaped_before = counter("service.jobs.reaped")
        with injected(self.PLAN):
            scheduler = Scheduler(store, cache, config)
            scheduler.start()
            try:
                elapsed = wait_for(
                    lambda: store.analysis_status(analysis_id)["finished"])
            finally:
                scheduler.stop()
        # The answer came from the reaped re-run, not the hung worker:
        # it landed while the original attempt was still wedged.
        assert elapsed < self.HANG_SECONDS - 0.5
        status = store.analysis_status(analysis_id)
        assert status["state"] == "done"
        assert cache.get(jobs[0].key) == {"echo": 7}
        # The reap is audited (running -> queued) and the job reached a
        # terminal state exactly once -- the hung worker's late settle
        # was refused and discarded.
        transitions = store.transitions(analysis_id)
        requeues = [t for t in transitions
                    if (t["from_state"], t["to_state"])
                    == ("running", "queued")]
        assert len(requeues) >= 1
        terminal = [t for t in transitions
                    if t["to_state"] in ("done", "failed", "cancelled",
                                         "quarantined")]
        assert len(terminal) == 1
        assert counter("service.jobs.reaped") > reaped_before

    def test_reaper_tick_fault_delays_one_pass(self, store, cache):
        submitted(store, echo_spec([1]))
        store.claim(lease_seconds=0.01)
        time.sleep(0.05)
        scheduler = Scheduler(store, cache, supervised_config())
        plan = {"kind": "fault_plan", "seed": 4, "points": [
            {"site": "reaper.tick", "max_fires": 1}]}
        with injected(plan):
            assert scheduler.reap_once() == 0  # pass skipped outright
            assert store.counts()["running"] == 1
            assert scheduler.reap_once() == 1  # next pass recovers
        assert store.counts()["queued"] == 1


class TestHeartbeatFencing:
    def test_stale_heartbeat_loop_stops_and_never_extends_new_claim(
            self, store, cache):
        """REVIEW regression: after a reap + re-claim, the presumed-dead
        worker's heartbeat loop must exit on its own -- and its beats
        must never renew the new claim's lease."""
        submitted(store, echo_spec([3], name="fence"))
        stale = store.claim(lease_seconds=0.01)
        time.sleep(0.05)
        store.reap_expired()
        store.claim(lease_seconds=0.2)  # worker B's claim
        # A stale heartbeat loop renewing with a 60s lease every 10ms:
        # if fencing failed, worker B's lease would never lapse.
        config = supervised_config(lease_seconds=60.0,
                                   heartbeat_interval_seconds=0.01)
        scheduler = Scheduler(store, cache, config)
        stop = threading.Event()
        thread = threading.Thread(
            target=scheduler.runner._heartbeat_loop,
            args=(stale["analysis_id"], stale["key"],
                  stale["claim_token"], stop, None), daemon=True)
        thread.start()
        thread.join(timeout=5.0)
        alive = thread.is_alive()
        stop.set()
        assert not alive  # exited on its own: lease reported lost
        # Worker B's 0.2s lease lapsed on schedule -- the stale beats
        # did not mask a genuinely hung re-claim from the reaper.
        time.sleep(0.25)
        assert len(store.reap_expired()) == 1

    def test_renewal_horizon_lets_wedged_claim_lapse(self, store, cache):
        """A claim past its worst-case wall budget stops renewing, so a
        solve wedged inside the worker process is reaped eventually."""
        submitted(store, echo_spec([4], name="wedge"))
        claimed = store.claim(lease_seconds=0.05)
        config = supervised_config(lease_seconds=0.05,
                                   heartbeat_interval_seconds=0.01)
        scheduler = Scheduler(store, cache, config)
        stop = threading.Event()
        thread = threading.Thread(
            target=scheduler.runner._heartbeat_loop,
            args=(claimed["analysis_id"], claimed["key"],
                  claimed["claim_token"], stop,
                  time.time()), daemon=True)  # horizon already passed
        thread.start()
        thread.join(timeout=5.0)
        alive = thread.is_alive()
        stop.set()
        assert not alive  # stopped renewing at the horizon
        time.sleep(0.1)
        assert len(store.reap_expired()) == 1

    def test_renewal_horizon_derivation(self, store, cache):
        from repro.runner.jobs import Job

        job = Job({"task": "t", "instance": {}, "params": {}})
        scheduler = Scheduler(store, cache, supervised_config())
        # No wall timeout derivable, no cap: renew indefinitely.
        assert scheduler.runner._renewal_horizon(job, None) is None
        # An explicit wall budget bounds the horizon.
        assert scheduler.runner._renewal_horizon(job, 10.0) is not None
        # The config cap bounds it even without a wall timeout.
        capped = Scheduler(store, cache, supervised_config(
            max_lease_renewal_seconds=5.0))
        horizon = capped.runner._renewal_horizon(job, None)
        assert horizon is not None
        assert horizon <= time.time() + 5.5


class TestCrashLoopQuarantine:
    def test_worker_killing_job_converges_to_quarantined(
            self, store, cache):
        poison_id, poison_jobs = submitted(
            store, echo_spec([666], name="poison"), priority=10)
        innocent_id, _ = submitted(store, echo_spec([1, 2], name="fine"))
        plan = {"kind": "fault_plan", "seed": 2, "points": [
            {"site": "service.crash_claimed",
             "match": poison_jobs[0].key}]}
        config = supervised_config(lease_seconds=60.0, max_job_attempts=3)
        quarantined_before = counter("service.jobs.quarantined")
        with injected(plan):
            scheduler = Scheduler(store, cache, config)
            # The poison job outranks everything and kills its worker
            # at every claim; each "restart" recovers it with its
            # attempt count intact.
            for _ in range(3):
                with pytest.raises(InjectedServiceCrash):
                    scheduler.run_until_idle()
                assert store.recover() == 1
            # Budget spent: the next pass quarantines the poison job
            # and the service keeps serving everyone else.
            assert scheduler.run_until_idle() == 2
        assert store.analysis_status(poison_id)["state"] == "quarantined"
        assert store.analysis_status(innocent_id)["state"] == "done"
        assert counter("service.jobs.quarantined") > quarantined_before
        # Quarantine is terminal exactly once, last error preserved.
        terminal = [t for t in store.transitions(poison_id)
                    if t["to_state"] in ("done", "failed", "cancelled",
                                         "quarantined")]
        assert len(terminal) == 1
        listed = store.quarantined_jobs(poison_id)
        assert len(listed) == 1
        assert listed[0]["attempts"] == 3
        assert "process died" in listed[0]["error"]

    def test_retried_quarantined_job_completes(self, store, cache):
        analysis_id, jobs = submitted(store, echo_spec([5], name="second"))
        plan = {"kind": "fault_plan", "seed": 2, "points": [
            {"site": "service.crash_claimed", "match": jobs[0].key}]}
        config = supervised_config(lease_seconds=60.0, max_job_attempts=1)
        scheduler = Scheduler(store, cache, config)
        with injected(plan):
            with pytest.raises(InjectedServiceCrash):
                scheduler.run_until_idle()
            store.recover()
            scheduler.run_until_idle()
        assert store.analysis_status(analysis_id)["state"] == "quarantined"
        # The operator retries without the fault: fresh budget, clean run.
        assert store.retry_quarantined(analysis_id) == 1
        assert scheduler.run_until_idle() == 1
        assert store.analysis_status(analysis_id)["state"] == "done"
        assert cache.get(jobs[0].key) == {"echo": 5}


class TestCooperativeCancel:
    def test_running_job_cancelled_within_poll_interval(
            self, store, tmp_path):
        # Pool isolation: the sleep runs in a worker process, and the
        # executor polls the cancel flag while the future is in flight.
        analysis_id, _ = submitted(store, sleep_spec(8.0, [1]))
        config = ServiceConfig(
            num_workers=1, isolate_jobs=True,
            poll_interval_seconds=0.02, drain_timeout_seconds=10.0,
            supervision=SupervisionConfig(lease_seconds=30.0))
        scheduler = Scheduler(store, ResultCache(tmp_path / "cache"),
                              config)
        scheduler.start()
        try:
            wait_for(lambda: store.counts()["running"] == 1)
            outcome = store.cancel_analysis(analysis_id)
            assert outcome["cancelling"] == 1
            # The cancel lands at the executor's next poll -- long
            # before the 8s task could have finished on its own.
            elapsed = wait_for(
                lambda: store.counts()["cancelled"] == 1, timeout=6.0)
            assert elapsed < 5.0
        finally:
            scheduler.stop()
        status = store.analysis_status(analysis_id)
        assert status["state"] == "cancelled"
        job = store.analysis_jobs(analysis_id)[0]
        assert job["status"] == "cancelled"
        assert "cancelled by client" in job["error"]
        terminal = [t for t in store.transitions(analysis_id)
                    if t["to_state"] in ("done", "failed", "cancelled",
                                         "quarantined")]
        assert len(terminal) == 1


class TestDeadlines:
    def test_expired_queued_job_fails_fast(self, store, cache):
        spec = SweepSpec.from_dict(echo_spec([9], name="late"))
        jobs = spec.expand()
        store.submit(spec.spec_hash, spec.name, "test",
                     [(j.key, j.label, j.payload) for j in jobs],
                     deadline_seconds=0.01)
        time.sleep(0.05)
        scheduler = Scheduler(store, cache, supervised_config())
        deadline_before = counter("service.jobs.deadline_exceeded")
        assert scheduler.run_until_idle() == 0  # expired, never claimed
        status = store.analysis_status(spec.spec_hash)
        assert status["state"] == "failed"
        job = store.analysis_jobs(spec.spec_hash)[0]
        assert job["status"] == "deadline_exceeded"
        assert counter("service.jobs.deadline_exceeded") > deadline_before


class TestStartupRecoveryCounter:
    def test_recover_emits_metricz_counter(self, store, cache):
        submitted(store, echo_spec([1]))
        store.claim()  # wedged running: simulated dead process
        recovered_before = counter("service.jobs.recovered")
        scheduler = Scheduler(store, cache, supervised_config())
        scheduler.start()
        scheduler.stop()
        assert counter("service.jobs.recovered") == recovered_before + 1
