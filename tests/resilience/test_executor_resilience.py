"""Retry semantics, crash isolation, backoff, failure budgets, signals.

The executor's recovery machinery must be exact: a transient fault on
the first N-1 attempts plus a success is exactly N attempts, backoff
delays are monotone (jitter can only stretch them), and a job can never
corrupt its caller's signal handling.
"""

import signal
import threading
import time

import pytest

from repro.core.config import RunnerConfig
from repro.exceptions import ModelingError
from repro.resilience.faults import FaultPlan, FaultPoint, injected
from repro.runner import executor
from repro.runner.executor import invoke_job, run_sweep
from repro.runner.jobs import Job

WORKERS = "tests.runner._workers"


def _job(task: str, **params) -> Job:
    return Job({"task": f"{WORKERS}:{task}", "instance": {},
                "params": params})


def _fast_config(**overrides) -> RunnerConfig:
    base = dict(backoff_seconds=0.0, backoff_jitter=0.0)
    base.update(overrides)
    return RunnerConfig(**base)


class TestSignalHygiene:
    def test_sigalrm_disposition_is_restored_after_success(self):
        marker = lambda signum, frame: None  # noqa: E731
        previous = signal.signal(signal.SIGALRM, marker)
        try:
            res = invoke_job(_job("echo_task", value=1).payload,
                             wall_timeout=30.0)
            assert res["ok"]
            assert signal.getsignal(signal.SIGALRM) is marker
            assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
        finally:
            signal.signal(signal.SIGALRM, previous)

    def test_sigalrm_disposition_is_restored_after_timeout(self):
        marker = lambda signum, frame: None  # noqa: E731
        previous = signal.signal(signal.SIGALRM, marker)
        try:
            res = invoke_job(
                _job("sleep_task", sleep_seconds=60).payload,
                wall_timeout=0.2)
            assert not res["ok"]
            assert res["status"] == "timeout"
            assert "wall timeout" in res["error"]
            assert signal.getsignal(signal.SIGALRM) is marker
            assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
        finally:
            signal.signal(signal.SIGALRM, previous)

    def test_sigalrm_disposition_is_restored_after_task_error(self):
        marker = lambda signum, frame: None  # noqa: E731
        previous = signal.signal(signal.SIGALRM, marker)
        try:
            res = invoke_job(_job("error_task").payload, wall_timeout=30.0)
            assert not res["ok"]
            assert signal.getsignal(signal.SIGALRM) is marker
            assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
        finally:
            signal.signal(signal.SIGALRM, previous)


class TestRetrySemantics:
    def test_n_minus_one_failures_then_success_is_exactly_n_attempts(self):
        """Chaos fails attempts 1 and 2; with retries=2 the job must
        settle done on attempt 3 -- no more, no fewer."""
        plan = FaultPlan(seed=0, points=[
            FaultPoint("worker.error", attempts=(1, 2))])
        with injected(plan):
            outcome = run_sweep(
                [_job("echo_task", value=7)], num_workers=1,
                config=_fast_config(retries=2),
            )
        (settled,) = outcome.outcomes
        assert settled.status == "done"
        assert settled.result == {"echo": 7}
        assert settled.attempts == 3

    def test_exhausted_retries_settle_with_the_last_error(self):
        plan = FaultPlan(seed=0, points=[
            FaultPoint("worker.error", attempts=(1, 2))])
        with injected(plan):
            outcome = run_sweep(
                [_job("echo_task", value=7)], num_workers=1,
                config=_fast_config(retries=1),
            )
        (settled,) = outcome.outcomes
        assert settled.status == "error"
        assert settled.attempts == 2
        assert "chaos: injected worker error" in settled.error

    def test_in_process_crash_degrades_to_a_structured_error(self):
        """worker.crash in serial mode must not kill the test process."""
        plan = FaultPlan(seed=0, points=[
            FaultPoint("worker.crash", attempts=(1,))])
        with injected(plan):
            outcome = run_sweep(
                [_job("echo_task", value=1)], num_workers=1,
                config=_fast_config(retries=1),
            )
        (settled,) = outcome.outcomes
        assert settled.status == "done"
        assert settled.attempts == 2

    def test_chaos_timeout_site_settles_as_timeout(self):
        plan = FaultPlan(seed=0, points=[
            FaultPoint("worker.timeout", attempts=())])
        with injected(plan):
            outcome = run_sweep(
                [_job("echo_task", value=1)], num_workers=1,
                config=_fast_config(retries=0),
            )
        (settled,) = outcome.outcomes
        assert settled.status == "timeout"
        assert settled.attempts == 1


class TestIsolationPass:
    """After a worker crash each suspect re-runs alone in a fresh pool,
    through the same round as every other pooled attempt: a cancel
    reaches the retry, and a drain lets it finish."""

    def test_crash_retry_is_charged_to_the_crasher(self):
        plan = FaultPlan(seed=0, points=[
            FaultPoint("worker.crash", attempts=(1,))])
        outcome = run_sweep(
            [_job("sleep_task", sleep_seconds=0.2)], num_workers=2,
            config=_fast_config(retries=2), chaos=plan,
            handle_signals=False)
        (settled,) = outcome.outcomes
        assert settled.status == "done"
        assert settled.attempts == 2

    def test_cancel_during_the_crash_retry_settles_cancelled(self):
        """The shared round crashes (free), the isolation pass crashes
        again (attempt 1, charged), and attempt 2 sleeps: a cancel
        raised while it sleeps must not wait for the sleep to end."""
        plan = FaultPlan(seed=0, points=[
            FaultPoint("worker.crash", attempts=(1,))])
        cancel_at = time.monotonic() + 1.5
        outcome = run_sweep(
            [_job("sleep_task", sleep_seconds=5.0)], num_workers=2,
            config=_fast_config(retries=2), chaos=plan,
            handle_signals=False,
            cancel_check=lambda: time.monotonic() >= cancel_at)
        settled_after = time.monotonic() - cancel_at
        (settled,) = outcome.outcomes
        assert settled.status == "cancelled"
        assert settled_after < 1.0

    def test_drain_settles_the_suspect_in_flight_only(self):
        """Both jobs are casualties of one broken pool.  A drain raised
        while the sleeper runs alone lets it settle; the crasher,
        whichever order the pass takes, stays unsettled for resume."""
        crasher = _job("echo_task", value=1)
        sleeper = _job("sleep_task", sleep_seconds=3.0)
        plan = FaultPlan(seed=0, points=[
            FaultPoint("worker.crash", match=crasher.key, attempts=())])
        stop = threading.Event()
        timer = threading.Timer(1.2, stop.set)
        timer.start()
        try:
            outcome = run_sweep(
                [crasher, sleeper], num_workers=2,
                config=_fast_config(retries=2), chaos=plan,
                handle_signals=False, stop_event=stop)
        finally:
            timer.cancel()
        assert outcome.interrupted
        (settled,) = outcome.outcomes
        assert settled.job.key == sleeper.key
        assert settled.status == "done"


class TestBackoff:
    def test_delays_are_exponential_and_monotone(self):
        config = RunnerConfig(backoff_seconds=0.1, backoff_factor=2.0,
                              backoff_jitter=0.5, backoff_max_seconds=60.0)
        delays = [config.backoff_delay(a, key="job") for a in range(1, 8)]
        assert all(b >= a for a, b in zip(delays, delays[1:]))
        # Jitter only stretches: every delay sits in [base, base*(1+j)].
        for attempt, delay in enumerate(delays, start=1):
            base = 0.1 * 2.0 ** (attempt - 1)
            assert base <= delay <= base * 1.5 + 1e-12

    def test_delays_are_capped(self):
        config = RunnerConfig(backoff_seconds=1.0, backoff_factor=2.0,
                              backoff_jitter=0.0, backoff_max_seconds=3.0)
        assert config.backoff_delay(10) == 3.0

    def test_jitter_is_deterministic_and_key_dependent(self):
        config = RunnerConfig(backoff_seconds=1.0, backoff_jitter=0.5)
        assert config.backoff_delay(2, key="a") \
            == config.backoff_delay(2, key="a")
        assert config.backoff_delay(2, key="a") \
            != config.backoff_delay(2, key="b")

    def test_jitter_beyond_factor_minus_one_is_rejected(self):
        # A larger jitter could reorder delays (attempt n+1 sooner than
        # attempt n), so the config refuses it outright.
        with pytest.raises(ModelingError, match="monotone"):
            RunnerConfig(backoff_factor=1.5, backoff_jitter=0.9)

    def test_serial_retries_sleep_the_configured_backoff(self, monkeypatch):
        # Backoff waits run through the stop controller (so a drain
        # request can cut them short), not a bare time.sleep.
        slept = []
        monkeypatch.setattr(
            executor._StopController, "wait",
            lambda self, seconds: (slept.append(seconds), False)[1])
        config = RunnerConfig(retries=2, backoff_seconds=0.125,
                              backoff_factor=2.0, backoff_jitter=0.0)
        plan = FaultPlan(seed=0, points=[
            FaultPoint("worker.error", attempts=(1, 2))])
        with injected(plan):
            outcome = run_sweep([_job("echo_task", value=1)],
                                num_workers=1, config=config)
        assert outcome.outcomes[0].status == "done"
        key = outcome.outcomes[0].job.key
        assert slept == [config.backoff_delay(1, key=key),
                         config.backoff_delay(2, key=key)]
        assert slept == [0.125, 0.25]


class TestFailureBudget:
    def test_budget_exhaustion_settles_before_retries_run_out(self):
        """A zero budget means the first failure is also the last, even
        with plenty of retries left -- and the error says why."""
        plan = FaultPlan(seed=0, points=[
            FaultPoint("worker.error", attempts=())])
        with injected(plan):
            outcome = run_sweep(
                [_job("echo_task", value=1)], num_workers=1,
                config=_fast_config(retries=5,
                                    failure_budget_seconds=0.0),
            )
        (settled,) = outcome.outcomes
        assert settled.status == "error"
        assert settled.attempts == 1
        assert "failure budget exhausted" in settled.error

    def test_no_budget_means_retries_govern(self):
        plan = FaultPlan(seed=0, points=[
            FaultPoint("worker.error", attempts=())])
        with injected(plan):
            outcome = run_sweep(
                [_job("echo_task", value=1)], num_workers=1,
                config=_fast_config(retries=2),
            )
        (settled,) = outcome.outcomes
        assert settled.status == "error"
        assert settled.attempts == 3
        assert "failure budget" not in settled.error
