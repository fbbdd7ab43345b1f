"""Parallel, fault-tolerant execution of sweep jobs.

The executor turns a :class:`~repro.runner.jobs.SweepSpec` (or an
explicit job list) into settled :class:`JobOutcome` records:

* **Parallelism** -- jobs run on a :class:`ProcessPoolExecutor`
  (``num_workers > 1``) or in-process (``num_workers == 1``, the
  deterministic-debugging mode).  MILP solves are CPU-bound and the
  GIL-free process pool is what lets a campaign saturate a machine.
* **Timeouts** -- each job gets a wall-clock budget derived from its
  solver ``time_limit`` (:meth:`RunnerConfig.wall_timeout_for`),
  enforced *inside* the worker with a POSIX interval timer so a wedged
  encode or solve cannot pin a pool slot forever.
* **Graceful degradation** -- a job that raises, times out, or hard-
  crashes its worker settles with a *structured error* after bounded
  retries with exponential backoff (deterministically jittered, capped)
  and an optional per-job failure budget; the campaign always
  completes.  A worker crash breaks the whole pool, so recovery
  requeues the casualties free of charge and re-runs them one-per-pool
  to pin the crash on the job that caused it (see :func:`_run_pool`).
  A caller that runs one job after another (a service slot) can hand
  in a :class:`WarmWorker`, whose one process then serves every shared
  round instead of a pool forked per call.
* **Caching / resumability** -- before running, each job key is checked
  against the result cache and (under ``resume=True``) the journal;
  hits settle instantly as ``cached`` / ``resumed``.
* **Graceful shutdown** -- ``SIGINT``/``SIGTERM`` (or a caller-provided
  ``stop_event``) drains instead of dying: no new jobs start, in-flight
  attempts settle and journal normally, a final ``interrupted`` journal
  record and progress heartbeat are flushed, and the outcome reports
  ``interrupted=True``.  A second signal aborts hard.  The analysis
  service (:mod:`repro.service`) reuses this for clean drain-on-stop.
* **Chaos self-test** -- ``run_sweep(..., chaos=FaultPlan(...))``
  (or an ambient :func:`repro.resilience.install_plan`) ships a
  deterministic fault plan into every worker; the ``worker.*``
  injection sites in :func:`invoke_job` then crash, wedge, or fail jobs
  at seeded points so the recovery machinery above can be exercised on
  demand (:mod:`repro.resilience.faults`).

Workers receive nothing but the job payload (pure JSON), so any
importable ``module:function`` can serve as a task.  The default task,
:func:`degradation_task`, rebuilds the instance from its serialized
documents and runs one :class:`~repro.core.analyzer.RahaAnalyzer`
analysis -- the same code path as the serial CLI/benchmarks, which is
what makes parallel and serial campaigns numerically identical.
"""

from __future__ import annotations

import importlib
import os
import signal
import threading
import time
import traceback
from concurrent.futures import (
    FIRST_COMPLETED,
    ProcessPoolExecutor,
    wait as futures_wait,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field

from repro.core.config import RunnerConfig
from repro.exceptions import ModelingError, SolverError
from repro.obs.trace import (Tracer, current_tracer, shadow_tracer,
                             unshadow_tracer)
from repro.resilience.faults import FaultPlan, active_plan, install_plan
from repro.runner.cache import ResultCache, job_key
from repro.runner.jobs import Job, SweepSpec
from repro.runner.journal import Journal
from repro.runner.progress import ProgressTracker


@dataclass
class JobOutcome:
    """How one job settled.

    Attributes:
        job: The descriptor (payload + key + label).
        status: ``done`` (solved now), ``cached`` (result cache hit),
            ``resumed`` (journal hit under ``--resume``), ``error`` or
            ``timeout`` (structured failure after retries), or
            ``cancelled`` (a cooperative ``cancel_check`` fired before
            the job settled).
        result: The task's result dict (``None`` on failure).
        error: Human-readable failure description (``None`` on success).
        attempts: Execution attempts consumed (0 for cache/journal hits).
        seconds: Wall time of the final attempt.
        spans: Serialized trace spans from the job's worker process, when
            the campaign ran with tracing enabled (``None`` otherwise).
            These live on the outcome only -- never in the cache or the
            journal, so old caches stay valid and trace runs stay
            byte-compatible with untraced ones.
    """

    job: Job
    status: str
    result: dict | None = None
    error: str | None = None
    attempts: int = 0
    seconds: float = 0.0
    spans: list[dict] | None = field(default=None, repr=False)

    @property
    def ok(self) -> bool:
        """Whether the job produced a result."""
        return self.status in ("done", "cached", "resumed")


@dataclass
class SweepOutcome:
    """A settled campaign: one outcome per unique job, in job order.

    Under a graceful shutdown (SIGINT/SIGTERM, or a caller-provided
    ``stop_event``), ``interrupted`` is True and ``outcomes`` holds only
    the jobs that settled before the drain finished -- the rest simply
    re-run under ``--resume``.
    """

    outcomes: list[JobOutcome]
    wall_seconds: float = 0.0
    interrupted: bool = False

    def counts(self) -> dict[str, int]:
        """Status -> how many jobs settled that way."""
        out: dict[str, int] = {}
        for outcome in self.outcomes:
            out[outcome.status] = out.get(outcome.status, 0) + 1
        return out

    @property
    def num_errors(self) -> int:
        """Jobs that settled with a structured error."""
        return sum(1 for o in self.outcomes if not o.ok)

    @property
    def num_cached(self) -> int:
        """Jobs answered without solving (cache or journal)."""
        return sum(1 for o in self.outcomes
                   if o.status in ("cached", "resumed"))

    @property
    def solver_seconds(self) -> float:
        """Total reported solver time across successful jobs."""
        return sum((o.result or {}).get("solve_seconds", 0.0)
                   for o in self.outcomes)

    def stats_totals(self) -> dict[str, float]:
        """Aggregated :class:`SolveStats` telemetry over jobs reporting it.

        Returns:
            ``{"jobs_with_stats", "build_seconds", "compile_seconds",
            "solve_seconds", "max_abs_coefficient"}`` -- the build/compile
            split the sweep summary line prints (zeros when no job
            carried telemetry, e.g. all-cached campaigns from old runs).
        """
        totals = {
            "jobs_with_stats": 0.0,
            "build_seconds": 0.0,
            "compile_seconds": 0.0,
            "solve_seconds": 0.0,
            "max_abs_coefficient": 0.0,
        }
        for outcome in self.outcomes:
            stats = (outcome.result or {}).get("stats")
            if not stats:
                continue
            totals["jobs_with_stats"] += 1
            totals["build_seconds"] += float(stats.get("build_seconds", 0.0))
            totals["compile_seconds"] += float(
                stats.get("compile_seconds", 0.0))
            totals["solve_seconds"] += float(stats.get("solve_seconds", 0.0))
            totals["max_abs_coefficient"] = max(
                totals["max_abs_coefficient"],
                float(stats.get("max_abs_coefficient", 0.0)),
            )
        return totals

    def phase_totals(self) -> dict[str, dict[str, float]]:
        """Per-phase span totals across every traced job.

        Rolls every job's worker spans up by span name --
        ``{"analyze": {"seconds": ..., "count": ...}, "milp_solve": ...}``
        -- the campaign-level view of where wall time went.  Empty when
        the sweep ran without tracing.
        """
        from repro.obs.sinks import phase_totals
        return phase_totals(
            [doc for o in self.outcomes for doc in (o.spans or [])]
        )

    def results(self) -> list[dict]:
        """Result dicts of the successful jobs, in job order."""
        return [o.result for o in self.outcomes if o.ok]

    def errors(self) -> list[JobOutcome]:
        """The failed outcomes."""
        return [o for o in self.outcomes if not o.ok]

    def raise_on_error(self) -> None:
        """Raise :class:`SolverError` if any job failed."""
        failed = self.errors()
        if failed:
            details = "; ".join(
                f"{o.job.label}: {o.error}" for o in failed[:5]
            )
            raise SolverError(
                f"{len(failed)} sweep job(s) failed: {details}"
            )


class _WallTimeout(Exception):
    """Raised by the in-worker interval timer when a job overruns."""


def _on_alarm(signum, frame):
    raise _WallTimeout()


class _StopController:
    """Cooperative-stop plumbing for a campaign.

    Wraps a :class:`threading.Event` and, when asked (and running on the
    main thread, where signal handlers are legal), wires ``SIGINT`` and
    ``SIGTERM`` to it for the duration of a ``with`` block:

    * the **first** signal requests a graceful drain -- no new jobs
      start, in-flight attempts finish, the journal gets a final
      ``interrupted`` record, and a closing progress heartbeat fires;
    * a **second** signal aborts hard (``KeyboardInterrupt``), for the
      operator who meant it.

    Callers that already own a stop signal (the analysis service's
    drain-on-stop) pass their event and opt out of signal handling.
    """

    def __init__(self, stop_event: threading.Event | None,
                 handle_signals: bool):
        self.event = stop_event if stop_event is not None \
            else threading.Event()
        self._handle = (
            handle_signals
            and threading.current_thread() is threading.main_thread()
        )
        self._previous: dict[int, object] = {}

    def __enter__(self) -> "_StopController":
        if self._handle:
            for signum in (signal.SIGINT, signal.SIGTERM):
                try:
                    self._previous[signum] = signal.signal(
                        signum, self._on_signal)
                except (ValueError, OSError, AttributeError):
                    pass
        return self

    def __exit__(self, *exc) -> None:
        for signum, previous in self._previous.items():
            try:
                signal.signal(signum, previous)
            except (ValueError, OSError):
                pass
        self._previous.clear()

    def _on_signal(self, signum, frame) -> None:
        if self.event.is_set():
            raise KeyboardInterrupt
        self.event.set()

    @property
    def stopped(self) -> bool:
        """Whether a drain has been requested."""
        return self.event.is_set()

    def wait(self, seconds: float) -> bool:
        """Sleep up to ``seconds``; True if a stop arrived meanwhile."""
        return self.event.wait(seconds)


def resolve_task(ref: str):
    """Import a ``module:function`` task reference."""
    module_name, _, func_name = ref.partition(":")
    if not module_name or not func_name:
        raise ModelingError(f"bad task reference {ref!r}")
    module = importlib.import_module(module_name)
    try:
        return getattr(module, func_name)
    except AttributeError as exc:
        raise ModelingError(f"task {ref!r} not found") from exc


def _fire_worker_faults(plan: FaultPlan, key: str, attempt: int,
                        in_worker: bool) -> None:
    """Consult the chaos plan's ``worker.*`` sites for this attempt.

    ``worker.crash`` hard-exits the process only when it genuinely is a
    pool worker (``in_worker=True``); in-process it degrades to an
    exception so serial/test runs see a structured error instead of
    the test runner dying.
    """
    if plan.fires("worker.crash", key=key, attempt=attempt):
        if in_worker:
            os._exit(13)
        raise RuntimeError(
            "chaos: injected worker crash (in-process, degraded to error)")
    if plan.fires("worker.timeout", key=key, attempt=attempt):
        raise _WallTimeout()
    if plan.fires("worker.error", key=key, attempt=attempt):
        raise RuntimeError("chaos: injected worker error")
    if plan.fires("worker.hang", key=key, attempt=attempt):
        # A wedged worker: sleeps far past any heartbeat cadence while
        # holding its claim, so the job's lease expires and the service
        # reaper requeues it.  Bounded (overridable via the environment)
        # so chaos tests and CI drains terminate; the eventual wake
        # fails the attempt, and the stale settle is refused upstream.
        hang = float(os.environ.get("REPRO_CHAOS_HANG_SECONDS", "5.0"))
        time.sleep(hang)
        raise RuntimeError(
            f"chaos: injected worker hang (woke after {hang:g}s)")


def invoke_job(payload: dict, wall_timeout: float | None,
               attempt: int = 1, chaos: dict | None = None,
               in_worker: bool = False, trace: bool = False) -> dict:
    """Run one job payload and report success/failure as plain data.

    This is the function worker processes execute.  It never raises:
    task exceptions and wall-timeout overruns come back as structured
    failure dicts so one bad job cannot take down the campaign.  The
    wall timeout uses ``SIGALRM`` (worker processes run tasks on their
    main thread); when signals are unavailable the solver's own
    ``time_limit`` remains the effective bound.

    The interval timer is armed *inside* the ``try`` and the previous
    ``SIGALRM`` disposition is always restored in ``finally`` -- even
    when arming itself fails -- so a caller's signal handling can never
    be corrupted by a job.

    Args:
        payload: The job payload (pure JSON, carries its task ref).
        wall_timeout: Wall-clock budget in seconds, or ``None``.
        attempt: 1-based execution attempt, forwarded so the chaos
            plan can make transient faults (fail attempt 1, pass the
            retry) deterministic.
        chaos: Serialized :class:`FaultPlan` (``plan.to_dict()``)
            shipped across the process boundary; installed as this
            process's active plan for the duration of the job.
        in_worker: True when running inside a dedicated pool worker --
            enables genuinely destructive faults (``worker.crash``
            hard-exits the process).
        trace: Collect structured trace spans for this job.  A fresh
            :class:`~repro.obs.trace.Tracer` shadows the ambient tracer
            for the job's duration -- thread-locally, so a campaign
            tracer in the parent never sees half-merged worker spans
            and sibling threads running serial jobs never clobber each
            other's shadow --
            and its export rides back in the envelope under ``"spans"``
            -- on failures and timeouts too, which is exactly when the
            partial trace is most useful.
    """
    started = time.monotonic()
    job_tracer = Tracer() if trace else None
    # Thread-local shadow, not a global install: sibling threads each
    # running serial jobs must not clobber each other's (or the
    # process's) ambient tracer.
    previous_tracer = shadow_tracer(job_tracer) if trace else None

    def envelope(doc: dict) -> dict:
        if job_tracer is not None:
            doc["spans"] = job_tracer.export()
        return doc

    use_alarm = (
        wall_timeout is not None
        and hasattr(signal, "setitimer")
        and threading.current_thread() is threading.main_thread()
    )
    unset = object()
    previous = unset
    if chaos is not None:
        # Shipped across a process boundary: install for the job's
        # duration so in-task sites (solver.time_limit, ...) fire too.
        plan = FaultPlan.from_dict(chaos)
        previous_plan = install_plan(plan)
        plan_installed = True
    else:
        # In-process call: share the ambient plan (and its fire
        # counters) rather than shadowing it with a fresh copy.
        plan = active_plan()
        plan_installed = False
    try:
        if use_alarm:
            previous = signal.signal(signal.SIGALRM, _on_alarm)
            signal.setitimer(signal.ITIMER_REAL, wall_timeout)
        if plan is not None:
            _fire_worker_faults(plan, job_key(payload), attempt, in_worker)
        task = resolve_task(payload["task"])
        result = task(payload)
        return envelope({"ok": True, "result": result,
                         "seconds": time.monotonic() - started})
    except _WallTimeout:
        error = ("job timed out (chaos-injected)" if wall_timeout is None
                 else f"job exceeded its wall timeout of {wall_timeout:g}s")
        return envelope({
            "ok": False, "status": "timeout",
            "error": error,
            "seconds": time.monotonic() - started,
        })
    except Exception as exc:
        return envelope({
            "ok": False, "status": "error",
            "error": f"{type(exc).__name__}: {exc}",
            "traceback": traceback.format_exc(),
            "seconds": time.monotonic() - started,
        })
    finally:
        if previous is not unset:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        if plan_installed:
            install_plan(previous_plan)
        if trace:
            unshadow_tracer(previous_tracer)


def degradation_task(payload: dict) -> dict:
    """The default task: one Raha degradation analysis per job.

    Rebuilds the topology/demands/paths from the payload's embedded
    documents, assembles a :class:`~repro.core.config.RahaConfig` from
    the parameter cell, and runs the analyzer -- byte-for-byte the
    serial code path, so a parallel sweep reproduces serial numbers.

    With ``params["allow_partial"]`` truthy, an incumbent-free solver
    time limit degrades to a partial-result dict (``"partial": True``
    with a ``degradation_bound`` from the LP relaxation and its
    provenance) instead of failing the job -- see
    :class:`~repro.core.config.ResilienceConfig`.
    """
    from repro.core.analyzer import RahaAnalyzer
    from repro.core.config import RahaConfig, ResilienceConfig
    from repro.network import serialization as ser
    from repro.network.demand import demand_envelope

    instance = payload["instance"]
    params = payload["params"]
    topology = ser.topology_from_dict(instance["topology"])
    paths = _resolve_paths(topology, instance, params)
    mode = params.get("demand_mode", "fixed")

    def demands_for(*keys):
        for key in keys:
            if instance.get(key) is not None:
                return ser.demands_from_dict(instance[key])
        raise ModelingError(
            f"demand mode {mode!r} needs one of {keys} in the instance"
        )

    kwargs = dict(
        objective=params.get("objective", "total_flow"),
        probability_threshold=params.get("threshold"),
        max_failures=params.get("max_failures"),
        connected_enforced=bool(params.get("connected_enforced", False)),
        time_limit=params.get("time_limit", 1000.0),
        mip_rel_gap=params.get("mip_rel_gap"),
    )
    if params.get("allow_partial"):
        kwargs["resilience"] = ResilienceConfig(allow_partial=True)
    if mode == "avg":
        config = RahaConfig(
            fixed_demands=dict(demands_for("avg_demands", "demands")),
            **kwargs)
    elif mode in ("max", "fixed"):
        config = RahaConfig(
            fixed_demands=dict(demands_for("peak_demands", "demands")),
            **kwargs)
    elif mode == "variable":
        demands = demands_for("peak_demands", "demands")
        config = RahaConfig(
            demand_bounds=demand_envelope(
                demands, slack=params.get("slack", 0.0)),
            **kwargs)
    else:
        raise ModelingError(f"unknown demand mode {mode!r}")

    result = RahaAnalyzer(topology, paths, config).analyze()
    if result.is_partial:
        return {
            "demand_mode": mode,
            "threshold": params.get("threshold"),
            "max_failures": params.get("max_failures"),
            "connected_enforced": kwargs["connected_enforced"],
            "objective": kwargs["objective"],
            "partial": True,
            "status": result.status,
            "degradation_bound": result.bound,
            "normalized_bound": result.normalized_bound,
            "provenance": list(result.provenance),
            "time_limits_tried": list(result.time_limits_tried),
            "solve_seconds": result.solve_seconds,
            "encode_seconds": result.encode_seconds,
            "stats": result.solver_stats,
        }
    return {
        "demand_mode": mode,
        "threshold": params.get("threshold"),
        "max_failures": params.get("max_failures"),
        "connected_enforced": kwargs["connected_enforced"],
        "objective": kwargs["objective"],
        "degradation": result.degradation,
        "normalized_degradation": result.normalized_degradation,
        "healthy_value": result.healthy_value,
        "failed_value": result.failed_value,
        "scenario_probability": result.scenario_probability,
        "num_failed_links": result.scenario.num_failed_links,
        "status": result.status,
        "verified": result.verified,
        "solve_seconds": result.solve_seconds,
        "encode_seconds": result.encode_seconds,
        "stats": result.solver_stats,
    }


def _resolve_paths(topology, instance: dict, params: dict):
    """A job's path set: embedded document, or computed in the worker."""
    from repro.network.demand import all_pairs
    from repro.network import serialization as ser

    if instance.get("paths") is not None:
        return ser.paths_from_dict(instance["paths"])
    path_config = instance.get("path_config")
    if path_config is None:
        raise ModelingError(
            "the instance needs either a 'paths' document or a "
            "'path_config' ({pairs, num_primary, num_backup, weighted})"
        )
    pairs = path_config.get("pairs", "all")
    if pairs == "all":
        pairs = all_pairs(topology)
    else:
        pairs = [tuple(pair) for pair in pairs]
    num_primary = int(path_config.get("num_primary", 2))
    num_backup = int(path_config.get("num_backup", 1))
    if path_config.get("weighted"):
        from repro.paths.weighted import diversity_weighted_paths

        return diversity_weighted_paths(
            topology, pairs, num_primary=num_primary, num_backup=num_backup)
    from repro.paths.pathset import PathSet

    return PathSet.k_shortest(
        topology, pairs, num_primary=num_primary, num_backup=num_backup)


#: How often the pooled wait loop re-polls a caller's ``cancel_check``
#: while futures are in flight (only when one is installed; without it
#: the loop blocks until a future completes, exactly as before).
_CANCEL_POLL_SECONDS = 0.1


@dataclass
class _Campaign:
    """Mutable bookkeeping shared by the serial and pooled loops."""

    config: RunnerConfig
    cache: ResultCache | None
    journal: Journal | None
    tracker: ProgressTracker
    progress: object  # callable(ProgressEvent) or None
    outcomes: dict[str, JobOutcome] = field(default_factory=dict)
    #: Serialized fault plan shipped with every pool submission, or None.
    chaos_doc: dict | None = None
    #: The campaign tracer (the ambient NULL_TRACER when tracing is off).
    tracer: object = None
    #: Cooperative-stop controller (graceful shutdown / service drain).
    stop: _StopController = field(
        default_factory=lambda: _StopController(None, False))
    #: Cooperative-cancel callable polled between job dispatches (the
    #: analysis service's DELETE-a-running-analysis path); None = never.
    cancel_check: object = None

    @property
    def trace_jobs(self) -> bool:
        """Whether workers should collect and ship spans."""
        return self.tracer is not None and self.tracer.enabled

    def cancel_requested(self) -> bool:
        """Whether the caller's cancel flag has been raised."""
        return bool(self.cancel_check is not None and self.cancel_check())

    def settle(self, job: Job, outcome: JobOutcome) -> None:
        self.outcomes[job.key] = outcome
        if self.journal is not None:
            self.journal.append({
                "event": "job",
                "key": job.key,
                "label": job.label,
                "status": outcome.status,
                "result": outcome.result if outcome.ok else None,
                "error": outcome.error,
                "attempts": outcome.attempts,
                "seconds": round(outcome.seconds, 6),
            })
        if outcome.status == "done" and self.cache is not None:
            self.cache.put(job.key, outcome.result)
        if self.trace_jobs:
            # The job's wall time was measured in the worker; record it
            # retroactively and hang the worker's spans beneath it,
            # re-id'd with the job key so two workers' ids never collide.
            parent = self.tracer.record(
                "job", outcome.seconds, key=job.key, label=job.label,
                status=outcome.status, attempts=outcome.attempts,
            )
            if outcome.spans:
                self.tracer.merge(outcome.spans, parent_id=parent,
                                  prefix=f"{job.key}:")
        event = self.tracker.note(
            outcome.status, job.label,
            solver_seconds=(outcome.result or {}).get("solve_seconds", 0.0),
            stats=(outcome.result or {}).get("stats"),
            spans=outcome.spans,
        )
        if self.progress is not None:
            self.progress(event)


def _wall_timeout_for(job: Job, explicit: float | None,
                      config: RunnerConfig) -> float | None:
    if explicit is not None:
        return explicit
    return config.wall_timeout_for(job.params.get("time_limit"))


def run_sweep(
    spec_or_jobs,
    *,
    num_workers: int | None = None,
    cache: ResultCache | str | os.PathLike | None = None,
    journal: Journal | str | os.PathLike | None = None,
    resume: bool = False,
    wall_timeout: float | None = None,
    progress=None,
    config: RunnerConfig | None = None,
    chaos: FaultPlan | dict | None = None,
    tracer=None,
    stop_event: threading.Event | None = None,
    handle_signals: bool = True,
    cancel_check=None,
    attempt_base: int = 0,
    warm_worker: WarmWorker | None = None,
) -> SweepOutcome:
    """Run a campaign to completion and return every job's outcome.

    Args:
        spec_or_jobs: A :class:`SweepSpec` or an iterable of
            :class:`Job`; duplicate job keys are collapsed.
        num_workers: Worker processes (overrides ``config``); ``1``
            executes in-process.
        cache: Result cache (or a directory path for one); successful
            jobs are written through, and hits settle as ``cached``.
        journal: Checkpoint journal (or a path for one); every settled
            job is appended, making the campaign resumable.
        resume: Replay the journal first and skip settled jobs
            (``done``/``cached`` records; failures re-run).
        wall_timeout: Per-job wall budget override in seconds; default
            derives from each job's ``time_limit`` via ``config``.
        progress: Callback receiving a
            :class:`~repro.runner.progress.ProgressEvent` per settled job.
        config: Runner knobs (:class:`~repro.core.config.RunnerConfig`).
        chaos: A :class:`~repro.resilience.FaultPlan` (or its
            ``to_dict()`` form) to inject deterministic faults: it is
            installed as this process's active plan for the duration of
            the sweep (cache/journal sites) and shipped into every
            worker (worker/solver sites).  When omitted, a plan already
            installed via :func:`repro.resilience.install_plan` /
            ``injected()`` is picked up and shipped the same way.  No
            plan anywhere means the chaos path is completely inert.
        tracer: A :class:`~repro.obs.trace.Tracer` collecting the
            campaign trace.  When omitted, the ambient tracer
            (:func:`repro.obs.trace.current_tracer`) is used -- the
            no-op default unless the caller installed one, so untraced
            sweeps pay nothing.  With tracing on, every job runs with
            ``invoke_job(..., trace=True)``: the worker collects spans
            and ships them back in its envelope, and the parent merges
            them under per-job spans inside one ``sweep`` root span.
        stop_event: A :class:`threading.Event` requesting a graceful
            drain: once set, no new jobs start, in-flight attempts
            finish and settle (journaled as usual), the journal gets a
            final ``interrupted`` record, and the outcome comes back
            with ``interrupted=True``.  The analysis service passes its
            own event here for drain-on-stop.
        handle_signals: Wire ``SIGINT``/``SIGTERM`` to the stop event
            for the duration of the sweep (main thread only; the
            previous dispositions are restored on exit).  The first
            signal drains gracefully -- so an interrupt can no longer
            lose the tail of the resume journal -- and a second one
            aborts hard with :class:`KeyboardInterrupt`.
        cancel_check: Optional zero-argument callable polled between
            job dispatches (every :data:`_CANCEL_POLL_SECONDS` while
            pool futures are in flight).  Once it returns True, every
            unsettled job settles with status ``cancelled`` and
            in-flight worker attempts are abandoned (their processes
            finish their current task and exit; no result is recorded).
            Unlike ``stop_event`` -- which *drains* (in-flight attempts
            settle normally, unstarted jobs stay unsettled for resume)
            -- a cancel is an answer: the jobs settle, as cancelled.
            The analysis service polls its store's per-job
            ``cancel_requested`` flag through this.
        attempt_base: Start every job's attempt numbering here instead
            of at zero.  The analysis service passes its store-level
            claim count, so attempt numbers -- which key both the retry
            budget and the chaos plan's ``attempts`` matching -- stay
            continuous across crashes, restarts, and lease reaps: a
            fault scoped to ``attempts: [1]`` fires once per *job*,
            not once per claim of it.
        warm_worker: A :class:`WarmWorker` that runs the pooled path's
            shared rounds in its one reusable process, instead of a
            pool built and joined for this call.  It is retired after
            a broken pool, any attempt that did not return ok, or a
            cancel that abandons an in-flight attempt; isolation rounds
            still run in fresh pools.  Unused when ``num_workers`` is 1.

    Returns:
        A :class:`SweepOutcome`; inspect ``.errors()`` or call
        ``.raise_on_error()`` depending on whether partial results are
        acceptable.
    """
    config = config or RunnerConfig()
    workers = num_workers if num_workers is not None \
        else config.resolved_workers()
    if workers < 1:
        raise ModelingError(f"num_workers must be >= 1, got {workers}")
    if isinstance(cache, (str, os.PathLike)):
        cache = ResultCache(cache)
    if isinstance(journal, (str, os.PathLike)):
        journal = Journal(journal)

    if isinstance(spec_or_jobs, SweepSpec):
        jobs = spec_or_jobs.expand()
    else:
        jobs, seen = [], set()
        for job in spec_or_jobs:
            if job.key not in seen:
                seen.add(job.key)
                jobs.append(job)

    if chaos is not None:
        plan = chaos if isinstance(chaos, FaultPlan) \
            else FaultPlan.from_dict(chaos)
        previous_plan = install_plan(plan)
        plan_installed = True
    else:
        plan = active_plan()
        previous_plan = None
        plan_installed = False

    started = time.monotonic()
    stopper = _StopController(stop_event, handle_signals)
    campaign = _Campaign(
        config=config, cache=cache, journal=journal,
        tracker=ProgressTracker(total=len(jobs)), progress=progress,
        chaos_doc=plan.to_dict() if plan is not None else None,
        tracer=tracer if tracer is not None else current_tracer(),
        stop=stopper,
        cancel_check=cancel_check,
    )
    try:
        # ``concurrent`` tells the trace validator that this span's
        # children (the per-job spans) may overlap in wall time, so
        # their durations legitimately sum past the parent's.
        with stopper, campaign.tracer.span(
            "sweep", total=len(jobs), workers=workers,
            concurrent=workers > 1,
        ):
            if journal is not None:
                settled_records = journal.settled() if resume else {}
                journal.append({
                    "event": "campaign", "total": len(jobs),
                    "workers": workers, "resume": resume,
                })
            else:
                settled_records = {}

            pending: list[Job] = []
            for job in jobs:
                record = settled_records.get(job.key)
                if record is not None:
                    campaign.settle(job, JobOutcome(
                        job=job, status="resumed",
                        result=record.get("result"),
                    ))
                    continue
                cached = cache.get(job.key) if cache is not None else None
                if cached is not None:
                    campaign.settle(job, JobOutcome(
                        job=job, status="cached", result=cached,
                    ))
                    continue
                pending.append(job)

            if pending and not stopper.stopped:
                if workers == 1:
                    _run_serial(pending, campaign, wall_timeout,
                                attempt_base)
                else:
                    _run_pool(pending, campaign, wall_timeout, workers,
                              attempt_base, warm_worker)

            if stopper.stopped:
                # Drain epilogue: flush a terminal journal record (so
                # the on-disk tail marks a clean interruption, not a
                # crash) and emit one closing heartbeat.
                if journal is not None:
                    journal.append({
                        "event": "interrupted",
                        "settled": len(campaign.outcomes),
                        "total": len(jobs),
                    })
                if progress is not None:
                    progress(campaign.tracker.snapshot(
                        "interrupted",
                        f"drained: {len(campaign.outcomes)}/{len(jobs)} "
                        f"settled, journal flushed",
                    ))
    finally:
        if plan_installed:
            install_plan(previous_plan)

    return SweepOutcome(
        outcomes=[campaign.outcomes[job.key] for job in jobs
                  if job.key in campaign.outcomes],
        wall_seconds=time.monotonic() - started,
        interrupted=stopper.stopped,
    )


def _cancelled_outcome(job: Job) -> JobOutcome:
    return JobOutcome(job=job, status="cancelled",
                      error="cancelled by client (cooperative cancel)")


def _outcome_from(job: Job, res: dict, attempts: int) -> JobOutcome:
    if res["ok"]:
        return JobOutcome(job=job, status="done", result=res["result"],
                          attempts=attempts, seconds=res["seconds"],
                          spans=res.get("spans"))
    return JobOutcome(job=job, status=res.get("status", "error"),
                      error=res.get("error"), attempts=attempts,
                      seconds=res.get("seconds", 0.0),
                      spans=res.get("spans"))


def _charge_failure(job: Job, res: dict, attempt: int,
                    failed_seconds: float,
                    config: RunnerConfig) -> JobOutcome | None:
    """Decide the fate of a failed attempt: settle now, or retry.

    Returns a settled :class:`JobOutcome` when the job has spent its
    retry count *or* its failure budget (cumulative wall seconds of
    failed attempts, ``RunnerConfig.failure_budget_seconds``), else
    ``None`` meaning "retry after backoff".  Budget exhaustion is
    recorded in the error text so the operator can tell a poisonous
    job from an unlucky one.
    """
    if attempt > config.retries:
        return _outcome_from(job, res, attempt)
    if (config.failure_budget_seconds is not None
            and failed_seconds >= config.failure_budget_seconds):
        res = dict(res)
        res["error"] = (
            f"{res.get('error')}; failure budget exhausted "
            f"({failed_seconds:.3f}s of failed attempts >= "
            f"{config.failure_budget_seconds:g}s budget, "
            f"after attempt {attempt})")
        return _outcome_from(job, res, attempt)
    return None


def _run_serial(pending: list[Job], campaign: _Campaign,
                wall_timeout: float | None,
                attempt_base: int = 0) -> None:
    """In-process execution with the same retry/timeout semantics."""
    config = campaign.config
    for job in pending:
        if campaign.stop.stopped:
            return
        if campaign.cancel_requested():
            campaign.settle(job, _cancelled_outcome(job))
            continue
        attempt = attempt_base
        failed_seconds = 0.0
        while True:
            attempt += 1
            res = invoke_job(job.payload,
                             _wall_timeout_for(job, wall_timeout, config),
                             attempt=attempt, trace=campaign.trace_jobs)
            if res["ok"]:
                campaign.settle(job, _outcome_from(job, res, attempt))
                break
            failed_seconds += res.get("seconds", 0.0)
            settled = _charge_failure(job, res, attempt, failed_seconds,
                                      config)
            if settled is not None:
                campaign.settle(job, settled)
                break
            # A cancel between attempts settles the job as cancelled
            # instead of spending its remaining retries.
            if campaign.cancel_requested():
                campaign.settle(job, _cancelled_outcome(job))
                break
            # A drain request also abandons this job's remaining
            # retries -- it stays unsettled and re-runs on resume.
            if campaign.stop.wait(config.backoff_delay(attempt,
                                                       key=job.key)):
                return


class WarmWorker:
    """One worker process kept warm across :func:`run_sweep` calls.

    A single-process :class:`ProcessPoolExecutor`, forked lazily on
    first use and reused until :meth:`retire` -- which the executor
    calls after anything that could leave the process broken, wedged
    or holding a failed attempt's state.  The next use forks a fresh
    one.  Not thread-safe: one owner (a service slot) at a time.  As a
    context manager it retires the worker on exit.
    """

    def __init__(self):
        self._pool: ProcessPoolExecutor | None = None

    def __enter__(self) -> "WarmWorker":
        return self

    def __exit__(self, *exc) -> None:
        self.retire()

    def pool(self) -> ProcessPoolExecutor:
        """The live pool, forking its worker on first use."""
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=1)
        return self._pool

    def retire(self, wait: bool = True) -> None:
        """Shut the pool down; ``wait=False`` leaves an in-flight
        attempt to finish on its own."""
        if self._pool is not None:
            self._pool.shutdown(wait=wait, cancel_futures=True)
            self._pool = None


def _run_pool(pending: list[Job], campaign: _Campaign,
              wall_timeout: float | None, workers: int,
              attempt_base: int = 0,
              warm: WarmWorker | None = None) -> None:
    """Pooled execution in rounds; survives hard worker crashes.

    A worker crash (segfault, OOM kill, ``os._exit``) breaks the whole
    :class:`ProcessPoolExecutor`, failing every in-flight future -- so
    the crasher cannot be identified from the wreckage, and innocent
    co-scheduled jobs must not be charged for it.  The recovery
    protocol therefore has two phases:

    1. *Parallel rounds*: all queued jobs share one pool.  Genuine
       failures (a task raised or timed out inside its worker) consume
       a retry; broken-pool casualties are requeued **without** losing
       an attempt.
    2. *Isolation rounds* (entered after a break): each suspect runs in
       its own single-worker pool, so a crash is attributable to
       exactly one job, which then pays the attempt.  Poisonous jobs
       settle as structured errors after their retry budget; everyone
       else completes normally.
    """
    config = campaign.config
    attempts = {job.key: attempt_base for job in pending}
    failed_seconds = {job.key: 0.0 for job in pending}
    queue = list(pending)
    isolate = False
    round_number = 0
    while queue and not campaign.stop.stopped:
        if campaign.cancel_requested():
            for job in queue:
                campaign.settle(job, _cancelled_outcome(job))
            return
        if isolate:
            queue = _isolation_round(queue, attempts, failed_seconds,
                                     campaign, wall_timeout)
        else:
            queue, broke = _parallel_round(queue, attempts, failed_seconds,
                                           campaign, wall_timeout, workers,
                                           warm)
            isolate = broke
        if queue:
            round_number += 1
            if campaign.stop.wait(config.backoff_delay(round_number,
                                                       key="pool-round")):
                return


def _settle_or_requeue(job, res, attempts, failed_seconds, campaign,
                       requeue) -> None:
    """Charge one completed pool attempt and settle or requeue the job."""
    attempts[job.key] += 1
    if res["ok"]:
        campaign.settle(job, _outcome_from(job, res, attempts[job.key]))
        return
    failed_seconds[job.key] += res.get("seconds", 0.0)
    settled = _charge_failure(job, res, attempts[job.key],
                              failed_seconds[job.key], campaign.config)
    if settled is not None:
        campaign.settle(job, settled)
    else:
        requeue.append(job)


def _parallel_round(queue, attempts, failed_seconds, campaign,
                    wall_timeout, workers, warm=None):
    """One shared-pool pass.  Returns (requeue, pool_broke).

    Without a ``cancel_check`` the wait loop blocks until a future
    completes -- byte-for-byte the historical behavior.  With one, it
    wakes every :data:`_CANCEL_POLL_SECONDS` to poll the flag; a cancel
    settles every unfinished job as ``cancelled`` and abandons the pool
    without waiting for in-flight attempts (their worker processes
    finish the current task and exit; no result is recorded).

    With a ``warm`` worker the round runs on its pool and leaves it
    running, unless the pool broke, an attempt did not return ok, or
    the round was abandoned: then the worker is retired.
    """
    config = campaign.config
    requeue: list[Job] = []
    broke = False
    failed = False
    abandoned = False
    pool = warm.pool() if warm is not None \
        else ProcessPoolExecutor(max_workers=min(workers, len(queue)))
    try:
        try:
            futures = {
                pool.submit(invoke_job, job.payload,
                            _wall_timeout_for(job, wall_timeout, config),
                            attempts[job.key] + 1, campaign.chaos_doc,
                            True, campaign.trace_jobs): job
                for job in queue
            }
        except BrokenProcessPool:
            # A warm worker died while idle: no attempt ran, so every
            # job goes to the isolation round free of charge.
            broke = True
            return list(queue), broke
        poll = _CANCEL_POLL_SECONDS if campaign.cancel_check is not None \
            else None
        not_done = set(futures)
        drained = False
        while not_done:
            done_now, not_done = futures_wait(
                not_done, timeout=poll, return_when=FIRST_COMPLETED)
            if campaign.stop.stopped and not drained:
                # Graceful drain: unstarted jobs are cancelled (they
                # stay unsettled and re-run on resume); in-flight
                # attempts run to completion and settle normally.
                drained = True
                for pending_future in not_done:
                    pending_future.cancel()
            if not done_now and campaign.cancel_requested():
                for pending_future in not_done:
                    pending_future.cancel()
                # Settle by bookkeeping, not by future state: a future
                # can complete between the wait returning empty and
                # this branch, and keying off ``future.done()`` would
                # skip that job entirely -- neither processed nor
                # cancelled, leaving the sweep with a missing outcome.
                # Every job not already settled (or queued for a
                # requeue round, which the outer loop cancels) settles
                # as cancelled here.
                requeued_keys = {job.key for job in requeue}
                for job in futures.values():
                    if job.key not in campaign.outcomes \
                            and job.key not in requeued_keys:
                        campaign.settle(job, _cancelled_outcome(job))
                abandoned = True
                return requeue, broke
            for future in done_now:
                job = futures[future]
                if future.cancelled():
                    continue
                try:
                    res = future.result()
                except BrokenProcessPool:
                    # Collateral or culprit -- unknowable here.  Requeue
                    # for an isolation round, free of charge.
                    broke = True
                    requeue.append(job)
                    continue
                except Exception as exc:  # pickling errors etc.
                    res = {"ok": False, "status": "error",
                           "error": f"{type(exc).__name__}: {exc}",
                           "seconds": 0.0}
                failed = failed or not res["ok"]
                _settle_or_requeue(job, res, attempts, failed_seconds,
                                   campaign, requeue)
    finally:
        if warm is None:
            pool.shutdown(wait=not abandoned, cancel_futures=abandoned)
        elif broke or failed or abandoned:
            warm.retire(wait=not abandoned)
    return requeue, broke


def _isolation_round(queue, attempts, failed_seconds, campaign,
                     wall_timeout):
    """One-job-per-pool pass: crashes are attributable, so they pay."""
    config = campaign.config
    requeue: list[Job] = []
    for job in queue:
        if campaign.stop.stopped:
            return requeue
        if campaign.cancel_requested():
            campaign.settle(job, _cancelled_outcome(job))
            continue
        with ProcessPoolExecutor(max_workers=1) as pool:
            future = pool.submit(
                invoke_job, job.payload,
                _wall_timeout_for(job, wall_timeout, config),
                attempts[job.key] + 1, campaign.chaos_doc, True,
                campaign.trace_jobs)
            try:
                res = future.result()
            except BrokenProcessPool:
                res = {"ok": False, "status": "error",
                       "error": "worker process crashed (hard exit while "
                                "running this job)",
                       "seconds": 0.0}
            except Exception as exc:
                res = {"ok": False, "status": "error",
                       "error": f"{type(exc).__name__}: {exc}",
                       "seconds": 0.0}
        _settle_or_requeue(job, res, attempts, failed_seconds,
                           campaign, requeue)
    return requeue
