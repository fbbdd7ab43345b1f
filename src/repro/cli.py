"""Command-line interface: ``python -m repro <command>``.

Commands mirror Raha's two operational modes plus utilities:

* ``analyze`` -- find the worst probable degradation of a topology
  (fixed or variable demands) and print an operator report.  A comma
  list of ``--threshold`` values fans out through the sweep runner
  (``--jobs`` worker processes, resumable with ``--resume``).
* ``sweep``  -- run a declarative sweep campaign (a JSON
  :class:`~repro.runner.jobs.SweepSpec`) in parallel, with a
  content-addressed result cache and a resumable journal.
* ``augment`` -- compute the capacity augment that removes all probable
  degradations.
* ``paths`` -- compute and save a k-shortest-path configuration.
* ``fig2``   -- the max-simultaneous-failures envelope of a topology.
* ``serve`` / ``client`` -- the persistent queue-backed analysis
  service and its HTTP client (see :mod:`repro.service`).
* ``worker`` -- a remote worker agent pulling jobs from a running
  service over its fenced claim protocol (see :mod:`repro.distrib`);
  pair with ``serve --no-local-workers`` for a pure coordinator.
* ``cache``  -- inspect (``stats``) or evict (``prune``) a result
  cache; live service jobs' entries are never pruned.
* ``bench``  -- run the benchmark suite and gate on performance
  regressions against a committed baseline (see :mod:`repro.bench`).

Topologies are JSON (see :mod:`repro.network.serialization`) or GraphML;
demands and paths are JSON.  Example round trip::

    python -m repro paths --topology wan.json --pairs all \\
        --primary 4 --backup 1 --out paths.json
    python -m repro analyze --topology wan.json --paths paths.json \\
        --demands demands.json --threshold 1e-4 --report report.txt
    python -m repro sweep --spec campaign.json --jobs 4
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.core.analyzer import RahaAnalyzer
from repro.core.augment import augment_existing_lags
from repro.core.config import MAX_DEFAULT_WORKERS, RahaConfig
from repro.core.report import degradation_report
from repro.network import serialization as ser
from repro.network.demand import all_pairs, demand_envelope
from repro.network.topology import Topology
from repro.paths.pathset import PathSet

#: Exit code when one or more sweep jobs settled with a structured error.
EXIT_SWEEP_ERRORS = 4

#: Exit code when ``analyze --allow-partial`` returned only an
#: LP-relaxation bound (no incumbent within the time limits) -- usable,
#: but distinguishable from a full result in scripts.
EXIT_PARTIAL = 5

#: Exit code when a sweep was interrupted by SIGINT/SIGTERM and drained
#: gracefully (the conventional 128 + SIGINT).  Settled results are
#: written; rerun with ``--resume`` to finish the rest.
EXIT_INTERRUPTED = 130


def _load_topology(path: str) -> Topology:
    if path.endswith((".graphml", ".xml")):
        from repro.network.graphml import read_graphml

        return read_graphml(path)
    return ser.topology_from_dict(ser.load_json(path))


def _load_topology_doc(path: str) -> dict:
    """A topology as its serialized document (for sweep job payloads)."""
    if path.endswith((".graphml", ".xml")):
        from repro.network.graphml import read_graphml

        return ser.topology_to_dict(read_graphml(path))
    return ser.load_json(path)


def _load_paths(path: str) -> PathSet:
    return ser.paths_from_dict(ser.load_json(path))


def _load_demands(path: str):
    return ser.demands_from_dict(ser.load_json(path))


def _cmd_paths(args) -> int:
    topology = _load_topology(args.topology)
    if args.pairs == "all":
        pairs = all_pairs(topology)
    else:
        pairs = [tuple(p.split("~", 1)) for p in args.pairs.split(",")]
    paths = PathSet.k_shortest(topology, pairs, num_primary=args.primary,
                               num_backup=args.backup)
    ser.save_json(ser.paths_to_dict(paths), args.out)
    print(f"wrote {len(paths)} demands' paths to {args.out}")
    return 0


def _parse_thresholds(text: str | None) -> list[float | None]:
    """``"1e-4"`` -> one threshold; ``"1e-2,1e-4"`` -> a sweep."""
    if text is None:
        return [None]
    values = [float(token) for token in text.split(",") if token.strip()]
    return values or [None]


def _sweep_state(workdir: Path, use_cache: bool = True):
    """The cache + journal pair living under a campaign's workdir."""
    from repro.runner.cache import ResultCache
    from repro.runner.journal import Journal

    workdir.mkdir(parents=True, exist_ok=True)
    cache = ResultCache(workdir / "cache") if use_cache else None
    return cache, Journal(workdir / "journal.jsonl")


def _run_campaign(spec, args, workdir: Path, use_cache: bool = True):
    """Shared sweep execution for the analyze/sweep commands."""
    from repro.core.config import RunnerConfig
    from repro.runner.executor import run_sweep
    from repro.runner.progress import print_progress

    cache, journal = _sweep_state(workdir, use_cache=use_cache)
    config = RunnerConfig(num_workers=args.jobs,
                          retries=getattr(args, "retries", 1))
    progress = None if getattr(args, "quiet", False) else print_progress
    chaos = None
    chaos_arg = getattr(args, "chaos", None)
    if chaos_arg:
        from repro.resilience import FaultPlan

        chaos = FaultPlan.from_arg(chaos_arg)
        print(f"chaos: injecting {len(chaos.points)} fault point(s) "
              f"(seed {chaos.seed}) -- self-test mode", file=sys.stderr)
    trace_path = getattr(args, "trace", None)
    if not trace_path:
        return run_sweep(spec, cache=cache, journal=journal,
                         resume=args.resume, progress=progress,
                         config=config, chaos=chaos)
    from repro.obs import JsonlTraceWriter, Tracer, metrics

    writer = JsonlTraceWriter(
        trace_path, name=getattr(spec, "name", None) or "sweep")
    tracer = Tracer(sink=writer.write)
    try:
        outcome = run_sweep(spec, cache=cache, journal=journal,
                            resume=args.resume, progress=progress,
                            config=config, chaos=chaos, tracer=tracer)
    finally:
        writer.close(metrics().snapshot())
    print(f"trace: {trace_path}", file=sys.stderr)
    return outcome


def _write_sweep_results(outcome, spec, path: Path) -> dict:
    """Persist a machine-readable campaign summary; returns the doc."""
    document = {
        "schema": ser.SCHEMA_VERSION,
        "kind": "sweep_results",
        "name": spec.name,
        "spec_hash": spec.spec_hash,
        "summary": {
            "total": len(outcome.outcomes),
            "counts": outcome.counts(),
            "cached": outcome.num_cached,
            "errors": outcome.num_errors,
            "wall_seconds": round(outcome.wall_seconds, 3),
            "solver_seconds": round(outcome.solver_seconds, 3),
        },
        "jobs": [
            {
                "key": o.job.key,
                "label": o.job.label,
                "params": o.job.params,
                "status": o.status,
                "attempts": o.attempts,
                "result": o.result,
                "error": o.error,
            }
            for o in outcome.outcomes
        ],
    }
    ser.save_json(document, str(path))
    return document


def _print_sweep_table(outcome, title: str) -> None:
    from repro.analysis.reporting import print_table

    rows = []
    for o in outcome.outcomes:
        result = o.result or {}
        threshold = result.get("threshold", o.job.params.get("threshold"))
        budget = result.get("max_failures", o.job.params.get("max_failures"))
        rows.append((
            result.get("demand_mode", o.job.params.get("demand_mode", "-")),
            "-" if threshold is None else threshold,
            "inf" if budget is None else budget,
            result.get("normalized_degradation", "-"),
            o.status,
        ))
    print_table(title, ["mode", "threshold", "max failures",
                        "degradation", "status"], rows)


def _print_sweep_summary(outcome) -> None:
    counts = ", ".join(f"{n} {status}"
                       for status, n in sorted(outcome.counts().items()))
    print(f"sweep: {len(outcome.outcomes)} jobs ({counts}); "
          f"wall {outcome.wall_seconds:.1f}s, "
          f"solver {outcome.solver_seconds:.1f}s")
    totals = outcome.stats_totals()
    if totals["jobs_with_stats"]:
        print(f"telemetry: {int(totals['jobs_with_stats'])} jobs reported "
              f"stats; build {totals['build_seconds']:.2f}s, "
              f"compile {totals['compile_seconds']:.2f}s, "
              f"solve {totals['solve_seconds']:.2f}s, "
              f"max |coef| {totals['max_abs_coefficient']:.3g}")
    phases = outcome.phase_totals()
    if phases:
        ranked = sorted(phases.items(), key=lambda kv: -kv[1]["seconds"])
        rendered = ", ".join(
            f"{name} {entry['seconds']:.2f}s x{int(entry['count'])}"
            for name, entry in ranked[:8]
        )
        print(f"phases: {rendered}")


def _cmd_sweep(args) -> int:
    from repro.runner.jobs import SweepSpec

    spec = SweepSpec.from_file(args.spec)
    workdir = Path(args.workdir) if args.workdir \
        else Path(args.spec).with_suffix("").with_name(
            Path(args.spec).stem + ".sweep")
    outcome = _run_campaign(spec, args, workdir,
                            use_cache=not args.no_cache)
    _print_sweep_table(outcome, f"sweep {spec.name}: "
                                f"{len(outcome.outcomes)} jobs")
    _print_sweep_summary(outcome)
    results_path = workdir / "results.json"
    _write_sweep_results(outcome, spec, results_path)
    if args.out:
        _write_sweep_results(outcome, spec, Path(args.out))
    print(f"results: {results_path}")
    if outcome.interrupted:
        print(f"interrupted: {len(outcome.outcomes)} job(s) settled; "
              f"rerun with --resume to finish the rest", file=sys.stderr)
        return EXIT_INTERRUPTED
    return EXIT_SWEEP_ERRORS if outcome.num_errors else 0


def _analyze_sweep(args, thresholds: list[float | None]) -> int:
    """``analyze`` with a threshold list: fan out through the runner."""
    from repro.runner.jobs import SweepSpec

    spec = SweepSpec(
        instance={
            "topology": _load_topology_doc(args.topology),
            "demands": ser.load_json(args.demands),
            "paths": ser.load_json(args.paths),
        },
        base={
            "demand_mode": "variable" if args.variable else "fixed",
            "slack": args.slack,
            "max_failures": args.max_failures,
            "connected_enforced": args.connected_enforced,
            "time_limit": args.time_limit,
            # Only present when requested, so enabling it never
            # invalidates existing cache keys of normal runs.
            **({"allow_partial": True} if args.allow_partial else {}),
        },
        cells=[{"threshold": t} for t in thresholds],
        name="analyze",
    )
    workdir = Path(args.workdir) if args.workdir \
        else Path(args.topology + ".sweep")
    outcome = _run_campaign(spec, args, workdir)
    _print_sweep_table(
        outcome, f"analyze: degradation vs threshold ({len(thresholds)} jobs)")
    _print_sweep_summary(outcome)
    if args.out:
        _write_sweep_results(outcome, spec, Path(args.out))
    if outcome.interrupted:
        print(f"interrupted: {len(outcome.outcomes)} job(s) settled; "
              f"rerun with --resume to finish the rest", file=sys.stderr)
        return EXIT_INTERRUPTED
    if outcome.num_errors:
        return EXIT_SWEEP_ERRORS
    if args.tolerance is not None:
        worst = max(r["normalized_degradation"] for r in outcome.results())
        return 2 if worst > args.tolerance else 0
    return 0


def _print_solver_stats(stats: dict | None) -> None:
    """Render the per-solve telemetry block behind ``analyze --stats``."""
    if not stats:
        print("solver stats: not recorded for this result")
        return
    print("solver stats:")
    print(f"  matrix: {stats.get('rows', 0)} rows x "
          f"{stats.get('cols', 0)} cols, {stats.get('nnz', 0)} nonzeros, "
          f"{stats.get('num_integer', 0)} integer vars")
    print(f"  time: build {stats.get('build_seconds', 0.0):.3f}s, "
          f"compile {stats.get('compile_seconds', 0.0):.3f}s, "
          f"solve {stats.get('solve_seconds', 0.0):.3f}s")
    print(f"  conditioning: max |coef| "
          f"{stats.get('max_abs_coefficient', 0.0):.3g}, "
          f"max |rhs| {stats.get('max_abs_rhs', 0.0):.3g}")
    print(f"  backend: {stats.get('backend', '?')} "
          f"(duals: {stats.get('dual_mode', '?')}, "
          f"incremental: {stats.get('incremental', False)}, "
          f"compile cached: {stats.get('compile_cached', False)})")


def _partial_report(result) -> str:
    """Operator-facing rendering of a PartialResult (bound, no witness)."""
    lines = [
        result.summary(),
        "",
        "This is a BOUND, not an exact worst case: the MILP found no",
        "incumbent within its time limits, so the LP relaxation's optimum",
        "is reported instead (it can only over-estimate the degradation).",
        "No witness demand matrix or failure scenario is available.",
        "",
        "provenance:",
    ]
    lines += [f"  - {step}" for step in result.provenance]
    return "\n".join(lines)


def _cmd_analyze(args) -> int:
    thresholds = _parse_thresholds(args.threshold)
    if len(thresholds) > 1:
        return _analyze_sweep(args, thresholds)
    threshold = thresholds[0]
    topology = _load_topology(args.topology)
    paths = _load_paths(args.paths)
    demands = _load_demands(args.demands)
    kwargs = dict(
        probability_threshold=threshold,
        max_failures=args.max_failures,
        connected_enforced=args.connected_enforced,
        time_limit=args.time_limit,
    )
    if args.allow_partial:
        from repro.core.config import ResilienceConfig

        kwargs["resilience"] = ResilienceConfig(allow_partial=True)
    if args.variable:
        config = RahaConfig(
            demand_bounds=demand_envelope(demands, slack=args.slack),
            **kwargs,
        )
    else:
        config = RahaConfig(fixed_demands=dict(demands), **kwargs)
    analyzer = RahaAnalyzer(topology, paths, config)
    if args.trace:
        from repro.obs import JsonlTraceWriter, Tracer, metrics, tracing

        writer = JsonlTraceWriter(args.trace, name="analyze")
        try:
            with tracing(Tracer(sink=writer.write)):
                result = analyzer.analyze()
        finally:
            writer.close(metrics().snapshot())
        print(f"trace: {args.trace}", file=sys.stderr)
    else:
        result = analyzer.analyze()
    if result.is_partial:
        report = _partial_report(result)
        print(report)
        if args.report:
            with open(args.report, "w") as handle:
                handle.write(report + "\n")
        if args.out:
            ser.save_json({
                "kind": "partial_result",
                "status": result.status,
                "objective": result.objective,
                "degradation_bound": result.bound,
                "normalized_bound": result.normalized_bound,
                "provenance": list(result.provenance),
                "time_limits_tried": list(result.time_limits_tried),
                "solve_seconds": result.solve_seconds,
                "encode_seconds": result.encode_seconds,
                "solver_stats": result.solver_stats,
            }, args.out)
        return EXIT_PARTIAL
    report = degradation_report(topology, paths, result)
    print(report)
    if args.stats:
        _print_solver_stats(result.solver_stats)
    if args.report:
        with open(args.report, "w") as handle:
            handle.write(report + "\n")
    if args.out:
        ser.save_json(ser.result_to_dict(result), args.out)
    if args.tolerance is not None:
        return 2 if result.normalized_degradation > args.tolerance else 0
    return 0


def _cmd_augment(args) -> int:
    topology = _load_topology(args.topology)
    paths = _load_paths(args.paths)
    demands = _load_demands(args.demands)
    config = RahaConfig(
        fixed_demands=dict(demands),
        probability_threshold=args.threshold,
        max_failures=args.max_failures,
        time_limit=args.time_limit,
    )
    result = augment_existing_lags(
        topology, paths, config,
        link_capacity=args.link_capacity,
        new_links_can_fail=not args.reliable,
        max_steps=args.max_steps,
    )
    print(f"initial degradation: {result.initial_degradation:g}")
    for i, step in enumerate(result.steps, 1):
        adds = ", ".join(f"{k[0]}-{k[1]} +{n}"
                         for k, n in sorted(step.links_added.items()))
        print(f"step {i}: degradation {step.degradation_before:g}; "
              f"added {adds}")
    print(f"converged: {result.converged} "
          f"({result.total_links_added} links in {result.num_steps} steps)")
    if args.out:
        ser.save_json(ser.topology_to_dict(result.topology), args.out)
        print(f"wrote augmented topology to {args.out}")
    return 0 if result.converged else 3


def _cmd_availability(args) -> int:
    from repro.core.config import MonteCarloConfig
    from repro.failures.availability import estimate_availability_parallel

    topology = _load_topology(args.topology)
    paths = _load_paths(args.paths)
    demands = _load_demands(args.demands)
    config = MonteCarloConfig(
        samples=args.samples,
        seed=args.seed,
        degradation_threshold=args.threshold_traffic,
        num_workers=args.jobs,
        chunk_size=args.chunk_size,
        ci_width=args.ci_width,
        max_samples=args.max_samples,
    )
    chaos = None
    if args.chaos:
        from repro.resilience import FaultPlan

        chaos = FaultPlan.from_arg(args.chaos)
    cache = None
    if not args.no_cache:
        if args.workdir:
            cache = Path(args.workdir) / "cache"
        else:
            cache = Path(args.topology).with_suffix("").with_name(
                Path(args.topology).stem + ".avail") / "cache"
        cache.parent.mkdir(parents=True, exist_ok=True)

    def run():
        return estimate_availability_parallel(
            topology, dict(demands), paths, config,
            cache=cache, chaos=chaos,
        )

    if args.trace:
        from repro.obs import JsonlTraceWriter, Tracer, metrics, tracing

        writer = JsonlTraceWriter(args.trace, name="availability")
        try:
            with tracing(Tracer(sink=writer.write)):
                estimate = run()
        finally:
            writer.close(metrics().snapshot())
        print(f"trace: {args.trace}", file=sys.stderr)
    else:
        estimate = run()
    print(f"samples: {estimate.samples}")
    print(f"distinct scenarios: {estimate.distinct_scenarios} "
          f"(cache hits {estimate.cache_hits}, "
          f"fresh solves {estimate.fresh_solves})")
    if estimate.chunk_fallbacks:
        print(f"chunk fallbacks: {estimate.chunk_fallbacks}")
    if estimate.ci_width is not None:
        print(f"rounds: {estimate.rounds}  ci width: {estimate.ci_width:g}")
    print(f"healthy flow: {estimate.healthy_flow:g}")
    print(f"expected degradation: {estimate.expected_degradation:g}")
    print(f"availability: {estimate.availability:.6f}")
    print(f"P(degradation > {args.threshold_traffic:g}): "
          f"{estimate.exceedance_probability:.4f}")
    print(f"p95 degradation: {estimate.quantile(0.95):g}")
    print(f"worst sampled: {estimate.worst_sampled:g} "
          f"({estimate.worst_scenario})")
    if args.out:
        payload = {
            "samples": estimate.samples,
            "healthy_flow": estimate.healthy_flow,
            "expected_degradation": estimate.expected_degradation,
            "availability": estimate.availability,
            "exceedance_probability": estimate.exceedance_probability,
            "worst_sampled": estimate.worst_sampled,
            "distinct_scenarios": estimate.distinct_scenarios,
            "cache_hits": estimate.cache_hits,
            "fresh_solves": estimate.fresh_solves,
            "chunk_fallbacks": estimate.chunk_fallbacks,
            "rounds": estimate.rounds,
            "ci_width": estimate.ci_width,
        }
        with open(args.out, "w") as handle:
            json.dump(payload, handle, indent=2)
    return 0


def _cmd_continents(args) -> int:
    from repro.analysis.continental import analyze_continents

    topology = _load_topology(args.topology)
    demands = _load_demands(args.demands)
    with open(args.assignment) as handle:
        assignment = json.load(handle)
    findings = analyze_continents(
        topology, assignment, dict(demands),
        num_primary=args.primary, num_backup=args.backup,
        probability_threshold=args.threshold,
        time_limit=args.time_limit,
    )
    worst = 0.0
    for finding in findings:
        if finding.result is None:
            print(f"{finding.name}: skipped ({finding.skipped_reason})")
            continue
        result = finding.result
        print(f"{finding.name}: {result.summary()}")
        if finding.skipped_reason:
            print(f"  note: {finding.skipped_reason}")
        worst = max(worst, result.normalized_degradation)
    if args.tolerance is not None:
        return 2 if worst > args.tolerance else 0
    return 0


def _cmd_fig2(args) -> int:
    from repro.failures.probability import max_simultaneous_failures

    topology = _load_topology(args.topology)
    rows = []
    for token in args.thresholds.split(","):
        threshold = float(token)
        count, _ = max_simultaneous_failures(topology, threshold)
        rows.append((threshold, count))
        print(f"T={threshold:g}: up to {count} simultaneous link failures")
    if args.out:
        with open(args.out, "w") as handle:
            json.dump([{"threshold": t, "max_failures": c}
                       for t, c in rows], handle, indent=2)
    return 0


def _service_config_from_args(args):
    from repro.core.config import (
        DistribConfig,
        ServiceConfig,
        SupervisionConfig,
    )

    return ServiceConfig(
        host=args.host,
        port=args.port,
        num_workers=args.workers,
        max_queue_depth=args.max_queue_depth,
        max_inflight_per_client=args.max_inflight,
        result_ttl_seconds=args.result_ttl,
        result_max_bytes=args.result_max_bytes,
        drain_timeout_seconds=args.drain_timeout,
        isolate_jobs=not args.no_isolate,
        local_workers=not args.no_local_workers,
        max_body_bytes=args.max_body_bytes,
        supervision=SupervisionConfig(
            lease_seconds=args.lease_seconds,
            reap_interval_seconds=args.reap_interval,
            max_job_attempts=args.max_attempts,
        ),
        distrib=DistribConfig(
            max_claims_per_second=args.max_claims_per_second,
        ),
    )


def _cmd_serve(args) -> int:
    from repro.service import api
    from repro.service import store as store_module

    # In a real server process, injected service crashes must behave
    # like kill -9 (hard exit), not like catchable exceptions -- that
    # is the whole point of the crash-recovery tests.
    store_module.HARD_FAULTS = True
    if args.chaos:
        from repro.resilience import FaultPlan
        from repro.resilience.faults import install_plan

        plan = FaultPlan.from_arg(args.chaos)
        install_plan(plan)
        print(f"chaos: injecting {len(plan.points)} fault point(s) "
              f"(seed {plan.seed}) -- crash faults HARD-EXIT the server",
              file=sys.stderr)
    service = api.AnalysisService(args.workdir,
                                  config=_service_config_from_args(args))
    server = api.make_server(service)
    state_path = api.write_state_file(service, server)
    host, port = server.server_address[0], server.server_address[1]
    print(f"serving on http://{host}:{port} "
          f"(workdir {args.workdir}, {service.config.num_workers} workers); "
          f"state: {state_path}", file=sys.stderr)
    if not args.trace:
        api.serve_forever(service, server)
        return 0
    from repro.obs import JsonlTraceWriter, Tracer, metrics, tracing

    writer = JsonlTraceWriter(args.trace, name="service")
    try:
        with tracing(Tracer(sink=writer.write)):
            api.serve_forever(service, server)
    finally:
        writer.close(metrics().snapshot())
    print(f"trace: {args.trace}", file=sys.stderr)
    return 0


def _cmd_worker(args) -> int:
    from repro.core.config import DistribConfig, SupervisionConfig
    from repro.distrib.worker import run_worker

    if args.chaos:
        from repro.resilience import FaultPlan
        from repro.resilience.faults import install_plan

        plan = FaultPlan.from_arg(args.chaos)
        install_plan(plan)
        print(f"chaos: injecting {len(plan.points)} fault point(s) "
              f"(seed {plan.seed})", file=sys.stderr)
    config = DistribConfig(
        num_workers=args.workers,
        poll_interval_seconds=args.poll_interval,
        drain_timeout_seconds=args.drain_timeout,
        request_timeout_seconds=args.timeout,
        retries=args.retries,
    )
    supervision = SupervisionConfig(
        lease_seconds=args.lease_seconds,
        heartbeat_interval_seconds=args.heartbeat_interval,
    )
    print(f"worker pulling from {args.connect} "
          f"({config.num_workers} slot(s))", file=sys.stderr)
    return run_worker(args.connect, config=config, supervision=supervision,
                      worker_id=args.name, cache_dir=args.cache,
                      isolate_jobs=not args.no_isolate)


def _service_client(args):
    from repro.service.client import ServiceClient

    url = args.url
    if not url:
        state_path = Path(args.workdir or ".") / "service.json"
        if not state_path.exists():
            raise SystemExit(
                f"no --url given and no service state at {state_path}; "
                f"start a server with 'repro serve' or pass --url")
        state = json.loads(state_path.read_text())
        url = state["url"]
    return ServiceClient(url, client_id=args.client,
                         timeout=args.timeout)


def _print_doc(doc: dict, out: str | None) -> None:
    text = json.dumps(doc, indent=2, sort_keys=True)
    if out:
        Path(out).write_text(text + "\n")
        print(f"wrote {out}")
    else:
        print(text)


def _cmd_client(args) -> int:
    from repro.exceptions import AdmissionError, ServiceError

    if args.action == "submit" and not args.spec:
        raise SystemExit("client submit requires --spec")
    if args.action in ("status", "result", "cancel", "retry") \
            and not args.id:
        raise SystemExit(f"client {args.action} requires --id")
    client = _service_client(args)
    try:
        if args.action == "submit":
            from repro.runner.jobs import SweepSpec

            # from_file embeds any instance file references client-side,
            # so the document crossing the wire is self-contained (the
            # server rejects path strings).
            spec = SweepSpec.from_file(args.spec)
            doc = client.submit(spec.to_dict(), priority=args.priority,
                                deadline_seconds=args.deadline)
            print(f"analysis {doc['id']}: "
                  f"{'deduped' if doc.get('deduped') else 'accepted'} "
                  f"({doc['total_jobs']} jobs)")
            if args.wait:
                _print_doc(client.wait(doc["id"], timeout=args.timeout_wait),
                           args.out)
            return 0
        if args.action == "status":
            _print_doc(client.status(args.id), args.out)
            return 0
        if args.action == "result":
            doc = client.result(args.id)
            if doc is None:
                status = client.status(args.id)
                print(f"analysis {args.id} is {status['state']} "
                      f"({status['counts']})", file=sys.stderr)
                return 6
            _print_doc(doc, args.out)
            return 0
        if args.action == "cancel":
            doc = client.cancel(args.id)
            print(f"cancelled {doc['cancelled']} queued job(s), "
                  f"{doc.get('cancelling', 0)} running job(s) asked to "
                  f"stop; {doc['note']}")
            return 0
        if args.action == "quarantine":
            _print_doc(client.quarantine(args.id), args.out)
            return 0
        if args.action == "retry":
            doc = client.retry(args.id)
            print(f"requeued {doc['retried']} quarantined job(s) of "
                  f"analysis {doc['id']}")
            return 0
        if args.action == "health":
            _print_doc(client.health(), args.out)
            return 0
    except AdmissionError as exc:
        print(f"shed: {exc} (retry after "
              f"{exc.retry_after or '?'}s)", file=sys.stderr)
        return 7
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    raise SystemExit(f"unknown client action {args.action!r}")


def _cmd_cache(args) -> int:
    from repro.runner.cache import ResultCache

    workdir = Path(args.workdir)
    cache_dir = workdir / "cache" if (workdir / "cache").is_dir() \
        else workdir
    cache = ResultCache(cache_dir)
    if args.action == "stats":
        _print_doc(cache.stats(), None)
        return 0
    # prune: never evict entries referenced by live jobs of a service
    # sharing this workdir.
    protected: set[str] = set()
    db_path = workdir / "service.db"
    if db_path.exists():
        from repro.service.store import JobStore

        store = JobStore(db_path)
        try:
            protected = store.live_keys()
        finally:
            store.close()
    report = cache.prune(max_bytes=args.max_bytes,
                         ttl_seconds=args.ttl,
                         protected=protected)
    print(f"pruned {report['removed']} entries "
          f"({report['removed_bytes']} bytes); kept {report['kept']} "
          f"({report['kept_bytes']} bytes, "
          f"{report['protected_kept']} protected)")
    if report["tmp_removed"]:
        print(f"swept {report['tmp_removed']} stale temp file(s) "
              f"({report['tmp_removed_bytes']} bytes) orphaned by "
              f"crashed writes")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The repro CLI argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Raha: analyze probable worst-case WAN degradation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_paths = sub.add_parser("paths", help="compute k-shortest paths")
    p_paths.add_argument("--topology", required=True)
    p_paths.add_argument("--pairs", default="all",
                         help='"all" or comma list like "a~b,c~d"')
    p_paths.add_argument("--primary", type=int, default=4)
    p_paths.add_argument("--backup", type=int, default=1)
    p_paths.add_argument("--out", required=True)
    p_paths.set_defaults(func=_cmd_paths)

    p_an = sub.add_parser("analyze", help="find the worst degradation")
    p_an.add_argument("--topology", required=True)
    p_an.add_argument("--paths", required=True)
    p_an.add_argument("--demands", required=True)
    p_an.add_argument("--variable", action="store_true",
                      help="treat demands as envelope upper bounds")
    p_an.add_argument("--slack", type=float, default=0.0)
    p_an.add_argument("--threshold", default=None,
                      help="probability threshold T; a comma list "
                           "(e.g. 1e-2,1e-4,1e-7) sweeps them in parallel "
                           "through the job runner")
    p_an.add_argument("--max-failures", type=int, default=None)
    p_an.add_argument("--connected-enforced", action="store_true")
    p_an.add_argument("--time-limit", type=float, default=1000.0)
    p_an.add_argument("--jobs", type=int, default=None, metavar="N",
                      help="worker processes for threshold sweeps "
                           "(default: cpu_count - 1, capped at "
                           f"{MAX_DEFAULT_WORKERS})")
    p_an.add_argument("--resume", action="store_true",
                      help="resume an interrupted threshold sweep from its "
                           "workdir journal (finishes only remaining jobs)")
    p_an.add_argument("--workdir", default=None,
                      help="sweep state directory (cache + journal); "
                           "default: <topology>.sweep")
    p_an.add_argument("--allow-partial", action="store_true",
                      help="when the MILP finds no incumbent within its "
                           "time limits, report an LP-relaxation bound "
                           f"(exit {EXIT_PARTIAL}) instead of failing")
    p_an.add_argument("--tolerance", type=float, default=None,
                      help="exit 2 when normalized degradation exceeds this")
    p_an.add_argument("--stats", action="store_true",
                      help="print per-solve telemetry (matrix size, "
                           "build/compile/solve split, big-M magnitudes)")
    p_an.add_argument("--trace", default=None, metavar="FILE",
                      help="write a structured JSONL trace (nested spans "
                           "for encode/compile/solve/verify plus a metrics "
                           "snapshot; see docs/operations.md "
                           "'Observability')")
    p_an.add_argument("--report", default=None)
    p_an.add_argument("--out", default=None)
    p_an.set_defaults(func=_cmd_analyze)

    p_sw = sub.add_parser(
        "sweep",
        help="run a declarative sweep campaign (parallel, cached, resumable)")
    p_sw.add_argument("--spec", required=True,
                      help="sweep spec JSON (kind: sweep_spec; see "
                           "docs/operations.md 'Running sweeps')")
    p_sw.add_argument("--jobs", type=int, default=None, metavar="N",
                      help="worker processes (default: cpu_count - 1, "
                           f"capped at {MAX_DEFAULT_WORKERS}; 1 = in-process)")
    p_sw.add_argument("--resume", action="store_true",
                      help="replay the journal and run only unsettled jobs")
    p_sw.add_argument("--workdir", default=None,
                      help="campaign state directory (cache/, journal.jsonl, "
                           "results.json); default: <spec stem>.sweep next "
                           "to the spec")
    p_sw.add_argument("--retries", type=int, default=1,
                      help="re-attempts for failed/crashed/timed-out jobs")
    p_sw.add_argument("--no-cache", action="store_true",
                      help="disable the content-addressed result cache")
    p_sw.add_argument("--chaos", default=None, metavar="PLAN",
                      help="fault-injection self-test: a FaultPlan JSON "
                           "document or a path to one (see docs/"
                           "operations.md 'Chaos testing'); deterministic "
                           "faults are injected into workers, cache "
                           "writes, and journal appends")
    p_sw.add_argument("--trace", default=None, metavar="FILE",
                      help="write a campaign-wide JSONL trace: per-job "
                           "spans with each worker's encode/compile/solve "
                           "spans merged beneath them (see docs/"
                           "operations.md 'Observability')")
    p_sw.add_argument("--quiet", action="store_true",
                      help="suppress per-job progress lines on stderr")
    p_sw.add_argument("--out", default=None,
                      help="also write the results document here")
    p_sw.set_defaults(func=_cmd_sweep)

    p_aug = sub.add_parser("augment", help="compute a capacity augment")
    p_aug.add_argument("--topology", required=True)
    p_aug.add_argument("--paths", required=True)
    p_aug.add_argument("--demands", required=True)
    p_aug.add_argument("--threshold", type=float, default=None)
    p_aug.add_argument("--max-failures", type=int, default=None)
    p_aug.add_argument("--link-capacity", type=float, default=None)
    p_aug.add_argument("--reliable", action="store_true",
                       help="assume added capacity cannot fail")
    p_aug.add_argument("--max-steps", type=int, default=10)
    p_aug.add_argument("--time-limit", type=float, default=1000.0)
    p_aug.add_argument("--out", default=None)
    p_aug.set_defaults(func=_cmd_augment)

    p_ct = sub.add_parser("continents",
                          help="per-continent analysis (paper Section 9)")
    p_ct.add_argument("--topology", required=True)
    p_ct.add_argument("--demands", required=True)
    p_ct.add_argument("--assignment", required=True,
                      help='JSON mapping node -> continent name')
    p_ct.add_argument("--primary", type=int, default=2)
    p_ct.add_argument("--backup", type=int, default=1)
    p_ct.add_argument("--threshold", type=float, default=1e-4)
    p_ct.add_argument("--time-limit", type=float, default=600.0)
    p_ct.add_argument("--tolerance", type=float, default=None,
                      help="exit 2 when any piece exceeds this")
    p_ct.set_defaults(func=_cmd_continents)

    p_av = sub.add_parser("availability",
                          help="Monte Carlo availability estimate")
    p_av.add_argument("--topology", required=True)
    p_av.add_argument("--paths", required=True)
    p_av.add_argument("--demands", required=True)
    p_av.add_argument("--samples", type=int, default=200)
    p_av.add_argument("--threshold-traffic", type=float, default=0.0,
                      help="exceedance statistic threshold (traffic units)")
    p_av.add_argument("--seed", type=int, default=0)
    p_av.add_argument("--jobs", type=int, default=None,
                      help="worker processes (default: cpu count - 1, "
                           "capped at 8)")
    p_av.add_argument("--chunk-size", type=int, default=32,
                      help="distinct scenarios per worker chunk; fixed "
                           "chunking keeps estimates identical across "
                           "--jobs settings")
    p_av.add_argument("--ci-width", type=float, default=None,
                      help="keep sampling in rounds of --samples until the "
                           "availability CI is this wide (adaptive "
                           "stopping)")
    p_av.add_argument("--max-samples", type=int, default=None,
                      help="adaptive-stopping sample cap "
                           "(default: 20x --samples)")
    p_av.add_argument("--workdir", default=None,
                      help="directory for the delivered-flow cache "
                           "(default: <topology>.avail/)")
    p_av.add_argument("--no-cache", action="store_true",
                      help="skip the persistent delivered-flow cache")
    p_av.add_argument("--chaos", default=None,
                      help="fault plan (inline JSON or file) for "
                           "self-testing graceful degradation")
    p_av.add_argument("--trace", default=None,
                      help="write a JSONL trace of the estimation run")
    p_av.add_argument("--out", default=None)
    p_av.set_defaults(func=_cmd_availability)

    p_f2 = sub.add_parser("fig2", help="max simultaneous failures vs T")
    p_f2.add_argument("--topology", required=True)
    p_f2.add_argument("--thresholds", default="1e-5,1e-4,1e-3,1e-2,1e-1")
    p_f2.add_argument("--out", default=None)
    p_f2.set_defaults(func=_cmd_fig2)

    p_sv = sub.add_parser(
        "serve",
        help="run the queue-backed analysis service (HTTP API)")
    p_sv.add_argument("--workdir", required=True,
                      help="service state directory (service.db, cache/, "
                           "service.json)")
    p_sv.add_argument("--host", default="127.0.0.1")
    p_sv.add_argument("--port", type=int, default=8080,
                      help="0 = ephemeral (the bound port lands in "
                           "<workdir>/service.json)")
    p_sv.add_argument("--workers", type=int, default=2,
                      help="scheduler worker threads")
    p_sv.add_argument("--max-queue-depth", type=int, default=1024,
                      help="global live-job cap; beyond it submissions "
                           "are shed with 429 + Retry-After")
    p_sv.add_argument("--max-inflight", type=int, default=64,
                      help="per-client live-job cap")
    p_sv.add_argument("--result-ttl", type=float, default=None,
                      metavar="SECONDS",
                      help="evict results older than this")
    p_sv.add_argument("--result-max-bytes", type=int, default=None,
                      metavar="N",
                      help="result store size cap (oldest evicted first)")
    p_sv.add_argument("--drain-timeout", type=float, default=30.0,
                      help="seconds to let in-flight jobs settle on "
                           "shutdown before leaving them for recovery")
    p_sv.add_argument("--lease-seconds", type=float, default=60.0,
                      help="job lease duration; a worker that stops "
                           "heartbeating loses its job to the reaper "
                           "after this long")
    p_sv.add_argument("--reap-interval", type=float, default=None,
                      metavar="SECONDS",
                      help="reaper pass cadence (default: half the "
                           "lease)")
    p_sv.add_argument("--max-attempts", type=int, default=5,
                      help="store-level claim budget per job; beyond it "
                           "the job is quarantined instead of requeued")
    p_sv.add_argument("--no-isolate", action="store_true",
                      help="run jobs on scheduler threads instead of "
                           "worker processes (faster, less robust)")
    p_sv.add_argument("--no-local-workers", action="store_true",
                      help="pure coordinator: no local worker threads; "
                           "execution belongs to remote 'repro worker' "
                           "agents claiming over HTTP")
    p_sv.add_argument("--max-body-bytes", type=int,
                      default=64 * 1024 * 1024, metavar="N",
                      help="reject request bodies larger than this "
                           "with HTTP 413 before reading them")
    p_sv.add_argument("--max-claims-per-second", type=float, default=None,
                      metavar="RATE",
                      help="shed fleet claim requests beyond this rate "
                           "with 429 + Retry-After (default: unlimited)")
    p_sv.add_argument("--chaos", default=None, metavar="PLAN",
                      help="fault-injection self-test: service crash "
                           "sites hard-exit the server (see docs/"
                           "operations.md 'Running the analysis service')")
    p_sv.add_argument("--trace", default=None, metavar="FILE",
                      help="write a JSONL trace of http_request spans "
                           "and job execution")
    p_sv.set_defaults(func=_cmd_serve)

    p_wk = sub.add_parser(
        "worker",
        help="remote worker agent: pull jobs from a running service "
             "over the fenced claim protocol")
    p_wk.add_argument("--connect", required=True, metavar="URL",
                      help="coordinator base URL (http://host:port)")
    p_wk.add_argument("--workers", type=int, default=2,
                      help="concurrent claim slots in this agent")
    p_wk.add_argument("--name", default=None, metavar="ID",
                      help="fleet identity (default: <hostname>-<pid>)")
    p_wk.add_argument("--cache", default=None, metavar="DIR",
                      help="local result-cache directory (results still "
                           "ship to the coordinator's cache on settle)")
    p_wk.add_argument("--lease-seconds", type=float, default=60.0,
                      help="lease requested per claim; renewed by a "
                           "heartbeat thread while the job runs")
    p_wk.add_argument("--heartbeat-interval", type=float, default=None,
                      metavar="SECONDS",
                      help="lease renewal cadence (default: a third of "
                           "the lease)")
    p_wk.add_argument("--poll-interval", type=float, default=0.5,
                      metavar="SECONDS",
                      help="longest time one claim request waits at "
                           "the coordinator for a job to arrive (the "
                           "coordinator wakes it as soon as one does)")
    p_wk.add_argument("--drain-timeout", type=float, default=30.0,
                      help="seconds to let in-flight jobs settle on "
                           "SIGINT/SIGTERM before abandoning their "
                           "claims to the reaper")
    p_wk.add_argument("--timeout", type=float, default=30.0,
                      help="per-request HTTP timeout")
    p_wk.add_argument("--retries", type=int, default=3,
                      help="transient-failure retry budget per fleet "
                           "request")
    p_wk.add_argument("--no-isolate", action="store_true",
                      help="run jobs on slot threads instead of worker "
                           "processes")
    p_wk.add_argument("--chaos", default=None, metavar="PLAN",
                      help="fault-injection self-test (the distrib.* "
                           "sites drop fleet requests on the wire)")
    p_wk.set_defaults(func=_cmd_worker)

    p_cl = sub.add_parser("client",
                          help="talk to a running analysis service")
    p_cl.add_argument("action",
                      choices=["submit", "status", "result", "cancel",
                               "quarantine", "retry", "health"])
    p_cl.add_argument("--url", default=None,
                      help="service base URL (default: read "
                           "<workdir>/service.json)")
    p_cl.add_argument("--workdir", default=None,
                      help="locate the service via its state file")
    p_cl.add_argument("--client", default="cli", metavar="ID",
                      help="client identity for per-client admission caps")
    p_cl.add_argument("--spec", default=None,
                      help="sweep spec JSON to submit (file references "
                           "are embedded client-side)")
    p_cl.add_argument("--id", default=None, help="analysis id")
    p_cl.add_argument("--priority", type=int, default=0)
    p_cl.add_argument("--deadline", type=float, default=None,
                      metavar="SECONDS",
                      help="end-to-end deadline for the submission; "
                           "jobs still queued past it fail fast, "
                           "running jobs get their wall timeout clamped")
    p_cl.add_argument("--wait", action="store_true",
                      help="after submit, poll until finished and print "
                           "the results document")
    p_cl.add_argument("--timeout", type=float, default=30.0,
                      help="per-request HTTP timeout")
    p_cl.add_argument("--timeout-wait", type=float, default=600.0,
                      help="total --wait polling budget")
    p_cl.add_argument("--out", default=None,
                      help="write the fetched document here")
    p_cl.set_defaults(func=_cmd_client)

    p_ca = sub.add_parser("cache",
                          help="inspect or prune a result cache")
    p_ca.add_argument("action", choices=["stats", "prune"])
    p_ca.add_argument("--workdir", required=True,
                      help="a campaign/service workdir (containing "
                           "cache/) or a cache directory itself")
    p_ca.add_argument("--max-bytes", type=int, default=None,
                      help="prune oldest-first down to this many bytes")
    p_ca.add_argument("--ttl", type=float, default=None, metavar="SECONDS",
                      help="prune entries older than this")
    p_ca.set_defaults(func=_cmd_cache)

    from repro.bench.cli import add_bench_parser

    add_bench_parser(sub)
    return parser


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
