"""Run one benchmark workload and print its metrics as one JSON line.

From the repository root::

    python3 perfbench/run.py --workload mc-cold --seed 3 --seconds 15 --trace 0

``--trace 0`` measures with tracing off and prints the end-to-end
metrics named in BENCHMARK.json.  ``--trace 1`` installs the per-layer
probe (probe.py) on every other pass of a closed loop, or on the second
half of the open loop's schedule, and prints the per-layer metrics.
Outputs are checked in both modes.  Without the program's sources under
``src/`` the run exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.getcwd(), "src")
#: Declares every metric and its unit.
BENCHMARK = os.path.join(os.getcwd(), "BENCHMARK.json")
#: Scratch space inside the checkout: caches, service state, traces.
WORKDIR = os.path.join(os.getcwd(), ".perfbench")
#: Set-up runs this many times in a run; ``setup_s`` takes the medians.
SETUP_REPEATS = 3
#: Imports what a run imports, in a fresh interpreter, and prints how
#: long that took.
IMPORTS = ("import sys, time; started = time.perf_counter(); "
           "sys.path[:0] = sys.argv[1:]; import workloads, probe; "
           "print(time.perf_counter() - started)")

#: Per-layer metrics that every workload prints, 0 where it has none.
DEFAULT_LAYERS = ("failures.dedup_ratio", "failures.fallbacks",
                  "service.shed", "service.backlog_end",
                  "loadgen.late_p99_s")


def units() -> dict[str, str]:
    """The unit of every metric, as BENCHMARK.json declares it."""
    with open(BENCHMARK) as handle:
        doc = json.load(handle)
    return {metric["name"]: metric["unit"]
            for metric in doc["end_to_end"] + doc["per_layer"]}


def time_imports() -> float:
    """Seconds a fresh interpreter takes to import the benchmark and the
    program."""
    done = subprocess.run(
        [sys.executable, "-c", IMPORTS, HERE, SRC],
        capture_output=True, text=True, check=True, timeout=120)
    return float(done.stdout)


def set_up(workload) -> float:
    """Set the workload up ``SETUP_REPEATS`` times; returns ``setup_s``.

    Each repeat times the imports in a fresh interpreter and the
    workload's own set-up (instances, expected outputs, warm-up), and
    ``setup_s`` is the sum of the two medians.  It is not scaled to
    reference seconds: the few slices that fit between set-up steps
    tracked its drift worse than none (spread over ten seeds 0.15 to 0.19
    scaled against 0.10 to 0.15 raw, on three of the four workloads).
    """
    imports, builds = [], []
    for _ in range(SETUP_REPEATS):
        imports.append(time_imports())
        began = time.perf_counter()
        workload.setup()
        builds.append(time.perf_counter() - began)
    return statistics.median(imports) + statistics.median(builds)


def end_to_end(workload, measurement) -> dict[str, float]:
    """The window's end-to-end metrics in measured seconds."""
    from loops import nearest_rank

    tally = measurement.plain
    return {
        "work_per_s": tally.work / measurement.window,
        "latency_p50_s": statistics.median(tally.latencies),
        "latency_tail_s": nearest_rank(tally.latencies, workload.tail),
        "cpu_s_per_work": measurement.cpu / tally.work,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "success_ratio": 1.0 - tally.failed / len(tally.latencies),
    }


def per_layer(workload, measurement, probe) -> dict[str, float]:
    layers = dict.fromkeys(DEFAULT_LAYERS, 0.0)
    layers.update(probe.metrics())
    layers.update(workload.layer_metrics())
    layers.update(measurement.layers)
    plain, traced = measurement.plain, measurement.traced
    layers["isolation.share"] = workload.isolation(
        layers, sum(traced.latencies))
    # Work per CPU second in each mode: tracing's cost on the same work.
    plain_rate = plain.work / plain.cpu if plain.cpu else 0.0
    traced_rate = traced.work / traced.cpu if traced.cpu else 0.0
    layers["obs.trace_overhead"] = (
        1.0 - traced_rate / plain_rate if plain_rate else 0.0)
    return layers


def to_reference(metrics: dict[str, float], unit: dict[str, str],
                 scale: float) -> dict[str, float]:
    """Convert times to reference seconds; rates in 1/s the other way."""
    factors = {"s": scale, "1/s": 1.0 / scale}
    return {name: value * factors.get(unit[name], 1.0)
            for name, value in metrics.items()}


def write_trace(probe, workload: str, seed: int) -> None:
    traces = os.path.join(WORKDIR, "traces")
    os.makedirs(traces, exist_ok=True)
    path = os.path.join(traces, f"{workload}-seed{seed}.jsonl")
    with open(path, "w") as handle:
        for doc in probe.tracer.export():
            handle.write(json.dumps(doc) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads
    from loops import HostSpeed
    from probe import Probe

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r} (known: "
              f"{', '.join(workloads.WORKLOADS)})", file=sys.stderr)
        return 2
    unit = units()

    os.makedirs(WORKDIR, exist_ok=True)
    probe = Probe() if args.trace else None
    speed = HostSpeed()
    try:
        with tempfile.TemporaryDirectory(dir=WORKDIR) as scratch:
            workload = workloads.WORKLOADS[args.workload](
                args.seed, args.seconds, scratch)
            try:
                setup_s = set_up(workload)
                measurement = workload.measure(speed, probe)
                if probe is None:
                    raw = end_to_end(workload, measurement)
                else:
                    raw = per_layer(workload, measurement, probe)
                    raw["host.speed_factor"] = measurement.factor
            finally:
                workload.close()
    finally:
        speed.close()
    if probe is not None:
        write_trace(probe, args.workload, args.seed)
    metrics = to_reference(raw, unit, measurement.factor)
    if probe is None:
        metrics["setup_s"] = setup_s

    print(f"perfbench: {args.workload} seed {args.seed}: "
          f"{measurement.attempted} operations, {measurement.failed} failed, "
          f"tail percentile p{round(workload.tail * 100)}; host speed "
          f"factor {measurement.factor:.4f}; measured: " + json.dumps(raw))
    print(json.dumps({
        "correct": measurement.failed == 0,
        "attempted": measurement.attempted,
        "failed": measurement.failed,
        "metrics": {name: {"value": value, "unit": unit[name]}
                    for name, value in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
