"""Scale benchmark: in-process vs pooled Monte Carlo availability on B4.

Runs the same >= 500-sample availability campaign twice -- once
in-process (1 worker) through
:func:`repro.failures.montecarlo.estimate_availability`, once through
the engine in :mod:`repro.failures.availability` at four workers -- and
asserts the two estimates are *bit-identical* (the engine's core
contract) before comparing wall clocks.

The speedup floor is only asserted on machines with enough cores to
host the worker pool; the identity checks always run, so a single-core
box still exercises the full parallel code path (pool, chunking, merge).
"""

from __future__ import annotations

import dataclasses
import itertools
import os
import time

from benchmarks.conftest import run_once
from repro.analysis.reporting import print_table
from repro.core.config import MonteCarloConfig
from repro.failures.availability import estimate_availability_parallel
from repro.failures.montecarlo import estimate_availability
from repro.network.demand import gravity_demands
from repro.network.zoo import b4
from repro.paths.pathset import PathSet

#: Campaign size (the floor is 500 samples on B4; 800 keeps the run
#: solve-dominated so the speedup measurement is not noise-bound).
SAMPLES = 800
SEED = 11
THRESHOLD = 1.0
WORKERS = 4
#: Distinct scenarios per worker chunk: big enough to amortize payload
#: shipping and the per-chunk resolver compile, small enough to balance
#: the pool.
CHUNK_SIZE = 48

#: Asserted speedup floor at four workers, only checked when the machine
#: actually has four cores to run them on.
MIN_SPEEDUP = 3.0


def _campaign():
    """B4 with boosted failure probabilities.

    The zoo's production-mixture probabilities are so small that 500
    samples collapse to a handful of distinct scenarios; boosting them
    makes the campaign solve-dominated, which is the regime the
    parallel engine targets (and the one production availability runs
    live in).
    """
    topology = b4()
    for lag in topology.lags:
        lag.links[:] = [
            dataclasses.replace(
                link,
                failure_probability=min(
                    0.3, (link.failure_probability or 0.0) * 500.0),
            )
            if link.can_fail and link.failure_probability is not None
            else link
            for link in lag.links
        ]
    nodes = sorted(topology.nodes)
    pairs = list(itertools.combinations(nodes, 2))[:20]
    demands = gravity_demands(topology, scale=5e5, pairs=pairs, seed=1)
    paths = PathSet.k_shortest(topology, pairs, num_primary=3,
                               num_backup=2)
    return topology, dict(demands), paths


def test_parallel_engine_matches_serial_and_scales(benchmark):
    topology, demands, paths = _campaign()

    def run():
        start = time.perf_counter()
        serial = estimate_availability(
            topology, demands, paths, samples=SAMPLES, seed=SEED,
            degradation_threshold=THRESHOLD,
        )
        serial_s = time.perf_counter() - start
        start = time.perf_counter()
        parallel = estimate_availability_parallel(
            topology, demands, paths,
            MonteCarloConfig(samples=SAMPLES, seed=SEED,
                             degradation_threshold=THRESHOLD,
                             num_workers=WORKERS,
                             chunk_size=CHUNK_SIZE),
        )
        parallel_s = time.perf_counter() - start
        return serial, serial_s, parallel, parallel_s

    serial, serial_s, parallel, parallel_s = run_once(benchmark, run)

    # Bit-identical statistics, not approximately-equal ones.
    assert parallel.degradations == serial.degradations
    assert parallel.expected_degradation == serial.expected_degradation
    assert parallel.availability == serial.availability
    assert parallel.exceedance_probability == \
        serial.exceedance_probability
    assert parallel.worst_sampled == serial.worst_sampled
    assert parallel.worst_scenario == serial.worst_scenario
    assert parallel.distinct_scenarios == serial.distinct_scenarios
    assert parallel.samples == SAMPLES

    speedup = serial_s / parallel_s if parallel_s > 0 else float("inf")
    print_table(
        f"Monte Carlo availability at scale (B4, {SAMPLES} samples, "
        f"{parallel.distinct_scenarios} distinct)",
        ["engine", "workers", "seconds", "speedup"],
        [
            ["in-process (1 worker)", 1, f"{serial_s:.2f}", "1.0x"],
            ["vectorized + pool", WORKERS, f"{parallel_s:.2f}",
             f"{speedup:.1f}x"],
        ],
    )

    if (os.cpu_count() or 1) >= WORKERS:
        assert speedup >= MIN_SPEEDUP, (
            f"parallel engine managed only {speedup:.2f}x over serial "
            f"(floor {MIN_SPEEDUP}x at {WORKERS} workers)"
        )
