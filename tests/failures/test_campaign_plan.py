"""A campaign's per-instance work is done once per process.

The engine keeps a few campaign plans -- the instance documents and
key, the sampler, the keyer, the parent resolver and the healthy flow
-- keyed on the pickle of the freshly serialized instance.  These tests
hold a reused plan to a fresh one: every estimate equals, field for
field, the estimate of a run with the memo cleared, including after the
caller mutated its topology, demands or paths in place between two
campaigns, and when two threads run the same instance at once.
"""

import dataclasses
import json
import os
import shutil
import sys
import threading

import numpy as np
import pytest

from repro import PathSet
from repro.core.config import MonteCarloConfig
from repro.failures import availability
from repro.failures.availability import (
    PLAN_SLOTS,
    estimate_availability_parallel,
)
from repro.network.builder import from_edges
from repro.network.srlg import Srlg
from repro.network.topology import Link
from repro.obs.metrics import metrics
from repro.obs.trace import Tracer, tracing
from repro.paths.pathset import DemandPaths
from repro.resilience.faults import FaultPlan, FaultPoint
from repro.runner.cache import canonical_json, job_key

PAIRS = [("a", "d"), ("b", "c"), ("a", "b")]


@pytest.fixture(autouse=True)
def no_plans():
    availability._plans.clear()
    yield
    availability._plans.clear()


def make_instance(capacity=10.0):
    """A small WAN whose a-b link has ``capacity`` as given, int or
    float (``from_edges`` would make it a float)."""
    topology = from_edges([
        ("a", "b", 10), ("b", "d", 10), ("a", "c", 6), ("c", "d", 6),
        ("b", "c", 4),
    ], failure_probability=0.2)
    topology.require_lag("a", "b").links = [
        Link(capacity=capacity, failure_probability=0.2)]
    paths = PathSet.k_shortest(topology, PAIRS, num_primary=2,
                               num_backup=1)
    return topology, {("a", "d"): 12.0, ("b", "c"): 3.0}, paths


@pytest.fixture
def instance():
    return make_instance()


def config(adaptive=False, **overrides):
    base = dict(samples=30, seed=5, degradation_threshold=1.0,
                num_workers=1, chunk_size=4)
    if adaptive:
        # Too narrow to reach: the campaign runs all three rounds.
        base.update(ci_width=0.01, max_samples=90)
    base.update(overrides)
    return MonteCarloConfig(**base)


def cleared(*instance_and_config, **kwargs):
    """The estimate with no plan to reuse."""
    availability._plans.clear()
    return estimate_availability_parallel(*instance_and_config, **kwargs)


def plan_hits() -> float:
    return metrics().counter("availability.plan_hits").value


# -- mutations in place between two campaigns -------------------------------

def add_lag(topology, demands, paths):
    topology.add_node("e")
    topology.add_lag("d", "e", capacity=5.0, failure_probability=0.4)


def replace_link(topology, demands, paths):
    lag = topology.require_lag("a", "b")
    lag.links[0] = dataclasses.replace(lag.links[0],
                                       failure_probability=0.45)


def append_srlg(topology, demands, paths):
    srlg = Srlg(name="conduit", failure_probability=0.3)
    srlg.add("a", "c", 0)
    srlg.add("c", "d", 0)
    topology.srlgs.append(srlg)


def change_volume(topology, demands, paths):
    demands[("a", "d")] = 9.0


def add_pair(topology, demands, paths):
    demands[("a", "b")] = 5.0


def replace_paths(topology, demands, paths):
    old = paths[("a", "d")]
    paths[("a", "d")] = DemandPaths(pair=old.pair, paths=old.paths[:2],
                                    num_primary=1)


@pytest.mark.parametrize("mutate", [add_lag, replace_link, append_srlg,
                                    change_volume, add_pair,
                                    replace_paths])
def test_an_instance_mutated_in_place_gets_a_fresh_plan(
        instance, tmp_path, mutate):
    before = estimate_availability_parallel(*instance, config(),
                                            cache=tmp_path / "warm")
    before_plain = estimate_availability_parallel(*instance, config())
    mutate(*instance)
    hits = plan_hits()
    after = estimate_availability_parallel(*instance, config(),
                                           cache=tmp_path / "warm")
    after_plain = estimate_availability_parallel(*instance, config())
    assert plan_hits() - hits == 1  # the second run reuses the new plan
    assert after != before and after_plain != before_plain
    assert after == cleared(*instance, config(), cache=tmp_path / "fresh")
    assert after_plain == cleared(*instance, config())


def test_int_and_float_capacities_get_plans_keyed_like_job_key(tmp_path):
    integral, real = make_instance(capacity=10), make_instance(capacity=10.0)
    estimates = [
        estimate_availability_parallel(*integral, config(),
                                       cache=tmp_path / "int"),
        estimate_availability_parallel(*real, config(),
                                       cache=tmp_path / "float"),
    ]
    plans = list(availability._plans.values())
    assert len(plans) == 2
    for plan in plans:
        assert plan.instance_key == job_key(json.loads(json.dumps(
            plan.instance)))
    assert plans[0].instance_key != plans[1].instance_key
    assert canonical_json(plans[0].instance) != \
        canonical_json(plans[1].instance)
    assert estimates[0] == cleared(*integral, config(),
                                   cache=tmp_path / "int-fresh")


def test_threads_on_one_instance_equal_the_serial_runs(instance):
    """More threads than cores, switching often: a plan shared by two
    campaigns at once would mix two scenarios in one HiGHS session."""
    seeds = list(range(6))
    serial = [cleared(*instance, config(seed=seed)) for seed in seeds]
    results: dict[int, list] = {slot: [] for slot in range(4)}
    barrier = threading.Barrier(len(results))

    def run(slot):
        barrier.wait()
        for seed in seeds:
            results[slot].append(estimate_availability_parallel(
                *instance, config(seed=seed)))

    threads = [threading.Thread(target=run, args=(slot,))
               for slot in results]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert all(runs == serial for runs in results.values())
    assert len(availability._plans) == 1


def test_a_plan_made_in_another_process_is_not_reused(instance):
    first = estimate_availability_parallel(*instance, config())
    [plan] = availability._plans.values()
    plan.pid = os.getpid() + 1
    hits = plan_hits()
    again = estimate_availability_parallel(*instance, config())
    assert plan_hits() == hits
    [fresh] = availability._plans.values()
    assert fresh is not plan and fresh.pid == os.getpid()
    assert again == first


def test_only_the_newest_plans_are_kept(instance):
    topology, demands, paths = instance
    volumes = [12.0 + step for step in range(PLAN_SLOTS + 1)]
    for volume in volumes:
        estimate_availability_parallel(
            topology, {**demands, ("a", "d"): volume}, paths, config())
    assert len(availability._plans) == PLAN_SLOTS
    hits = plan_hits()
    # The oldest instance was dropped; the newest is still held.
    estimate_availability_parallel(
        topology, {**demands, ("a", "d"): volumes[0]}, paths, config())
    assert plan_hits() == hits
    estimate_availability_parallel(
        topology, {**demands, ("a", "d"): volumes[-1]}, paths, config())
    assert plan_hits() == hits + 1


def test_a_campaign_that_raises_returns_no_plan(instance, tmp_path,
                                                monkeypatch):
    def failing_put(self, key, result):
        raise OSError("disk full")

    monkeypatch.setattr(availability.ResultCache, "put", failing_put)
    with pytest.raises(OSError):
        estimate_availability_parallel(*instance, config(), cache=tmp_path)
    assert not availability._plans


def test_the_plan_holds_no_caller_object(instance):
    topology, demands, paths = instance
    estimate_availability_parallel(*instance, config())
    [plan] = availability._plans.values()
    assert not hasattr(plan.sampler, "topology")
    resolver = plan.resolver
    assert resolver.topology is not topology
    assert resolver.paths is not paths
    assert resolver.demands == demands


# -- a reused plan against a cleared memo ------------------------------------

@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("threshold", [0.0, 3.0])
@pytest.mark.parametrize("adaptive", [False, True])
@pytest.mark.parametrize("cache", ["none", "cold", "warm"])
def test_a_reused_plan_equals_a_cleared_memo(instance, tmp_path, workers,
                                             threshold, adaptive, cache):
    run = config(adaptive, num_workers=workers,
                 degradation_threshold=threshold)
    reused_dir, cleared_dir = tmp_path / "reused", tmp_path / "cleared"
    if cache == "warm":
        estimate_availability_parallel(*instance, run, cache=reused_dir)
        shutil.copytree(reused_dir, cleared_dir)
    caches = ({} if cache == "none" else {"cache": reused_dir},
              {} if cache == "none" else {"cache": cleared_dir})
    # A campaign at another seed leaves the plan warm: healthy flow
    # solved, resolver compiled, keys built.
    estimate_availability_parallel(*instance, config(seed=99),
                                   cache=tmp_path / "primer")
    hits = plan_hits()
    reused = estimate_availability_parallel(*instance, run, **caches[0])
    assert plan_hits() == hits + 1
    fresh = cleared(*instance, run, **caches[1])
    assert reused == fresh
    assert reused.worst_scenario == fresh.worst_scenario
    if adaptive:
        assert reused.rounds == 3
    if cache == "warm":
        assert reused.fresh_solves == 0


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("site", ["availability.chunk", "resolver.resolve"])
def test_chaos_fallbacks_with_a_reused_plan(instance, site, workers):
    chaos = FaultPlan(seed=3, points=[FaultPoint(site=site, rate=0.5)])
    run = config(num_workers=workers)
    estimate_availability_parallel(*instance, config(seed=99))
    fallbacks = metrics().counter("resolver.fallbacks").value
    reused = estimate_availability_parallel(*instance, run, chaos=chaos)
    if site == "availability.chunk":
        assert reused.chunk_fallbacks > 0
    elif workers == 1:  # a worker's fallbacks count in its own process
        assert metrics().counter("resolver.fallbacks").value > fallbacks
    assert reused == cleared(*instance, run, chaos=chaos)
    plain = cleared(*instance, run)
    assert reused.degradations == plain.degradations


# -- replayed rounds and observability ----------------------------------------

def test_a_replayed_round_finds_failed_positions_only_for_the_worst(
        instance, tmp_path, monkeypatch):
    cold = estimate_availability_parallel(*instance, config(adaptive=True),
                                          cache=tmp_path)
    calls = []
    flatnonzero = np.flatnonzero

    def counting(row):
        calls.append(row)
        return flatnonzero(row)

    monkeypatch.setattr(availability.np, "flatnonzero", counting)
    warm = estimate_availability_parallel(*instance, config(adaptive=True),
                                          cache=tmp_path)
    assert warm.rounds == 3 and warm.fresh_solves == 0
    assert len(calls) == 1
    assert warm == dataclasses.replace(cold, cache_hits=warm.cache_hits,
                                       fresh_solves=0)


def test_span_and_metricz_report_plan_reuse(instance):
    docs = []
    with tracing(Tracer(sink=lambda doc: docs.append(doc))):
        estimate_availability_parallel(*instance, config())
        before = metrics().snapshot()["counters"].get(
            "availability.plan_hits", 0)
        estimate_availability_parallel(*instance, config(seed=6))
    reuse = [doc["attrs"]["plan_reused"] for doc in docs
             if doc["name"] == "availability"]
    assert reuse == [False, True]
    after = metrics().snapshot()["counters"]["availability.plan_hits"]
    assert after - before == 1
