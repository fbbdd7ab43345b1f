"""A warm campaign replays each sampled round from one cache entry.

Besides one entry per scenario and one for the healthy flow, the
engine stores each sampling round's delivered flows, in draw order,
under a key built from the round's failure matrix.  A re-run that
draws the same rows -- at any threshold, worker count or chunk size --
reads that one entry instead of one per scenario.  These tests hold
the replay to the per-scenario path it short-cuts: the same estimate,
field for field, and a fall-back to that path whenever the round entry
is missing, torn or the wrong shape.
"""

import dataclasses
import hashlib
import json
import shutil

import numpy as np
import pytest

from repro import PathSet
from repro.core.config import MonteCarloConfig
from repro.failures import availability
from repro.failures.availability import (
    ScenarioSampler,
    estimate_availability_parallel,
    round_cache_key,
    scenario_cache_key,
    scenario_doc,
)
from repro.failures.montecarlo import ScenarioResolver, sample_scenario
from repro.network import serialization as ser
from repro.network.builder import from_edges
from repro.obs.metrics import metrics
from repro.obs.trace import Tracer, tracing
from repro.resilience.faults import FaultPlan, FaultPoint
from repro.runner.cache import ResultCache, job_key

SAMPLES = 40


@pytest.fixture
def instance():
    topology = from_edges([
        ("a", "b", 10), ("b", "d", 10), ("a", "c", 6), ("c", "d", 6),
        ("b", "c", 4),
    ], failure_probability=0.2)
    paths = PathSet.k_shortest(topology, [("a", "d")], num_primary=2,
                               num_backup=1)
    return topology, {("a", "d"): 12.0}, paths


def config(adaptive=False, **overrides):
    base = dict(samples=SAMPLES, seed=5, degradation_threshold=1.0,
                num_workers=1, chunk_size=4)
    if adaptive:
        # Too narrow to reach: the campaign runs all four rounds.
        base.update(ci_width=0.01, max_samples=4 * SAMPLES)
    base.update(overrides)
    return MonteCarloConfig(**base)


def instance_key_of(topology, demands, paths):
    return job_key({
        "topology": ser.topology_to_dict(topology),
        "demands": ser.demands_to_dict(demands),
        "paths": ser.paths_to_dict(paths),
    })


def round_keys(topology, demands, paths, seed=5, rounds=1):
    """The round keys of a campaign, drawn the way the engine draws."""
    sampler = ScenarioSampler(topology)
    rng = np.random.default_rng(seed)
    instance_key = instance_key_of(topology, demands, paths)
    keys = []
    for _ in range(rounds):
        matrix = sampler.in_doc_order(sampler.sample(rng, SAMPLES))
        keys.append(round_cache_key(instance_key, matrix.tobytes(),
                                    matrix.shape[1]))
    return keys


def round_entry_paths(root):
    """The round entries on disk: those holding a list of flows."""
    return sorted(
        path for path in root.glob("*.json")
        if isinstance(json.loads(path.read_text().partition("\n")[0])
                      ["result"].get("delivered"), list))


def write_footerless(cache, key, result):
    """An entry as a hand edit leaves it: one JSON line, no footer, so
    ResultCache.get serves it as it stands."""
    cache.path_for(key).write_text(
        json.dumps({"key": key, "result": result}) + "\n")


@pytest.fixture
def gets(monkeypatch):
    """The key of every ResultCache.get, in order."""
    keys = []
    get = ResultCache.get

    def counting_get(self, key):
        keys.append(key)
        return get(self, key)

    monkeypatch.setattr(ResultCache, "get", counting_get)
    return keys


class TestRoundKey:
    def test_key_covers_the_instance_and_the_sampled_rows(self,
                                                          instance):
        sampler = ScenarioSampler(instance[0])
        matrix = sampler.in_doc_order(
            sampler.sample(np.random.default_rng(5), SAMPLES))
        key = round_cache_key("f" * 64, matrix.tobytes(), matrix.shape[1])
        assert key == job_key({
            "task": "availability.round",
            "instance": "f" * 64,
            "columns": matrix.shape[1],
            "rows": hashlib.sha256(matrix.tobytes()).hexdigest(),
        })
        assert key != round_cache_key("0" * 64, matrix.tobytes(),
                                      matrix.shape[1])
        flipped = matrix.copy()
        flipped[0, 0] = not flipped[0, 0]
        assert key != round_cache_key("f" * 64, flipped.tobytes(),
                                      matrix.shape[1])

    @pytest.mark.parametrize("adaptive", [False, True])
    def test_a_cold_campaign_writes_one_entry_per_round(
            self, instance, tmp_path, adaptive):
        cold = estimate_availability_parallel(
            *instance, config(adaptive), cache=tmp_path)
        assert cold.rounds == (4 if adaptive else 1)
        keys = round_keys(*instance, rounds=cold.rounds)
        assert [path.stem for path in round_entry_paths(tmp_path)] == \
            sorted(keys)
        cache = ResultCache(tmp_path)
        delivered = [flow for key in keys
                     for flow in cache.get(key)["delivered"]]
        assert [cold.healthy_flow - flow for flow in delivered] == \
            cold.degradations


class TestWarmReads:
    @pytest.mark.parametrize("adaptive", [False, True])
    def test_a_warm_rerun_reads_the_healthy_flow_and_one_entry_per_round(
            self, instance, tmp_path, gets, adaptive):
        cold = estimate_availability_parallel(
            *instance, config(adaptive), cache=tmp_path)
        del gets[:]
        warm = estimate_availability_parallel(
            *instance, config(adaptive, degradation_threshold=3.0),
            cache=tmp_path)
        assert len(gets) == 1 + warm.rounds
        assert gets[1:] == round_keys(*instance, rounds=warm.rounds)
        assert warm.fresh_solves == 0
        assert warm.cache_hits == warm.distinct_scenarios
        assert warm.degradations == cold.degradations

    def test_span_and_metrics_report_round_hits(self, instance, tmp_path):
        docs = []
        counter = metrics().counter("availability.round_hits")
        with tracing(Tracer(sink=lambda doc: docs.append(
                json.loads(json.dumps(doc))))):
            estimate_availability_parallel(
                *instance, config(adaptive=True), cache=tmp_path)
            before = counter.value
            warm = estimate_availability_parallel(
                *instance, config(adaptive=True), cache=tmp_path)
        cold_attrs, warm_attrs = [doc["attrs"] for doc in docs
                                  if doc["name"] == "availability"]
        assert cold_attrs["round_hits"] == 0
        assert warm_attrs["round_hits"] == warm.rounds == 4
        assert warm_attrs["cache_hits"] == warm.distinct_scenarios
        assert counter.value - before == warm.rounds


class TestReplayEquality:
    @pytest.mark.parametrize("threshold", [0.0, 3.0])
    @pytest.mark.parametrize("adaptive", [False, True])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_round_replay_equals_the_per_scenario_replay(
            self, instance, tmp_path, threshold, adaptive, workers):
        whole, per_scenario = tmp_path / "whole", tmp_path / "scenario"
        cold = estimate_availability_parallel(
            *instance, config(adaptive, num_workers=workers), cache=whole)
        shutil.copytree(whole, per_scenario)
        removed = round_entry_paths(per_scenario)
        assert len(removed) == cold.rounds
        for path in removed:
            path.unlink()
        replay = config(adaptive, num_workers=workers,
                        degradation_threshold=threshold, chunk_size=3)
        by_round = estimate_availability_parallel(*instance, replay,
                                                  cache=whole)
        by_scenario = estimate_availability_parallel(*instance, replay,
                                                     cache=per_scenario)
        assert by_round == by_scenario
        assert by_round.fresh_solves == 0
        assert by_round.degradations == cold.degradations
        assert by_round.worst_scenario == cold.worst_scenario
        # The per-scenario replay wrote the round entries back.
        assert sorted(p.name for p in per_scenario.glob("*.json")) == \
            sorted(p.name for p in whole.glob("*.json"))


class TestWarmEqualsCold:
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("width", [0.12, 0.01],
                             ids=["stops-at-3", "runs-out"])
    def test_a_warm_adaptive_rerun_equals_its_cold_run(
            self, instance, tmp_path, workers, width):
        adaptive = config(num_workers=workers, ci_width=width,
                          max_samples=4 * SAMPLES)
        cold = estimate_availability_parallel(*instance, adaptive,
                                              cache=tmp_path)
        warm = estimate_availability_parallel(*instance, adaptive,
                                              cache=tmp_path)
        assert cold.rounds == (3 if width == 0.12 else 4)
        for field in ("degradations", "worst_scenario",
                      "distinct_scenarios", "rounds", "ci_width",
                      "availability", "exceedance_probability"):
            assert getattr(warm, field) == getattr(cold, field), field
        assert warm.fresh_solves == 0
        assert warm == dataclasses.replace(
            cold, cache_hits=warm.cache_hits, fresh_solves=0)


class TestFallback:
    @pytest.fixture
    def reference(self, instance, tmp_path):
        """A warm replay from a sound cache."""
        cache = tmp_path / "reference"
        estimate_availability_parallel(*instance, config(), cache=cache)
        return estimate_availability_parallel(*instance, config(),
                                              cache=cache)

    def test_a_torn_round_entry_falls_back_per_scenario(
            self, instance, tmp_path, reference, gets):
        [key] = round_keys(*instance)
        cache = ResultCache(tmp_path / "torn")
        plan = FaultPlan(seed=0, points=[
            FaultPoint("cache.torn_write", match=key)])
        cold = estimate_availability_parallel(*instance, config(),
                                              cache=cache, chaos=plan)
        del gets[:]
        warm = estimate_availability_parallel(*instance, config(),
                                              cache=cache)
        assert warm == reference
        assert warm.fresh_solves == 0
        assert len(gets) == 2 + cold.distinct_scenarios
        assert cache.quarantined() == [cache.quarantine_path_for(key)]
        assert len(cache.get(key)["delivered"]) == SAMPLES

    @pytest.mark.parametrize("stored", [
        lambda flows: flows[:-1],
        lambda flows: flows + [0.0],
        lambda flows: flows[0],
    ], ids=["short", "long", "not-a-list"])
    def test_a_misshapen_round_entry_falls_back_per_scenario(
            self, instance, tmp_path, reference, stored):
        [key] = round_keys(*instance)
        cache = ResultCache(tmp_path / "misshapen")
        estimate_availability_parallel(*instance, config(), cache=cache)
        cache.put(key, {"delivered": stored(cache.get(key)["delivered"])})
        warm = estimate_availability_parallel(*instance, config(),
                                              cache=cache)
        assert warm == reference
        assert warm.fresh_solves == 0
        # Rewritten whole by the per-scenario path.
        assert len(cache.get(key)["delivered"]) == SAMPLES


class TestEntriesTheEngineDidNotWrite:
    """Well-formed entries without a footer are served as they stand; a
    value the engine could not have written is a miss, not a crash."""

    @pytest.fixture
    def reference(self, instance, tmp_path):
        cache = tmp_path / "reference"
        estimate_availability_parallel(*instance, config(), cache=cache)
        return estimate_availability_parallel(*instance, config(),
                                              cache=cache)

    @pytest.mark.parametrize("bad", [None, True, "12.0", [1.0]],
                             ids=["null", "true", "string", "list"])
    def test_a_round_entry_holding_a_non_number_falls_back_per_scenario(
            self, instance, tmp_path, reference, gets, bad):
        [key] = round_keys(*instance)
        cache = ResultCache(tmp_path / "edited")
        cold = estimate_availability_parallel(*instance, config(),
                                              cache=cache)
        flows = cache.get(key)["delivered"]
        write_footerless(cache, key, {"delivered": flows[:7] + [bad]
                                      + flows[8:]})
        del gets[:]
        warm = estimate_availability_parallel(*instance, config(),
                                              cache=cache)
        assert warm == reference
        assert warm.fresh_solves == 0
        assert len(gets) == 2 + cold.distinct_scenarios
        # Rewritten whole by the per-scenario path.
        assert cache.get(key)["delivered"] == flows

    @pytest.mark.parametrize("entry", [
        [1.0], {}, {"delivered": None}, {"delivered": False},
        {"delivered": "3"}, {"delivered": 10 ** 400},
    ], ids=["not-an-object", "no-field", "null", "bool", "string",
            "too-big"])
    def test_a_scenario_entry_holding_a_non_number_is_solved_afresh(
            self, instance, tmp_path, reference, entry):
        cache = ResultCache(tmp_path / "edited")
        estimate_availability_parallel(*instance, config(), cache=cache)
        [key] = round_keys(*instance)
        cache.path_for(key).unlink()
        scenario_key = scenario_cache_key(
            instance_key_of(*instance), scenario_doc(reference.worst_scenario))
        solved = cache.get(scenario_key)
        write_footerless(cache, scenario_key, entry)
        warm = estimate_availability_parallel(*instance, config(),
                                              cache=cache)
        assert warm == dataclasses.replace(
            reference, cache_hits=reference.cache_hits - 1, fresh_solves=1)
        assert cache.get(scenario_key) == solved

    @pytest.mark.parametrize("entry", [
        None, {"flow": 1.0}, {"healthy_flow": None},
        {"healthy_flow": True}, {"healthy_flow": "12.0"},
    ], ids=["null", "no-field", "null-field", "bool", "string"])
    def test_a_healthy_entry_holding_a_non_number_is_rewritten(
            self, instance, tmp_path, reference, entry):
        cache = ResultCache(tmp_path / "edited")
        estimate_availability_parallel(*instance, config(), cache=cache)
        healthy_key = job_key({"task": "availability.healthy",
                               "instance": instance_key_of(*instance)})
        write_footerless(cache, healthy_key, entry)
        warm = estimate_availability_parallel(*instance, config(),
                                              cache=cache)
        assert warm == reference
        assert cache.get(healthy_key) == {
            "healthy_flow": reference.healthy_flow}


def test_reference_keyed_cache_is_fully_hit_and_gains_round_entries(
        instance, tmp_path, gets):
    # Per-scenario entries only, addressed by the reference formula (as
    # caches written before round entries existed are).
    topology, demands, paths = instance
    instance_key = instance_key_of(topology, demands, paths)
    resolver = ScenarioResolver(topology, demands, paths)
    rng = np.random.default_rng(5)
    cache = ResultCache(tmp_path)
    seen = set()
    for _ in range(4 * SAMPLES):
        scenario = sample_scenario(topology, rng)
        if scenario not in seen:
            seen.add(scenario)
            cache.put(scenario_cache_key(instance_key,
                                         scenario_doc(scenario)),
                      {"delivered": resolver.delivered(scenario)})
    warm = estimate_availability_parallel(*instance, config(adaptive=True),
                                          cache=cache)
    assert warm.rounds == 4
    assert warm.fresh_solves == 0
    assert warm.cache_hits == warm.distinct_scenarios == len(seen)
    assert len(cache) == len(seen) + 1 + warm.rounds
    del gets[:]
    again = estimate_availability_parallel(*instance, config(adaptive=True),
                                           cache=cache)
    assert again == warm
    assert len(gets) == 1 + warm.rounds


def test_a_cacheless_campaign_builds_no_round_key(instance, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a cacheless campaign built a key")

    monkeypatch.setattr(availability, "job_key", refuse)
    monkeypatch.setattr(availability, "round_cache_key", refuse)
    monkeypatch.setattr(ScenarioSampler, "delivered_keyer", refuse)
    estimate = estimate_availability_parallel(*instance,
                                              config(adaptive=True))
    assert estimate.rounds == 4
    assert estimate.fresh_solves == estimate.distinct_scenarios
