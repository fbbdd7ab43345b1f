"""Row-built scenario keys and the healthy-flow memo.

The engine keys, looks up and tracks each sampled scenario by its
failure-matrix row, and memoizes the healthy flow per instance.  Both
are shortcuts around reference formulas that stay in the code
(``scenario_doc``, ``scenario_cache_key``, ``scenario_for`` and a plain
``TotalFlowTE`` solve), so these tests hold every shortcut to its
reference: the same documents, the same cache keys, the same worst
scenario, the same floats, and the same on-disk entries.
"""

import json

import numpy as np
import pytest

from repro import PathSet, Srlg
from repro.cli import main
from repro.core.config import MonteCarloConfig
from repro.failures import availability
from repro.failures.availability import (
    ScenarioSampler,
    availability_task,
    estimate_availability_parallel,
    scenario_cache_key,
    scenario_doc,
)
from repro.failures.montecarlo import (
    ScenarioResolver,
    estimate_availability,
    sample_scenario,
)
from repro.network import serialization as ser
from repro.network.builder import from_edges
from repro.network.srlg import attach_srlg
from repro.network.topology import Link
from repro.obs.trace import Tracer, tracing
from repro.runner.cache import ResultCache, job_key
from repro.te.total_flow import TotalFlowTE
from tests.failures.test_availability import reference_estimate

#: Node names JSON must escape (quote, backslash, non-ASCII), on LAGs
#: added out of sorted order, one of them a multi-link LAG.
ESCAPED_EDGES = [
    ('z"q', "b\\s", 8, 2), ("b\\s", "d", 10), ('z"q', "é", 6),
    ("é", "d", 6, 3), ("東京", 'z"q', 5), ("東京", "d", 5),
]


@pytest.fixture
def grouped():
    # An SRLG, a protected link inside it, and a protected link that
    # still carries a probability: every sampler branch.
    topology = from_edges([
        ("a", "b", 10), ("b", "d", 10), ("a", "c", 6), ("c", "d", 6),
    ], failure_probability=0.2)
    topology.require_lag("b", "d").links = [
        Link(capacity=10, failure_probability=0.3, can_fail=False)
    ]
    srlg = Srlg(name="conduit", failure_probability=0.25)
    srlg.add("a", "b", 0)
    srlg.add("b", "d", 0)
    srlg.add("c", "d", 0)
    attach_srlg(topology, srlg)
    return topology


@pytest.fixture
def escaped():
    return from_edges(ESCAPED_EDGES, failure_probability=0.3)


def instance_for(topology):
    pairs = [(u, v) for u, v in (("a", "d"), ('z"q', "d"), ("東京", "d"))
             if topology.has_node(u)]
    paths = PathSet.k_shortest(topology, pairs, num_primary=2,
                               num_backup=1)
    return topology, {pair: 9.0 for pair in pairs}, paths


def instance_key_of(topology, demands, paths):
    return job_key({
        "topology": ser.topology_to_dict(topology),
        "demands": ser.demands_to_dict(demands),
        "paths": ser.paths_to_dict(paths),
    })


def config(**overrides):
    base = dict(samples=60, seed=5, degradation_threshold=1.0,
                num_workers=1, chunk_size=8)
    base.update(overrides)
    return MonteCarloConfig(**base)


class TestRowKeys:
    @pytest.mark.parametrize("name", ["grouped", "escaped"])
    def test_doc_key_and_scenario_match_the_references(self, name,
                                                       request):
        topology = request.getfixturevalue(name)
        sampler = ScenarioSampler(topology)
        keyer = sampler.delivered_keyer("f" * 64)
        matrix = sampler.sample(np.random.default_rng(3), 200)
        ordered = sampler.in_doc_order(matrix)
        assert any(row.any() for row in matrix)
        for row, ordered_row in zip(matrix, ordered):
            positions = np.flatnonzero(ordered_row).tolist()
            scenario = sampler.scenario_for(row)
            doc = scenario_doc(scenario)
            assert sampler.doc_at(positions) == doc
            assert sampler.scenario_at(positions) == scenario
            assert keyer(positions) == scenario_cache_key("f" * 64, doc)

    def test_lag_order_differs_from_doc_order(self, escaped):
        # The premise of the escaped fixture: the permutation is not
        # the identity, so a keyer that skipped it would fail above.
        triples = [[*key, idx] for key, idx in
                   ScenarioSampler(escaped).links]
        assert triples != sorted(triples)

    def test_every_single_link_and_the_empty_scenario(self, escaped):
        sampler = ScenarioSampler(escaped)
        keyer = sampler.delivered_keyer("0" * 64)
        assert keyer([]) == scenario_cache_key("0" * 64, [])
        for j in range(sampler.num_links):
            row = np.zeros(sampler.num_links, dtype=bool)
            row[j] = True
            positions = np.flatnonzero(
                sampler.in_doc_order(row[None, :])[0]).tolist()
            doc = scenario_doc(sampler.scenario_for(row))
            assert keyer(positions) == scenario_cache_key("0" * 64, doc)

    @pytest.mark.parametrize("name", ["grouped", "escaped"])
    def test_reference_keyed_cache_is_fully_hit(self, name, request,
                                                tmp_path):
        # Fill a cache the way the reference formula addresses it (as
        # entries written by earlier versions are), then replay.
        topology, demands, paths = instance_for(
            request.getfixturevalue(name))
        instance_key = instance_key_of(topology, demands, paths)
        resolver = ScenarioResolver(topology, demands, paths)
        rng = np.random.default_rng(5)
        cache = ResultCache(tmp_path / "cache")
        seen = set()
        for _ in range(60):
            scenario = sample_scenario(topology, rng)
            if scenario in seen:
                continue
            seen.add(scenario)
            cache.put(scenario_cache_key(instance_key,
                                         scenario_doc(scenario)),
                      {"delivered": resolver.delivered(scenario)})
        warm = estimate_availability_parallel(
            topology, demands, paths, config(), cache=cache)
        assert warm.distinct_scenarios == len(seen)
        assert warm.fresh_solves == 0
        assert warm.cache_hits == warm.distinct_scenarios
        # Plus the healthy memo and the round's entry.
        assert len(cache) == len(seen) + 1 + warm.rounds

    @pytest.mark.parametrize("name", ["grouped", "escaped"])
    def test_worst_scenario_is_the_first_argmax(self, name, request,
                                                tmp_path):
        topology, demands, paths = instance_for(
            request.getfixturevalue(name))
        reference = reference_estimate(topology, demands, paths,
                                       samples=60, seed=5, threshold=1.0)
        for cache in (None, tmp_path / "cache", tmp_path / "cache"):
            estimate = estimate_availability_parallel(
                topology, demands, paths, config(), cache=cache)
            assert estimate.worst_scenario == reference["worst_scenario"]
            assert estimate.degradations == reference["degradations"]

    def test_campaign_span_reports_the_counters(self, grouped, tmp_path):
        # Serialized at span close, as a JSONL trace writer sees it.
        topology, demands, paths = instance_for(grouped)
        cache = tmp_path / "cache"
        estimate_availability_parallel(topology, demands, paths, config(),
                                       cache=cache)
        docs = []
        with tracing(Tracer(sink=lambda doc: docs.append(
                json.loads(json.dumps(doc))))):
            warm = estimate_availability_parallel(
                topology, demands, paths, config(), cache=cache)
        [attrs] = [doc["attrs"] for doc in docs
                   if doc["name"] == "availability"]
        assert attrs["distinct_scenarios"] == warm.distinct_scenarios
        assert attrs["cache_hits"] == warm.distinct_scenarios
        assert attrs["fresh_solves"] == 0


class TestNoKeysWithoutACache:
    @pytest.fixture
    def no_keys(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a cacheless campaign built a key")

        monkeypatch.setattr(ScenarioSampler, "delivered_keyer", refuse)
        monkeypatch.setattr(availability, "job_key", refuse)
        monkeypatch.setattr(availability, "scenario_cache_key", refuse)

    def test_engine_and_front_end(self, grouped, no_keys):
        topology, demands, paths = instance_for(grouped)
        estimate = estimate_availability_parallel(
            topology, demands, paths, config())
        assert estimate.fresh_solves == estimate.distinct_scenarios
        front = estimate_availability(topology, demands, paths,
                                      samples=60, seed=5)
        assert front.degradations == estimate.degradations

    def test_service_task(self, grouped, no_keys):
        topology, demands, paths = instance_for(grouped)
        result = availability_task({
            "instance": {
                "topology": ser.topology_to_dict(topology),
                "demands": ser.demands_to_dict(demands),
                "paths": ser.paths_to_dict(paths),
            },
            "params": {"samples": 60, "seed": 5},
        })
        assert result["samples"] == 60

    def test_cli_no_cache(self, grouped, no_keys, tmp_path):
        topology, demands, paths = instance_for(grouped)
        files = {}
        for name, doc in (("t", ser.topology_to_dict(topology)),
                          ("d", ser.demands_to_dict(demands)),
                          ("p", ser.paths_to_dict(paths))):
            files[name] = str(tmp_path / f"{name}.json")
            ser.save_json(doc, files[name])
        code = main([
            "availability", "--topology", files["t"], "--paths",
            files["p"], "--demands", files["d"], "--samples", "40",
            "--no-cache",
        ])
        assert code == 0


class TestHealthyMemo:
    def test_warm_campaign_solves_no_healthy_lp(self, grouped, tmp_path,
                                                monkeypatch):
        topology, demands, paths = instance_for(grouped)
        cache = tmp_path / "cache"
        cold = estimate_availability_parallel(
            topology, demands, paths, config(), cache=cache)

        def refuse(*args, **kwargs):
            raise AssertionError("the warm campaign solved an LP")

        monkeypatch.setattr(TotalFlowTE, "solve", refuse)
        monkeypatch.setattr(ScenarioResolver, "__init__", refuse)
        warm = estimate_availability_parallel(
            topology, demands, paths, config(), cache=cache)
        assert warm.healthy_flow.hex() == cold.healthy_flow.hex()
        assert warm.degradations == cold.degradations
        assert warm.availability == cold.availability
        # The memo is not a scenario: hits still count scenarios only.
        assert warm.cache_hits == warm.distinct_scenarios
        assert cold.cache_hits == 0

    def test_memo_is_the_plain_solve(self, grouped, tmp_path):
        topology, demands, paths = instance_for(grouped)
        cached = estimate_availability_parallel(
            topology, demands, paths, config(), cache=tmp_path / "c")
        plain = TotalFlowTE(primary_only=True).solve(
            topology, demands, paths).total_flow
        assert cached.healthy_flow.hex() == plain.hex()

    def test_corrupt_memo_is_quarantined_and_resolved(self, grouped,
                                                      tmp_path):
        topology, demands, paths = instance_for(grouped)
        cache = ResultCache(tmp_path / "cache")
        cold = estimate_availability_parallel(
            topology, demands, paths, config(), cache=cache)
        key = job_key({"task": "availability.healthy",
                       "instance": instance_key_of(topology, demands,
                                                   paths)})
        path = cache.path_for(key)
        path.write_text(path.read_text().replace("healthy_flow",
                                                 "healthy_flaw"))
        warm = estimate_availability_parallel(
            topology, demands, paths, config(), cache=cache)
        assert cache.quarantine_path_for(key).exists()
        assert warm.healthy_flow.hex() == cold.healthy_flow.hex()
        assert cache.get(key) == {"healthy_flow": cold.healthy_flow}
        assert warm.fresh_solves == 0
