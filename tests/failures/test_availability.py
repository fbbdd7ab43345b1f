"""Tests for the parallel, vectorized Monte Carlo availability engine.

The engine's contract is *bit-identical* statistics: the vectorized
sampler replays the scalar ``sample_scenario`` RNG stream, the fixed
chunk partition makes the merge independent of ``--jobs``, and the
persistent cache and chaos fallbacks change wall-clock behavior only --
never a single float.
"""

import dataclasses

import numpy as np
import pytest

from repro import PathSet, Srlg
from repro.core.config import MonteCarloConfig
from repro.exceptions import ModelingError, TopologyError
from repro.failures.availability import (
    ScenarioSampler,
    availability_task,
    estimate_availability_parallel,
    scenario_doc,
)
from repro.failures.montecarlo import ScenarioResolver, sample_scenario
from repro.network.builder import from_edges
from repro.network.srlg import attach_srlg
from repro.network.topology import Link
from repro.resilience.faults import (
    FaultPlan,
    FaultPoint,
    active_plan,
    injected,
)
from repro.te.total_flow import TotalFlowTE


@pytest.fixture
def diamond():
    # Probabilities are deliberately high so a small sample count still
    # produces a rich mix of distinct scenarios.
    return from_edges([
        ("a", "b", 10), ("b", "d", 10), ("a", "c", 6), ("c", "d", 6),
    ], failure_probability=0.2)


@pytest.fixture
def grouped(diamond):
    # One SRLG, one protected link, one non-failable probability-carrying
    # link: every branch of the sampler in a four-link topology.
    diamond.require_lag("b", "d").links = [
        Link(capacity=10, failure_probability=0.3, can_fail=False)
    ]
    srlg = Srlg(name="conduit", failure_probability=0.25)
    srlg.add("a", "b", 0)
    srlg.add("b", "d", 0)
    attach_srlg(diamond, srlg)
    return diamond


@pytest.fixture
def paths(diamond):
    return PathSet.k_shortest(diamond, [("a", "d")], num_primary=2,
                              num_backup=0)


DEMANDS = {("a", "d"): 12.0}


def config(**overrides):
    base = dict(samples=80, seed=11, degradation_threshold=1.0,
                num_workers=1, chunk_size=8)
    base.update(overrides)
    return MonteCarloConfig(**base)


class TestScenarioSampler:
    def test_replays_the_serial_stream(self, grouped):
        rng_serial = np.random.default_rng(42)
        rng_vec = np.random.default_rng(42)
        sampler = ScenarioSampler(grouped)
        matrix = sampler.sample(rng_vec, 300)
        for row in matrix:
            assert sample_scenario(grouped, rng_serial) == \
                sampler.scenario_for(row)

    def test_replays_the_stream_without_srlgs(self, diamond):
        rng_serial = np.random.default_rng(9)
        rng_vec = np.random.default_rng(9)
        sampler = ScenarioSampler(diamond)
        matrix = sampler.sample(rng_vec, 100)
        for row in matrix:
            assert sample_scenario(diamond, rng_serial) == \
                sampler.scenario_for(row)


def reference_estimate(topology, demands, paths, samples, seed,
                       threshold):
    """A plain serial Monte Carlo loop, independent of the engine.

    Scalar draws, a dedup dict, a resolver compiled from the original
    (unserialized) instance, and the textbook reductions.
    """
    rng = np.random.default_rng(seed)
    healthy = TotalFlowTE(primary_only=True).solve(
        topology, demands, paths).total_flow
    resolver = ScenarioResolver(topology, demands, paths)
    solved: dict = {}
    degradations = []
    worst, worst_scenario = -float("inf"), None
    for _ in range(samples):
        scenario = sample_scenario(topology, rng)
        if scenario not in solved:
            solved[scenario] = healthy - resolver.delivered(scenario)
        degradation = solved[scenario]
        degradations.append(degradation)
        if degradation > worst:  # first argmax
            worst, worst_scenario = degradation, scenario
    array = np.asarray(degradations)
    return {
        "degradations": [float(d) for d in degradations],
        "availability": float(np.mean((healthy - array) / healthy)),
        "exceedance_probability": float(np.mean(array > threshold)),
        "worst_sampled": float(array.max()),
        "worst_scenario": worst_scenario,
        "distinct_scenarios": len(solved),
    }


class TestBitIdentity:
    def test_matches_serial_estimate(self, grouped, paths):
        reference = reference_estimate(grouped, DEMANDS, paths,
                                       samples=80, seed=11, threshold=1.0)
        for workers in (1, 2):
            estimate = estimate_availability_parallel(
                grouped, DEMANDS, paths, config(num_workers=workers))
            got = {name: getattr(estimate, name) for name in reference}
            assert got == reference, f"num_workers={workers}"

    def test_jobs_1_and_4_are_bit_identical(self, grouped, paths):
        one = estimate_availability_parallel(
            grouped, DEMANDS, paths, config(num_workers=1))
        four = estimate_availability_parallel(
            grouped, DEMANDS, paths, config(num_workers=4))
        assert one.degradations == four.degradations
        assert one.expected_degradation == four.expected_degradation
        assert one.availability == four.availability
        assert one.worst_scenario == four.worst_scenario
        assert one.distinct_scenarios == four.distinct_scenarios
        assert four.fresh_solves == four.distinct_scenarios

    def test_dedup_counts_distinct_canonical_scenarios(self, grouped,
                                                       paths):
        estimate = estimate_availability_parallel(
            grouped, DEMANDS, paths, config())
        rng = np.random.default_rng(11)
        seen = set()
        for _ in range(80):
            seen.add(
                tuple(map(tuple, scenario_doc(sample_scenario(grouped,
                                                              rng)))))
        assert estimate.distinct_scenarios == len(seen)
        assert len(estimate.degradations) == 80


class TestPersistentCache:
    def test_warm_run_does_zero_fresh_solves(self, grouped, paths,
                                             tmp_path):
        cache = tmp_path / "cache"
        cold = estimate_availability_parallel(
            grouped, DEMANDS, paths, config(), cache=cache)
        assert cold.cache_hits == 0
        assert cold.fresh_solves == cold.distinct_scenarios
        warm = estimate_availability_parallel(
            grouped, DEMANDS, paths, config(), cache=cache)
        assert warm.fresh_solves == 0
        assert warm.cache_hits == warm.distinct_scenarios
        assert warm.degradations == cold.degradations
        assert warm.worst_scenario == cold.worst_scenario

    def test_cache_is_instance_keyed(self, grouped, paths, tmp_path):
        cache = tmp_path / "cache"
        estimate_availability_parallel(
            grouped, DEMANDS, paths, config(), cache=cache)
        # A different demand matrix is a different instance: no hits.
        other = estimate_availability_parallel(
            grouped, {("a", "d"): 7.0}, paths, config(), cache=cache)
        assert other.cache_hits == 0


class TestChaos:
    PLAN = FaultPlan(seed=3, points=[
        FaultPoint("availability.chunk", rate=1.0, attempts=()),
    ])

    def test_chunk_fault_degrades_to_identical_estimate(self, grouped,
                                                        paths):
        clean = estimate_availability_parallel(
            grouped, DEMANDS, paths, config())
        chaotic = estimate_availability_parallel(
            grouped, DEMANDS, paths, config(), chaos=self.PLAN)
        assert chaotic.chunk_fallbacks > 0
        assert chaotic.degradations == clean.degradations
        assert chaotic.worst_scenario == clean.worst_scenario

    def test_chunk_fault_in_worker_pool(self, grouped, paths):
        clean = estimate_availability_parallel(
            grouped, DEMANDS, paths, config(num_workers=2))
        chaotic = estimate_availability_parallel(
            grouped, DEMANDS, paths, config(num_workers=2),
            chaos=self.PLAN)
        assert chaotic.chunk_fallbacks > 0
        assert chaotic.degradations == clean.degradations

    def test_explicit_plan_is_scoped_to_the_call(self, grouped, paths):
        outer = FaultPlan(seed=1, points=[])
        with injected(outer):
            estimate_availability_parallel(
                grouped, DEMANDS, paths, config(), chaos=self.PLAN)
            assert active_plan() is outer

    def test_explicit_plan_is_restored_when_the_run_raises(self, paths):
        # A failable link with no probability: the sampler raises
        # inside the plan's scope.
        topology = from_edges([
            ("a", "b", 10), ("b", "d", 10), ("a", "c", 6), ("c", "d", 6),
        ])
        outer = FaultPlan(seed=1, points=[])
        with injected(outer):
            with pytest.raises(TopologyError):
                estimate_availability_parallel(
                    topology, DEMANDS, paths, config(), chaos=self.PLAN)
            assert active_plan() is outer

    def test_ambient_plan_applies_without_chaos(self, grouped, paths):
        with injected(self.PLAN):
            estimate = estimate_availability_parallel(
                grouped, DEMANDS, paths, config(), chaos=None)
            assert active_plan() is self.PLAN
        assert estimate.chunk_fallbacks > 0

    def test_plan_accepts_dict_form(self, grouped, paths):
        chaotic = estimate_availability_parallel(
            grouped, DEMANDS, paths, config(),
            chaos={"seed": 3, "points": [
                {"site": "availability.chunk", "attempts": []},
            ]})
        assert chaotic.chunk_fallbacks > 0


class TestAdaptiveStopping:
    def test_stops_at_ci_target(self, grouped, paths):
        estimate = estimate_availability_parallel(
            grouped, DEMANDS, paths,
            config(samples=40, ci_width=1.0))
        assert estimate.rounds == 1
        assert estimate.samples == 40
        assert estimate.ci_width is not None
        assert estimate.ci_width <= 1.0

    def test_tight_target_takes_more_rounds(self, grouped, paths):
        estimate = estimate_availability_parallel(
            grouped, DEMANDS, paths,
            config(samples=20, ci_width=1e-6, max_samples=60))
        assert estimate.rounds == 3
        assert estimate.samples == 60  # hit the cap

    def test_fixed_mode_reports_width_too(self, grouped, paths):
        estimate = estimate_availability_parallel(
            grouped, DEMANDS, paths, config())
        assert estimate.rounds == 1
        assert estimate.ci_width is not None


class TestAvailabilityTask:
    def test_round_trips_serialized_instance(self, grouped, paths):
        from repro.network import serialization as ser

        payload = {
            "task": "repro.failures.availability:availability_task",
            "instance": {
                "topology": ser.topology_to_dict(grouped),
                "demands": ser.demands_to_dict(DEMANDS),
                "paths": ser.paths_to_dict(paths),
            },
            "params": {"samples": 80, "seed": 11,
                       "degradation_threshold": 1.0},
        }
        result = availability_task(payload)
        direct = estimate_availability_parallel(
            grouped, DEMANDS, paths, config())
        assert result["availability"] == direct.availability
        assert result["expected_degradation"] == \
            direct.expected_degradation
        assert result["worst_scenario"] == \
            scenario_doc(direct.worst_scenario)
        assert result["distinct_scenarios"] == direct.distinct_scenarios


class TestConfigValidation:
    @pytest.mark.parametrize("overrides", [
        {"samples": 0},
        {"num_workers": 0},
        {"chunk_size": 0},
        {"ci_width": 0.0},
        {"ci_confidence": 1.0},
        {"samples": 50, "max_samples": 10},
    ])
    def test_bad_config_rejected(self, overrides):
        with pytest.raises(ModelingError):
            MonteCarloConfig(**overrides)

    def test_resolved_defaults(self):
        cfg = MonteCarloConfig(samples=10)
        assert cfg.resolved_workers() >= 1
        assert cfg.resolved_max_samples() == 200

    def test_config_is_plain_dataclass(self):
        assert dataclasses.is_dataclass(MonteCarloConfig)
