"""Tests for Monte Carlo availability estimation."""

import pytest

from repro import PathSet, RahaAnalyzer, RahaConfig, Srlg
from repro.exceptions import TopologyError
from repro.failures.montecarlo import estimate_availability, sample_scenario
from repro.network.builder import from_edges
from repro.network.srlg import attach_srlg
from repro.network.topology import Topology

import numpy as np


@pytest.fixture
def diamond():
    return from_edges([
        ("a", "b", 10), ("b", "d", 10), ("a", "c", 6), ("c", "d", 6),
    ], failure_probability=0.1)


@pytest.fixture
def paths(diamond):
    return PathSet.k_shortest(diamond, [("a", "d")], num_primary=2,
                              num_backup=0)


class TestSampleScenario:
    def test_sampling_frequency_tracks_probability(self, diamond):
        rng = np.random.default_rng(0)
        draws = [sample_scenario(diamond, rng) for _ in range(2000)]
        rate = sum(s.is_failed(("a", "b"), 0) for s in draws) / len(draws)
        assert rate == pytest.approx(0.1, abs=0.03)

    def test_srlg_members_share_fate(self):
        topo = from_edges([("a", "b", 1), ("a", "c", 1), ("b", "c", 1)],
                          failure_probability=0.001)
        srlg = Srlg(name="conduit", failure_probability=0.5)
        srlg.add("a", "b", 0)
        srlg.add("a", "c", 0)
        attach_srlg(topo, srlg)
        rng = np.random.default_rng(1)
        for _ in range(200):
            scenario = sample_scenario(topo, rng)
            assert scenario.is_failed(("a", "b"), 0) == scenario.is_failed(
                ("a", "c"), 0
            )

    def test_srlg_draw_cannot_fail_protected_member(self):
        # Regression: a fate-sharing group draw used to bypass the
        # per-link can_fail guard and take down protected links.
        from repro.network.topology import Link

        topo = from_edges([("a", "b", 1), ("a", "c", 1), ("b", "c", 1)],
                          failure_probability=0.001)
        topo.require_lag("a", "b").links = [
            Link(capacity=1, failure_probability=0.001, can_fail=False)
        ]
        srlg = Srlg(name="conduit", failure_probability=0.999)
        srlg.add("a", "b", 0)
        srlg.add("a", "c", 0)
        attach_srlg(topo, srlg)
        rng = np.random.default_rng(5)
        group_fired = 0
        for _ in range(50):
            scenario = sample_scenario(topo, rng)
            group_fired += scenario.is_failed(("a", "c"), 0)
            assert not scenario.is_failed(("a", "b"), 0)
        assert group_fired > 0

    def test_non_failable_links_never_sampled(self):
        from repro.network.topology import Link

        topo = from_edges([("a", "b", 1)], failure_probability=0.9)
        topo.require_lag("a", "b").links = [
            Link(capacity=1, failure_probability=0.9, can_fail=False)
        ]
        rng = np.random.default_rng(2)
        for _ in range(50):
            assert sample_scenario(topo, rng).num_failed_links == 0

    def test_missing_probability_rejected(self):
        topo = from_edges([("a", "b", 1)])
        rng = np.random.default_rng(0)
        with pytest.raises(TopologyError):
            sample_scenario(topo, rng)


class TestEstimateAvailability:
    def test_estimate_fields(self, diamond, paths):
        est = estimate_availability(
            diamond, {("a", "d"): 12.0}, paths, samples=100, seed=3
        )
        assert est.samples == 100
        assert est.healthy_flow == pytest.approx(12.0)
        assert 0.0 <= est.availability <= 1.0
        assert 0.0 <= est.exceedance_probability <= 1.0
        assert est.worst_sampled >= est.expected_degradation - 1e-9
        assert len(est.degradations) == 100

    def test_quantiles_monotone(self, diamond, paths):
        est = estimate_availability(
            diamond, {("a", "d"): 12.0}, paths, samples=100, seed=3
        )
        assert est.quantile(0.5) <= est.quantile(0.95) + 1e-12
        with pytest.raises(ValueError):
            est.quantile(1.5)

    def test_reliable_network_is_mostly_available(self, paths):
        topo = from_edges([
            ("a", "b", 10), ("b", "d", 10), ("a", "c", 6), ("c", "d", 6),
        ], failure_probability=1e-4)
        est = estimate_availability(
            topo, {("a", "d"): 12.0}, paths, samples=100, seed=4
        )
        assert est.availability > 0.99
        assert est.expected_degradation < 0.2

    def test_worst_sample_never_beats_exact_worst_case(self, diamond,
                                                       paths):
        """The analyzer's exact worst case dominates any sample."""
        est = estimate_availability(
            diamond, {("a", "d"): 12.0}, paths, samples=150, seed=5
        )
        exact = RahaAnalyzer(
            diamond, paths,
            RahaConfig(fixed_demands={("a", "d"): 12.0}),
        ).analyze()
        assert est.worst_sampled <= exact.degradation + 1e-6

    def test_bad_sample_count_rejected(self, diamond, paths):
        with pytest.raises(ValueError):
            estimate_availability(diamond, {("a", "d"): 1.0}, paths,
                                  samples=0)


class TestScenarioResolver:
    """The compile-once resolver must match the rebuild-every-time
    simulation exactly -- it is the hot path behind availability runs."""

    def _grid(self):
        topology = from_edges([
            ("a", "b", 10), ("b", "d", 10), ("a", "c", 6), ("c", "d", 6),
            ("b", "c", 4), ("a", "d", 3),
        ], failure_probability=0.1)
        paths = PathSet.k_shortest(
            topology, [("a", "d"), ("b", "c")], num_primary=2, num_backup=1
        )
        demands = {("a", "d"): 12.0, ("b", "c"): 5.0}
        return topology, demands, paths

    def _bundled_grid(self):
        """LAGs of 2-3 unequal links (partial failures shrink capacity
        without taking the LAG down) and a second backup path per pair,
        which Eq. 5 opens only once two higher-priority paths are down."""
        topology = Topology(name="bundled")
        for node in "abcde":
            topology.add_node(node)
        for u, v, caps in [
            ("a", "b", [4, 3, 3]), ("b", "d", [5, 5]), ("a", "c", [2, 2, 2]),
            ("c", "d", [3, 3]), ("b", "c", [2]), ("a", "d", [3]),
            ("c", "e", [4, 2]), ("e", "d", [3, 3, 1]),
        ]:
            topology.add_lag(u, v, link_capacities=caps,
                             link_probabilities=[0.1] * len(caps))
        pairs = [("a", "d"), ("b", "c"), ("a", "e")]
        paths = PathSet.k_shortest(topology, pairs, num_primary=1,
                                   num_backup=2)
        demands = {("a", "d"): 14.0, ("b", "c"): 5.0, ("a", "e"): 6.0}
        return topology, demands, paths

    def test_matches_simulation_over_all_single_failures(self):
        from repro.failures.montecarlo import ScenarioResolver
        from repro.failures.scenario import (
            FailureScenario,
            simulate_failed_network,
        )

        for topology, demands, paths in (self._grid(), self._bundled_grid()):
            resolver = ScenarioResolver(topology, demands, paths)
            scenarios = [FailureScenario()] + [
                FailureScenario([(lag.key, i)])
                for lag in topology.lags
                for i in range(len(lag.links))
            ]
            for scenario in scenarios:
                expected = simulate_failed_network(
                    topology, demands, paths, scenario
                ).total_flow
                assert resolver.delivered(scenario) == pytest.approx(
                    expected, abs=1e-6
                ), f"mismatch under {scenario}"

    def test_matches_simulation_on_double_failures(self):
        import itertools

        from repro.failures.montecarlo import ScenarioResolver
        from repro.failures.scenario import (
            FailureScenario,
            simulate_failed_network,
        )

        for topology, demands, paths in (self._grid(), self._bundled_grid()):
            resolver = ScenarioResolver(topology, demands, paths)
            links = [
                (lag.key, i)
                for lag in topology.lags
                for i in range(len(lag.links))
            ]
            for pair in itertools.combinations(links, 2):
                scenario = FailureScenario(pair)
                expected = simulate_failed_network(
                    topology, demands, paths, scenario
                ).total_flow
                assert resolver.delivered(scenario) == pytest.approx(
                    expected, abs=1e-6
                ), f"mismatch under {scenario}"

    def test_unknown_link_raises_topology_error(self):
        from repro.failures.montecarlo import ScenarioResolver
        from repro.failures.scenario import FailureScenario

        topology, demands, paths = self._bundled_grid()
        resolver = ScenarioResolver(topology, demands, paths)
        for bad in [(("a", "e"), 0), (("a", "b"), 3)]:
            with pytest.raises(TopologyError):
                resolver.delivered(FailureScenario([(("a", "b"), 0), bad]))

    def test_resolver_is_stateless_between_scenarios(self, diamond, paths):
        from repro.failures.montecarlo import ScenarioResolver
        from repro.failures.scenario import FailureScenario

        demands = {("a", "d"): 12.0}
        resolver = ScenarioResolver(diamond, demands, paths)
        healthy = resolver.delivered(FailureScenario())
        key = (("a", "b"), 0)
        degraded = resolver.delivered(FailureScenario([key]))
        assert degraded < healthy
        # Re-solving the healthy scenario must recover the original optimum:
        # bound/rhs patches from the degraded solve must not leak.
        assert resolver.delivered(FailureScenario()) == pytest.approx(healthy)

    def test_exported_from_package(self):
        from repro.failures import ScenarioResolver  # noqa: F401
