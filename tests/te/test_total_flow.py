"""Tests for the Eq. 2 total-flow TE solver."""

import pytest

from repro.exceptions import PathError
from repro.network.builder import from_edges, line
from repro.paths import PathSet
from repro.te import TotalFlowTE


@pytest.fixture
def diamond():
    return from_edges([
        ("a", "b", 10), ("b", "d", 10), ("a", "c", 10), ("c", "d", 10),
    ])


class TestTotalFlow:
    def test_single_demand_single_path(self):
        topo = line(3, capacity=7)
        paths = PathSet.k_shortest(topo, [("n0", "n2")], 1, 0)
        sol = TotalFlowTE().solve(topo, {("n0", "n2"): 100.0}, paths)
        assert sol.total_flow == pytest.approx(7.0)
        assert sol.objective == pytest.approx(7.0)

    def test_demand_bound_binds(self):
        topo = line(3, capacity=7)
        paths = PathSet.k_shortest(topo, [("n0", "n2")], 1, 0)
        sol = TotalFlowTE().solve(topo, {("n0", "n2"): 3.0}, paths)
        assert sol.total_flow == pytest.approx(3.0)

    def test_multipath_split(self, diamond):
        paths = PathSet.k_shortest(diamond, [("a", "d")], 2, 0)
        sol = TotalFlowTE().solve(diamond, {("a", "d"): 100.0}, paths)
        assert sol.total_flow == pytest.approx(20.0)  # both 10-cap routes

    def test_shared_lag_contention(self):
        # Two demands share the middle LAG.
        topo = from_edges([("a", "m", 10), ("b", "m", 10), ("m", "c", 8)])
        paths = PathSet.k_shortest(topo, [("a", "c"), ("b", "c")], 1, 0)
        sol = TotalFlowTE().solve(
            topo, {("a", "c"): 10.0, ("b", "c"): 10.0}, paths
        )
        assert sol.total_flow == pytest.approx(8.0)

    def test_primary_only_ignores_backups(self, diamond):
        paths = PathSet.k_shortest(diamond, [("a", "d")], 1, 1)
        sol = TotalFlowTE(primary_only=True).solve(
            diamond, {("a", "d"): 100.0}, paths
        )
        assert sol.total_flow == pytest.approx(10.0)
        sol_all = TotalFlowTE(primary_only=False).solve(
            diamond, {("a", "d"): 100.0}, paths
        )
        assert sol_all.total_flow == pytest.approx(20.0)

    def test_capacity_override(self, diamond):
        paths = PathSet.k_shortest(diamond, [("a", "d")], 2, 0)
        sol = TotalFlowTE().solve(
            diamond, {("a", "d"): 100.0}, paths,
            capacities={("a", "b"): 0.0},
        )
        assert sol.total_flow == pytest.approx(10.0)

    def test_path_cap_disables_path(self, diamond):
        paths = PathSet.k_shortest(diamond, [("a", "d")], 2, 0)
        first = paths[("a", "d")].paths[0]
        sol = TotalFlowTE().solve(
            diamond, {("a", "d"): 100.0}, paths,
            path_caps={(("a", "d"), first): 0.0},
        )
        assert sol.total_flow == pytest.approx(10.0)

    def test_path_cap_partial(self, diamond):
        paths = PathSet.k_shortest(diamond, [("a", "d")], 2, 0)
        first = paths[("a", "d")].paths[0]
        sol = TotalFlowTE().solve(
            diamond, {("a", "d"): 100.0}, paths,
            path_caps={(("a", "d"), first): 4.0},
        )
        assert sol.total_flow == pytest.approx(14.0)

    def test_lag_loads_respect_capacity(self, diamond):
        paths = PathSet.k_shortest(diamond, [("a", "d"), ("b", "c")], 2, 0)
        sol = TotalFlowTE().solve(
            diamond, {("a", "d"): 50.0, ("b", "c"): 50.0}, paths
        )
        for lag in diamond.lags:
            assert sol.lag_loads.get(lag.key, 0.0) <= lag.capacity + 1e-6

    def test_pair_flows_cover_all_pairs(self, diamond):
        paths = PathSet.k_shortest(diamond, [("a", "d")], 2, 0)
        sol = TotalFlowTE().solve(diamond, {("a", "d"): 0.0}, paths)
        assert sol.pair_flows[("a", "d")] == pytest.approx(0.0)

    def test_missing_paths_rejected(self, diamond):
        with pytest.raises(PathError):
            TotalFlowTE().solve(diamond, {("a", "d"): 1.0}, PathSet())

    def test_max_utilization_helper(self, diamond):
        paths = PathSet.k_shortest(diamond, [("a", "d")], 2, 0)
        sol = TotalFlowTE().solve(diamond, {("a", "d"): 100.0}, paths)
        assert sol.max_utilization(diamond) == pytest.approx(1.0)

    def test_max_utilization_reads_partial_capacity_overrides(self, diamond):
        # The same partial mapping solve() accepts: LAGs without an
        # override keep their own capacity.
        paths = PathSet.k_shortest(diamond, [("a", "d")], 2, 0)
        capacities = {("a", "b"): 4.0}
        sol = TotalFlowTE().solve(diamond, {("a", "d"): 100.0}, paths,
                                  capacities=capacities)
        assert sol.total_flow == pytest.approx(14.0)
        assert sol.max_utilization(diamond, capacities) == pytest.approx(1.0)
        # Halving the upper route's override doubles its utilization.
        assert sol.max_utilization(
            diamond, {("a", "b"): 2.0}) == pytest.approx(2.0)
