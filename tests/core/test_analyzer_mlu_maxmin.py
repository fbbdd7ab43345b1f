"""Analyzer tests for the MLU and max-min objectives (Appendix A)."""

import pytest

from repro import PathSet, RahaAnalyzer, RahaConfig
from repro.failures.scenario import simulate_failed_mlu
from repro.network.builder import from_edges


@pytest.fixture
def diamond():
    return from_edges([
        ("a", "b", 10), ("b", "d", 10), ("a", "c", 6), ("c", "d", 6),
    ], failure_probability=0.05)


@pytest.fixture
def backup_paths(diamond):
    return PathSet.k_shortest(diamond, [("a", "d")], num_primary=1,
                              num_backup=1)


class TestMluMode:
    def test_fixed_demand_failover_raises_utilization(self, diamond,
                                                      backup_paths):
        # Healthy: 6 units on the 10-route -> U = 0.6.  Failing the
        # primary moves all 6 to the 6-route backup -> U = 1.0.
        config = RahaConfig(fixed_demands={("a", "d"): 6.0},
                            objective="mlu", max_failures=1)
        raha = RahaAnalyzer(diamond, backup_paths, config).analyze()
        assert raha.healthy_value == pytest.approx(0.6, abs=1e-6)
        assert raha.failed_value == pytest.approx(1.0, abs=1e-6)
        assert raha.degradation == pytest.approx(0.4, abs=1e-6)
        assert raha.verified

    def test_joint_mode_pushes_demand_up(self, diamond, backup_paths):
        config = RahaConfig(demand_bounds={("a", "d"): (0.0, 8.0)},
                            objective="mlu", max_failures=1)
        raha = RahaAnalyzer(diamond, backup_paths, config).analyze()
        # d on primary: U_h = d/10; failed onto backup: U_f = d/6.
        # Gap = d(1/6 - 1/10) grows with d -> d = 8.
        assert raha.demands[("a", "d")] == pytest.approx(8.0, abs=1e-5)
        assert raha.degradation == pytest.approx(8 / 6 - 8 / 10, abs=1e-5)

    def test_ce_forced_on(self, diamond, backup_paths):
        config = RahaConfig(fixed_demands={("a", "d"): 6.0},
                            objective="mlu", max_failures=4)
        assert config.connected_enforced
        raha = RahaAnalyzer(diamond, backup_paths, config).analyze()
        # CE keeps one path; the worst is still full fail-over U = 1.
        assert raha.failed_value == pytest.approx(1.0, abs=1e-6)

    def test_simulate_failed_mlu_uses_original_capacities(self, diamond,
                                                          backup_paths):
        from repro import FailureScenario

        scenario = FailureScenario.from_lags(diamond, [("a", "b")])
        sol = simulate_failed_mlu(
            diamond, {("a", "d"): 6.0}, backup_paths, scenario
        )
        assert sol.objective == pytest.approx(1.0, abs=1e-6)

    def test_mlu_degradation_not_normalized(self, diamond, backup_paths):
        config = RahaConfig(fixed_demands={("a", "d"): 6.0},
                            objective="mlu", max_failures=1)
        raha = RahaAnalyzer(diamond, backup_paths, config).analyze()
        assert raha.normalized_degradation == pytest.approx(raha.degradation)
        assert any("unnormalized" in note for note in raha.notes)


class TestMaxMinMode:
    @pytest.fixture
    def shared_bottleneck(self):
        # Two sources share a bottleneck toward c; a side path exists.
        return from_edges([
            ("a", "m", 10), ("b", "m", 10), ("m", "c", 10),
            ("a", "x", 4), ("x", "c", 4),
        ], failure_probability=0.05)

    def test_fixed_demand_fairness_degrades(self, shared_bottleneck):
        paths = PathSet.k_shortest(
            shared_bottleneck, [("a", "c"), ("b", "c")],
            num_primary=1, num_backup=1,
        )
        config = RahaConfig(
            fixed_demands={("a", "c"): 8.0, ("b", "c"): 8.0},
            objective="maxmin", max_failures=1,
        )
        raha = RahaAnalyzer(shared_bottleneck, paths, config).analyze()
        assert raha.degradation > 0
        assert raha.verified

    def test_joint_mode_runs_and_verifies(self, shared_bottleneck):
        paths = PathSet.k_shortest(
            shared_bottleneck, [("a", "c"), ("b", "c")],
            num_primary=1, num_backup=1,
        )
        config = RahaConfig(
            demand_bounds={("a", "c"): (0.0, 8.0), ("b", "c"): (0.0, 8.0)},
            objective="maxmin", max_failures=1,
        )
        raha = RahaAnalyzer(shared_bottleneck, paths, config).analyze()
        assert raha.degradation >= 0
        assert raha.verified

    def test_no_failures_budget_means_zero_gap(self, shared_bottleneck):
        paths = PathSet.k_shortest(
            shared_bottleneck, [("a", "c"), ("b", "c")],
            num_primary=1, num_backup=1,
        )
        config = RahaConfig(
            demand_bounds={("a", "c"): (0.0, 8.0), ("b", "c"): (0.0, 8.0)},
            objective="maxmin", max_failures=0,
        )
        raha = RahaAnalyzer(shared_bottleneck, paths, config).analyze()
        assert raha.degradation == pytest.approx(0.0, abs=1e-5)


class TestEquiDepthMode:
    def test_equidepth_binner_mode(self, diamond, backup_paths):
        config = RahaConfig(
            fixed_demands={("a", "d"): 6.0},
            objective="maxmin", maxmin_binner="equidepth",
            max_failures=1,
        )
        raha = RahaAnalyzer(diamond, backup_paths, config).analyze()
        assert raha.verified
        assert raha.degradation >= 0

    def test_variable_demands_verify(self):
        # The MILP bins take max_demand from the demand uppers; the
        # verification's healthy solve must use those bins, not ones
        # spread over the demands the MILP found ("MILP 410.616 vs
        # simulated 355.019" when they differed).
        from repro.analysis.experiments import bench_wan

        net = bench_wan(num_regions=2, nodes_per_region=3, num_pairs=3,
                        demand_to_capacity=1.4, seed=1)
        paths = net.paths(num_primary=1, num_backup=1)
        config = RahaConfig(
            demand_bounds={p: (0.3 * v, v)
                           for p, v in net.peak_demands.items()},
            objective="maxmin", maxmin_binner="equidepth", max_failures=1,
        )
        raha = RahaAnalyzer(net.topology, paths, config).analyze()
        assert raha.verified
        assert raha.degradation > 0

    def test_pinned_widths_ignore_demands(self):
        from repro.te.maxmin import EquiDepthBinnerTE

        binner = EquiDepthBinnerTE(num_bins=3)
        binner.widths = [1.0, 2.0, 2.0]
        assert binner.bin_widths(100.0) == [1.0, 2.0, 2.0]
        assert EquiDepthBinnerTE(num_bins=3).bin_widths(6.0) == [2.0] * 3

    def test_unknown_binner_rejected(self):
        from repro import ModelingError

        with pytest.raises(ModelingError):
            RahaConfig(fixed_demands={}, objective="maxmin",
                       maxmin_binner="quantile")
