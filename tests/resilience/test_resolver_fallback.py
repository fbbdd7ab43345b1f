"""ScenarioResolver fallback: a broken re-solve never skews the numbers.

The Monte Carlo resolver answers thousands of scenarios through one
compiled model; if an incremental re-solve fails it must fall back to a
fresh solve of that scenario -- reporting 0.0 delivered would silently
bias every availability statistic.
"""

import pytest

from repro import PathSet, estimate_availability, gravity_demands
from repro.failures.montecarlo import ScenarioResolver
from repro.failures.scenario import FailureScenario
from repro.network.builder import from_edges
from repro.network.topology import lag_key
from repro.resilience.faults import FaultPlan, FaultPoint, injected


@pytest.fixture
def diamond():
    return from_edges([
        ("a", "b", 10), ("b", "d", 10), ("a", "c", 6), ("c", "d", 6),
    ], failure_probability=0.05)


@pytest.fixture
def instance(diamond):
    paths = PathSet.k_shortest(diamond, [("a", "d")], num_primary=1,
                               num_backup=1)
    demands = {("a", "d"): 12.0}
    return diamond, demands, paths


def _chaos() -> FaultPlan:
    return FaultPlan(seed=0, points=[FaultPoint("resolver.resolve")])


class TestDeliveredFallback:
    def test_chaos_faulted_resolve_matches_the_clean_answer(self, instance):
        topology, demands, paths = instance
        scenarios = [
            FailureScenario(),
            FailureScenario([(lag_key("a", "b"), 0)]),
            FailureScenario([(lag_key("a", "c"), 0)]),
            FailureScenario([(lag_key("a", "b"), 0),
                             (lag_key("a", "c"), 0)]),
        ]
        clean = ScenarioResolver(topology, demands, paths)
        expected = [clean.delivered(s) for s in scenarios]
        assert expected[0] > 0.0      # sanity: healthy network delivers
        assert expected[-1] == 0.0    # both LAGs out of a-d cuts it off

        faulted = ScenarioResolver(topology, demands, paths)
        with injected(_chaos()):
            got = [faulted.delivered(s) for s in scenarios]
        assert got == pytest.approx(expected)

    def test_fallback_logs_a_warning(self, instance, caplog):
        topology, demands, paths = instance
        resolver = ScenarioResolver(topology, demands, paths)
        with injected(_chaos()):
            with caplog.at_level("WARNING"):
                resolver.delivered(FailureScenario())
        assert any("falling back to a fresh solve" in r.message
                   for r in caplog.records)


class TestMonteCarloUnderChaos:
    def test_availability_estimate_is_identical(self, diamond):
        paths = PathSet.k_shortest(diamond, [("a", "d"), ("a", "b")],
                                   num_primary=1, num_backup=1)
        demands = dict(gravity_demands(diamond, scale=20,
                                       pairs=[("a", "d"), ("a", "b")]))
        clean = estimate_availability(diamond, demands, paths,
                                      samples=40, seed=3)
        with injected(_chaos()):
            chaotic = estimate_availability(diamond, demands, paths,
                                            samples=40, seed=3)
        assert chaotic.expected_degradation == pytest.approx(
            clean.expected_degradation)
        assert chaotic.availability == pytest.approx(clean.availability)
        assert chaotic.worst_sampled == pytest.approx(clean.worst_sampled)
        assert chaotic.degradations == pytest.approx(clean.degradations)


class TestChaosKey:
    """The ``resolver.resolve`` key is ``repr(scenario)``, built only
    while a fault plan is installed."""

    def test_plan_free_campaign_builds_no_key(self, instance, monkeypatch):
        def refuse(self):
            raise AssertionError("repr(scenario) built without a plan")

        monkeypatch.setattr(FailureScenario, "__repr__", refuse)
        estimate = estimate_availability(*instance, samples=60, seed=3)
        assert estimate.fresh_solves > 1

    def test_a_plan_still_targets_one_scenario_by_its_repr(
            self, instance, caplog):
        topology, demands, paths = instance
        target = FailureScenario([(lag_key("a", "c"), 0)])
        plan = FaultPlan(seed=0, points=[
            FaultPoint("resolver.resolve", match=repr(target))])
        resolver = ScenarioResolver(topology, demands, paths)
        with injected(plan), caplog.at_level("WARNING"):
            resolver.delivered(FailureScenario([(lag_key("a", "b"), 0)]))
            assert not caplog.records
            resolver.delivered(target)
        assert any("falling back to a fresh solve" in r.message
                   for r in caplog.records)
