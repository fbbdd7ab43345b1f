"""ScenarioResolver's bound patches against the failure rules they encode.

:meth:`ScenarioResolver._patches` turns a scenario into ``resolve_with``
overrides from tables built once per resolver.  These tests rebuild
both overrides from the rules themselves and compare, scenario by
scenario:

* the capacity rows of the LAGs a scenario touches get
  :meth:`FailureScenario.residual_capacities`, equal by ``float.hex``;
* the blocked path columns are the backups that Eq. 5 keeps shut, given
  the down LAGs of :meth:`FailureScenario.down_lags` (Eq. 3) and the
  paths that cross them (Eq. 4).

The scenarios are sampled on the Monte Carlo benchmark's WAN and on B4
with SRLG group draws, protected links and multi-link LAGs, plus the
empty scenario and whole-LAG failures.
"""

import re

import numpy as np
import pytest

from repro import PathSet, Srlg
from repro.analysis.experiments import bench_wan
from repro.exceptions import TopologyError
from repro.failures.availability import ScenarioSampler
from repro.failures.montecarlo import ScenarioResolver
from repro.failures.scenario import FailureScenario, path_is_down
from repro.network.demand import gravity_demands
from repro.network.srlg import attach_srlg
from repro.network.topology import Link
from repro.network.zoo import b4

SAMPLES = 500


def mc_wan():
    """The WAN, demands and paths of the ``mc-cold`` benchmark workload."""
    net = bench_wan(num_regions=3, nodes_per_region=5, num_pairs=10,
                    demand_to_capacity=1.4, flaky_share=0.1, seed=1)
    return (net.topology, dict(net.avg_demands),
            net.paths(num_primary=2, num_backup=1))


def grouped_b4():
    """B4 with boosted link probabilities, two multi-link LAGs, two
    protected links and two SRLGs drawn as groups (one holding a
    protected link)."""
    topology = b4()
    for lag in topology.lags:
        lag.links[:] = [Link(capacity=link.capacity,
                             failure_probability=0.15)
                        for link in lag.links]
    lags = topology.lags
    lags[0].links = [Link(capacity=2000.0, failure_probability=0.3),
                     Link(capacity=1500.0, failure_probability=0.3),
                     Link(capacity=1500.0, failure_probability=0.3)]
    lags[5].links = [Link(capacity=2500.0, failure_probability=0.4),
                     Link(capacity=2500.0, failure_probability=0.4)]
    lags[3].links = [Link(capacity=5000.0, failure_probability=0.2,
                          can_fail=False)]
    lags[9].links = [Link(capacity=5000.0, can_fail=False)]
    conduit = Srlg(name="conduit", failure_probability=0.2)
    for lag in (lags[1], lags[3], lags[7]):
        conduit.add(lag.u, lag.v, 0)
    trench = Srlg(name="trench", failure_probability=0.1)
    trench.add(lags[5].u, lags[5].v, 1)
    trench.add(lags[11].u, lags[11].v, 0)
    attach_srlg(topology, conduit)
    attach_srlg(topology, trench)
    nodes = sorted(topology.nodes)
    pairs = [(nodes[0], nodes[5]), (nodes[2], nodes[9]),
             (nodes[4], nodes[11]), (nodes[1], nodes[7]),
             (nodes[3], nodes[10])]
    demands = gravity_demands(topology, scale=5e5, pairs=pairs, seed=1)
    paths = PathSet.k_shortest(topology, pairs, num_primary=2,
                               num_backup=2)
    return topology, dict(demands), paths


INSTANCES = {"mc-wan": mc_wan, "grouped-b4": grouped_b4}


@pytest.fixture(scope="module", params=sorted(INSTANCES))
def resolver(request):
    return ScenarioResolver(*INSTANCES[request.param]())


def reference_patches(resolver, scenario):
    """``({row: residual}, [blocked column, ...])`` from the rules."""
    topology = resolver.topology
    residual = scenario.residual_capacities(topology)
    touched = {key for key, _ in scenario.failed_links}
    rows = {}
    for pos, lag in enumerate(topology.lags):
        if lag.key in touched and resolver._lag_row[pos] >= 0:
            rows[resolver._lag_row[pos]] = residual[lag.key]
    down = scenario.down_lags(topology)
    blocked = []
    column = 0
    for pair in resolver.demands:
        demand_paths = resolver.paths[pair]
        down_before = 0
        for j, path in enumerate(demand_paths.paths):
            if down_before < max(j - demand_paths.num_primary + 1, 0):
                blocked.append(column)
            down_before += path_is_down(topology, path, down)
            column += 1
    assert column == resolver._model.num_vars
    return rows, blocked


def assert_parity(resolver, scenario):
    rows, columns = resolver._patches(scenario)
    ref_rows, ref_blocked = reference_patches(resolver, scenario)
    assert {row: float(value).hex() for row, value in rows.items()} == {
        row: float(value).hex() for row, value in ref_rows.items()}
    assert list(columns) == ref_blocked
    assert set(columns.values()) <= {0.0}


def sampled(resolver, seed=0):
    sampler = ScenarioSampler(resolver.topology)
    matrix = sampler.sample(np.random.default_rng(seed), SAMPLES)
    ordered = sampler.in_doc_order(matrix)
    for row, ordered_row in zip(matrix, ordered):
        yield sampler.scenario_for(row)
        yield sampler.scenario_at(np.flatnonzero(ordered_row).tolist())


def test_sampled_scenarios_match_the_rules(resolver):
    down_seen = partial_seen = 0
    for scenario in sampled(resolver):
        assert_parity(resolver, scenario)
        down = scenario.down_lags(resolver.topology)
        down_seen += bool(down)
        touched = {key for key, _ in scenario.failed_links}
        partial_seen += bool(touched - down)
    # The samples exercise both halves of the rules.
    assert down_seen > 50
    assert partial_seen > 50


def test_repeated_scenarios_give_the_same_patches(resolver):
    # Residuals are kept per LAG and lost-link mask; a repeat must read
    # back what the first call summed.
    scenarios = list(sampled(resolver, seed=7))[:200]
    first = [resolver._patches(scenario) for scenario in scenarios]
    for scenario, (rows, columns) in zip(scenarios, first):
        again_rows, again_columns = resolver._patches(scenario)
        assert again_rows == rows and list(again_columns) == list(columns)
        assert_parity(resolver, scenario)


def test_empty_scenario_blocks_every_backup_and_patches_no_row(resolver):
    assert_parity(resolver, FailureScenario())
    rows, columns = resolver._patches(FailureScenario())
    assert rows == {}
    assert columns  # both instances configure backups


def test_whole_lag_failures(resolver):
    topology = resolver.topology
    multi = [lag for lag in topology.lags if lag.num_links > 1]
    crossed = [lag for pos, lag in enumerate(topology.lags)
               if resolver._lag_row[pos] >= 0]
    assert multi and crossed
    for lag in multi[:3] + crossed[:5]:
        scenario = FailureScenario.from_lags(topology, [lag.key])
        assert scenario.down_lags(topology) == {lag.key}
        assert_parity(resolver, scenario)
        rows, _ = resolver._patches(scenario)
        assert all(value == 0 for value in rows.values())
    everything = FailureScenario.from_lags(
        topology, [lag.key for lag in crossed])
    assert_parity(resolver, everything)


@pytest.mark.parametrize("link", [
    (("no-such", "node"), 0),  # an unknown LAG
    None,  # a link index past the end of a real LAG
])
def test_a_link_missing_from_the_topology_raises(resolver, link):
    lag = resolver.topology.lags[0]
    if link is None:
        link = (lag.key, lag.num_links)
    scenario = FailureScenario([link, (lag.key, 0)])
    with pytest.raises(TopologyError) as expected:
        scenario.validate_for(resolver.topology)
    message = re.escape(str(expected.value))
    with pytest.raises(TopologyError, match=message):
        resolver._patches(scenario)
    with pytest.raises(TopologyError, match=message):
        resolver.delivered(scenario)
