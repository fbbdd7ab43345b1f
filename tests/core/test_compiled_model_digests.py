"""Golden digests of every model a Raha analysis compiles.

The compiled model is the contract between the modeling layer and
HiGHS: the same arrays in give the same answer out, bit for bit.  Each
case below runs one full analysis (MILP, KKT verification LP and the
simulation cross-check's TE LPs) with ``Model._compile_fresh`` wrapped,
and hashes what every compile hands the solver: the objective vector,
the CSR ``data``/``indices``/``indptr``, the row and column bounds, the
integrality, and the objective sense and constant.  The hashes must equal
``compiled_model_digests.json``.

A digest changes only when the formulation changes on purpose (a new
row, a new coefficient, another term order in a floating-point sum).
After such a change, re-record the file and say why in the commit::

    PYTHONPATH=src python tests/core/test_compiled_model_digests.py --record

Like ``perfbench/reference.json``, the digests assume the platform's
floating point is bit-exact from run to run (IEEE doubles, the same
numpy/scipy build).
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

import numpy as np
import pytest

from repro import PathSet, RahaAnalyzer, RahaConfig, Srlg
from repro.analysis.experiments import bench_wan
from repro.network.builder import from_edges, motivating_example
from repro.network.srlg import attach_srlg
from repro.network.topology import Link
from repro.solver.model import Model

DIGESTS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "compiled_model_digests.json")


def _fig1(**config):
    topo = motivating_example()
    paths = PathSet.k_shortest(topo, [("B", "D"), ("C", "D")],
                               num_primary=1, num_backup=1)
    config.setdefault("demand_bounds",
                      {("B", "D"): (6.0, 18.0), ("C", "D"): (5.0, 15.0)})
    return topo, paths, RahaConfig(**config), ()


def _diamond(**config):
    topo = from_edges([
        ("a", "b", 10, 2), ("b", "d", 10), ("a", "c", 6), ("c", "d", 6),
    ], failure_probability=0.05)
    paths = PathSet.k_shortest(topo, [("a", "d")], num_primary=1,
                               num_backup=1)
    if "fixed_demands" not in config:
        config.setdefault("demand_bounds", {("a", "d"): (0.0, 8.0)})
    return topo, paths, RahaConfig(**config), ()


def _srlg(group_probability, **config):
    """A diamond whose two lower LAGs share a conduit.

    One conduit link has no probability of its own: under a threshold it
    fails only through its group's probability.
    """
    topo = from_edges([
        ("a", "b", 10, 2), ("b", "d", 10), ("a", "c", 6), ("c", "d", 6),
        ("b", "c", 4),
    ], failure_probability=0.1)
    topo.require_lag("c", "d").links = [Link(capacity=6)]
    srlg = Srlg(name="conduit", failure_probability=group_probability)
    srlg.add("c", "d", 0)
    srlg.add("a", "c", 0)
    attach_srlg(topo, srlg)
    paths = PathSet.k_shortest(topo, [("a", "d"), ("b", "c")],
                               num_primary=1, num_backup=1)
    config.setdefault("demand_bounds",
                      {("a", "d"): (0.0, 12.0), ("b", "c"): (0.0, 4.0)})
    return topo, paths, RahaConfig(**config), ()


def _wan(seed, fixed, **config):
    net = bench_wan(num_regions=2, nodes_per_region=4, num_pairs=4,
                    demand_to_capacity=1.4, seed=seed)
    paths = net.paths(num_primary=2, num_backup=1)
    if fixed:
        config["fixed_demands"] = dict(net.avg_demands.items())
    else:
        config["demand_bounds"] = {
            pair: (0.5 * volume, volume)
            for pair, volume in net.peak_demands.items()
        }
    return net.topology, paths, RahaConfig(time_limit=60.0, **config), ()


def _non_failable():
    topo, paths, config, _ = _fig1(max_failures=2)
    return topo, paths, config, (("B", "D"),)


CASES = {
    "fig1-total_flow-bounds-k1": lambda: _fig1(max_failures=1),
    "fig1-total_flow-fixed-threshold": lambda: _fig1(
        demand_bounds=None,
        fixed_demands={("B", "D"): 12.0, ("C", "D"): 10.0},
        probability_threshold=1e-3),
    "fig1-naive_failover-loose_path_down": lambda: _fig1(
        max_failures=2, naive_failover=True, exact_path_down=False),
    "fig1-minimize_performance": lambda: _fig1(
        max_failures=1, minimize_performance=True),
    "fig1-non_failable_lags": _non_failable,
    "diamond-mlu-bounds": lambda: _diamond(objective="mlu", max_failures=1),
    "diamond-mlu-fixed": lambda: _diamond(
        objective="mlu", fixed_demands={("a", "d"): 6.0}, max_failures=4),
    "diamond-maxmin-bounds": lambda: _diamond(
        objective="maxmin", probability_threshold=1e-2),
    "diamond-maxmin-fixed": lambda: _diamond(
        objective="maxmin", fixed_demands={("a", "d"): 7.0},
        max_failures=2),
    "diamond-maxmin-equidepth": lambda: _diamond(
        objective="maxmin", maxmin_binner="equidepth", max_failures=1),
    "srlg-group-probability-threshold": lambda: _srlg(
        0.05, probability_threshold=1e-3),
    "srlg-ce-max_failures": lambda: _srlg(
        None, max_failures=2, connected_enforced=True),
    "bench_wan-1-fixed-threshold": lambda: _wan(
        1, True, probability_threshold=1e-2),
    "bench_wan-2-bounds-k1": lambda: _wan(2, False, max_failures=1),
}


def _digest(model: Model, compiled) -> str:
    h = hashlib.sha256()
    a = compiled.a
    for arr in (compiled.c, a.data, a.indices, a.indptr, compiled.row_lb,
                compiled.row_ub, compiled.var_lb, compiled.var_ub,
                compiled.integrality):
        arr = np.ascontiguousarray(arr)
        h.update(f"{arr.dtype.str}{arr.shape}".encode())
        h.update(arr.tobytes())
    h.update(f"{model.sense} {float(model.objective.constant).hex()}"
             .encode())
    return f"{model.name} {h.hexdigest()[:24]}"


def compiled_digests(case: str) -> list[str]:
    """Run one case's analysis; one digest per model it compiles."""
    topology, paths, config, non_failable = CASES[case]()
    seen: list[str] = []
    original = Model._compile_fresh

    def recording(self):
        compiled = original(self)
        seen.append(_digest(self, compiled))
        return compiled

    Model._compile_fresh = recording
    try:
        result = RahaAnalyzer(topology, paths, config,
                              non_failable_lags=non_failable).analyze()
    finally:
        Model._compile_fresh = original
    assert result.verified
    return seen


def _golden() -> dict:
    with open(DIGESTS_PATH) as handle:
        return json.load(handle)


@pytest.mark.parametrize("case", sorted(CASES))
def test_compiled_models_match_golden_digests(case):
    assert compiled_digests(case) == _golden()[case]


def test_golden_file_covers_every_case():
    assert sorted(_golden()) == sorted(CASES)


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(f"usage: {sys.argv[0]} --record")
    recorded = {case: compiled_digests(case) for case in sorted(CASES)}
    with open(DIGESTS_PATH, "w") as handle:
        json.dump(recorded, handle, indent=1)
        handle.write("\n")
    print(f"wrote {sum(map(len, recorded.values()))} digests for "
          f"{len(recorded)} cases to {DIGESTS_PATH}")
