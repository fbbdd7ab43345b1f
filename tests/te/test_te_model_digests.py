"""Golden digests of the models the plain TE solvers compile.

The sibling of ``tests/core/test_compiled_model_digests.py`` for direct
``solve`` calls: each case solves one TE LP with ``Model._compile_fresh``
wrapped, hashes what the compile hands HiGHS (with that file's
``_digest``), and also hashes the returned :class:`TESolution` -- its
feasibility, objective and every flow and load dict in insertion order,
floats by their hex form.  The hashes must equal
``te_model_digests.json``.

The cases cover what the analysis digests do not: both ``primary_only``
values of :class:`TotalFlowTE`, partial ``capacities`` overrides, a
positive and a zero path cap, ``MluTE(enforce_capacity=True)`` with a
zero-capacity LAG, both max-min binners, and every round of
:func:`max_min_water_filling` (its result is the allocation per pair).  Re-record only on an
intended formulation change::

    PYTHONPATH=src:. python tests/te/test_te_model_digests.py --record
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys

import pytest

from repro.analysis.experiments import bench_wan
from repro.solver.model import Model
from repro.te import (
    EquiDepthBinnerTE,
    GeometricBinnerTE,
    MluTE,
    TotalFlowTE,
    max_min_water_filling,
)
from tests.core.test_compiled_model_digests import _digest

DIGESTS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "te_model_digests.json")


def _instance(demand_scale=1.0):
    """A small bench WAN with 2 primaries + 1 backup per pair.

    The overrides lower one LAG on the first pair's primary and zero
    another; the path caps bound the first pair's primary and disable
    the second pair's primary.
    """
    net = bench_wan(num_regions=2, nodes_per_region=4, num_pairs=4,
                    demand_to_capacity=1.4, seed=1)
    topo = net.topology
    paths = net.paths(num_primary=2, num_backup=1)
    demands = {pair: demand_scale * volume
               for pair, volume in net.avg_demands.items()}
    first, second = list(paths)[:2]
    first_lags = topo.lags_on_path(paths[first].paths[0])
    last_lags = topo.lags_on_path(paths[second].paths[-1])
    capacities = {
        first_lags[0].key: 0.5 * first_lags[0].capacity,
        last_lags[-1].key: 0.0,
    }
    path_caps = {
        (first, paths[first].paths[0]): 0.25 * demands[first],
        (second, paths[second].paths[0]): 0.0,
    }
    return topo, demands, paths, capacities, path_caps


def _water_fill():
    topo, demands, paths, capacities, _ = _instance()
    return max_min_water_filling(topo, demands, paths,
                                 capacities=capacities, primary_only=False)


def _solve(te, demand_scale=1.0, overrides=True, unroutable=False):
    topo, demands, paths, capacities, path_caps = _instance(demand_scale)
    if unroutable:
        # Disable every primary of the second pair: under primary_only it
        # has no usable path and routes 0.0.
        second = list(paths)[1]
        for path in paths[second].primaries:
            path_caps[(second, path)] = 0.0
    if not overrides:
        return te.solve(topo, demands, paths)
    return te.solve(topo, demands, paths, capacities=capacities,
                    path_caps=path_caps)


CASES = {
    "total_flow-primary_only": lambda: _solve(TotalFlowTE(primary_only=True)),
    "total_flow-all_paths": lambda: _solve(TotalFlowTE(primary_only=False)),
    "total_flow-plain": lambda: _solve(TotalFlowTE(), overrides=False),
    "total_flow-unroutable_pair": lambda: _solve(TotalFlowTE(),
                                                 unroutable=True),
    "mlu-enforce_capacity": lambda: _solve(
        MluTE(primary_only=False, enforce_capacity=True), demand_scale=0.2),
    "mlu-primary_only": lambda: _solve(MluTE(), demand_scale=0.2),
    "geometric_binner": lambda: _solve(
        GeometricBinnerTE(num_bins=4, alpha=2.0, primary_only=False)),
    "equidepth_binner": lambda: _solve(
        EquiDepthBinnerTE(num_bins=3, alpha=2.0, primary_only=True)),
    "water_filling": _water_fill,
}


def _solution_digest(solution) -> str:
    h = hashlib.sha256()
    if isinstance(solution, dict):
        for pair, rate in sorted(solution.items()):
            h.update(f"{pair!r} {float(rate).hex()}\n".encode())
        return f"allocation {h.hexdigest()[:24]}"
    h.update(f"{solution.feasible} {float(solution.objective).hex()}"
             .encode())
    for name in ("path_flows", "pair_flows", "lag_loads"):
        for key, value in getattr(solution, name).items():
            h.update(f"{name} {key!r} {float(value).hex()}\n".encode())
    return f"solution {h.hexdigest()[:24]}"


def te_digests(case: str) -> list[str]:
    """Solve one case; one digest per compiled model, then the solution's."""
    seen: list[str] = []
    original = Model._compile_fresh

    def recording(self):
        compiled = original(self)
        seen.append(_digest(self, compiled))
        return compiled

    Model._compile_fresh = recording
    try:
        solution = CASES[case]()
    finally:
        Model._compile_fresh = original
    return seen + [_solution_digest(solution)]


def _golden() -> dict:
    with open(DIGESTS_PATH) as handle:
        return json.load(handle)


@pytest.mark.parametrize("case", sorted(CASES))
def test_te_models_match_golden_digests(case):
    assert te_digests(case) == _golden()[case]


def test_water_filling_ignores_the_hash_seed():
    """Water filling solves the same models in the same order whatever
    the string hash seed of the process."""
    root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    code = ("import json; from tests.te.test_te_model_digests import "
            "te_digests; print(json.dumps(te_digests('water_filling')))")
    runs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.pathsep.join(
            [os.path.join(root, "src"), root]))
        done = subprocess.run([sys.executable, "-c", code], cwd=root,
                              env=env, capture_output=True, text=True,
                              timeout=120, check=True)
        runs.append(json.loads(done.stdout))
    assert runs[0] == runs[1] == _golden()["water_filling"]


def test_golden_file_covers_every_case():
    assert sorted(_golden()) == sorted(CASES)


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(f"usage: {sys.argv[0]} --record")
    recorded = {case: te_digests(case) for case in sorted(CASES)}
    with open(DIGESTS_PATH, "w") as handle:
        json.dump(recorded, handle, indent=1)
        handle.write("\n")
    print(f"wrote {sum(map(len, recorded.values()))} digests for "
          f"{len(recorded)} cases to {DIGESTS_PATH}")
