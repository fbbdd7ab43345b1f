"""Microbenchmark: array-backed model compilation vs scalar modeling.

The solver layer's hot path is ``Model._ensure_compiled`` -- every job in
a sweep assembles a constraint matrix before HiGHS sees it.  This
benchmark builds the *same* edge-formulation MCF over the standard bench
WAN twice: once term-by-term through ``add_constr`` (how the builders
worked before the array fast path) and once through
``add_constrs_batch``.  It asserts the two compile to identical matrices
with identical optima, and that the batch path is decisively faster.

A second case times one Figure 5 sweep cell end to end -- the smoke test
CI runs on every push -- and checks the per-solve telemetry that the
sweep summary line aggregates.
"""

from __future__ import annotations

import time
from collections import defaultdict

import numpy as np

from benchmarks.conftest import run_once
from repro.analysis.reporting import print_table
from repro.solver import Model, quicksum
from repro.solver.expr import LinExpr
from repro.te.base import effective_capacities

#: Asserted speedup floor.  The observed ratio is ~5-20x; 1.8x keeps the
#: assertion meaningful while tolerating noisy shared CI machines.
MIN_SPEEDUP = 1.8


def _edge_mcf_scalar(topology, demands):
    """The pre-fast-path builder: one ``add_constr`` per row."""
    caps = effective_capacities(topology, None)
    model = Model("edge-mcf-scalar")
    routed = {}
    per_lag = defaultdict(list)
    balance_rows = []
    for pair, volume in demands.items():
        src, dst = pair
        f_k = model.add_var(ub=max(volume, 0.0), name=f"f[{pair}]")
        routed[pair] = f_k
        outgoing = defaultdict(list)
        incoming = defaultdict(list)
        for lag in topology.lags:
            fwd = model.add_var(name=f"e[{pair}][{lag.key}]+")
            bwd = model.add_var(name=f"e[{pair}][{lag.key}]-")
            per_lag[lag.key] += [fwd, bwd]
            outgoing[lag.u].append(fwd)
            incoming[lag.v].append(fwd)
            outgoing[lag.v].append(bwd)
            incoming[lag.u].append(bwd)
        for node in topology.nodes:
            expr = quicksum(outgoing[node]) - quicksum(incoming[node])
            if node == src:
                expr = expr - f_k
            elif node == dst:
                expr = expr + f_k
            balance_rows.append((expr, node))
    for expr, _ in balance_rows:
        model.add_constr(expr == 0.0, name="balance")
    for key, vars_on_lag in per_lag.items():
        model.add_constr(quicksum(vars_on_lag) <= caps[key], name="cap")
    model.set_objective(quicksum(list(routed.values())), sense="max")
    return model


def _edge_mcf_batch(topology, demands):
    """The array fast path: identical rows via ``add_constrs_batch``."""
    caps = effective_capacities(topology, None)
    model = Model("edge-mcf-batch")
    routed = {}
    per_lag = defaultdict(list)
    bal_cols: list[int] = []
    bal_data: list[float] = []
    bal_indptr: list[int] = [0]
    lags = list(topology.lags)
    for pair, volume in demands.items():
        src, dst = pair
        f_k = model.add_var(ub=max(volume, 0.0), name=f"f[{pair}]")
        routed[pair] = f_k
        outgoing = defaultdict(list)
        incoming = defaultdict(list)
        stem = f"e[{pair}]"
        for j, lag in enumerate(lags):
            fwd = model.add_var(name=f"{stem}[{2 * j}]").index
            bwd = model.add_var(name=f"{stem}[{2 * j + 1}]").index
            per_lag[lag.key] += [fwd, bwd]
            outgoing[lag.u].append(fwd)
            incoming[lag.v].append(fwd)
            outgoing[lag.v].append(bwd)
            incoming[lag.u].append(bwd)
        for node in topology.nodes:
            cols = outgoing[node]
            bal_cols.extend(cols)
            bal_data.extend([1.0] * len(cols))
            cols = incoming[node]
            bal_cols.extend(cols)
            bal_data.extend([-1.0] * len(cols))
            if node == src:
                bal_cols.append(f_k.index)
                bal_data.append(-1.0)
            elif node == dst:
                bal_cols.append(f_k.index)
                bal_data.append(1.0)
            bal_indptr.append(len(bal_cols))
    model.add_constrs_batch(
        bal_indptr, bal_cols, bal_data, sense="==", rhs=0.0, name="balance"
    )
    lag_cols: list[int] = []
    lag_indptr: list[int] = [0]
    lag_rhs: list[float] = []
    for key, cols_on_lag in per_lag.items():
        lag_cols.extend(cols_on_lag)
        lag_indptr.append(len(lag_cols))
        lag_rhs.append(caps[key])
    model.add_constrs_batch(lag_indptr, lag_cols, rhs=lag_rhs, name="cap")
    model.set_objective(
        LinExpr.from_arrays(
            np.fromiter((v.index for v in routed.values()), dtype=np.intp,
                        count=len(routed)),
            np.ones(len(routed)),
        ),
        sense="max",
    )
    return model


def _build_and_compile(builder, topology, demands):
    """Wall time for model build + matrix compile, and the compiled model."""
    started = time.perf_counter()
    model = builder(topology, demands)
    model._ensure_compiled()
    return time.perf_counter() - started, model


def test_batch_compile_speedup(benchmark):
    # A dedicated, larger WAN than the figure benchmarks': the edge MCF
    # defines two directed flow variables per (pair, LAG), so pair count
    # scales the model into the tens of thousands of nonzeros where
    # per-term Python costs dominate the scalar path.
    from repro.analysis.experiments import bench_wan

    net = bench_wan(num_regions=4, nodes_per_region=6, num_pairs=64,
                    demand_to_capacity=1.4, seed=1)
    demands = dict(net.avg_demands)
    topology = net.topology

    def run():
        # Warm both paths once so allocator/import effects cancel out.
        _build_and_compile(_edge_mcf_scalar, topology, demands)
        _build_and_compile(_edge_mcf_batch, topology, demands)
        scalar_s, scalar_m = _build_and_compile(
            _edge_mcf_scalar, topology, demands
        )
        batch_s, batch_m = _build_and_compile(
            _edge_mcf_batch, topology, demands
        )
        return scalar_s, scalar_m, batch_s, batch_m

    scalar_s, scalar_m, batch_s, batch_m = run_once(benchmark, run)

    # Identical formulations: same matrices, bit-identical optima.
    sc, _ = scalar_m._ensure_compiled()
    ba, _ = batch_m._ensure_compiled()
    np.testing.assert_array_equal(sc.c, ba.c)
    assert (sc.a != ba.a).nnz == 0
    for side in ("row_lb", "row_ub", "var_lb", "var_ub", "integrality"):
        np.testing.assert_array_equal(getattr(sc, side), getattr(ba, side))
    r_scalar = scalar_m.solve()
    r_batch = batch_m.solve()
    assert r_batch.objective == r_scalar.objective

    speedup = scalar_s / batch_s
    print_table(
        "solver-layer build+compile microbenchmark (edge MCF)",
        ["path", "rows", "nnz", "seconds", "speedup"],
        [
            ("scalar add_constr", r_scalar.stats.rows, r_scalar.stats.nnz,
             f"{scalar_s:.4f}", "1.0x"),
            ("add_constrs_batch", r_batch.stats.rows, r_batch.stats.nnz,
             f"{batch_s:.4f}", f"{speedup:.1f}x"),
        ],
    )
    assert speedup >= MIN_SPEEDUP, (
        f"batch build+compile only {speedup:.2f}x faster "
        f"(scalar {scalar_s:.4f}s vs batch {batch_s:.4f}s)"
    )


def test_fig5_smoke_cell(benchmark, wan):
    """One Figure 5 cell end to end -- the CI benchmark smoke step."""
    from repro.analysis.experiments import degradation_sweep_spec
    from repro.runner.executor import run_sweep

    paths = wan.paths(num_primary=2, num_backup=1)
    spec = degradation_sweep_spec(
        wan, paths, "avg",
        [{"threshold": None, "max_failures": 1}],
        time_limit=60.0, name="fig5-smoke",
    )

    outcome = run_once(
        benchmark, lambda: run_sweep(spec, num_workers=1)
    )
    outcome.raise_on_error()
    (result,) = outcome.results()
    assert result["normalized_degradation"] >= 0.0
    stats = result["stats"]
    assert stats["backend"] == "milp"
    assert stats["rows"] > 0 and stats["nnz"] > 0
    totals = outcome.stats_totals()
    assert totals["jobs_with_stats"] == 1
    assert totals["solve_seconds"] > 0.0
