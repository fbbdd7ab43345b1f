"""The production TE objective: maximize total demand met (Eq. 2).

This is the SWAN/B4-style centralized optimization the paper's WAN runs:

.. math::

    \\max \\sum_k f_k \\quad \\text{s.t.} \\quad
    0 \\le f_k \\le d_k, \\quad
    f_k = \\sum_{p \\in P_k} f_{kp}, \\quad
    \\sum_{k, p \\in P_{ke}} f_{kp} \\le C_e .

The same class models both the healthy network (primary paths, full
capacities) and a concrete failed network (reduced capacities, path caps
from the fail-over rules) -- which is exactly how the paper's inner
problems are structured.

Constraints are assembled family by family (path caps, demands, LAG
capacities) into one :class:`~repro.solver.model.RowBatch`, registered in
one :meth:`Model.add_constrs_batch` call, so the model compiles without
per-term Python loops.
"""

from __future__ import annotations

from collections.abc import Mapping
from itertools import repeat

from repro.network.demand import Pair
from repro.network.topology import LagKey, Topology
from repro.paths.ksp import Path
from repro.paths.pathset import PathSet
from repro.solver import LinExpr, Model
from repro.solver.model import RowBatch
from repro.te.base import (
    TESolution,
    _PathColumns,
    effective_capacities,
    validate_te_inputs,
)


class TotalFlowTE:
    """Maximize total routed demand over a configured path set.

    Args:
        primary_only: Route only on each demand's primary paths.  This is
            the *design point* semantics: with no failures, backup paths
            are inactive (Eq. 5's indicator is 0 for every backup when no
            higher-priority path is down), so the healthy network is
            exactly Eq. 2 over primaries.
    """

    def __init__(self, primary_only: bool = True):
        self.primary_only = primary_only

    def solve(
        self,
        topology: Topology,
        demands: Mapping[Pair, float],
        paths: PathSet,
        capacities: Mapping[LagKey, float] | None = None,
        path_caps: Mapping[tuple[Pair, Path], float] | None = None,
    ) -> TESolution:
        """Solve the LP and return routed flows.

        Args:
            topology: The WAN.
            demands: Demand volume per pair.
            paths: Configured paths (primary/backup ordered).
            capacities: Optional per-LAG capacity overrides (a failed
                network's residual capacities).
            path_caps: Optional per-path caps; zero disables a path (a
                backup whose activation precondition is unmet).  Caps on
                listed paths also bound their flow.
        """
        validate_te_inputs(topology, demands, paths)
        caps = effective_capacities(topology, capacities)

        model = Model("total-flow-te")
        columns = _PathColumns(model, topology, self.primary_only, path_caps)
        # Rows by family, registered together in one batch: the path caps
        # (recorded as the columns are made), demands, LAG capacities.
        rows = RowBatch()
        dem_cols: list[int] = []
        dem_indptr: list[int] = [0]
        dem_rhs: list[float] = []
        for pair, volume in demands.items():
            dem_cols.extend(columns.add(paths[pair], rows).terms)
            if len(dem_cols) > dem_indptr[-1]:
                dem_indptr.append(len(dem_cols))
                dem_rhs.append(volume)
        lag_cols: list[int] = []
        lag_indptr: list[int] = [0]
        lag_rhs: list[float] = []
        for key, cols_on_lag in columns.per_lag.items():
            lag_cols.extend(cols_on_lag)
            lag_indptr.append(len(lag_cols))
            lag_rhs.append(caps[key])
        rows.extend(dem_indptr, dem_cols, repeat(1.0, len(dem_cols)), "<=",
                    dem_rhs, "dem")
        rows.extend(lag_indptr, lag_cols, repeat(1.0, len(lag_cols)), "<=",
                    lag_rhs, "cap")
        rows.post(model)

        model.set_objective(
            LinExpr({v.index: 1.0 for v in columns.flow.values()}),
            sense="max",
        )
        return columns.solve(demands)
