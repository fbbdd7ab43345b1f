"""MLU traffic engineering: minimize the maximum link utilization.

Appendix A's extension: replace Eq. 2's objective with a variable ``U``
minimized subject to ``U * C_e >= sum of flow crossing e``, and require
every demand to be fully routed (MLU formulations "require the network
carry the full demand").  The formulation becomes infeasible when a
source-destination pair is fully disconnected, which is why Raha forces
connected-enforced constraints in MLU mode.
"""

from __future__ import annotations

from collections.abc import Mapping

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


class MluTE:
    """Minimize max link utilization while routing every demand in full.

    Args:
        primary_only: Restrict to primary paths (design-point semantics).
        enforce_capacity: Also require ``U <= 1`` -- off by default; MLU
            planning usually allows reporting over-subscription (U > 1)
            rather than failing.
    """

    def __init__(self, primary_only: bool = True, enforce_capacity: bool = False):
        self.primary_only = primary_only
        self.enforce_capacity = enforce_capacity

    def solve(
        self,
        topology: Topology,
        demands: Mapping[Pair, float],
        paths: PathSet,
        capacities: Mapping[LagKey, float] | None = None,
        path_caps: Mapping[tuple[Pair, Path], float] | None = None,
    ) -> TESolution:
        """Solve; ``objective`` is the achieved MLU.

        Returns an infeasible sentinel when some demand cannot be fully
        routed on its usable paths (disconnection).
        """
        validate_te_inputs(topology, demands, paths)
        caps = effective_capacities(topology, capacities)

        model = Model("mlu-te")
        utilization = model.add_var(name="U")
        columns = _PathColumns(model, topology, self.primary_only, path_caps)
        rows = RowBatch()
        if self.enforce_capacity:
            rows.add(utilization - 1.0, "<=")
        for pair, volume in demands.items():
            routed = columns.add(paths[pair], rows)
            if not routed.terms and volume > 0:
                return TESolution.infeasible()
            if routed.terms:
                # MLU requires the demand be fully met.
                rows.add(routed - volume, "==", f"dem[{pair}]")
        for key, cols_on_lag in columns.per_lag.items():
            cap = caps[key]
            if cap <= 0:
                # A zero-capacity LAG cannot carry anything at finite U.
                rows.add(LinExpr(cols_on_lag), "<=")
                continue
            rows.add(LinExpr(cols_on_lag) - cap * utilization, "<=",
                     f"util[{key}]")
        rows.post(model)

        model.set_objective(utilization, sense="min")
        return columns.solve(demands)
