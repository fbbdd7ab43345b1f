"""Shared result types and helpers for TE solvers."""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Mapping
from dataclasses import dataclass, field

from repro.network.demand import Pair
from repro.network.topology import LagKey, Topology
from repro.paths.ksp import Path
from repro.paths.pathset import DemandPaths, PathSet
from repro.solver import LinExpr, Model
from repro.solver.model import RowBatch


@dataclass
class TESolution:
    """The outcome of one TE optimization.

    Attributes:
        objective: Objective value in the solver's own convention (total
            flow for Eq. 2, the utilization ``U`` for MLU, ...).
        path_flows: Flow per ``(pair, path)`` (empty for edge-form MCF).
        pair_flows: Total flow routed per demand pair.
        lag_loads: Traffic crossing each LAG.
        solve_seconds: Backend time.
        feasible: Whether a solution exists (MLU under disconnection is
            the canonical infeasible case).
    """

    objective: float
    path_flows: dict[tuple[Pair, Path], float] = field(default_factory=dict)
    pair_flows: dict[Pair, float] = field(default_factory=dict)
    lag_loads: dict[LagKey, float] = field(default_factory=dict)
    solve_seconds: float = 0.0
    feasible: bool = True

    @property
    def total_flow(self) -> float:
        """Total routed traffic over all pairs."""
        return float(sum(self.pair_flows.values()))

    def max_utilization(self, topology: Topology,
                        capacities: Mapping[LagKey, float] | None = None) -> float:
        """The max link (LAG) utilization implied by the routed loads."""
        caps = effective_capacities(topology, capacities)
        worst = 0.0
        for key, cap in caps.items():
            load = self.lag_loads.get(key, 0.0)
            if cap > 0:
                worst = max(worst, load / cap)
            elif load > 1e-9:
                return float("inf")
        return worst

    @staticmethod
    def infeasible() -> TESolution:
        """A sentinel result for infeasible models."""
        return TESolution(objective=float("nan"), feasible=False)


def effective_capacities(
    topology: Topology, overrides: Mapping[LagKey, float] | None
) -> dict[LagKey, float]:
    """Per-LAG capacities with optional overrides applied."""
    caps = {lag.key: lag.capacity for lag in topology.lags}
    if overrides:
        for key, value in overrides.items():
            if key not in caps:
                from repro.exceptions import TopologyError

                raise TopologyError(f"capacity override for unknown LAG {key}")
            caps[key] = value
    return caps


def lag_loads_from_path_flows(
    topology: Topology, path_flows: Mapping[tuple[Pair, Path], float]
) -> dict[LagKey, float]:
    """Aggregate per-path flows into per-LAG loads."""
    loads: dict[LagKey, float] = defaultdict(float)
    for (_, path), flow in path_flows.items():
        if flow <= 0:
            continue
        for lag in topology.lags_on_path(path):
            loads[lag.key] += flow
    return dict(loads)


def usable_paths_for(
    demand_paths, path_caps: Mapping[tuple[Pair, Path], float] | None
) -> list[Path]:
    """Paths a solver may route on, honoring zero path caps.

    ``path_caps`` comes from failure simulation: a cap of zero means the
    path (or its fail-over precondition) is unavailable.
    """
    if path_caps is None:
        return list(demand_paths.paths)
    out = []
    for path in demand_paths.paths:
        cap = path_caps.get((demand_paths.pair, path))
        if cap is None or cap > 0:
            out.append(path)
    return out


def validate_te_inputs(topology: Topology, demands: Mapping[Pair, float],
                       paths: PathSet) -> None:
    """Common input validation shared by the path-based TE solvers."""
    from repro.exceptions import PathError

    for pair in demands:
        if pair not in paths:
            raise PathError(f"demand {pair} has no configured paths")
    paths.validate_against(topology)


class _PathColumns:
    """The per-path flow columns ``f_kp`` of one path-form TE LP.

    :meth:`add` gives one demand a column per candidate path (its
    primaries, or all its paths) that :func:`usable_paths_for` keeps, in
    path order.  Each column joins the sum of every LAG its path crosses
    (:attr:`per_lag`, ``{column: 1.0}`` per LAG), and a listed path cap
    bounds it with a ``path_cap`` row.  :meth:`solve` solves the model and
    reads the flows back into a :class:`TESolution`.
    """

    def __init__(self, model: Model, topology: Topology, primary_only: bool,
                 path_caps: Mapping[tuple[Pair, Path], float] | None):
        self.model = model
        self.topology = topology
        self.primary_only = primary_only
        self.path_caps = path_caps
        self.flow: dict[tuple[Pair, Path], object] = {}
        self.per_lag: dict[LagKey, dict[int, float]] = defaultdict(dict)

    def add(self, demand_paths: DemandPaths, rows: RowBatch) -> LinExpr:
        """One demand's flow columns, path-cap rows to ``rows``; returns
        the demand's routed flow, the sum of its columns."""
        pair = demand_paths.pair
        path_caps = self.path_caps
        candidates = set(demand_paths.primaries if self.primary_only
                         else demand_paths.paths)
        routed = LinExpr()
        for path in usable_paths_for(demand_paths, path_caps):
            if path not in candidates:
                continue
            var = self.model.add_var(name=f"f[{pair}][{'-'.join(path)}]")
            self.flow[(pair, path)] = var
            routed.terms[var.index] = 1.0
            if path_caps is not None and (pair, path) in path_caps:
                rows.add(var - path_caps[(pair, path)], "<=", "path_cap")
            for lag in self.topology.lags_on_path(path):
                self.per_lag[lag.key][var.index] = 1.0
        return routed

    def solve(self, demands: Mapping[Pair, float]) -> TESolution:
        """Solve the model; flows per path, per pair (0.0 if unroutable)."""
        result = self.model.solve()
        if not result.status.ok or result.x is None:
            return TESolution.infeasible()
        path_flows = {key: result.value(var) for key, var in self.flow.items()}
        pair_flows: dict[Pair, float] = defaultdict(float)
        for (pair, _), value in path_flows.items():
            pair_flows[pair] += value
        for pair in demands:
            pair_flows.setdefault(pair, 0.0)
        return TESolution(
            objective=result.objective,
            path_flows=path_flows,
            pair_flows=dict(pair_flows),
            lag_loads=lag_loads_from_path_flows(self.topology, path_flows),
            solve_seconds=result.solve_seconds,
        )
