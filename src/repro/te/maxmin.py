"""Max-min fair traffic engineering.

Appendix A: Raha supports "the single-shot max-min fair solution from
Soroush (namely their Geometric or Equi-depth binner algorithms)".

* :class:`GeometricBinnerTE` is the single-shot LP approximation: each
  demand's allocation is split into geometrically growing *bins*
  ``[0, t0], (t0, t0*alpha], ...``; the objective weights lower bins
  geometrically more, so the LP fills everyone's low bins before anyone's
  high bins -- an alpha-approximate max-min allocation in one solve.
  Because it is a single LP with capacities on the right-hand side, Raha
  can swap the constant capacities for the failure variables exactly as
  in Section 5.

* :func:`max_min_water_filling` is the classical exact (iterative)
  algorithm, used as the reference in tests: repeatedly maximize the
  common minimum, freeze saturated demands, recurse.
"""

from __future__ import annotations

from collections.abc import Mapping

from repro.exceptions import ModelingError
from repro.network.demand import Pair
from repro.network.topology import LagKey, Topology
from repro.paths.ksp import Path
from repro.paths.pathset import PathSet
from repro.solver import LinExpr, Model, quicksum
from repro.solver.model import RowBatch
from repro.te.base import (
    TESolution,
    _PathColumns,
    effective_capacities,
    validate_te_inputs,
)


class GeometricBinnerTE:
    """Single-shot approximate max-min fairness via geometric binning.

    Args:
        num_bins: Number of geometric levels.
        alpha: Geometric growth of bin boundaries (> 1).
        t0: Width of the first bin; defaults to ``max demand / alpha**
            (num_bins - 1)`` so the bins cover every demand.
        primary_only: Restrict to primary paths.
    """

    def __init__(self, num_bins: int = 6, alpha: float = 2.0,
                 t0: float | None = None, primary_only: bool = True):
        if alpha <= 1.0:
            raise ModelingError(f"alpha must exceed 1, got {alpha}")
        if num_bins < 1:
            raise ModelingError(f"need at least one bin, got {num_bins}")
        self.num_bins = num_bins
        self.alpha = alpha
        self.t0 = t0
        self.primary_only = primary_only
        #: Pinned bin widths, which :meth:`bin_widths` returns whatever
        #: the demands; the analyzer pins them so that its MILP and its
        #: verification solve one LP.
        self.widths: list[float] | None = None

    def bin_widths(self, max_demand: float) -> list[float]:
        """Widths of each geometric bin covering ``[0, max_demand]`` (the
        pinned :attr:`widths`, when set)."""
        if self.widths is not None:
            return self.widths
        t0 = self.t0
        if t0 is None:
            t0 = max(max_demand, 1e-9) / (self.alpha ** (self.num_bins - 1))
        boundaries = [t0 * self.alpha**i for i in range(self.num_bins)]
        widths = [boundaries[0]]
        widths += [boundaries[i] - boundaries[i - 1] for i in range(1, self.num_bins)]
        return widths

    def solve(
        self,
        topology: Topology,
        demands: Mapping[Pair, float],
        paths: PathSet,
        capacities: Mapping[LagKey, float] | None = None,
        path_caps: Mapping[tuple[Pair, Path], float] | None = None,
    ) -> TESolution:
        """Solve the binned LP; ``objective`` is the weighted bin value.

        The routed ``pair_flows`` approximate the max-min allocation;
        compare against :func:`max_min_water_filling` in tests.
        """
        validate_te_inputs(topology, demands, paths)
        caps = effective_capacities(topology, capacities)
        if not demands:
            return TESolution(objective=0.0)
        widths = self.bin_widths(max(demands.values()))
        weights = [self.alpha ** (-i) for i in range(self.num_bins)]

        model = Model("geometric-binner-te")
        columns = _PathColumns(model, topology, self.primary_only, path_caps)
        rows = RowBatch()
        objective_terms = []
        for pair, volume in demands.items():
            routed = columns.add(paths[pair], rows)
            if not routed.terms:
                continue
            # Split the pair's allocation into bins.
            bins = []
            for i, width in enumerate(widths):
                b = model.add_var(ub=width, name=f"bin[{pair}][{i}]")
                bins.append(b)
                objective_terms.append(weights[i] * b)
            rows.add(routed - quicksum(bins), "==", f"split[{pair}]")
            rows.add(routed - volume, "<=", f"dem[{pair}]")
        for key, cols_on_lag in columns.per_lag.items():
            rows.add(LinExpr(cols_on_lag) - caps[key], "<=", f"cap[{key}]")
        rows.post(model)

        model.set_objective(quicksum(objective_terms), sense="max")
        return columns.solve(demands)


class EquiDepthBinnerTE(GeometricBinnerTE):
    """Single-shot approximate max-min fairness with equal-width bins.

    The second of Soroush's single-shot binners the paper names
    (Section 3: "the geometric or equi-depth binning WANs in [32]").
    Bin boundaries are evenly spaced over ``[0, max_demand]`` instead of
    geometric; weights still decay geometrically so lower bins fill
    first.  Compared to the geometric binner it approximates small
    allocations more coarsely but large ones more finely.
    """

    def bin_widths(self, max_demand: float) -> list[float]:
        """Equal widths covering ``[0, max_demand]`` (the pinned
        :attr:`widths`, when set)."""
        if self.widths is not None:
            return self.widths
        if self.t0 is not None:
            # Honor an explicitly pinned first boundary for verification
            # consistency, spacing the rest evenly above it.
            remaining = max(max_demand, self.t0) - self.t0
            if self.num_bins == 1:
                return [self.t0 + remaining]
            step = remaining / (self.num_bins - 1)
            return [self.t0] + [step] * (self.num_bins - 1)
        width = max(max_demand, 1e-9) / self.num_bins
        return [width] * self.num_bins


def max_min_water_filling(
    topology: Topology,
    demands: Mapping[Pair, float],
    paths: PathSet,
    capacities: Mapping[LagKey, float] | None = None,
    primary_only: bool = True,
    max_rounds: int | None = None,
) -> dict[Pair, float]:
    """Exact max-min fair allocation by iterative water filling.

    Round ``r`` maximizes a common floor ``t`` subject to every unfrozen
    demand receiving at least ``t``; demands whose allocation cannot grow
    beyond the floor are frozen at it, and the process repeats.  This is
    the classical reference algorithm (not single-shot; used for testing
    the geometric binner's approximation).

    Returns:
        The max-min allocation per pair, in demand order.
    """
    validate_te_inputs(topology, demands, paths)
    caps = effective_capacities(topology, capacities)
    frozen = {pair: 0.0 for pair, volume in demands.items() if volume <= 0}
    # Pairs still growing, in demand order: the order of the probes below.
    active = [pair for pair in demands if pair not in frozen]
    rounds = max_rounds if max_rounds is not None else len(demands) + 1

    for _ in range(rounds):
        if not active:
            break
        model = Model("water-fill")
        t = model.add_var(name="t")
        columns = _PathColumns(model, topology, primary_only, None)
        rows = RowBatch()
        totals: dict[Pair, LinExpr] = {}
        for pair in demands:
            total = totals[pair] = columns.add(paths[pair], rows)
            if pair in frozen:
                rows.add(total - frozen[pair], "==")
            else:
                rows.add(total - demands[pair], "<=")
                rows.add(total - t, ">=")
        for key, cols_on_lag in columns.per_lag.items():
            rows.add(LinExpr(cols_on_lag) - caps[key], "<=")
        rows.post(model)
        model.set_objective(t, sense="max")
        result = model.solve()
        if not result.status.ok or result.x is None:
            # No feasible floor (e.g. a disconnected active pair): every
            # pair still active gets zero.
            break
        floor = result.objective

        # Freeze demands that cannot exceed the floor: re-solve maximizing
        # each active demand individually with the floor held for others.
        newly_frozen = {}
        for pair in active:
            model.set_objective(totals[pair], sense="max")
            probe = model.solve()
            best = probe.objective if probe.status.ok else floor
            if best <= floor + 1e-7 or floor >= demands[pair] - 1e-9:
                newly_frozen[pair] = min(floor, demands[pair])
        if not newly_frozen:
            # Guard against stalling: freeze everything at the floor.
            newly_frozen = {p: min(floor, demands[p]) for p in active}
        frozen.update(newly_frozen)
        active = [pair for pair in active if pair not in newly_frozen]
    return {pair: frozen.get(pair, 0.0) for pair in demands}
