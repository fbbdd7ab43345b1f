"""The Raha analyzer: find the worst probable degradation of a WAN.

:class:`RahaAnalyzer` assembles the Stackelberg game of Section 4.1:

* the **outer** adversary controls demands (in joint mode) and per-link
  failure binaries, under the Section 5.1 constraints;
* **inner problem 1** is the healthy network's TE optimization over
  primary paths (the design point) -- aligned, embedded as a primal (or
  pre-solved to a constant in fixed-demand mode, Section 6);
* **inner problem 2** is the failed network's TE optimization with
  variable LAG capacities and path-extension capacities (Section 5) --
  adversarial, pinned by KKT conditions.

Every solve is followed (by default) by two independent checks:

1. the KKT embedding is verified by re-solving the inner LP at the found
   outer assignment (:meth:`StackelbergProblem.verify`);
2. the extracted (demand, scenario) pair is *simulated* through the plain
   TE code path (:func:`repro.failures.scenario.simulate_failed_network`)
   and the simulated degradation must match the MILP's.

A Raha result therefore never rests on the MILP encoding alone.
"""

from __future__ import annotations

import copy
import time
from collections.abc import Callable
from operator import attrgetter
from typing import NamedTuple

from repro.core.config import RahaConfig
from repro.core.degradation import DegradationResult, PartialResult
from repro.core.encodings import (
    FailureEncoding,
    add_naive_failover_constraints,
    build_path_extension_caps,
)
from repro.exceptions import ModelingError, SolverError, VerificationError
from repro.failures.probability import scenario_probability
from repro.failures.scenario import (
    simulate_failed_mlu,
    simulate_failed_network,
)
from repro.metaopt.bilevel import StackelbergProblem
from repro.network.demand import DemandMatrix, Pair
from repro.network.topology import LagKey, Topology, lag_key
from repro.obs.metrics import metrics
from repro.obs.trace import current_tracer
from repro.paths.pathset import PathSet
from repro.solver.duality import InnerLP
from repro.solver.expr import LinExpr
from repro.solver.result import SolveResult, SolveStatus
from repro.te.maxmin import EquiDepthBinnerTE, GeometricBinnerTE
from repro.te.mlu import MluTE
from repro.te.total_flow import TotalFlowTE


class RahaAnalyzer:
    """Analyze worst-case degradation of a traffic-engineered WAN.

    Args:
        topology: The WAN (LAGs of links, optionally with probabilities).
        paths: Configured primary/backup paths per demand pair; compute
            with :meth:`repro.paths.PathSet.k_shortest` if the operator
            has no path input (the paper's default).
        config: Analysis knobs (:class:`repro.core.config.RahaConfig`).
        non_failable_lags: LAGs whose links the failure search must keep
            up (virtual gateway LAGs, freshly augmented capacity that is
            assumed not to fail, ...).

    Example:
        >>> from repro.network.builder import motivating_example
        >>> from repro.network.demand import demand_envelope
        >>> topo = motivating_example()
        >>> paths = PathSet.k_shortest(
        ...     topo, [("B", "D"), ("C", "D")], num_primary=1, num_backup=1)
        >>> config = RahaConfig(
        ...     demand_bounds={("B", "D"): (0, 18), ("C", "D"): (0, 15)},
        ...     max_failures=1)
        >>> result = RahaAnalyzer(topo, paths, config).analyze()
        >>> round(result.degradation, 3) > 0
        True
    """

    def __init__(
        self,
        topology: Topology,
        paths: PathSet,
        config: RahaConfig,
        non_failable_lags=(),
    ):
        self.topology = topology
        self.paths = paths
        self.config = config
        self.non_failable_lags = frozenset(
            lag_key(*k) for k in non_failable_lags
        )
        self._validate()

    def _validate(self) -> None:
        self.paths.validate_against(self.topology)
        for pair in self.config.pairs:
            if pair not in self.paths:
                raise ModelingError(f"demand {pair} has no configured paths")
        if self.config.probability_threshold is not None:
            # At least one failable link must carry a probability,
            # otherwise the analysis is vacuous.
            if not any(
                link.failure_probability is not None
                for lag in self.topology.lags
                for link in lag.links
            ):
                raise ModelingError(
                    "probability_threshold requires link failure "
                    "probabilities (see assign_zoo_probabilities)"
                )

    # -- public API ----------------------------------------------------------
    def analyze(self) -> DegradationResult:
        """Build the game, solve it, verify, and report the worst case."""
        with current_tracer().span(
            "analyze", objective=self.config.objective
        ) as root:
            result = self._analyze(root)
        return result

    def _analyze(self, root) -> DegradationResult:
        encode_started = time.monotonic()
        game = StackelbergProblem(f"raha-{self.config.objective}")
        model = game.model

        demand_exprs, demand_uppers = self._demand_variables(model)
        encoding = FailureEncoding(
            model=model,
            topology=self.topology,
            paths=self.paths,
            config=self.config,
            non_failable_lags=self.non_failable_lags,
        )
        with current_tracer().span("linearize"):
            caps = build_path_extension_caps(
                model, encoding, demand_exprs, demand_uppers,
                kill_down_paths=(self.config.objective == "mlu"),
            )
        for constraint in self.config.extra_outer_constraints:
            model.add_constr(constraint)
        for builder in self.config.constraint_builders:
            builder(model, encoding, demand_exprs)

        with current_tracer().span("build_healthy"):
            context = self._build_inner(
                game, encoding, caps, demand_exprs, demand_uppers
            )
        # The KKT embedding and the objective are part of the encoding;
        # game.solve() would otherwise do this first, off the clock.
        game.finalize()
        encode_seconds = time.monotonic() - encode_started

        result = game.solve(
            time_limit=self.config.time_limit,
            mip_rel_gap=self.config.mip_rel_gap,
        )
        if result.status is SolveStatus.TIME_LIMIT and not result.has_solution:
            # A timeout that never found an incumbent carries no usable
            # answer (objective NaN) -- walk the fallback ladder: retry
            # with escalated limits, then (if allowed) fall back to an
            # LP-relaxation bound as a structured PartialResult.
            metrics().counter("analyzer.incumbent_free_timeouts").inc()
            recovered = self._recover_from_timeout(game, result,
                                                   encode_seconds)
            if isinstance(recovered, PartialResult):
                metrics().counter("analyzer.partial_results").inc()
                root.set(partial=True, bound=recovered.bound)
                return recovered
            result = recovered
        if not result.status.ok or result.x is None:
            raise SolverError(
                f"Raha MILP ended with {result.status.value}: {result.message}"
            )

        final = self._finalize(
            game, encoding, demand_exprs, context, result, encode_seconds
        )
        root.set(
            degradation=final.degradation, status=final.status,
            encode_seconds=encode_seconds,
        )
        return final

    def _recover_from_timeout(self, game, result: SolveResult,
                              encode_seconds: float):
        """The solver fallback ladder for incumbent-free time limits.

        Rungs, in order (:class:`repro.core.config.ResilienceConfig`):

        1. Re-solve with escalated time limits
           (``time_limit * escalation**i``, ``max_escalations`` times) --
           many instances just need a little more branch-and-bound.
        2. With ``allow_partial=True``: solve the LP relaxation and
           return its optimum as a :class:`PartialResult` bound -- the
           relaxation can only over-estimate a maximization MILP, so
           "degradation cannot exceed this" remains sound.
        3. Otherwise raise :class:`SolverError` naming the configured
           limit, exactly as before the ladder existed.

        Returns:
            A usable :class:`~repro.solver.result.SolveResult` (rung 1)
            or a :class:`PartialResult` (rung 2).
        """
        resilience = self.config.resilience
        tried = [self.config.time_limit]
        provenance = [
            f"MILP hit the {self.config.time_limit}s time limit with no "
            f"incumbent"
        ]
        solver_seconds = result.solve_seconds
        for limit in resilience.escalated_limits(self.config.time_limit):
            tried.append(limit)
            metrics().counter("analyzer.escalated_retries").inc()
            with current_tracer().span("retry_escalated", time_limit=limit):
                retry = game.solve(time_limit=limit,
                                   mip_rel_gap=self.config.mip_rel_gap)
            solver_seconds += retry.solve_seconds
            if not (retry.status is SolveStatus.TIME_LIMIT
                    and not retry.has_solution):
                return retry
            provenance.append(
                f"retry with escalated {limit:g}s time limit: still no "
                f"incumbent"
            )
        if not resilience.allow_partial:
            retries = (
                f" (and after {len(tried) - 1} escalated "
                f"retr{'y' if len(tried) == 2 else 'ies'} up to "
                f"{tried[-1]:g}s)" if len(tried) > 1 else ""
            )
            raise SolverError(
                f"Raha MILP hit the {self.config.time_limit}s time limit "
                f"with no incumbent solution{retries}; raise time_limit, "
                f"relax mip_rel_gap, or enable resilience.allow_partial "
                f"for an LP-relaxation bound ({result.message})"
            )
        with current_tracer().span("lp_relaxation_fallback"):
            relaxed = game.solve(time_limit=resilience.relaxation_time_limit,
                                 relax=True)
        solver_seconds += relaxed.solve_seconds
        if not relaxed.status.ok or relaxed.x is None:
            raise SolverError(
                f"Raha MILP hit the {self.config.time_limit}s time limit "
                f"with no incumbent solution, and the LP-relaxation "
                f"fallback ended with {relaxed.status.value}: "
                f"{relaxed.message}"
            )
        provenance.append(
            f"LP relaxation solved ({relaxed.status.value}): its optimum "
            f"is a valid upper bound on the MILP degradation objective"
        )
        if self.config.minimize_performance:
            provenance.append(
                "minimize_performance mode: the bound applies to the raw "
                "objective (negated failed-network performance)"
            )
        bound = float(relaxed.objective)
        normalizer = (
            self.topology.average_lag_capacity()
            if self.config.objective != "mlu" else 1.0
        )
        return PartialResult(
            bound=bound,
            normalized_bound=bound / normalizer,
            objective=self.config.objective,
            provenance=provenance,
            time_limits_tried=tried,
            solve_seconds=solver_seconds,
            encode_seconds=encode_seconds,
            solver_stats=relaxed.stats.to_dict() if relaxed.stats else None,
        )

    # -- demands ----------------------------------------------------------------
    def _demand_variables(self, model):
        """Demand per pair: a leader Var in joint mode, a float otherwise."""
        exprs: dict[Pair, object] = {}
        uppers: dict[Pair, float] = {}
        if self.config.fixed_demands is not None:
            for pair, volume in self.config.fixed_demands.items():
                exprs[pair] = float(volume)
                uppers[pair] = float(volume)
        else:
            for pair, (lo, hi) in self.config.demand_bounds.items():
                exprs[pair] = model.add_var(lb=lo, ub=hi, name=f"d[{pair}]")
                uppers[pair] = float(hi)
        return exprs, uppers

    # -- inner problems (Section 5; Appendix A) ------------------------------------
    def _build_inner(self, game, encoding, caps, demand_exprs,
                     demand_uppers):
        """The healthy inner problem (an aligned primal, or a constant
        with fixed demands), the KKT-pinned failed one, and the objective."""
        objective = _OBJECTIVES[self.config.objective]
        te = objective.healthy_te(self, demand_uppers)
        fixed = self.config.fixed_demands is not None
        healthy_const = None
        healthy_inner = None
        g_vars: dict[tuple[Pair, int], object] = {}

        if self.config.minimize_performance:
            # The naive prior-work objective: ignore the design point,
            # just minimize the failed network's performance.  The
            # healthy value is reconstructed post hoc in _finalize.
            pass
        elif fixed:
            healthy = te.solve(
                self.topology, self.config.fixed_demands, self.paths
            )
            if not healthy.feasible:
                raise SolverError(f"healthy-network {self.config.objective} "
                                  f"TE is infeasible")
            healthy_const = objective.value(healthy)
        else:
            healthy_inner = game.aligned_inner("healthy",
                                               sense=objective.sense)
            g_vars = objective.add_lp(
                self, healthy_inner, te, demand_exprs, demand_uppers,
                primaries_only=True, lag_capacity=None, caps=None,
            )

        failed_inner = game.adversarial_inner("failed", sense=objective.sense)
        f_vars = objective.add_lp(
            self, failed_inner, te, demand_exprs, demand_uppers,
            primaries_only=False, lag_capacity=encoding.lag_capacity,
            caps=caps,
        )
        if self.config.objective == "total_flow" and self.config.naive_failover:
            add_naive_failover_constraints(
                game.model, self.paths, g_vars, f_vars
            )

        if self.config.minimize_performance:
            game.set_objective_terms([(failed_inner, -1.0)])
        elif fixed:
            # healthy - failed for a max objective, failed - healthy for MLU.
            sign = -1.0 if objective.sense == "max" else 1.0
            game.set_objective_terms([(failed_inner, sign)],
                                     extra=-sign * healthy_const)
        else:
            game.set_gap_objective(healthy_inner, failed_inner)
        return {
            "healthy_inner": healthy_inner,
            "failed_inner": failed_inner,
            "healthy_const": healthy_const,
            "te": te,
        }

    def _add_flow_lp(self, inner: InnerLP, te, demand_exprs, demand_uppers,
                     primaries_only: bool, lag_capacity, caps):
        """Eq. 2 with either constant or variable capacities.

        Dual bounds of 1 are *provably valid* here: the constraint matrix
        over the inner flow variables is 0/1 and every objective
        coefficient is 1, so at any dual vertex each positive dual solves
        a subsystem of "sum of nonnegatives = 1" equations and is <= 1.
        """
        flows = _InnerFlows(self, inner, primaries_only, caps,
                            obj_coef=1.0, dual=1.0)
        for pair in self.config.pairs:
            d_hi = demand_uppers[pair]
            routed = flows.add(pair, d_hi)
            flows.rows.append((routed, demand_exprs[pair], "<=", 1.0, d_hi,
                               f"{inner.name}:dem[{pair}]"))
        flows.add_capacity_rows(lag_capacity)
        inner.add_rows(flows.rows)
        return flows.vars

    def _mlu_bounds(self, demand_uppers):
        total_demand = sum(demand_uppers.values())
        caps = [lag.capacity for lag in self.topology.lags if lag.capacity > 0]
        min_cap = min(caps) if caps else 1.0
        u_max = total_demand / min_cap + 1.0
        dual_eq = 2.0 * (1.0 + sum(1.0 / c for c in caps))
        return u_max, dual_eq

    def _add_mlu_lp(self, inner: InnerLP, te, demand_exprs, demand_uppers,
                    primaries_only: bool, lag_capacity, caps):
        """Appendix A's MLU model.

        Capacity constraints use the *original* capacities against ``U``
        (``lag_capacity`` is not used); failures act purely through the
        path-extension capacities (which here also kill down paths).  Dual
        bounds: the stationarity of ``U`` forces ``sum_e C_e mu_e = 1``
        whenever ``U > 0``, giving ``mu_e <= 1/C_e``; equality and gating
        duals are bounded by the generous ``dual_eq`` (post-solve
        verification guards the choice).
        """
        u_max, dual_eq = self._mlu_bounds(demand_uppers)
        u_var = inner.add_var(obj_coef=1.0, value_bound=u_max,
                              name=f"{inner.name}:U")
        flows = _InnerFlows(self, inner, primaries_only, caps,
                            obj_coef=0.0, dual=dual_eq)
        for pair in self.config.pairs:
            routed = flows.add(pair, demand_uppers[pair])
            # MLU requires demands be fully routed.
            flows.rows.append((routed, demand_exprs[pair], "==", dual_eq,
                               float("inf"), f"{inner.name}:dem[{pair}]"))
        for key, load in flows.loads.items():
            capacity = self.topology.require_lag(*key).capacity
            if capacity <= 0:
                flows.rows.append((load, 0.0, "<=", dual_eq, 1.0,
                                   f"{inner.name}:zero[{key}]"))
                continue
            # load - capacity * U <= 0
            load.add_term(u_var, -float(capacity))
            flows.rows.append((load, 0.0, "<=", 2.0 / capacity,
                               capacity * u_max, f"{inner.name}:util[{key}]"))
        inner.add_rows(flows.rows)
        return flows.vars

    def _binner(self, demand_uppers) -> GeometricBinnerTE:
        max_demand = max(demand_uppers.values()) if demand_uppers else 1.0
        binner_cls = (
            EquiDepthBinnerTE if self.config.maxmin_binner == "equidepth"
            else GeometricBinnerTE
        )
        binner = binner_cls(
            num_bins=self.config.maxmin_bins,
            alpha=self.config.maxmin_alpha,
        )
        # Pin the bins to the demand uppers, so the MILP's inner LPs and
        # the verification solves (whose demands are the ones found) use
        # the same widths.
        binner.t0 = max(max_demand, 1e-9) / (
            binner.alpha ** (binner.num_bins - 1)
        )
        binner.widths = binner.bin_widths(max_demand)
        return binner

    def _add_binner_lp(self, inner: InnerLP, binner, demand_exprs,
                       demand_uppers, primaries_only, lag_capacity, caps):
        """The geometric binner LP with (possibly variable) capacities."""
        widths = binner.widths
        weights = [binner.alpha ** (-i) for i in range(binner.num_bins)]
        flows = _InnerFlows(self, inner, primaries_only, caps,
                            obj_coef=0.0, dual=2.0)
        rows = flows.rows
        for pair in self.config.pairs:
            d_hi = demand_uppers[pair]
            routed = flows.add(pair, d_hi)
            # routed - sum of bins == 0
            split = LinExpr(routed.terms)
            for i, width in enumerate(widths):
                b = inner.add_var(
                    obj_coef=weights[i], value_bound=width,
                    name=f"{inner.name}:b[{pair}][{i}]",
                )
                split.add_term(b, -1.0)
                rows.append((LinExpr({b.index: 1.0}), width, "<=", 2.0,
                             width, f"{inner.name}:bw[{pair}][{i}]"))
            rows.append((split, 0.0, "==", 2.0, float("inf"),
                         f"{inner.name}:split[{pair}]"))
            rows.append((routed, demand_exprs[pair], "<=", 2.0, d_hi,
                         f"{inner.name}:dem[{pair}]"))
        flows.add_capacity_rows(lag_capacity)
        inner.add_rows(rows)
        return flows.vars

    # -- finalize -----------------------------------------------------------------
    def _finalize(self, game, encoding, demand_exprs, context,
                  result: SolveResult, encode_seconds) -> DegradationResult:
        scenario = encoding.extract_scenario(result)
        demands = DemandMatrix()
        for pair, expr in demand_exprs.items():
            demands[pair] = (
                float(expr) if isinstance(expr, float) else result.value(expr)
            )

        healthy_inner = context["healthy_inner"]
        failed_inner = context["failed_inner"]
        if healthy_inner is not None:
            healthy_value = result.value(healthy_inner.objective_expr())
        elif context["healthy_const"] is not None:
            healthy_value = context["healthy_const"]
        else:
            # minimize_performance mode: the design point was not part of
            # the optimization; reconstruct it for the found demands.
            healthy_value = context["te"].solve(
                self.topology, demands, self.paths
            ).total_flow
        failed_value = result.value(failed_inner.objective_expr())
        if self.config.objective == "mlu":
            degradation = failed_value - healthy_value
        else:
            degradation = healthy_value - failed_value

        verified = False
        notes: list[str] = []
        if self.config.verify:
            with current_tracer().span("verify"):
                game.verify(result)
                self._verify_by_simulation(
                    context, demands, scenario, healthy_value, failed_value,
                    notes,
                )
            verified = True

        probability = None
        if self.topology.has_probabilities():
            probability = scenario_probability(self.topology, scenario)

        avg_cap = self.topology.average_lag_capacity()
        normalizer = avg_cap if self.config.objective != "mlu" else 1.0
        if self.config.objective == "mlu":
            notes.append("MLU degradation is reported unnormalized")
        return DegradationResult(
            degradation=degradation,
            normalized_degradation=degradation / normalizer,
            demands=demands,
            scenario=scenario,
            healthy_value=healthy_value,
            failed_value=failed_value,
            scenario_probability=probability,
            status=result.status.value,
            solve_seconds=result.solve_seconds,
            encode_seconds=encode_seconds,
            path_seconds=self.paths.computation_seconds,
            verified=verified,
            num_binaries=game.model.num_integer_vars,
            num_variables=game.model.num_vars,
            num_constraints=game.model.num_constraints,
            solver_stats=result.stats.to_dict() if result.stats else None,
            notes=notes,
        )

    def _verify_by_simulation(self, context, demands, scenario,
                              healthy_value, failed_value, notes) -> None:
        """Cross-check the MILP against the plain TE code path."""
        tol = 1e-3 * max(1.0, abs(healthy_value), abs(failed_value))
        objective = _OBJECTIVES[self.config.objective]
        te = context["te"]
        sim_healthy = objective.value(
            te.solve(self.topology, demands, self.paths)
        )
        sim_failed = objective.value(objective.simulate_failed(
            te, self.topology, demands, self.paths, scenario
        ))

        if abs(sim_healthy - healthy_value) > tol:
            raise VerificationError(
                f"healthy value mismatch: MILP {healthy_value:.6g} vs "
                f"simulated {sim_healthy:.6g}"
            )
        if abs(sim_failed - failed_value) > tol:
            raise VerificationError(
                f"failed value mismatch: MILP {failed_value:.6g} vs "
                f"simulated {sim_failed:.6g}"
            )
        notes.append("simulation cross-check passed")


class _InnerFlows:
    """Eq. 2's path-flow scaffolding inside one inner problem.

    :meth:`add` gives a demand one flow column per path (its primaries,
    or all its paths), adds each to the load of every LAG its path
    crosses (:attr:`loads`), and gates a path that has a path-extension
    capacity in ``caps``.  Objectives differ only in the columns'
    objective coefficient and the gate rows' dual bound: 1.0 for total
    flow, ``dual_eq`` for MLU, 2.0 for the binners.  :attr:`rows` collects
    the rows for one :meth:`InnerLP.add_rows`; :attr:`vars` maps ``(pair,
    j)`` to path ``j``'s column.
    """

    def __init__(self, analyzer: RahaAnalyzer, inner: InnerLP,
                 primaries_only: bool, caps, obj_coef: float, dual: float):
        self.topology = analyzer.topology
        self.paths = analyzer.paths
        self.inner = inner
        self.primaries_only = primaries_only
        self.caps = caps
        self.obj_coef = obj_coef
        self.dual = dual
        self.loads: dict[LagKey, LinExpr] = {}
        self.rows: list[tuple] = []
        self.vars: dict[tuple[Pair, int], object] = {}

    def add(self, pair: Pair, d_hi: float) -> LinExpr:
        """A demand's flow columns; returns their sum, the routed flow."""
        inner, caps = self.inner, self.caps
        dp = self.paths[pair]
        count = dp.num_primary if self.primaries_only else len(dp.paths)
        routed = LinExpr()
        for j in range(count):
            var = inner.add_var(
                obj_coef=self.obj_coef, value_bound=d_hi,
                name=f"{inner.name}:f[{pair}][{j}]",
            )
            self.vars[(pair, j)] = var
            routed.add_term(var, 1.0)
            for lag in self.topology.lags_on_path(dp.paths[j]):
                load = self.loads.get(lag.key)
                if load is None:
                    load = self.loads[lag.key] = LinExpr()
                load.add_term(var, 1.0)
            cap = caps.get((pair, j)) if caps is not None else None
            if cap is not None:
                self.rows.append((
                    LinExpr({var.index: 1.0}), cap, "<=", self.dual, d_hi,
                    f"{inner.name}:gate[{pair}][{j}]",
                ))
        return routed

    def add_capacity_rows(self, lag_capacity) -> None:
        """``load_e <= c_e`` with the gate rows' dual bound: ``c_e`` is the
        failure variables' capacity, or the healthy one without them."""
        for key, load in self.loads.items():
            healthy_cap = self.topology.require_lag(*key).capacity
            rhs = lag_capacity[key] if lag_capacity is not None else healthy_cap
            self.rows.append((load, rhs, "<=", self.dual, healthy_cap,
                              f"{self.inner.name}:cap[{key}]"))


def _over_all_paths(binner: GeometricBinnerTE) -> GeometricBinnerTE:
    """``binner``, pinned bins and all, over backup paths too."""
    failed = copy.copy(binner)
    failed.primary_only = False
    return failed


class _Objective(NamedTuple):
    """How one TE objective enters the game and the simulation check."""

    sense: str  # of both inner problems
    healthy_te: Callable  # (analyzer, demand uppers) -> TE over primaries
    value: Callable  # TESolution -> the objective's value
    add_lp: Callable  # analyzer method adding the objective's inner LP
    simulate_failed: Callable  # (te, topology, demands, paths, scenario)


_OBJECTIVES = {
    "total_flow": _Objective(
        "max", lambda *_: TotalFlowTE(primary_only=True),
        attrgetter("total_flow"), RahaAnalyzer._add_flow_lp,
        lambda te, *args: simulate_failed_network(*args)),
    "mlu": _Objective(
        "min", lambda *_: MluTE(primary_only=True), attrgetter("objective"),
        RahaAnalyzer._add_mlu_lp, lambda te, *args: simulate_failed_mlu(*args)),
    "maxmin": _Objective(
        "max", RahaAnalyzer._binner, attrgetter("objective"),
        RahaAnalyzer._add_binner_lp,
        lambda binner, *args: simulate_failed_network(
            *args, te_factory=lambda: _over_all_paths(binner))),
}
