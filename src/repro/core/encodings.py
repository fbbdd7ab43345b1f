"""The Section 5 MILP encodings: modeling the unhealthy network.

This module creates, inside a host model, the *outer* variables and
constraints that let a convex inner problem describe the network under
failure -- the paper's central trick ("we extract the non-convexity into
the outer problem"):

* per-link failure binaries ``u_le`` (with SRLG fate-sharing);
* variable LAG capacities ``c_e = sum_l c_le (1 - u_le)``;
* LAG-down binaries via Eq. 3 (``N_e u_e + aux = sum u_le``);
* path-down binaries via Eq. 4 (``N_kp u_kp >= sum_{e in p} u_e``);
* backup activation indicators and path-extension capacities via Eq. 5
  (``C_kpj = d_k * I(sum_{i<j} u_kpi >= j - n_kp + 1)``);
* the Section 5.1 constraint library: probability thresholds (in log
  form), failure-count limits, connected-enforcement.

**Failability.** A link participates in the failure search only if it is
*failable*: links without a failure probability are treated as
non-failable when a probability threshold is active (they have no term in
the probability product), and always when their LAG is listed in
``non_failable_lags`` -- this is how virtual gateway LAGs (Section 9) and
"cannot fail" capacity augments (Figure 17/18) are modeled.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from math import log

from repro.core.config import RahaConfig
from repro.exceptions import ModelingError
from repro.failures.scenario import FailureScenario
from repro.network.demand import Pair
from repro.network.topology import LagKey, Topology, lag_key
from repro.paths.pathset import PathSet
from repro.solver.expr import Constraint, LinExpr, Var, quicksum
from repro.solver.linearize import indicator_geq, product_binary_bounded
from repro.solver.model import Model, RowBatch
from repro.solver.result import SolveResult


@dataclass
class FailureEncoding:
    """Outer failure variables and the expressions built on them.

    Attributes:
        model: Host model everything is posted to.
        topology: The WAN.
        paths: Configured paths per demand.
        config: Analysis knobs.
        non_failable_lags: LAGs whose links may never fail.
    """

    model: Model
    topology: Topology
    paths: PathSet
    config: RahaConfig
    non_failable_lags: frozenset[LagKey] = frozenset()

    #: (lag key, link idx) -> binary Var, or 0.0 for non-failable links.
    link_down: dict = field(default_factory=dict, init=False)
    #: lag key -> binary Var, or 0.0 when the LAG can never fully fail.
    lag_down: dict = field(default_factory=dict, init=False)
    #: lag key -> LinExpr: the variable capacity c_e.
    lag_capacity: dict = field(default_factory=dict, init=False)
    #: (pair, path idx) -> binary Var or 0.0: path-down u_kp.
    path_down: dict = field(default_factory=dict, init=False)
    #: (pair, path idx) -> binary Var or constant: backup active a_kpj
    #: (primaries map to the constant 1.0).
    path_active: dict = field(default_factory=dict, init=False)
    #: (lag key, link idx) -> SRLG group id, for every SRLG member.
    _srlg_of: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        self._srlg_of = self._srlg_groups()
        downs = self._build_link_variables()
        self._build_lag_down(downs)
        self._build_path_down()
        self._build_activation()
        self._add_scenario_constraints()

    # -- failability --------------------------------------------------------
    def _failable(self, lag, link, link_index: int) -> bool:
        if lag.key in self.non_failable_lags or not link.can_fail:
            return False
        if (link.failure_probability is not None
                or self.config.probability_threshold is None):
            return True
        # Under a threshold the link needs a term in the probability
        # product: its own probability, or its SRLG's group one.
        gid = self._srlg_of.get((lag.key, link_index))
        return (gid is not None
                and self.topology.srlgs[gid].failure_probability is not None)

    # -- construction ---------------------------------------------------------
    # The builders below write each row's terms into one dict, in the
    # order the expression algebra would add them, and compute each
    # constant with the algebra's own floating-point operations: the
    # compiled model is the contract (tests/core/
    # test_compiled_model_digests.py), so it must not move by a bit.
    def _srlg_groups(self) -> dict[tuple[LagKey, int], int]:
        """Map each SRLG member to its group id."""
        groups: dict[tuple[LagKey, int], int] = {}
        for gid, srlg in enumerate(self.topology.srlgs):
            for member in srlg.members:
                key, idx = lag_key(*member[0]), member[1]
                if (key, idx) in groups:
                    raise ModelingError(
                        f"link {key}#{idx} belongs to multiple SRLGs"
                    )
                groups[(key, idx)] = gid
        return groups

    def _build_link_variables(self) -> list[list]:
        """The link binaries and LAG capacities; each LAG's ``link_down``
        values, in LAG order."""
        model = self.model
        group_var: dict[int, Var] = {}
        downs = []
        for lag in self.topology.lags:
            key = lag.key
            label = str(key)
            # Variable LAG capacity: c_e = sum c_le (1 - u_le).
            capacity = LinExpr()
            us = []
            for i, link in enumerate(lag.links):
                cap = float(link.capacity)
                if not self._failable(lag, link, i):
                    u = 0.0
                else:
                    gid = self._srlg_of.get((key, i))
                    if gid is None:
                        u = model.add_var(binary=True, name=f"u[{label}#{i}]")
                    else:
                        # SRLG members share one binary (fate-sharing).
                        u = group_var.get(gid)
                        if u is None:
                            u = group_var[gid] = model.add_var(
                                binary=True, name=f"u_srlg[{gid}]"
                            )
                    if cap:
                        capacity.add_term(u, -cap)
                self.link_down[(key, i)] = u
                us.append(u)
                capacity.constant += cap
            self.lag_capacity[key] = capacity
            downs.append(us)
        return downs

    def _build_lag_down(self, downs: list[list]) -> None:
        """Eq. 3: a LAG is down only when all of its links are down.

        Row per fully failable LAG: ``N_e u_e + aux - sum u_le == 0``.
        ``downs`` holds each LAG's link binaries, in LAG order.
        """
        model = self.model
        rows = RowBatch()
        for lag, us in zip(self.topology.lags, downs):
            key = lag.key
            if not all(isinstance(u, Var) for u in us):
                # Some link can never fail, so the LAG can never be down.
                self.lag_down[key] = 0.0
                continue
            n = len(us)
            label = str(key)
            u_e = model.add_var(binary=True, name=f"lagdown[{label}]")
            aux = model.add_var(lb=0.0, ub=n - 1, name=f"aux[{label}]")
            row = LinExpr({u_e.index: float(n), aux.index: 1.0})
            for u in us:
                row.add_term(u, -1.0)
            rows.add(row, "==", f"eq3[{label}]")
            self.lag_down[key] = u_e
        rows.post(model)

    def _build_path_down(self) -> None:
        """Eq. 4: a path is down when any of its LAGs is down.

        Rows per path: ``N_kp u_kp - sum u_e >= 0``, and with
        ``exact_path_down`` also ``u_kp - sum u_e <= 0``.
        """
        model = self.model
        exact = self.config.exact_path_down
        rows = RowBatch()
        for pair, dp in self.paths.items():
            for j, path in enumerate(dp.paths):
                lag_downs = [
                    self.lag_down[lag.key]
                    for lag in self.topology.lags_on_path(path)
                ]
                down_vars = [u for u in lag_downs if isinstance(u, Var)]
                if not down_vars:
                    self.path_down[(pair, j)] = 0.0
                    continue
                label = f"[{pair}][{j}]"
                u_kp = model.add_var(binary=True, name=f"pathdown{label}")
                row = LinExpr({u_kp.index: float(len(lag_downs))})
                for u in down_vars:
                    row.add_term(u, -1.0)
                rows.add(row, ">=", f"eq4{label}")
                if exact:
                    row = LinExpr({u_kp.index: 1.0})
                    for u in down_vars:
                        row.add_term(u, -1.0)
                    rows.add(row, "<=", f"eq4x{label}")
                self.path_down[(pair, j)] = u_kp
        rows.post(model)

    def _build_activation(self) -> None:
        """Eq. 5's indicator: the r-th backup needs r higher-priority downs."""
        for pair, dp in self.paths.items():
            for j in range(len(dp.paths)):
                if j < dp.num_primary:
                    self.path_active[(pair, j)] = 1.0
                    continue
                higher = [
                    self.path_down[(pair, i)] for i in range(j)
                ]
                higher_vars = [u for u in higher if isinstance(u, Var)]
                needed = j - dp.num_primary + 1
                if len(higher_vars) < needed:
                    # Not enough failable higher-priority paths: the
                    # activation condition can never hold.
                    self.path_active[(pair, j)] = 0.0
                    continue
                self.path_active[(pair, j)] = indicator_geq(
                    self.model,
                    quicksum(higher_vars),
                    needed,
                    expr_lb=0,
                    expr_ub=len(higher_vars),
                    name=f"active[{pair}][{j}]",
                )

    def _add_scenario_constraints(self) -> None:
        """Section 5.1: probability threshold, failure count, CE."""
        config = self.config
        model = self.model
        if config.probability_threshold is not None:
            self._add_probability_constraint(config.probability_threshold)
        if config.max_failures is not None:
            # Deduplicate SRLG-shared binaries but count each member link.
            counted = LinExpr()
            for u in self.link_down.values():
                if isinstance(u, Var):
                    counted.add_term(u, 1.0)
            model.add_constr(
                _at_most(counted, config.max_failures), name="max_failures"
            )
        if config.connected_enforced:
            for pair, dp in self.paths.items():
                downs = [
                    self.path_down[(pair, j)] for j in range(len(dp.paths))
                ]
                down_vars = [u for u in downs if isinstance(u, Var)]
                if len(down_vars) == len(dp.paths):
                    row = LinExpr()
                    for u in down_vars:
                        row.add_term(u, 1.0)
                    model.add_constr(
                        _at_most(row, len(dp.paths) - 1),
                        name=f"ce[{pair}]",
                    )

    def _add_probability_constraint(self, threshold: float) -> None:
        """log(prod pi^u (1-pi)^(1-u)) >= log T, linearized per Section 5.1.

        SRLG members with a group probability contribute a single term
        driven by the shared binary; other links contribute individually.
        Each term is ``u log(pi) + (1 - u) log(1 - pi)``.
        """
        srlgs = self.topology.srlgs
        row = LinExpr()
        group_done: set[int] = set()
        for lag in self.topology.lags:
            for i, link in enumerate(lag.links):
                u = self.link_down[(lag.key, i)]
                if not isinstance(u, Var):
                    continue  # non-failable: stays up, contributes log(1)~0
                gid = self._srlg_of.get((lag.key, i))
                if gid is not None and srlgs[gid].failure_probability is not None:
                    if gid in group_done:
                        continue
                    pi = srlgs[gid].failure_probability
                    group_done.add(gid)
                else:
                    pi = link.failure_probability
                    if pi is None:
                        raise ModelingError(
                            f"link {lag.key}#{i} is failable under a "
                            "probability threshold but has no probability"
                        )
                log_fail, log_up = log(pi), log(1.0 - pi)
                if log_fail:
                    row.add_term(u, log_fail)
                if log_up:
                    row.add_term(u, -log_up)
                    row.constant += log_up
        # row >= log T, with log T moved to the left.
        row.constant += -log(threshold)
        self.model.add_constr(Constraint(row, ">="), name="probability")

    # -- extraction ---------------------------------------------------------
    def extract_scenario(self, result: SolveResult) -> FailureScenario:
        """Read the failure scenario off a solved host model."""
        failed = []
        for (key, i), u in self.link_down.items():
            if isinstance(u, Var) and result.value(u) > 0.5:
                failed.append((key, i))
        return FailureScenario(failed)


def _at_most(expr: LinExpr, bound) -> Constraint:
    """``expr <= bound`` for a number ``bound``, without temporaries."""
    expr.constant += -float(bound)
    return Constraint(expr, "<=")


def build_path_extension_caps(
    model: Model,
    encoding: FailureEncoding,
    demand_exprs: Mapping[Pair, object],
    demand_uppers: Mapping[Pair, float],
    kill_down_paths: bool = False,
) -> dict[tuple[Pair, int], object]:
    """Eq. 5's path-extension capacities ``C_kpj``.

    For each demand pair and path index ``j`` this returns:

    * ``None`` for paths with no cap (primaries under the total-flow
      objective -- their flow is already limited by the demand constraint
      and the variable LAG capacities);
    * a number or expression otherwise: the artificial LAG's capacity,
      equal to ``d_k`` when the path may carry traffic and 0 when not.

    Args:
        model: Host model.
        encoding: The failure encoding providing activation/down binaries.
        demand_exprs: Demand per pair -- a Var (joint mode) or float.
        demand_uppers: Finite upper bound per pair (the McCormick big-M).
        kill_down_paths: Also zero the capacity of *down* paths.  Needed
            for MLU (Appendix A), where LAG capacity constraints are not
            part of the model and path extensions are the only mechanism
            that stops traffic from crossing a dead LAG.
    """
    caps: dict[tuple[Pair, int], object] = {}
    for pair, dp in encoding.paths.items():
        d_expr = demand_exprs[pair]
        d_hi = demand_uppers[pair]
        for j in range(len(dp.paths)):
            active = encoding.path_active[(pair, j)]
            down = encoding.path_down[(pair, j)]

            usable = _usable_indicator(model, active, down, kill_down_paths,
                                       name=f"usable[{pair}][{j}]")
            if usable is None:
                # Unconditionally usable: no artificial cap needed.
                caps[(pair, j)] = None
                continue
            if isinstance(usable, float):
                caps[(pair, j)] = usable * d_expr if usable else 0.0
                continue
            if isinstance(d_expr, (int, float)):
                # Fixed demand: C = d * usable is a plain scaling.
                d = float(d_expr)
                caps[(pair, j)] = LinExpr({usable.index: d} if d else None)
            else:
                caps[(pair, j)] = product_binary_bounded(
                    model, usable, d_expr, factor_ub=d_hi,
                    name=f"C[{pair}][{j}]",
                )
    return caps


def _usable_indicator(model: Model, active, down, kill_down_paths: bool,
                      name: str):
    """Combine activation and down-ness into one usability signal.

    Returns ``None`` when the path is unconditionally usable (constant
    active, and down-ness is irrelevant or constantly up), a float 0/1
    when usability is constant, or a binary Var otherwise.
    """
    if not kill_down_paths:
        # Usability = activation only (LAG capacities handle down paths).
        if isinstance(active, float):
            return None if active == 1.0 else 0.0
        return active
    # Usability = active AND NOT down.
    if isinstance(active, float) and active == 0.0:
        return 0.0
    if isinstance(down, float):  # never down
        if isinstance(active, float):
            return None if active == 1.0 else 0.0
        return active
    # Rows built in place, with the expression algebra's constants.
    if isinstance(active, float):  # always active (primary)
        w = model.add_var(binary=True, name=name)
        # w == 1 - down
        model.add_constr(
            Constraint(LinExpr({w.index: 1.0, down.index: 1.0}, -1.0), "=="),
            name=f"{name}:def",
        )
        return w
    w = model.add_var(binary=True, name=name)
    # w <= active;  w <= 1 - down;  w >= active - down
    model.add_constr(
        Constraint(LinExpr({w.index: 1.0, active.index: -1.0}), "<="),
        name=f"{name}:a",
    )
    model.add_constr(
        Constraint(LinExpr({w.index: 1.0, down.index: 1.0}, -1.0), "<="),
        name=f"{name}:d",
    )
    model.add_constr(
        Constraint(
            LinExpr({w.index: 1.0, active.index: -1.0, down.index: 1.0}),
            ">=",
        ),
        name=f"{name}:ad",
    )
    return w


def add_naive_failover_constraints(
    model: Model,
    paths: PathSet,
    healthy_flow: Mapping[tuple[Pair, int], Var],
    failed_flow: Mapping[tuple[Pair, int], Var],
) -> None:
    """Section 5.1's naive fail-over coupling.

    ``f_{k, p_{n_kp + r}} <= f^o_{k, p_r}``: the r-th backup may carry at
    most what the healthy network put on the r-th primary, and every
    primary's failed flow may not exceed its healthy flow.  Backups beyond
    the primary count are capped at zero (no healthy counterpart).
    """
    rows = RowBatch()
    for pair, dp in paths.items():
        n = dp.num_primary
        for j in range(len(dp.paths)):
            f_var = failed_flow.get((pair, j))
            if f_var is None:
                continue
            if j < n:
                source = healthy_flow.get((pair, j))
            else:
                r = j - n
                source = healthy_flow.get((pair, r)) if r < n else None
            if source is None:
                rows.add(LinExpr({f_var.index: 1.0}), "<=",
                         f"naive0[{pair}][{j}]")
            else:
                rows.add(LinExpr({f_var.index: 1.0, source.index: -1.0}),
                         "<=", f"naive[{pair}][{j}]")
    rows.post(model)


def failable_link_keys(
    topology: Topology,
    config: RahaConfig,
    non_failable_lags: Iterable[LagKey] = (),
) -> list[tuple[LagKey, int]]:
    """The links a :class:`FailureEncoding` would let fail (for reports)."""
    banned = {lag_key(*k) for k in non_failable_lags}
    out = []
    for lag in topology.lags:
        if lag.key in banned:
            continue
        for i, link in enumerate(lag.links):
            if link.failure_probability is None and (
                config.probability_threshold is not None
            ):
                continue
            out.append((lag.key, i))
    return out
