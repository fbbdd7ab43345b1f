"""Embedding parameterized inner LPs and their KKT optimality conditions.

This module is the mechanism behind the paper's key move (Section 4.1):
MetaOpt solves a Stackelberg game whose *second inner problem* (the failed
network) must be held at *its own optimum* while the outer adversary picks
demands and failures.  For an LP inner problem that is exact when we embed,
alongside the primal constraints, the LP's KKT conditions:

* dual feasibility:      ``A' y >= c`` (for a maximization ``max c'x``),
* complementary slackness on rows:      ``y_i * (b_i - A_i x) = 0``,
* complementary slackness on columns:   ``x_j * (A'y - c)_j = 0``,

with each complementarity product linearized through a big-M binary.  The
crucial property that keeps everything *linear* even though the right-hand
sides ``b(I)`` contain outer variables (variable LAG capacities, demands,
path-extension capacities): complementarity never multiplies a dual by an
outer variable -- only by a binary with constant big-M bounds.

:class:`InnerLP` tracks an inner problem *inside* a host
:class:`repro.solver.model.Model`: primal variables and constraints are
posted to the host immediately (they are needed for both aligned and
adversarial embeddings); :meth:`InnerLP.embed_kkt` then posts the dual
side.  :meth:`InnerLP.resolve_at` re-solves the inner problem as a plain
LP at a candidate outer assignment, which Raha uses to *verify* that every
big-M bound was large enough before trusting a result.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import ModelingError, VerificationError
from repro.solver.expr import LinExpr, Var
from repro.solver.model import Model
from repro.solver.result import SolveResult


@dataclass
class _InnerRow:
    """One inner constraint ``lhs(x) SENSE rhs(I)`` plus its KKT metadata."""

    lhs: LinExpr  # over inner variables only
    rhs: LinExpr  # over outer variables only (plus constant)
    sense: str  # "<=" or "=="
    dual_bound: float
    slack_bound: float  # finite for "<=" rows, unused for "=="
    name: str
    dual: Var | None = None


@dataclass
class _InnerCol:
    """One inner variable plus its KKT metadata."""

    var: Var
    obj_coef: float  # in the *maximization* convention used internally
    value_bound: float  # finite upper bound on the variable's value
    rows: list[tuple[int, float]] = field(default_factory=list)  # (row, coef)


class InnerLP:
    """An inner LP embedded in a host model, parameterized by outer vars.

    Inner variables must be nonnegative with no native upper bound: bounds
    that matter must be expressed as constraints so they receive duals.
    Every constraint is split as ``lhs SENSE rhs`` where ``lhs`` mentions
    only inner variables (with constant coefficients) and ``rhs`` mentions
    only outer variables -- exactly the structure the paper exploits
    ("the variables of the outer problem are treated as constants by the
    inner problems").

    Args:
        model: Host model receiving all variables and constraints.
        name: Stem for generated names.
        sense: ``"max"`` or ``"min"`` -- the inner problem's own objective
            sense.  Internally everything is normalized to maximization.
    """

    def __init__(self, model: Model, name: str, sense: str = "max"):
        if sense not in ("max", "min"):
            raise ModelingError(f"inner sense must be min or max, got {sense!r}")
        self.model = model
        self.name = name
        self.sense = sense
        self._cols: list[_InnerCol] = []
        self._rows: list[_InnerRow] = []
        self._col_of_var: dict[int, int] = {}
        self._kkt_embedded = False
        # Cached verification LP for resolve_at(): (signature, model, rows).
        self._verify_cache: tuple[tuple[int, int], Model, range] | None = None

    # -- building ----------------------------------------------------------
    def add_var(
        self, obj_coef: float, value_bound: float, name: str = ""
    ) -> Var:
        """Create an inner variable ``x >= 0``.

        Args:
            obj_coef: Coefficient in the inner objective (in the problem's
                own sense -- the class normalizes internally).
            value_bound: A finite bound on the variable's value over every
                feasible point; used as the big-M in column complementarity.
            name: Debugging name.
        """
        if not (value_bound < float("inf")):
            raise ModelingError(
                f"inner variable {name!r} needs a finite value bound for KKT"
            )
        var = self.model.add_var(lb=0.0, name=name or f"{self.name}:x")
        internal_coef = obj_coef if self.sense == "max" else -obj_coef
        col = _InnerCol(var=var, obj_coef=internal_coef, value_bound=value_bound)
        self._col_of_var[var.index] = len(self._cols)
        self._cols.append(col)
        return var

    def _split(self, lhs: LinExpr) -> tuple[LinExpr, LinExpr]:
        """Split a mixed expression into (inner part, outer part)."""
        inner = LinExpr()
        outer = LinExpr({}, lhs.constant)
        for idx, coef in lhs.terms.items():
            if idx in self._col_of_var:
                inner.terms[idx] = coef
            else:
                outer.terms[idx] = coef
        return inner, outer

    def add_constr(
        self,
        constraint,
        dual_bound: float,
        slack_bound: float = float("inf"),
        name: str = "",
    ) -> None:
        """Add an inner constraint (posted to the host model immediately).

        The constraint may mix inner and outer variables; it is split
        automatically.  ``>=`` rows are flipped to ``<=``.

        Args:
            constraint: A Constraint built with ``<=``, ``>=`` or ``==``.
            dual_bound: Valid bound on the magnitude of an optimal dual for
                this row.  For the flow LPs in this repository the bound is
                1 (see :mod:`repro.metaopt.bilevel` for the argument).
            slack_bound: Valid bound on the row's slack ``rhs - lhs`` over
                the feasible set; required finite for ``<=`` rows when KKT
                conditions will be embedded.
            name: Debugging name.
        """
        if self._kkt_embedded:
            raise ModelingError("cannot add constraints after embed_kkt()")
        expr, sense = constraint.expr, constraint.sense
        if sense == ">=":
            expr, sense = -expr, "<="
        inner, outer = self._split(expr)
        # Normalized row: inner(x) SENSE -outer(I).
        rhs = -outer
        row_index = len(self._rows)
        row = _InnerRow(
            lhs=inner,
            rhs=rhs,
            sense=sense,
            dual_bound=float(dual_bound),
            slack_bound=float(slack_bound),
            name=name or f"{self.name}:r{row_index}",
        )
        self._rows.append(row)
        for idx, coef in inner.terms.items():
            self._cols[self._col_of_var[idx]].rows.append((row_index, coef))
        # Post the primal constraint to the host.
        if sense == "<=":
            self.model.add_constr(inner <= rhs, name=row.name)
        else:
            self.model.add_constr(inner == rhs, name=row.name)

    # -- objective accessors -------------------------------------------------
    def objective_expr(self) -> LinExpr:
        """The inner objective over inner variables, in the *native* sense."""
        flip = 1.0 if self.sense == "max" else -1.0
        expr = LinExpr()
        for col in self._cols:
            if col.obj_coef:
                expr.add_term(col.var, flip * col.obj_coef)
        return expr

    # -- embeddings -----------------------------------------------------------
    def embed_kkt(self) -> None:
        """Post dual feasibility and complementary slackness to the host.

        After this call, every feasible point of the host model has the
        inner variables at an *optimal* solution of the inner LP for the
        outer assignment -- which is what makes the single-level reduction
        of the Stackelberg game exact.
        """
        if self._kkt_embedded:
            raise ModelingError("embed_kkt() called twice")
        self._kkt_embedded = True
        model = self.model

        # Dual variables per row.
        for row in self._rows:
            if row.sense == "<=":
                row.dual = model.add_var(
                    lb=0.0, ub=row.dual_bound, name=f"{row.name}:dual"
                )
            else:
                row.dual = model.add_var(
                    lb=-row.dual_bound, ub=row.dual_bound, name=f"{row.name}:dual"
                )
        # Complementarity binaries: t per column, s per inequality row.
        t_vars = [
            model.add_var(binary=True, name=f"{col.var.name}:basic")
            for col in self._cols
        ]
        ineq_rows = [row for row in self._rows if row.sense == "<="]
        for row in ineq_rows:
            if not (row.slack_bound < float("inf")):
                raise ModelingError(
                    f"row {row.name!r} needs a finite slack bound for KKT"
                )
        s_vars = [
            model.add_var(binary=True, name=f"{row.name}:tight")
            for row in ineq_rows
        ]

        # The five KKT constraint families, each posted as one batch.
        # Dual feasibility per column:  sum(coef * dual_r) >= obj_coef.
        df_cols: list[int] = []
        df_data: list[float] = []
        df_indptr: list[int] = [0]
        df_rhs: list[float] = []
        # Column complementarity (reduced cost side):
        #   sum(coef * dual_r) - rc_bound * t <= obj_coef.
        rc_cols: list[int] = []
        rc_data: list[float] = []
        rc_indptr: list[int] = [0]
        rc_rhs: list[float] = []
        # Column complementarity (value side):  x + value_bound * t <= value_bound.
        cx_cols: list[int] = []
        cx_data: list[float] = []
        cx_rhs: list[float] = []
        for col, t in zip(self._cols, t_vars):
            rc_bound = abs(col.obj_coef)
            for r, coef in col.rows:
                dual_idx = self._rows[r].dual.index
                df_cols.append(dual_idx)
                df_data.append(coef)
                rc_cols.append(dual_idx)
                rc_data.append(coef)
                rc_bound += abs(coef) * self._rows[r].dual_bound
            df_indptr.append(len(df_cols))
            df_rhs.append(col.obj_coef)
            rc_cols.append(t.index)
            rc_data.append(-rc_bound)
            rc_indptr.append(len(rc_cols))
            rc_rhs.append(col.obj_coef)
            cx_cols += [col.var.index, t.index]
            cx_data += [1.0, col.value_bound]
            cx_rhs.append(col.value_bound)
        model.add_constrs_batch(
            df_indptr, df_cols, df_data, sense=">=", rhs=df_rhs, name="dualfeas"
        )
        model.add_constrs_batch(
            rc_indptr, rc_cols, rc_data, sense="<=", rhs=rc_rhs, name="cs_rc"
        )
        model.add_constrs_batch(
            np.arange(0, len(cx_cols) + 1, 2), cx_cols, cx_data,
            sense="<=", rhs=cx_rhs, name="cs_x",
        )

        # Row complementarity (dual side):  dual - dual_bound * s <= 0.
        cd_cols: list[int] = []
        cd_data: list[float] = []
        # Row complementarity (slack side):
        #   (rhs - lhs) + slack_bound * s <= slack_bound, with the outer
        #   rhs terms on the left so the row stays linear in outer vars.
        sl_cols: list[int] = []
        sl_data: list[float] = []
        sl_indptr: list[int] = [0]
        sl_rhs: list[float] = []
        for row, s in zip(ineq_rows, s_vars):
            cd_cols += [row.dual.index, s.index]
            cd_data += [1.0, -row.dual_bound]
            for idx, coef in row.rhs.terms.items():
                sl_cols.append(idx)
                sl_data.append(coef)
            for idx, coef in row.lhs.terms.items():
                sl_cols.append(idx)
                sl_data.append(-coef)
            sl_cols.append(s.index)
            sl_data.append(row.slack_bound)
            sl_indptr.append(len(sl_cols))
            sl_rhs.append(row.slack_bound - row.rhs.constant)
        model.add_constrs_batch(
            np.arange(0, len(cd_cols) + 1, 2), cd_cols, cd_data,
            sense="<=", rhs=0.0, name="cs_dual",
        )
        model.add_constrs_batch(
            sl_indptr, sl_cols, sl_data, sense="<=", rhs=sl_rhs, name="cs_slack"
        )

    # -- verification -----------------------------------------------------------
    def _outer_value(self, result: SolveResult, expr: LinExpr) -> float:
        """Evaluate an outer expression with integer variables snapped.

        MILP incumbents can carry binaries at 0.9999...; evaluating the
        Eq. 5 capacity products with such values makes the verification
        LP spuriously infeasible, so integral variables are rounded.
        """
        total = expr.constant
        for idx, coef in expr.terms.items():
            value = float(result.x[idx])
            if self.model.variables[idx].integer:
                value = round(value)
            total += coef * value
        return total

    def _verification_lp(self) -> tuple[Model, range]:
        """The structural verification LP, built once and cached.

        The LP's matrix depends only on the inner rows/columns; only the
        right-hand sides vary with the outer assignment, so
        :meth:`resolve_at` patches them through
        :meth:`repro.solver.model.Model.resolve_with` instead of
        rebuilding the model per verification.
        """
        signature = (len(self._cols), len(self._rows))
        if self._verify_cache is not None and self._verify_cache[0] == signature:
            return self._verify_cache[1], self._verify_cache[2]
        lp = Model(f"{self.name}:verify")
        for col in self._cols:
            lp.add_var(lb=0.0, name=col.var.name)
        # Local column index of inner var j is its position in self._cols.
        cols_l: list[int] = []
        data_l: list[float] = []
        indptr: list[int] = [0]
        senses: list[str] = []
        for row in self._rows:
            for idx, coef in row.lhs.terms.items():
                cols_l.append(self._col_of_var[idx])
                data_l.append(coef)
            indptr.append(len(cols_l))
            senses.append(row.sense)
        rows = lp.add_constrs_batch(
            indptr, cols_l, data_l, sense=senses, rhs=0.0, name="inner"
        )
        lp.set_objective(
            LinExpr.from_arrays(
                np.arange(len(self._cols)),
                np.array([col.obj_coef for col in self._cols]),
            ),
            sense="max",
        )
        self._verify_cache = (signature, lp, rows)
        return lp, rows

    def resolve_at(self, result: SolveResult, time_limit: float | None = None):
        """Re-solve the inner LP with outer variables fixed at a solution.

        The LP is built on the first call and cached; later calls (other
        candidate solutions of the same host model) only patch the
        right-hand sides.  Monte Carlo scenario re-solves do not come
        through here: they use
        :class:`~repro.failures.montecarlo.ScenarioResolver`.

        Args:
            result: A solution of the host model.
            time_limit: Optional LP time limit.

        Returns:
            The plain-LP :class:`SolveResult` of the inner problem.
        """
        lp, rows = self._verification_lp()
        overrides = {
            rows[i]: self._outer_value(result, row.rhs)
            for i, row in enumerate(self._rows)
        }
        return lp.resolve_with(rhs_overrides=overrides, time_limit=time_limit)

    def verify_optimality(self, result: SolveResult, tol: float = 1e-4) -> float:
        """Check the embedded solution matches the true inner optimum.

        Args:
            result: A solution of the host model (KKT already embedded).
            tol: Absolute/relative tolerance on the objective mismatch.

        Returns:
            The true inner objective (native sense).

        Raises:
            VerificationError: If the embedded objective deviates from the
                re-solved optimum by more than ``tol`` -- i.e. a big-M
                bound was too small and the result cannot be trusted.
        """
        flip = 1.0 if self.sense == "max" else -1.0
        embedded = result.value(self.objective_expr())
        lp_result = self.resolve_at(result)
        if not lp_result.status.ok:
            raise VerificationError(
                f"inner {self.name!r} verification LP failed: {lp_result.status}"
            )
        true_native = flip * lp_result.objective
        scale = max(1.0, abs(true_native))
        if abs(embedded - true_native) > tol * scale:
            raise VerificationError(
                f"inner {self.name!r} embedded objective {embedded:.6g} != "
                f"true optimum {true_native:.6g}; a big-M bound is too small"
            )
        return true_native
