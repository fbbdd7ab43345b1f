"""Tests for the array-backed modeling fast path and incremental re-solve.

Covers ``LinExpr.from_arrays``, ``add_constrs_batch``, the compile cache,
``Model.resolve_with``, per-solve ``SolveStats`` telemetry and the sign
of reported duals.
"""

import numpy as np
import pytest

from repro.exceptions import ModelingError
from repro.solver import Model, SolveStatus, quicksum
from repro.solver.expr import LinExpr


class TestFromArrays:
    def test_duplicate_indices_are_summed(self):
        e = LinExpr.from_arrays([3, 1, 3], [2.0, 5.0, 0.5])
        assert e.terms == {1: 5.0, 3: 2.5}

    def test_exact_zero_coefficients_dropped(self):
        e = LinExpr.from_arrays([0, 1, 2], [1.0, 0.0, -1.0])
        assert 1 not in e.terms
        assert e.terms == {0: 1.0, 2: -1.0}

    def test_cancellation_drops_term(self):
        e = LinExpr.from_arrays([4, 4], [1.0, -1.0])
        assert e.terms == {}

    def test_constant_kept(self):
        e = LinExpr.from_arrays([0], [2.0], constant=7.5)
        assert e.constant == 7.5

    def test_empty(self):
        e = LinExpr.from_arrays([], [])
        assert e.terms == {}
        assert e.constant == 0.0

    def test_matches_scalar_construction(self):
        m = Model()
        xs = [m.add_var(ub=1.0) for _ in range(4)]
        coefs = [2.0, -1.0, 0.5, 3.0]
        batched = LinExpr.from_arrays([x.index for x in xs], coefs)
        scalar = quicksum(c * x for c, x in zip(coefs, xs))
        assert batched.terms == scalar.terms


class TestQuicksumCoefs:
    """Weights go on the items (``quicksum(w * x ...)``) or through
    ``LinExpr.from_arrays``; both give the same expression."""

    def test_coefs_path_matches_generator(self):
        m = Model()
        xs = [m.add_var(ub=2.0) for _ in range(5)]
        w = [1.0, 2.0, 3.0, 4.0, 5.0]
        cols = [x.index for x in xs] + [xs[0].index]
        assert LinExpr.from_arrays(cols, w + [-1.0]).terms == \
            quicksum(wi * x for wi, x in zip(w + [-1.0], xs + [xs[0]])).terms

    def test_coefs_length_mismatch_rejected(self):
        m = Model()
        xs = [m.add_var() for _ in range(3)]
        with pytest.raises((ModelingError, ValueError)):
            LinExpr.from_arrays([x.index for x in xs], [1.0, 2.0])


class TestAddVarsBatch:
    """Per-variable bounds and their checks, on ``add_var`` and on the
    array form rows take (``add_constrs_batch``)."""

    def test_array_bounds(self):
        m = Model()
        xs = [m.add_var(lb=lb, ub=5.0) for lb in [0.0, 1.0, 2.0]]
        assert [x.lb for x in xs] == [0.0, 1.0, 2.0]
        m.set_objective(quicksum(xs), sense="min")
        assert m.solve().objective == pytest.approx(3.0)

    def test_negative_count_rejected(self):
        m = Model()
        x = m.add_var()
        # indptr [0, 1, 0] gives the second row -1 terms.
        with pytest.raises(ModelingError, match="nondecreasing"):
            m.add_constrs_batch([0, 1, 0], [x.index], rhs=1.0)

    def test_bad_bound_shape_rejected(self):
        m = Model()
        xs = [m.add_var() for _ in range(3)]
        with pytest.raises(ModelingError, match="bad rhs shape"):
            m.add_constrs_batch(
                [0, 1, 2, 3], [x.index for x in xs], rhs=[0.0, 1.0]
            )

    def test_lb_above_ub_rejected(self):
        m = Model()
        m.add_var(lb=0.0, ub=1.0)
        with pytest.raises(ModelingError, match="lb 3.0 > ub 1.0"):
            m.add_var(lb=3.0, ub=1.0)

    def test_binary_conflicting_bounds_rejected(self):
        m = Model()
        m.add_var(binary=True, ub=1.0)
        with pytest.raises(ModelingError, match="conflict with binary"):
            m.add_var(binary=True, ub=5.0)

    def test_binary_fixed_to_one_allowed(self):
        m = Model()
        z = m.add_var(binary=True, lb=1.0)
        m.set_objective(z.to_expr(), sense="min")
        assert m.solve().objective == pytest.approx(1.0)


class TestBinaryBoundConflict:
    """``add_var(binary=True, lb=..., ub=...)`` must not silently widen."""

    def test_scalar_binary_with_wide_ub_rejected(self):
        with pytest.raises(ModelingError):
            Model().add_var(binary=True, ub=5.0)

    def test_scalar_binary_with_negative_lb_rejected(self):
        with pytest.raises(ModelingError):
            Model().add_var(binary=True, lb=-1.0)

    def test_scalar_binary_pinned_inside_unit_box_ok(self):
        m = Model()
        z = m.add_var(binary=True, lb=1.0, ub=1.0)
        m.set_objective(z.to_expr(), sense="min")
        assert m.solve().objective == pytest.approx(1.0)


class TestAddConstrsBatch:
    def _scalar_model(self):
        m = Model()
        xs = [m.add_var(ub=4.0, name=f"x{i}") for i in range(3)]
        m.add_constr(xs[0] + 2 * xs[1] <= 6.0)
        m.add_constr(xs[1] + xs[2] <= 5.0)
        m.add_constr(xs[0] - xs[2] == 1.0)
        m.set_objective(quicksum(xs), sense="max")
        return m

    def _batch_model(self):
        m = Model()
        xs = [m.add_var(ub=4.0, name=f"x{i}") for i in range(3)]
        m.add_constrs_batch(
            [0, 2, 4],
            [xs[0].index, xs[1].index, xs[1].index, xs[2].index],
            [1.0, 2.0, 1.0, 1.0],
            rhs=[6.0, 5.0],
        )
        m.add_constrs_batch(
            [0, 2],
            [xs[0].index, xs[2].index],
            [1.0, -1.0],
            sense="==",
            rhs=1.0,
        )
        m.set_objective(quicksum(xs), sense="max")
        return m

    def test_batch_matches_scalar_objective(self):
        assert self._batch_model().solve().objective == pytest.approx(
            self._scalar_model().solve().objective
        )

    def test_batch_matches_scalar_matrix(self):
        sc, _ = self._scalar_model()._ensure_compiled()
        ba, _ = self._batch_model()._ensure_compiled()
        np.testing.assert_array_equal(sc.c, ba.c)
        assert (sc.a != ba.a).nnz == 0
        for side in ("row_lb", "row_ub", "var_lb", "var_ub"):
            np.testing.assert_array_equal(getattr(sc, side), getattr(ba, side))

    def test_per_row_sense_sequence(self):
        m = Model()
        x, y = m.add_var(ub=10.0), m.add_var(ub=10.0)
        m.add_constrs_batch(
            [0, 1, 2],
            [x.index, y.index],
            rhs=[3.0, 2.0],
            sense=["<=", ">="],
        )
        m.set_objective(x - y, sense="max")
        r = m.solve()
        assert r.value(x) == pytest.approx(3.0)
        assert r.value(y) == pytest.approx(2.0)

    def test_row_bounds_classify_range_rows(self):
        """A box ``2 <= x <= 6`` is two one-sided rows; the sense of each
        puts its rhs on the lower or the upper row bound."""
        m = Model()
        x = m.add_var(ub=10.0)
        rows = m.add_constrs_batch(
            [0, 1, 2], [x.index, x.index], sense=[">=", "<="],
            rhs=[2.0, 6.0], name="box"
        )
        m.set_objective(x.to_expr(), sense="max")
        assert m.solve().objective == pytest.approx(6.0)
        compiled, _ = m._ensure_compiled()
        inf = float("inf")
        assert list(compiled.row_lb[rows.start:rows.stop]) == [2.0, -inf]
        assert list(compiled.row_ub[rows.start:rows.stop]) == [inf, 6.0]
        lo, hi = [m.constraints[i] for i in rows]
        assert (lo.sense, lo.rhs(), hi.sense, hi.rhs()) == \
            (">=", 2.0, "<=", 6.0)

    def test_returned_range_indexes_rows(self):
        m = Model()
        x = m.add_var(ub=10.0)
        m.add_constr(x <= 9.0)
        rows = m.add_constrs_batch([0, 1], [x.index], rhs=4.0)
        assert list(rows) == [1]

    def test_materialized_constraints_match_scalar_forms(self):
        m = Model()
        x, y = m.add_var(ub=10.0), m.add_var(ub=10.0)
        m.add_constrs_batch(
            [0, 2], [x.index, y.index], [1.0, 2.0], rhs=8.0, name="cap"
        )
        (con,) = m.constraints
        assert con.name == "cap"
        assert con.sense == "<="
        assert con.expr.terms == {x.index: 1.0, y.index: 2.0}
        assert con.rhs() == pytest.approx(8.0)

    def test_bad_indptr_rejected(self):
        m = Model()
        x = m.add_var()
        with pytest.raises(ModelingError):
            m.add_constrs_batch([1, 2], [x.index], rhs=1.0)

    def test_column_out_of_range_rejected(self):
        m = Model()
        m.add_var()
        with pytest.raises(ModelingError):
            m.add_constrs_batch([0, 1], [5], rhs=1.0)

    def test_data_shape_mismatch_rejected(self):
        m = Model()
        x = m.add_var()
        with pytest.raises(ModelingError):
            m.add_constrs_batch([0, 1], [x.index], [1.0, 2.0], rhs=1.0)

    def test_missing_rhs_rejected(self):
        m = Model()
        x = m.add_var()
        with pytest.raises(ModelingError, match="needs rhs"):
            m.add_constrs_batch([0, 1], [x.index])

    def test_rhs_and_row_bounds_together_rejected(self):
        """Rows take one ``rhs`` and a sense; there is no second,
        row-bound form to mix it with."""
        m = Model()
        x = m.add_var()
        with pytest.raises(TypeError):
            m.add_constrs_batch(
                [0, 1], [x.index], rhs=1.0, row_ub=2.0
            )
        assert m.num_constraints == 0

    def test_mixing_scalar_and_batch_rows(self):
        m = Model()
        x, y = m.add_var(ub=10.0), m.add_var(ub=10.0)
        m.add_constr(x + y <= 7.0, name="scalar")
        m.add_constrs_batch([0, 1], [y.index], rhs=2.0, name="batch")
        m.add_constr(x <= 6.0)
        m.set_objective(x + y, sense="max")
        assert m.solve().objective == pytest.approx(7.0)
        names = [c.name for c in m.constraints]
        assert names == ["scalar", "batch", ""]


class TestCompileCache:
    def test_second_solve_hits_cache(self):
        m = Model()
        x = m.add_var(ub=3.0)
        m.add_constr(x <= 2.0)
        m.set_objective(x.to_expr(), sense="max")
        first = m.solve()
        second = m.solve()
        assert first.stats.compile_cached is False
        assert second.stats.compile_cached is True
        assert second.stats.compile_seconds == 0.0
        assert second.objective == pytest.approx(first.objective)

    def test_mutation_invalidates_cache(self):
        m = Model()
        x = m.add_var(ub=3.0)
        m.set_objective(x.to_expr(), sense="max")
        assert m.solve().objective == pytest.approx(3.0)
        m.add_constr(x <= 1.0)
        r = m.solve()
        assert r.stats.compile_cached is False
        assert r.objective == pytest.approx(1.0)

    def test_objective_change_invalidates_cache(self):
        m = Model()
        x = m.add_var(lb=-1.0, ub=3.0)
        m.set_objective(x.to_expr(), sense="max")
        m.solve()
        m.set_objective(x.to_expr(), sense="min")
        assert m.solve().objective == pytest.approx(-1.0)


class TestResolveWith:
    def _capped_model(self):
        m = Model()
        x = m.add_var(ub=10.0)
        cap = m.add_constr(x <= 4.0, name="cap")
        m.set_objective(x.to_expr(), sense="max")
        return m, x, cap

    def test_le_rhs_override(self):
        m, _, cap = self._capped_model()
        assert m.solve().objective == pytest.approx(4.0)
        assert m.resolve_with({cap.row: 2.5}).objective == pytest.approx(2.5)

    def test_model_unchanged_after_resolve(self):
        m, _, cap = self._capped_model()
        m.resolve_with({cap.row: 1.0})
        assert m.solve().objective == pytest.approx(4.0)

    def test_integer_row_key(self):
        m, _, cap = self._capped_model()
        assert m.resolve_with({cap.row: 3.0}).objective == pytest.approx(3.0)

    def test_ge_and_eq_overrides(self):
        m = Model()
        x = m.add_var(ub=10.0)
        y = m.add_var(ub=10.0)
        floor = m.add_constr(x >= 1.0)
        pin = m.add_constr(y == 2.0)
        m.set_objective(x + y, sense="min")
        assert m.solve().objective == pytest.approx(3.0)
        r = m.resolve_with({floor.row: 4.0, pin.row: 5.0})
        assert r.value(x) == pytest.approx(4.0)
        assert r.value(y) == pytest.approx(5.0)

    def test_range_row_takes_tuple(self):
        """A box is two rows, each overridden by row index with one
        float; a ``(lo, hi)`` tuple is not a right-hand side."""
        m = Model()
        x = m.add_var(ub=10.0)
        m.add_constr(x >= 1.0)
        top = m.add_constr(x <= 6.0)
        m.set_objective(x.to_expr(), sense="max")
        assert m.solve().objective == pytest.approx(6.0)
        assert m.resolve_with({top.row: 3.0}).objective == \
            pytest.approx(3.0)
        with pytest.raises(TypeError):
            m.resolve_with({top.row: (None, 3.0)})

    def test_bound_overrides(self):
        m = Model()
        x = m.add_var(ub=5.0)
        y = m.add_var(ub=5.0)
        m.set_objective(x + y, sense="max")
        assert m.solve().objective == pytest.approx(10.0)
        r = m.resolve_with(bound_overrides={x.index: 0.0, y.index: 3.0})
        assert r.value(x) == pytest.approx(0.0)
        assert r.value(y) == pytest.approx(3.0)

    def test_crossed_override_rejected(self):
        m = Model()
        x = m.add_var(lb=6.0, ub=10.0)
        m.set_objective(x.to_expr(), sense="max")
        with pytest.raises(ModelingError, match="lb 6.0 > ub 2.0"):
            m.resolve_with(bound_overrides={x.index: 2.0})

    def test_row_index_out_of_range_rejected(self):
        m, _, _ = self._capped_model()
        with pytest.raises(ModelingError):
            m.resolve_with({99: 1.0})

    def test_batch_rows_resolvable_by_index(self):
        m = Model()
        xs = [m.add_var(ub=10.0), m.add_var(ub=10.0)]
        rows = m.add_constrs_batch(
            [0, 1, 2], [xs[0].index, xs[1].index], rhs=[4.0, 4.0]
        )
        m.set_objective(quicksum(xs), sense="max")
        assert m.solve().objective == pytest.approx(8.0)
        r = m.resolve_with({rows[0]: 1.0, rows[1]: 2.0})
        assert r.objective == pytest.approx(3.0)
        assert r.stats.incremental is True

    def test_resolve_milp(self):
        m = Model()
        z = m.add_var(binary=True)
        x = m.add_var(ub=10.0)
        cap = m.add_constr(x <= 6.0)
        m.add_constr(x <= 10.0 * z.to_expr())
        m.set_objective(x - 0.5 * z, sense="max")
        assert m.solve().objective == pytest.approx(5.5)
        r = m.resolve_with({cap.row: 0.25})
        assert r.objective == pytest.approx(0.0)
        assert r.stats.backend == "milp"
        assert r.stats.incremental is True


class TestRangeDualRegression:
    """A box ``lo <= expr <= hi`` is posted as a ``>=`` and a ``<=`` row.
    The binding side carries the marginal, signed as a one-sided row's
    dual is; the slack side reports zero."""

    @staticmethod
    def _box(m, expr, lo, hi):
        return m.add_constr(expr >= lo), m.add_constr(expr <= hi)

    def test_range_binding_above_has_nonzero_dual(self):
        m = Model()
        x = m.add_var(ub=100.0)
        below, above = self._box(m, x, 0.0, 5.0)
        m.set_objective(2.0 * x, sense="max")
        r = m.solve()
        assert r.objective == pytest.approx(10.0)
        # Raising the upper side by 1 gains 2.0: dual must be 2, not 0.
        assert r.duals[above.row] == pytest.approx(2.0)
        assert r.duals[below.row] == pytest.approx(0.0)

    def test_range_binding_below_min(self):
        m = Model()
        x = m.add_var(ub=100.0)
        below, above = self._box(m, x, 3.0, 8.0)
        m.set_objective(4.0 * x, sense="min")
        r = m.solve()
        assert r.objective == pytest.approx(12.0)
        # For a min problem, tightening the binding lower side by 1
        # raises the optimum by 4.
        assert r.duals[below.row] == pytest.approx(4.0)
        assert r.duals[above.row] == pytest.approx(0.0)

    def test_range_dual_consistent_with_one_sided_row(self):
        def build(ranged: bool):
            m = Model()
            x = m.add_var(ub=100.0)
            y = m.add_var(ub=100.0)
            if ranged:
                _, con = self._box(m, x + y, -1000.0, 7.0)
            else:
                con = m.add_constr(x + y <= 7.0)
            m.add_constr(x <= 5.0)
            m.set_objective(3.0 * x + 1.0 * y, sense="max")
            return m.solve(), con

        ranged, rcon = build(True)
        plain, pcon = build(False)
        assert ranged.objective == pytest.approx(plain.objective)
        assert ranged.duals[rcon.row] == pytest.approx(plain.duals[pcon.row])

    def test_strict_interior_range_has_zero_dual(self):
        m = Model()
        x = m.add_var(ub=2.0)
        below, above = self._box(m, x, -50.0, 50.0)
        m.set_objective(x.to_expr(), sense="max")
        r = m.solve()
        assert r.objective == pytest.approx(2.0)
        assert r.duals[below.row] == pytest.approx(0.0)
        assert r.duals[above.row] == pytest.approx(0.0)

    def test_dual_lp_strong_duality_with_ranges(self):
        # max c'x s.t. lo <= Ax <= hi: at the optimum, objective ==
        # sum over binding rows of dual * active bound (all var bounds
        # slack here), a direct consequence of strong duality.
        m = Model()
        x = m.add_var(ub=1000.0)
        y = m.add_var(ub=1000.0)
        r1 = self._box(m, x + y, 1.0, 10.0)
        r2 = self._box(m, x - y, -4.0, 4.0)
        m.set_objective(2.0 * x + y, sense="max")
        r = m.solve()
        assert r.status == SolveStatus.OPTIMAL
        total = sum(r.duals[con.row] * con.rhs() for con in r1 + r2)
        assert total == pytest.approx(r.objective)


class TestSolveStats:
    def test_lp_stats_fields(self):
        m = Model()
        x, y = m.add_var(ub=4.0), m.add_var(ub=4.0)
        m.add_constr(x + y <= 6.0)
        m.set_objective(x + y, sense="max")
        stats = m.solve().stats
        assert (stats.rows, stats.cols, stats.nnz) == (1, 2, 2)
        assert stats.num_integer == 0
        assert stats.backend == "linprog"
        assert stats.dual_mode == "lp"
        assert stats.max_abs_coefficient == pytest.approx(1.0)
        assert stats.max_abs_rhs == pytest.approx(6.0)
        assert stats.build_seconds >= 0.0
        assert stats.compile_seconds >= 0.0
        assert stats.incremental is False

    def test_milp_stats(self):
        m = Model()
        z = m.add_var(binary=True)
        m.add_constr(7.0 * z.to_expr() <= 20.0)
        m.set_objective(z.to_expr(), sense="max")
        stats = m.solve().stats
        assert stats.backend == "milp"
        assert stats.num_integer == 1
        assert stats.dual_mode == "none"
        assert stats.max_abs_coefficient == pytest.approx(7.0)

    def test_to_dict_and_summary(self):
        m = Model()
        x = m.add_var(ub=1.0)
        m.set_objective(x.to_expr(), sense="max")
        stats = m.solve().stats
        d = stats.to_dict()
        assert d["backend"] == "linprog"
        assert d["compile_cached"] is False
        assert "linprog" in stats.summary()
        assert stats.total_seconds == pytest.approx(
            stats.compile_seconds + stats.solve_seconds
        )


class TestDualSignConventions:
    """Duals are reported in the model's own sense: improving the
    objective by relaxing a binding row always yields the documented
    sign, for max and min alike."""

    def test_max_binding_le_dual_is_nonnegative(self):
        m = Model()
        x = m.add_var()
        con = m.add_constr(x <= 3.0)
        m.set_objective(5.0 * x, sense="max")
        assert m.solve().duals[con.row] == pytest.approx(5.0)

    def test_max_binding_ge_dual_is_nonpositive(self):
        m = Model()
        x = m.add_var(ub=10.0)
        con = m.add_constr(x >= 2.0)
        m.set_objective(-3.0 * x, sense="max")
        assert m.solve().duals[con.row] == pytest.approx(-3.0)

    def test_min_binding_ge_dual_is_nonnegative(self):
        m = Model()
        x = m.add_var(ub=10.0)
        con = m.add_constr(x >= 2.0)
        m.set_objective(3.0 * x, sense="min")
        assert m.solve().duals[con.row] == pytest.approx(3.0)

    def test_min_binding_le_dual_is_nonpositive(self):
        m = Model()
        x = m.add_var()
        con = m.add_constr(x <= 3.0)
        m.set_objective(-2.0 * x, sense="min")
        assert m.solve().duals[con.row] == pytest.approx(-2.0)

    def test_slack_rows_report_zero_duals(self):
        m = Model()
        x = m.add_var(ub=1.0)
        loose = m.add_constr(x <= 50.0)
        m.set_objective(x.to_expr(), sense="max")
        assert m.solve().duals[loose.row] == pytest.approx(0.0)
