"""Unit tests for Model compilation and HiGHS dispatch."""

import numpy as np
import pytest

from repro.exceptions import ModelingError, SolverError
from repro.solver import Model, SolveStatus, quicksum


class TestLP:
    def test_basic_max(self):
        m = Model()
        x = m.add_var(ub=4)
        y = m.add_var(ub=4)
        m.add_constr(x + y <= 6)
        m.set_objective(x + 2 * y, sense="max")
        r = m.solve()
        assert r.status == SolveStatus.OPTIMAL
        assert r.objective == pytest.approx(10.0)
        assert r.value(y) == pytest.approx(4.0)

    def test_basic_min(self):
        m = Model()
        x = m.add_var(lb=1)
        y = m.add_var(lb=2)
        m.add_constr(x + y >= 5)
        m.set_objective(x + 3 * y, sense="min")
        r = m.solve()
        assert r.objective == pytest.approx(3 + 2 * 3)

    def test_objective_constant_is_reported(self):
        m = Model()
        x = m.add_var(ub=1)
        m.set_objective(x + 10, sense="max")
        assert m.solve().objective == pytest.approx(11.0)

    def test_equality_constraint(self):
        m = Model()
        x = m.add_var()
        y = m.add_var()
        m.add_constr(x + y == 7)
        m.set_objective(x - y, sense="max")
        r = m.solve()
        assert r.value(x) == pytest.approx(7.0)
        assert r.value(y) == pytest.approx(0.0)

    def test_infeasible_status(self):
        m = Model()
        x = m.add_var(ub=1)
        m.add_constr(x >= 2)
        m.set_objective(x, sense="max")
        r = m.solve()
        assert r.status == SolveStatus.INFEASIBLE
        assert not r.has_solution

    def test_unbounded_status(self):
        m = Model()
        x = m.add_var()
        m.set_objective(x, sense="max")
        r = m.solve()
        assert r.status in (SolveStatus.UNBOUNDED, SolveStatus.ERROR)

    def test_require_ok_raises_on_infeasible(self):
        m = Model()
        x = m.add_var(ub=0)
        m.add_constr(x >= 1)
        m.set_objective(x, sense="min")
        with pytest.raises(SolverError):
            m.solve().require_ok()

    def test_duals_max_le(self):
        # max x + 2y s.t. x + y <= 6: shadow price of the capacity is 2
        # only when y is unconstrained; with both at large ubs it is 1..2.
        m = Model()
        x = m.add_var(ub=100)
        y = m.add_var(ub=4)
        con = m.add_constr(x + y <= 6)
        m.set_objective(x + 2 * y, sense="max")
        r = m.solve()
        idx = m.constraints.index(con)
        assert r.duals[idx] == pytest.approx(1.0)

    def test_duals_min_ge(self):
        m = Model()
        x = m.add_var()
        con = m.add_constr(x >= 3)
        m.set_objective(2 * x, sense="min")
        r = m.solve()
        idx = m.constraints.index(con)
        # d(min obj)/d(rhs) = 2
        assert r.duals[idx] == pytest.approx(2.0)

    def test_duals_equality(self):
        m = Model()
        x = m.add_var()
        con = m.add_constr(x == 4)
        m.set_objective(5 * x, sense="min")
        r = m.solve()
        assert r.duals[m.constraints.index(con)] == pytest.approx(5.0)

    def test_no_constraints_lp(self):
        m = Model()
        x = m.add_var(ub=3)
        m.set_objective(x, sense="max")
        assert m.solve().objective == pytest.approx(3.0)


class TestMILP:
    def test_binary_fixed_charge(self):
        m = Model()
        z = m.add_var(binary=True)
        w = m.add_var(ub=10)
        m.add_constr(w <= 10 * z.to_expr())
        m.set_objective(w - 3 * z, sense="max")
        r = m.solve()
        assert r.status == SolveStatus.OPTIMAL
        assert r.objective == pytest.approx(7.0)
        assert r.value(z) == pytest.approx(1.0)

    def test_integer_rounding_matters(self):
        m = Model()
        k = m.add_var(integer=True, ub=10)
        m.add_constr(2 * k <= 7)
        m.set_objective(k, sense="max")
        r = m.solve()
        assert r.value(k) == pytest.approx(3.0)

    def test_knapsack(self):
        values = [6, 5, 4, 3]
        weights = [4, 3, 2, 2]
        m = Model()
        z = [m.add_var(binary=True) for _ in values]
        m.add_constr(quicksum(w * zi for w, zi in zip(weights, z)) <= 6)
        m.set_objective(quicksum(v * zi for v, zi in zip(values, z)), sense="max")
        r = m.solve()
        assert r.objective == pytest.approx(10.0)  # items 0+2 or 1+2+...

    def test_milp_infeasible(self):
        m = Model()
        z = m.add_var(binary=True)
        m.add_constr(z.to_expr() >= 2)
        m.set_objective(z, sense="max")
        assert m.solve().status == SolveStatus.INFEASIBLE

    def test_no_duals_for_milp(self):
        m = Model()
        z = m.add_var(binary=True)
        m.add_constr(z.to_expr() <= 1)
        m.set_objective(z, sense="max")
        assert m.solve().duals is None

    def test_milp_objective_constant(self):
        m = Model()
        z = m.add_var(binary=True)
        m.set_objective(z + 100, sense="max")
        assert m.solve().objective == pytest.approx(101.0)


class TestModelApi:
    def test_add_vars_dict(self):
        m = Model()
        d = m.add_vars(["a", "b", "c"], ub=2.0, name="f")
        assert set(d) == {"a", "b", "c"}
        assert d["b"].name == "f[b]"

    def test_is_mip_flag(self):
        m = Model()
        assert not m.is_mip
        m.add_var(binary=True)
        assert m.is_mip
        assert m.num_integer_vars == 1

    def test_reject_non_constraint(self):
        m = Model()
        with pytest.raises(ModelingError):
            m.add_constr(True)  # comparison folded to a bool

    def test_reject_bad_sense(self):
        m = Model()
        x = m.add_var()
        with pytest.raises(ModelingError):
            m.set_objective(x, sense="maximize")

    def test_value_of_expression(self):
        m = Model()
        x = m.add_var(ub=2)
        m.set_objective(x, sense="max")
        r = m.solve()
        assert r.value(3 * x + 1) == pytest.approx(7.0)
        assert r.value(2.5) == 2.5

    def test_value_without_solution_raises(self):
        m = Model()
        x = m.add_var(ub=1)
        m.add_constr(x >= 5)
        m.set_objective(x, sense="max")
        r = m.solve()
        with pytest.raises(ValueError):
            r.value(x)

    def test_repr_mentions_size(self):
        m = Model("sample")
        m.add_var()
        text = repr(m)
        assert "sample" in text
        assert "1 vars" in text


class TestTimeLimit:
    def test_time_limit_accepted_on_lp(self):
        m = Model()
        x = m.add_var(ub=1)
        m.set_objective(x, sense="max")
        r = m.solve(time_limit=10.0)
        assert r.status == SolveStatus.OPTIMAL

    def test_time_limit_accepted_on_milp(self):
        m = Model()
        z = m.add_var(binary=True)
        m.set_objective(z, sense="max")
        r = m.solve(time_limit=10.0, mip_rel_gap=0.0)
        assert r.status == SolveStatus.OPTIMAL
        assert r.solve_seconds < 10.0


class TestNumerics:
    def test_large_model_roundtrip(self):
        rng = np.random.default_rng(7)
        m = Model()
        xs = [m.add_var(ub=1.0) for _ in range(200)]
        weights = rng.uniform(0.1, 1.0, size=200)
        m.add_constr(quicksum(w * x for w, x in zip(weights, xs)) <= 10.0)
        m.set_objective(quicksum(xs), sense="max")
        r = m.solve()
        assert r.status == SolveStatus.OPTIMAL
        used = sum(w * r.value(x) for w, x in zip(weights, xs))
        assert used <= 10.0 + 1e-6

    def test_negative_lower_bounds(self):
        m = Model()
        x = m.add_var(lb=-5, ub=5)
        m.set_objective(x, sense="min")
        assert m.solve().objective == pytest.approx(-5.0)


def _nan_via_resolve_with():
    m = Model()
    x, y = m.add_var(ub=10), m.add_var(ub=5)
    cap = m.add_constr(x + y <= 8)
    m.set_objective(x + 2 * y, sense="max")
    return lambda: m.resolve_with(rhs_overrides={cap: float("nan")})


def _nan_via_add_var():
    m = Model()
    x, y = m.add_var(ub=float("nan")), m.add_var(ub=5)
    m.add_constr(x + y <= 8)
    m.set_objective(x + 2 * y, sense="max")
    return m.solve


def _nan_via_add_constr():
    m = Model()
    x, y = m.add_var(ub=10), m.add_var(ub=5)
    m.add_constr(x + y <= float("nan"))
    m.set_objective(x + 2 * y, sense="max")
    return m.solve


def _nan_via_add_constrs_batch():
    m = Model()
    x, y = m.add_var(ub=10), m.add_var(ub=5)
    m.add_constrs_batch([0, 2], [x.index, y.index], rhs=[float("nan")])
    m.set_objective(x + 2 * y, sense="max")
    return m.solve


@pytest.mark.parametrize("make_solve", [
    _nan_via_resolve_with, _nan_via_add_var, _nan_via_add_constr,
    _nan_via_add_constrs_batch,
], ids=["resolve_with", "add_var", "add_constr", "add_constrs_batch"])
def test_nan_bound_raises_instead_of_solving(make_solve):
    # A NaN bound passes every ``lb > ub`` check; it used to reach the
    # solver as a dropped row (OPTIMAL 20.0) or a free column (UNBOUNDED).
    with pytest.raises(ModelingError, match="NaN"):
        make_solve()()


def test_infinite_bounds_still_solve():
    m = Model()
    x = m.add_var(lb=-float("inf"), ub=float("inf"))
    cap = m.add_constr(x <= 3)
    m.add_range_constr(x, -float("inf"), float("inf"))
    m.set_objective(x.to_expr(), sense="max")
    assert m.solve().objective == 3.0
    assert m.resolve_with({cap: float("inf")}).status is SolveStatus.UNBOUNDED
