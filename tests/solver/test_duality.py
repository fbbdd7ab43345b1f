"""Tests for InnerLP: KKT embedding exactness and verification."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ModelingError, VerificationError
from repro.solver import LinExpr, Model
from repro.solver.duality import InnerLP

INF = float("inf")


def build_tracking_inner(b_fixed):
    """Host maximizes (C - inner optimum); inner is max x s.t. x <= b."""
    host = Model()
    b = host.add_var(lb=0, ub=10, name="b")
    host.add_constr(b.to_expr() == b_fixed)
    inner = InnerLP(host, "inner", sense="max")
    x = inner.add_var(obj_coef=1.0, value_bound=10.0, name="x")
    inner.add_rows([(x.to_expr(), b, "<=", 1.0, 10.0, "")])
    inner.embed_kkt()
    return host, inner, b, x


class TestKktTracksOptimum:
    @pytest.mark.parametrize("b_fixed", [0.0, 2.5, 10.0])
    def test_inner_pinned_to_optimum_even_when_host_prefers_less(self, b_fixed):
        host, inner, b, x = build_tracking_inner(b_fixed)
        # The host would love x = 0 (it maximizes -x), but KKT forces x = b.
        host.set_objective(-inner.objective_expr(), sense="max")
        r = host.solve().require_ok()
        assert r.value(x) == pytest.approx(b_fixed, abs=1e-6)
        inner.verify_optimality(r)

    @pytest.mark.parametrize("b_fixed", [0.0, 3.0])
    def test_inner_pinned_even_when_host_prefers_more(self, b_fixed):
        host, inner, b, x = build_tracking_inner(b_fixed)
        host.set_objective(inner.objective_expr(), sense="max")
        r = host.solve().require_ok()
        assert r.value(x) == pytest.approx(b_fixed, abs=1e-6)


class TestStackelbergGame:
    def test_adversary_picks_worst_parameter(self):
        """Outer picks b in [1, 4]; inner max x s.t. x <= b and x <= 3.

        Outer maximizes (3 - inner): inner optimum is min(b, 3), so the
        adversary should pick b = 1 yielding a gap of 2.
        """
        host = Model()
        b = host.add_var(lb=1, ub=4, name="b")
        inner = InnerLP(host, "inner", sense="max")
        x = inner.add_var(obj_coef=1.0, value_bound=4.0, name="x")
        inner.add_rows([
            (x.to_expr(), b, "<=", 1.0, 4.0, ""),
            (x.to_expr(), 3, "<=", 1.0, 4.0, ""),
        ])
        inner.embed_kkt()
        host.set_objective(3 - inner.objective_expr(), sense="max")
        r = host.solve().require_ok()
        assert r.objective == pytest.approx(2.0, abs=1e-6)
        assert r.value(b) == pytest.approx(1.0, abs=1e-6)
        inner.verify_optimality(r)

    def test_two_commodity_capacity_game(self):
        """Adversary splits capacity c1 + c2 = 4 to minimize a 2-flow max.

        Inner: max f1 + f2 s.t. f1 <= c1, f2 <= c2, f1 <= 1, f2 <= 10.
        Optimal adversary gives everything to the capped flow: c1 = 4,
        inner optimum = min(4,1) + 0 = 1.
        """
        host = Model()
        c1 = host.add_var(lb=0, ub=4, name="c1")
        c2 = host.add_var(lb=0, ub=4, name="c2")
        host.add_constr(c1 + c2 == 4)
        inner = InnerLP(host, "net", sense="max")
        f1 = inner.add_var(obj_coef=1.0, value_bound=4.0, name="f1")
        f2 = inner.add_var(obj_coef=1.0, value_bound=4.0, name="f2")
        inner.add_rows([
            (f1.to_expr(), c1, "<=", 1.0, 4.0, ""),
            (f2.to_expr(), c2, "<=", 1.0, 4.0, ""),
            (f1.to_expr(), 1, "<=", 1.0, 4.0, ""),
            (f2.to_expr(), 10, "<=", 1.0, 10.0, ""),
        ])
        inner.embed_kkt()
        host.set_objective(-inner.objective_expr(), sense="max")
        r = host.solve().require_ok()
        assert r.value(f1 + f2) == pytest.approx(1.0, abs=1e-6)
        assert r.value(c1) == pytest.approx(4.0, abs=1e-6)
        inner.verify_optimality(r)


class TestMinimizationInner:
    def test_min_inner_tracks_its_minimum(self):
        """Inner: min u s.t. u >= load/cap (an MLU-shaped problem)."""
        host = Model()
        load = host.add_var(lb=0, ub=8, name="load")
        host.add_constr(load.to_expr() == 6)
        inner = InnerLP(host, "mlu", sense="min")
        u = inner.add_var(obj_coef=1.0, value_bound=10.0, name="u")
        # u * 2 >= load  <=>  -2u <= -load
        inner.add_rows([(-2 * u, -load, "<=", 1.0, 30.0, "")])
        inner.embed_kkt()
        # Host would prefer a huge u (it maximizes +u), KKT pins u = 3.
        host.set_objective(inner.objective_expr(), sense="max")
        r = host.solve().require_ok()
        assert r.value(u) == pytest.approx(3.0, abs=1e-6)
        inner.verify_optimality(r)

    def test_equality_rows_get_free_duals(self):
        host = Model()
        d = host.add_var(lb=0, ub=5, name="d")
        host.add_constr(d.to_expr() == 4)
        inner = InnerLP(host, "eq", sense="min")
        u = inner.add_var(obj_coef=1.0, value_bound=20.0, name="u")
        f = inner.add_var(obj_coef=0.0, value_bound=20.0, name="f")
        inner.add_rows([
            (f.to_expr(), d, "==", 5.0, INF, ""),
            (f - 2 * u, 0, "<=", 5.0, 60.0, ""),
        ])
        inner.embed_kkt()
        host.set_objective(inner.objective_expr(), sense="max")
        r = host.solve().require_ok()
        assert r.value(u) == pytest.approx(2.0, abs=1e-6)
        inner.verify_optimality(r)


class TestValidation:
    def test_infinite_value_bound_rejected(self):
        host = Model()
        inner = InnerLP(host, "i", sense="max")
        with pytest.raises(ModelingError):
            inner.add_var(obj_coef=1.0, value_bound=float("inf"))

    def test_missing_slack_bound_rejected_at_embed(self):
        host = Model()
        b = host.add_var(ub=1)
        inner = InnerLP(host, "i", sense="max")
        x = inner.add_var(obj_coef=1.0, value_bound=1.0)
        inner.add_rows([(x.to_expr(), b, "<=", 1.0, INF, "")])  # no slack bound
        with pytest.raises(ModelingError):
            inner.embed_kkt()

    def test_double_embed_rejected(self):
        host = Model()
        inner = InnerLP(host, "i", sense="max")
        x = inner.add_var(obj_coef=1.0, value_bound=1.0)
        inner.add_rows([(x.to_expr(), 1, "<=", 1.0, 1.0, "")])
        inner.embed_kkt()
        with pytest.raises(ModelingError):
            inner.embed_kkt()

    def test_add_constr_after_embed_rejected(self):
        host = Model()
        inner = InnerLP(host, "i", sense="max")
        x = inner.add_var(obj_coef=1.0, value_bound=1.0)
        inner.add_rows([(x.to_expr(), 1, "<=", 1.0, 1.0, "")])
        inner.embed_kkt()
        with pytest.raises(ModelingError):
            inner.add_rows([(x.to_expr(), 2, "<=", 1.0, 2.0, "")])

    def test_bad_sense_rejected(self):
        with pytest.raises(ModelingError):
            InnerLP(Model(), "i", sense="argmax")

    def test_verification_catches_small_big_m(self):
        """A deliberately wrong dual bound must be caught, not ignored."""
        host = Model()
        b = host.add_var(lb=0, ub=10, name="b")
        host.add_constr(b.to_expr() == 10)
        inner = InnerLP(host, "bad", sense="max")
        # Objective coefficient 5 means the true dual is 5, but we claim
        # the dual bound is 1: complementarity can then hold with the
        # constraint slack *and* a dual of <= 1, breaking optimality.
        x = inner.add_var(obj_coef=5.0, value_bound=10.0, name="x")
        inner.add_rows([(x.to_expr(), b, "<=", 1.0, 10.0, "")])
        inner.embed_kkt()
        host.set_objective(-inner.objective_expr(), sense="max")
        r = host.solve()
        if r.status.ok:
            with pytest.raises(VerificationError):
                inner.verify_optimality(r)


class TestResolveAt:
    def test_resolve_matches_embedded(self):
        host, inner, b, x = build_tracking_inner(7.0)
        host.set_objective(-inner.objective_expr(), sense="max")
        r = host.solve().require_ok()
        lp = inner.resolve_at(r)
        assert lp.objective == pytest.approx(7.0, abs=1e-6)

    @settings(max_examples=15, deadline=None)
    @given(b=st.floats(min_value=0.0, max_value=10.0, allow_nan=False))
    def test_kkt_equals_lp_for_any_parameter(self, b):
        host, inner, _, x = build_tracking_inner(b)
        host.set_objective(-inner.objective_expr(), sense="max")
        r = host.solve().require_ok()
        assert inner.verify_optimality(r) == pytest.approx(b, abs=1e-5)


class TestAddRows:
    """``add_rows`` posts ``lhs - rhs SENSE 0`` to the host and keeps
    ``rhs`` (outer terms and constant) for the KKT rows."""

    @staticmethod
    def _arrays(model):
        import numpy as np

        compiled, _ = model._ensure_compiled()
        return [np.asarray(a).tobytes() for a in (
            compiled.c, compiled.a.data, compiled.a.indices,
            compiled.a.indptr, compiled.row_lb, compiled.row_ub,
            compiled.var_lb, compiled.var_ub, compiled.integrality)]

    @staticmethod
    def _host():
        host = Model("h")
        d = host.add_var(lb=0, ub=7, name="d")
        u = host.add_var(binary=True, name="u")
        return host, d, u

    def test_same_host_model_and_kkt_data_as_add_constr(self):
        host, d, u = self._host()
        inner = InnerLP(host, "inner", sense="max")
        x = inner.add_var(obj_coef=1.0, value_bound=7.0, name="x")
        y = inner.add_var(obj_coef=2.0, value_bound=7.0, name="y")
        cap = LinExpr({u.index: -4.0}, 6.5)  # a variable capacity 6.5 - 4u
        inner.add_rows([
            (LinExpr({x.index: 1.0, y.index: 1.0}), d, "<=", 1.0, 7.0,
             "dem"),
            (LinExpr({y.index: 1.0}), cap, "<=", 1.0, 6.5, "cap"),
            (LinExpr({x.index: 1.0, y.index: -1.0}), 0.0, "==", 2.0, INF,
             "tie"),
            (LinExpr({x.index: 1.0}), 3, "<=", 1.0, 3.0, "gate"),
        ])
        plain, pd, pu = self._host()
        px, py = plain.add_var(name="x"), plain.add_var(name="y")
        plain.add_constr(px + py <= pd)
        plain.add_constr(py <= 6.5 - 4 * pu)
        plain.add_constr(px == py)
        plain.add_constr(px <= 3)
        assert self._arrays(host) == self._arrays(plain)
        assert [(r.rhs.terms, r.rhs.constant) for r in inner._rows] == [
            ({d.index: 1.0}, 0.0), ({u.index: -4.0}, 6.5), ({}, 0.0),
            ({}, 3.0)]
        assert [r.name for r in inner._rows] == ["dem", "cap", "tie", "gate"]

    def test_rejects_a_side_with_the_wrong_variables(self):
        from repro.solver import LinExpr

        host = Model()
        d = host.add_var(ub=5, name="d")
        inner = InnerLP(host, "inner")
        x = inner.add_var(obj_coef=1.0, value_bound=5.0)
        with pytest.raises(ModelingError, match="right-hand side"):
            inner.add_rows([(LinExpr({x.index: 1.0}), x, "<=", 1.0, 5.0,
                             "bad")])
        with pytest.raises(ModelingError, match="left-hand side"):
            inner.add_rows([(LinExpr({d.index: 1.0}), 1.0, "<=", 1.0, 5.0,
                             "bad")])
        with pytest.raises(ModelingError, match="<= or =="):
            inner.add_rows([(LinExpr({x.index: 1.0}), d, ">=", 1.0, 5.0,
                             "bad")])
        assert host.num_constraints == 0
