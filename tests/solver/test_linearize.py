"""Unit and property tests for the linearization gadgets."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ModelingError
from repro.solver import Model, SolveStatus, quicksum
from repro.solver.expr import Var
from repro.solver.linearize import indicator_geq, product_binary_bounded


class TestIndicatorGeq:
    def _indicator_model(self, n_bits, threshold, force_sum):
        """Build a model where the indicator watches a sum of binaries."""
        m = Model()
        bits = [m.add_var(binary=True) for _ in range(n_bits)]
        m.add_constr(quicksum(bits) == force_sum)
        z = indicator_geq(
            m, quicksum(bits), threshold, expr_lb=0, expr_ub=n_bits, name="z"
        )
        m.set_objective(z, sense="max")
        r_max = m.solve().require_ok()
        m.set_objective(z, sense="min")
        r_min = m.solve().require_ok()
        # For the indicator to be well-defined, min and max must agree.
        return r_max.value(z), r_min.value(z)

    @pytest.mark.parametrize("total,threshold,expected", [
        (0, 1, 0), (1, 1, 1), (2, 1, 1), (3, 2, 1), (1, 2, 0), (2, 3, 0),
    ])
    def test_indicator_is_forced_both_ways(self, total, threshold, expected):
        hi, lo = self._indicator_model(4, threshold, total)
        assert hi == pytest.approx(expected)
        assert lo == pytest.approx(expected)

    def test_never_passing_threshold_pins_zero(self):
        m = Model()
        b = m.add_var(binary=True)
        z = indicator_geq(m, b.to_expr(), 5, expr_lb=0, expr_ub=1)
        m.set_objective(z, sense="max")
        assert m.solve().value(z) == pytest.approx(0.0)

    def test_always_passing_threshold_pins_one(self):
        m = Model()
        b = m.add_var(binary=True)
        z = indicator_geq(m, b + 3, 2, expr_lb=3, expr_ub=4)
        m.set_objective(z, sense="min")
        assert m.solve().value(z) == pytest.approx(1.0)

    def test_non_integral_threshold_rejected(self):
        m = Model()
        b = m.add_var(binary=True)
        with pytest.raises(ModelingError):
            indicator_geq(m, b.to_expr(), 0.5, expr_lb=0, expr_ub=1)

    def test_inverted_bounds_rejected(self):
        m = Model()
        b = m.add_var(binary=True)
        with pytest.raises(ModelingError):
            indicator_geq(m, b.to_expr(), 1, expr_lb=2, expr_ub=1)

    @settings(max_examples=25, deadline=None)
    @given(
        n_bits=st.integers(min_value=1, max_value=6),
        threshold=st.integers(min_value=1, max_value=6),
        data=st.data(),
    )
    def test_indicator_property(self, n_bits, threshold, data):
        total = data.draw(st.integers(min_value=0, max_value=n_bits))
        hi, lo = self._indicator_model(n_bits, threshold, total)
        expected = 1.0 if total >= threshold else 0.0
        assert hi == pytest.approx(expected)
        assert lo == pytest.approx(expected)


class TestProduct:
    def _product_value(self, z_fixed, x_fixed, ub):
        m = Model()
        z = m.add_var(binary=True)
        x = m.add_var(ub=ub)
        m.add_constr(z.to_expr() == z_fixed)
        m.add_constr(x.to_expr() == x_fixed)
        w = product_binary_bounded(m, z, x, factor_ub=ub)
        m.set_objective(w, sense="max")
        hi = m.solve().require_ok().value(w)
        m.set_objective(w, sense="min")
        lo = m.solve().require_ok().value(w)
        return hi, lo

    @pytest.mark.parametrize("z,x", [(0, 0.0), (0, 3.5), (1, 0.0), (1, 3.5), (1, 5.0)])
    def test_product_forced_exactly(self, z, x):
        hi, lo = self._product_value(z, x, ub=5.0)
        assert hi == pytest.approx(z * x)
        assert lo == pytest.approx(z * x)

    def test_requires_binary(self):
        m = Model()
        k = m.add_var(integer=True, ub=3)
        x = m.add_var(ub=1)
        with pytest.raises(ModelingError):
            product_binary_bounded(m, k, x, factor_ub=1.0)

    def test_requires_finite_bound(self):
        m = Model()
        z = m.add_var(binary=True)
        x = m.add_var()
        with pytest.raises(ModelingError):
            product_binary_bounded(m, z, x, factor_ub=float("inf"))

    @settings(max_examples=20, deadline=None)
    @given(
        z=st.integers(min_value=0, max_value=1),
        x=st.floats(min_value=0.0, max_value=9.0, allow_nan=False),
    )
    def test_product_property(self, z, x):
        hi, lo = self._product_value(z, x, ub=9.0)
        assert hi == pytest.approx(z * x, abs=1e-6)
        assert lo == pytest.approx(z * x, abs=1e-6)


class TestGroupHelpers:
    """Group constraints on failure binaries. SRLG fate-sharing is one
    binary per group (``FailureEncoding``); a count limit is one row."""

    @staticmethod
    def _encoding(members, non_failable=(), **config_kwargs):
        from repro import RahaConfig, Srlg
        from repro.core.encodings import FailureEncoding
        from repro.network.builder import from_edges
        from repro.network.srlg import attach_srlg
        from repro.paths import PathSet

        topo = from_edges([
            ("a", "b", 10, 2), ("b", "d", 10), ("a", "c", 6), ("c", "d", 6),
        ], failure_probability=0.1)
        if members:
            srlg = Srlg(name="conduit")
            for src, dst, idx in members:
                srlg.add(src, dst, idx)
            attach_srlg(topo, srlg)
        paths = PathSet.k_shortest(topo, [("a", "d")], num_primary=1,
                                   num_backup=1)
        config = RahaConfig(demand_bounds={("a", "d"): (0.0, 20.0)},
                            **config_kwargs)
        model = Model("enc")
        return model, FailureEncoding(
            model=model, topology=topo, paths=paths, config=config,
            non_failable_lags=frozenset(non_failable),
        )

    MEMBERS = [("a", "b", 0), ("a", "b", 1), ("b", "d", 0), ("a", "c", 0)]

    def _member_bits(self, enc):
        return [enc.link_down[((s, d), i)] for s, d, i in self.MEMBERS]

    def test_force_all_or_none(self):
        m, enc = self._encoding(self.MEMBERS)
        bits = self._member_bits(enc)
        m.add_constr(bits[0].to_expr() == 1)
        m.set_objective(quicksum(bits), sense="min")
        r = m.solve().require_ok()
        assert r.values(bits) == pytest.approx([1, 1, 1, 1])

    def test_force_all_or_none_zero(self):
        m, enc = self._encoding(self.MEMBERS)
        bits = self._member_bits(enc)
        m.add_constr(bits[2].to_expr() == 0)
        m.set_objective(quicksum(bits), sense="max")
        assert m.solve().objective == pytest.approx(0.0)

    def test_force_single_is_noop(self):
        # The group's other member cannot fail, so one binary is left.
        banned = [("a", "b")]
        alone, enc = self._encoding([("a", "b", 0), ("a", "c", 0)], banned)
        plain, _ = self._encoding([], banned)
        assert isinstance(enc.link_down[(("a", "c"), 0)], Var)
        assert alone.num_constraints == plain.num_constraints
        assert alone.num_vars == plain.num_vars

    def test_exactly_one(self):
        m, enc = self._encoding([], max_failures=1)
        bits = [u for u in enc.link_down.values() if isinstance(u, Var)]
        assert len(bits) == 5
        m.set_objective(quicksum(bits), sense="max")
        assert m.solve().objective == pytest.approx(1.0)

    def test_exactly_one_empty_rejected(self):
        m = Model()
        m.add_var(binary=True)
        m.add_constr(quicksum([]) == 1)
        assert m.solve().status is SolveStatus.INFEASIBLE


class TestDegenerateIndicatorPaths:
    """The pinned branches must add *only* the pin row (no big-M rows
    with infinite or degenerate M), and stay correct at the boundaries
    ``expr_ub == threshold`` / ``expr_lb == threshold``."""

    def test_pin_to_zero_adds_single_row(self):
        m = Model()
        b = m.add_var(binary=True)
        before = m.num_constraints
        z = indicator_geq(m, b.to_expr(), 5, expr_lb=0, expr_ub=1)
        assert m.num_constraints == before + 1
        m.add_constr(b.to_expr() == 1)
        m.set_objective(z, sense="max")
        assert m.solve().require_ok().value(z) == pytest.approx(0.0)

    def test_pin_to_one_adds_single_row(self):
        m = Model()
        b = m.add_var(binary=True)
        before = m.num_constraints
        z = indicator_geq(m, b + 3, 2, expr_lb=3, expr_ub=4)
        assert m.num_constraints == before + 1
        m.set_objective(z, sense="min")
        assert m.solve().require_ok().value(z) == pytest.approx(1.0)

    def test_boundary_ub_equals_threshold_not_pinned(self):
        # expr can just reach the threshold: the big-M pair must still
        # tie z to the test rather than pinning it.
        m = Model()
        bits = [m.add_var(binary=True) for _ in range(2)]
        m.add_constr(quicksum(bits) == 2)
        z = indicator_geq(m, quicksum(bits), 2, expr_lb=0, expr_ub=2)
        m.set_objective(z, sense="min")
        assert m.solve().require_ok().value(z) == pytest.approx(1.0)

    def test_boundary_lb_equals_threshold_pins_one(self):
        m = Model()
        b = m.add_var(binary=True)
        z = indicator_geq(m, b + 2, 2, expr_lb=2, expr_ub=3)
        m.add_constr(b.to_expr() == 0)
        m.set_objective(z, sense="min")
        assert m.solve().require_ok().value(z) == pytest.approx(1.0)

    def test_pinned_zero_conflicts_with_forced_one(self):
        # The pin is a hard row: forcing z = 1 anyway must be infeasible,
        # proving the degenerate path emits a real constraint.
        m = Model()
        b = m.add_var(binary=True)
        z = indicator_geq(m, b.to_expr(), 5, expr_lb=0, expr_ub=1)
        m.add_constr(z.to_expr() == 1)
        m.set_objective(z, sense="max")
        assert not m.solve().status.ok


class TestDegenerateProductPaths:
    def test_factor_at_its_upper_bound(self):
        # factor == factor_ub makes the :ge row tight; w must equal ub.
        m = Model()
        z = m.add_var(binary=True)
        x = m.add_var(ub=7.0)
        m.add_constr(z.to_expr() == 1)
        m.add_constr(x.to_expr() == 7.0)
        w = product_binary_bounded(m, z, x, factor_ub=7.0)
        m.set_objective(w, sense="min")
        assert m.solve().require_ok().value(w) == pytest.approx(7.0)

    def test_zero_upper_bound_pins_product(self):
        m = Model()
        z = m.add_var(binary=True)
        x = m.add_var(ub=0.0)
        w = product_binary_bounded(m, z, x, factor_ub=0.0)
        m.add_constr(z.to_expr() == 1)
        m.set_objective(w, sense="max")
        assert m.solve().require_ok().value(w) == pytest.approx(0.0)

    def test_expression_factor_at_bound(self):
        # factor may be an expression, not a Var; drive it to the bound.
        m = Model()
        z = m.add_var(binary=True)
        x = m.add_var(ub=2.0)
        y = m.add_var(ub=2.0)
        m.add_constr(x + y == 4.0)
        m.add_constr(z.to_expr() == 1)
        w = product_binary_bounded(m, z, x + y, factor_ub=4.0)
        m.set_objective(w, sense="min")
        assert m.solve().require_ok().value(w) == pytest.approx(4.0)

    def test_negative_bound_rejected(self):
        m = Model()
        z = m.add_var(binary=True)
        x = m.add_var(ub=1.0)
        with pytest.raises(ModelingError):
            product_binary_bounded(m, z, x, factor_ub=-1.0)
