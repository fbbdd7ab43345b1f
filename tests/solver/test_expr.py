"""Unit tests for the expression algebra."""

import pytest

from repro.solver import LinExpr, Model, quicksum
from repro.solver.expr import Constraint


@pytest.fixture
def model():
    return Model("t")


class TestVar:
    def test_var_defaults(self, model):
        x = model.add_var(name="x")
        assert x.lb == 0.0
        assert x.ub == float("inf")
        assert not x.integer
        assert not x.is_binary

    def test_binary_shortcut(self, model):
        z = model.add_var(binary=True)
        assert z.is_binary
        assert z.integer
        assert (z.lb, z.ub) == (0.0, 1.0)

    def test_integer_nonbinary_is_not_binary(self, model):
        k = model.add_var(integer=True, ub=7)
        assert k.integer
        assert not k.is_binary

    def test_var_indexing_is_sequential(self, model):
        xs = [model.add_var() for _ in range(5)]
        assert [v.index for v in xs] == [0, 1, 2, 3, 4]

    def test_inverted_bounds_rejected(self, model):
        from repro.exceptions import ModelingError

        with pytest.raises(ModelingError):
            model.add_var(lb=3, ub=1)

    def test_var_hashable_and_distinct(self, model):
        x, y = model.add_var(), model.add_var()
        assert len({x, y}) == 2


class TestArithmetic:
    def test_add_vars(self, model):
        x, y = model.add_var(name="x"), model.add_var(name="y")
        e = x + y
        assert e.terms == {x.index: 1.0, y.index: 1.0}
        assert e.constant == 0.0

    def test_scalar_multiplication(self, model):
        x = model.add_var()
        e = 3 * x
        assert e.terms == {x.index: 3.0}

    def test_right_subtraction(self, model):
        x = model.add_var()
        e = 5 - x
        assert e.terms == {x.index: -1.0}
        assert e.constant == 5.0

    def test_division(self, model):
        x = model.add_var()
        e = (4 * x) / 2
        assert e.terms == {x.index: 2.0}

    def test_negation(self, model):
        x = model.add_var()
        e = -(x + 1)
        assert e.terms == {x.index: -1.0}
        assert e.constant == -1.0

    def test_cancellation_drops_term(self, model):
        x, y = model.add_var(), model.add_var()
        e = (x + y) - x
        assert x.index not in e.terms
        assert e.terms == {y.index: 1.0}

    def test_mul_by_zero_empties(self, model):
        x = model.add_var()
        e = (x + 3) * 0
        assert e.terms == {}
        assert e.constant == 0.0

    def test_expr_times_expr_rejected(self, model):
        x, y = model.add_var(), model.add_var()
        with pytest.raises(TypeError):
            _ = (x + 1) * (y + 1)

    def test_division_by_zero_rejected(self, model):
        x = model.add_var()
        with pytest.raises(TypeError):
            _ = (x + 1) / 0

    def test_immutability_of_operands(self, model):
        x, y = model.add_var(), model.add_var()
        a = x + y
        before = dict(a.terms)
        _ = a + x
        assert a.terms == before


class TestConstraints:
    def test_le_normalization(self, model):
        x = model.add_var()
        con = x + 2 <= 5
        assert isinstance(con, Constraint)
        assert con.sense == "<="
        assert con.rhs() == 3.0

    def test_ge(self, model):
        x = model.add_var()
        con = x >= 1
        assert con.sense == ">="
        assert con.rhs() == 1.0

    def test_eq_between_exprs(self, model):
        x, y = model.add_var(), model.add_var()
        con = x + 1 == y
        assert con.sense == "=="
        assert con.expr.terms == {x.index: 1.0, y.index: -1.0}

    def test_var_eq_number_builds_constraint(self, model):
        x = model.add_var()
        con = x == 3
        assert isinstance(con, Constraint)
        assert con.rhs() == 3.0

    def test_bad_sense_rejected(self, model):
        with pytest.raises(ValueError):
            Constraint(LinExpr(), "<")


class TestQuicksum:
    def test_quicksum_vars(self, model):
        xs = [model.add_var() for _ in range(4)]
        e = quicksum(xs)
        assert all(e.terms[v.index] == 1.0 for v in xs)

    def test_quicksum_mixed(self, model):
        x = model.add_var()
        e = quicksum([x, 2 * x, 3.5])
        assert e.terms == {x.index: 3.0}
        assert e.constant == 3.5

    def test_quicksum_empty(self):
        e = quicksum([])
        assert e.terms == {}
        assert e.constant == 0.0

    def test_quicksum_rejects_strings(self):
        with pytest.raises(TypeError):
            quicksum(["nope"])

    def test_quicksum_matches_builtin_sum(self, model):
        xs = [model.add_var() for _ in range(10)]
        a = quicksum(2 * x for x in xs)
        b = sum((2 * x for x in xs), LinExpr())
        assert a.terms == b.terms
        assert a.constant == b.constant


class TestWeightedQuicksum:
    """``quicksum`` over weighted items (``coef * item``), the form the
    builders use for capacity and objective sums."""

    @staticmethod
    def _mixed(model, count=2000):
        import random

        rng = random.Random(7)
        xs = [model.add_var() for _ in range(50)]
        items, coefs = [], []
        for i in range(count):
            x = rng.choice(xs)
            if i % 3:
                items.append(x)
            else:
                items.append(rng.uniform(-2, 2) * x + rng.choice(xs)
                             + rng.uniform(-1, 1))
            coefs.append(rng.choice([0.0, 1.0, -0.5, rng.uniform(-3, 3)]))
        return items, coefs

    @staticmethod
    def _weighted(items, coefs):
        return (LinExpr._coerce(item) * float(coef)
                for item, coef in zip(items, coefs))

    def test_equals_the_in_order_fold_bit_for_bit(self, model):
        items, coefs = self._mixed(model)
        fold = LinExpr()
        for item, coef in zip(items, coefs):
            fold = fold + LinExpr._coerce(item) * float(coef)
        got = quicksum(self._weighted(items, coefs))
        assert list(got.terms) == list(fold.terms)
        assert [c.hex() for c in got.terms.values()] == \
            [c.hex() for c in fold.terms.values()]
        assert got.constant.hex() == fold.constant.hex()

    def test_accumulates_without_copying_per_item(self, model, monkeypatch):
        items, coefs = self._mixed(model)
        copies = []
        original = LinExpr.copy

        def counting(self):
            copies.append(1)
            return original(self)

        monkeypatch.setattr(LinExpr, "copy", counting)
        quicksum(self._weighted(items, coefs))
        assert len(copies) < len(items) // 100

    def test_rejects_strings(self, model):
        x = model.add_var()
        with pytest.raises(TypeError):
            quicksum([1.0 * x, 2.0 * x, "nope"])
