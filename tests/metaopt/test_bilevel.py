"""Tests for the Stackelberg reduction facade."""

import pytest

from repro.exceptions import ModelingError
from repro.metaopt import StackelbergProblem


def build_capacity_game():
    """Outer splits capacity 4 between two inner flows (see duality tests)."""
    game = StackelbergProblem("toy")
    model = game.model
    c1 = model.add_var(lb=0, ub=4, name="c1")
    c2 = model.add_var(lb=0, ub=4, name="c2")
    model.add_constr(c1 + c2 == 4)
    heur = game.adversarial_inner("heur", sense="max")
    f1 = heur.add_var(obj_coef=1.0, value_bound=4.0, name="f1")
    f2 = heur.add_var(obj_coef=1.0, value_bound=4.0, name="f2")
    heur.add_rows([
        (f1.to_expr(), c1, "<=", 1.0, 4.0, ""),
        (f2.to_expr(), c2, "<=", 1.0, 4.0, ""),
        (f1.to_expr(), 1, "<=", 1.0, 4.0, ""),
    ])
    return game, heur, (c1, c2, f1, f2)


class TestGame:
    def test_gap_objective_with_constant_optimal(self):
        game, heur, (c1, c2, f1, f2) = build_capacity_game()
        game.set_objective_terms([(heur, -1.0)], extra=4.0)
        result = game.solve().require_ok()
        # Adversary starves f2 by giving all capacity to capped f1.
        assert result.objective == pytest.approx(3.0, abs=1e-6)
        game.verify(result)

    def test_aligned_plus_adversarial_gap(self):
        game = StackelbergProblem("gap")
        model = game.model
        b = model.add_var(lb=0, ub=5, name="b")
        optimal = game.aligned_inner("opt", sense="max")
        x = optimal.add_var(obj_coef=1.0, value_bound=10.0, name="x")
        optimal.add_rows([(x.to_expr(), 5, "<=", 1.0, 10.0, "")])
        heur = game.adversarial_inner("heur", sense="max")
        y = heur.add_var(obj_coef=1.0, value_bound=10.0, name="y")
        heur.add_rows([
            (y.to_expr(), b, "<=", 1.0, 10.0, ""),
            (y.to_expr(), 5, "<=", 1.0, 10.0, ""),
        ])
        game.set_gap_objective(optimal, heur)
        result = game.solve().require_ok()
        # opt = 5 always; heur = min(b, 5); adversary picks b = 0.
        assert result.objective == pytest.approx(5.0, abs=1e-6)
        assert result.value(b) == pytest.approx(0.0, abs=1e-6)

    def test_min_inners_flip_signs(self):
        game = StackelbergProblem("mlu-like")
        model = game.model
        d = model.add_var(lb=0, ub=6, name="d")
        optimal = game.aligned_inner("opt", sense="min")
        u_o = optimal.add_var(obj_coef=1.0, value_bound=10.0, name="u_o")
        optimal.add_rows([(-3 * u_o, -d, "<=", 1.0, 40.0, "")])
        heur = game.adversarial_inner("heur", sense="min")
        u_h = heur.add_var(obj_coef=1.0, value_bound=10.0, name="u_h")
        heur.add_rows([(-2 * u_h, -d, "<=", 1.0, 40.0, "")])
        game.set_gap_objective(optimal, heur)
        result = game.solve().require_ok()
        # gap = d/2 - d/3 = d/6, maximized at d = 6 -> 1.
        assert result.objective == pytest.approx(1.0, abs=1e-6)
        assert result.value(d) == pytest.approx(6.0, abs=1e-6)
        game.verify(result)

    def test_sign_discipline_enforced(self):
        game = StackelbergProblem("bad")
        aligned = game.aligned_inner("a", sense="max")
        aligned.add_var(obj_coef=1.0, value_bound=1.0)
        with pytest.raises(ModelingError):
            game.set_objective_terms([(aligned, -1.0)])

    def test_adversarial_with_positive_sign_rejected(self):
        game = StackelbergProblem("bad2")
        adv = game.adversarial_inner("h", sense="max")
        adv.add_var(obj_coef=1.0, value_bound=1.0)
        with pytest.raises(ModelingError):
            game.set_objective_terms([(adv, 1.0)])

    def test_mismatched_senses_rejected(self):
        game = StackelbergProblem("bad3")
        a = game.aligned_inner("a", sense="max")
        h = game.adversarial_inner("h", sense="min")
        with pytest.raises(ModelingError):
            game.set_gap_objective(a, h)

    def test_foreign_inner_rejected(self):
        from repro.solver import Model
        from repro.solver.duality import InnerLP

        game = StackelbergProblem("bad4")
        foreign = InnerLP(Model(), "foreign", sense="max")
        with pytest.raises(ModelingError):
            game.set_objective_terms([(foreign, -1.0)])

    def test_finalize_idempotent(self):
        game, heur, _ = build_capacity_game()
        game.set_objective_terms([(heur, -1.0)], extra=4.0)
        game.finalize()
        game.finalize()  # no error, no duplicate KKT
        result = game.solve().require_ok()
        assert result.objective == pytest.approx(3.0, abs=1e-6)
