"""MILP linearization gadgets.

These implement the "standard optimization techniques" ([7] in the paper)
Raha relies on to keep the outer problem linear:

* :func:`indicator_geq` linearizes the indicator function ``I(expr >= t)``
  used by Eq. 5 to decide when a backup path becomes active.
* :func:`product_binary_bounded` linearizes ``z * x`` (binary times bounded
  continuous), used to set path-extension capacities ``C_kp = d_k * a_kp``.

All helpers take the host :class:`repro.solver.model.Model` and return the
newly created variable; constraints are added to the model directly.
"""

from __future__ import annotations

from repro.exceptions import ModelingError
from repro.solver.expr import Constraint, LinExpr, Var
from repro.solver.model import Model


def indicator_geq(
    model: Model,
    expr,
    threshold: float,
    expr_lb: float,
    expr_ub: float,
    name: str = "ind",
) -> Var:
    """Create a binary ``z`` with ``z = 1  <=>  expr >= threshold``.

    ``expr`` must take *integer* values at any feasible point (in Raha it
    is always a sum of failure binaries plus an integer constant), and
    ``threshold`` must be an integer, so that ``expr <= threshold - 1`` is
    the exact complement of ``expr >= threshold``.

    Args:
        model: Host model that receives the binary and two constraints.
        expr: Integer-valued linear expression.
        threshold: Integer threshold of the test.
        expr_lb: A valid lower bound on ``expr`` over the feasible set.
        expr_ub: A valid upper bound on ``expr`` over the feasible set.
        name: Name stem for the created variable.

    Returns:
        The indicator binary.
    """
    if round(threshold) != threshold:
        raise ModelingError(f"indicator threshold must be integral, got {threshold}")
    if expr_lb > expr_ub:
        raise ModelingError(f"indicator bounds inverted: [{expr_lb}, {expr_ub}]")
    expr = LinExpr._coerce(expr) if not isinstance(expr, LinExpr) else expr

    z = model.add_var(binary=True, name=name)
    if expr_ub < threshold:
        # The test can never pass; pin the indicator to zero.
        model.add_constr(z.to_expr() <= 0, name=f"{name}:never")
        return z
    if expr_lb >= threshold:
        # The test always passes; pin the indicator to one.
        model.add_constr(z.to_expr() >= 1, name=f"{name}:always")
        return z

    # Both rows are built in place: ``expr``'s terms, then ``z``'s, with
    # each constant computed as the expression algebra computes it.
    # z = 1  =>  expr >= threshold:
    #   expr >= threshold - (threshold - expr_lb) * (1 - z)
    m_low = float(threshold - expr_lb)
    on = LinExpr(expr.terms, expr.constant + -(-m_low + threshold))
    on.add_term(z, -m_low)
    model.add_constr(Constraint(on, ">="), name=f"{name}:on")
    # z = 0  =>  expr <= threshold - 1:
    #   expr <= threshold - 1 + (expr_ub - threshold + 1) * z
    m_high = float(expr_ub - threshold + 1)
    off = LinExpr(expr.terms, expr.constant + -(0.0 + (threshold - 1)))
    off.add_term(z, -m_high)
    model.add_constr(Constraint(off, "<="), name=f"{name}:off")
    return z


def product_binary_bounded(
    model: Model,
    binary: Var,
    factor,
    factor_ub: float,
    name: str = "prod",
) -> Var:
    """Create ``w = binary * factor`` for a continuous ``factor in [0, ub]``.

    This is the exact McCormick envelope for a product with one binary
    term.  Used by Eq. 5: ``C_kp = d_k * active_kp``.

    Args:
        model: Host model.
        binary: A 0/1 variable.
        factor: Variable or expression known to lie in ``[0, factor_ub]``.
        factor_ub: Finite upper bound on ``factor``.
        name: Name stem for the created variable.

    Returns:
        A continuous variable equal to the product at every feasible point.
    """
    if not binary.is_binary:
        raise ModelingError(f"{binary!r} must be binary for an exact product")
    if not (factor_ub >= 0 and factor_ub != float("inf")):
        raise ModelingError(f"product needs a finite nonnegative bound, got {factor_ub}")

    factor = LinExpr._coerce(factor)
    ub = float(factor_ub)
    w = model.add_var(lb=0.0, ub=factor_ub, name=name)
    # Rows built in place (``w`` is new, so no term of ``factor`` meets
    # it), with each constant computed as the expression algebra does.
    # w <= ub * b
    cap = LinExpr({w.index: 1.0})
    if ub:
        cap.add_term(binary, -ub)
    model.add_constr(Constraint(cap, "<="), name=f"{name}:cap")
    # w <= factor
    le = LinExpr({w.index: 1.0}, 0.0 + -factor.constant)
    for idx, coef in factor.terms.items():
        le.terms[idx] = -coef
    model.add_constr(Constraint(le, "<="), name=f"{name}:le")
    # w >= factor - ub * (1 - b), i.e. w - (factor + ub * b) >= -ub; a
    # zero ub scales (1 - b) to the empty expression, whose negated
    # constant is -0.0.
    shifted = LinExpr(factor.terms, factor.constant + (-ub if ub else -0.0))
    if ub:
        shifted.add_term(binary, ub)
    ge = LinExpr({w.index: 1.0}, 0.0 + -shifted.constant)
    for idx, coef in shifted.terms.items():
        ge.terms[idx] = -coef
    model.add_constr(Constraint(ge, ">="), name=f"{name}:ge")
    return w
