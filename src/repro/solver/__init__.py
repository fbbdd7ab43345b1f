"""Linear and mixed-integer modeling layer over scipy's HiGHS binding.

The paper implements Raha on top of MetaOpt, which in turn drives Gurobi.
Neither is available offline, so this package provides the substrate both
of them supply:

* :mod:`repro.solver.expr` -- variables, linear expressions and constraints
  with operator overloading (``2 * x + y <= 5``).
* :mod:`repro.solver.model` -- a :class:`Model` that compiles expressions
  into sparse matrices and hands its own two-sided rows, column bounds and
  integrality straight to HiGHS (the binding scipy ships, called directly
  rather than through scipy's ``linprog`` / ``milp`` front ends); pure LPs
  also return one dual per row.
* :mod:`repro.solver.linearize` -- standard MILP linearization gadgets:
  indicator variables for threshold tests on integer expressions, and
  McCormick products of a binary and a bounded continuous variable.  These
  implement the "standard optimization techniques [7]" the paper uses to
  linearize the indicator in Eq. 5.
* :mod:`repro.solver.duality` -- emission of LP KKT optimality conditions
  (dual feasibility + big-M complementary slackness) into a host model.
  This is the mechanism that lets Raha embed the *failed* network's traffic
  engineering optimum inside a single-level MILP (Section 4.1 of the paper).
"""

from repro.solver.expr import Constraint, LinExpr, Var, quicksum
from repro.solver.linearize import (
    indicator_geq,
    product_binary_bounded,
)
from repro.solver.model import Model
from repro.solver.result import SolveResult, SolveStats, SolveStatus

__all__ = [
    "Constraint",
    "LinExpr",
    "Model",
    "SolveResult",
    "SolveStats",
    "SolveStatus",
    "Var",
    "indicator_geq",
    "product_binary_bounded",
    "quicksum",
]
