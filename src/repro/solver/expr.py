"""Linear expressions, variables, and constraints.

These classes give the modeling layer a small algebra: variables combine
with floats and each other into :class:`LinExpr` objects, and comparison
operators turn expressions into :class:`Constraint` objects that a
:class:`repro.solver.model.Model` can ingest.

The representation is deliberately simple -- a dict from variable index to
coefficient plus a constant -- because every formulation in this repository
is linear by construction (the paper's whole point is extracting
non-convexities into linear outer constraints).
"""

from __future__ import annotations

import numbers
from collections.abc import Iterable, Sequence

import numpy as np


class Var:
    """A decision variable owned by a :class:`repro.solver.model.Model`.

    Variables are created through :meth:`Model.add_var`; constructing one
    directly will not register it with any model.

    Attributes:
        index: Position of the variable in the model's column order.
        name: Human-readable name used in debugging output.
        lb: Lower bound (may be ``-inf``).
        ub: Upper bound (may be ``inf``).
        integer: Whether the variable is integral.
    """

    __slots__ = ("index", "name", "lb", "ub", "integer")

    def __init__(
        self,
        index: int,
        name: str,
        lb: float = 0.0,
        ub: float = float("inf"),
        integer: bool = False,
    ):
        self.index = index
        self.name = name
        self.lb = lb
        self.ub = ub
        self.integer = integer

    @property
    def is_binary(self) -> bool:
        """Whether this is a 0/1 variable."""
        return self.integer and self.lb == 0.0 and self.ub == 1.0

    def to_expr(self) -> LinExpr:
        """Return this variable as a single-term linear expression."""
        return LinExpr({self.index: 1.0}, 0.0)

    # -- arithmetic delegates to LinExpr ---------------------------------
    def __add__(self, other):
        return self.to_expr() + other

    def __radd__(self, other):
        return self.to_expr() + other

    def __sub__(self, other):
        return self.to_expr() - other

    def __rsub__(self, other):
        return (-self.to_expr()) + other

    def __mul__(self, other):
        return self.to_expr() * other

    def __rmul__(self, other):
        return self.to_expr() * other

    def __truediv__(self, other):
        return self.to_expr() / other

    def __neg__(self):
        return -self.to_expr()

    def __le__(self, other):
        return self.to_expr() <= other

    def __ge__(self, other):
        return self.to_expr() >= other

    def __eq__(self, other):  # type: ignore[override]
        if isinstance(other, (Var, LinExpr, numbers.Real)):
            return self.to_expr() == other
        return NotImplemented

    def __hash__(self):
        return hash((id(type(self)), self.index))

    def __repr__(self):
        return f"Var({self.name!r})"


class LinExpr:
    """An affine expression ``sum(coef_i * x_i) + constant``.

    Supports ``+``, ``-``, multiplication/division by scalars, and
    comparisons (which produce :class:`Constraint` objects).  Expressions
    are immutable from the caller's point of view; arithmetic returns new
    objects.
    """

    __slots__ = ("terms", "constant")

    def __init__(self, terms: dict[int, float] | None = None, constant: float = 0.0):
        self.terms = dict(terms) if terms else {}
        self.constant = float(constant)

    @staticmethod
    def _coerce(value) -> LinExpr:
        if isinstance(value, LinExpr):
            return value
        if isinstance(value, Var):
            return value.to_expr()
        if isinstance(value, numbers.Real):
            return LinExpr({}, float(value))
        raise TypeError(f"cannot build a linear expression from {value!r}")

    @staticmethod
    def from_arrays(indices, coefs, constant: float = 0.0) -> LinExpr:
        """Build ``sum(coefs[i] * x_{indices[i]}) + constant`` vectorized.

        The array-backed construction path: duplicate indices are summed
        and exact-zero coefficients dropped without any per-term Python
        dict traffic.  ``indices`` are variable *column indices*
        (``Var.index``), not :class:`Var` objects.
        """
        idx = np.asarray(indices, dtype=np.intp)
        val = np.asarray(coefs, dtype=np.float64)
        if idx.shape != val.shape or idx.ndim != 1:
            raise ValueError(
                f"from_arrays needs matching 1-D arrays, got shapes "
                f"{idx.shape} and {val.shape}"
            )
        if idx.size == 0:
            return LinExpr({}, constant)
        unique, inverse = np.unique(idx, return_inverse=True)
        sums = np.bincount(inverse, weights=val, minlength=unique.size)
        keep = sums != 0.0
        if not keep.all():
            unique, sums = unique[keep], sums[keep]
        expr = LinExpr(None, constant)
        expr.terms = dict(zip(unique.tolist(), sums.tolist()))
        return expr

    def copy(self) -> LinExpr:
        """Return an independent copy of this expression."""
        return LinExpr(dict(self.terms), self.constant)

    def add_term(self, var: Var, coef: float) -> None:
        """Accumulate ``coef * var`` in place (builder-style mutation)."""
        idx = var.index
        new = self.terms.get(idx, 0.0) + coef
        if new == 0.0:
            self.terms.pop(idx, None)
        else:
            self.terms[idx] = new

    # -- arithmetic -------------------------------------------------------
    def __add__(self, other) -> LinExpr:
        other = self._coerce(other)
        result = self.copy()
        for idx, coef in other.terms.items():
            new = result.terms.get(idx, 0.0) + coef
            if new == 0.0:
                result.terms.pop(idx, None)
            else:
                result.terms[idx] = new
        result.constant += other.constant
        return result

    def __radd__(self, other) -> LinExpr:
        return self.__add__(other)

    def __sub__(self, other) -> LinExpr:
        return self.__add__(self._coerce(other) * -1.0)

    def __rsub__(self, other) -> LinExpr:
        return (self * -1.0).__add__(other)

    def __mul__(self, scalar) -> LinExpr:
        if not isinstance(scalar, numbers.Real):
            raise TypeError("expressions can only be scaled by real numbers")
        scalar = float(scalar)
        if scalar == 0.0:
            return LinExpr()
        return LinExpr(
            {idx: coef * scalar for idx, coef in self.terms.items()},
            self.constant * scalar,
        )

    def __rmul__(self, scalar) -> LinExpr:
        return self.__mul__(scalar)

    def __truediv__(self, scalar) -> LinExpr:
        if not isinstance(scalar, numbers.Real) or scalar == 0:
            raise TypeError("expressions can only be divided by nonzero numbers")
        return self.__mul__(1.0 / float(scalar))

    def __neg__(self) -> LinExpr:
        return self.__mul__(-1.0)

    # -- comparisons produce constraints ----------------------------------
    def __le__(self, other) -> Constraint:
        return Constraint(self - self._coerce(other), "<=")

    def __ge__(self, other) -> Constraint:
        return Constraint(self - self._coerce(other), ">=")

    def __eq__(self, other):  # type: ignore[override]
        if isinstance(other, (Var, LinExpr, numbers.Real)):
            return Constraint(self - self._coerce(other), "==")
        return NotImplemented

    def __hash__(self):
        return id(self)

    def __repr__(self):
        parts = [f"{coef:+g}*x{idx}" for idx, coef in sorted(self.terms.items())]
        if self.constant or not parts:
            parts.append(f"{self.constant:+g}")
        return "LinExpr(" + " ".join(parts) + ")"


class Constraint:
    """A normalized linear constraint ``expr SENSE 0``.

    ``expr`` holds all variable terms and the constant moved to the left
    side, so the right side is always zero.  ``sense`` is one of ``"<="``,
    ``">="``, or ``"=="``.

    Once registered with a model, :attr:`row` holds the constraint's row
    index -- the handle :meth:`repro.solver.model.Model.resolve_with`
    accepts for right-hand-side overrides.
    """

    __slots__ = ("expr", "sense", "name", "row")

    def __init__(self, expr: LinExpr, sense: str, name: str = ""):
        if sense not in ("<=", ">=", "=="):
            raise ValueError(f"unknown constraint sense {sense!r}")
        self.expr = expr
        self.sense = sense
        self.name = name
        self.row: int | None = None

    def rhs(self) -> float:
        """Constant right-hand side after moving the constant term over."""
        return -self.expr.constant

    def __repr__(self):
        label = f" {self.name!r}" if self.name else ""
        return f"Constraint({self.expr!r} {self.sense} 0{label})"


class RangeConstraint(Constraint):
    """A two-sided row ``lo <= expr <= hi`` occupying a single matrix row.

    Range rows are how HiGHS natively models interval constraints; one
    row with both bounds is cheaper than the ``<=``/``>=`` pair.  The
    model hands HiGHS the row as it is, so its dual is HiGHS's one row
    dual: the marginal of shifting the whole interval.
    Build via :meth:`repro.solver.model.Model.add_range_constr`.
    """

    __slots__ = ("lo", "hi")

    def __init__(self, expr: LinExpr, lo: float, hi: float, name: str = ""):
        lo, hi = float(lo), float(hi)
        if not lo <= hi:
            raise ValueError(f"range constraint has lo {lo} > hi {hi}")
        self.expr = expr
        self.sense = "range"
        self.name = name
        self.row = None
        self.lo = lo
        self.hi = hi

    def rhs(self) -> float:
        raise TypeError(
            "range constraints have two right-hand sides; use .lo/.hi"
        )

    def __repr__(self):
        label = f" {self.name!r}" if self.name else ""
        return (
            f"RangeConstraint({self.lo:g} <= {self.expr!r} <= "
            f"{self.hi:g}{label})"
        )


def indices_of(variables: Iterable[Var]) -> np.ndarray:
    """The column indices of a variable sequence, as an array.

    The bridge between :class:`Var` handles and the array-backed APIs
    (:meth:`LinExpr.from_arrays`,
    :meth:`repro.solver.model.Model.add_constrs_batch`).
    """
    if isinstance(variables, Sequence):
        return np.fromiter(
            (v.index for v in variables), dtype=np.intp,
            count=len(variables),
        )
    return np.fromiter((v.index for v in variables), dtype=np.intp)


def quicksum(items: Iterable, coefs=None) -> LinExpr:
    """Sum variables/expressions/numbers into one :class:`LinExpr`.

    Unlike built-in :func:`sum`, this accumulates into a single expression
    without creating an intermediate object per addition, which matters
    when a capacity constraint sums thousands of flow terms.

    Args:
        items: Variables, expressions, or numbers to sum.
        coefs: Optional per-item weights.  When every item is a
            :class:`Var` the weighted sum is assembled through the
            vectorized :meth:`LinExpr.from_arrays` path (the batched
            form of the old ``quicksum(c * x for ...)`` idiom).
    """
    if coefs is not None:
        items = list(items)
        coefs = np.asarray(coefs, dtype=np.float64)
        if coefs.shape != (len(items),):
            raise ValueError(
                f"quicksum got {len(items)} items but coefs shape "
                f"{coefs.shape}"
            )
        if all(isinstance(item, Var) for item in items):
            return LinExpr.from_arrays(indices_of(items), coefs)
        result = LinExpr()
        for item, coef in zip(items, coefs):
            result = result + LinExpr._coerce(item) * float(coef)
        return result
    result = LinExpr()
    terms = result.terms
    for item in items:
        if isinstance(item, Var):
            new = terms.get(item.index, 0.0) + 1.0
            if new == 0.0:
                terms.pop(item.index, None)
            else:
                terms[item.index] = new
        elif isinstance(item, LinExpr):
            for idx, coef in item.terms.items():
                new = terms.get(idx, 0.0) + coef
                if new == 0.0:
                    terms.pop(idx, None)
                else:
                    terms[idx] = new
            result.constant += item.constant
        elif isinstance(item, numbers.Real):
            result.constant += float(item)
        else:
            raise TypeError(f"cannot sum {item!r} into a linear expression")
    return result
