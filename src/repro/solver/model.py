"""The :class:`Model` class: build linear/MILP models and solve with HiGHS.

The model accumulates variables and constraints built with the expression
algebra from :mod:`repro.solver.expr`, compiles them into sparse matrices,
and hands them to HiGHS as they are: one private class,
:class:`_HighsSession`, loads the model's own ``row_lb <= A x <= row_ub``
rows (a CSC copy of the compiled matrix), its column bounds and
integrality into one instance of the HiGHS binding scipy ships, once per
compiled model, and every later solve changes only the bounds that
differ from the last solve's.  LPs and MILPs take the same path; an LP also returns one dual
per row.  The options are the ones scipy's ``linprog`` / ``milp`` front
ends would pass, so results match those front ends without their
per-call input validation and row re-stacking.

This is the stand-in for Gurobi in the paper's stack.  It intentionally
exposes the two solver features the paper's evaluation leans on:

* ``time_limit`` -- MetaOpt's ``timeout`` feature (Section 6 / Figure 16);
  on expiry the incumbent is returned with :class:`SolveStatus.TIME_LIMIT`.
* ``mip_rel_gap`` -- an optional optimality-gap tolerance used to trade
  precision for runtime in large sweeps.

The hot path is array-backed: constraint coefficients live in COO
*segments* (numpy triplet arrays from :meth:`Model.add_constrs_batch`,
plus one pending Python-list segment fed by scalar :meth:`Model.add_constr`
calls), row bounds live in amortized-growth buffers, and column bounds
in plain lists that :meth:`Model.add_var` appends to.
Compilation concatenates the segments straight into a CSR matrix -- no
per-term Python loop -- and the result (and, from the first solve, the
HiGHS instance holding it) is cached on the model until the next
mutation, so repeated :meth:`Model.solve` / :meth:`Model.resolve_with`
calls skip matrix assembly and model loading entirely.
"""

from __future__ import annotations

import time
from collections.abc import Mapping, Sequence
from itertools import repeat
from math import copysign
from typing import NamedTuple

import numpy as np
from scipy import sparse

# The HiGHS binding scipy ships.  It is private to scipy, so this is the
# one module that imports it; tests/solver/test_highs_parity.py fails
# loudly if a scipy upgrade moves it.
from scipy.optimize._highspy import _core as _highs

from repro.exceptions import ModelingError
from repro.obs.trace import current_tracer
from repro.resilience.faults import maybe_fire
from repro.solver.expr import Constraint, LinExpr, Var
from repro.solver.result import SolveResult, SolveStats, SolveStatus

_MODEL_STATUS = _highs.HighsModelStatus
# HiGHS model status -> SolveStatus; anything not listed is an ERROR.
# kModelError (HiGHS rejected the model) reads as infeasible, as it did
# through scipy's front ends.
_STATUS = {
    _MODEL_STATUS.kOptimal: SolveStatus.OPTIMAL,
    _MODEL_STATUS.kTimeLimit: SolveStatus.TIME_LIMIT,
    _MODEL_STATUS.kIterationLimit: SolveStatus.TIME_LIMIT,
    _MODEL_STATUS.kInfeasible: SolveStatus.INFEASIBLE,
    _MODEL_STATUS.kModelError: SolveStatus.INFEASIBLE,
    _MODEL_STATUS.kUnbounded: SolveStatus.UNBOUNDED,
}
# Statuses under which a MILP may still hold an incumbent.
_MIP_STOPPED = (
    _MODEL_STATUS.kTimeLimit,
    _MODEL_STATUS.kIterationLimit,
    _MODEL_STATUS.kSolutionLimit,
)
_COLWISE = int(_highs.MatrixFormat.kColwise)
_MINIMIZE = int(_highs.ObjSense.kMinimize)
_DUAL_SIMPLEX = int(_highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual)

# Row sense codes stored in the model's uint8 sense buffer.
_LE, _GE, _EQ = 0, 1, 2
_SENSE_CODE = {"<=": _LE, ">=": _GE, "==": _EQ}

_INF = float("inf")


class _Buffer:
    """An amortized-growth typed array (the numpy analogue of list.append)."""

    __slots__ = ("_data", "n")

    def __init__(self, dtype=np.float64, capacity: int = 16):
        self._data = np.empty(capacity, dtype=dtype)
        self.n = 0

    def _reserve(self, extra: int) -> None:
        need = self.n + extra
        cap = self._data.size
        if need > cap:
            while cap < need:
                cap *= 2
            grown = np.empty(cap, dtype=self._data.dtype)
            grown[: self.n] = self._data[: self.n]
            self._data = grown

    def push(self, value) -> None:
        self._reserve(1)
        self._data[self.n] = value
        self.n += 1

    def extend(self, values) -> None:
        values = np.asarray(values)
        k = values.size
        self._reserve(k)
        self._data[self.n : self.n + k] = values
        self.n += k

    def view(self) -> np.ndarray:
        """The live prefix.  Aliases internal storage; do not mutate."""
        return self._data[: self.n]


class _Compiled(NamedTuple):
    """The matrices a solve needs, cached on the model between mutations."""

    c: np.ndarray
    a: sparse.csr_matrix
    row_lb: np.ndarray
    row_ub: np.ndarray
    var_lb: np.ndarray
    var_ub: np.ndarray
    integrality: np.ndarray
    max_abs_coef: float
    max_abs_rhs: float


class _HighsOutcome(NamedTuple):
    """What :meth:`_HighsSession.run` read back from HiGHS."""

    status: SolveStatus
    message: str
    x: np.ndarray | None
    objective: float | None
    row_dual: np.ndarray | None
    mip_gap: float | None
    #: Branch-and-bound nodes, simplex iterations and the dual bound (in
    #: HiGHS's minimization sense) of a MILP run; ``None`` for an LP.
    search: tuple[int, int, float] | None = None


_ERROR = _highs.HighsStatus.kError
# Options each mode sets once, at load: the ones scipy's ``linprog`` /
# ``milp`` front ends hand HiGHS, so both see the same problem and settle
# on the same vertex.
_LP_OPTIONS = (
    ("log_to_console", False),
    ("presolve", "on"),
    ("output_flag", False),
    ("simplex_strategy", _DUAL_SIMPLEX),
)
_MILP_OPTIONS = (("log_to_console", False),)
# Options every run sets, to the call's value or to HiGHS's default.
_PER_CALL = ("time_limit", "mip_rel_gap")


def _check_patch(what: str, index: int, lo, hi) -> None:
    """Refuse an overridden ``(lo, hi)`` that is crossed or NaN."""
    if lo > hi:
        raise ModelingError(
            f"override leaves {what} {index} with lb {lo} > ub {hi}"
        )
    if lo != lo or hi != hi:
        side = "lower" if lo != lo else "upper"
        raise ModelingError(f"{what} {side} bound {index} is NaN")


def _same_bounds(held, bounds: tuple) -> bool:
    """Whether ``held`` is ``bounds``, float for float and bit for bit:
    ``0.0`` and ``-0.0`` differ (no bound here is NaN)."""
    if held != bounds:
        return False
    if 0.0 not in bounds:
        return True
    (held_lo, held_hi), (lo, hi) = held, bounds
    return (copysign(1.0, held_lo) == copysign(1.0, lo)
            and copysign(1.0, held_hi) == copysign(1.0, hi))


def _set_option(highs, name: str, value) -> None:
    if highs.setOptionValue(name, value) == _ERROR:
        raise ModelingError(f"HiGHS rejected option {name}={value!r}")


class _HighsSession:
    """One HiGHS instance loaded with a compiled model, re-solved in place.

    A :class:`Model` builds one per mode (MILP, or LP/relaxation) at the
    first solve after a compile and drops it on the next mutation.  The
    model's own ``row_lb <= A x <= row_ub`` rows (a CSC copy of the
    compiled matrix), its column bounds and, for a MILP, its integrality
    reach HiGHS in one ``passModel``, after the one NaN check (NaN slips
    through every ``lb > ub`` check).  :meth:`run` then changes only the
    bounds that differ from what the instance holds: a call's overrides
    stay loaded until the next call, which restores those it does not
    override and re-applies none it overrides alike.  Every run
    therefore sees exactly the compiled bounds with its own overrides
    patched over them; back-to-back scenario re-solves, which mostly
    override the same bounds alike, skip most of the calls.  The
    per-call options are likewise set only when they change.

    The ``clearSolver`` contract: every ``run()`` is preceded by
    ``clearSolver()``, which drops the last basis and solution, so each
    solve starts from the state a fresh instance starts from and returns
    what a fresh instance would, bit for bit.  (Without it HiGHS would
    warm-start from the last basis: faster, but not bit-identical.)
    """

    __slots__ = ("_highs", "_integer", "_loaded", "_defaults", "_options",
                 "_row_lb", "_row_ub", "_var_lb", "_var_ub",
                 "_held_rows", "_held_cols")

    def __init__(self, a_csc, cost, compiled: _Compiled, integer: bool):
        for what, arr in (
            ("objective coefficient", cost),
            ("column lower bound", compiled.var_lb),
            ("column upper bound", compiled.var_ub),
            ("row lower bound", compiled.row_lb),
            ("row upper bound", compiled.row_ub),
        ):
            nan = np.isnan(arr)
            if nan.any():
                raise ModelingError(
                    f"{what} {int(np.flatnonzero(nan)[0])} is NaN"
                )
        highs = _highs._Highs()
        for name, value in _MILP_OPTIONS if integer else _LP_OPTIONS:
            _set_option(highs, name, value)
        self._defaults = [highs.getOptionValue(name)[1] for name in _PER_CALL]
        # What the instance holds for each per-call option.
        self._options = list(self._defaults)
        m, n = a_csc.shape
        if integer:
            # The array form of passModel builds the same HighsLp as the
            # object form below, without converting every element; it
            # always sets an integrality vector, which an LP must not
            # carry, so LPs take the object form.
            status = highs.passModel(
                n, m, a_csc.nnz, _COLWISE, _MINIMIZE, 0.0, cost,
                compiled.var_lb, compiled.var_ub,
                compiled.row_lb, compiled.row_ub,
                a_csc.indptr.astype(np.int32, copy=False),
                a_csc.indices.astype(np.int32, copy=False), a_csc.data,
                compiled.integrality.astype(np.int32),
            )
        else:
            lp = _highs.HighsLp()
            lp.num_col_ = n
            lp.num_row_ = m
            lp.col_cost_ = cost
            lp.col_lower_ = compiled.var_lb
            lp.col_upper_ = compiled.var_ub
            lp.row_lower_ = compiled.row_lb
            lp.row_upper_ = compiled.row_ub
            matrix = lp.a_matrix_
            matrix.num_col_ = n
            matrix.num_row_ = m
            matrix.format_ = _highs.MatrixFormat.kColwise
            matrix.start_ = a_csc.indptr
            matrix.index_ = a_csc.indices
            matrix.value_ = a_csc.data
            status = highs.passModel(lp)
        # A model HiGHS rejects reads as kModelError on every solve.
        self._loaded = status != _ERROR
        self._highs = highs
        self._integer = integer
        self._row_lb, self._row_ub = compiled.row_lb, compiled.row_ub
        self._var_lb, self._var_ub = compiled.var_lb, compiled.var_ub
        # Rows and columns whose bounds on the instance are not the
        # compiled ones: {index: (lb, ub)}, or None after HiGHS refused
        # a change (what it holds then is unknown).
        self._held_rows: dict[int, tuple | None] = {}
        self._held_cols: dict[int, tuple | None] = {}

    def run(self, time_limit, mip_rel_gap, rows=None, cols=None
            ) -> _HighsOutcome:
        """Minimize with ``rows`` and ``cols`` (``{index: (lb, ub)}``)
        patched over the compiled bounds.

        A bound HiGHS refuses (an infinite lower bound, say) reads as
        kModelError, as it does when a whole model is refused.
        """
        highs = self._highs
        options = self._options
        for k, value in enumerate((time_limit, mip_rel_gap)):
            value = self._defaults[k] if value is None else float(value)
            if value != options[k]:
                _set_option(highs, _PER_CALL[k], value)
                options[k] = value
        if self._loaded and self._patch(rows or {}, cols or {}):
            highs.clearSolver()
            ran = highs.run() != _ERROR
            status = highs.getModelStatus()
        else:
            status, ran = _MODEL_STATUS.kModelError, False
        return self._read(status, ran)

    def _patch(self, rows, cols) -> bool:
        """Make the instance hold the compiled bounds with ``rows`` and
        ``cols`` patched over them; ``False`` if HiGHS refused one."""
        highs = self._highs
        held = self._held_rows
        for i in [i for i in held if i not in rows]:
            highs.changeRowBounds(i, self._row_lb[i], self._row_ub[i])
            del held[i]
        for i, bounds in rows.items():
            if not _same_bounds(held.get(i), bounds):
                held[i] = None
                if highs.changeRowBounds(i, *bounds) == _ERROR:
                    return False
                held[i] = bounds
        held = self._held_cols
        restore = [j for j in held if j not in cols]
        change = [j for j, bounds in cols.items()
                  if not _same_bounds(held.get(j), bounds)]
        if not (restore or change):
            return True
        index = np.array(restore + change, dtype=np.int32)
        lb = np.concatenate([self._var_lb[restore],
                             [cols[j][0] for j in change]])
        ub = np.concatenate([self._var_ub[restore],
                             [cols[j][1] for j in change]])
        for j in restore + change:
            held[j] = None
        if highs.changeColsBounds(index.size, index, lb, ub) == _ERROR:
            return False
        for j in restore:
            del held[j]
        for j in change:
            held[j] = cols[j]
        return True

    def _read(self, status, ran: bool) -> _HighsOutcome:
        """The outcome of the last run.  An LP reads its objective with
        ``getObjectiveValue()`` (the ``objective_function_value`` of
        ``getInfo()``, without copying every other info field); a MILP
        reads ``getInfo()`` for its search statistics."""
        highs = self._highs
        outcome = _STATUS.get(status, SolveStatus.ERROR)
        message = f"HiGHS: {highs.modelStatusToString(status)}"
        if not self._integer:
            if not ran or status != _MODEL_STATUS.kOptimal:
                return _HighsOutcome(outcome, message, None, None, None, None)
            solution = highs.getSolution()
            return _HighsOutcome(
                outcome, message, np.array(solution.col_value),
                highs.getObjectiveValue(),
                np.array(solution.row_dual, dtype=np.float64), None,
            )
        if not ran:
            return _HighsOutcome(outcome, message, None, None, None, None)
        info = highs.getInfo()
        search = (int(info.mip_node_count),
                  int(info.simplex_iteration_count),
                  float(info.mip_dual_bound))
        if status in _MIP_STOPPED:
            # A stopped branch-and-bound holds an incumbent iff its
            # objective is finite.
            solved = info.objective_function_value != _highs.kHighsInf
        else:
            solved = status == _MODEL_STATUS.kOptimal
        if not solved:
            return _HighsOutcome(outcome, message, None, None, None, None,
                                 search)
        solution = highs.getSolution()
        return _HighsOutcome(
            outcome, message, np.array(solution.col_value),
            info.objective_function_value, None, float(info.mip_gap),
            search,
        )


class RowBatch:
    """Constraint rows collected in place and registered in one call.

    :meth:`add` records the row ``Constraint(expr, sense)`` describes --
    the terms of ``expr`` and the right-hand side ``-expr.constant`` --
    :meth:`extend` records a family of rows given in CSR-like form, and
    :meth:`post` hands every recorded row, in order, to
    :meth:`Model.add_constrs_batch` at once.  The compiled model is the
    one per-row :meth:`Model.add_constr` (or per-family
    ``add_constrs_batch``) calls would give; the rows just cost one
    registration.
    """

    __slots__ = ("_cols", "_data", "_indptr", "_senses", "_rhs", "_names")

    def __init__(self):
        self._cols: list[int] = []
        self._data: list[float] = []
        self._indptr: list[int] = [0]
        self._senses: list[str] = []
        self._rhs: list[float] = []
        self._names: list[str] = []

    def add(self, expr: LinExpr, sense: str, name: str = "") -> None:
        """Record ``expr SENSE 0`` (``"<="``, ``">="`` or ``"=="``)."""
        terms = expr.terms
        self._cols.extend(terms)
        self._data.extend(terms.values())
        self._indptr.append(len(self._cols))
        self._senses.append(sense)
        self._rhs.append(-expr.constant)
        self._names.append(name)

    def extend(self, indptr, cols, data, sense: str, rhs, name: str = ""
               ) -> None:
        """Record rows ``sum(data[k] * x[cols[k]]) SENSE rhs[i]``, row
        ``i`` owning ``k`` in ``indptr[i]:indptr[i+1]`` (as in
        :meth:`Model.add_constrs_batch`)."""
        base = len(self._cols)
        count = len(indptr) - 1
        self._cols.extend(cols)
        self._data.extend(data)
        self._indptr.extend(base + k for k in indptr[1:])
        self._senses.extend(repeat(sense, count))
        self._rhs.extend(rhs)
        self._names.extend(repeat(name, count))

    def post(self, model: Model) -> range:
        """Register the recorded rows with ``model``; their row indices."""
        if not self._senses:
            return range(model.num_constraints, model.num_constraints)
        return model.add_constrs_batch(
            self._indptr, self._cols, self._data, sense=self._senses,
            rhs=self._rhs, name=self._names,
        )


class Model:
    """A linear or mixed-integer optimization model.

    Example:
        >>> m = Model("toy")
        >>> x = m.add_var(ub=4, name="x")
        >>> y = m.add_var(ub=4, name="y")
        >>> _ = m.add_constr(x + y <= 6)
        >>> m.set_objective(x + 2 * y, sense="max")
        >>> result = m.solve()
        >>> round(result.objective, 6)
        10.0
    """

    def __init__(self, name: str = "model"):
        self.name = name
        self._vars: list[Var] = []
        # Column bounds and integrality as plain lists: add_var appends
        # to them once per column, and the compile makes the arrays.
        self._var_lb: list[float] = []
        self._var_ub: list[float] = []
        self._var_int: list[int] = []
        self._objective: LinExpr = LinExpr()
        self._sense: str = "min"
        self._num_integer = 0

        # Constraint matrix storage: closed numpy COO segments plus one
        # open Python-list segment that scalar add_constr() appends to.
        self._segments: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self._coo_rows: list[int] = []
        self._coo_cols: list[int] = []
        self._coo_vals: list[float] = []
        self._row_lb = _Buffer()
        self._row_ub = _Buffer()
        self._row_sense = _Buffer(dtype=np.uint8)
        self._row_names: list[str] = []
        # Constraint handle per row; None for batch-added rows (materialized
        # lazily by the .constraints property when someone asks).
        self._row_cons: list[Constraint | None] = []
        self._num_batch_rows = 0

        self._compiled: _Compiled | None = None
        # The HiGHS instances holding the compiled model, keyed by
        # whether they solve it as a MILP; built at the first solve of
        # each mode after a compile.
        self._sessions: dict[bool, _HighsSession] = {}
        self._materialized: list[Constraint] | None = None
        self._created = time.monotonic()
        self._build_seconds = 0.0
        self._compile_seconds = 0.0

    # -- introspection ----------------------------------------------------
    @property
    def num_vars(self) -> int:
        """Number of variables added so far."""
        return len(self._vars)

    @property
    def num_constraints(self) -> int:
        """Number of constraint rows added so far."""
        return self._row_lb.n

    @property
    def num_integer_vars(self) -> int:
        """Number of integer (including binary) variables."""
        return self._num_integer

    @property
    def is_mip(self) -> bool:
        """Whether the model contains integer variables."""
        return self._num_integer > 0

    @property
    def variables(self) -> list[Var]:
        """The variables in column order (do not mutate)."""
        return self._vars

    @property
    def constraints(self) -> list[Constraint]:
        """The constraints in row order (do not mutate).

        Rows added through :meth:`add_constrs_batch` have no pre-built
        :class:`Constraint` objects; asking for this property materializes
        them from the compiled matrix (a debugging convenience -- the hot
        path never pays for it).
        """
        if self._num_batch_rows == 0:
            return self._row_cons  # type: ignore[return-value]
        if self._materialized is None:
            self._materialized = self._materialize_constraints()
        return self._materialized

    @property
    def objective(self) -> LinExpr:
        """The current objective expression."""
        return self._objective

    @property
    def sense(self) -> str:
        """The objective sense, ``"min"`` or ``"max"``."""
        return self._sense

    # -- building ---------------------------------------------------------
    def _invalidate(self) -> None:
        # The sessions and the materialized handles are built from a
        # compile, so a model that was never compiled has nothing to drop.
        if self._compiled is not None:
            self._compiled = None
            self._sessions = {}
            self._materialized = None

    def add_var(
        self,
        lb: float | None = None,
        ub: float | None = None,
        name: str | None = None,
        integer: bool = False,
        binary: bool = False,
    ) -> Var:
        """Create and register a variable.

        Args:
            lb: Lower bound; defaults to zero (the natural domain of flows).
            ub: Upper bound; defaults to ``+inf``.
            name: Optional debugging name; autogenerated when omitted.
            integer: Restrict to integer values.
            binary: Shortcut for ``integer=True, lb=0, ub=1``.  Explicit
                bounds outside {0, 1} raise :class:`ModelingError` rather
                than being silently replaced (pinning to 0 or 1 is fine).
        """
        if binary:
            integer = True
            lb = 0.0 if lb is None else float(lb)
            ub = 1.0 if ub is None else float(ub)
            if lb not in (0.0, 1.0) or ub not in (0.0, 1.0):
                raise ModelingError(
                    f"variable {name!r}: bounds [{lb:g}, {ub:g}] conflict with "
                    f"binary=True (binaries live in {{0, 1}}; drop the bounds, "
                    f"or use integer=True for a general integer variable)"
                )
        else:
            lb = 0.0 if lb is None else float(lb)
            ub = _INF if ub is None else float(ub)
        if lb > ub:
            raise ModelingError(f"variable {name!r} has lb {lb} > ub {ub}")
        index = len(self._vars)
        var = Var(index, name or f"x{index}", lb, ub, integer)
        self._vars.append(var)
        self._var_lb.append(lb)
        self._var_ub.append(ub)
        self._var_int.append(1 if integer else 0)
        if integer:
            self._num_integer += 1
        self._invalidate()
        return var

    def add_constr(self, constraint: Constraint, name: str = "") -> Constraint:
        """Register a constraint built with ``<=``, ``>=`` or ``==``."""
        if not isinstance(constraint, Constraint):
            raise ModelingError(
                f"expected a Constraint (did the comparison fold to a bool?): "
                f"{constraint!r}"
            )
        if name:
            constraint.name = name
        expr = constraint.expr
        row = self._row_lb.n
        terms = expr.terms
        if terms:
            self._coo_rows.extend(repeat(row, len(terms)))
            self._coo_cols.extend(terms.keys())
            self._coo_vals.extend(terms.values())
        rhs = -expr.constant
        sense = constraint.sense
        if sense == "<=":
            lo, hi, code = -_INF, rhs, _LE
        elif sense == ">=":
            lo, hi, code = rhs, _INF, _GE
        else:
            lo, hi, code = rhs, rhs, _EQ
        self._row_lb.push(lo)
        self._row_ub.push(hi)
        self._row_sense.push(code)
        self._row_names.append(constraint.name)
        self._row_cons.append(constraint)
        constraint.row = row
        self._invalidate()
        return constraint

    def add_constrs_batch(
        self,
        indptr,
        columns,
        data=None,
        *,
        sense="<=",
        rhs=None,
        name: str | Sequence[str] = "",
    ) -> range:
        """Register many constraint rows from coefficient arrays at once.

        The rows are given in CSR-like form: row ``i`` owns the slice
        ``columns[indptr[i]:indptr[i+1]]`` / ``data[...]``.  No
        :class:`Constraint` objects are created (see :attr:`constraints`
        for lazy materialization), and no per-term Python work happens --
        this is the fast path the TE builders and the KKT embedding use.

        Args:
            indptr: ``len == n_rows + 1`` offsets into ``columns``/``data``.
            columns: Variable column indices (``Var.index``) per term.
            data: Coefficients per term; omitted means all ones.
            sense: A single sense string for every row, or a sequence of
                per-row senses.
            rhs: Scalar or per-row right-hand sides.
            name: One name for every row, or a sequence of per-row names.
        Returns:
            ``range(first_row, first_row + n_rows)`` -- the row indices,
            usable as keys in :meth:`resolve_with` overrides.
        """
        indptr = np.asarray(indptr, dtype=np.intp)
        columns = np.asarray(columns, dtype=np.intp)
        if indptr.ndim != 1 or indptr.size == 0:
            raise ModelingError("indptr must be a non-empty 1-D array")
        n_new = indptr.size - 1
        lengths = np.diff(indptr)
        if indptr[0] != 0 or (lengths < 0).any() or indptr[-1] != columns.size:
            raise ModelingError(
                "indptr must start at 0, be nondecreasing, and end at "
                f"len(columns)={columns.size}; got {indptr[0]}..{indptr[-1]}"
            )
        if data is None:
            vals = np.ones(columns.size, dtype=np.float64)
        else:
            vals = np.asarray(data, dtype=np.float64)
            if vals.shape != columns.shape:
                raise ModelingError(
                    f"data shape {vals.shape} != columns shape {columns.shape}"
                )
        if columns.size and (
            int(columns.min()) < 0 or int(columns.max()) >= len(self._vars)
        ):
            raise ModelingError(
                f"column index out of range [0, {len(self._vars)})"
            )

        if rhs is None:
            raise ModelingError("add_constrs_batch needs rhs")
        try:
            rhs_arr = np.broadcast_to(
                np.asarray(rhs, dtype=np.float64), (n_new,)
            )
            if isinstance(sense, str):
                if sense not in _SENSE_CODE:
                    raise ModelingError(f"unknown constraint sense {sense!r}")
                code = _SENSE_CODE[sense]
                codes = np.full(n_new, code, dtype=np.uint8)
                lo = np.full(n_new, -_INF) if code == _LE else rhs_arr
                hi = np.full(n_new, _INF) if code == _GE else rhs_arr
            else:
                try:
                    codes = np.fromiter(
                        (_SENSE_CODE[s] for s in sense),
                        dtype=np.uint8,
                        count=n_new,
                    )
                except KeyError as exc:
                    raise ModelingError(
                        f"unknown constraint sense {exc.args[0]!r}"
                    )
                lo = np.where(codes != _LE, rhs_arr, -_INF)
                hi = np.where(codes != _GE, rhs_arr, _INF)
        except ValueError as exc:
            raise ModelingError(f"bad rhs shape for {n_new} rows: {exc}")

        if isinstance(name, str):
            names = repeat(name, n_new)
        else:
            names = list(name)
            if len(names) != n_new:
                raise ModelingError(
                    f"got {len(names)} row names for {n_new} rows"
                )
        base = self._row_lb.n
        rows = np.repeat(
            np.arange(base, base + n_new, dtype=np.intp), lengths
        )
        self._flush_scalar()
        self._segments.append((rows, columns, vals))
        self._row_lb.extend(lo)
        self._row_ub.extend(hi)
        self._row_sense.extend(codes)
        self._row_names.extend(names)
        self._row_cons.extend(repeat(None, n_new))
        self._num_batch_rows += n_new
        self._invalidate()
        return range(base, base + n_new)

    def set_objective(self, expr, sense: str = "min") -> None:
        """Set the objective expression and sense (``"min"`` or ``"max"``)."""
        if sense not in ("min", "max"):
            raise ModelingError(f"unknown objective sense {sense!r}")
        self._objective = LinExpr._coerce(expr)
        self._sense = sense
        self._invalidate()

    # -- compilation ------------------------------------------------------
    def _flush_scalar(self) -> None:
        """Close the open scalar segment into a numpy triplet segment."""
        if self._coo_cols:
            self._segments.append(
                (
                    np.asarray(self._coo_rows, dtype=np.intp),
                    np.asarray(self._coo_cols, dtype=np.intp),
                    np.asarray(self._coo_vals, dtype=np.float64),
                )
            )
            self._coo_rows, self._coo_cols, self._coo_vals = [], [], []

    def _ensure_compiled(self) -> tuple[_Compiled, bool]:
        """Return the compiled matrices and whether the cache supplied them."""
        if self._compiled is not None:
            return self._compiled, True
        with current_tracer().span("compile", model=self.name) as span:
            compiled = self._compile_fresh()
            span.set(
                rows=compiled.a.shape[0], cols=compiled.a.shape[1],
                nnz=int(compiled.a.nnz),
                build_seconds=self._build_seconds,
                compile_seconds=self._compile_seconds,
            )
        return compiled, False

    def _compile_fresh(self) -> _Compiled:
        """The actual compile work behind :meth:`_ensure_compiled`."""
        started = time.monotonic()
        self._build_seconds = started - self._created
        self._flush_scalar()
        n = len(self._vars)
        m = self._row_lb.n
        c = np.zeros(n)
        obj_terms = self._objective.terms
        if obj_terms:
            c[
                np.fromiter(obj_terms.keys(), dtype=np.intp, count=len(obj_terms))
            ] = np.fromiter(
                obj_terms.values(), dtype=np.float64, count=len(obj_terms)
            )
        if not self._segments:
            rows = np.empty(0, dtype=np.intp)
            cols = np.empty(0, dtype=np.intp)
            vals = np.empty(0, dtype=np.float64)
        elif len(self._segments) == 1:
            rows, cols, vals = self._segments[0]
        else:
            rows = np.concatenate([s[0] for s in self._segments])
            cols = np.concatenate([s[1] for s in self._segments])
            vals = np.concatenate([s[2] for s in self._segments])
            self._segments = [(rows, cols, vals)]
        # COO -> CSR canonicalizes: duplicates summed, column indices
        # sorted, so scalar- and batch-built models with the same triplet
        # multiset compile to identical matrices.
        a_matrix = sparse.csr_matrix((vals, (rows, cols)), shape=(m, n))

        row_lb = self._row_lb.view()
        row_ub = self._row_ub.view()
        max_abs_coef = float(np.abs(a_matrix.data).max()) if a_matrix.nnz else 0.0
        max_abs_rhs = 0.0
        for arr in (row_lb, row_ub):
            finite = arr[np.isfinite(arr)]
            if finite.size:
                max_abs_rhs = max(max_abs_rhs, float(np.abs(finite).max()))
        compiled = _Compiled(
            c=c,
            a=a_matrix,
            row_lb=row_lb,
            row_ub=row_ub,
            var_lb=np.array(self._var_lb, dtype=np.float64),
            var_ub=np.array(self._var_ub, dtype=np.float64),
            integrality=np.array(self._var_int, dtype=np.uint8),
            max_abs_coef=max_abs_coef,
            max_abs_rhs=max_abs_rhs,
        )
        self._compile_seconds = time.monotonic() - started
        self._compiled = compiled
        return compiled

    def _materialize_constraints(self) -> list[Constraint]:
        """Build Constraint handles for batch-added rows from the CSR."""
        compiled, _ = self._ensure_compiled()
        indptr = compiled.a.indptr
        indices = compiled.a.indices
        data = compiled.a.data
        senses = self._row_sense.view()
        out: list[Constraint] = []
        for i, existing in enumerate(self._row_cons):
            if existing is not None:
                out.append(existing)
                continue
            expr = LinExpr.from_arrays(
                indices[indptr[i] : indptr[i + 1]],
                data[indptr[i] : indptr[i + 1]],
            )
            code = senses[i]
            rhs = compiled.row_ub[i] if code == _LE else compiled.row_lb[i]
            expr.constant = -float(rhs)
            sense = "<=" if code == _LE else (">=" if code == _GE else "==")
            con = Constraint(expr, sense, name=self._row_names[i])
            con.row = i
            out.append(con)
        return out

    # -- solving ----------------------------------------------------------
    def solve(
        self,
        time_limit: float | None = None,
        mip_rel_gap: float | None = None,
        relax: bool = False,
    ) -> SolveResult:
        """Solve the model and return a :class:`SolveResult`.

        Args:
            time_limit: Wall-clock budget in seconds handed to HiGHS.  On
                expiry the best incumbent found so far (if any) is returned
                with status :class:`SolveStatus.TIME_LIMIT` -- this is the
                paper's ``timeout`` feature.  Check
                :attr:`SolveResult.has_solution`: a timeout may carry no
                incumbent at all.
            mip_rel_gap: Relative optimality gap at which branch-and-bound
                may stop early (MILPs only).
            relax: Solve the *LP relaxation* of a MILP -- integrality is
                dropped and the continuous problem is solved instead.  The
                relaxed optimum is a valid bound on the MILP optimum (an
                upper bound for maximization, lower for minimization): the
                analyzer's fallback ladder uses it to report a degradation
                bound when branch-and-bound cannot find any incumbent in
                time.  The returned ``x`` is generally *fractional*; do not
                extract scenarios from it.  No-op for pure LPs.
        """
        compiled, cached = self._ensure_compiled()
        return self._solve(
            compiled, time_limit, mip_rel_gap, incremental=False,
            compile_cached=cached, relaxed=relax and self.is_mip,
        )

    def resolve_with(
        self,
        rhs_overrides: Mapping | None = None,
        bound_overrides: Mapping | None = None,
        *,
        time_limit: float | None = None,
        mip_rel_gap: float | None = None,
    ) -> SolveResult:
        """Re-solve with patched row/variable bounds, reusing the structure.

        The compiled matrix is neither rebuilt nor reloaded: only the
        overridden bounds are changed in the model's HiGHS instance (and
        restored by the next solve that does not override them alike),
        so sweeping a threshold, updating demands, or re-pinning
        variables costs the patch plus the solve.
        The model itself is left unchanged: a later :meth:`solve` sees the
        original bounds.  Overrides that cross (``lb > ub``) or are NaN
        raise :class:`ModelingError`; one HiGHS refuses (an infinite
        lower bound, say) reads as infeasible, like a refused model.

        Args:
            rhs_overrides: ``{row_index: new_rhs}``: integer row indices
                (``con.row``, or from :meth:`add_constrs_batch`), each
                with a float replacing the row's right-hand side (both
                sides of an ``==`` row).
            bound_overrides: ``{column_index: new_ub}``: integer column
                indices (``var.index``), each with a float replacing the
                column's upper bound (the "cap this flow" case).
            time_limit / mip_rel_gap: As in :meth:`solve`.
        """
        compiled, _ = self._ensure_compiled()
        rows: dict[int, tuple] = {}
        if rhs_overrides:
            row_lb, row_ub = compiled.row_lb, compiled.row_ub
            senses = self._row_sense.view()
            m = row_lb.size
            for key, value in rhs_overrides.items():
                i = int(key)
                if not 0 <= i < m:
                    raise ModelingError(f"row index {i} out of range [0, {m})")
                code = senses[i]
                v = float(value)
                lo = row_lb[i] if code == _LE else v
                hi = row_ub[i] if code == _GE else v
                _check_patch("row", i, lo, hi)
                rows[i] = (lo, hi)
        cols: dict[int, tuple] = {}
        if bound_overrides:
            var_lb = compiled.var_lb
            n = var_lb.size
            for key, value in bound_overrides.items():
                j = int(key)
                if not 0 <= j < n:
                    raise ModelingError(
                        f"column index {j} out of range [0, {n})"
                    )
                lo, hi = var_lb[j], float(value)
                _check_patch("column", j, lo, hi)
                cols[j] = (lo, hi)
        return self._solve(
            compiled, time_limit, mip_rel_gap, incremental=True,
            compile_cached=True, rows=rows, cols=cols,
        )

    def _make_stats(
        self,
        compiled: _Compiled,
        backend: str,
        solve_seconds: float,
        dual_mode: str,
        incremental: bool,
        compile_cached: bool,
        search: dict | None = None,
    ) -> SolveStats:
        return SolveStats(
            rows=compiled.a.shape[0],
            cols=compiled.a.shape[1],
            nnz=int(compiled.a.nnz),
            num_integer=self._num_integer,
            build_seconds=self._build_seconds,
            compile_seconds=0.0 if compile_cached else self._compile_seconds,
            solve_seconds=solve_seconds,
            backend=backend,
            max_abs_coefficient=compiled.max_abs_coef,
            max_abs_rhs=compiled.max_abs_rhs,
            dual_mode=dual_mode,
            incremental=incremental,
            compile_cached=compile_cached,
            **(search or {}),
        )

    def _solve(
        self, compiled, time_limit, mip_rel_gap, incremental, compile_cached,
        relaxed: bool = False, rows=None, cols=None,
    ) -> SolveResult:
        """Solve ``compiled``, with ``rows``/``cols`` bounds patched over
        it, as a MILP when the model has integer columns (unless
        ``relaxed``), else as an LP with duals."""
        integer = self.is_mip and not relaxed
        if integer:
            backend, span_name, span_attrs = "milp", "milp_solve", {}
        else:
            backend = "linprog-relaxation" if relaxed else "linprog"
            span_name, span_attrs = "lp_solve", {"relaxed": relaxed}
            mip_rel_gap = None

        if integer and maybe_fire("solver.time_limit", key=self.name):
            # Chaos: HiGHS expired without finding any feasible point.
            # Mirrors the real incumbent-free TIME_LIMIT shape exactly so
            # the analyzer's fallback ladder can be exercised on models
            # that would otherwise solve instantly.
            return SolveResult(
                status=SolveStatus.TIME_LIMIT,
                objective=float("nan"),
                x=None,
                duals=None,
                solve_seconds=0.0,
                message="time limit reached with no incumbent solution; "
                        "(chaos-injected)",
                stats=self._make_stats(
                    compiled, backend, 0.0, "none", incremental,
                    compile_cached,
                ),
            )

        sign = -1.0 if self._sense == "max" else 1.0
        with current_tracer().span(
            span_name, model=self.name, incremental=incremental, **span_attrs
        ) as span:
            started = time.monotonic()
            session = self._sessions.get(integer)
            if session is None:
                session = _HighsSession(
                    compiled.a.tocsc(), sign * compiled.c, compiled, integer)
                self._sessions[integer] = session
            out = session.run(time_limit, mip_rel_gap, rows, cols)
            elapsed = time.monotonic() - started
            search = None
            if out.search is not None:
                nodes, iterations, bound = out.search
                # The bound in the model's own sense, like the objective;
                # None when branch-and-bound proved none.
                bound = sign * bound + self._objective.constant
                search = dict(
                    mip_node_count=nodes, simplex_iterations=iterations,
                    mip_dual_bound=bound if np.isfinite(bound) else None,
                )
            span.set(solve_seconds=elapsed, status=out.status.value,
                     **(search or {}))
        solved = out.x is not None
        objective = (
            float(sign * out.objective) + self._objective.constant
            if solved
            else float("nan")
        )
        message = out.message
        if relaxed:
            message = f"LP relaxation (integrality dropped); {message}"
        elif integer and out.status is SolveStatus.TIME_LIMIT and not solved:
            message = f"time limit reached with no incumbent solution; {message}"
        duals = sign * out.row_dual if out.row_dual is not None else None
        return SolveResult(
            status=out.status,
            objective=objective,
            x=out.x,
            duals=duals,
            mip_gap=out.mip_gap,
            solve_seconds=elapsed,
            message=message,
            stats=self._make_stats(
                compiled, backend, elapsed,
                "lp" if duals is not None else "none",
                incremental, compile_cached, search,
            ),
        )

    def __repr__(self):
        kind = "MILP" if self.is_mip else "LP"
        return (
            f"Model({self.name!r}, {kind}, {self.num_vars} vars, "
            f"{self.num_constraints} constraints)"
        )
