"""Solve results, statuses, and telemetry returned by the solver layer."""

from __future__ import annotations

import enum
import numbers
from dataclasses import asdict, dataclass, field

import numpy as np

from repro.solver.expr import LinExpr, Var


class SolveStatus(enum.Enum):
    """Outcome of a solve call.

    ``TIME_LIMIT`` mirrors the paper's use of MetaOpt's ``timeout`` feature
    (Section 6): the solver was stopped early but may still carry a feasible
    incumbent, in which case :attr:`SolveResult.has_solution` is true.
    """

    OPTIMAL = "optimal"
    TIME_LIMIT = "time_limit"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    ERROR = "error"

    @property
    def ok(self) -> bool:
        """Whether the status may carry a usable solution."""
        return self in (SolveStatus.OPTIMAL, SolveStatus.TIME_LIMIT)


@dataclass(frozen=True)
class SolveStats:
    """Per-solve telemetry: where the time went and how big the model was.

    Attached to every :class:`SolveResult` so callers (the analyzer, the
    sweep runner, the CLI's ``--stats`` flag) can attribute wall time to
    build vs. compile vs. solve and spot numerically risky encodings.

    Attributes:
        rows / cols / nnz: Compiled constraint-matrix dimensions.
        num_integer: Integer (including binary) variable count.
        build_seconds: Wall time from model creation to first compile --
            the modeling-layer cost of assembling the formulation.
        compile_seconds: Time spent turning the model into CSR matrices
            (zero when the compile cache was reused).
        solve_seconds: Time inside the HiGHS call: passing options and
            the model to a fresh HiGHS instance, solving, and reading the
            solution back (the first solve after a compile also makes the
            CSC copy of the matrix that HiGHS takes).
        backend: What was solved: ``"milp"`` (a MILP), ``"linprog"`` (an
            LP) or ``"linprog-relaxation"`` (a MILP's LP relaxation).  All
            three run HiGHS directly; the names are kept from when LPs went
            through scipy's ``linprog``, because stored results and
            journals carry them.
        max_abs_coefficient: Largest coefficient magnitude in the matrix
            -- a proxy for big-M magnitudes (large values flag loose
            linearizations that invite numerical trouble).
        max_abs_rhs: Largest finite row-bound magnitude.
        dual_mode: Where duals came from: ``"lp"`` (HiGHS's row duals,
            one per model row) or ``"none"`` (MILPs, and LPs without a
            solution).
        incremental: Whether this was a :meth:`Model.resolve_with`
            re-solve reusing the compiled structure.
        compile_cached: Whether the compile cache supplied the matrices.
        mip_node_count: Branch-and-bound nodes HiGHS explored (MILPs
            only; ``None`` for LPs and relaxations).
        simplex_iterations: Simplex iterations over the whole
            branch-and-bound (MILPs only).
        mip_dual_bound: The proven bound on the optimum, in the model's
            own sense (MILPs only; ``None`` also when HiGHS proved no
            finite bound).  With the objective it gives the final gap.
    """

    rows: int
    cols: int
    nnz: int
    num_integer: int
    build_seconds: float
    compile_seconds: float
    solve_seconds: float
    backend: str
    max_abs_coefficient: float
    max_abs_rhs: float
    dual_mode: str
    incremental: bool = False
    compile_cached: bool = False
    mip_node_count: int | None = None
    simplex_iterations: int | None = None
    mip_dual_bound: float | None = None

    @property
    def total_seconds(self) -> float:
        """Compile plus solve time (build overlaps caller code)."""
        return self.compile_seconds + self.solve_seconds

    def to_dict(self) -> dict:
        """A JSON-serializable form (sweep results, journals, caches)."""
        return asdict(self)

    def summary(self) -> str:
        """One-line human-readable form."""
        return (
            f"{self.rows}x{self.cols} ({self.nnz} nnz, "
            f"{self.num_integer} int) via {self.backend}: "
            f"build {self.build_seconds:.3f}s, "
            f"compile {self.compile_seconds:.3f}s"
            f"{' (cached)' if self.compile_cached else ''}, "
            f"solve {self.solve_seconds:.3f}s"
            f"{' (incremental)' if self.incremental else ''}; "
            f"|A|max {self.max_abs_coefficient:g}, "
            f"|b|max {self.max_abs_rhs:g}, duals {self.dual_mode}"
        )


@dataclass
class SolveResult:
    """The outcome of solving a model.

    Attributes:
        status: Terminal solver status.
        objective: Objective value in the model's own sense (max problems
            report the maximum), or ``nan`` when no solution exists.
        x: Variable values in column order, or ``None`` without a solution.
        duals: One dual value per constraint row for solved LPs
            (``None`` for MILPs): HiGHS's row dual times the objective
            sign, i.e. d(objective)/d(row bound).  Signs follow the
            model's stated sense: for a maximization, the dual of a
            binding ``<=`` constraint is nonnegative.
        mip_gap: Relative MIP gap reported by HiGHS when available.
        solve_seconds: Wall-clock time spent inside the backend call.
        stats: Per-solve :class:`SolveStats` telemetry (``None`` only for
            results constructed by hand, e.g. in tests).
    """

    status: SolveStatus
    objective: float = float("nan")
    x: np.ndarray | None = None
    duals: np.ndarray | None = None
    mip_gap: float | None = None
    solve_seconds: float = 0.0
    message: str = ""
    stats: SolveStats | None = None
    _names: list[str] = field(default_factory=list, repr=False)

    @property
    def has_solution(self) -> bool:
        """Whether variable values are available.

        A :class:`SolveStatus.TIME_LIMIT` result *without* an incumbent
        (the solver expired before finding any feasible point) reports
        ``False`` here -- callers must check this before trusting a
        timeout result, since ``objective`` is ``nan`` in that case.
        """
        return self.x is not None

    def value(self, item) -> float:
        """Evaluate a variable or linear expression at the solution."""
        if self.x is None:
            raise ValueError(f"no solution available (status={self.status})")
        if isinstance(item, Var):
            return float(self.x[item.index])
        if isinstance(item, LinExpr):
            total = item.constant
            for idx, coef in item.terms.items():
                total += coef * self.x[idx]
            return float(total)
        if isinstance(item, numbers.Real):
            return float(item)
        raise TypeError(f"cannot evaluate {item!r}")

    def values(self, items) -> list[float]:
        """Evaluate a sequence of variables/expressions at the solution."""
        return [self.value(item) for item in items]

    def require_ok(self) -> SolveResult:
        """Raise :class:`repro.exceptions.SolverError` unless usable.

        Returns self so calls can be chained:
        ``result = model.solve().require_ok()``.
        """
        from repro.exceptions import SolverError

        if not self.status.ok or self.x is None:
            raise SolverError(
                f"solve failed: status={self.status.value} message={self.message!r}"
            )
        return self
