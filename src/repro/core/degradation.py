"""Result types for degradation analysis."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.failures.scenario import FailureScenario
from repro.network.demand import DemandMatrix


@dataclass
class DegradationResult:
    """What Raha found: the worst demand/failure pair and the gap.

    Attributes:
        degradation: Healthy-network performance minus failed-network
            performance.  For the total-flow objective this is dropped
            traffic (the paper's headline metric); for MLU it is the
            utilization *increase* ``U_failed - U_healthy``.
        normalized_degradation: ``degradation`` divided by the average LAG
            capacity -- the unit every figure in the paper reports.
        demands: The demand matrix achieving the worst case (the input
            matrix in fixed mode; the adversary's choice in joint mode).
        scenario: The failure scenario achieving the worst case.
        healthy_value / failed_value: The two inner objectives.
        scenario_probability: Probability of the scenario (``None`` when
            the topology has no link probabilities).
        status: Final solver status string (``"optimal"`` or
            ``"time_limit"`` -- a time-limited result is the incumbent).
        solve_seconds: Time inside the MILP solver.
        encode_seconds: Time spent building the MILP: the failure
            encoding, both inner problems, the KKT embedding of the
            adversarial one and the objective.
        path_seconds: Path computation time (the paper includes it in
            reported runtimes).
        verified: Whether post-solve verification ran and passed.
        num_binaries / num_variables / num_constraints: Model size, for
            the scaling analysis (Figure 10's discussion).
        solver_stats: The MILP's per-solve telemetry
            (:meth:`repro.solver.result.SolveStats.to_dict` -- build /
            compile / solve wall times, matrix size, big-M magnitudes),
            or ``None`` for results from older runs.
    """

    #: Distinguishes a full result from a :class:`PartialResult` without
    #: isinstance checks (handy on serialized/duck-typed results).
    is_partial = False

    degradation: float
    normalized_degradation: float
    demands: DemandMatrix
    scenario: FailureScenario
    healthy_value: float
    failed_value: float
    scenario_probability: float | None = None
    status: str = "optimal"
    solve_seconds: float = 0.0
    encode_seconds: float = 0.0
    path_seconds: float = 0.0
    verified: bool = False
    num_binaries: int = 0
    num_variables: int = 0
    num_constraints: int = 0
    solver_stats: dict | None = None
    notes: list[str] = field(default_factory=list)

    @property
    def total_seconds(self) -> float:
        """End-to-end runtime: paths + encoding + solving."""
        return self.solve_seconds + self.encode_seconds + self.path_seconds

    def summary(self) -> str:
        """One-line human-readable summary."""
        prob = (
            f", p={self.scenario_probability:.2e}"
            if self.scenario_probability is not None
            else ""
        )
        return (
            f"degradation={self.degradation:.4g} "
            f"(normalized {self.normalized_degradation:.4g}) with "
            f"{self.scenario.num_failed_links} failed links{prob}; "
            f"healthy={self.healthy_value:.4g} failed={self.failed_value:.4g} "
            f"[{self.status}, {self.total_seconds:.2f}s]"
        )


@dataclass
class PartialResult:
    """A *bound* on the worst degradation, from the solver fallback ladder.

    Produced instead of a :class:`SolverError` when the Raha MILP hits
    its time limit with no incumbent, every escalated retry does too,
    and the analysis runs with ``ResilienceConfig.allow_partial=True``:
    the LP relaxation's optimum is a provably valid *bound* on the MILP
    optimum (integrality only shrinks the feasible set), so "degradation
    cannot exceed ``bound``" is still a sound, reportable statement even
    though the exact worst case is unknown.

    What a partial result does NOT carry: a witness.  The relaxation's
    solution is fractional, so there is no demand matrix, no failure
    scenario, and no simulation cross-check -- only the bound and the
    provenance of how it was obtained.

    Attributes:
        bound: Bound on the degradation objective (an upper bound --
            maximization MILP).  In ``minimize_performance`` mode the
            objective is the negated failed-network performance, so the
            bound applies to that raw objective; the provenance records
            the mode.
        normalized_bound: ``bound`` divided by the average LAG capacity
            (``bound`` itself for MLU, matching
            :attr:`DegradationResult.normalized_degradation`).
        objective: The analysis objective (``total_flow``/``mlu``/...).
        status: Always ``"partial"``.
        provenance: Human-readable trail of the ladder: the original
            timeout, each escalated retry, and the relaxation solve.
        time_limits_tried: MILP time limits attempted, in order.
        solve_seconds: Total solver time across ladder rungs.
        encode_seconds: Time spent building the MILP (once), the KKT
            embedding included.
        solver_stats: Telemetry of the relaxation solve, or ``None``.
    """

    is_partial = True

    bound: float
    normalized_bound: float
    objective: str = "total_flow"
    status: str = "partial"
    provenance: list[str] = field(default_factory=list)
    time_limits_tried: list[float] = field(default_factory=list)
    solve_seconds: float = 0.0
    encode_seconds: float = 0.0
    solver_stats: dict | None = None

    def summary(self) -> str:
        """One-line human-readable summary."""
        limits = ", ".join(f"{t:g}s" for t in self.time_limits_tried)
        return (
            f"PARTIAL: degradation <= {self.bound:.4g} "
            f"(normalized {self.normalized_bound:.4g}) via LP relaxation; "
            f"no incumbent within time limits [{limits}]"
        )
