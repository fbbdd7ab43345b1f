"""repro: a from-scratch reproduction of Raha (SIGCOMM 2025).

Raha analyzes the probable worst-case *degradation* of a traffic-
engineered WAN: the joint failure scenario and demand matrix that
maximize the gap between the healthy network's performance and the same
network under failure, via a MetaOpt-style bi-level optimization.

Quickstart::

    from repro import (
        PathSet, RahaAnalyzer, RahaConfig, demand_envelope, gravity_demands,
    )
    from repro.network.zoo import b4

    topology = b4()
    pairs = [("s1", "s12"), ("s3", "s10")]
    paths = PathSet.k_shortest(topology, pairs, num_primary=2, num_backup=1)
    demands = gravity_demands(topology, scale=2000, pairs=pairs)
    config = RahaConfig(
        demand_bounds=demand_envelope(demands, slack=30),
        probability_threshold=1e-4,
    )
    result = RahaAnalyzer(topology, paths, config).analyze()
    print(result.summary())

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-figure reproduction index.
"""

from repro.core.alerts import Alert, AlertPipeline, AlertSeverity
from repro.core.analyzer import RahaAnalyzer
from repro.core.augment import (
    AugmentResult,
    augment_existing_lags,
    augment_new_lags,
)
from repro.core.config import (
    RahaConfig,
    ResilienceConfig,
    RunnerConfig,
)
from repro.core.degradation import DegradationResult, PartialResult
from repro.exceptions import (
    InfeasibleError,
    ModelingError,
    PathError,
    ReproError,
    SolverError,
    TopologyError,
    VerificationError,
)
from repro.failures.enumeration import worst_case_k_failures
from repro.failures.montecarlo import estimate_availability
from repro.failures.probability import max_simultaneous_failures
from repro.failures.scenario import FailureScenario, simulate_failed_network
from repro.metaopt.clustering import analyze_with_clustering, cluster_nodes
from repro.network.demand import (
    DemandMatrix,
    demand_envelope,
    gravity_demands,
    synthesize_monthly_demands,
)
from repro.network.srlg import Srlg
from repro.network.topology import Lag, Link, Topology
from repro.paths.pathset import DemandPaths, PathSet
from repro.resilience.faults import FaultPlan, FaultPoint
from repro.runner.executor import run_sweep
from repro.runner.jobs import Job, SweepSpec

__version__ = "1.0.0"

__all__ = [
    "Alert",
    "AlertPipeline",
    "AlertSeverity",
    "AugmentResult",
    "DegradationResult",
    "DemandMatrix",
    "DemandPaths",
    "FailureScenario",
    "FaultPlan",
    "FaultPoint",
    "InfeasibleError",
    "Job",
    "Lag",
    "Link",
    "ModelingError",
    "PartialResult",
    "PathError",
    "PathSet",
    "RahaAnalyzer",
    "RahaConfig",
    "ReproError",
    "ResilienceConfig",
    "RunnerConfig",
    "SolverError",
    "Srlg",
    "SweepSpec",
    "Topology",
    "TopologyError",
    "VerificationError",
    "analyze_with_clustering",
    "augment_existing_lags",
    "augment_new_lags",
    "cluster_nodes",
    "demand_envelope",
    "estimate_availability",
    "gravity_demands",
    "max_simultaneous_failures",
    "run_sweep",
    "simulate_failed_network",
    "synthesize_monthly_demands",
    "worst_case_k_failures",
]
