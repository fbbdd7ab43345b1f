"""Failure scenarios, probabilities, enumeration, and trace estimation.

* :mod:`repro.failures.scenario` -- concrete failure scenarios, their
  application to a topology (residual capacities, down paths, fail-over
  activation), and failed-network *simulation*.
* :mod:`repro.failures.probability` -- scenario probabilities, the
  log-linear probability-threshold arithmetic of Section 5.1, Figure 2's
  max-simultaneous-failure computation, and the renewal-reward estimator
  of Appendix B.
* :mod:`repro.failures.enumeration` -- exhaustive up-to-k failure
  analysis, the baseline every evaluation figure compares against.
* :mod:`repro.failures.availability` and
  :mod:`repro.failures.montecarlo` -- the Monte Carlo availability
  engine, the expected-case complement to Raha's worst case: batched
  sampling, up-front dedup, chunked worker evaluation and a persistent
  delivered-flow cache, with ``estimate_availability`` as its
  in-process front end.
* :mod:`repro.failures.tracegen` -- synthetic link up/down event traces
  with known ground-truth probabilities (stand-in for production data).
"""

from repro.failures.availability import (
    ScenarioSampler,
    availability_task,
    estimate_availability_parallel,
)
from repro.failures.enumeration import enumerate_scenarios, worst_case_k_failures
from repro.failures.montecarlo import (
    ScenarioResolver,
    estimate_availability,
    sample_scenario,
)
from repro.failures.probability import (
    RenewalRewardEstimator,
    max_simultaneous_failures,
    scenario_log_probability,
    scenario_probability,
)
from repro.failures.scenario import FailureScenario, simulate_failed_network

__all__ = [
    "FailureScenario",
    "RenewalRewardEstimator",
    "ScenarioResolver",
    "ScenarioSampler",
    "availability_task",
    "enumerate_scenarios",
    "estimate_availability",
    "estimate_availability_parallel",
    "max_simultaneous_failures",
    "scenario_log_probability",
    "sample_scenario",
    "scenario_probability",
    "simulate_failed_network",
    "worst_case_k_failures",
]
