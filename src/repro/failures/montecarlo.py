"""Monte Carlo availability: the estimate, its reference pieces, the resolver.

Raha answers the *worst case* question; operators also track the
*expected* picture ("we aim to provide > 4-9's availability", Section 2.2).
A Monte Carlo campaign samples failure scenarios from the per-link
probabilities (respecting SRLG fate-sharing), simulates each with the
same TE code path the rest of the repository uses, and estimates:

* the expected degradation,
* the probability that degradation exceeds an operator threshold,
* traffic availability (delivered / offered over the scenario mix).

The worst sampled scenario is also reported -- a useful sanity check
against the analyzer's exact worst case (sampling should never beat it).

The campaign itself runs in one engine,
:func:`repro.failures.availability.estimate_availability_parallel`.
This module holds what that engine builds on: the
:class:`AvailabilityEstimate` result, the :class:`ScenarioResolver`
that re-solves the failed-network LP per scenario, the scalar
:func:`sample_scenario` the vectorized sampler is tested against, and
:func:`estimate_availability`, the engine's in-process front end.
"""

from __future__ import annotations

import logging
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from repro.core.config import MonteCarloConfig
from repro.exceptions import TopologyError
from repro.failures.scenario import FailureScenario
from repro.network.demand import Pair
from repro.network.topology import LagKey, Topology, lag_key
from repro.obs.metrics import metrics
from repro.paths.pathset import PathSet
from repro.resilience.faults import active_plan, maybe_fire
from repro.solver import LinExpr, Model
from repro.te.base import validate_te_inputs

logger = logging.getLogger(__name__)


@dataclass
class AvailabilityEstimate:
    """The outcome of a Monte Carlo availability run.

    Attributes:
        expected_degradation: Mean healthy-minus-failed traffic.
        availability: Mean delivered / healthy traffic over samples.
        exceedance_probability: Fraction of samples whose degradation
            exceeded the caller's threshold.
        worst_sampled: Largest sampled degradation.
        worst_scenario: A scenario achieving ``worst_sampled``.
        samples: Number of scenarios simulated.
        healthy_flow: The design point's delivered traffic.
        distinct_scenarios: Distinct canonical scenarios among the
            samples (each solved exactly once).
        cache_hits: Scenarios answered from a persistent delivered-flow
            cache (0 when the campaign runs without one).
        fresh_solves: Scenarios that required an LP solve this run.
        chunk_fallbacks: Worker chunks that failed (chaos, crash, ...)
            and were re-evaluated in the parent process.
        rounds: Sampling rounds taken (> 1 only under adaptive
            ``ci_width`` stopping).
        ci_width: Achieved width of the normal-approximation confidence
            interval on availability (``None`` when not computed).
    """

    expected_degradation: float
    availability: float
    exceedance_probability: float
    worst_sampled: float
    worst_scenario: FailureScenario
    samples: int
    healthy_flow: float
    degradations: list[float] = field(default_factory=list, repr=False)
    distinct_scenarios: int = 0
    cache_hits: int = 0
    fresh_solves: int = 0
    chunk_fallbacks: int = 0
    rounds: int = 1
    ci_width: float | None = None

    def quantile(self, q: float) -> float:
        """The q-quantile of the sampled degradation distribution."""
        if not (0.0 <= q <= 1.0):
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        return float(np.quantile(self.degradations, q))


def sample_scenario(topology: Topology, rng: np.random.Generator
                    ) -> FailureScenario:
    """Draw one failure scenario from the link-state distribution.

    SRLGs with a group probability are drawn as one Bernoulli event for
    the whole group; remaining links are independent Bernoullis.

    This is the scalar reference for
    :class:`~repro.failures.availability.ScenarioSampler`, which draws
    whole batches from the same RNG stream; the tests compare the two
    draw for draw.
    """
    failed = []
    grouped: dict[tuple, int] = {}
    for gid, srlg in enumerate(topology.srlgs):
        if srlg.failure_probability is None:
            continue
        for member in srlg.members:
            grouped[(lag_key(*member[0]), member[1])] = gid
    group_state: dict[int, bool] = {}
    for gid, srlg in enumerate(topology.srlgs):
        if srlg.failure_probability is not None:
            group_state[gid] = bool(rng.uniform() < srlg.failure_probability)

    for lag in topology.lags:
        for i, link in enumerate(lag.links):
            gid = grouped.get((lag.key, i))
            if gid is not None:
                # A fate-sharing group draw still cannot take down a
                # link marked can_fail=False (planned-immune capacity
                # stays up even when its conduit is cut).
                if group_state[gid] and link.can_fail:
                    failed.append((lag.key, i))
                continue
            p = link.failure_probability
            if p is None:
                if not link.can_fail:
                    continue
                raise TopologyError(
                    f"link {i} of LAG {lag.key} has no failure probability"
                )
            if link.can_fail and rng.uniform() < p:
                failed.append((lag.key, i))
    return FailureScenario(failed)


class ScenarioResolver:
    """Failed-network TE that compiles its LP once and re-solves per scenario.

    :func:`repro.failures.scenario.simulate_failed_network` rebuilds the
    whole TE model for every scenario; over a Monte Carlo run that is
    thousands of identical matrix assemblies.  This class builds the LP
    over *all* configured paths once, then expresses each scenario purely
    as bound patches via :meth:`repro.solver.model.Model.resolve_with`:

    * a LAG that lost a link gets its capacity row set to the residual
      capacity;
    * a path disallowed by the fail-over policy (Eq. 5) gets its flow
      variable's upper bound pinned to zero.

    The patches come from arrays built once here: a flat table of every
    physical link and its LAG, a path x LAG incidence, and each demand's
    run of path columns.  A scenario is then its failed links' rows in
    that table, the LAGs it takes fully down (Eq. 3), the paths those
    cross (Eq. 4), and an exclusive running count of down paths within
    each demand (Eq. 5).  Residual capacities keep the left-to-right sum
    over surviving links, so the numbers are bit-identical to
    :meth:`FailureScenario.residual_capacities`.

    The optimum is identical to ``simulate_failed_network`` with the
    default :class:`TotalFlowTE(primary_only=False)` solver: an allowed
    path's baseline bound of the pair's demand volume is already implied
    by the demand row.
    """

    def __init__(
        self,
        topology: Topology,
        demands: dict[Pair, float],
        paths: PathSet,
    ):
        validate_te_inputs(topology, demands, paths)
        self.topology = topology
        self.demands = dict(demands)
        self.paths = paths

        # Flat link table: link k is link i of LAG _link_lag[k], found by
        # _link_index[(lag key, i)].
        lags = topology.lags
        lag_pos = {lag.key: pos for pos, lag in enumerate(lags)}
        self._lag_keys = [lag.key for lag in lags]
        self._link_caps = [[link.capacity for link in lag.links] for lag in lags]
        self._link_index: dict[tuple[LagKey, int], int] = {}
        link_lag: list[int] = []
        for pos, lag in enumerate(lags):
            for i in range(lag.num_links):
                self._link_index[(lag.key, i)] = len(link_lag)
                link_lag.append(pos)
        self._link_lag = np.array(link_lag, dtype=np.intp)
        self._lag_size = np.array([lag.num_links for lag in lags], dtype=np.intp)

        model = Model("scenario-resolver")
        per_lag: dict[int, list[int]] = defaultdict(list)
        crossings: list[tuple[int, int]] = []
        # Per path column: the first column of its demand's run, and how
        # many of the paths before it in that run must be down for it to
        # carry traffic (0 for primaries, r for the r-th backup).
        seg_start: list[int] = []
        needed: list[int] = []
        dem_cols: list[int] = []
        dem_indptr: list[int] = [0]
        dem_rhs: list[float] = []
        for pair, volume in self.demands.items():
            dp = paths[pair]
            first = model.num_vars
            for j, path in enumerate(dp.paths):
                var = model.add_var(
                    ub=max(volume, 0.0),
                    name=f"f[{pair}][{'-'.join(path)}]",
                )
                dem_cols.append(var.index)
                seg_start.append(first)
                needed.append(max(j - dp.num_primary + 1, 0))
                for lag in topology.lags_on_path(path):
                    per_lag[lag_pos[lag.key]].append(var.index)
                    crossings.append((var.index, lag_pos[lag.key]))
            if len(dem_cols) > dem_indptr[-1]:
                dem_indptr.append(len(dem_cols))
                dem_rhs.append(volume)
        if dem_rhs:
            model.add_constrs_batch(
                dem_indptr, dem_cols, rhs=dem_rhs, name="dem"
            )
        # Capacity row of each LAG a path crosses (-1: none does).  Its
        # rhs is the same left-to-right sum residual capacities use, so
        # a LAG that lost no link needs no patch.
        self._lag_row = np.full(len(lags), -1, dtype=np.intp)
        if per_lag:
            lag_cols: list[int] = []
            lag_indptr: list[int] = [0]
            for cols_on_lag in per_lag.values():
                lag_cols.extend(cols_on_lag)
                lag_indptr.append(len(lag_cols))
            rows = model.add_constrs_batch(
                lag_indptr, lag_cols,
                rhs=[sum(self._link_caps[pos]) for pos in per_lag],
                name="cap",
            )
            self._lag_row[list(per_lag)] = rows
        self._incidence = np.zeros((model.num_vars, len(lags)), dtype=bool)
        if crossings:
            self._incidence[tuple(np.array(crossings).T)] = True
        self._seg_start = np.array(seg_start, dtype=np.intp)
        self._needed = np.array(needed, dtype=np.intp)
        self._backups = dict.fromkeys(np.flatnonzero(self._needed).tolist(), 0.0)
        model.set_objective(
            LinExpr.from_arrays(
                np.arange(model.num_vars, dtype=np.intp),
                np.ones(model.num_vars),
            ),
            sense="max",
        )
        self._model = model

    def _patches(self, scenario: FailureScenario) -> tuple[dict, dict]:
        """``scenario`` as ``resolve_with`` overrides: ``{row: residual
        capacity}`` and ``{column: 0.0}`` for disallowed paths."""
        failed = scenario.failed_links
        if not failed:
            return {}, self._backups
        try:
            links = np.fromiter(
                (self._link_index[link] for link in failed),
                dtype=np.intp, count=len(failed),
            )
        except KeyError:
            scenario.validate_for(self.topology)
            raise TopologyError(
                f"{scenario!r} fails a link not in the topology"
            ) from None
        lost = np.bincount(self._link_lag[links], minlength=self._lag_size.size)
        rhs_overrides = {}
        for pos in np.flatnonzero((lost > 0) & (self._lag_row >= 0)).tolist():
            key = self._lag_keys[pos]
            rhs_overrides[int(self._lag_row[pos])] = sum(
                cap for i, cap in enumerate(self._link_caps[pos])
                if (key, i) not in failed
            )
        down = lost == self._lag_size
        if not down.any():
            return rhs_overrides, self._backups
        path_down = self._incidence[:, down].any(axis=1).astype(np.intp)
        down_before = np.cumsum(path_down) - path_down
        down_before -= down_before[self._seg_start]
        blocked = np.flatnonzero(down_before < self._needed)
        return rhs_overrides, dict.fromkeys(blocked.tolist(), 0.0)

    def delivered(self, scenario: FailureScenario) -> float:
        """Total traffic routed under ``scenario``.

        Uses the compiled model's incremental re-solve; if that fails
        (solver error, or a chaos-injected ``resolver.resolve`` fault),
        falls back to a fresh :func:`simulate_failed_network`-style solve
        of the scenario rather than silently reporting 0.0 delivered --
        an all-paths-down answer would skew every availability statistic
        downstream.  (A genuinely infeasible scenario delivers 0.0 from
        the fallback too, which is the correct value, not a guess.)

        Raises:
            TopologyError: ``scenario`` fails a link the topology lacks.
        """
        rhs_overrides, bound_overrides = self._patches(scenario)
        failure = None
        # The chaos key is the scenario's repr, built only under a plan.
        if active_plan() is not None and maybe_fire(
                "resolver.resolve", key=repr(scenario)):
            failure = "chaos-injected resolver failure"
        else:
            try:
                result = self._model.resolve_with(
                    rhs_overrides=rhs_overrides,
                    bound_overrides=bound_overrides,
                )
            except Exception as exc:
                failure = f"{type(exc).__name__}: {exc}"
            else:
                if result.status.ok and result.x is not None:
                    return float(result.objective)
                if result.status.value == "infeasible":
                    # A real infeasibility (demands cannot be routed at
                    # all) delivers nothing; no fallback needed.
                    return 0.0
                failure = f"re-solve ended with {result.status.value}"
        metrics().counter("resolver.fallbacks").inc()
        logger.warning(
            "scenario resolver failed (%s); falling back to a fresh solve "
            "for this scenario", failure,
        )
        return self._delivered_fresh(scenario)

    def _delivered_fresh(self, scenario: FailureScenario) -> float:
        """The non-incremental answer: rebuild and solve from scratch."""
        from repro.failures.scenario import simulate_failed_network

        outcome = simulate_failed_network(
            self.topology, self.demands, self.paths, scenario
        )
        return float(outcome.total_flow) if outcome.feasible else 0.0


def estimate_availability(
    topology: Topology,
    demands: dict[Pair, float],
    paths: PathSet,
    samples: int = 200,
    degradation_threshold: float = 0.0,
    seed: int = 0,
) -> AvailabilityEstimate:
    """Monte Carlo estimate of expected degradation and availability.

    The in-process, uncached front end of
    :func:`repro.failures.availability.estimate_availability_parallel`:
    one worker, no persistent delivered-flow cache, a fixed sample count.

    Args:
        topology: The WAN (all failable links need probabilities).
        demands: Offered traffic.
        paths: Configured primary/backup paths.
        samples: Scenario draws.
        degradation_threshold: The exceedance statistic's threshold
            (same units as demands).
        seed: RNG seed.
    """
    if samples < 1:
        raise ValueError(f"need at least one sample, got {samples}")
    # Imported here: repro.failures.availability imports this module.
    from repro.failures.availability import estimate_availability_parallel

    return estimate_availability_parallel(
        topology, demands, paths,
        MonteCarloConfig(samples=samples, seed=seed,
                         degradation_threshold=degradation_threshold,
                         num_workers=1),
    )
