"""The Monte Carlo availability engine.

Every availability estimate -- the CLI verb, the service task, the
benchmarks and :func:`repro.failures.montecarlo.estimate_availability`
(its in-process front end) -- runs through
:func:`estimate_availability_parallel`:

* **Vectorized sampling** -- all ``samples x links`` Bernoulli states
  come from *one* RNG matrix call (SRLG group draws included), then
  rows are canonicalized and deduplicated up front so each distinct
  scenario is solved exactly once.  The sampler consumes the exact
  same RNG stream as the scalar reference
  :func:`~repro.failures.montecarlo.sample_scenario` (NumPy's
  ``Generator.random(shape)`` fills rows with the doubles successive
  scalar ``uniform()`` calls would return), so both see bit-identical
  scenario sequences for a given seed.
* **Parallel evaluation** -- distinct scenarios are partitioned into
  fixed-size chunks dispatched through the sweep runner
  (:func:`repro.runner.executor.run_sweep`): per-chunk wall timeouts,
  bounded retries, and chaos sites all apply.  Each worker compiles
  one :class:`~repro.failures.montecarlo.ScenarioResolver` per chunk
  and streams delivered flows back.  The chunk partition depends only
  on the sample stream and ``chunk_size`` -- never on the worker
  count -- and results merge by scenario identity, so the estimate is
  **bit-identical regardless of ``--jobs``**.
* **Persistent memoization** -- delivered flow is content-addressed by
  ``(topology, demands, paths, scenario)`` through
  :mod:`repro.runner.cache`, so repeated campaigns (threshold sweeps,
  service resubmissions) skip already-solved scenarios entirely.  The
  key is built from the sampled failure-matrix row
  (:meth:`ScenarioSampler.delivered_keyer`) yet equals
  :func:`scenario_cache_key` of the scenario's document, so no
  scenario object or document exists for a cache hit.  The healthy
  flow is memoized per instance in the same cache, so a warm re-run
  solves no LP at all.  Without a cache no key is computed.  Fresh
  entries are written behind the solves (:meth:`ResultCache.writer`)
  and are all on disk when the estimate returns.
* **Adaptive stopping** -- an optional ``ci_width`` target keeps
  drawing rounds of samples until the normal-approximation confidence
  interval on availability is narrow enough.

Graceful degradation: a chunk that fails permanently (a chaos-injected
``availability.chunk`` fault, a crashing worker past its retry budget)
is re-evaluated in the parent process, so the estimate always
completes -- with values identical to a fault-free run, because
:meth:`ScenarioResolver.delivered` is deterministic per scenario.
"""

from __future__ import annotations

import hashlib
import logging
import math
import os
from collections.abc import Iterator
from contextlib import nullcontext
from statistics import NormalDist

import numpy as np

from repro.core.config import MonteCarloConfig, RunnerConfig
from repro.exceptions import TopologyError
from repro.failures.montecarlo import AvailabilityEstimate, ScenarioResolver
from repro.failures.scenario import FailureScenario
from repro.network.demand import Pair
from repro.network.topology import Topology, lag_key
from repro.obs.metrics import metrics
from repro.obs.trace import current_tracer
from repro.paths.pathset import PathSet
from repro.resilience.faults import FaultPlan, injected, maybe_fire
from repro.runner.cache import (
    CODE_SALT,
    ResultCache,
    canonical_json,
    job_key,
)
from repro.runner.executor import run_sweep
from repro.runner.jobs import Job
from repro.te.total_flow import TotalFlowTE

logger = logging.getLogger(__name__)

#: The worker entry point for scenario chunks, as an importable
#: ``module:function`` reference (resolved inside worker processes).
CHUNK_TASK = "repro.failures.availability:availability_chunk_task"


def _ser():
    """The serialization module, imported lazily.

    ``repro.network.serialization`` imports ``repro.core.degradation``,
    which imports this package -- a module-level import here would be a
    circular import at package init time.
    """
    from repro.network import serialization
    return serialization


def _instance_from_docs(instance: dict):
    """(topology, demands, paths) rebuilt from serialized documents."""
    ser = _ser()
    topology = ser.topology_from_dict(instance["topology"])
    demands = dict(ser.demands_from_dict(instance["demands"]))
    paths = ser.paths_from_dict(instance["paths"])
    return topology, demands, paths


class ScenarioSampler:
    """Vectorized scenario sampling, stream-compatible with the scalar draw.

    The scalar :func:`~repro.failures.montecarlo.sample_scenario`
    consumes, per sample, one uniform per SRLG carrying a group
    probability (in ``topology.srlgs`` order) followed by one uniform
    per independent *failable* link (in LAG/link order; links with
    ``can_fail=False`` short-circuit and consume nothing).  This class
    precomputes that column layout once, so ``sample(rng, n)`` is a
    single ``rng.random((n, columns))`` call whose rows reproduce the
    scalar draw stream bit for bit.
    """

    def __init__(self, topology: Topology):
        self.topology = topology
        grouped: dict[tuple, int] = {}
        group_ps: list[float] = []
        gid_to_col: dict[int, int] = {}
        for gid, srlg in enumerate(topology.srlgs):
            if srlg.failure_probability is None:
                continue
            gid_to_col[gid] = len(group_ps)
            group_ps.append(float(srlg.failure_probability))
            for member in srlg.members:
                grouped[(lag_key(*member[0]), member[1])] = gid

        #: ``(lag_key, link_index)`` per column of the failure matrix,
        #: in LAG/link order -- the canonical link enumeration.
        self.links: list[tuple] = []
        link_group_col: list[int] = []
        link_can_fail: list[bool] = []
        indep_col: list[int] = []
        indep_ps: list[float] = []
        for lag in topology.lags:
            for i, link in enumerate(lag.links):
                self.links.append((lag.key, i))
                can_fail = bool(link.can_fail)
                link_can_fail.append(can_fail)
                gid = grouped.get((lag.key, i))
                if gid is not None:
                    link_group_col.append(gid_to_col[gid])
                    indep_col.append(-1)
                    continue
                link_group_col.append(-1)
                p = link.failure_probability
                if p is None:
                    if can_fail:
                        raise TopologyError(
                            f"link {i} of LAG {lag.key} has no failure "
                            f"probability"
                        )
                    indep_col.append(-1)
                    continue
                if not can_fail:
                    # The scalar draw short-circuits before drawing for
                    # a protected link, so no column here either.
                    indep_col.append(-1)
                    continue
                indep_col.append(len(indep_ps))
                indep_ps.append(float(p))

        self._group_ps = np.asarray(group_ps, dtype=float)
        self._indep_ps = np.asarray(indep_ps, dtype=float)
        self._num_groups = len(group_ps)
        self._num_indep = len(indep_ps)
        self._link_group_col = np.asarray(link_group_col, dtype=np.intp)
        self._link_can_fail = np.asarray(link_can_fail, dtype=bool)
        self._indep_col = np.asarray(indep_col, dtype=np.intp)
        #: Matrix columns a group draw can fail (grouped AND failable).
        self._grouped_cols = np.nonzero(
            (self._link_group_col >= 0) & self._link_can_fail
        )[0]
        self._indep_cols = np.nonzero(self._indep_col >= 0)[0]

        # scenario_doc order: the failed links of any row, taken in
        # this column order, are already its sorted ``[u, v, link]``
        # triples, so no per-row sort is needed.
        triples = [[*lag_key(*key), idx] for key, idx in self.links]
        self._doc_order = np.asarray(
            sorted(range(len(triples)), key=triples.__getitem__),
            dtype=np.intp)
        self._doc_triples = [triples[j] for j in self._doc_order]

    @property
    def num_links(self) -> int:
        """Columns of the failure matrix (every link of every LAG)."""
        return len(self.links)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """An ``(n, num_links)`` boolean failure matrix for ``n`` draws."""
        draws = rng.random((n, self._num_groups + self._num_indep))
        fail = np.zeros((n, self.num_links), dtype=bool)
        if self._num_groups and self._grouped_cols.size:
            group_fail = draws[:, : self._num_groups] < self._group_ps
            fail[:, self._grouped_cols] = group_fail[
                :, self._link_group_col[self._grouped_cols]
            ]
        if self._num_indep:
            indep_fail = draws[:, self._num_groups:] < self._indep_ps
            fail[:, self._indep_cols] = indep_fail[
                :, self._indep_col[self._indep_cols]
            ]
        return fail

    def scenario_for(self, row: np.ndarray) -> FailureScenario:
        """The :class:`FailureScenario` a failure-matrix row encodes."""
        return FailureScenario(self.links[j] for j in np.nonzero(row)[0])

    def in_doc_order(self, matrix: np.ndarray) -> np.ndarray:
        """``matrix`` with its columns in :func:`scenario_doc` order.

        The failed *positions* of a reordered row (its nonzero column
        indices, ascending) address the methods below.
        """
        return matrix[:, self._doc_order]

    def doc_at(self, positions) -> list:
        """``scenario_doc`` of the row failing ``positions``."""
        return [list(self._doc_triples[p]) for p in positions]

    def scenario_at(self, positions) -> FailureScenario:
        """``scenario_for`` of the row failing ``positions``."""
        return FailureScenario(self.links[self._doc_order[p]]
                               for p in positions)

    def delivered_keyer(self, instance_key: str):
        """A function from failed positions to the delivered-flow key.

        ``keyer(positions)`` equals ``scenario_cache_key(instance_key,
        doc_at(positions))`` without building the document: the
        canonical JSON of a scenario is a fixed prefix, the per-link
        fragments of its failed links joined by ``,``, and a fixed
        suffix.  Prefix, suffix and fragments all come from
        :func:`canonical_json` itself, so key order and string escaping
        match :func:`job_key` byte for byte.
        """
        marker = '"scenario":[]'
        template = canonical_json({
            "task": "availability.delivered",
            "instance": instance_key,
            "scenario": [],
        })
        prefix, _, suffix = template.partition(marker)
        head = hashlib.sha256(
            f"{CODE_SALT}\0{prefix}{marker[:-1]}".encode("utf-8"))
        tail = f"]{suffix}".encode("utf-8")
        fragments = [canonical_json(triple).encode("utf-8")
                     for triple in self._doc_triples]

        def keyer(positions) -> str:
            digest = head.copy()
            digest.update(b",".join([fragments[p] for p in positions]))
            digest.update(tail)
            return digest.hexdigest()

        return keyer


def scenario_doc(scenario: FailureScenario) -> list:
    """A scenario as canonical JSON: sorted ``[u, v, link]`` triples."""
    return sorted([key[0], key[1], idx]
                  for key, idx in scenario.failed_links)


def scenario_from_doc(doc) -> FailureScenario:
    """Rebuild a scenario from its ``[u, v, link]`` triples."""
    return FailureScenario(((u, v), idx) for u, v, idx in doc)


def scenario_cache_key(instance_key: str, doc: list) -> str:
    """Content address of one scenario's delivered flow.

    ``instance_key`` is the job-key hash of the serialized
    ``(topology, demands, paths)`` documents, so any change to the
    network, the traffic, or the path set invalidates every scenario.
    """
    return job_key({
        "task": "availability.delivered",
        "instance": instance_key,
        "scenario": doc,
    })


class _ChunkFault(RuntimeError):
    """A chaos-injected ``availability.chunk`` failure."""


def _resolve_chunk(make_resolver, docs: list,
                   chunk_index: int | None = None) -> Iterator[float]:
    """Delivered flow for each scenario document, in order, each one
    solved as the iterator reaches it.

    ``make_resolver`` returns the :class:`ScenarioResolver` to use; it
    is called only after the chaos check, so a faulted chunk never pays
    for a compile.  With a ``chunk_index``, the ``availability.chunk``
    chaos site is checked first, by this call itself, and raises
    :class:`_ChunkFault`; it is keyed by chunk index only (no attempt),
    so a plan targeting it fails *every* retry and the fallback takes
    over.  The fallback passes no index: it is the path that must not
    fail.
    """
    if chunk_index is not None and maybe_fire(
            "availability.chunk", key=f"chunk:{chunk_index}"):
        raise _ChunkFault("chaos: injected availability chunk failure")
    resolver = make_resolver()
    return (float(resolver.delivered(scenario_from_doc(doc)))
            for doc in docs)


def availability_chunk_task(payload: dict) -> dict:
    """Worker task: delivered flow for one chunk of distinct scenarios.

    Rebuilds the instance from its serialized documents, compiles one
    :class:`ScenarioResolver`, and resolves every scenario in the
    chunk (see :func:`_resolve_chunk` for the chaos site).
    """
    params = payload["params"]
    delivered = list(_resolve_chunk(
        lambda: ScenarioResolver(*_instance_from_docs(payload["instance"])),
        params["scenarios"],
        params["chunk_index"],
    ))
    return {"chunk_index": params["chunk_index"], "delivered": delivered}


def availability_task(payload: dict) -> dict:
    """Sweep/service task: one full availability estimate per job.

    Makes Monte Carlo availability a first-class, service-submittable
    analysis: a :class:`~repro.runner.jobs.SweepSpec` with
    ``task="repro.failures.availability:availability_task"`` runs
    through the same queue/cache/HTTP machinery as degradation sweeps.
    The engine runs with ``num_workers=1`` inside the job -- service
    jobs are already parallelized at the job level, and nesting a
    process pool inside a pooled worker would oversubscribe the box.
    """
    params = payload.get("params", {})
    topology, demands, paths = _instance_from_docs(payload["instance"])
    config = MonteCarloConfig(
        samples=int(params.get("samples", 200)),
        seed=int(params.get("seed", 0)),
        degradation_threshold=float(
            params.get("degradation_threshold", 0.0)),
        num_workers=1,
        chunk_size=int(params.get("chunk_size", 32)),
        ci_width=params.get("ci_width"),
        ci_confidence=float(params.get("ci_confidence", 0.95)),
        max_samples=params.get("max_samples"),
    )
    estimate = estimate_availability_parallel(
        topology, demands, paths, config)
    return {
        "samples": estimate.samples,
        "healthy_flow": estimate.healthy_flow,
        "expected_degradation": estimate.expected_degradation,
        "availability": estimate.availability,
        "exceedance_probability": estimate.exceedance_probability,
        "worst_sampled": estimate.worst_sampled,
        "worst_scenario": scenario_doc(estimate.worst_scenario),
        "distinct_scenarios": estimate.distinct_scenarios,
        "rounds": estimate.rounds,
        "ci_width": estimate.ci_width,
    }


def _ci_width(degradations: list[float], healthy_flow: float,
              z: float) -> float | None:
    """Width of the normal-approximation CI on mean availability."""
    n = len(degradations)
    if n < 2:
        return None
    if healthy_flow <= 0:
        return 0.0
    avail = (healthy_flow - np.asarray(degradations)) / healthy_flow
    std = float(avail.std(ddof=1))
    return 2.0 * z * std / math.sqrt(n)


class _ChunkEvaluator:
    """Delivered flow for chunks of scenarios, pooled or in-process.

    Both paths produce values from a :class:`ScenarioResolver` compiled
    from the *serialized* instance documents -- the same LP, in the
    same variable order, whether it is built in a worker process or in
    the parent for the fallback path -- which is what makes the merge
    independent of where each chunk happened to run.
    """

    def __init__(self, instance: dict, workers: int,
                 runner_config: RunnerConfig | None, tracer):
        self.instance = instance
        self.workers = workers
        self.runner_config = runner_config or RunnerConfig()
        self.tracer = tracer
        self.chunk_fallbacks = 0
        self._resolver: ScenarioResolver | None = None

    def _parent_resolver(self) -> ScenarioResolver:
        if self._resolver is None:
            self._resolver = ScenarioResolver(
                *_instance_from_docs(self.instance))
        return self._resolver

    def _fallback(self, docs: list) -> Iterator[float]:
        self.chunk_fallbacks += 1
        metrics().counter("availability.chunk_fallbacks").inc()
        return _resolve_chunk(self._parent_resolver, docs)

    def evaluate(self, chunks: list[list], start_index: int
                 ) -> Iterator[float]:
        """Delivered flow of every scenario, chunk after chunk, each as
        soon as it is known: per scenario in-process, per chunk from a
        worker pool."""
        if not chunks:
            return iter(())
        if self.workers == 1:
            return self._evaluate_local(chunks, start_index)
        return self._evaluate_pool(chunks, start_index)

    def _evaluate_local(self, chunks, start_index):
        for offset, docs in enumerate(chunks):
            try:
                values = _resolve_chunk(self._parent_resolver, docs,
                                        start_index + offset)
            except _ChunkFault:
                # In-process there is no worker to lose: the fault
                # degrades straight to the fallback path (counted, so
                # chaos tests can assert it fired) with identical
                # values, because the resolver is deterministic.
                values = self._fallback(docs)
            yield from values

    def _evaluate_pool(self, chunks, start_index):
        jobs = [
            Job(payload={
                "task": CHUNK_TASK,
                "instance": self.instance,
                "params": {
                    "chunk_index": start_index + offset,
                    "scenarios": docs,
                },
            })
            for offset, docs in enumerate(chunks)
        ]
        # No chaos argument: the engine installed any explicit plan as
        # the ambient one, and run_sweep ships the ambient plan into
        # every worker on its own.
        outcome = run_sweep(
            jobs,
            num_workers=self.workers,
            cache=None,  # scenario-level caching happens in the parent
            config=self.runner_config,
            tracer=self.tracer,
            handle_signals=False,
        )
        by_key = {o.job.key: o for o in outcome.outcomes}
        for offset, (job, docs) in enumerate(zip(jobs, chunks)):
            settled = by_key.get(job.key)
            if settled is not None and settled.ok:
                delivered = settled.result["delivered"]
                if len(delivered) != len(docs):
                    raise TopologyError(
                        f"chunk {start_index + offset} returned "
                        f"{len(delivered)} values for {len(docs)} "
                        f"scenarios"
                    )
                yield from (float(d) for d in delivered)
                continue
            error = settled.error if settled is not None \
                else "chunk did not settle (drained)"
            logger.warning(
                "availability chunk %d failed permanently (%s); "
                "re-evaluating its %d scenario(s) in the parent",
                start_index + offset, error, len(docs),
            )
            yield from self._fallback(docs)


def estimate_availability_parallel(
    topology: Topology,
    demands: dict[Pair, float],
    paths: PathSet,
    config: MonteCarloConfig | None = None,
    *,
    cache: ResultCache | str | os.PathLike | None = None,
    chaos: FaultPlan | dict | None = None,
    runner_config: RunnerConfig | None = None,
) -> AvailabilityEstimate:
    """Monte Carlo availability, vectorized and parallel.

    Sampling is one matrix call per round, each distinct scenario is
    solved exactly once, solves fan out across worker processes, and a
    persistent cache carries delivered flows between runs.  None of
    that moves a number: the estimate is bit-identical, per seed, at
    any worker count, cold or warm cache, with or without chaos-injected
    chunk failures.

    Args:
        topology: The WAN (all failable links need probabilities).
        demands: Offered traffic.
        paths: Configured primary/backup paths.
        config: Engine knobs (:class:`MonteCarloConfig`).
        cache: Persistent delivered-flow cache (or a directory path
            for one); ``None`` disables memoization across runs.
        chaos: A fault plan for self-testing the degradation paths,
            active for this call only (shipped into workers like the
            sweep runner does); ``None`` leaves the ambient plan, if
            any, in force.
        runner_config: Retry/backoff/timeout knobs for chunk dispatch.

    Returns:
        An :class:`AvailabilityEstimate` with the dedup/cache/fallback
        counters filled in.
    """
    config = config or MonteCarloConfig()
    demands = dict(demands)
    workers = config.resolved_workers()
    if isinstance(cache, (str, os.PathLike)):
        cache = ResultCache(cache)
    tracer = current_tracer()

    # An explicit chaos plan becomes the ambient one for the run, so
    # both the in-process sites here and run_sweep's worker shipping
    # see it.
    with injected(chaos) if chaos is not None else nullcontext():
        return _estimate(topology, demands, paths, config, cache,
                         runner_config, workers, tracer)


def _healthy_flow(topology, demands, paths, cache: ResultCache | None,
                  instance_key: str | None, write) -> float:
    """The design point's delivered traffic, memoized per instance.

    With a cache the flow is stored (through ``write``, the cache's
    write-behind) under its own content address, so a warm re-run of
    any campaign on the instance skips the LP entirely (JSON round-trips
    the float exactly).
    """
    key = None
    if cache is not None:
        key = job_key({"task": "availability.healthy",
                       "instance": instance_key})
        hit = cache.get(key)
        if hit is not None:
            return float(hit["healthy_flow"])
    flow = TotalFlowTE(primary_only=True).solve(
        topology, demands, paths).total_flow
    if cache is not None:
        write(key, {"healthy_flow": flow})
    return flow


def _estimate(topology, demands, paths, config, cache, runner_config,
              workers, tracer) -> AvailabilityEstimate:
    ser = _ser()
    instance = {
        "topology": ser.topology_to_dict(topology),
        "demands": ser.demands_to_dict(demands),
        "paths": ser.paths_to_dict(paths),
    }
    # Keys are only ever needed to talk to a cache.
    instance_key = job_key(instance) if cache is not None else None
    evaluator = _ChunkEvaluator(instance, workers, runner_config, tracer)
    z = NormalDist().inv_cdf(0.5 + config.ci_confidence / 2.0)
    adaptive = config.ci_width is not None
    max_samples = config.resolved_max_samples() if adaptive \
        else config.samples

    # Fresh results are written behind the solves, on the cache's one
    # writer thread; every write has landed when the block is left.
    with tracer.span(
        "availability", samples=config.samples, workers=workers,
        adaptive=adaptive,
    ) as span, (cache.writer() if cache is not None
                else nullcontext()) as write:
        healthy_flow = _healthy_flow(topology, demands, paths, cache,
                                     instance_key, write)
        sampler = ScenarioSampler(topology)
        keyer = sampler.delivered_keyer(instance_key) \
            if cache is not None else None
        rng = np.random.default_rng(config.seed)

        # Scenarios are tracked by the bytes of their failure-matrix row
        # (columns in scenario_doc order); per distinct row only its
        # failed positions and, with a cache, its key are kept.  Docs
        # are built for misses alone, a FailureScenario for the worst.
        sample_rows: list[bytes] = []      # per sample, in draw order
        positions_by_row: dict[bytes, list[int]] = {}
        key_by_row: dict[bytes, str] = {}
        delivered_by_row: dict[bytes, float] = {}
        cache_hits = 0
        fresh_rows: list[bytes] = []
        chunks_dispatched = 0
        rounds = 0
        width: float | None = None

        while len(sample_rows) < max_samples:
            batch = min(config.samples, max_samples - len(sample_rows))
            rounds += 1
            with tracer.span("availability.sample", batch=batch):
                matrix = sampler.in_doc_order(sampler.sample(rng, batch))
                failed = np.nonzero(matrix)[1].tolist()
                ends = np.cumsum(matrix.sum(axis=1)).tolist()
                blob, size = matrix.tobytes(), matrix.shape[1]
                pending: list[bytes] = []
                start = 0
                for index, end in enumerate(ends):
                    row = blob[index * size:(index + 1) * size]
                    sample_rows.append(row)
                    if row not in positions_by_row:
                        positions_by_row[row] = failed[start:end]
                        pending.append(row)
                    start = end

            # Persistent memoization: answer what we can from the
            # delivered-flow cache, chunk only the misses.
            misses: list[bytes] = []
            for row in pending:
                if cache is not None:
                    key = keyer(positions_by_row[row])
                    hit = cache.get(key)
                    if hit is not None:
                        delivered_by_row[row] = float(hit["delivered"])
                        cache_hits += 1
                        continue
                    key_by_row[row] = key
                misses.append(row)

            if misses:
                chunks = [
                    misses[i:i + config.chunk_size]
                    for i in range(0, len(misses), config.chunk_size)
                ]
                with tracer.span("availability.evaluate",
                                 scenarios=len(misses),
                                 chunks=len(chunks)):
                    values = evaluator.evaluate(
                        [[sampler.doc_at(positions_by_row[row])
                          for row in chunk]
                         for chunk in chunks],
                        start_index=chunks_dispatched,
                    )
                    for row, value in zip(misses, values, strict=True):
                        delivered_by_row[row] = value
                        fresh_rows.append(row)
                        if cache is not None:
                            write(key_by_row.pop(row), {"delivered": value})
                chunks_dispatched += len(chunks)

            degradations = [
                healthy_flow - delivered_by_row[row]
                for row in sample_rows
            ]
            width = _ci_width(degradations, healthy_flow, z)
            if not adaptive:
                break
            if width is not None and width <= config.ci_width:
                break

        span.set(
            total_samples=len(sample_rows),
            distinct_scenarios=len(positions_by_row),
            cache_hits=cache_hits,
            fresh_solves=len(fresh_rows),
            chunk_fallbacks=evaluator.chunk_fallbacks,
            rounds=rounds,
        )

    metrics().counter("availability.samples").inc(len(sample_rows))
    metrics().counter("availability.distinct").inc(len(positions_by_row))
    metrics().counter("availability.cache_hits").inc(cache_hits)
    metrics().counter("availability.fresh_solves").inc(len(fresh_rows))

    array = np.asarray(degradations)
    availability = (
        float(np.mean((healthy_flow - array) / healthy_flow))
        if healthy_flow > 0 else 1.0
    )
    worst_index = int(np.argmax(array))
    return AvailabilityEstimate(
        expected_degradation=float(array.mean()),
        availability=availability,
        exceedance_probability=float(
            np.mean(array > config.degradation_threshold)
        ),
        worst_sampled=float(array.max()),
        worst_scenario=sampler.scenario_at(
            positions_by_row[sample_rows[worst_index]]),
        samples=len(sample_rows),
        healthy_flow=healthy_flow,
        degradations=[float(d) for d in degradations],
        distinct_scenarios=len(positions_by_row),
        cache_hits=cache_hits,
        fresh_solves=len(fresh_rows),
        chunk_fallbacks=evaluator.chunk_fallbacks,
        rounds=rounds,
        ci_width=width,
    )
