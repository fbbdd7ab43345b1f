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
* **Persistent memoization** -- a campaign writes three kinds of
  entry to :mod:`repro.runner.cache`, so repeated campaigns (threshold
  sweeps, service resubmissions) skip already-solved work entirely:

  - *per scenario*: its delivered flow, keyed by ``(topology, demands,
    paths, scenario)``.  The key is built from the sampled
    failure-matrix row (:meth:`ScenarioSampler.delivered_keyer`) yet
    equals :func:`scenario_cache_key` of the scenario's document, so
    no scenario object or document exists for a cache hit;
  - *healthy flow*: the no-failure flow, keyed by the instance alone,
    so a warm re-run solves no LP at all;
  - *per round*: every sample's delivered flow in draw order, keyed by
    the instance and the bytes of the round's failure matrix
    (:func:`round_cache_key`).  A round the cache holds is replayed
    from that one entry, with no per-scenario key or read; the key
    names the sampled rows, not the seed or the threshold, so a
    re-sweep at any threshold, worker count or chunk size shares it.
    A missing, torn or misshapen round entry falls back to the
    per-scenario entries, and is written once the round is solved, so
    caches from before round entries still hit and gain them.

  An entry counts as a miss unless each value it is read for is a JSON
  number (an int or a float, not a bool): a well-formed entry the
  engine did not write -- a footer-less hand edit, say -- falls back
  like a torn one.  Without a cache no key is computed.  Fresh entries
  are written behind the solves (:meth:`ResultCache.writer`), handed
  to the writer thread one chunk at a time (a round's entry with its
  last chunk), and are all on disk when the estimate returns.  Every
  round becomes one float64 vector of delivered flows in draw order,
  and the estimate is computed from their concatenation: a replayed
  round fills its vector straight from its entry and finds no
  scenario's failed links; only rows it cannot answer, and the worst,
  are turned into positions.
* **Campaign plans** -- what depends on ``(topology, demands, paths)``
  alone is built once per process and instance, not once per
  campaign: the instance documents, their key and the healthy-flow
  key, the :class:`ScenarioSampler`, the keyer, the parent
  :class:`ScenarioResolver` and the healthy flow once solved.  A plan
  is keyed on the pickle of the freshly serialized documents (pickle
  tells ``10`` from ``10.0``, so equal bytes mean an equal
  :func:`job_key`; in-place edits to the caller's topology, demands or
  path set change the bytes).  The last :data:`PLAN_SLOTS` plans are
  kept, least recently used first out; there is no knob.  A campaign
  checks its plan out and hands it back when it returns, so no two
  threads share a HiGHS session, and a plan made in another process
  is not reused.  The cache is read and written as before: the plan
  spares a healthy-flow miss its solve, not its read or its write.
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
import pickle
import threading
from collections import OrderedDict
from collections.abc import Iterable, Iterator
from contextlib import contextmanager, nullcontext
from functools import cached_property
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
        # Per link, the column of ``draws < thresholds`` it copies: its
        # SRLG's draw, its own independent draw, or -1 -- the constant
        # never-fails column :meth:`sample` appends after the last draw.
        source: list[int] = []
        indep_ps: list[float] = []
        for lag in topology.lags:
            for i, link in enumerate(lag.links):
                self.links.append((lag.key, i))
                can_fail = bool(link.can_fail)
                gid = grouped.get((lag.key, i))
                if gid is not None:
                    # A protected member still shares its group's draw,
                    # but never fails with it.
                    source.append(gid_to_col[gid] if can_fail else -1)
                    continue
                p = link.failure_probability
                if p is None and can_fail:
                    raise TopologyError(
                        f"link {i} of LAG {lag.key} has no failure "
                        f"probability"
                    )
                if p is None or not can_fail:
                    # The scalar draw short-circuits before drawing for
                    # a protected link, so no column here either.
                    source.append(-1)
                    continue
                source.append(len(group_ps) + len(indep_ps))
                indep_ps.append(float(p))

        self._thresholds = np.asarray(group_ps + indep_ps, dtype=float)
        self._source = np.asarray(source, dtype=np.intp)

        # scenario_doc order: the failed links of any row, taken in
        # this column order, are already its sorted ``[u, v, link]``
        # triples, so no per-row sort is needed.
        triples = [[*lag_key(*key), idx] for key, idx in self.links]
        self._doc_order = np.asarray(
            sorted(range(len(triples)), key=triples.__getitem__),
            dtype=np.intp)
        self._doc_triples = [triples[j] for j in self._doc_order]
        self._doc_links = [self.links[j] for j in self._doc_order]

    @property
    def num_links(self) -> int:
        """Columns of the failure matrix (every link of every LAG)."""
        return len(self.links)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """An ``(n, num_links)`` boolean failure matrix for ``n`` draws."""
        draws = rng.random((n, self._thresholds.size))
        fails = np.empty((n, self._thresholds.size + 1), dtype=bool)
        np.less(draws, self._thresholds, out=fails[:, :-1])
        fails[:, -1] = False
        return fails[:, self._source]

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
        """``scenario_for`` of the row failing ``positions``, built from
        the canonical link tuples of :attr:`links` as they are."""
        return FailureScenario.from_canonical(
            frozenset([self._doc_links[p] for p in positions]))

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


def _resolve_chunk(make_resolver, scenarios: Iterable[FailureScenario],
                   chunk_index: int | None = None) -> list[float]:
    """Delivered flow for each scenario, in order.

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
    return [float(resolver.delivered(scenario)) for scenario in scenarios]


def availability_chunk_task(payload: dict) -> dict:
    """Worker task: delivered flow for one chunk of distinct scenarios.

    Rebuilds the instance from its serialized documents, compiles one
    :class:`ScenarioResolver`, and resolves every scenario in the
    chunk, each rebuilt from its document (see :func:`_resolve_chunk`
    for the chaos site).
    """
    params = payload["params"]
    delivered = _resolve_chunk(
        lambda: ScenarioResolver(*_instance_from_docs(payload["instance"])),
        map(scenario_from_doc, params["scenarios"]),
        params["chunk_index"],
    )
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


def _ci_width(degradations: np.ndarray, healthy_flow: float,
              z: float) -> float | None:
    """Width of the normal-approximation CI on mean availability."""
    n = degradations.size
    if n < 2:
        return None
    if healthy_flow <= 0:
        return 0.0
    avail = (healthy_flow - degradations) / healthy_flow
    std = float(avail.std(ddof=1))
    return 2.0 * z * std / math.sqrt(n)


#: Campaign plans one process keeps, least recently used first out.  A
#: threshold re-sweep reuses one; a few more serve a caller that
#: alternates between instances.
PLAN_SLOTS = 4

#: Idle plans by the pickle of their instance documents.
_plans: OrderedDict[bytes, _CampaignPlan] = OrderedDict()
_plans_lock = threading.Lock()


def _new_plans_lock() -> None:
    # A forked child copies the lock as it was: held, if another thread
    # held it at the fork, and then nothing in the child releases it.
    global _plans_lock
    _plans_lock = threading.Lock()


os.register_at_fork(after_in_child=_new_plans_lock)


class _CampaignPlan:
    """What a campaign derives from ``(topology, demands, paths)`` alone.

    The instance documents, the sampler and the healthy flow are the
    same for every campaign on an instance, whatever its seed, threshold
    or sample count; so are the keys, the keyer and the parent
    resolver, which are built on first use.  The healthy flow is kept
    once a campaign has solved it.
    """

    def __init__(self, instance: dict, topology: Topology):
        self.pid = os.getpid()
        self.instance = instance
        self.sampler = ScenarioSampler(topology)
        self.healthy_flow: float | None = None

    @cached_property
    def instance_key(self) -> str:
        return job_key(self.instance)

    @cached_property
    def healthy_key(self) -> str:
        return job_key({"task": "availability.healthy",
                        "instance": self.instance_key})

    @cached_property
    def keyer(self):
        return self.sampler.delivered_keyer(self.instance_key)

    @cached_property
    def resolver(self) -> ScenarioResolver:
        return ScenarioResolver(*_instance_from_docs(self.instance))


@contextmanager
def _checked_out_plan(instance: dict, topology: Topology):
    """``(plan, reused)`` for the serialized instance ``instance``.

    Plans are keyed on the pickle of the documents: unlike ``==``, it
    tells ``10`` from ``10.0`` and ``0.0`` from ``-0.0``, so equal bytes
    mean equal canonical JSON and an equal :func:`job_key`.  A plan is
    held by one campaign at a time -- its resolver's HiGHS session has
    state -- so a concurrent campaign on the same instance builds its
    own.  It goes back only if the campaign returns, and a plan made in
    another process (a forked worker inherits the memo) is not reused.
    """
    fingerprint = pickle.dumps(instance, protocol=pickle.HIGHEST_PROTOCOL)
    with _plans_lock:
        plan = _plans.pop(fingerprint, None)
    reused = plan is not None and plan.pid == os.getpid()
    if not reused:
        plan = _CampaignPlan(instance, topology)
    yield plan, reused
    with _plans_lock:
        _plans[fingerprint] = plan
        _plans.move_to_end(fingerprint)
        while len(_plans) > PLAN_SLOTS:
            _plans.popitem(last=False)


class _ChunkEvaluator:
    """Delivered flow for chunks of scenarios, pooled or in-process.

    Both paths produce values from a :class:`ScenarioResolver` compiled
    from the *serialized* instance documents -- the same LP, in the
    same variable order, whether it is built in a worker process or in
    the parent (the plan's resolver) -- which is what makes the merge
    independent of where each chunk happened to run.  A scenario
    reaches a worker as its JSON document (:meth:`ScenarioSampler.doc_at`);
    in the parent it is built from the sampler's link tuples
    (:meth:`ScenarioSampler.scenario_at`), the same set of links.
    """

    def __init__(self, plan: _CampaignPlan, workers: int,
                 runner_config: RunnerConfig | None, tracer):
        self.plan = plan
        self.workers = workers
        self.runner_config = runner_config or RunnerConfig()
        self.tracer = tracer
        self.chunk_fallbacks = 0

    def _parent_resolver(self) -> ScenarioResolver:
        return self.plan.resolver

    def _scenarios(self, chunk: list) -> list[FailureScenario]:
        return [self.plan.sampler.scenario_at(positions)
                for positions in chunk]

    def _fallback(self, chunk: list) -> list[float]:
        self.chunk_fallbacks += 1
        metrics().counter("availability.chunk_fallbacks").inc()
        return _resolve_chunk(self._parent_resolver, self._scenarios(chunk))

    def evaluate(self, chunks: list[list], start_index: int
                 ) -> Iterator[list[float]]:
        """Delivered flow of every scenario, one list per chunk, each
        as soon as its chunk is solved.  A chunk lists its scenarios'
        failed positions (:meth:`ScenarioSampler.in_doc_order`)."""
        if self.workers == 1:
            return self._evaluate_local(chunks, start_index)
        return self._evaluate_pool(chunks, start_index)

    def _evaluate_local(self, chunks, start_index):
        for offset, chunk in enumerate(chunks):
            try:
                values = _resolve_chunk(self._parent_resolver,
                                        self._scenarios(chunk),
                                        start_index + offset)
            except _ChunkFault:
                # In-process there is no worker to lose: the fault
                # degrades straight to the fallback path (counted, so
                # chaos tests can assert it fired) with identical
                # values, because the resolver is deterministic.
                values = self._fallback(chunk)
            yield values

    def _evaluate_pool(self, chunks, start_index):
        jobs = [
            Job(payload={
                "task": CHUNK_TASK,
                "instance": self.plan.instance,
                "params": {
                    "chunk_index": start_index + offset,
                    "scenarios": [self.plan.sampler.doc_at(positions)
                                  for positions in chunk],
                },
            })
            for offset, chunk in enumerate(chunks)
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
        for offset, (job, chunk) in enumerate(zip(jobs, chunks)):
            settled = by_key.get(job.key)
            if settled is not None and settled.ok:
                delivered = settled.result["delivered"]
                if len(delivered) != len(chunk):
                    raise TopologyError(
                        f"chunk {start_index + offset} returned "
                        f"{len(delivered)} values for {len(chunk)} "
                        f"scenarios"
                    )
                yield [float(d) for d in delivered]
                continue
            error = settled.error if settled is not None \
                else "chunk did not settle (drained)"
            logger.warning(
                "availability chunk %d failed permanently (%s); "
                "re-evaluating its %d scenario(s) in the parent",
                start_index + offset, error, len(chunk),
            )
            yield self._fallback(chunk)


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


def _healthy_flow(plan: _CampaignPlan, topology, demands, paths,
                  cache: ResultCache | None, write) -> float:
    """The design point's delivered traffic, memoized per instance.

    With a cache the flow is stored (through ``write``, the cache's
    write-behind) under its own content address, so a warm re-run of
    any campaign on the instance skips the LP entirely (JSON round-trips
    the float exactly).  The cache is read and written as if there were
    no plan; the plan only spares a miss its solve.
    """
    if cache is not None:
        hit = _entry_number(cache.get(plan.healthy_key), "healthy_flow")
        if hit is not None:
            return hit
    if plan.healthy_flow is None:
        plan.healthy_flow = TotalFlowTE(primary_only=True).solve(
            topology, demands, paths).total_flow
    if cache is not None:
        write(plan.healthy_key, {"healthy_flow": plan.healthy_flow})
    return plan.healthy_flow


def round_cache_key(instance_key: str, blob: bytes, columns: int) -> str:
    """Content address of one sampled round's delivered flows.

    ``blob`` is the round's failure matrix, columns in
    :func:`scenario_doc` order, as ``tobytes()`` gives it; its digest
    and width fix every row, so the key names the sampled scenarios
    themselves -- not the seed, the sample count, the threshold or the
    worker count that produced them.
    """
    return job_key({
        "task": "availability.round",
        "instance": instance_key,
        "columns": columns,
        "rows": hashlib.sha256(blob).hexdigest(),
    })


#: What a JSON number decodes to: ``bool`` is an ``int`` subclass, but
#: ``true`` is not a flow.
_JSON_NUMBERS = frozenset({int, float})


def _numbers(values: list) -> np.ndarray | None:
    """``values`` as float64, or ``None`` unless every one is a JSON
    number that a double holds (``np.array`` alone would let ``None``
    through as NaN and ``True`` as 1.0)."""
    if not {*map(type, values)} <= _JSON_NUMBERS:
        return None
    try:
        return np.array(values, dtype=np.float64)
    except OverflowError:
        return None


def _entry_number(hit, field: str) -> float | None:
    """A cache entry's ``field`` as a float, or ``None`` -- a miss --
    unless the entry is an object holding a JSON number there."""
    value = _numbers([hit.get(field)]) if isinstance(hit, dict) else None
    return None if value is None else float(value[0])


def _round_replay(hit, batch: int) -> np.ndarray | None:
    """A round entry's delivered flows, or ``None`` unless it holds one
    JSON number per sample of the round."""
    delivered = hit.get("delivered") if isinstance(hit, dict) else None
    if not isinstance(delivered, list) or len(delivered) != batch:
        return None
    return _numbers(delivered)


def _estimate(topology, demands, paths, config, cache, runner_config,
              workers, tracer) -> AvailabilityEstimate:
    ser = _ser()
    instance = {
        "topology": ser.topology_to_dict(topology),
        "demands": ser.demands_to_dict(demands),
        "paths": ser.paths_to_dict(paths),
    }
    with _checked_out_plan(instance, topology) as (plan, reused):
        if reused:
            metrics().counter("availability.plan_hits").inc()
        return _campaign(plan, reused, topology, demands, paths, config,
                         cache, runner_config, workers, tracer)


def _campaign(plan: _CampaignPlan, reused: bool, topology, demands, paths,
              config, cache, runner_config, workers,
              tracer) -> AvailabilityEstimate:
    sampler = plan.sampler
    z = NormalDist().inv_cdf(0.5 + config.ci_confidence / 2.0)
    adaptive = config.ci_width is not None
    max_samples = config.resolved_max_samples() if adaptive \
        else config.samples

    # Fresh results are written behind the solves, on the cache's one
    # writer thread, handed over one chunk at a time; every write has
    # landed when the block is left.
    with tracer.span(
        "availability", samples=config.samples, workers=workers,
        adaptive=adaptive, plan_reused=reused,
    ) as span, (cache.writer() if cache is not None
                else nullcontext()) as write:
        healthy_flow = _healthy_flow(plan, topology, demands, paths, cache,
                                     write)
        evaluator = _ChunkEvaluator(plan, workers, runner_config, tracer)
        rng = np.random.default_rng(config.seed)

        # Each round becomes one vector of delivered flows in draw order.
        # Distinct scenarios are the bytes of their failure-matrix rows
        # (columns in scenario_doc order), with their flows once known.
        # Failed positions are found only for rows a round entry does
        # not answer, and for the worst; misses become FailureScenarios
        # (docs, for a worker pool), and so does the worst.
        matrices: list[np.ndarray] = []
        flows: list[np.ndarray] = []
        delivered_by_row: dict[bytes, float] = {}
        cache_hits = round_hits = fresh_solves = chunks_dispatched = 0
        drawn = 0
        width: float | None = None

        while drawn < max_samples:
            batch = min(config.samples, max_samples - drawn)
            drawn += batch
            with tracer.span("availability.sample", batch=batch):
                matrix = sampler.in_doc_order(sampler.sample(rng, batch))
                blob, size = matrix.tobytes(), matrix.shape[1]
                rows = np.frombuffer(blob, f"V{size}").tolist() if size \
                    else [b""] * batch
            matrices.append(matrix)

            # Persistent memoization: a round the cache holds whole is
            # replayed from its one entry; otherwise answer what we can
            # per scenario and chunk only the misses.
            round_key = replay = None
            if cache is not None:
                round_key = round_cache_key(plan.instance_key, blob, size)
                replay = _round_replay(cache.get(round_key), batch)
            if replay is not None:
                known = len(delivered_by_row)
                delivered_by_row.update(zip(rows, replay.tolist()))
                cache_hits += len(delivered_by_row) - known
                round_hits += 1
                flows.append(replay)
            else:
                first_seen: dict[bytes, int] = {}
                for index, row in enumerate(rows):
                    if row not in delivered_by_row:
                        first_seen.setdefault(row, index)
                misses: list[tuple[bytes, list[int], str | None]] = []
                for row, index in first_seen.items():
                    failed = np.flatnonzero(matrix[index]).tolist()
                    key = None
                    if cache is not None:
                        key = plan.keyer(failed)
                        hit = _entry_number(cache.get(key), "delivered")
                        if hit is not None:
                            delivered_by_row[row] = hit
                            cache_hits += 1
                            continue
                    misses.append((row, failed, key))
                entries: list = []
                chunks = [misses[i:i + config.chunk_size]
                          for i in range(0, len(misses), config.chunk_size)]
                if chunks:
                    with tracer.span("availability.evaluate",
                                     scenarios=len(misses),
                                     chunks=len(chunks)):
                        values = evaluator.evaluate(
                            [[failed for _, failed, _ in chunk]
                             for chunk in chunks],
                            start_index=chunks_dispatched)
                        for index, (chunk, delivered) in enumerate(
                                zip(chunks, values, strict=True)):
                            for (row, _, _), value in zip(chunk, delivered,
                                                          strict=True):
                                delivered_by_row[row] = value
                            fresh_solves += len(chunk)
                            if cache is not None:
                                entries = [(key, {"delivered": value})
                                           for (_, _, key), value
                                           in zip(chunk, delivered)]
                                if index < len(chunks) - 1:
                                    write.extend(entries)
                    chunks_dispatched += len(chunks)
                round_flows = [delivered_by_row[row] for row in rows]
                if cache is not None:
                    # The round's entry rides with its last chunk: one
                    # writer wake-up for both.
                    write.extend(
                        entries + [(round_key, {"delivered": round_flows})])
                flows.append(np.array(round_flows, dtype=np.float64))

            degradations = healthy_flow - np.concatenate(flows)
            width = _ci_width(degradations, healthy_flow, z)
            if not adaptive:
                break
            if width is not None and width <= config.ci_width:
                break

        # Every round but the last holds config.samples draws.
        worst = int(np.argmax(degradations))
        matrix = matrices[worst // config.samples]
        worst_scenario = sampler.scenario_at(
            np.flatnonzero(matrix[worst % config.samples]).tolist())
        span.set(
            total_samples=drawn,
            distinct_scenarios=len(delivered_by_row),
            cache_hits=cache_hits,
            round_hits=round_hits,
            fresh_solves=fresh_solves,
            chunk_fallbacks=evaluator.chunk_fallbacks,
            rounds=len(flows),
        )

    metrics().counter("availability.samples").inc(drawn)
    metrics().counter("availability.distinct").inc(len(delivered_by_row))
    metrics().counter("availability.cache_hits").inc(cache_hits)
    metrics().counter("availability.round_hits").inc(round_hits)
    metrics().counter("availability.fresh_solves").inc(fresh_solves)

    availability = (
        float(np.mean((healthy_flow - degradations) / healthy_flow))
        if healthy_flow > 0 else 1.0
    )
    return AvailabilityEstimate(
        expected_degradation=float(degradations.mean()),
        availability=availability,
        exceedance_probability=float(
            np.mean(degradations > config.degradation_threshold)
        ),
        worst_sampled=float(degradations.max()),
        worst_scenario=worst_scenario,
        samples=drawn,
        healthy_flow=healthy_flow,
        degradations=degradations.tolist(),
        distinct_scenarios=len(delivered_by_row),
        cache_hits=cache_hits,
        fresh_solves=fresh_solves,
        chunk_fallbacks=evaluator.chunk_fallbacks,
        rounds=len(flows),
        ci_width=width,
    )
