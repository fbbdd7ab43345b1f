"""The benchmark's four workloads.

Each workload builds its inputs with generators the repository already
has (``bench_wan``, ``network.zoo.b4``, ``gravity_demands``,
``PathSet.k_shortest``), drives the program only through its public
entry points, and checks every output it gets back.

``setup()`` may run several times; each call starts over.
``measure(speed, probe)`` runs the measured window and returns a
:class:`loops.Measurement`.  A closed-loop operation takes the pass
number and returns ``(work_units, ok)``.  ``isolation()`` gives, from a
traced run, the share of time spent in the layer the workload exists to
stress.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import random
import shutil
import tempfile
import threading

from repro.analysis.experiments import bench_wan, degradation_sweep_spec
from repro.core.config import MonteCarloConfig, ServiceConfig
from repro.failures.availability import estimate_availability_parallel
from repro.network import serialization as ser
from repro.network.demand import gravity_demands, top_pairs
from repro.network.zoo import b4
from repro.obs.metrics import metrics
from repro.paths.pathset import PathSet
from repro.runner import executor
from repro.runner.cache import ResultCache
from repro.runner.jobs import SweepSpec
from repro.service.api import AnalysisService, make_server
from repro.service.client import ServiceClient

from loops import OpenLoop, closed_loop

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")

#: Seeds map onto this many Monte Carlo seed sets; reference.json holds
#: the mc-cold outputs of each (see record.py).
VARIANTS = 10

#: The figure benchmarks' standard WAN (``WAN_KWARGS`` in
#: benchmarks/conftest.py), without its generator seed.
STANDARD_WAN = dict(num_regions=3, nodes_per_region=5, num_pairs=10,
                    demand_to_capacity=1.4)

#: analyze-grid: generator seeds of its instances, demand modes, and the
#: Figure-5 cells (thresholds without a failure budget, and a one-link
#: budget without a threshold).  MILP times differ by up to 1000x between
#: generated instances (0.03 s to 59 s per analysis on bench_wan seeds
#: 1-4), so every run analyzes the same instances and the seed orders the
#: analyses.  Cells slower than a second are left out so that a pass is
#: short and a run holds many passes.
GRID_INSTANCES = (1, 3)
GRID_MODES = ("avg", "max")
GRID_CELLS = ([{"threshold": t, "max_failures": None}
               for t in (1e-1, 1e-2, 1e-4)]
              + [{"threshold": None, "max_failures": 1}])
#: The relative MIP gap the grid solves to (degradation_sweep_spec's).
MIP_GAP = 0.01

#: The Monte Carlo workloads' WAN: the standard one with more flaky
#: links, so most samples are distinct scenarios and re-solves dominate.
MC_WAN = dict(STANDARD_WAN, flaky_share=0.1, seed=1)

#: svc-open: offered rate (about 70% of the capacity measured at the
#: commit that defined the benchmark), job size, the share of exact
#: resubmissions (every Nth request), and the client's poll pause.
SVC_RATE = 21.0
SVC_SAMPLES = 30
SVC_PAIRS = 12
SVC_LOAD = 0.6
RESUBMIT_EVERY = 5
POLL_SECONDS = 0.02
AVAILABILITY_TASK = "repro.failures.availability:availability_task"


def load_reference(workload: str):
    with open(REFERENCE_PATH) as handle:
        return json.load(handle)[workload]


def digest(estimate) -> str:
    """A digest of every number an availability estimate reports."""
    numbers = [estimate.availability, estimate.expected_degradation,
               estimate.exceedance_probability, estimate.worst_sampled,
               estimate.healthy_flow, *estimate.degradations]
    doc = [estimate.samples, estimate.distinct_scenarios,
           [float(x).hex() for x in numbers]]
    return hashlib.sha256(json.dumps(doc).encode()).hexdigest()


class ClosedLoopWorkload:
    """What the closed-loop workloads share: one caller, whole passes.

    A run makes ``seconds / pass_seconds`` passes (at least two), so it
    measures about ``seconds`` on the reference host and always has the
    same number of samples.
    """

    #: The latency_tail_s percentile: at least 10 samples lie beyond it.
    tail = 0.8
    #: Reference seconds one pass takes at the commit that defined the
    #: benchmark.
    pass_seconds = 1.0

    def __init__(self, seed: int, seconds: float, workdir: str):
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir

    def setup(self) -> None:
        self.close()
        self.build()

    @property
    def passes(self) -> int:
        return max(2, round(self.seconds / self.pass_seconds))

    def measure(self, speed, probe=None):
        return closed_loop(self.operations(), self.passes, speed, probe)

    def layer_metrics(self) -> dict:
        return {}

    def close(self) -> None:
        pass


class AnalyzeGrid(ClosedLoopWorkload):
    """Uncached Raha analyses over Figure-5 grids, one caller.

    One operation is one ``total_flow`` analysis through
    ``run_sweep(num_workers=1)`` without a cache: encode, KKT embedding,
    HiGHS MILP and verification.
    """

    name = "analyze-grid"
    tail = 0.9
    pass_seconds = 2.2

    def build(self) -> None:
        self.jobs = []
        for instance_seed in GRID_INSTANCES:
            net = bench_wan(**STANDARD_WAN, seed=instance_seed)
            paths = net.paths(num_primary=2, num_backup=1)
            for mode in GRID_MODES:
                spec = degradation_sweep_spec(
                    net, paths, mode, GRID_CELLS, time_limit=60.0,
                    name=self.name)
                self.jobs.extend(spec.expand())
        self.expected = load_reference(self.name) \
            if os.path.exists(REFERENCE_PATH) else None
        self.order = list(range(len(self.jobs)))
        random.Random(self.seed).shuffle(self.order)
        self.output(0)  # warm-up: the program's lazy imports and caches

    def output(self, index: int):
        """The degradation of one analysis, or None unless it verified."""
        [settled] = executor.run_sweep(
            [self.jobs[index]], num_workers=1, handle_signals=False
        ).outcomes
        if not settled.ok or not settled.result.get("verified"):
            return None
        return settled.result["degradation"]

    def operations(self):
        return [functools.partial(self._analyze, index)
                for index in self.order]

    def _analyze(self, index: int, pass_index: int):
        value, expected = self.output(index), self.expected[index]
        ok = value is not None and abs(value - expected) <= (
            MIP_GAP * max(abs(value), abs(expected)) + 1e-6)
        return 1, ok

    def isolation(self, layers: dict, traced_seconds: float) -> float:
        """Share of time in encode plus MILP (analysis minus verify)."""
        return (layers["core.analyze.s"]
                - layers["core.verify.s"]) / traced_seconds


class McCold(ClosedLoopWorkload):
    """Monte Carlo campaigns, each against a new, empty result cache.

    One operation is one campaign (``estimate_availability_parallel``,
    ``num_workers=1``); its work units are its fresh scenario solves.
    """

    name = "mc-cold"
    pass_seconds = 2.0
    samples = 50
    campaigns = 9

    def build(self) -> None:
        net = bench_wan(**MC_WAN)
        self.instance = (net.topology, dict(net.avg_demands),
                         net.paths(num_primary=2, num_backup=1))
        base = (self.seed % VARIANTS) * self.campaigns
        self.seeds = [base + j for j in range(self.campaigns)]
        self.drawn = self.distinct = 0
        self.fallbacks = metrics().counter("resolver.fallbacks").value
        if self.name == McCold.name and os.path.exists(REFERENCE_PATH):
            self.expected = load_reference(self.name)[
                str(self.seed % VARIANTS)]
            self.output(0)  # warm-up: the program's lazy imports and caches

    def campaign(self, index: int, cache: ResultCache,
                 threshold: float = 0.0):
        config = MonteCarloConfig(
            samples=self.samples, seed=self.seeds[index],
            degradation_threshold=threshold, num_workers=1)
        estimate = estimate_availability_parallel(*self.instance, config,
                                                  cache=cache)
        self.drawn += estimate.samples
        self.distinct += estimate.distinct_scenarios
        return estimate

    def output(self, index: int):
        """One campaign against a new, empty persistent cache."""
        cache_dir = tempfile.mkdtemp(dir=self.workdir)
        try:
            return self.campaign(index, ResultCache(cache_dir))
        finally:
            shutil.rmtree(cache_dir)

    def operations(self):
        return [functools.partial(self._cold, index)
                for index in range(self.campaigns)]

    def _cold(self, index: int, pass_index: int):
        estimate = self.output(index)
        return estimate.fresh_solves, digest(estimate) == self.expected[index]

    def layer_metrics(self) -> dict:
        return {
            "failures.dedup_ratio": self.distinct / self.drawn,
            "failures.fallbacks": (
                metrics().counter("resolver.fallbacks").value
                - self.fallbacks),
        }

    def isolation(self, layers: dict, traced_seconds: float) -> float:
        """Share of time in scenario re-solves."""
        return layers["failures.delivered.s"] / traced_seconds


class McWarm(McCold):
    """Re-sweeps of already-solved campaigns at new thresholds.

    Set-up fills a persistent cache with cold campaigns.  One operation
    re-runs one of them at one ``degradation_threshold`` (an
    exceedance-curve re-sweep) against that cache; its work units are
    samples.  A pass re-runs every campaign at every threshold.
    """

    name = "mc-warm"
    tail = 0.95
    pass_seconds = 0.6
    samples = 300
    campaigns = 3
    thresholds = (0.0, 25.0, 50.0, 100.0, 200.0)
    cache_dir = None

    def setup(self) -> None:
        self.close()
        self.build()
        self.cache_dir = tempfile.mkdtemp(dir=self.workdir)
        self.cache = ResultCache(self.cache_dir)
        self.cold = [self.campaign(index, self.cache).degradations
                     for index in range(self.campaigns)]

    def operations(self):
        return [functools.partial(self._warm, index, threshold)
                for threshold in self.thresholds
                for index in range(self.campaigns)]

    def _warm(self, index: int, threshold: float, pass_index: int):
        estimate = self.campaign(index, self.cache, threshold)
        ok = (estimate.fresh_solves == 0
              and estimate.degradations == self.cold[index])
        return estimate.samples, ok

    def isolation(self, layers: dict, traced_seconds: float) -> float:
        """Share of time in cache reads."""
        return layers["runner.cache_get.s"] / traced_seconds

    def close(self) -> None:
        if self.cache_dir is not None:
            shutil.rmtree(self.cache_dir, ignore_errors=True)
            self.cache_dir = None


class SvcOpen:
    """Availability jobs sent at a fixed rate to an in-process service.

    The service is an ``AnalysisService`` with the default
    ``ServiceConfig`` (two scheduler workers, each job in a forked
    worker process) behind ``make_server``.  Jobs are small
    ``availability_task`` analyses on B4; every ``RESUBMIT_EVERY``-th
    request resubmits an earlier job verbatim.  One operation is one
    submit-to-result round trip.
    """

    name = "svc-open"
    tail = 0.95

    def __init__(self, seed: int, seconds: float, workdir: str):
        self.seed = seed
        self.count = max(4, round(SVC_RATE * seconds))
        self.workdir = workdir
        self.server = None

    def _spec(self, mc_seed: int, name: str) -> dict:
        return {
            "kind": "sweep_spec", "name": name, "task": AVAILABILITY_TASK,
            "instance": self.instance,
            "base": {"samples": SVC_SAMPLES}, "grid": {"seed": [mc_seed]},
        }

    def setup(self) -> None:
        self.close()
        topology = b4()
        raw = gravity_demands(topology)
        pairs = top_pairs(raw, SVC_PAIRS)
        demands = raw.restricted_to(pairs)
        demands = demands.scaled(
            SVC_LOAD * topology.average_lag_capacity() / max(demands.values()))
        paths = PathSet.k_shortest(topology, pairs, num_primary=2,
                                   num_backup=1)
        self.instance = {
            "topology": ser.topology_to_dict(topology),
            "demands": ser.demands_to_dict(demands),
            "paths": ser.paths_to_dict(paths),
        }
        base = (self.seed % 100_000) * 10_000
        rng = random.Random(self.seed)
        distinct: list[dict] = []
        self.requests, self.expected_index = [], []
        for index in range(self.count):
            if distinct and index % RESUBMIT_EVERY == RESUBMIT_EVERY - 1:
                k = rng.randrange(len(distinct))
            else:
                k = len(distinct)
                distinct.append(self._spec(base + k, f"svc-{k}"))
            self.requests.append(distinct[k])
            self.expected_index.append(k)
        self.expected = [self._direct(doc) for doc in distinct]
        self._start_service()
        warmup = self._spec(base + 9_999, "svc-warmup")
        self.client.wait(self.client.submit(warmup)["id"], timeout=60.0,
                         poll_interval=POLL_SECONDS)

    @staticmethod
    def _direct(doc: dict) -> dict:
        """The job's result from a direct, in-process ``run_sweep``."""
        [settled] = executor.run_sweep(
            SweepSpec.from_dict(doc), num_workers=1, handle_signals=False
        ).outcomes
        return json.loads(json.dumps(settled.result))

    def _start_service(self) -> None:
        self.service = AnalysisService(
            tempfile.mkdtemp(dir=self.workdir), config=ServiceConfig(port=0))
        self.server = make_server(self.service)
        self.thread = threading.Thread(target=self.server.serve_forever,
                                       name="perfbench-http")
        self.thread.start()
        self.service.start()
        host, port = self.server.server_address[:2]
        self.client = ServiceClient(f"http://{host}:{port}",
                                    client_id="perfbench")

    def _check(self, index: int, doc: dict) -> bool:
        jobs = doc.get("jobs") or []
        return (len(jobs) == 1 and jobs[0]["state"] == "done"
                and jobs[0]["result"]
                == self.expected[self.expected_index[index]])

    def measure(self, speed, probe=None):
        """Send the schedule; ``speed`` is unused (see OpenLoop.run)."""
        loop = OpenLoop(self.client, self.requests, 1.0 / SVC_RATE,
                        POLL_SECONDS, self._check, self.service.store.depth,
                        timeout=60.0)
        return loop.run(probe)

    def layer_metrics(self) -> dict:
        return {}

    def isolation(self, layers: dict, traced_seconds: float) -> float:
        """Share of round-trip time outside the availability solve."""
        return 1.0 - layers["failures.campaign.s"] / traced_seconds

    def close(self) -> None:
        if self.server is not None:
            self.server.shutdown()
            self.server.server_close()
            self.thread.join(timeout=10.0)
            self.service.stop(drain=True)
            self.server = None


WORKLOADS = {cls.name: cls for cls in (AnalyzeGrid, McCold, McWarm, SvcOpen)}
