"""Per-layer timing for traced runs, installed from outside the program.

The probe wraps public functions of each layer (``RahaAnalyzer.analyze``,
``Model.resolve_with``, ``ResultCache.get``, ``JobStore.claim``, ...)
with timers by ``setattr`` and takes them off again afterwards, so no
file of the program changes.  The program's own ``repro.obs`` spans
(``linearize``, ``compile``, ``milp_solve``, ``lp_solve``, ...) reach
the probe through the sink of the tracer it installs; the tracer also
keeps them in memory, and ``run.py`` writes them out when the run ends.

Every wrapped call or span named ``x`` adds one to ``x.n`` and its
duration to ``x.s``.  Calls nest per thread, so the probe also knows how
long each call spent in the wrapped calls and spans directly below it;
self times such as ``solver.resolve_overhead_s`` come from that.
"""

from __future__ import annotations

import functools
import statistics
import sys
import threading
import time
from collections import defaultdict

from repro.obs.trace import Tracer, install_tracer

#: Program spans reported as layer metrics, keyed by span name.
SPANS = {
    "linearize": "core.linearize",
    "build_healthy": "core.build_healthy",
    "verify": "core.verify",
    "embed_kkt": "metaopt.embed_kkt",
    "compile": "solver.compile",
    "milp_solve": "solver.milp_solve",
    "lp_solve": "solver.lp_solve",
    "availability": "failures.campaign",
}

#: Every ``<name>.n`` / ``<name>.s`` pair the traced run prints.
TIMED = [
    "core.analyze", "core.linearize", "core.build_healthy", "core.verify",
    "metaopt.embed_kkt",
    "solver.compile", "solver.milp_solve", "solver.resolve_with",
    "solver.lp_solve",
    "failures.campaign", "failures.sample", "failures.resolver_init",
    "failures.delivered",
    "runner.job_key", "runner.cache_get", "runner.cache_put",
    "runner.run_sweep",
    "service.store.submit", "service.store.claim", "service.store.settle",
    "service.store.heartbeat", "service.http.submit", "service.http.result",
]


class LocalStackTracer(Tracer):
    """A ``repro.obs`` tracer whose stack of open spans is per thread.

    The service records spans from its HTTP handler threads and its
    scheduler threads at the same time.  The base tracer keeps one stack
    for all of them, so one thread could pop another's open span.
    """

    def __init__(self, sink=None):
        self._local = threading.local()
        super().__init__(sink=sink)

    @property
    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @_stack.setter
    def _stack(self, value):
        self._local.stack = value


class Probe:
    """Wrappers, a tracer, and the per-layer totals they collect."""

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple] = []
        self._previous_tracer = None
        self.tracer = LocalStackTracer(sink=self._on_span)
        #: name -> [calls, busy seconds]
        self.calls: dict[str, list] = defaultdict(lambda: [0, 0.0])
        #: (outer, inner) -> seconds ``inner`` ran directly inside ``outer``
        self.inside: dict[tuple, float] = defaultdict(float)
        self.cache_hits = 0
        self.queue_waits: list[float] = []
        self._submitted_at: dict[str, float] = {}

    # -- recording ---------------------------------------------------------

    def _frames(self) -> list[str]:
        frames = getattr(self._local, "frames", None)
        if frames is None:
            frames = self._local.frames = []
        return frames

    def _add(self, name: str, seconds: float) -> None:
        frames = self._frames()
        with self._lock:
            entry = self.calls[name]
            entry[0] += 1
            entry[1] += seconds
            if frames:
                self.inside[(frames[-1], name)] += seconds

    def _on_span(self, doc: dict) -> None:
        name = SPANS.get(doc["name"])
        if name is not None:
            self._add(name, float(doc["duration_seconds"]))

    def _timed(self, name: str, fn, on_result=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frames = self._frames()
            frames.append(name)
            started = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                frames.pop()
                self._add(name, elapsed)
            if on_result is not None:
                on_result(result)
            return result
        return wrapper

    def _note_hit(self, result) -> None:
        if result is not None:
            with self._lock:
                self.cache_hits += 1

    def _note_submit(self, result) -> None:
        if not result["deduped"]:
            with self._lock:
                self._submitted_at[result["id"]] = time.time()

    def _note_claim(self, result) -> None:
        if result is None:
            return
        with self._lock:
            submitted = self._submitted_at.get(result["analysis_id"])
            if submitted is not None:
                self.queue_waits.append(time.time() - submitted)

    # -- installation ------------------------------------------------------

    def _patch_method(self, cls, attr: str, name: str, on_result=None):
        original = cls.__dict__[attr]
        setattr(cls, attr, self._timed(name, original, on_result))
        self._patches.append((cls, attr, original))

    def _patch_function(self, module, attr: str, name: str) -> None:
        """Wrap a function everywhere the program imported it by name."""
        original = getattr(module, attr)
        wrapper = self._timed(name, original)
        for mod_name, mod in list(sys.modules.items()):
            if (mod_name == "repro" or mod_name.startswith("repro.")) \
                    and getattr(mod, attr, None) is original:
                setattr(mod, attr, wrapper)
                self._patches.append((mod, attr, original))

    def start(self) -> None:
        """Install the wrappers and the tracer."""
        from repro.core.analyzer import RahaAnalyzer
        from repro.failures.availability import ScenarioSampler
        from repro.failures.montecarlo import ScenarioResolver
        from repro.runner import cache, executor
        from repro.service.client import ServiceClient
        from repro.service.store import JobStore
        from repro.solver.model import Model

        self._patch_method(RahaAnalyzer, "analyze", "core.analyze")
        self._patch_method(Model, "resolve_with", "solver.resolve_with")
        self._patch_method(ScenarioSampler, "sample", "failures.sample")
        self._patch_method(ScenarioResolver, "__init__",
                           "failures.resolver_init")
        self._patch_method(ScenarioResolver, "delivered",
                           "failures.delivered")
        self._patch_function(cache, "job_key", "runner.job_key")
        self._patch_method(cache.ResultCache, "get", "runner.cache_get",
                           self._note_hit)
        self._patch_method(cache.ResultCache, "put", "runner.cache_put")
        self._patch_function(executor, "run_sweep", "runner.run_sweep")
        self._patch_method(JobStore, "submit", "service.store.submit",
                           self._note_submit)
        self._patch_method(JobStore, "claim", "service.store.claim",
                           self._note_claim)
        self._patch_method(JobStore, "settle", "service.store.settle")
        self._patch_method(JobStore, "heartbeat", "service.store.heartbeat")
        self._patch_method(ServiceClient, "submit", "service.http.submit")
        self._patch_method(ServiceClient, "result", "service.http.result")
        self._previous_tracer = install_tracer(self.tracer)

    def stop(self) -> None:
        """Remove everything :meth:`start` installed."""
        install_tracer(self._previous_tracer)
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results -----------------------------------------------------------

    def seconds(self, name: str) -> float:
        """Busy seconds of one timed layer (0 when it never ran)."""
        return self.calls[name][1] if name in self.calls else 0.0

    def metrics(self) -> dict[str, float]:
        """Every timed layer's count and busy time, plus the self times."""
        out: dict[str, float] = {}
        for name in TIMED:
            calls, seconds = self.calls.get(name, (0, 0.0))
            out[f"{name}.n"] = calls
            out[f"{name}.s"] = seconds
        out["solver.resolve_overhead_s"] = (
            self.seconds("solver.resolve_with")
            - self.inside[("solver.resolve_with", "solver.lp_solve")])
        out["failures.patch_s"] = (
            self.seconds("failures.delivered")
            - self.inside[("failures.delivered", "solver.resolve_with")])
        gets = out["runner.cache_get.n"]
        out["runner.cache_hit_ratio"] = self.cache_hits / gets if gets else 0.0
        out["service.queue_wait_s"] = (
            statistics.median(self.queue_waits) if self.queue_waits else 0.0)
        return out
