"""The remote worker agent behind ``python -m repro worker``.

A :class:`WorkerAgent` is the pull half of the fleet: ``num_workers``
slots run the shared claim -> execute -> settle loop
(:class:`~repro.service.claims.ClaimRunner`) against a coordinator's
HTTP claim protocol.  Execution, leases, the renewal horizon, fencing,
cancel, deadlines and drain are the runner's, and behave exactly as on
the coordinator's local pool; the distributed equivalence tests pin
the results to ``repro sweep``'s byte for byte.

The runner's transport is the agent's
:class:`~repro.distrib.client.FleetClient`: the cancel flag arrives in
the heartbeat response, and the settle ships the result document and
the job's trace spans, so a traced coordinator sees remote work in its
own timeline.  The agent itself owns only registration and
deregistration with the coordinator and SIGINT/SIGTERM handling
(:func:`run_worker`).
"""

from __future__ import annotations

import logging
import os
import signal
import socket
import threading

from repro.core.config import DistribConfig, RunnerConfig, SupervisionConfig
from repro.exceptions import ServiceError
from repro.runner.cache import ResultCache
from repro.service.claims import ClaimRunner

from repro.distrib.client import FleetClient

logger = logging.getLogger(__name__)


class WorkerAgent:
    """``num_workers`` slots pulling jobs from one coordinator.

    Args:
        connect_url: ``http://host:port`` of the coordinating service.
        config: Fleet knobs (slots, longest claim wait, retry budget,
            drain timeout).
        supervision: Lease knobs (lease, heartbeat cadence, renewal
            cap) for this agent's claims.
        runner_config: Executor knobs for the jobs themselves; defaults
            match the scheduler's (2 pooled workers when isolating).
        worker_id: Fleet identity; defaults to ``<hostname>-<pid>``.
        cache_dir: Local result-cache directory; ``None`` runs
            cacheless (the coordinator's cache still dedups re-runs,
            because results ship in the settle payload).
        isolate_jobs: Run each job in a worker *process* (the
            executor's pooled path) so a segfaulting solve costs one
            job, not the agent.  Each slot keeps its worker process
            warm across claims (see :class:`ClaimRunner`).
    """

    def __init__(self, connect_url: str,
                 config: DistribConfig | None = None,
                 supervision: SupervisionConfig | None = None,
                 runner_config: RunnerConfig | None = None,
                 worker_id: str | None = None,
                 cache_dir: str | os.PathLike | None = None,
                 isolate_jobs: bool = True):
        self.config = config or DistribConfig()
        self.worker_id = worker_id \
            or f"{socket.gethostname()}-{os.getpid()}"
        self.client = FleetClient(connect_url, self.worker_id,
                                  config=self.config)
        self.runner = ClaimRunner(
            self.client,
            supervision=supervision or SupervisionConfig(),
            runner_config=runner_config or RunnerConfig(
                num_workers=2 if isolate_jobs else 1),
            cache=ResultCache(cache_dir) if cache_dir else None,
            isolate_jobs=isolate_jobs,
            poll_interval_seconds=self.config.poll_interval_seconds,
            ship_spans=True)

    @property
    def stop_event(self) -> threading.Event:
        """The drain signal (shared with in-flight ``run_sweep`` calls)."""
        return self.runner.stop_event

    @property
    def counts(self) -> dict[str, int]:
        """Claims processed by terminal outcome (``done``/``failed``/
        ``cancelled``/``stale``/``released``), for drain-time logs and
        tests."""
        return self.runner.counts

    def start(self) -> None:
        """Register with the coordinator and start the slot threads."""
        self.client.register(capacity=self.config.num_workers,
                             host=socket.gethostname(), pid=os.getpid())
        logger.info("worker %s registered (%d slot(s))", self.worker_id,
                    self.config.num_workers)
        self.runner.start(self.config.num_workers)

    def stop(self, drain: bool = True) -> None:
        """Request a stop, join the slots, deregister.

        With ``drain`` (the default) in-flight jobs get
        ``drain_timeout_seconds`` in all to settle; without it the join
        is immediate.  Abandoned claims are left to their leases -- the
        coordinator's reaper requeues them.
        """
        self.runner.stop(
            self.config.drain_timeout_seconds if drain else 0.0)
        try:
            self.client.deregister()
        except ServiceError as exc:
            # Deregistration is bookkeeping, not correctness -- a
            # coordinator that died first must not turn a clean drain
            # into a crash.
            logger.warning("could not deregister %s: %s",
                           self.worker_id, exc)

    def run_until_idle(self) -> int:
        """Drain the coordinator's queue on the calling thread (tests).

        Returns:
            How many claims this call processed (settled or released).
        """
        return self.runner.run_until_idle()

    def run_forever(self) -> None:
        """Block until the stop event fires (signal handlers set it)."""
        while not self.stop_event.wait(0.2):
            pass


def run_worker(connect_url: str, config: DistribConfig | None = None,
               supervision: SupervisionConfig | None = None,
               worker_id: str | None = None,
               cache_dir: str | os.PathLike | None = None,
               isolate_jobs: bool = True,
               runner_config: RunnerConfig | None = None) -> int:
    """The ``repro worker`` entry point: run an agent until signalled.

    Installs SIGINT/SIGTERM handlers that trigger a graceful drain
    (release unstarted claims, finish in-flight jobs within the drain
    timeout, deregister), then exits 0.

    Returns:
        Process exit code.
    """
    agent = WorkerAgent(connect_url, config=config,
                        supervision=supervision, worker_id=worker_id,
                        cache_dir=cache_dir, isolate_jobs=isolate_jobs,
                        runner_config=runner_config)

    def _signalled(signum, frame):
        logger.info("worker %s: received signal %d, draining",
                    agent.worker_id, signum)
        agent.stop_event.set()

    previous = {}
    for sig in (signal.SIGINT, signal.SIGTERM):
        previous[sig] = signal.signal(sig, _signalled)
    try:
        agent.start()
        agent.run_forever()
        agent.stop(drain=True)
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)
    logger.info("worker %s drained: %s", agent.worker_id,
                agent.counts or "no jobs")
    return 0
