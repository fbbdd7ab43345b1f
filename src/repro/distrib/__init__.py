"""Distributed worker fleet: remote job execution over HTTP.

The analysis service's durable queue (:mod:`repro.service`) was built
around one invariant -- every job reaches a terminal state exactly
once, with the answer a direct ``repro sweep`` would have produced --
and its claim path (fenced tokens, time-bounded leases, the reaper)
already enforces that invariant against crashing and wedging *local*
worker threads.  This package stretches the same claim path across
machine boundaries:

* :class:`~repro.distrib.client.FleetClient` -- the wire protocol: a
  :class:`~repro.service.client.ServiceClient` extended with the
  fenced claim endpoints (``POST /v1/claims``, per-claim
  heartbeat/settle/release) plus worker registration, with bounded
  deterministic retries and the ``distrib.*`` chaos sites.
* :class:`~repro.distrib.worker.WorkerAgent` -- the pull-based agent
  behind ``python -m repro worker``: N slots running the local pool's
  own claim loop (:class:`~repro.service.claims.ClaimRunner`) over
  HTTP, so execution, lease renewal, cancel and drain behave exactly
  as they do on the coordinator.

Nothing here adds a second execution engine or a second state machine:
a remote worker is just another consumer of
:meth:`repro.service.store.JobStore.claim`, reached through HTTP
instead of a function call, so every supervision guarantee the local
pool enjoys -- reaping, quarantine, fencing against stale settles --
applies to the fleet unchanged.
"""

from repro.distrib.client import FleetClient
from repro.distrib.worker import WorkerAgent, run_worker

__all__ = ["FleetClient", "WorkerAgent", "run_worker"]
