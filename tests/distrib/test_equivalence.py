"""Distributed acceptance: bit-identical results, exactly-once on kill.

Two pins hold the fleet to the paper's reproduction bar:

* a B4 degradation sweep executed by a remote worker against a pure
  coordinator (``local_workers=False``) must match a direct
  :func:`~repro.runner.executor.run_sweep` of the same spec bit for
  bit (wall-clock telemetry scrubbed);
* SIGKILLing a worker *process* mid-job must lose nothing: the lease
  lapses, the reaper requeues, a second worker settles, and the audit
  trail shows exactly one terminal transition per job.
"""

import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

from repro.core.config import DistribConfig, ServiceConfig, SupervisionConfig
from repro.distrib.worker import WorkerAgent
from repro.network import serialization as ser
from repro.network.demand import gravity_demands
from repro.network.zoo import b4
from repro.paths.pathset import PathSet
from repro.runner.cache import ResultCache
from repro.runner.executor import run_sweep
from repro.runner.jobs import SweepSpec
from repro.service.api import AnalysisService, make_server
from repro.service.client import ServiceClient
from tests.service._specs import sleep_spec

REPO_ROOT = Path(__file__).resolve().parents[2]


def scrub(doc):
    """Drop wall-clock telemetry (``*_seconds``); the rest must match."""
    if isinstance(doc, dict):
        return {key: scrub(value) for key, value in doc.items()
                if not key.endswith("_seconds")}
    if isinstance(doc, list):
        return [scrub(item) for item in doc]
    return doc


def b4_spec() -> dict:
    """A 2-job degradation sweep on B4 -- small but a real analysis."""
    topology = b4()
    nodes = sorted(topology.nodes)
    pairs = [(nodes[0], nodes[5]), (nodes[2], nodes[9])]
    demands = gravity_demands(topology, scale=5e5, pairs=pairs, seed=1)
    paths = PathSet.k_shortest(topology, pairs, num_primary=2,
                               num_backup=1)
    return {
        "kind": "sweep_spec",
        "name": "distrib-equivalence",
        "instance": {
            "topology": ser.topology_to_dict(topology),
            "demands": ser.demands_to_dict(demands),
            "paths": ser.paths_to_dict(paths),
        },
        "base": {"demand_mode": "fixed", "max_failures": 2,
                 "time_limit": 60.0, "mip_rel_gap": 0.0},
        "grid": {"threshold": [1e-4, 1e-2]},
    }


def start_coordinator(tmp_path, **config_overrides):
    defaults = dict(port=0, num_workers=1, isolate_jobs=False,
                    local_workers=False, poll_interval_seconds=0.02)
    defaults.update(config_overrides)
    service = AnalysisService(tmp_path / "svc",
                              config=ServiceConfig(**defaults))
    # Pure coordinator: no local worker threads start, but recovery,
    # the reaper, and result eviction do.
    service.start()
    server = make_server(service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[0], server.server_address[1]
    url = f"http://{host}:{port}"

    def shutdown():
        server.shutdown()
        thread.join(timeout=5)
        service.stop(drain=False)

    return service, url, shutdown


class TestBitIdentical:
    def test_remote_sweep_matches_direct_run(self, tmp_path):
        spec_doc = b4_spec()
        direct = run_sweep(SweepSpec.from_dict(spec_doc), num_workers=1,
                           cache=ResultCache(tmp_path / "direct-cache"),
                           handle_signals=False)
        assert all(o.ok for o in direct.outcomes)
        direct_by_key = {o.job.key: scrub(o.result)
                         for o in direct.outcomes}

        service, url, shutdown = start_coordinator(tmp_path)
        try:
            client = ServiceClient(url, client_id="equiv")
            accepted = client.submit(spec_doc)
            agent = WorkerAgent(
                url, config=DistribConfig(num_workers=1),
                worker_id="equiv-worker", isolate_jobs=False)
            agent.client.register(capacity=1)
            assert agent.run_until_idle() == accepted["total_jobs"]
            results = client.result(accepted["id"])
        finally:
            shutdown()
        assert results["counts"]["done"] == accepted["total_jobs"]
        remote_by_key = {j["key"]: scrub(j["result"])
                         for j in results["jobs"]}
        assert remote_by_key == direct_by_key


class TestWorkerKill:
    def test_sigkilled_worker_loses_nothing(self, tmp_path):
        service, url, shutdown = start_coordinator(
            tmp_path,
            supervision=SupervisionConfig(lease_seconds=0.5,
                                          reap_interval_seconds=0.1))
        worker = None
        try:
            client = ServiceClient(url, client_id="chaos")
            accepted = client.submit(sleep_spec(2.0, [1], name="killme"))
            env = dict(os.environ)
            env["PYTHONPATH"] = f"{REPO_ROOT / 'src'}{os.pathsep}{REPO_ROOT}"
            worker = subprocess.Popen(
                [sys.executable, "-m", "repro", "worker",
                 "--connect", url, "--workers", "1", "--no-isolate",
                 "--lease-seconds", "0.5", "--heartbeat-interval", "0.1",
                 "--poll-interval", "0.05", "--name", "victim"],
                cwd=REPO_ROOT, env=env, stderr=subprocess.DEVNULL)

            deadline = time.monotonic() + 30
            while service.store.counts()["running"] == 0:
                assert worker.poll() is None, "worker died prematurely"
                assert time.monotonic() < deadline
                time.sleep(0.02)
            # kill -9 mid-job: no drain, no release, no settle.
            worker.send_signal(signal.SIGKILL)
            worker.wait(timeout=10)

            # The lease lapses and the reaper requeues within ~0.6s;
            # then a second worker finishes the job.
            deadline = time.monotonic() + 10
            while service.store.counts()["queued"] == 0:
                assert time.monotonic() < deadline
                time.sleep(0.05)
            second = WorkerAgent(
                url, config=DistribConfig(num_workers=1),
                supervision=SupervisionConfig(lease_seconds=30.0),
                worker_id="survivor", isolate_jobs=False)
            assert second.run_until_idle() == 1
            results = client.result(accepted["id"])
            transitions = service.store.transitions(accepted["id"])
        finally:
            if worker is not None and worker.poll() is None:
                worker.kill()
            shutdown()

        assert results["counts"]["done"] == 1
        job = results["jobs"][0]
        assert job["result"] == {"slept": True}
        assert job["attempts"] == 2  # the killed claim burned attempt 1
        # Exactly-once: one terminal transition in the audit trail, and
        # the kill shows up as exactly one extra running->queued reap.
        terminal = [t for t in transitions
                    if t["to_state"] in ("done", "failed", "cancelled")]
        assert len(terminal) == 1
        requeues = [t for t in transitions
                    if (t["from_state"], t["to_state"])
                    == ("running", "queued")]
        assert len(requeues) == 1
