"""CI service-smoke: the HTTP path must match the direct CLI path.

Builds a small B4 analysis campaign (real MILP jobs on the paper's B4
topology), runs it twice:

1. directly, through ``python -m repro sweep`` in this process;
2. through a real ``repro serve`` subprocess -- submit over HTTP, poll
   to completion, fetch the results document;

and asserts the two are bit-identical per job key.  Along the way it
exercises the operational surface: ``/healthz``, ``/metricz`` (the
service counters must account for the submitted jobs), idempotent
resubmission, and a graceful SIGTERM shutdown (exit 0, nothing left
running in the store, and none of the server's worker processes --
recorded from ``/proc`` while it ran -- outliving it).  A second server
run then drives the supervision layer: a ``worker.hang`` fault wedges
one job far past a short lease, the reaper must requeue it, and the
recovered sweep must still match the direct run bit for bit.

Exit code 0 on success, 1 with a diagnostic on any failure.

Run locally::

    PYTHONPATH=src python tools/service_smoke.py
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

from repro import cli
from repro.network import serialization as ser
from repro.network.demand import gravity_demands
from repro.network.zoo import b4
from repro.paths.pathset import PathSet
from repro.service.client import ServiceClient

REPO_ROOT = Path(__file__).resolve().parents[1]


def _fail(message: str) -> int:
    print(f"service smoke FAILED: {message}", file=sys.stderr)
    return 1


def scrub(doc):
    """Drop wall-clock telemetry (``*_seconds``) from a result document.

    Everything else -- degradations, witness scenarios, matrix shapes,
    solver status -- is deterministic and must match bit for bit.
    """
    if isinstance(doc, dict):
        return {key: scrub(value) for key, value in doc.items()
                if not key.endswith("_seconds")}
    if isinstance(doc, list):
        return [scrub(item) for item in doc]
    return doc


def build_spec() -> dict:
    """A 2-job degradation sweep on B4 -- small but a real analysis."""
    topology = b4()
    nodes = sorted(topology.nodes)
    pairs = [(nodes[0], nodes[5]), (nodes[2], nodes[9]),
             (nodes[4], nodes[11])]
    demands = gravity_demands(topology, scale=5e5, pairs=pairs, seed=1)
    paths = PathSet.k_shortest(topology, pairs, num_primary=2,
                               num_backup=1)
    return {
        "kind": "sweep_spec",
        "name": "service-smoke",
        "instance": {
            "topology": ser.topology_to_dict(topology),
            "demands": ser.demands_to_dict(demands),
            "paths": ser.paths_to_dict(paths),
        },
        "base": {"demand_mode": "fixed", "max_failures": 2,
                 "time_limit": 60.0, "mip_rel_gap": 0.0},
        "grid": {"threshold": [1e-4, 1e-2]},
    }


def start_server(workdir: Path, extra_args: list[str] | None = None,
                 extra_env: dict[str, str] | None = None):
    cmd = [sys.executable, "-m", "repro", "serve",
           "--workdir", str(workdir), "--port", "0", "--workers", "2"]
    cmd += extra_args or []
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    env.update(extra_env or {})
    proc = subprocess.Popen(cmd, cwd=REPO_ROOT, env=env,
                            stderr=subprocess.PIPE)
    state = workdir / "service.json"
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            raise RuntimeError(
                f"server exited {proc.returncode}: "
                f"{proc.stderr.read().decode()}")
        if state.exists():
            try:
                return proc, json.loads(state.read_text())["url"]
            except (ValueError, KeyError):
                pass
        time.sleep(0.1)
    proc.kill()
    raise RuntimeError("server never wrote its state file")


def _stat(pid: int) -> list[str] | None:
    """Fields of ``/proc/<pid>/stat`` after the command name, or None.

    Index 0 is the state, 1 the parent pid, 19 the start time.
    """
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()
    except (OSError, IndexError):
        return None


class ChildWatch:
    """Record a process's children from ``/proc`` until stopped.

    Children are kept as ``(pid, start time)`` so a recycled pid is not
    mistaken for a survivor.  Linux only: elsewhere nothing is seen.
    """

    def __init__(self, parent: int, interval: float = 0.05):
        self.parent = str(parent)
        self.seen: set[tuple[int, str]] = set()
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, args=(interval,), daemon=True)
        self._thread.start()

    def _run(self, interval: float) -> None:
        if not os.path.isdir("/proc"):
            return
        while not self._stop.wait(interval):
            for entry in os.listdir("/proc"):
                fields = _stat(int(entry)) if entry.isdigit() else None
                if fields and fields[1] == self.parent:
                    self.seen.add((int(entry), fields[19]))

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()

    def survivors(self) -> list[int]:
        """Recorded children still running (not exited or zombie)."""
        alive = []
        for pid, started in sorted(self.seen):
            fields = _stat(pid)
            if fields and fields[19] == started and fields[0] != "Z":
                alive.append(pid)
        return alive


def stop_server(proc, watch: ChildWatch, timeout: float,
                scenario: str) -> int | None:
    """SIGTERM the server; it must exit 0 and leave no child behind.

    Returns ``None`` on success, or an exit code from :func:`_fail`.
    """
    proc.send_signal(signal.SIGTERM)
    code = proc.wait(timeout=timeout)
    watch.stop()
    if code != 0:
        return _fail(f"{scenario}server exited {code} on SIGTERM")
    if sys.platform.startswith("linux") and not watch.seen:
        return _fail(f"{scenario}no worker process of the server was "
                     f"ever seen; the orphan check proved nothing")
    survivors = watch.survivors()
    if survivors:
        return _fail(f"{scenario}worker process(es) {survivors} outlived "
                     f"the server's SIGTERM exit")
    return None


def hung_worker_scenario(root: Path, spec_doc: dict,
                         direct_by_key: dict) -> int | None:
    """Supervision smoke: a hung worker's job is reaped and re-run.

    Starts a fresh server with a short lease, a ``worker.hang`` fault
    wedging the first job's first attempt for far longer than the
    lease, and ``lease.heartbeat`` stalling that job's renewals while
    it hangs.  The reaper must requeue the job, the re-run (attempt 2,
    continuous across claims) must finish cleanly, and the results must
    still be bit-identical to the direct CLI run.

    Returns ``None`` on success, or an exit code from :func:`_fail`.
    """
    from repro.runner.jobs import SweepSpec

    hung_key = SweepSpec.from_dict(spec_doc).expand()[0].key
    plan = {
        "kind": "fault_plan",
        "seed": 9,
        "points": [
            # Attempt 1 of this job wedges for 12s -- four leases.
            {"site": "worker.hang", "attempts": [1], "match": hung_key},
            # ...and its heartbeats stall while it does (the first few
            # beats drop; once the lease has lapsed and the job is
            # reaped, renewals behave again for the re-run).
            {"site": "lease.heartbeat", "match": hung_key,
             "max_fires": 4},
        ],
    }
    proc, url = start_server(
        root / "svc-hang",
        extra_args=["--chaos", json.dumps(plan),
                    "--lease-seconds", "3.0", "--reap-interval", "0.5"],
        extra_env={"REPRO_CHAOS_HANG_SECONDS": "12.0"},
    )
    watch = ChildWatch(proc.pid)
    try:
        client = ServiceClient(url, client_id="smoke-hang")
        accepted = client.submit(spec_doc)
        results = client.wait(accepted["id"], timeout=600,
                              poll_interval=0.5)
        if results["counts"]["done"] != accepted["total_jobs"]:
            return _fail(f"hung-worker scenario: jobs did not all "
                         f"finish: {results['counts']}")
        for job in results["jobs"]:
            ours = scrub(job["result"])
            theirs = scrub(direct_by_key[job["key"]])
            if ours != theirs:
                return _fail(
                    f"hung-worker scenario: result for "
                    f"{job['key'][:12]} differs after the reap:\n"
                    f"  service: {json.dumps(ours, sort_keys=True)}\n"
                    f"  direct:  {json.dumps(theirs, sort_keys=True)}")
        counters = client.metrics().get("counters", {})
        if counters.get("service.jobs.reaped", 0) < 1:
            return _fail(f"hung-worker scenario: reaper never fired: "
                         f"{counters}")
    finally:
        stopped = stop_server(proc, watch, 120, "hung-worker scenario: ")
    return stopped


def main() -> int:
    spec_doc = build_spec()
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)

        # 1. The direct CLI path.
        spec_path = root / "spec.json"
        spec_path.write_text(json.dumps(spec_doc))
        code = cli.main(["sweep", "--spec", str(spec_path),
                         "--workdir", str(root / "direct"),
                         "--jobs", "2", "--quiet"])
        if code != 0:
            return _fail(f"direct sweep exited {code}")
        direct = json.loads((root / "direct" / "results.json").read_text())
        direct_by_key = {job["key"]: job["result"]
                        for job in direct["jobs"]}

        # 2. The same spec over HTTP against a real server process.
        proc, url = start_server(root / "svc")
        watch = ChildWatch(proc.pid)
        try:
            client = ServiceClient(url, client_id="smoke")
            health = client.health()
            if not health.get("ok"):
                return _fail(f"unhealthy at startup: {health}")
            accepted = client.submit(spec_doc)
            if accepted["total_jobs"] != len(direct["jobs"]):
                return _fail(
                    f"service expanded {accepted['total_jobs']} jobs, "
                    f"direct ran {len(direct['jobs'])}")
            resubmitted = client.submit(spec_doc)
            if not resubmitted.get("deduped"):
                return _fail("duplicate submission was not deduped")
            results = client.wait(accepted["id"], timeout=600,
                                  poll_interval=0.5)
            if results["counts"]["done"] != accepted["total_jobs"]:
                return _fail(f"jobs did not all finish: "
                             f"{results['counts']}")

            # 3. Bit-identical to the direct path, key by key.
            service_by_key = {job["key"]: job["result"]
                              for job in results["jobs"]}
            if set(service_by_key) != set(direct_by_key):
                return _fail(
                    f"job keys differ: service {sorted(service_by_key)} "
                    f"vs direct {sorted(direct_by_key)}")
            for key, result in service_by_key.items():
                ours, theirs = scrub(result), scrub(direct_by_key[key])
                if ours != theirs:
                    return _fail(
                        f"result for {key[:12]} differs:\n"
                        f"  service: {json.dumps(ours, sort_keys=True)}\n"
                        f"  direct:  "
                        f"{json.dumps(theirs, sort_keys=True)}")

            # 4. The ops surface accounts for the work.
            snapshot = client.metrics()
            counters = snapshot.get("counters", {})
            if counters.get("service.jobs_done", 0) < accepted["total_jobs"]:
                return _fail(f"metricz undercounts done jobs: {counters}")
            if counters.get("service.http_requests", 0) < 4:
                return _fail(f"metricz undercounts requests: {counters}")
        finally:
            stopped = stop_server(proc, watch, 60, "")
        if stopped is not None:
            return stopped

        # 5. Supervision: a hung worker loses its job to the reaper and
        # the re-run is still bit-identical to the direct path.
        failed = hung_worker_scenario(root, spec_doc, direct_by_key)
        if failed is not None:
            return failed

    print(f"service smoke ok: {len(direct_by_key)} jobs bit-identical "
          f"over HTTP (including after a hung-worker reap), "
          f"healthz/metricz consistent, clean shutdown with no "
          f"orphaned workers")
    return 0


if __name__ == "__main__":
    sys.exit(main())
