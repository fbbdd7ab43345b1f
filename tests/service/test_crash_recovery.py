"""Crash-recovery acceptance: kill -9 the real server mid-campaign.

A `repro serve` subprocess runs with a chaos plan whose crash sites
HARD-EXIT the process (genuine kill -9 semantics -- no cleanup, no
flushing).  The tests assert the ISSUE's acceptance criteria directly:

* no accepted job is lost and none double-runs (the ``transitions``
  audit table shows exactly one terminal transition per job);
* the restarted service's results are bit-identical to running the
  same spec straight through ``run_sweep``.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

from repro.exceptions import ServiceError
from repro.runner.cache import ResultCache
from repro.runner.executor import run_sweep
from repro.runner.jobs import SweepSpec
from repro.service.client import ServiceClient
from repro.service.store import CRASH_EXIT_CODE, JobStore
from tests.service._specs import echo_spec

REPO_ROOT = Path(__file__).resolve().parents[2]

#: Crash hard at the first claim: one job is left 'running' on disk.
CRASH_PLAN = json.dumps({
    "kind": "fault_plan",
    "seed": 7,
    "points": [{"site": "service.crash_claimed", "rate": 1.0,
                "max_fires": 1}],
})


def start_server(workdir: Path, chaos: str | None = None):
    """Launch ``repro serve`` and wait for its state file."""
    state = workdir / "service.json"
    if state.exists():
        state.unlink()  # a stale file would hand out the old port
    cmd = [sys.executable, "-m", "repro", "serve",
           "--workdir", str(workdir), "--port", "0",
           "--workers", "1", "--no-isolate"]
    if chaos:
        cmd += ["--chaos", chaos]
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    proc = subprocess.Popen(cmd, cwd=REPO_ROOT, env=env,
                            stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE)
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            raise RuntimeError(
                f"server exited {proc.returncode} during startup: "
                f"{proc.stderr.read().decode()}")
        if state.exists():
            try:
                return proc, json.loads(state.read_text())["url"]
            except (ValueError, KeyError):
                pass  # partially written
        time.sleep(0.05)
    proc.kill()
    raise RuntimeError("server did not write its state file in time")


def stop_server(proc) -> int:
    proc.send_signal(signal.SIGTERM)
    try:
        return proc.wait(timeout=30)
    except subprocess.TimeoutExpired:
        proc.kill()
        raise


def analysis_named(store: JobStore, name: str) -> str:
    """The id of the one claimed analysis the store holds as ``name``."""
    ids = {t["analysis_id"] for t in store.transitions()}
    [found] = [analysis_id for analysis_id in ids
               if store.analysis_status(analysis_id)["name"] == name]
    return found


class TestCrashRecovery:
    def test_kill9_midcampaign_then_restart_exactly_once(self, tmp_path):
        workdir = tmp_path / "svc"
        workdir.mkdir()
        doc = echo_spec([1, 2, 3], name="crashy")
        spec = SweepSpec.from_dict(doc)

        proc, url = start_server(workdir, chaos=CRASH_PLAN)
        client = ServiceClient(url, client_id="test")
        try:
            analysis_id = client.submit(doc)["id"]
        except ServiceError as exc:
            # The submit wakes the idle slot at once, and its first claim
            # hard-exits the server: that may come before the response
            # is written.  Only a lost response (no status) is tolerated.
            if exc.status is not None:
                raise
            analysis_id = None

        # The first claim fires the injected crash: the server process
        # hard-exits with the crash code, one job wedged in 'running'.
        assert proc.wait(timeout=30) == CRASH_EXIT_CODE
        store = JobStore(workdir / "service.db")
        try:
            if analysis_id is None:
                analysis_id = analysis_named(store, doc["name"])
            wedged = store.counts()
            assert store.analysis_status(analysis_id)["total_jobs"] == 3
        finally:
            store.close()
        assert wedged["running"] == 1
        assert wedged["queued"] == 2

        # Restart (no chaos): recovery requeues; everything finishes.
        proc, url = start_server(workdir)
        try:
            client = ServiceClient(url, client_id="test")
            results = client.wait(analysis_id, timeout=60)
        finally:
            assert stop_server(proc) == 0
        assert results["counts"]["done"] == 3
        by_value = sorted(j["result"]["echo"] for j in results["jobs"])
        assert by_value == [1, 2, 3]

        # Exactly-once: one terminal transition per job, ever.
        store = JobStore(workdir / "service.db")
        try:
            terminal = {}
            for t in store.transitions(analysis_id):
                if t["to_state"] in ("done", "failed", "cancelled"):
                    terminal[t["key"]] = terminal.get(t["key"], 0) + 1
            assert terminal == {job.key: 1 for job in spec.expand()}
            # ... and the crashed job really did take two attempts.
            attempts = {j["key"]: j["attempts"]
                        for j in store.analysis_jobs(analysis_id)}
            assert max(attempts.values()) == 2
            assert sorted(attempts.values()) == [1, 1, 2]
        finally:
            store.close()

        # Bit-identical to the direct executor path on the same spec.
        direct = run_sweep(spec, num_workers=1,
                           cache=ResultCache(tmp_path / "direct-cache"),
                           handle_signals=False)
        direct_by_key = {o.job.key: o.result for o in direct.outcomes}
        service_by_key = {j["key"]: j["result"] for j in results["jobs"]}
        assert service_by_key == direct_by_key

    def test_sigterm_drains_cleanly(self, tmp_path):
        workdir = tmp_path / "svc"
        workdir.mkdir()
        proc, url = start_server(workdir)
        client = ServiceClient(url, client_id="test")
        accepted = client.submit(echo_spec(range(4), name="drain"))
        client.wait(accepted["id"], timeout=60)
        assert stop_server(proc) == 0
        # Nothing left half-done on disk after a graceful stop.
        store = JobStore(workdir / "service.db")
        try:
            counts = store.counts()
        finally:
            store.close()
        assert counts["running"] == 0
        assert counts["done"] == 4
