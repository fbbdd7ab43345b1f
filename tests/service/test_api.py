"""The HTTP surface: routes, admission, dedup, eviction, client lib."""

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.core.config import ServiceConfig
from repro.exceptions import AdmissionError, ServiceError
from repro.service.api import AnalysisService, make_server
from repro.service.client import ServiceClient
from tests.service._specs import echo_spec, sleep_spec


@pytest.fixture
def service(tmp_path):
    """A full service on an ephemeral port, workers NOT started.

    Tests that need jobs to actually run call ``run_until_idle`` --
    deterministic, no polling races.
    """
    config = ServiceConfig(port=0, num_workers=1, isolate_jobs=False,
                           max_queue_depth=10, max_inflight_per_client=8,
                           retry_after_seconds=3.0,
                           poll_interval_seconds=0.02)
    service = AnalysisService(tmp_path / "svc", config=config)
    server = make_server(service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[0], server.server_address[1]
    service.base_url = f"http://{host}:{port}"
    yield service
    server.shutdown()
    thread.join(timeout=5)
    service.stop(drain=False)


def raw(service, method, path, body=None):
    data = json.dumps(body).encode() if body is not None else None
    request = urllib.request.Request(service.base_url + path, data=data,
                                     method=method)
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return (response.status, json.loads(response.read() or b"{}"),
                    dict(response.headers))
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read() or b"{}"), dict(exc.headers)


class TestSubmission:
    def test_submit_then_dedup(self, service):
        doc = echo_spec([1, 2])
        status, body, _ = raw(service, "POST", "/v1/analyses", doc)
        assert status == 201 and body["total_jobs"] == 2
        status, body, _ = raw(service, "POST", "/v1/analyses", doc)
        assert status == 200 and body["deduped"] is True

    def test_rejects_file_references(self, service):
        doc = echo_spec([1])
        doc["instance"] = {"topology": "/etc/hostname"}
        status, body, _ = raw(service, "POST", "/v1/analyses", doc)
        assert status == 400
        assert "embedded" in body["error"]

    def test_rejects_invalid_spec_and_bad_json(self, service):
        status, body, _ = raw(service, "POST", "/v1/analyses",
                              {"kind": "sweep_spec", "instance": {}})
        assert status == 400 and "invalid sweep spec" in body["error"]
        request = urllib.request.Request(
            service.base_url + "/v1/analyses", data=b"not json",
            method="POST")
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request, timeout=10)
        assert err.value.code == 400

    def test_unknown_route_404(self, service):
        status, _, _ = raw(service, "GET", "/v1/nope")
        assert status == 404


class TestAdmission:
    def test_queue_depth_shed_with_retry_after(self, service):
        status, _, _ = raw(service, "POST", "/v1/analyses",
                           echo_spec(range(8), name="filler"))
        assert status == 201
        status, body, headers = raw(service, "POST", "/v1/analyses",
                                    echo_spec(range(100, 108), name="over"))
        assert status == 429
        assert "Retry-After" in headers
        assert int(headers["Retry-After"]) >= 1
        assert body["retry_after_seconds"] >= 3.0

    def test_per_client_cap(self, service):
        client = ServiceClient(service.base_url, client_id="greedy")
        client.submit(echo_spec(range(8), name="first"))
        with pytest.raises(AdmissionError) as err:
            client.submit(echo_spec(range(2), name="second"))
        assert err.value.retry_after is not None
        assert "per-client cap" in str(err.value)
        # Another client still fits under the global depth cap.
        other = ServiceClient(service.base_url, client_id="patient")
        assert other.submit(echo_spec(range(2), name="second"))["id"]

    def test_oversize_batch_is_permanent_400(self, service):
        """Regression: a batch bigger than the queue cap used to come
        back 429 + Retry-After, sending clients into an infinite retry
        loop for a submission that can never fit."""
        status, body, headers = raw(service, "POST", "/v1/analyses",
                                    echo_spec(range(12), name="huge"))
        assert status == 400
        assert "Retry-After" not in headers
        assert "retry_after_seconds" not in body
        assert "split the batch" in body["error"]

    def test_dedup_bypasses_admission(self, service):
        doc = echo_spec(range(8), name="filler")
        assert raw(service, "POST", "/v1/analyses", doc)[0] == 201
        # Queue is now nearly full; resubmitting the same spec is not
        # new load and must not be shed.
        status, body, _ = raw(service, "POST", "/v1/analyses", doc)
        assert status == 200 and body["deduped"]


class TestLifecycle:
    def test_status_result_and_cancel(self, service):
        client = ServiceClient(service.base_url)
        accepted = client.submit(echo_spec([1, 2, 3]))
        analysis_id = accepted["id"]
        assert client.status(analysis_id)["state"] == "queued"
        assert client.result(analysis_id) is None  # 202 while queued
        service.scheduler.run_until_idle()
        results = client.result(analysis_id)
        assert results["counts"]["done"] == 3
        assert sorted(j["result"]["echo"] for j in results["jobs"]) \
            == [1, 2, 3]

    def test_result_of_unfinished_carries_retry_after(self, service):
        analysis_id = raw(service, "POST", "/v1/analyses",
                          echo_spec([1]))[1]["id"]
        status, _, headers = raw(
            service, "GET", f"/v1/analyses/{analysis_id}/result")
        assert status == 202
        assert "Retry-After" in headers

    def test_cancel_queued_jobs(self, service):
        client = ServiceClient(service.base_url)
        analysis_id = client.submit(echo_spec([1, 2, 3]))["id"]
        assert client.cancel(analysis_id)["cancelled"] == 3
        assert client.status(analysis_id)["state"] == "cancelled"

    def test_unknown_analysis_is_404(self, service):
        client = ServiceClient(service.base_url)
        with pytest.raises(ServiceError) as err:
            client.status("feedfacedeadbeef")
        assert err.value.status == 404

    def test_cancel_unknown_analysis_is_404(self, service):
        status, body, _ = raw(service, "DELETE",
                              "/v1/analyses/feedfacedeadbeef")
        assert status == 404
        assert "unknown analysis" in body["error"]

    def test_cancel_terminal_analysis_is_409(self, service):
        """Regression: DELETE used to answer 200 for both "nothing to
        cancel" and a genuine cancel -- a client could not tell a
        finished analysis from a live one it just stopped."""
        client = ServiceClient(service.base_url)
        analysis_id = client.submit(echo_spec([1]))["id"]
        service.scheduler.run_until_idle()
        status, body, _ = raw(service, "DELETE",
                              f"/v1/analyses/{analysis_id}")
        assert status == 409
        assert "terminal" in body["error"]
        # The client lib surfaces it as a ServiceError with the status.
        with pytest.raises(ServiceError) as err:
            client.cancel(analysis_id)
        assert err.value.status == 409

    def test_evicted_results_reported_gone(self, service):
        client = ServiceClient(service.base_url)
        analysis_id = client.submit(echo_spec([1]))["id"]
        service.scheduler.run_until_idle()
        # Evict everything behind the service's back.
        service.cache.prune(max_bytes=0)
        status, body, _ = raw(
            service, "GET", f"/v1/analyses/{analysis_id}/result")
        assert status == 410
        assert body["evicted"] == 1
        assert body["jobs"][0]["evicted"] is True

    def test_wait_polls_to_completion(self, service):
        client = ServiceClient(service.base_url)
        analysis_id = client.submit(echo_spec([9]))["id"]
        done = threading.Event()

        def drain():
            time.sleep(0.1)
            service.scheduler.run_until_idle()
            done.set()

        threading.Thread(target=drain, daemon=True).start()
        results = client.wait(analysis_id, timeout=20, poll_interval=0.05)
        assert done.is_set()
        assert results["jobs"][0]["result"] == {"echo": 9}


class TestSupervisionSurface:
    def test_deadline_seconds_validated(self, service):
        doc = echo_spec([1])
        doc["deadline_seconds"] = -1
        status, body, _ = raw(service, "POST", "/v1/analyses", doc)
        assert status == 400
        assert "deadline_seconds" in body["error"]
        doc["deadline_seconds"] = "soon"
        assert raw(service, "POST", "/v1/analyses", doc)[0] == 400

    def test_deadline_rides_submission_and_expires(self, service):
        client = ServiceClient(service.base_url)
        analysis_id = client.submit(echo_spec([1], name="rush"),
                                    deadline_seconds=0.01)["id"]
        time.sleep(0.05)
        service.scheduler.run_until_idle()
        status = client.status(analysis_id)
        assert status["state"] == "failed"
        result = client.result(analysis_id)
        assert result["jobs"][0]["status"] == "deadline_exceeded"

    def _quarantine_one(self, service, doc):
        """Burn a job's whole claim budget via recovery, then let the
        scheduler's supervision pass quarantine it."""
        client = ServiceClient(service.base_url)
        analysis_id = client.submit(doc)["id"]
        budget = service.config.supervision.max_job_attempts
        for _ in range(budget):
            assert service.store.claim() is not None
            service.store.recover()
        service.scheduler.run_until_idle()
        return client, analysis_id

    def test_quarantine_listing_and_retry(self, service):
        client, analysis_id = self._quarantine_one(
            service, echo_spec([3], name="poisoned"))
        assert client.status(analysis_id)["state"] == "quarantined"
        listing = client.quarantine()
        assert listing["total"] == 1
        assert listing["jobs"][0]["analysis_id"] == analysis_id
        scoped = client.quarantine(analysis_id)
        assert scoped["total"] == 1
        assert client.quarantine("feedfacedeadbeef")["total"] == 0
        # Retry requeues with a fresh budget; the job then completes.
        assert client.retry(analysis_id)["retried"] == 1
        service.scheduler.run_until_idle()
        assert client.status(analysis_id)["state"] == "done"
        assert client.result(analysis_id)["jobs"][0]["result"] \
            == {"echo": 3}

    def test_retry_unknown_analysis_is_404(self, service):
        status, body, _ = raw(service, "POST",
                              "/v1/analyses/feedfacedeadbeef/retry")
        assert status == 404

    def test_retry_with_nothing_quarantined_is_zero(self, service):
        client = ServiceClient(service.base_url)
        analysis_id = client.submit(echo_spec([1]))["id"]
        assert client.retry(analysis_id)["retried"] == 0


class TestOps:
    def test_healthz(self, service):
        client = ServiceClient(service.base_url)
        health = client.health()
        assert health["ok"] is True
        assert health["workers"] == 1
        assert set(health["counts"]) == {"queued", "running", "done",
                                         "failed", "cancelled",
                                         "quarantined"}

    def test_metricz_exports_service_counters(self, service):
        client = ServiceClient(service.base_url)
        client.submit(echo_spec([4, 5]))
        service.scheduler.run_until_idle()
        snapshot = client.metrics()
        counters = snapshot.get("counters", {})
        assert counters.get("service.submitted", 0) >= 1
        assert counters.get("service.jobs_done", 0) >= 2
        assert counters.get("service.http_requests", 0) >= 1

    def test_method_not_allowed(self, service):
        status, _, _ = raw(service, "DELETE", "/v1/analyses")
        assert status == 405


def availability_spec(seeds):
    """An availability sweep over ``seeds`` on a four-link WAN, and the
    instance it runs on."""
    from repro.network import serialization as ser
    from repro.network.builder import from_edges
    from repro.paths.pathset import PathSet

    topology = from_edges([
        ("a", "b", 10), ("b", "d", 10), ("a", "c", 6), ("c", "d", 6),
    ], failure_probability=0.2)
    demands = {("a", "d"): 12.0}
    paths = PathSet.k_shortest(topology, [("a", "d")],
                               num_primary=2, num_backup=0)
    spec = {
        "kind": "sweep_spec",
        "name": "avail",
        "task": "repro.failures.availability:availability_task",
        "instance": {
            "topology": ser.topology_to_dict(topology),
            "demands": ser.demands_to_dict(demands),
            "paths": ser.paths_to_dict(paths),
        },
        "base": {"samples": 40, "degradation_threshold": 1.0},
        "grid": {"seed": list(seeds)},
    }
    return spec, (topology, demands, paths)


class TestAvailabilityJobs:
    def test_availability_spec_runs_through_the_service(self, service):
        from repro.core.config import MonteCarloConfig
        from repro.failures.availability import (
            estimate_availability_parallel,
        )

        spec, instance = availability_spec([11])
        client = ServiceClient(service.base_url)
        analysis_id = client.submit(spec)["id"]
        service.scheduler.run_until_idle()
        results = client.result(analysis_id)
        assert results["counts"]["done"] == 1
        payload = results["jobs"][0]["result"]
        direct = estimate_availability_parallel(
            *instance,
            MonteCarloConfig(samples=40, seed=11,
                             degradation_threshold=1.0, num_workers=1))
        assert payload["availability"] == direct.availability
        assert payload["expected_degradation"] == \
            direct.expected_degradation
        assert payload["samples"] == 40

    def test_metricz_counts_reused_campaign_plans(self, service):
        from repro.failures import availability

        spec, _ = availability_spec([11, 12])
        client = ServiceClient(service.base_url)
        availability._plans.clear()
        before = client.metrics()["counters"].get(
            "availability.plan_hits", 0)
        analysis_id = client.submit(spec)["id"]
        service.scheduler.run_until_idle()
        assert client.result(analysis_id)["counts"]["done"] == 2
        # In-process jobs on one instance: the second reuses the plan.
        after = client.metrics()["counters"]["availability.plan_hits"]
        assert after - before == 1


class TestEviction:
    def test_live_job_results_never_evicted(self, tmp_path):
        config = ServiceConfig(port=0, num_workers=1, isolate_jobs=False,
                               result_max_bytes=0)
        service = AnalysisService(tmp_path / "svc", config=config)
        try:
            # Seed the cache with a result whose key matches a queued
            # job, then evict with max_bytes=0: only the live key stays.
            from repro.runner.jobs import SweepSpec

            spec = SweepSpec.from_dict(sleep_spec(30, [1]))
            job = spec.expand()[0]
            service.cache.put(job.key, {"kept": True})
            service.cache.put("deadbeef" * 8, {"doomed": True})
            service.store.submit(spec.spec_hash, spec.name, "t",
                                 [(job.key, job.label, job.payload)])
            report = service.results.evict_once()
            assert report["removed"] == 1
            assert report["protected_kept"] == 1
            assert service.cache.get(job.key) == {"kept": True}
        finally:
            service.stop(drain=False)


class TestBodyCap:
    def test_oversized_batch_is_413_before_reading(self, tmp_path):
        config = ServiceConfig(port=0, num_workers=1, isolate_jobs=False,
                               max_body_bytes=2048)
        service = AnalysisService(tmp_path / "svc", config=config)
        server = make_server(service)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[0], server.server_address[1]
        service.base_url = f"http://{host}:{port}"
        try:
            # A batch big enough to blow the cap -- the server must
            # refuse on Content-Length, before parsing a byte.
            doc = echo_spec(list(range(2000)), name="oversized")
            status, body, _ = raw(service, "POST", "/v1/analyses", doc)
            assert status == 413
            assert "2048-byte limit" in body["error"]
            # Within the cap everything still works.
            status, body, _ = raw(service, "POST", "/v1/analyses",
                                  echo_spec([1], name="small"))
            assert status == 201
        finally:
            server.shutdown()
            thread.join(timeout=5)
            service.stop(drain=False)
