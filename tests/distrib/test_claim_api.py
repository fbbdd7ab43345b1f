"""The HTTP claim protocol: fencing, leases, fleet visibility, shedding."""

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.core.config import DistribConfig, ServiceConfig
from repro.service import api
from repro.service.api import AnalysisService, make_server
from repro.service.client import ServiceClient
from tests.service._specs import echo_spec


def make_service(tmp_path, **overrides):
    defaults = dict(port=0, num_workers=1, isolate_jobs=False,
                    local_workers=False, poll_interval_seconds=0.02)
    defaults.update(overrides)
    config = ServiceConfig(**defaults)
    service = AnalysisService(tmp_path / "svc", config=config)
    server = make_server(service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[0], server.server_address[1]
    service.base_url = f"http://{host}:{port}"
    service._server = server
    service._thread = thread
    return service


def teardown_service(service):
    service._server.shutdown()
    service._thread.join(timeout=5)
    service.stop(drain=False)


@pytest.fixture
def service(tmp_path):
    """A pure coordinator (no local workers) on an ephemeral port."""
    service = make_service(tmp_path)
    yield service
    teardown_service(service)


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


def submit(service, values, name="claims"):
    client = ServiceClient(service.base_url, client_id="test")
    return client.submit(echo_spec(values, name=name)), client


class TestClaiming:
    def test_claim_grants_token_and_lease(self, service):
        submit(service, [1])
        status, body, _ = raw(service, "POST", "/v1/claims",
                              {"worker": "w1", "lease_seconds": 30.0})
        assert status == 200
        claim = body["claim"]
        assert claim["claim_token"]
        assert claim["lease_seconds"] == 30.0
        assert claim["payload"]["params"] == {"value": 1}
        # The claim is visible -- and attributed -- in the listing.
        status, body, _ = raw(service, "GET", "/v1/claims")
        assert body["total"] == 1
        assert body["claims"][0]["worker"] == "w1"

    def test_empty_queue_reports_the_wait_it_honoured(self, service):
        status, body, _ = raw(service, "POST", "/v1/claims",
                              {"worker": "w1"})
        assert status == 200
        assert body == {"claim": None, "wait_seconds": 0.0}
        status, body, _ = raw(service, "POST", "/v1/claims",
                              {"worker": "w1", "wait_seconds": 0.05})
        assert status == 200
        assert body == {"claim": None, "wait_seconds": 0.05}

    def test_wait_is_capped_by_the_server(self, service, monkeypatch):
        monkeypatch.setattr(api, "MAX_CLAIM_WAIT_SECONDS", 0.1)
        started = time.monotonic()
        status, body, _ = raw(service, "POST", "/v1/claims",
                              {"worker": "w1", "wait_seconds": 30})
        assert status == 200
        assert body == {"claim": None, "wait_seconds": 0.1}
        assert time.monotonic() - started < 5.0

    def test_long_poll_returns_the_job_that_arrives(self, service):
        answers = []
        poller = threading.Thread(target=lambda: answers.append(raw(
            service, "POST", "/v1/claims",
            {"worker": "w1", "wait_seconds": 5.0})))
        poller.start()
        time.sleep(0.2)
        started = time.monotonic()
        submit(service, [7], name="late")
        poller.join(timeout=10)
        assert time.monotonic() - started < 0.5
        [(status, body, _)] = answers
        assert status == 200
        assert body["claim"]["payload"]["params"] == {"value": 7}

    def test_bad_claim_inputs_are_400(self, service):
        status, _, _ = raw(service, "POST", "/v1/claims", {"worker": 42})
        assert status == 400
        status, _, _ = raw(service, "POST", "/v1/claims",
                           {"worker": "w1", "lease_seconds": -1})
        assert status == 400

    @pytest.mark.parametrize("wait", [-1, -0.5, "1", True, None, [1]])
    def test_bad_wait_seconds_is_400(self, service, wait):
        status, body, _ = raw(service, "POST", "/v1/claims",
                              {"worker": "w1", "wait_seconds": wait})
        assert status == 400
        assert "wait_seconds" in body["error"]

    def test_claim_rate_shed_is_429_with_retry_after(self, tmp_path):
        service = make_service(
            tmp_path, distrib=DistribConfig(max_claims_per_second=1.0))
        try:
            status, _, _ = raw(service, "POST", "/v1/claims",
                               {"worker": "w1"})
            assert status == 200  # burst of one
            status, body, headers = raw(service, "POST", "/v1/claims",
                                        {"worker": "w1"})
            assert status == 429
            assert body["retry_after_seconds"] > 0
            assert "Retry-After" in headers
        finally:
            teardown_service(service)


class TestFencing:
    def claim(self, service):
        status, body, _ = raw(service, "POST", "/v1/claims",
                              {"worker": "w1", "lease_seconds": 30.0})
        assert status == 200 and body["claim"]
        return body["claim"]

    def test_heartbeat_renews_and_carries_cancel(self, service):
        accepted, client = submit(service, [1])
        claim = self.claim(service)
        path = (f"/v1/claims/{claim['analysis_id']}/{claim['key']}"
                f"/heartbeat")
        status, body, _ = raw(service, "POST", path,
                              {"token": claim["claim_token"],
                               "lease_seconds": 30.0})
        assert status == 200
        assert body["outcome"] == "renewed"
        assert body["cancel_requested"] is False
        client.cancel(accepted["id"])
        status, body, _ = raw(service, "POST", path,
                              {"token": claim["claim_token"]})
        assert body["cancel_requested"] is True

    def test_wrong_token_heartbeat_is_409_lost(self, service):
        submit(service, [1])
        claim = self.claim(service)
        path = (f"/v1/claims/{claim['analysis_id']}/{claim['key']}"
                f"/heartbeat")
        status, body, _ = raw(service, "POST", path, {"token": "stale"})
        assert status == 409 and body["outcome"] == "lost"
        # The real token still works: the stale beat changed nothing.
        status, body, _ = raw(service, "POST", path,
                              {"token": claim["claim_token"]})
        assert status == 200

    def test_settle_ships_the_result(self, service):
        accepted, client = submit(service, [7])
        claim = self.claim(service)
        path = f"/v1/claims/{claim['analysis_id']}/{claim['key']}/settle"
        status, body, _ = raw(service, "POST", path,
                              {"token": claim["claim_token"],
                               "state": "done", "status": "done",
                               "result": {"echo": 7}})
        assert status == 200 and body["settled"] is True
        results = client.result(accepted["id"])
        assert results["jobs"][0]["result"] == {"echo": 7}

    def test_stale_settle_is_409_and_loses(self, service):
        import time

        accepted, client = submit(service, [1])
        status, body, _ = raw(service, "POST", "/v1/claims",
                              {"worker": "w1", "lease_seconds": 0.01})
        stale = body["claim"]
        # The lease lapses, is reaped, and the job is re-claimed.
        time.sleep(0.05)
        assert service.store.reap_expired()
        fresh_status, fresh_body, _ = raw(
            service, "POST", "/v1/claims", {"worker": "w2"})
        fresh = fresh_body["claim"]
        assert fresh["claim_token"] != stale["claim_token"]
        path = f"/v1/claims/{stale['analysis_id']}/{stale['key']}/settle"
        status, body, _ = raw(service, "POST", path,
                              {"token": stale["claim_token"],
                               "state": "done", "status": "done",
                               "result": {"echo": "stale"}})
        assert status == 409 and body["settled"] is False
        # The fresh claim settles fine; the job is terminal exactly once.
        path = f"/v1/claims/{fresh['analysis_id']}/{fresh['key']}/settle"
        status, body, _ = raw(service, "POST", path,
                              {"token": fresh["claim_token"],
                               "state": "done", "status": "done",
                               "result": {"echo": 1}})
        assert status == 200
        terminal = [t for t in service.store.transitions(accepted["id"])
                    if t["to_state"] == "done"]
        assert len(terminal) == 1
        assert client.result(accepted["id"])["jobs"][0]["result"] \
            == {"echo": 1}

    def test_release_refunds_the_attempt(self, service):
        submit(service, [1])
        claim = self.claim(service)
        path = f"/v1/claims/{claim['analysis_id']}/{claim['key']}/release"
        status, body, _ = raw(service, "POST", path,
                              {"token": claim["claim_token"]})
        assert status == 200 and body["released"] is True
        again = self.claim(service)
        assert again["attempts"] == 1  # refunded, not burned
        # A replayed release is refused: the claim is no longer ours.
        status, body, _ = raw(service, "POST", path,
                              {"token": claim["claim_token"]})
        assert status == 409 and body["released"] is False

    def test_missing_token_is_400(self, service):
        submit(service, [1])
        claim = self.claim(service)
        for verb in ("heartbeat", "settle", "release"):
            path = (f"/v1/claims/{claim['analysis_id']}/{claim['key']}"
                    f"/{verb}")
            status, _, _ = raw(service, "POST", path, {})
            assert status == 400


class TestFleetVisibility:
    def test_register_list_deregister(self, service):
        status, body, _ = raw(service, "POST", "/v1/workers",
                              {"id": "w1", "capacity": 4, "host": "h",
                               "pid": 42})
        assert status == 201 and body["capacity"] == 4
        status, body, _ = raw(service, "GET", "/v1/workers")
        assert body["total"] == 1 and body["workers"][0]["id"] == "w1"
        status, body, _ = raw(service, "DELETE", "/v1/workers/w1")
        assert status == 200 and body["deregistered"] is True
        status, body, _ = raw(service, "DELETE", "/v1/workers/ghost")
        assert status == 404

    def test_healthz_reports_the_fleet(self, service):
        raw(service, "POST", "/v1/workers", {"id": "w1", "capacity": 2})
        submit(service, [1])
        raw(service, "POST", "/v1/claims", {"worker": "w1"})
        _, body, _ = raw(service, "GET", "/healthz")
        assert body["workers"] == 0  # pure coordinator: no local pool
        assert body["fleet"]["workers"] == 1
        assert body["fleet"]["capacity"] == 2
        assert body["fleet"]["inflight"] == {"w1": 1}

    def test_metricz_carries_fleet_gauges(self, service):
        raw(service, "POST", "/v1/workers", {"id": "w1", "capacity": 3})
        _, body, _ = raw(service, "GET", "/metricz")
        gauges = body["gauges"]
        assert gauges["service.fleet_size"] == 1
        assert gauges["service.fleet_capacity"] == 3

    def test_bad_registration_is_400(self, service):
        status, _, _ = raw(service, "POST", "/v1/workers",
                           {"id": "w1", "capacity": 0})
        assert status == 400
