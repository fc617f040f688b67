"""Tests for the campaign service: job specs, the in-process queue's
submit/status/results lifecycle, live event streaming, and the
line-JSON socket server/client round-trip."""

import threading

import pytest

from repro import api
from repro.service import (
    CampaignService,
    JobSpec,
    ServiceClient,
    ServiceError,
    ServiceServer,
)


def quick_options(**overrides):
    values = dict(
        subsets="AR",
        contract="CT-SEQ",
        cpu="skylake-v4-patched",
        num_test_cases=6,
        inputs_per_test_case=8,
        seed=3,
    )
    values.update(overrides)
    return api.EngineOptions(**values)


def violating_options():
    """A target known to violate quickly (the CLI tests' recipe)."""
    return api.EngineOptions(
        subsets="AR+MEM+CB",
        contract="CT-SEQ",
        cpu="skylake-v4-patched",
        num_test_cases=150,
        inputs_per_test_case=25,
        seed=7,
    )


@pytest.fixture
def service():
    service = CampaignService(max_parallel_jobs=2)
    yield service
    service.shutdown()


class TestJobSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown job kind"):
            JobSpec(kind="bake")

    def test_options_mapping_is_coerced(self):
        spec = JobSpec(kind="fuzz", options={"contract": "CT-COND"})
        assert isinstance(spec.options, api.EngineOptions)
        assert spec.options.contract == "CT-COND"

    def test_dict_round_trip(self):
        spec = JobSpec(
            kind="sweep", options=quick_options(),
            contracts=("CT-SEQ", "CT-COND"), workers=2, shards=2,
        )
        again = JobSpec.from_dict(spec.to_dict())
        assert again == spec

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown JobSpec"):
            JobSpec.from_dict({"kind": "fuzz", "cores": 4})


class TestCampaignService:
    def test_submit_status_results_round_trip(self, service):
        job_id = service.submit(
            JobSpec(kind="fuzz", options=quick_options())
        )
        events = list(service.results(job_id))
        status = service.status(job_id)
        assert status["state"] == "done"
        assert status["error"] is None
        assert status["report"]["kind"] == "fuzz"
        assert status["report"]["test_cases"] == 6
        kinds = [event["event"] for event in events]
        assert kinds[0] == "state"
        assert kinds[-1] == "done"
        assert all(event["job_id"] == job_id for event in events)

    def test_submit_accepts_a_mapping(self, service):
        job_id = service.submit(
            {"kind": "fuzz", "options": quick_options().to_dict()}
        )
        list(service.results(job_id))
        assert service.status(job_id)["state"] == "done"

    def test_unknown_job_id_raises_key_error(self, service):
        with pytest.raises(KeyError, match="unknown job id"):
            service.status("job-9999-deadbeef")

    def test_failed_job_carries_the_traceback(self, service):
        # campaign journaling refuses first-violation mode
        job_id = service.submit(
            JobSpec(
                kind="campaign", options=quick_options(),
                mode="first-violation", journal_dir="unused",
            )
        )
        events = list(service.results(job_id))
        status = service.status(job_id)
        assert status["state"] == "failed"
        assert "ValueError" in status["error"]
        assert events[-1]["event"] == "done"
        assert events[-1]["state"] == "failed"

    def test_violation_events_stream_as_records(self, service):
        job_id = service.submit(
            JobSpec(kind="fuzz", options=violating_options())
        )
        events = list(service.results(job_id))
        violations = [
            event for event in events if event["event"] == "violation"
        ]
        assert len(violations) == 1
        record = violations[0]["record"]
        assert record["arch"] == "x86_64"
        assert record["contract"] == "CT-SEQ"
        assert record["classification"]
        assert record["program"]
        assert record["program_fingerprint"]
        assert service.status(job_id)["violations"] == 1

    def test_sweep_jobs_emit_cell_events(self, service):
        job_id = service.submit(
            JobSpec(
                kind="sweep", options=quick_options(),
                contracts=("CT-SEQ", "CT-COND"),
            )
        )
        events = list(service.results(job_id))
        cells = [e for e in events if e["event"] == "cell"]
        assert sorted(e["cell"] for e in cells) == [
            "x86_64/CT-COND/skylake-v4-patched",
            "x86_64/CT-SEQ/skylake-v4-patched",
        ]
        assert events[-1]["report"]["cells"] == 2
        assert events[-1]["report"]["digest"]

    def test_concurrent_jobs_complete_independently(self, service):
        ids = [
            service.submit(
                JobSpec(kind="fuzz", options=quick_options(seed=seed))
            )
            for seed in (1, 2, 3)
        ]
        for job_id in ids:
            list(service.results(job_id))
        states = [service.status(job_id)["state"] for job_id in ids]
        assert states == ["done", "done", "done"]
        assert len(service.jobs()) == 3

    def test_results_streams_while_the_job_runs(self, service):
        """A consumer attached before completion sees the final done
        event without polling."""
        job_id = service.submit(
            JobSpec(kind="fuzz", options=quick_options())
        )
        seen = []
        consumer = threading.Thread(
            target=lambda: seen.extend(service.results(job_id))
        )
        consumer.start()
        consumer.join(timeout=60)
        assert not consumer.is_alive()
        assert seen[-1]["event"] == "done"

    def test_nonblocking_results_returns_the_prefix(self, service):
        job_id = service.submit(
            JobSpec(kind="fuzz", options=quick_options())
        )
        list(service.results(job_id))  # drain to completion
        prefix = list(service.results(job_id, wait=False, start=1))
        full = list(service.results(job_id, wait=False))
        assert prefix == full[1:]


class TestSocketRoundTrip:
    @pytest.fixture
    def server(self):
        service = CampaignService(max_parallel_jobs=1)
        server = ServiceServer(service, host="127.0.0.1", port=0)
        server.start_background()
        yield server
        server.close()
        service.shutdown()

    def test_ping(self, server):
        host, port = server.address
        with ServiceClient(host, port) as client:
            assert client.ping()

    def test_submit_status_results_over_the_wire(self, server):
        host, port = server.address
        with ServiceClient(host, port) as client:
            job_id = client.submit(
                JobSpec(kind="fuzz", options=quick_options())
            )
            events = list(client.results(job_id))
            status = client.status(job_id)
        assert status["state"] == "done"
        assert events[-1]["event"] == "done"
        assert events[-1]["report"]["kind"] == "fuzz"

    def test_jobs_listing_over_the_wire(self, server):
        host, port = server.address
        with ServiceClient(host, port) as client:
            job_id = client.submit(
                JobSpec(kind="fuzz", options=quick_options())
            )
            list(client.results(job_id))
            jobs = client.jobs()
        assert [job["job_id"] for job in jobs] == [job_id]

    def test_bad_requests_become_service_errors(self, server):
        host, port = server.address
        with ServiceClient(host, port) as client:
            with pytest.raises(ServiceError, match="unknown op"):
                client._request({"op": "reboot"})
            with pytest.raises(ServiceError, match="unknown job id"):
                client.status("job-9999-deadbeef")
            with pytest.raises(ServiceError, match="unknown JobSpec"):
                client.submit({"kind": "fuzz", "cores": 4})
            # the connection survives every error above
            assert client.ping()

    def test_second_client_not_blocked_by_streaming(self, server):
        host, port = server.address
        with ServiceClient(host, port) as one, ServiceClient(
            host, port
        ) as two:
            job_id = one.submit(
                JobSpec(kind="fuzz", options=quick_options())
            )
            stream = one.results(job_id)
            first = next(stream)  # handler thread now mid-stream
            assert two.ping()  # threaded server: not stalled
            events = [first, *stream]
        assert events[-1]["event"] == "done"
