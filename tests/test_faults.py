"""Chaos suite: deterministic fault injection and the resilience it
exercises.

The invariant under test everywhere: injected infrastructure faults
(torn cache entries, failed checkpoint publishes, killed workers,
dropped connections) degrade gracefully — counted, retried, requeued —
and never change what a campaign *reports*. Report digests under a
fault plan must be byte-identical to fault-free runs.
"""

import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro import api, faults
from repro.core.campaign import merge_reports
from repro.core.fuzzer import FuzzingReport
from repro.core.journal import CampaignJournal
from repro.core.patterns import PatternCoverage
from repro.core.trace_cache import PersistentTraceCache
from repro.service import (
    CampaignService,
    ConnectionLost,
    JobSpec,
    ServiceBusy,
    ServiceClient,
    ServiceServer,
    ServiceState,
)

KEY = ("fp", None, "digest", ("CT-SEQ", 250, 1))


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


def plan(spec, seed=0, token_dir=None):
    return faults.FaultPlan.parse(spec, seed=seed, token_dir=token_dir)


# -- the fault plan itself ---------------------------------------------


class TestFaultPlan:
    def test_parse_round_trip(self):
        p = plan("trace_cache.torn=0.5,journal.publish=0.25:3")
        assert p.rules["trace_cache.torn"].rate == 0.5
        assert p.rules["journal.publish"].count == 3
        assert faults.FaultPlan.parse(p.to_spec()).to_spec() == p.to_spec()

    def test_unknown_site_rejected(self):
        with pytest.raises(ValueError, match="unknown fault site"):
            plan("flux.capacitor=1")

    def test_bad_rate_rejected(self):
        with pytest.raises(ValueError, match="rate"):
            plan("sweep.unit=1.5")

    def test_decisions_are_a_pure_function_of_the_seed(self):
        first = plan("journal.publish=0.5", seed=42)
        pattern_a = [first.should_fire("journal.publish") for _ in range(64)]
        second = plan("journal.publish=0.5", seed=42)
        pattern_b = [second.should_fire("journal.publish") for _ in range(64)]
        assert pattern_a == pattern_b
        assert any(pattern_a) and not all(pattern_a)
        different = plan("journal.publish=0.5", seed=43)
        assert pattern_a != [
            different.should_fire("journal.publish") for _ in range(64)
        ]

    def test_rate_one_always_fires_and_count_caps_it(self):
        p = plan("trace_cache.write=1:2")
        fired = [p.should_fire("trace_cache.write") for _ in range(5)]
        assert fired == [True, True, False, False, False]
        assert p.fired("trace_cache.write") == 2

    def test_token_dir_makes_the_budget_cross_plan(self, tmp_path):
        first = plan("sweep.unit=1:1", token_dir=str(tmp_path))
        second = plan("sweep.unit=1:1", token_dir=str(tmp_path))
        assert first.should_fire("sweep.unit")
        # the sibling (another process in real runs) finds the token
        # already claimed and must not fire
        assert not second.should_fire("sweep.unit")
        tokens = [
            name for name in os.listdir(tmp_path)
            if name.endswith(".token")
        ]
        assert len(tokens) == 1

    def test_hooks_are_noops_without_a_plan(self):
        assert faults.active_plan() is None
        assert not faults.should_fire("trace_cache.write")
        faults.inject_oserror("journal.publish")  # must not raise
        assert faults.corrupt("trace_cache.torn", b"intact") == b"intact"

    def test_env_activation(self, monkeypatch):
        monkeypatch.setenv(faults.ENV_SPEC, "trace_cache.read=1")
        monkeypatch.setenv(faults.ENV_SEED, "9")
        active = faults.active_plan()
        assert active is not None
        assert active.seed == 9
        assert active.should_fire("trace_cache.read")
        monkeypatch.delenv(faults.ENV_SPEC)
        assert faults.active_plan() is None

    def test_injected_context_manager_wins_over_env(self, monkeypatch):
        monkeypatch.setenv(faults.ENV_SPEC, "trace_cache.read=1")
        with faults.injected(plan("journal.publish=1")) as installed:
            assert faults.active_plan() is installed
            assert not faults.should_fire("trace_cache.read")
        assert faults.active_plan() is not installed


class TestRetryPolicy:
    def test_delay_is_capped_jittered_and_deterministic(self):
        policy = faults.RetryPolicy(
            attempts=5, base_delay=0.1, max_delay=0.4, jitter=0.5, seed=1
        )
        delays = [policy.delay(n) for n in range(5)]
        raw = [0.1, 0.2, 0.4, 0.4, 0.4]
        for measured, ceiling in zip(delays, raw):
            assert ceiling / 2 <= measured <= ceiling
        assert delays == [policy.delay(n) for n in range(5)]

    def test_call_retries_then_succeeds(self):
        sleeps = []
        policy = faults.RetryPolicy(
            attempts=3, base_delay=0.01, sleep=sleeps.append
        )
        attempts = []

        def flaky():
            attempts.append(1)
            if len(attempts) < 3:
                raise OSError("transient")
            return "ok"

        assert policy.call(flaky) == "ok"
        assert len(attempts) == 3
        assert len(sleeps) == 2

    def test_call_reraises_after_the_budget(self):
        policy = faults.RetryPolicy(
            attempts=2, base_delay=0.01, sleep=lambda _s: None
        )
        with pytest.raises(OSError, match="always"):
            policy.call(lambda: (_ for _ in ()).throw(OSError("always")))


# -- graceful degradation at each seam ---------------------------------


class TestTraceCacheFaults:
    def test_write_faults_are_counted_not_fatal(self, tmp_path):
        cache = PersistentTraceCache(str(tmp_path))
        with faults.injected(plan("trace_cache.write=1")):
            cache.put(KEY, ("trace", "log"))
        assert cache.stats.disk_write_errors == 1
        assert cache.stats.disk_writes == 0
        # the memory tier still serves the entry
        assert cache.get(KEY) == ("trace", "log")

    def test_consecutive_failures_degrade_the_disk_tier(self, tmp_path):
        cache = PersistentTraceCache(str(tmp_path))
        with faults.injected(plan("trace_cache.write=1")):
            for index in range(PersistentTraceCache.DEGRADE_AFTER + 3):
                cache.put((f"fp{index}", None, "d", ("CT-SEQ", 250, 1)),
                          ("trace", "log"))
        assert cache.disk_degraded
        # degraded: later puts stop touching the disk, so the error
        # count freezes at the threshold
        assert (
            cache.stats.disk_write_errors
            == PersistentTraceCache.DEGRADE_AFTER
        )

    def test_the_write_retry_absorbs_a_transient_fault(self, tmp_path):
        cache = PersistentTraceCache(str(tmp_path))
        with faults.injected(plan("trace_cache.write=1:1")):
            cache.put(KEY, ("trace", "log"))
        # the single injected failure was retried away: no error counted
        assert cache.stats.disk_write_errors == 0
        assert cache.stats.disk_writes == 1
        assert not cache.disk_degraded

    def test_a_successful_write_resets_the_degrade_counter(self, tmp_path):
        no_retry = faults.RetryPolicy(attempts=1, base_delay=0.01)
        cache = PersistentTraceCache(str(tmp_path), write_retry=no_retry)
        with faults.injected(plan("trace_cache.write=1:1")):
            cache.put(("a", None, "d", ("CT-SEQ", 250, 1)), ("t", "l"))
            cache.put(("b", None, "d", ("CT-SEQ", 250, 1)), ("t", "l"))
        assert cache.stats.disk_write_errors == 1
        assert cache.stats.disk_writes == 1
        assert not cache.disk_degraded
        assert cache._consecutive_write_failures == 0

    def test_torn_entries_degrade_to_misses(self, tmp_path):
        writer = PersistentTraceCache(str(tmp_path))
        with faults.injected(plan("trace_cache.torn=1")):
            writer.put(KEY, ("trace", "log"))
        assert writer.stats.disk_writes == 1  # the torn write "succeeded"
        reader = PersistentTraceCache(str(tmp_path))
        assert reader.get(KEY) is None
        assert reader.stats.misses == 1

    def test_read_faults_degrade_to_misses(self, tmp_path):
        PersistentTraceCache(str(tmp_path)).put(KEY, ("trace", "log"))
        reader = PersistentTraceCache(str(tmp_path))
        with faults.injected(plan("trace_cache.read=1")):
            assert reader.get(KEY) is None
        assert reader.get(KEY) == ("trace", "log")  # entry was intact

    def test_degrading_logs_one_warning(self, tmp_path, caplog):
        cache = PersistentTraceCache(str(tmp_path))
        with caplog.at_level("WARNING", logger="repro.core.trace_cache"):
            with faults.injected(plan("trace_cache.write=1")):
                for index in range(PersistentTraceCache.DEGRADE_AFTER + 3):
                    cache.put((f"fp{index}", None, "d", ("CT-SEQ", 250, 1)),
                              ("trace", "log"))
        warnings = [
            record for record in caplog.records
            if record.name == "repro.core.trace_cache"
        ]
        assert len(warnings) == 1
        assert warnings[0].levelname == "WARNING"
        assert "stops writing" in warnings[0].getMessage()

    def test_a_failed_re_read_skips_the_merge(self, tmp_path):
        PersistentTraceCache(str(tmp_path)).put(KEY, ("trace", "log"))
        same_record = ("fp", 3, "digest3", ("CT-SEQ", 250, 1))
        cache = PersistentTraceCache(str(tmp_path))
        with faults.injected(plan("trace_cache.read=1")):
            cache.put(same_record, ("trace3", "log3"))
        assert cache.stats.disk_write_errors == 1
        assert cache.stats.disk_writes == 0
        # the stored record was not rewritten without its entry
        reader = PersistentTraceCache(str(tmp_path))
        assert reader.get(KEY) == ("trace", "log")
        assert reader.get(same_record) is None

    def test_gc_faults_skip_the_pass(self, tmp_path):
        cache = PersistentTraceCache(str(tmp_path), max_bytes=1)
        cache.put(KEY, ("trace", "log"))
        with faults.injected(plan("trace_cache.gc=1")):
            assert cache.gc() == (0, 0)
        assert cache.stats.disk_write_errors >= 1

    def test_write_errors_surface_in_the_fuzzing_report(self, tmp_path):
        options = quick_options(cache=True, cache_dir=str(tmp_path))
        with faults.injected(plan("trace_cache.write=1")):
            faulty = api.run_fuzz(options)
        assert faulty.trace_cache_disk_write_errors > 0
        clean = api.run_fuzz(
            quick_options(cache=True, cache_dir=str(tmp_path / "clean"))
        )
        assert clean.trace_cache_disk_write_errors == 0
        # degradation is invisible to the outcome
        assert faulty.found == clean.found
        assert faulty.test_cases == clean.test_cases
        assert faulty.inputs_tested == clean.inputs_tested

    def test_merge_sums_disk_write_errors(self):
        left = FuzzingReport(coverage=PatternCoverage())
        left.trace_cache_disk_write_errors = 2
        right = FuzzingReport(coverage=PatternCoverage())
        right.trace_cache_disk_write_errors = 3
        merged, _winner = merge_reports([left, right])
        assert merged.trace_cache_disk_write_errors == 5


class TestJournalFaults:
    def test_failed_publish_is_a_skipped_checkpoint(self, tmp_path):
        journal = CampaignJournal(str(tmp_path))
        journal.open({"kind": "test"})
        report = FuzzingReport(coverage=PatternCoverage())
        with faults.injected(plan("journal.publish=1:1")):
            assert journal.record(0, 0, report) is False
            assert journal.record(0, 1, report) is True
        assert journal.publish_errors == 1
        assert set(journal.completed()) == {(0, 1)}

    def test_each_skipped_checkpoint_logs_a_warning(self, tmp_path, caplog):
        journal = CampaignJournal(str(tmp_path))
        journal.open({"kind": "test"})
        report = FuzzingReport(coverage=PatternCoverage())
        with caplog.at_level("WARNING", logger="repro.core.journal"):
            with faults.injected(plan("journal.publish=1:1")):
                journal.record(0, 0, report)
                journal.record(0, 1, report)
        warnings = [
            record for record in caplog.records
            if record.name == "repro.core.journal"
        ]
        assert len(warnings) == 1
        assert warnings[0].levelname == "WARNING"
        assert "cell 0 shard 0" in warnings[0].getMessage()


# -- the acceptance gate: chaos run == clean run -----------------------


@pytest.mark.parametrize("arch", ["x86_64", "aarch64"])
def test_chaos_sweep_digest_matches_fault_free_run(
    arch, tmp_path, monkeypatch
):
    """A journaled work-stealing sweep under torn cache entries, a
    failed journal publish, and one killed worker completes with a
    report digest byte-identical to a fault-free run (ISSUE acceptance
    criterion)."""

    def run(faulted: bool):
        label = "faulty" if faulted else "clean"
        root = tmp_path / label
        if faulted:
            monkeypatch.setenv(
                faults.ENV_SPEC,
                "trace_cache.torn=0.5,trace_cache.write=0.25,"
                "journal.publish=1:1,sweep.unit=1:1",
            )
            monkeypatch.setenv(faults.ENV_SEED, "1234")
            monkeypatch.setenv(
                faults.ENV_TOKEN_DIR, str(root / "tokens")
            )
        else:
            monkeypatch.delenv(faults.ENV_SPEC, raising=False)
            monkeypatch.delenv(faults.ENV_TOKEN_DIR, raising=False)
        report = api.run_sweep(
            quick_options(
                arch=arch,
                num_test_cases=8,
                cache=True,
                cache_dir=str(root / "cache"),
            ),
            workers=2,
            shards=4,
            journal_dir=str(root / "journal"),
        )
        return report

    faulty = run(faulted=True)
    # the faults really happened: the worker-kill token was claimed,
    # and the skipped checkpoint left fewer records than units
    assert os.path.exists(
        tmp_path / "faulty" / "tokens" / "sweep.unit-0.token"
    )
    records = [
        name
        for name in os.listdir(tmp_path / "faulty" / "journal")
        if name.startswith("shard-")
    ]
    assert len(records) == 3  # 4 units, exactly one publish injected away
    monkeypatch.delenv(faults.ENV_SEED, raising=False)
    clean = run(faulted=False)
    assert faulty.report_digest() == clean.report_digest()
    assert (
        faulty.results[0].campaign.merged.test_cases
        == clean.results[0].campaign.merged.test_cases
    )


SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
#: one campaign on a 2-worker pool, run in a child interpreter; prints
#: its report digest
CAMPAIGN_CHILD = """
import sys
from repro import api
options = api.EngineOptions(
    arch=sys.argv[1], subsets="AR", contract="CT-SEQ",
    cpu="skylake-v4-patched", num_test_cases=8, inputs_per_test_case=8,
    seed=3,
)
print(api.run_campaign(options, workers=2, shards=4).report_digest())
"""


def campaign_digest_in_child(arch, fault_spec=None, token_dir=None,
                             timeout=120.0):
    """Run the campaign in its own process group, so a scheduler that
    hangs on a dead worker fails this test instead of wedging the
    suite (and takes its workers down with it)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    for name in (faults.ENV_SPEC, faults.ENV_TOKEN_DIR):
        env.pop(name, None)
    if fault_spec is not None:
        env[faults.ENV_SPEC] = fault_spec
        env[faults.ENV_TOKEN_DIR] = token_dir
    child = subprocess.Popen(
        [sys.executable, "-c", CAMPAIGN_CHILD, arch],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        out, err = child.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        pytest.fail(f"campaign still running after {timeout:.0f}s")
    assert child.returncode == 0, err
    return out.strip().splitlines()[-1]


@pytest.mark.parametrize("arch", ["x86_64", "aarch64"])
def test_chaos_campaign_survives_worker_death(arch, tmp_path):
    """A campaign whose shard worker is killed mid-shard requeues the
    shard onto a fresh worker and reproduces the fault-free digest."""
    tokens = tmp_path / "tokens"
    faulty = campaign_digest_in_child(
        arch, fault_spec="sweep.unit=1:1", token_dir=str(tokens)
    )
    assert (tokens / "sweep.unit-0.token").exists()  # a worker died
    assert faulty == campaign_digest_in_child(arch)


# -- job lifecycle: cancel, deadline, backpressure ---------------------


def _drain(service, job_id):
    events = list(service.results(job_id))
    return events, service.status(job_id)


def _wait_no_children(timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if not multiprocessing.active_children():
            return True
        time.sleep(0.1)
    return False


class TestCancellation:
    def test_cancel_lands_in_the_cancelled_state(self):
        service = CampaignService()
        try:
            job_id = service.submit(
                JobSpec(
                    kind="fuzz",
                    options=quick_options(
                        num_test_cases=100000, inputs_per_test_case=10
                    ),
                )
            )
            stream = service.results(job_id)
            next(stream)  # the job is running
            service.cancel(job_id)
            events = list(stream)
            status = service.status(job_id)
        finally:
            service.shutdown()
        assert status["state"] == "cancelled"
        assert events[-1]["event"] == "done"
        assert events[-1]["state"] == "cancelled"
        # cancel() stays idempotent on the finished job
        assert service.cancel(job_id)["state"] == "cancelled"

    def test_cancelled_campaign_leaves_no_worker_processes(self):
        service = CampaignService()
        try:
            job_id = service.submit(
                JobSpec(
                    kind="campaign",
                    options=quick_options(
                        num_test_cases=100000, inputs_per_test_case=10
                    ),
                    workers=2,
                    shards=2,
                )
            )
            stream = service.results(job_id)
            next(stream)
            service.cancel(job_id)
            list(stream)
            status = service.status(job_id)
        finally:
            service.shutdown()
        assert status["state"] == "cancelled"
        assert _wait_no_children(), "campaign workers were orphaned"

    def test_inline_campaign_cancels_mid_shard(self, monkeypatch):
        # workers=1 runs the one shard in the job's own thread: the
        # stop signal has to reach the unit itself, not just the gaps
        # between units
        import repro.core.sweep as sweep_module

        started = threading.Event()
        real_run_unit = sweep_module._run_unit

        def run_unit(config, should_stop=None):
            started.set()
            return real_run_unit(config, should_stop)

        monkeypatch.setattr(sweep_module, "_run_unit", run_unit)
        service = CampaignService()
        try:
            job_id = service.submit(
                JobSpec(
                    kind="campaign",
                    options=quick_options(
                        num_test_cases=100000, inputs_per_test_case=10
                    ),
                    workers=1,
                )
            )
            assert started.wait(30)
            service.cancel(job_id)
            events = list(service.results(job_id))
            status = service.status(job_id)
        finally:
            service.shutdown()
        assert status["state"] == "cancelled"
        assert "inside" in events[-1]["error"]

    def test_deadline_expiry_lands_in_the_timeout_state(self):
        service = CampaignService()
        try:
            job_id = service.submit(
                JobSpec(
                    kind="fuzz",
                    options=quick_options(
                        num_test_cases=100000, inputs_per_test_case=10
                    ),
                    deadline_s=0.3,
                )
            )
            events, status = _drain(service, job_id)
        finally:
            service.shutdown()
        assert status["state"] == "timeout"
        assert events[-1]["state"] == "timeout"

    def test_deadline_must_be_positive(self):
        with pytest.raises(ValueError, match="deadline_s"):
            JobSpec(kind="fuzz", deadline_s=0)


class TestBackpressure:
    def test_full_queue_rejects_with_retry_after(self, monkeypatch):
        release = threading.Event()

        def slow_fuzz(options, should_stop=None):
            while not release.is_set():
                if should_stop is not None and should_stop():
                    break
                time.sleep(0.02)
            return FuzzingReport(coverage=PatternCoverage())

        monkeypatch.setattr(api, "run_fuzz", slow_fuzz)
        service = CampaignService(max_parallel_jobs=1, max_queued_jobs=0)
        try:
            first = service.submit(
                JobSpec(kind="fuzz", options=quick_options())
            )
            with pytest.raises(ServiceBusy) as caught:
                service.submit(JobSpec(kind="fuzz", options=quick_options()))
            assert caught.value.retry_after >= 1.0
            release.set()
            _events, status = _drain(service, first)
            assert status["state"] == "done"
            # capacity is back: the next submit is accepted
            second = service.submit(
                JobSpec(kind="fuzz", options=quick_options())
            )
            _drain(service, second)
        finally:
            release.set()
            service.shutdown()

    def test_busy_travels_over_the_wire(self, monkeypatch):
        release = threading.Event()

        def slow_fuzz(options, should_stop=None):
            while not release.is_set():
                if should_stop is not None and should_stop():
                    break
                time.sleep(0.02)
            return FuzzingReport(coverage=PatternCoverage())

        monkeypatch.setattr(api, "run_fuzz", slow_fuzz)
        service = CampaignService(max_parallel_jobs=1, max_queued_jobs=0)
        server = ServiceServer(service, port=0, heartbeat_s=0.2)
        server.start_background()
        host, port = server.address
        try:
            with ServiceClient(host, port) as client:
                client.submit(JobSpec(kind="fuzz", options=quick_options()))
                with pytest.raises(ServiceBusy):
                    client.submit(
                        JobSpec(kind="fuzz", options=quick_options())
                    )
        finally:
            release.set()
            server.close()
            service.shutdown()


# -- wire-level robustness: heartbeats, reconnect, drain ---------------


def _slow_then_done(duration):
    def slow_fuzz(options, should_stop=None):
        deadline = time.monotonic() + duration
        report = FuzzingReport(coverage=PatternCoverage())
        while time.monotonic() < deadline:
            if should_stop is not None and should_stop():
                report.cancelled = True
                return report
            time.sleep(0.05)
        return report

    return slow_fuzz


class TestHeartbeats:
    def test_heartbeats_keep_a_slow_wait_alive(self, monkeypatch):
        """Regression for the ``results --wait`` liveness bug: a client
        whose socket timeout is shorter than the job only survives the
        wait because the server heartbeats."""
        monkeypatch.setattr(api, "run_fuzz", _slow_then_done(2.0))
        service = CampaignService()
        server = ServiceServer(service, port=0, heartbeat_s=0.1)
        server.start_background()
        host, port = server.address
        try:
            with ServiceClient(host, port, timeout=0.5) as client:
                job_id = client.submit(
                    JobSpec(kind="fuzz", options=quick_options())
                )
                events = list(client.results(job_id))
        finally:
            server.close()
            service.shutdown()
        assert events[-1]["event"] == "done"
        assert events[-1]["state"] == "done"
        # keepalives are invisible: no heartbeat leaks into the stream
        assert all(e["event"] != "heartbeat" for e in events)

    def test_without_heartbeats_the_slow_wait_times_out(self, monkeypatch):
        """The pre-fix behavior, pinned so the regression stays
        understood: no heartbeats + short socket timeout = dead wait."""
        monkeypatch.setattr(api, "run_fuzz", _slow_then_done(5.0))
        service = CampaignService()
        server = ServiceServer(service, port=0, heartbeat_s=None)
        server.start_background()
        host, port = server.address
        try:
            with ServiceClient(host, port, timeout=0.4) as client:
                job_id = client.submit(
                    JobSpec(kind="fuzz", options=quick_options())
                )
                with pytest.raises(ConnectionLost, match="no heartbeat"):
                    list(client.results(job_id))
                service.cancel(job_id)
        finally:
            server.close()
            service.shutdown()


class TestReconnectResume:
    def test_results_resume_after_an_injected_drop(self):
        service = CampaignService()
        server = ServiceServer(service, port=0, heartbeat_s=0.2)
        server.start_background()
        host, port = server.address
        try:
            with ServiceClient(host, port) as client:
                job_id = client.submit(
                    JobSpec(kind="fuzz", options=quick_options())
                )
                expected = list(client.results(job_id))
            drop_plan = plan("server.send=1:1")
            retry = faults.RetryPolicy(
                attempts=3, base_delay=0.01, max_delay=0.05
            )
            with faults.injected(drop_plan):
                with ServiceClient(host, port, retry=retry) as client:
                    replayed = list(client.results(job_id))
            assert drop_plan.fired("server.send") == 1
            assert replayed == expected  # no gaps, no duplicates
        finally:
            server.close()
            service.shutdown()

    def test_without_retry_policy_the_drop_is_fatal(self):
        service = CampaignService()
        server = ServiceServer(service, port=0, heartbeat_s=0.2)
        server.start_background()
        host, port = server.address
        try:
            with ServiceClient(host, port) as client:
                job_id = client.submit(
                    JobSpec(kind="fuzz", options=quick_options())
                )
                list(client.results(job_id))
            with faults.injected(plan("server.send=1:1")):
                with ServiceClient(host, port) as client:
                    with pytest.raises(ConnectionLost):
                        list(client.results(job_id))
        finally:
            server.close()
            service.shutdown()


class TestServerDrain:
    def test_close_drains_waiting_streams_and_reports_jobs(
        self, monkeypatch
    ):
        monkeypatch.setattr(api, "run_fuzz", _slow_then_done(30.0))
        service = CampaignService()
        server = ServiceServer(service, port=0, heartbeat_s=0.1)
        server.start_background()
        host, port = server.address
        client = ServiceClient(host, port, timeout=10.0)
        job_id = client.submit(JobSpec(kind="fuzz", options=quick_options()))
        streamed = []
        consumer = threading.Thread(
            target=lambda: streamed.extend(client.results(job_id))
        )
        consumer.start()
        time.sleep(0.3)  # the handler is now mid-wait on a running job
        try:
            report = server.close(drain_s=5.0)
            consumer.join(timeout=10)
            assert not consumer.is_alive(), "drain left the stream hanging"
            assert report["drained"] is True
            assert report["forced_connections"] == 0
            assert report["running_jobs"] == [job_id]
            # the serve thread really exited — the old close() leaked it
            assert server._thread is None
        finally:
            client.close()
            service.cancel(job_id)
            list(service.results(job_id))
            service.shutdown()


# -- crash-safe state dir ----------------------------------------------


class TestStateRecovery:
    def test_terminal_jobs_survive_a_restart(self, tmp_path):
        state_dir = str(tmp_path / "state")
        first = CampaignService(state_dir=state_dir)
        job_id = first.submit(JobSpec(kind="fuzz", options=quick_options()))
        _events, status = _drain(first, job_id)
        assert status["state"] == "done"
        first.shutdown()

        second = CampaignService(state_dir=state_dir)
        try:
            assert second.recovered_jobs == [job_id]
            recovered = second.status(job_id)
            assert recovered["state"] == "done"
            assert recovered["report"] == status["report"]
            # the id counter continues past the recovered job
            next_id = second.submit(
                JobSpec(kind="fuzz", options=quick_options())
            )
            assert int(next_id.split("-")[1]) > int(job_id.split("-")[1])
            _drain(second, next_id)
        finally:
            second.shutdown()

    def test_interrupted_job_is_resumed_from_its_journal(self, tmp_path):
        """A job snapshotted as ``running`` (the crash case) is
        resubmitted at startup with ``resume`` flipped on, replays its
        campaign journal, and converges on the uninterrupted digest."""
        journal_dir = str(tmp_path / "journal")
        options = quick_options()
        baseline = api.run_campaign(
            options, workers=1, shards=2, journal_dir=journal_dir
        )
        spec = JobSpec(
            kind="campaign", options=options, workers=1, shards=2,
            journal_dir=journal_dir,
        )
        state_dir = str(tmp_path / "state")
        state = ServiceState(state_dir)
        assert state.save_job(
            {
                "job_id": "job-0007-cafe0123",
                "spec": spec.to_dict(),
                "state": "running",
                "submitted_at": 0.0,
                "events": [{"event": "state", "state": "running"}],
                "violations": 0,
                "error": None,
                "report": None,
            }
        )

        service = CampaignService(state_dir=state_dir)
        try:
            assert service.recovered_jobs == ["job-0007-cafe0123"]
            events, status = _drain(service, "job-0007-cafe0123")
            assert status["state"] == "done"
            assert (
                status["report"]["digest"] == baseline.report_digest()
            )
            assert events[0]["event"] == "recovered"
            # the counter continues past the recovered id
            new_id = service.submit(
                JobSpec(kind="fuzz", options=quick_options())
            )
            assert int(new_id.split("-")[1]) == 8
            _drain(service, new_id)
        finally:
            service.shutdown()

    def test_snapshot_with_retired_fields_is_recovered(self, tmp_path):
        """A snapshot from a release that still had the byte-identical
        engine knobs and the scheduler knobs — six fields that never
        changed a result — is recovered, and its job resumes from its
        journal to the uninterrupted digest."""
        journal_dir = str(tmp_path / "journal")
        options = quick_options()
        baseline = api.run_campaign(
            options, workers=1, shards=2, journal_dir=journal_dir
        )
        spec = JobSpec(
            kind="campaign", options=options, workers=1, shards=2,
            journal_dir=journal_dir,
        ).to_dict()
        spec["options"].update(
            battery_eval=True, masked_fusion=True, dead_flags=True,
            compile_programs=True,
        )
        spec.update(schedule="work-stealing", parallel_cells=1)
        state_dir = str(tmp_path / "state")
        assert ServiceState(state_dir).save_job(
            {
                "job_id": "job-0003-0ld0f1e1",
                "spec": spec,
                "state": "running",
                "submitted_at": 0.0,
                "events": [],
                "violations": 0,
                "error": None,
                "report": None,
            }
        )

        service = CampaignService(state_dir=state_dir)
        try:
            assert service.recovered_jobs == ["job-0003-0ld0f1e1"]
            events, status = _drain(service, "job-0003-0ld0f1e1")
            assert events[0]["event"] == "recovered"
            assert status["state"] == "done"
            assert status["report"]["digest"] == baseline.report_digest()
        finally:
            service.shutdown()

    def test_unparseable_snapshot_is_skipped_with_a_warning(
        self, tmp_path, caplog
    ):
        spec = JobSpec(kind="fuzz", options=quick_options()).to_dict()
        spec["cores"] = 4  # a field no release ever had
        state_dir = str(tmp_path / "state")
        assert ServiceState(state_dir).save_job(
            {"job_id": "job-0001-0dd0f1e1", "spec": spec, "state": "running"}
        )
        with caplog.at_level("WARNING", logger="repro.service.jobs"):
            service = CampaignService(state_dir=state_dir)
        try:
            assert service.recovered_jobs == []
        finally:
            service.shutdown()
        warnings = [
            record for record in caplog.records
            if record.name == "repro.service.jobs"
        ]
        assert len(warnings) == 1
        assert warnings[0].levelname == "WARNING"
        message = warnings[0].getMessage()
        assert "job-0001-0dd0f1e1" in message and "cores" in message

    def test_state_write_faults_are_counted_not_fatal(self, tmp_path):
        state_dir = str(tmp_path / "state")
        service = CampaignService(state_dir=state_dir)
        try:
            with faults.injected(plan("service.event=1")):
                job_id = service.submit(
                    JobSpec(kind="fuzz", options=quick_options())
                )
                _events, status = _drain(service, job_id)
            assert status["state"] == "done"
            assert service.state.write_errors > 0
        finally:
            service.shutdown()

    def test_torn_snapshots_are_skipped(self, tmp_path):
        state_dir = str(tmp_path / "state")
        state = ServiceState(state_dir)
        with open(state.job_path("job-0001-torn0000"), "w") as handle:
            handle.write('{"job_id": "job-0001-torn')  # torn mid-write
        service = CampaignService(state_dir=state_dir)
        try:
            assert service.recovered_jobs == []
        finally:
            service.shutdown()
