"""Tests for the cross-ISA sweep engine: grid construction, cell seed
derivation, report rendering, determinism across runs, the unit pool
(work stealing, first-violation, self-healing), trace-cache sharing
between cells and across processes, and the size-bounded disk-cache
GC."""

import json
import logging
import multiprocessing
import time
from dataclasses import replace

import pytest

from repro.core.campaign import shard_fuzzer_config
from repro.core.config import FuzzerConfig
from repro.core.fuzzer import FuzzingReport
from repro.core.patterns import PatternCoverage
from repro.core.sweep import (
    SweepCell,
    SweepRunner,
    SweepSpec,
    derive_cell_seed,
    run_sweep,
)
from repro.core.trace_cache import PersistentTraceCache
from repro.core.violation import Violation
from repro.isa.instruction import TestCaseProgram
from repro.traces import CTrace, HTrace

#: report_digest() of sweeps run at the last commit that still had the
#: static cell scheduler (identical under both of its schedules and
#: every pool size); the unit pool must reproduce each one
PINNED_DIGESTS = {
    # TestWorkStealing.grid_spec(), at -w 1 and -w 2 (--shards 2)
    "2-isa": "f848d148d7714bbea82481c5ccb9399bf99abbf4",
    # ... with arches=("x86_64",)
    "x86_64": "cf837f35275bc121d258e1662a70fba78e22c081",
    # ... with the x86_64 cell pinned to 18 test cases
    "heterogeneous": "5e87a83a26d64b6752938b609e593d76054cb783",
    # first_violation_spec(arch) at -w 1
    "first-violation/x86_64": "ee79872db4676d63d30115c0bbb49d848eaf84d7",
    "first-violation/aarch64": "b2add9944dfae1f7cd83b19b590008d420d7f316",
}
#: base seeds whose CT-SEQ cell finds a V1 in shard 0 within budget
FIRST_VIOLATION_SEEDS = {"x86_64": 9, "aarch64": 11}


def needs_fork():
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("needs fork so workers inherit the monkeypatch")


def tiny_config(**overrides):
    """A fast, budget-bound base config for grid tests."""
    defaults = dict(
        instruction_subsets=("AR",),
        num_test_cases=4,
        inputs_per_test_case=6,
        diversity_feedback=False,
        seed=7,
    )
    defaults.update(overrides)
    return FuzzerConfig(**defaults)


class TestSpec:
    def test_cells_are_arch_major_cartesian(self):
        spec = SweepSpec(
            arches=("x86_64", "aarch64"),
            contracts=("CT-SEQ", "CT-COND"),
            cpus=("skylake",),
        )
        labels = [cell.label for cell in spec.cells()]
        assert labels == [
            "x86_64/CT-SEQ/skylake",
            "x86_64/CT-COND/skylake",
            "aarch64/CT-SEQ/skylake",
            "aarch64/CT-COND/skylake",
        ]

    def test_unknown_axis_values_rejected(self):
        with pytest.raises(ValueError, match="unknown arch"):
            SweepSpec(arches=("riscv64",))
        with pytest.raises(ValueError, match="unknown contract"):
            SweepSpec(contracts=("CT-BOGUS",))
        with pytest.raises(ValueError, match="unknown cpu"):
            SweepSpec(cpus=("m1",))
        with pytest.raises(ValueError, match="must not be empty"):
            SweepSpec(arches=())

    def test_duplicate_axis_values_rejected(self):
        with pytest.raises(ValueError, match="duplicate cpu"):
            SweepSpec(cpus=("skylake", "skylake"))

    def test_override_for_missing_cell_rejected(self):
        with pytest.raises(ValueError, match="matches no grid cell"):
            SweepSpec(
                budget_overrides={("x86-64", "CT-SEQ", "skylake"): 5}
            )

    def test_cell_config_inherits_base_and_replaces_target(self):
        spec = SweepSpec(
            arches=("aarch64",),
            contracts=("CT-COND",),
            cpus=("coffee-lake",),
            base_config=tiny_config(inputs_per_test_case=13),
        )
        config = spec.cell_config(spec.cells()[0])
        assert config.arch == "aarch64"
        assert config.contract_name == "CT-COND"
        assert config.cpu_preset == "coffee-lake"
        assert config.inputs_per_test_case == 13
        assert config.seed == derive_cell_seed(7, spec.cells()[0])

    def test_total_budget_splits_like_shard_budgets(self):
        spec = SweepSpec(
            arches=("x86_64",),
            contracts=("CT-SEQ", "CT-COND"),
            cpus=("skylake", "coffee-lake"),
            base_config=tiny_config(),
            total_budget=10,
        )
        cells = spec.cells()
        budgets = [
            spec.cell_config(cell, index, len(cells)).num_test_cases
            for index, cell in enumerate(cells)
        ]
        assert budgets == [3, 3, 2, 2]
        assert sum(budgets) == 10

    def test_budget_overrides_pin_cells(self):
        spec = SweepSpec(
            arches=("x86_64",),
            contracts=("CT-SEQ", "CT-COND"),
            cpus=("skylake",),
            base_config=tiny_config(num_test_cases=50),
            budget_overrides={("x86_64", "CT-COND", "skylake"): 5},
        )
        by_contract = {
            cell.contract: spec.cell_config(cell).num_test_cases
            for cell in spec.cells()
        }
        assert by_contract == {"CT-SEQ": 50, "CT-COND": 5}


class TestCellSeeds:
    def test_deterministic(self):
        cell = SweepCell("x86_64", "CT-SEQ", "skylake")
        assert derive_cell_seed(3, cell) == derive_cell_seed(3, cell)

    def test_varies_with_base_seed_arch_and_contract(self):
        cell = SweepCell("x86_64", "CT-SEQ", "skylake")
        assert derive_cell_seed(3, cell) != derive_cell_seed(4, cell)
        assert derive_cell_seed(3, cell) != derive_cell_seed(
            3, SweepCell("aarch64", "CT-SEQ", "skylake")
        )
        assert derive_cell_seed(3, cell) != derive_cell_seed(
            3, SweepCell("x86_64", "CT-COND", "skylake")
        )

    def test_cpu_axis_shares_the_battery(self):
        # deliberate: cells along the cpu axis replay identical
        # program/input streams (fair comparison + cache sharing)
        assert derive_cell_seed(
            3, SweepCell("x86_64", "CT-SEQ", "skylake")
        ) == derive_cell_seed(
            3, SweepCell("x86_64", "CT-SEQ", "coffee-lake")
        )


class TestRunnerAndReport:
    @pytest.fixture(scope="class")
    def report(self):
        spec = SweepSpec(
            arches=("x86_64",),
            contracts=("CT-SEQ", "CT-COND"),
            cpus=("skylake", "coffee-lake"),
            base_config=tiny_config(),
        )
        return run_sweep(spec)

    def test_one_result_per_cell(self, report):
        assert len(report.results) == 4
        assert [result.cell for result in report.results] == (
            report.spec.cells()
        )
        for result in report.results:
            assert result.campaign.merged.test_cases == 4

    def test_markdown_matrix_shape(self, report):
        markdown = report.to_markdown()
        assert "## x86_64" in markdown
        assert "| contract \\ cpu | skylake | coffee-lake |" in markdown
        assert "| CT-SEQ |" in markdown
        assert "| CT-COND |" in markdown

    def test_json_report_shape(self, report):
        data = report.to_json()
        assert data["grid"]["contracts"] == ["CT-SEQ", "CT-COND"]
        assert len(data["cells"]) == 4
        assert set(data["timing"]) == {
            result.cell.label for result in report.results
        }
        # the full report is json-serializable as-is
        json.dumps(data)

    def test_cell_result_lookup(self, report):
        cell = SweepCell("x86_64", "CT-COND", "coffee-lake")
        assert report.cell_result(cell).cell == cell
        with pytest.raises(KeyError):
            report.cell_result(SweepCell("aarch64", "CT-SEQ", "skylake"))

    def test_same_spec_reproduces_cell_reports_byte_for_byte(self, report):
        spec = SweepSpec(
            arches=("x86_64",),
            contracts=("CT-SEQ", "CT-COND"),
            cpus=("skylake", "coffee-lake"),
            base_config=tiny_config(),
        )
        again = run_sweep(spec)
        assert again.cell_reports_json() == report.cell_reports_json()

    def test_progress_callback_sees_every_cell(self):
        spec = SweepSpec(
            arches=("x86_64",), contracts=("CT-SEQ",),
            cpus=("skylake",), base_config=tiny_config(),
        )
        seen = []
        SweepRunner(spec).run(
            progress=lambda cell, campaign: seen.append(cell.label)
        )
        assert seen == ["x86_64/CT-SEQ/skylake"]


class TestParallelScheduling:
    """Cells on a pool of ``workers`` processes: the pool size moves
    wall clock only (``-w N --shards 1`` runs N single-shard cells at
    once)."""

    def grid_spec(self, **config_overrides):
        return SweepSpec(
            arches=("x86_64",),
            contracts=("CT-SEQ", "CT-COND"),
            cpus=("skylake", "coffee-lake"),
            base_config=tiny_config(**config_overrides),
        )

    def pooled(self, spec, workers=4):
        return replace(spec, workers=workers, shards=1)

    def test_invalid_parallelism_rejected(self):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            SweepRunner(replace(self.grid_spec(), workers=0))
        with pytest.raises(ValueError, match="shards must be >= 1"):
            SweepRunner(replace(self.grid_spec(), shards=0))

    def test_parallel_reports_byte_identical_to_sequential(self):
        spec = self.grid_spec()
        sequential = SweepRunner(spec).run()
        parallel = SweepRunner(self.pooled(spec)).run()
        assert (
            parallel.cell_reports_json() == sequential.cell_reports_json()
        )
        assert [result.cell for result in parallel.results] == spec.cells()
        assert parallel.to_json()["grid"]["workers"] == 4

    def test_parallel_with_shard_pools_byte_identical(self):
        # shards pinned to 2 while the pool size varies: the partition,
        # and therefore the report, must not move
        spec = replace(self.grid_spec(), contracts=("CT-SEQ",), shards=2)
        sequential = SweepRunner(spec).run()
        parallel = SweepRunner(replace(spec, workers=2)).run()
        assert (
            parallel.cell_reports_json() == sequential.cell_reports_json()
        )
        for result in parallel.results:
            assert result.campaign.shards == 2

    def test_progress_sees_every_cell_in_completion_order(self):
        spec = self.pooled(self.grid_spec(), workers=2)
        seen = []
        SweepRunner(spec).run(
            progress=lambda cell, campaign: seen.append(cell.label)
        )
        assert sorted(seen) == sorted(cell.label for cell in spec.cells())

    def test_parallel_cells_share_the_persistent_cache(self, tmp_path):
        spec = self.pooled(self.grid_spec(), workers=2)
        cold = SweepRunner(spec, cache_dir=str(tmp_path)).run()
        warm = SweepRunner(spec, cache_dir=str(tmp_path)).run()
        assert warm.trace_cache_disk_hits > 0
        assert warm.cell_reports_json() == cold.cell_reports_json()

    def test_first_violation_mode_works_in_parallel_cells(self):
        spec = replace(
            self.pooled(self.grid_spec(), workers=2), mode="first-violation"
        )
        report = SweepRunner(spec).run()
        assert len(report.results) == 4
        for result in report.results:
            assert result.campaign.mode == "first-violation"

    def test_worker_failure_surfaces_cell_label(self, monkeypatch):
        needs_fork()
        import repro.core.sweep as sweep_module

        def explode(config, should_stop=None):
            raise RuntimeError("exploding unit")

        monkeypatch.setattr(sweep_module, "_run_unit", explode)
        with pytest.raises(RuntimeError, match="sweep cell x86_64/"):
            SweepRunner(self.pooled(self.grid_spec(), workers=2)).run()

    def test_killed_worker_detected_instead_of_hanging(self, monkeypatch):
        import os

        needs_fork()
        import repro.core.sweep as sweep_module

        def die_silently(config, should_stop=None):
            os._exit(3)  # skips the worker's exception reporting

        monkeypatch.setattr(sweep_module, "_run_unit", die_silently)
        with pytest.raises(RuntimeError, match="exit code 3"):
            SweepRunner(self.pooled(self.grid_spec(), workers=2)).run()

    def test_json_reports_scheduling_and_cache_sections(self, tmp_path):
        spec = self.pooled(self.grid_spec(), workers=3)
        report = SweepRunner(spec, cache_dir=str(tmp_path)).run()
        data = report.to_json()
        # the pool size is the only scheduling knob left
        assert data["grid"]["workers"] == 3
        assert "scheduling" not in data
        assert data["trace_cache"]["disk_bytes"] is not None
        assert data["trace_cache"]["max_bytes"] is None
        json.dumps(data)  # still serializable as-is


def _violation_report(shard_cases):
    """A canned unit report that found a violation."""
    return FuzzingReport(
        test_cases=shard_cases,
        coverage=PatternCoverage(),
        violation=Violation(
            program=TestCaseProgram(),
            contract_name="CT-SEQ",
            cpu_name="skylake",
            ctrace=CTrace(()),
            input_sequence=[],
            position_a=0,
            position_b=1,
            htrace_a=HTrace.empty(),
            htrace_b=HTrace.empty(),
            test_cases_until_found=shard_cases,
            inputs_until_found=shard_cases,
        ),
    )


def first_violation_spec(arch):
    """A one-cell CT-SEQ sweep whose shard 0 finds a V1 within budget."""
    return SweepSpec(
        arches=(arch,),
        contracts=("CT-SEQ",),
        cpus=("skylake-v4-patched",),
        base_config=FuzzerConfig(
            instruction_subsets=("AR", "MEM", "CB"),
            num_test_cases=48,
            inputs_per_test_case=25,
            seed=FIRST_VIOLATION_SEEDS[arch],
        ),
        workers=1,
        shards=2,
        mode="first-violation",
    )


class TestWorkStealing:
    def grid_spec(self, **spec_overrides):
        """A 2-ISA grid with pinned shards so there is real stealing
        granularity (workers=1 would otherwise mean 1 shard/cell)."""
        values = dict(
            arches=("x86_64", "aarch64"),
            contracts=("CT-SEQ",),
            cpus=("skylake",),
            base_config=tiny_config(num_test_cases=6),
            workers=1,
            shards=2,
        )
        values.update(spec_overrides)
        return SweepSpec(**values)

    def test_unknown_schedule_rejected(self):
        for schedule in ("round-robin", "static"):
            with pytest.raises(ValueError, match="unknown schedule"):
                SweepRunner(self.grid_spec(), schedule=schedule)
        # the one remaining value stays accepted for existing callers
        SweepRunner(self.grid_spec(), schedule="work-stealing")

    def test_first_violation_is_cell_scoped(self, monkeypatch, tmp_path):
        """A violation cancels its own cell's remaining units — pending
        ones outright, in-flight ones over their worker's pipe — and
        leaves every other cell's units alone."""
        needs_fork()
        import repro.core.sweep as sweep_module

        spec = self.grid_spec(workers=2, shards=3, mode="first-violation")
        x86 = spec.cells()[0]
        seeds = [
            shard_fuzzer_config(spec.cell_config(x86), index, 3).seed
            for index in range(3)
        ]
        real_run_unit = sweep_module._run_unit

        def unit(config, should_stop=None):
            if config.arch != "x86_64":
                return real_run_unit(config, should_stop)
            if config.seed == seeds[0]:
                return _violation_report(1)
            # shard 1 is in flight when shard 0 reports: it must be
            # told to stop rather than left to drain its budget
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                if should_stop is not None and should_stop():
                    return FuzzingReport(
                        coverage=PatternCoverage(), cancelled=True
                    )
                time.sleep(0.01)
            return FuzzingReport(coverage=PatternCoverage())

        monkeypatch.setattr(sweep_module, "_run_unit", unit)
        report = SweepRunner(spec).run()
        stopped, untouched = report.results
        assert stopped.found and stopped.campaign.winning_shard == 0
        in_flight, pending = stopped.campaign.shard_reports[1:]
        assert in_flight.cancelled
        assert pending.cancelled and pending.test_cases == 0
        assert not untouched.found
        assert untouched.campaign.cancelled_shards == 0
        assert untouched.campaign.merged.test_cases == 6

    def test_resume_requires_a_journal(self):
        with pytest.raises(ValueError, match="resume requires"):
            SweepRunner(self.grid_spec(), resume=True)

    def test_journal_requires_full_mode(self, tmp_path):
        with pytest.raises(ValueError, match="requires mode='full'"):
            SweepRunner(
                self.grid_spec(mode="first-violation"),
                journal_dir=str(tmp_path),
            )

    def test_byte_identical_to_static_across_isas(self):
        # the pin is the static scheduler's digest for this grid
        for workers in (1, 2):
            report = SweepRunner(self.grid_spec(workers=workers)).run()
            assert report.report_digest() == PINNED_DIGESTS["2-isa"]

    def test_byte_identical_with_heterogeneous_budgets(self):
        # the scheduler's target shape: one cell much bigger than the
        # others must not perturb any merged report
        spec = self.grid_spec(
            budget_overrides={("x86_64", "CT-SEQ", "skylake"): 18}
        )
        for workers in (1, 2):
            report = SweepRunner(replace(spec, workers=workers)).run()
            assert report.report_digest() == (
                PINNED_DIGESTS["heterogeneous"]
            )

    def test_inline_when_pool_is_one(self, monkeypatch):
        # a pool of one never forks: the units run in this process
        import repro.core.sweep as sweep_module

        ran = []
        real_run_unit = sweep_module._run_unit
        monkeypatch.setattr(
            sweep_module, "_run_unit",
            lambda config: ran.append(config.seed) or real_run_unit(config),
        )
        report = SweepRunner(self.grid_spec(arches=("x86_64",))).run()
        assert len(ran) == 2
        assert report.report_digest() == PINNED_DIGESTS["x86_64"]

    @pytest.mark.parametrize("arch", ["x86_64", "aarch64"])
    def test_first_violation_sweep_matches_parent_digest(self, arch):
        report = SweepRunner(first_violation_spec(arch)).run()
        (result,) = report.results
        # inline: shard 0 finds the violation, shard 1 is skipped
        assert result.found and result.campaign.winning_shard == 0
        assert result.campaign.shard_reports[1].cancelled
        assert result.campaign.shard_reports[1].test_cases == 0
        assert report.report_digest() == (
            PINNED_DIGESTS[f"first-violation/{arch}"]
        )

    def test_progress_fires_once_per_cell(self):
        seen = []
        SweepRunner(self.grid_spec(workers=2)).run(
            progress=lambda cell, campaign: seen.append(cell.label)
        )
        assert sorted(seen) == sorted(
            cell.label for cell in self.grid_spec().cells()
        )

    def test_journal_records_every_unit(self, tmp_path):
        spec = self.grid_spec(workers=2)
        SweepRunner(spec, journal_dir=str(tmp_path / "journal")).run()
        records = sorted(
            name for name in (tmp_path / "journal").iterdir()
            if name.name.startswith("shard-")
        )
        assert len(records) == len(spec.cells()) * 2  # 2 shards/cell
        assert (tmp_path / "journal" / "spec.json").exists()

    def test_resume_reproduces_the_digest(self, tmp_path):
        spec = self.grid_spec(workers=2)
        journal_dir = tmp_path / "journal"
        first = SweepRunner(spec, journal_dir=str(journal_dir)).run()
        # lose half the checkpoints, as a crash would
        records = sorted(
            path for path in journal_dir.iterdir()
            if path.name.startswith("shard-")
        )
        for path in records[::2]:
            path.unlink()
        resumed = SweepRunner(
            spec, journal_dir=str(journal_dir), resume=True
        ).run()
        assert resumed.report_digest() == first.report_digest()
        assert (
            resumed.cell_reports_json() == first.cell_reports_json()
        )

    def test_complete_journal_resumes_without_rerunning(self, tmp_path):
        import repro.core.sweep as sweep_module

        spec = self.grid_spec(workers=2)
        journal_dir = tmp_path / "journal"
        first = SweepRunner(spec, journal_dir=str(journal_dir)).run()

        def forbidden(config, should_stop=None):
            raise AssertionError("a complete journal must not re-fuzz")

        # a complete journal dispatches nothing, so patching the unit
        # proves the replay runs without any fuzzing
        original = sweep_module._run_unit
        sweep_module._run_unit = forbidden
        try:
            resumed = SweepRunner(
                spec, journal_dir=str(journal_dir), resume=True
            ).run()
        finally:
            sweep_module._run_unit = original
        assert resumed.report_digest() == first.report_digest()

    def test_resume_with_conflicting_spec_is_a_hard_error(self, tmp_path):
        from repro.core.journal import JournalMismatch

        journal_dir = tmp_path / "journal"
        SweepRunner(
            self.grid_spec(workers=2), journal_dir=str(journal_dir)
        ).run()
        conflicting = self.grid_spec(
            workers=2, base_config=tiny_config(num_test_cases=9)
        )
        with pytest.raises(JournalMismatch, match="digest"):
            SweepRunner(
                conflicting, journal_dir=str(journal_dir), resume=True
            ).run()

    def test_torn_record_is_rerun_not_trusted(self, tmp_path):
        spec = self.grid_spec(workers=2)
        journal_dir = tmp_path / "journal"
        first = SweepRunner(spec, journal_dir=str(journal_dir)).run()
        victim = sorted(
            path for path in journal_dir.iterdir()
            if path.name.startswith("shard-")
        )[0]
        victim.write_bytes(b"torn mid-write")
        resumed = SweepRunner(
            spec, journal_dir=str(journal_dir), resume=True
        ).run()
        assert resumed.report_digest() == first.report_digest()

    def test_dead_worker_unit_requeued_on_fresh_process(
        self, monkeypatch, tmp_path, caplog
    ):
        import os

        needs_fork()
        import repro.core.sweep as sweep_module

        real_run_unit = sweep_module._run_unit
        died_once = tmp_path / "died-once"

        def die_once_then_work(config):
            # kill the first worker to start an aarch64 unit, exactly
            # once: both aarch64 units may start at the same moment, so
            # the kill is claimed with an exclusive create
            if config.arch == "aarch64":
                try:
                    os.close(os.open(died_once, os.O_CREAT | os.O_EXCL))
                except FileExistsError:
                    pass
                else:
                    os._exit(9)
            return real_run_unit(config)

        monkeypatch.setattr(
            sweep_module, "_run_unit", die_once_then_work
        )
        with caplog.at_level(logging.WARNING, logger="repro.core.sweep"):
            healed = SweepRunner(self.grid_spec(workers=2)).run()
        assert died_once.exists()  # the kill actually happened
        assert healed.report_digest() == PINNED_DIGESTS["2-isa"]
        # the requeue is logged once: cell, shard, exit code, retry
        (record,) = [
            record for record in caplog.records
            if record.name == "repro.core.sweep"
        ]
        assert record.levelno == logging.WARNING
        message = record.getMessage()
        assert "sweep cell aarch64/CT-SEQ/skylake shard" in message
        assert "exit code 9" in message
        assert "retry 1 of 2" in message

    def test_repeatedly_dying_unit_fails_the_sweep(
        self, monkeypatch, tmp_path
    ):
        import os

        needs_fork()
        import repro.core.sweep as sweep_module

        real_run_unit = sweep_module._run_unit

        def poison_pill(config):
            if config.arch == "aarch64":
                os._exit(9)
            return real_run_unit(config)

        monkeypatch.setattr(sweep_module, "_run_unit", poison_pill)
        with pytest.raises(RuntimeError, match="giving up"):
            SweepRunner(self.grid_spec(workers=2)).run()

    def test_inline_run_survives_the_worker_kill_site(self, tmp_path):
        """The ``sweep.unit`` site kills pool workers only: an inline
        run under the same plan must neither die nor change bytes."""
        from repro import faults

        plan = faults.FaultPlan.parse(
            "sweep.unit=1:1", token_dir=str(tmp_path / "tokens")
        )
        with faults.injected(plan):
            report = SweepRunner(self.grid_spec()).run()
        assert plan.fired("sweep.unit") == 0
        assert report.report_digest() == PINNED_DIGESTS["2-isa"]


class TestSweepCacheGC:
    def test_bounded_sweep_keeps_cache_within_the_bound(self, tmp_path):
        bound = 8 * 1024
        spec = SweepSpec(
            arches=("x86_64",),
            contracts=("CT-SEQ",),
            cpus=("skylake", "coffee-lake"),
            base_config=tiny_config(
                num_test_cases=8, trace_cache_max_bytes=bound
            ),
        )
        report = SweepRunner(spec, cache_dir=str(tmp_path)).run()
        assert report.trace_cache_disk_bytes <= bound
        usage = PersistentTraceCache(str(tmp_path)).disk_usage_bytes()
        assert usage <= bound
        # the tiny bound forces evictions somewhere in the run
        assert report.trace_cache_gc_evictions > 0
        assert report.trace_cache_gc_bytes > 0

    def test_gc_does_not_change_results(self, tmp_path):
        spec = SweepSpec(
            arches=("x86_64",),
            contracts=("CT-SEQ",),
            cpus=("skylake", "coffee-lake"),
            base_config=tiny_config(),
        )
        unbounded = SweepRunner(spec, cache_dir=str(tmp_path / "a")).run()
        bounded_spec = replace(spec)
        bounded_spec.base_config = replace(
            spec.base_config, trace_cache_max_bytes=4 * 1024
        )
        bounded = SweepRunner(
            bounded_spec, cache_dir=str(tmp_path / "b")
        ).run()
        assert bounded.cell_reports_json() == unbounded.cell_reports_json()


class TestCacheSharing:
    def test_cpu_axis_cells_reuse_traces_from_disk(self, tmp_path):
        spec = SweepSpec(
            arches=("x86_64",),
            contracts=("CT-SEQ",),
            cpus=("skylake", "coffee-lake"),
            base_config=tiny_config(),
        )
        report = SweepRunner(spec, cache_dir=str(tmp_path)).run()
        skylake, coffee = report.results
        # the first cell misses (cold cache), the second replays the
        # identical battery and resolves it from the shared disk tier
        assert skylake.campaign.merged.trace_cache_disk_hits == 0
        assert coffee.campaign.merged.trace_cache_disk_hits > 0

    def test_cache_does_not_change_results(self, tmp_path):
        spec = SweepSpec(
            arches=("x86_64",),
            contracts=("CT-SEQ", "CT-COND"),
            cpus=("skylake", "coffee-lake"),
            base_config=tiny_config(),
        )
        uncached = SweepRunner(spec).run()
        cached = SweepRunner(spec, cache_dir=str(tmp_path)).run()
        warm = SweepRunner(spec, cache_dir=str(tmp_path)).run()
        assert (
            uncached.cell_reports_json()
            == cached.cell_reports_json()
            == warm.cell_reports_json()
        )
        assert warm.trace_cache_disk_hits > cached.trace_cache_disk_hits

    def test_sharded_workers_share_the_cache_across_processes(self, tmp_path):
        # two pooled worker processes populate the cache; a second
        # campaign (new processes) resolves their traces from disk
        spec = SweepSpec(
            arches=("x86_64",),
            contracts=("CT-SEQ",),
            cpus=("skylake",),
            base_config=tiny_config(num_test_cases=6),
            workers=2,
            shards=2,
        )
        cold = SweepRunner(spec, cache_dir=str(tmp_path)).run()
        warm = SweepRunner(spec, cache_dir=str(tmp_path)).run()
        assert warm.trace_cache_disk_hits > 0
        assert warm.cell_reports_json() == cold.cell_reports_json()
