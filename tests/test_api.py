"""Tests for the ``repro.api`` facade: the options bag's config
mapping, JSON round-trips, validation, and the per-subcommand entry
points the CLI and the campaign service route through."""

import json

import pytest

from repro import api


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


class TestEngineOptions:
    def test_defaults_match_the_cli(self):
        options = api.EngineOptions()
        assert options.arch == "x86_64"
        assert options.contract == "CT-SEQ"
        assert options.cpu == "skylake"
        assert options.num_test_cases == 200
        assert options.inputs_per_test_case == 50
        assert options.cache is False

    def test_to_fuzzer_config_maps_every_knob(self):
        options = quick_options(
            arch="aarch64",
            subsets="AR+MEM",
            executor_mode="F+R",
            entropy_bits=3,
            cache=True,
            cache_entries=128,
        )
        config = options.to_fuzzer_config()
        assert config.arch == "aarch64"
        assert config.instruction_subsets == ("AR", "MEM")
        assert config.contract_name == "CT-SEQ"
        assert config.cpu_preset == "skylake-v4-patched"
        assert config.executor_mode == "F+R"
        assert config.entropy_bits == 3
        assert config.contract_trace_cache is True
        assert config.trace_cache_entries == 128

    def test_cache_max_bytes_requires_cache_dir(self):
        with pytest.raises(ValueError, match="requires --cache-dir"):
            quick_options(cache_max_bytes=4096).to_fuzzer_config()

    def test_cache_compress_requires_cache_dir(self):
        with pytest.raises(ValueError, match="requires --cache-dir"):
            quick_options(cache_compress=True).to_fuzzer_config()

    def test_dict_round_trip_is_json_stable(self):
        options = quick_options(cache=True, corpus_dir="corpus/x")
        data = json.loads(json.dumps(options.to_dict()))
        assert api.EngineOptions.from_dict(data) == options

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown EngineOptions"):
            api.EngineOptions.from_dict({"contract": "CT-SEQ", "nope": 1})

    def test_from_dict_drops_the_retired_engine_knobs(self):
        # older snapshots carry them; they never changed a result
        data = dict(
            quick_options().to_dict(),
            battery_eval=False,
            masked_fusion=False,
            dead_flags=False,
            compile_programs=False,
        )
        assert api.EngineOptions.from_dict(data) == quick_options()


class TestRunners:
    def test_run_fuzz_returns_a_fuzzing_report(self):
        report = api.run_fuzz(quick_options())
        assert report.test_cases == 6

    def test_run_campaign_matches_inline_fuzzing_partition(self):
        # workers=1, shards=1 degenerates to one fuzzing run
        campaign = api.run_campaign(quick_options(), workers=1)
        assert campaign.merged.test_cases == 6
        assert campaign.shards == 1

    def test_run_campaign_journal_round_trip(self, tmp_path):
        journal_dir = str(tmp_path / "ckpt")
        first = api.run_campaign(
            quick_options(), workers=1, shards=2, journal_dir=journal_dir
        )
        resumed = api.run_campaign(
            quick_options(), workers=1, shards=2,
            journal_dir=journal_dir, resume=True,
        )
        assert resumed.report_digest() == first.report_digest()

    def test_run_campaign_resume_spec_conflict_raises(self, tmp_path):
        journal_dir = str(tmp_path / "ckpt")
        api.run_campaign(
            quick_options(), workers=1, shards=2, journal_dir=journal_dir
        )
        with pytest.raises(api.JournalMismatch):
            api.run_campaign(
                quick_options(num_test_cases=9), workers=1, shards=2,
                journal_dir=journal_dir, resume=True,
            )

    def test_journal_mismatch_is_a_value_error(self):
        # the CLI's except ValueError path must catch it
        assert issubclass(api.JournalMismatch, ValueError)

    def test_run_sweep_defaults_axes_to_the_options_scalars(self):
        report = api.run_sweep(quick_options())
        assert len(report.results) == 1
        cell = report.results[0].cell
        assert (cell.arch, cell.contract, cell.cpu) == (
            "x86_64", "CT-SEQ", "skylake-v4-patched"
        )

    def test_run_sweep_axes_and_schedule_pass_through(self):
        inline = api.run_sweep(
            quick_options(), contracts=("CT-SEQ", "CT-COND"), shards=2
        )
        pooled = api.run_sweep(
            quick_options(), contracts=("CT-SEQ", "CT-COND"), shards=2,
            workers=2,
        )
        assert pooled.cell_reports_json() == inline.cell_reports_json()
        assert pooled.to_json()["grid"]["workers"] == 2
        assert [r.cell.contract for r in pooled.results] == [
            "CT-SEQ", "CT-COND"
        ]

    def test_run_minimize_returns_none_without_violation(self):
        report, result = api.run_minimize(
            quick_options(contract="CT-COND")
        )
        assert not report.found
        assert result is None
