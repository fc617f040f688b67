"""Schema validation for benchmark JSON artifacts: the tier-1 face of
the CI ``check_bench_json`` step.

The checker itself must stay in sync with what the benchmarks emit, so
these tests exercise it both on hand-built payloads (good and broken)
and on a real ``SweepReport``-derived section."""

import json
import os
import sys

import pytest

sys.path.insert(
    0,
    os.path.join(os.path.dirname(os.path.dirname(__file__)), "tools"),
)
import check_bench_json  # noqa: E402

from repro.core.config import FuzzerConfig
from repro.core.sweep import SweepRunner, SweepSpec


def write(tmp_path, payload, name="bench.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


GOOD_WORKER_SCALING = {
    "worker_scaling": {
        "arch": "x86_64",
        "cores": 4,
        "test_cases": 48,
        "wall_seconds_1_worker": 10.0,
        "wall_seconds_4_workers": 3.0,
        "speedup": 3.33,
        "found": True,
    }
}


class TestChecker:
    def test_valid_section_passes(self, tmp_path):
        assert check_bench_json.check_file(
            write(tmp_path, GOOD_WORKER_SCALING)
        ) == []

    def test_unknown_section_rejected(self, tmp_path):
        errors = check_bench_json.check_file(
            write(tmp_path, {"mystery_bench": {}})
        )
        assert errors and "unknown section" in errors[0]

    def test_missing_keys_rejected(self, tmp_path):
        errors = check_bench_json.check_file(
            write(tmp_path, {"worker_scaling": {"arch": "x86_64"}})
        )
        assert errors and "missing keys" in errors[0]

    def test_empty_artifact_rejected(self, tmp_path):
        assert check_bench_json.check_file(write(tmp_path, {}))

    def test_unreadable_json_rejected(self, tmp_path):
        path = tmp_path / "torn.json"
        path.write_text("{not json")
        assert check_bench_json.check_file(str(path))

    def test_scheduling_keys_forbidden_in_cells(self, tmp_path):
        cell = {key: 0 for key in check_bench_json.CELL_KEYS}
        cell["observed_concurrency"] = 1.5  # timing leaked into cells
        payload = {
            "sweep_cross_isa": {
                "grid": {},
                "cells": [cell],
                "timing": {},
                "trace_cache": {},
                "wall_seconds": 1.0,
                "trace_cache_disk_hits": 0,
                "rerun_disk_hits": 0,
            }
        }
        errors = check_bench_json.check_file(write(tmp_path, payload))
        assert any("observed_concurrency" in error for error in errors)

    def test_nan_breaks_byte_stability(self, tmp_path):
        cell = {key: 0 for key in check_bench_json.CELL_KEYS}
        cell["test_cases"] = float("nan")
        payload = {
            "sweep_cross_isa": {
                "grid": {},
                "cells": [cell],
                "timing": {},
                "trace_cache": {},
                "wall_seconds": 1.0,
                "trace_cache_disk_hits": 0,
                "rerun_disk_hits": 0,
            }
        }
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(payload))  # json allows NaN by default
        errors = check_bench_json.check_file(str(path))
        assert any("serializable" in error for error in errors)

    def _sweep_payloads(self):
        cell = {key: 0 for key in check_bench_json.CELL_KEYS}
        cross = {
            "grid": {}, "cells": [dict(cell)], "timing": {},
            "trace_cache": {}, "wall_seconds": 1.0,
            "trace_cache_disk_hits": 0, "rerun_disk_hits": 0,
        }
        scaling = {
            "cores": 4, "cells": [dict(cell)], "workers": 4,
            "wall_seconds_sequential": 2.0,
            "wall_seconds_parallel": 1.0, "speedup": 2.0,
        }
        return cross, scaling

    def test_cross_section_byte_stability_enforced(self, tmp_path, capsys):
        cross, scaling = self._sweep_payloads()
        path = write(
            tmp_path,
            {"sweep_cross_isa": cross, "sweep_parallel_scaling": scaling},
        )
        assert check_bench_json.main([path]) == 0
        # the same grid reporting different cells must fail the gate
        scaling["cells"][0]["test_cases"] = 999
        path = write(
            tmp_path,
            {"sweep_cross_isa": cross, "sweep_parallel_scaling": scaling},
            name="diverged.json",
        )
        capsys.readouterr()
        assert check_bench_json.main([path]) == 1
        assert "different reports" in capsys.readouterr().out

    def test_main_requires_sections(self, tmp_path, capsys):
        path = write(tmp_path, GOOD_WORKER_SCALING)
        assert check_bench_json.main([path]) == 0
        assert check_bench_json.main(
            [path, "--require", "worker_scaling"]
        ) == 0
        assert check_bench_json.main(
            [path, "--require", "sweep_cross_isa"]
        ) == 1
        assert "sweep_cross_isa" in capsys.readouterr().out


GOOD_CORPUS_REPLAY = {
    "corpus_replay": {
        "corpus": "corpus/seed",
        "entries": 1,
        "passed": 1,
        "changed": 0,
        "failed": 0,
        "skipped": 0,
        "report_digest": "ab" * 20,
        "detection": [
            {
                "name": "spectre-v1",
                "file": "spectre-v1-0011.json",
                "arch": "x86_64",
                "contract": "CT-SEQ",
                "cpu": "skylake",
                "verdict": "PASS",
                "digest": "cd" * 20,
                "inputs": 5,
                "seconds": 0.02,
            }
        ],
    }
}


class TestCorpusReplaySection:
    def test_valid_section_passes(self, tmp_path):
        assert check_bench_json.check_file(
            write(tmp_path, GOOD_CORPUS_REPLAY)
        ) == []

    def test_missing_keys_rejected(self, tmp_path):
        errors = check_bench_json.check_file(
            write(tmp_path, {"corpus_replay": {"corpus": "x"}})
        )
        assert errors and any("missing keys" in error for error in errors)

    def test_empty_corpus_rejected(self, tmp_path):
        payload = json.loads(json.dumps(GOOD_CORPUS_REPLAY))
        payload["corpus_replay"]["entries"] = 0
        payload["corpus_replay"]["passed"] = 0
        payload["corpus_replay"]["detection"] = []
        errors = check_bench_json.check_file(write(tmp_path, payload))
        assert any("entries must be >= 1" in error for error in errors)

    @pytest.mark.parametrize("counter", ["failed", "changed", "skipped"])
    def test_any_regression_counter_rejected(self, tmp_path, counter):
        payload = json.loads(json.dumps(GOOD_CORPUS_REPLAY))
        payload["corpus_replay"][counter] = 1
        errors = check_bench_json.check_file(write(tmp_path, payload))
        assert any(f"{counter} must be 0" in error for error in errors)

    def test_detection_must_cover_every_entry(self, tmp_path):
        payload = json.loads(json.dumps(GOOD_CORPUS_REPLAY))
        payload["corpus_replay"]["detection"] = []
        errors = check_bench_json.check_file(write(tmp_path, payload))
        assert any("one report per entry" in error for error in errors)

    def test_detection_entry_keys_checked(self, tmp_path):
        payload = json.loads(json.dumps(GOOD_CORPUS_REPLAY))
        del payload["corpus_replay"]["detection"][0]["seconds"]
        errors = check_bench_json.check_file(write(tmp_path, payload))
        assert any("missing keys" in error for error in errors)

    def test_real_replay_report_satisfies_the_schema(self, tmp_path):
        """The CLI's --json artifact and the checker must agree —
        validated against a real replay of the checked-in seed corpus."""
        from repro.corpus import CounterexampleCorpus

        seed_dir = os.path.join(
            os.path.dirname(os.path.dirname(__file__)), "corpus", "seed"
        )
        report = CounterexampleCorpus(seed_dir).replay()
        payload = {"corpus_replay": report.to_json()}
        assert check_bench_json.check_file(write(tmp_path, payload)) == []
        section = payload["corpus_replay"]
        assert set(section) >= check_bench_json.SECTION_SCHEMAS[
            "corpus_replay"
        ]
        assert set(section["detection"][0]) == (
            check_bench_json.DETECTION_KEYS
        )


GOOD_EMULATION_THROUGHPUT = {
    "emulation_throughput": {
        "instructions": 44,
        "programs": 6,
        "inputs": 30,
        "contract": "CT-COND",
        "arches": {},
        "throughput_ratio": 3.0,
        "battery_ratio": 2.1,
        "traces_equal": True,
        "battery_traces_equal": True,
    }
}


class TestEmulationThroughputSection:
    def test_valid_section_passes(self, tmp_path):
        # the knob-flipping report flags are gone: report equality
        # lives in tests/test_reference_paths.py
        assert check_bench_json.check_file(
            write(tmp_path, GOOD_EMULATION_THROUGHPUT)
        ) == []

    @pytest.mark.parametrize(
        "key, value",
        [("throughput_ratio", 1.9), ("battery_ratio", 1.4)],
    )
    def test_ratio_below_floor_rejected(self, tmp_path, key, value):
        payload = json.loads(json.dumps(GOOD_EMULATION_THROUGHPUT))
        payload["emulation_throughput"][key] = value
        errors = check_bench_json.check_file(write(tmp_path, payload))
        assert any(f"{key} must be >=" in error for error in errors)

    @pytest.mark.parametrize("key", ["traces_equal", "battery_traces_equal"])
    def test_unequal_traces_rejected(self, tmp_path, key):
        payload = json.loads(json.dumps(GOOD_EMULATION_THROUGHPUT))
        payload["emulation_throughput"][key] = False
        errors = check_bench_json.check_file(write(tmp_path, payload))
        assert any(f"{key} must be true" in error for error in errors)


class TestAgainstRealReports:
    def test_sweep_report_cells_satisfy_the_schema(self, tmp_path):
        spec = SweepSpec(
            arches=("x86_64",),
            contracts=("CT-SEQ",),
            cpus=("skylake",),
            base_config=FuzzerConfig(
                instruction_subsets=("AR",),
                num_test_cases=3,
                inputs_per_test_case=6,
                diversity_feedback=False,
            ),
        )
        report = SweepRunner(spec).run()
        cells = [r.deterministic_report() for r in report.results]
        assert check_bench_json.check_deterministic_cells(
            cells, "cells"
        ) == []
        # and the cell-key schema matches what reports actually carry
        assert set(cells[0]) == check_bench_json.CELL_KEYS


GOOD_WORKSTEALING = {
    "workstealing": {
        "arch": "x86_64",
        "cores": 4,
        "cells": [{key: 0 for key in check_bench_json.CELL_KEYS}],
        "shards_per_cell": 4,
        "total_units": 16,
        "workers": 4,
        "wall_seconds_1_worker": 8.0,
        "wall_seconds_workstealing": 4.0,
        "speedup": 2.0,
        "speedup_gated": True,
        "reports_equal": True,
        "resume_digest_equal": True,
    }
}


class TestWorkStealingSection:
    def test_valid_section_passes(self, tmp_path):
        assert check_bench_json.check_file(
            write(tmp_path, GOOD_WORKSTEALING)
        ) == []

    def test_missing_keys_rejected(self, tmp_path):
        errors = check_bench_json.check_file(
            write(tmp_path, {"workstealing": {"arch": "x86_64"}})
        )
        assert errors and any("missing keys" in error for error in errors)

    def test_unequal_reports_rejected(self, tmp_path):
        payload = json.loads(json.dumps(GOOD_WORKSTEALING))
        payload["workstealing"]["reports_equal"] = False
        errors = check_bench_json.check_file(write(tmp_path, payload))
        assert any("reports_equal" in error for error in errors)

    def test_unequal_resume_digest_rejected(self, tmp_path):
        payload = json.loads(json.dumps(GOOD_WORKSTEALING))
        payload["workstealing"]["resume_digest_equal"] = False
        errors = check_bench_json.check_file(write(tmp_path, payload))
        assert any("resume_digest_equal" in error for error in errors)

    def test_gated_speedup_below_floor_rejected(self, tmp_path):
        payload = json.loads(json.dumps(GOOD_WORKSTEALING))
        payload["workstealing"]["speedup"] = 1.1
        errors = check_bench_json.check_file(write(tmp_path, payload))
        assert any("speedup" in error for error in errors)

    def test_ungated_speedup_below_floor_tolerated(self, tmp_path):
        # on starved runners the gate is advisory; equality still holds
        payload = json.loads(json.dumps(GOOD_WORKSTEALING))
        payload["workstealing"]["speedup"] = 0.9
        payload["workstealing"]["speedup_gated"] = False
        assert check_bench_json.check_file(write(tmp_path, payload)) == []

    def test_nonpositive_speedup_rejected(self, tmp_path):
        payload = json.loads(json.dumps(GOOD_WORKSTEALING))
        payload["workstealing"]["speedup"] = 0
        payload["workstealing"]["speedup_gated"] = False
        errors = check_bench_json.check_file(write(tmp_path, payload))
        assert any("speedup" in error for error in errors)

    def test_degenerate_unit_count_rejected(self, tmp_path):
        # one unit total means nothing could ever be stolen
        payload = json.loads(json.dumps(GOOD_WORKSTEALING))
        payload["workstealing"]["total_units"] = 1
        errors = check_bench_json.check_file(write(tmp_path, payload))
        assert any("total_units" in error for error in errors)

    def test_cell_determinism_checked(self, tmp_path):
        payload = json.loads(json.dumps(GOOD_WORKSTEALING))
        payload["workstealing"]["cells"][0]["wall_seconds"] = 1.5
        errors = check_bench_json.check_file(write(tmp_path, payload))
        assert any("wall_seconds" in error for error in errors)


REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def e2e_payload(**overrides):
    """One valid trajectory entry, with ``overrides`` applied."""
    entry = {
        "pr": 1,
        "commit": "0000000",
        "side": "parent",
        "workload": "fuzz-clean",
        "seed": 3,
        "seconds": 25,
        "runs": 3,
        "correct": True,
        "speed": 1.0,
        "metrics": dict.fromkeys(check_bench_json.E2E_METRICS, 1.0),
    }
    entry.update(overrides)
    return {"e2e_trajectory": {"entries": [entry]}}


class TestE2ETrajectorySection:
    def test_valid_section_passes(self, tmp_path):
        assert check_bench_json.check_file(
            write(tmp_path, e2e_payload())
        ) == []

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"correct": False}, "correct must be true"),
            ({"workload": "fuzz"}, "unknown workload"),
            (
                {"metrics": dict.fromkeys(
                    check_bench_json.E2E_METRICS[:-1] + ("rss_mb",), 1.0
                )},
                "metrics must be exactly",
            ),
            (
                {"metrics": dict(
                    dict.fromkeys(check_bench_json.E2E_METRICS, 1.0),
                    run_s=float("nan"),
                )},
                "run_s must be finite",
            ),
        ],
        ids=["incorrect", "workload", "metric-names", "non-finite"],
    )
    def test_invalid_entry_rejected(self, tmp_path, overrides, message):
        # json writes NaN as a bare token, which json.load accepts
        errors = check_bench_json.check_file(
            write(tmp_path, e2e_payload(**overrides))
        )
        assert any(message in error for error in errors), errors

    def test_names_follow_benchmark_json(self):
        with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as handle:
            declared = json.load(handle)
        assert check_bench_json.E2E_METRICS == tuple(
            metric["name"] for metric in declared["end_to_end"]
        )
        assert check_bench_json.E2E_WORKLOADS == tuple(
            workload["name"] for workload in declared["workloads"]
        )

    def test_checked_in_trajectory_passes(self):
        path = os.path.join(REPO_ROOT, "BENCH_e2e.json")
        assert check_bench_json.check_file(path) == []
        assert check_bench_json.main(
            [path, "--require", "e2e_trajectory"]
        ) == 0
