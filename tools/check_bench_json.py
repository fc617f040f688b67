#!/usr/bin/env python
"""Schema validation for ``REPRO_BENCH_JSON`` benchmark artifacts.

CI uploads the campaign-scaling and sweep measurements as JSON build
artifacts so the knobs and numbers can be tracked over time. An
artifact nobody can parse is worse than none, so this tool gates the
upload on four invariants:

1. **known sections** — every top-level key is a section this tool
   knows the schema of (an unknown section means a benchmark changed
   its output without updating the schema here);
2. **required keys** — each section carries its required keys, and
   sections with deterministic cell reports carry the per-cell keys;
3. **deterministic-section byte-stability** — the deterministic
   subsections (sweep ``cells``) serialize canonically (``sort_keys``,
   no NaN/Infinity, string keys only), contain none of the
   scheduling-dependent keys (wall clock, concurrency, cache counters)
   whose presence would silently break the byte-reproducibility
   contract of ``docs/campaigns-and-sweeps.md`` — and, decisively, the
   ``sweep_cross_isa`` and ``sweep_parallel_scaling`` benchmarks run
   the *same deterministic grid* under different scheduling (pool
   sizes), so when both sections are present their ``cells``
   lists must be byte-identical: a real end-to-end check of the
   determinism claim on every CI run;
4. **section value gates** — sections that encode a performance
   contract carry it in their values: ``emulation_throughput`` must
   report a compiled-vs-interpretive ratio >= 2.0 and a
   battery-vs-per-input ratio >= 1.5, each with its byte-identical
   traces flag true (the compile-once IR and battery-batching
   guarantees of ``docs/performance.md``), ``prescreen_triage``
   must report a positive screened fraction with both campaign-parity
   flags true and zero gallery gadgets lost (the pre-screen soundness
   contract of ``docs/analysis.md``), and ``corpus_replay`` must
   report a non-empty corpus with zero FAIL/CHANGED/SKIP verdicts and
   one per-entry detection report (the counterexample-corpus
   regression gate of ``docs/corpus.md``), and ``workstealing`` must
   report byte-identical cell reports from a 4-worker and a 1-worker
   pool, a resume run whose report digest matches the uninterrupted
   run, and — when the host had enough cores to make the claim
   meaningful (``speedup_gated``) — a >= 1.3x speedup over one worker
   on a heterogeneous grid (the unit-pool contract of
   ``docs/campaigns-and-sweeps.md``), and ``e2e_trajectory`` (the
   checked-in ``BENCH_e2e.json``) must hold only correct perfbench
   measurements of a known workload, each with exactly the seven
   end-to-end metrics of ``BENCHMARK.json``, all finite.

Usage::

    python tools/check_bench_json.py artifact.json [...] \
        [--require SECTION ...]

``--require`` additionally fails the check when none of the given
files contains SECTION (CI uses it to assert each artifact actually
recorded its benchmark).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Dict, List, Set

#: required top-level keys per known section
SECTION_SCHEMAS: Dict[str, Set[str]] = {
    "worker_scaling": {
        "arch",
        "cores",
        "test_cases",
        "wall_seconds_1_worker",
        "wall_seconds_4_workers",
        "speedup",
        "found",
    },
    "postprocessor_trace_cache": {
        "emulations_uncached",
        "emulations_cached",
        "cache_hits",
        "hit_rate",
    },
    "sweep_cross_isa": {
        "grid",
        "cells",
        "timing",
        "trace_cache",
        "wall_seconds",
        "trace_cache_disk_hits",
        "rerun_disk_hits",
    },
    "sweep_parallel_scaling": {
        "cores",
        "cells",
        "workers",
        "wall_seconds_sequential",
        "wall_seconds_parallel",
        "speedup",
    },
    "emulation_throughput": {
        "instructions",
        "programs",
        "inputs",
        "contract",
        "arches",
        "throughput_ratio",
        "battery_ratio",
        "traces_equal",
        "battery_traces_equal",
    },
    "prescreen_triage": {
        "arch",
        "test_cases",
        "screened",
        "screened_fraction",
        "safety_checked",
        "wall_seconds_off",
        "wall_seconds_on",
        "speedup",
        "found_parity",
        "violation_parity",
        "gallery_checked",
        "gallery_lost",
    },
    "corpus_replay": {
        "corpus",
        "entries",
        "passed",
        "changed",
        "failed",
        "skipped",
        "report_digest",
        "detection",
    },
    "workstealing": {
        "arch",
        "cores",
        "cells",
        "shards_per_cell",
        "total_units",
        "workers",
        "wall_seconds_1_worker",
        "wall_seconds_workstealing",
        "speedup",
        "speedup_gated",
        "reports_equal",
        "resume_digest_equal",
    },
    "service_resilience": {
        "arch",
        "kill",
        "recovered_jobs",
        "resumed_digest",
        "baseline_digest",
        "digest_match",
    },
    "e2e_trajectory": {"entries"},
}


def _check_emulation_throughput(payload) -> List[str]:
    """Value gates of the compile-once IR and battery contracts: the
    throughput ratios must hold (>= 2.0, >= 1.5) and the
    byte-identical-traces flags must be true — a regression of either is
    a build failure, not a data point."""
    errors = []
    ratio = payload.get("throughput_ratio")
    if not isinstance(ratio, (int, float)) or ratio < 2.0:
        errors.append(
            f"emulation_throughput: throughput_ratio must be >= 2.0, "
            f"got {ratio!r}"
        )
    if payload.get("traces_equal") is not True:
        errors.append(
            "emulation_throughput: traces_equal must be true (compiled "
            "and interpretive engines diverged)"
        )
    battery_ratio = payload.get("battery_ratio")
    if not isinstance(battery_ratio, (int, float)) or battery_ratio < 1.5:
        errors.append(
            f"emulation_throughput: battery_ratio must be >= 1.5 over "
            f"the per-input compiled path, got {battery_ratio!r}"
        )
    if payload.get("battery_traces_equal") is not True:
        errors.append(
            "emulation_throughput: battery_traces_equal must be true "
            "(the battery engine diverged from the per-input path)"
        )
    return errors


def _check_prescreen_triage(payload) -> List[str]:
    """Value gates of the static pre-screen contract: it must screen a
    positive fraction of generated test cases while losing nothing —
    the detecting campaign's outcome is unchanged (parity flags) and no
    handwritten gallery gadget is misclassified INERT."""
    errors = []
    fraction = payload.get("screened_fraction")
    if not isinstance(fraction, (int, float)) or not 0 < fraction < 1:
        errors.append(
            f"prescreen_triage: screened_fraction must be in (0, 1), "
            f"got {fraction!r}"
        )
    for flag in ("found_parity", "violation_parity"):
        if payload.get(flag) is not True:
            errors.append(
                f"prescreen_triage: {flag} must be true (the pre-screen "
                "changed a campaign outcome)"
            )
    if payload.get("gallery_lost") != 0:
        errors.append(
            f"prescreen_triage: gallery_lost must be 0, got "
            f"{payload.get('gallery_lost')!r} (a known gadget was "
            "screened out or no longer violates)"
        )
    return errors


#: required keys of one per-entry detection report (corpus ``detection``
#: lists — the Table 4 trend line: per-counterexample detection time)
DETECTION_KEYS: Set[str] = {
    "name",
    "file",
    "arch",
    "contract",
    "cpu",
    "verdict",
    "digest",
    "inputs",
    "seconds",
}


def _check_corpus_replay(payload) -> List[str]:
    """Value gates of the counterexample-corpus regression contract: a
    non-empty corpus where every record replayed PASS — any FAIL
    (detection-power regression), CHANGED (evidence drift) or SKIP
    (unreadable record) fails the build, not just the trend line."""
    errors = []
    entries = payload.get("entries")
    if not isinstance(entries, int) or entries < 1:
        errors.append(
            f"corpus_replay: entries must be >= 1, got {entries!r} "
            "(an empty corpus gates nothing)"
        )
    for counter in ("failed", "changed", "skipped"):
        value = payload.get(counter)
        if value != 0:
            errors.append(
                f"corpus_replay: {counter} must be 0, got {value!r} "
                "(a counterexample no longer replays cleanly)"
            )
    digest = payload.get("report_digest")
    if not isinstance(digest, str) or not digest:
        errors.append(
            f"corpus_replay: report_digest must be a non-empty "
            f"string, got {digest!r}"
        )
    detection = payload.get("detection")
    if not isinstance(detection, list) or (
        isinstance(entries, int) and len(detection) != entries
    ):
        errors.append(
            "corpus_replay: detection must list one report per entry"
        )
    else:
        for index, report in enumerate(detection):
            if not isinstance(report, dict):
                errors.append(
                    f"corpus_replay: detection[{index}] not an object"
                )
                continue
            missing = DETECTION_KEYS - set(report)
            if missing:
                errors.append(
                    f"corpus_replay: detection[{index}] missing keys "
                    f"{sorted(missing)}"
                )
    return errors


def _check_workstealing(payload) -> List[str]:
    """Value gates of the unit-pool contract: the pool size may only
    move wall clock, never bytes — the 4-worker pool's merged cell
    reports must equal the 1-worker pool's, a killed-and-resumed run
    must reproduce the uninterrupted digest, and on hosts with enough
    cores the heterogeneous grid must actually go >= 1.3x faster."""
    errors = []
    if payload.get("reports_equal") is not True:
        errors.append(
            "workstealing: reports_equal must be true (the pool size "
            "changed the merged cell reports)"
        )
    if payload.get("resume_digest_equal") is not True:
        errors.append(
            "workstealing: resume_digest_equal must be true (resuming "
            "from the journal changed the report digest)"
        )
    speedup = payload.get("speedup")
    if not isinstance(speedup, (int, float)) or speedup <= 0:
        errors.append(
            f"workstealing: speedup must be a positive number, "
            f"got {speedup!r}"
        )
    elif payload.get("speedup_gated") is True and speedup < 1.3:
        errors.append(
            f"workstealing: speedup must be >= 1.3 over one worker "
            f"on a gated host, got {speedup!r}"
        )
    units = payload.get("total_units")
    if not isinstance(units, int) or units < 2:
        errors.append(
            f"workstealing: total_units must be >= 2 (nothing to "
            f"steal otherwise), got {units!r}"
        )
    return errors


def _check_service_resilience(payload) -> List[str]:
    """Value gates of the ``serve --state-dir`` crash-recovery
    contract: the restarted serve must actually have recovered at least
    one job, and the resumed campaign must reproduce the uninterrupted
    run's digest byte for byte — a mismatch is a build failure."""
    errors = []
    recovered = payload.get("recovered_jobs")
    if not isinstance(recovered, int) or recovered < 1:
        errors.append(
            f"service_resilience: recovered_jobs must be >= 1 (the "
            f"restarted serve recovered nothing), got {recovered!r}"
        )
    if payload.get("digest_match") is not True:
        errors.append(
            "service_resilience: digest_match must be true (the "
            "recovered job's report digest diverged from the "
            "uninterrupted baseline)"
        )
    resumed = payload.get("resumed_digest")
    baseline = payload.get("baseline_digest")
    if not resumed or resumed != baseline:
        errors.append(
            f"service_resilience: resumed_digest must equal "
            f"baseline_digest, got {resumed!r} vs {baseline!r}"
        )
    return errors


#: perfbench's workloads and end-to-end metrics, as BENCHMARK.json
#: declares them
E2E_WORKLOADS = ("fuzz-clean", "detect-minimize", "sweep-grid")
E2E_METRICS = (
    "setup_s",
    "run_s",
    "inputs_per_s",
    "cases_per_s",
    "inputs_per_s.x86_64",
    "inputs_per_s.aarch64",
    "peak_rss_mb",
)
#: required keys of one trajectory entry: one perfbench workload
#: measured on one side of a change. ``commit`` is the parent commit
#: the pair was measured against (side ``change`` is that commit plus
#: the change); ``speed`` and ``metrics`` are medians over the ``runs``
E2E_ENTRY_KEYS: Set[str] = {
    "pr",
    "commit",
    "side",
    "workload",
    "seed",
    "seconds",
    "runs",
    "correct",
    "speed",
    "metrics",
}


def _finite(value) -> bool:
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and math.isfinite(value)
    )


def _check_e2e_trajectory(payload) -> List[str]:
    """Value gates of the end-to-end trajectory: every entry is a
    correct perfbench measurement of a known workload that carries
    exactly the seven end-to-end metrics, each a finite number — a
    trajectory point from a run that failed its pins, or with a
    renamed metric, compares nothing."""
    entries = payload.get("entries")
    if not isinstance(entries, list) or not entries:
        return ["e2e_trajectory: entries must be a non-empty list"]
    errors = []
    for index, entry in enumerate(entries):
        where = f"e2e_trajectory.entries[{index}]"
        if not isinstance(entry, dict):
            errors.append(f"{where}: not an object")
            continue
        missing = E2E_ENTRY_KEYS - set(entry)
        if missing:
            errors.append(f"{where}: missing keys {sorted(missing)}")
        if entry.get("correct") is not True:
            errors.append(f"{where}: correct must be true")
        if entry.get("workload") not in E2E_WORKLOADS:
            errors.append(
                f"{where}: unknown workload {entry.get('workload')!r}"
            )
        if entry.get("side") not in ("parent", "change"):
            errors.append(
                f"{where}: side must be 'parent' or 'change', got "
                f"{entry.get('side')!r}"
            )
        for key in ("seed", "seconds", "runs", "speed"):
            if key in entry and not _finite(entry[key]):
                errors.append(f"{where}: {key} must be a finite number")
        metrics = entry.get("metrics")
        if not isinstance(metrics, dict):
            errors.append(f"{where}: metrics must be an object")
            continue
        if set(metrics) != set(E2E_METRICS):
            errors.append(
                f"{where}: metrics must be exactly {list(E2E_METRICS)}, "
                f"got {sorted(metrics)}"
            )
        for name, value in sorted(metrics.items()):
            if not _finite(value):
                errors.append(
                    f"{where}: metric {name} must be finite, got {value!r}"
                )
    return errors


#: per-section value gates, run after the key-presence checks
SECTION_VALUE_CHECKS = {
    "emulation_throughput": _check_emulation_throughput,
    "prescreen_triage": _check_prescreen_triage,
    "corpus_replay": _check_corpus_replay,
    "workstealing": _check_workstealing,
    "service_resilience": _check_service_resilience,
    "e2e_trajectory": _check_e2e_trajectory,
}

#: required keys of one deterministic cell report (sweep ``cells``)
CELL_KEYS: Set[str] = {
    "arch",
    "contract",
    "cpu",
    "seed",
    "shards",
    "mode",
    "test_cases",
    "inputs_tested",
    "prescreened_inert",
    "patterns_covered",
    "found",
    "winning_shard",
    "violation",
}

#: keys that are scheduling-dependent and must never leak into a
#: deterministic section (they live under ``timing``)
FORBIDDEN_IN_DETERMINISTIC: Set[str] = {
    "wall_seconds",
    "aggregate_seconds",
    "duration_seconds",
    "seconds_until_found",
    "observed_concurrency",
    "trace_cache_hits",
    "trace_cache_disk_hits",
    "cancelled_shards",
}


def canonical(payload) -> str:
    """Canonical serialization: sorted keys, no NaN/Infinity."""
    return json.dumps(payload, sort_keys=True, allow_nan=False)


def forbidden_keys_in(payload, path: str) -> List[str]:
    """Scheduling-dependent keys found anywhere inside ``payload``."""
    found = []
    if isinstance(payload, dict):
        for key, value in payload.items():
            where = f"{path}.{key}"
            if key in FORBIDDEN_IN_DETERMINISTIC:
                found.append(where)
            found.extend(forbidden_keys_in(value, where))
    elif isinstance(payload, list):
        for index, value in enumerate(payload):
            found.extend(forbidden_keys_in(value, f"{path}[{index}]"))
    return found


def check_deterministic_cells(cells, where: str) -> List[str]:
    """Invariant 3 on one deterministic ``cells`` list."""
    errors = []
    if not isinstance(cells, list) or not cells:
        return [f"{where}: expected a non-empty list of cell reports"]
    for index, cell in enumerate(cells):
        if not isinstance(cell, dict):
            errors.append(f"{where}[{index}]: not an object")
            continue
        missing = CELL_KEYS - set(cell)
        if missing:
            errors.append(
                f"{where}[{index}]: missing keys {sorted(missing)}"
            )
    errors.extend(forbidden_keys_in(cells, where))
    try:
        canonical(cells)
    except ValueError as error:  # NaN/Infinity or non-serializable
        errors.append(f"{where}: not canonically serializable ({error})")
    return errors


#: section pairs that fuzz the identical deterministic grid under
#: different scheduling — their cells must be byte-identical
EQUAL_CELL_SECTIONS = [("sweep_cross_isa", "sweep_parallel_scaling")]


def check_cross_section_stability(
    cells_by_section: Dict[str, List],
) -> List[str]:
    """Byte-stability across sections: same grid, same bytes."""
    errors = []
    for left, right in EQUAL_CELL_SECTIONS:
        if left not in cells_by_section or right not in cells_by_section:
            continue
        try:
            same = canonical(cells_by_section[left]) == canonical(
                cells_by_section[right]
            )
        except ValueError:
            continue  # already reported per section
        if not same:
            errors.append(
                f"{left}.cells != {right}.cells: the same deterministic "
                "grid produced different reports under different "
                "scheduling"
            )
    return errors


def check_file(path: str) -> List[str]:
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, ValueError) as error:
        return [f"unreadable JSON ({error})"]
    if not isinstance(data, dict):
        return ["top level must be an object of benchmark sections"]
    if not data:
        return ["no benchmark sections recorded"]
    errors: List[str] = []
    for section, payload in sorted(data.items()):
        schema = SECTION_SCHEMAS.get(section)
        if schema is None:
            errors.append(
                f"unknown section {section!r} "
                f"(teach tools/check_bench_json.py its schema)"
            )
            continue
        if not isinstance(payload, dict):
            errors.append(f"{section}: not an object")
            continue
        missing = schema - set(payload)
        if missing:
            errors.append(f"{section}: missing keys {sorted(missing)}")
        value_check = SECTION_VALUE_CHECKS.get(section)
        if value_check is not None:
            errors.extend(value_check(payload))
        if "cells" in schema and "cells" in payload:
            errors.extend(
                check_deterministic_cells(
                    payload["cells"], f"{section}.cells"
                )
            )
    return errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="validate REPRO_BENCH_JSON benchmark artifacts"
    )
    parser.add_argument("files", nargs="+", help="artifact JSON files")
    parser.add_argument(
        "--require",
        action="append",
        default=[],
        metavar="SECTION",
        help="fail unless at least one file contains SECTION",
    )
    args = parser.parse_args(argv)

    failed = False
    seen_sections: Set[str] = set()
    cells_by_section: Dict[str, List] = {}
    for path in args.files:
        errors = check_file(path)
        if not errors:
            with open(path, encoding="utf-8") as handle:
                data = json.load(handle)
            seen_sections.update(data)
            for section, payload in data.items():
                if isinstance(payload, dict) and "cells" in payload:
                    cells_by_section[section] = payload["cells"]
        status = "ok" if not errors else f"{len(errors)} problem(s)"
        print(f"{path}: {status}")
        for error in errors:
            print(f"  - {error}")
        failed = failed or bool(errors)
    for error in check_cross_section_stability(cells_by_section):
        print(f"cross-section: {error}")
        failed = True
    for section in args.require:
        if section not in seen_sections:
            print(f"required section {section!r} not found in any file")
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
