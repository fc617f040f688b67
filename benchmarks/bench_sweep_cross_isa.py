"""Cross-ISA sweep: one grid over (arch, contract, cpu) with a shared
on-disk trace cache.

The Table 3 evaluation, generalized across ISA backends ("don't sit on
the fence": report serialization findings per architecture, not per
hard-coded ISA). One :class:`SweepSpec` covers
``{x86_64, aarch64} x {CT-SEQ, CT-COND} x {skylake-v4-patched,
coffee-lake}``; the expectations are the paper-shaped ones:

- every CT-SEQ cell is violated — Spectre V1 surfaces on *both* ISAs
  (JCC speculation on x86-64, B.cond speculation on AArch64);
- no CT-COND cell is violated — once the contract exposes the outcome
  of conditional branches, the leak is permitted on every backend.

The sweep shares one persistent trace cache: cells along the cpu axis
replay the identical program/input battery (cell seeds exclude the cpu
coordinate), so every coffee-lake cell reuses the contract traces its
skylake sibling emulated, across process boundaries (shard workers are
separate processes). A follow-up mini-sweep over the same cache
directory re-resolves one cell entirely from disk and must reproduce a
byte-identical deterministic cell report — the reproducibility claim of
``docs/campaigns-and-sweeps.md``.

The grid runs on a 2-worker pool at 2 pinned shards per cell; the
deterministic cell reports — and therefore every paper-shaped
assertion below — are identical for any pool size. The recorded JSON
keeps the grid shape and the cache GC statistics next to the
measurements so the artifacts track them over time.
"""

import json

from repro.core.config import FuzzerConfig
from repro.core.sweep import SweepCell, SweepRunner, SweepSpec

from conftest import emit_json, print_table

ARCHES = ("x86_64", "aarch64")
CONTRACTS = ("CT-SEQ", "CT-COND")
CPUS = ("skylake-v4-patched", "coffee-lake")


def cross_isa_spec(scale, shards=2):
    return SweepSpec(
        arches=ARCHES,
        contracts=CONTRACTS,
        cpus=CPUS,
        base_config=FuzzerConfig(
            num_test_cases=150 * scale,
            inputs_per_test_case=30,
            seed=3,
        ),
        workers=shards,
        shards=shards,
        # the holds-everywhere contract needs no deep search: cap its
        # cells the way Table 3 caps its cross cells
        budget_overrides={
            (arch, "CT-COND", cpu): 40 * scale
            for arch in ARCHES
            for cpu in CPUS
        },
    )


def test_sweep_cross_isa(benchmark, scale, tmp_path):
    cache_dir = tmp_path / "traces"
    spec = cross_isa_spec(scale)

    report = benchmark.pedantic(
        lambda: SweepRunner(spec, cache_dir=str(cache_dir)).run(),
        rounds=1, iterations=1,
    )

    print()
    print(report.to_markdown())
    rows = [
        (result.cell.arch, result.cell.contract, result.cell.cpu,
         result.classification or "-",
         f"{result.campaign.merged.test_cases}",
         f"{result.time_to_first_violation:.1f}s"
         if result.found else "-",
         f"{result.campaign.observed_concurrency:.1f}")
        for result in report.results
    ]
    print_table(
        "Cross-ISA sweep (detection per cell)",
        ("arch", "contract", "cpu", "violation", "cases",
         "time to 1st", "concurrency"),
        rows,
    )

    # paper-shaped expectations, now phrased per architecture
    for result in report.results:
        if result.cell.contract == "CT-SEQ":
            assert result.found, f"{result.cell.label}: expected a violation"
            assert "V1" in result.classification, result.cell.label
        else:
            assert not result.found, (
                f"{result.cell.label}: CT-COND should hold"
            )

    # cpu-axis cache sharing: coffee-lake cells replay their skylake
    # siblings' batteries, so the shared on-disk cache must have served
    # traces across process boundaries already within this one sweep.
    # Units are queued cell by cell, so at least one of a coffee-lake
    # cell's two units starts after its skylake twin has finished
    assert report.trace_cache_disk_hits > 0

    # cross-run reuse: a mini-sweep over one already-swept cell resolves
    # its contract traces from the populated cache and reproduces the
    # cell report byte for byte
    mini_spec = cross_isa_spec(scale)
    mini_spec.arches = ("x86_64",)
    mini_spec.contracts = ("CT-SEQ",)
    mini_spec.cpus = ("skylake-v4-patched",)
    rerun = SweepRunner(mini_spec, cache_dir=str(cache_dir)).run()
    assert rerun.trace_cache_disk_hits > 0
    first = report.cell_result(
        SweepCell("x86_64", "CT-SEQ", "skylake-v4-patched")
    )
    assert json.dumps(
        rerun.results[0].deterministic_report(), sort_keys=True
    ) == json.dumps(first.deterministic_report(), sort_keys=True)

    report_json = report.to_json()
    emit_json(
        "sweep_cross_isa",
        {
            "grid": report_json["grid"],
            "cells": [r.deterministic_report() for r in report.results],
            "timing": {
                r.cell.label: r.timing_report() for r in report.results
            },
            # cache GC statistics, tracked over time by the CI
            # artifacts
            "trace_cache": report_json["trace_cache"],
            "wall_seconds": report.wall_seconds,
            "trace_cache_disk_hits": report.trace_cache_disk_hits,
            "rerun_disk_hits": rerun.trace_cache_disk_hits,
        },
    )


def test_sweep_detection_time_order(benchmark, scale):
    """Table 4's companion claim on the sweep report: detection time to
    first violation is recorded per cell and the violated cells carry a
    positive one."""
    spec = cross_isa_spec(scale, shards=2)
    spec.contracts = ("CT-SEQ",)
    spec.arches = ("x86_64",)
    report = benchmark.pedantic(
        lambda: SweepRunner(spec).run(), rounds=1, iterations=1
    )
    for result in report.results:
        assert result.found
        assert result.time_to_first_violation > 0
        assert result.campaign.observed_concurrency > 0
