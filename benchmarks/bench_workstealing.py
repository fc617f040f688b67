"""Work-stealing unit pool: wall clock moves, bytes do not.

A heterogeneous grid — here one cell with a 4x budget next to three
small ones — is the scheduler's target shape: every cell is split into
shard-sized units on one shared queue, so a worker that finishes a
small cell's units pulls the big cell's remaining shards instead of
idling. This benchmark runs the same single-ISA grid (``REPRO_ARCH``,
x86_64 by default) on a 4-worker pool and on a 1-worker pool (the
inline baseline) and pins three claims:

1. **Equal reports** — the 4-worker pool's deterministic cell reports
   are byte-identical to the 1-worker pool's: the pool size changes
   which process runs a shard, never the shard partition, seeds, or
   budgets (``docs/campaigns-and-sweeps.md``). The grid uses
   holds-everywhere contracts (CT-COND family), so every cell is
   budget-bound and the timing comparison is stable.
2. **Wall-clock speedup** — the heterogeneous grid finishes >=1.3x
   faster on 4 workers than on 1. Gated on the host actually having
   4+ cores (``REPRO_BENCH_STRICT_SPEEDUP=1`` forces it); always
   printed and recorded.
3. **Resume reproduces the digest** — the 4-worker run checkpoints
   every completed shard into a journal; deleting half the shard
   records and resuming re-runs only the missing units and must
   reproduce the uninterrupted run's report digest byte for byte.
"""

import os
from dataclasses import replace

from repro.core.config import FuzzerConfig
from repro.core.sweep import SweepRunner, SweepSpec

from conftest import emit_json, print_table

#: shard-sized units per cell — the stealing granularity
SHARDS_PER_CELL = 4
#: the one expensive cell's budget multiplier
HEAVY_FACTOR = 4
#: the pool compared with the inline (1-worker) baseline
POOL_WORKERS = 4

CONTRACTS = ("CT-COND", "CT-COND-BPAS")
CPUS = ("skylake-v4-patched", "coffee-lake")


def _available_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def heterogeneous_spec(scale, arch):
    """A 2x2 single-ISA grid of budget-bound cells, one of them 4x the
    size of the others. ``shards`` is pinned explicitly, so the 1-worker
    baseline runs the same partition as the pool."""
    return SweepSpec(
        arches=(arch,),
        contracts=CONTRACTS,
        cpus=CPUS,
        base_config=FuzzerConfig(
            num_test_cases=60 * scale,
            inputs_per_test_case=20,
            seed=5,
        ),
        workers=1,
        shards=SHARDS_PER_CELL,
        budget_overrides={
            (arch, "CT-COND", "skylake-v4-patched"): 60 * HEAVY_FACTOR * scale
        },
    )


def test_workstealing_speedup_and_byte_equality(scale, tmp_path):
    arch = os.environ.get("REPRO_ARCH", "x86_64")
    cores = _available_cores()
    spec = heterogeneous_spec(scale, arch)
    pooled_spec = replace(spec, workers=POOL_WORKERS)
    journal_dir = tmp_path / "journal"

    inline = SweepRunner(spec).run()
    pooled = SweepRunner(pooled_spec, journal_dir=str(journal_dir)).run()

    speedup = inline.wall_seconds / pooled.wall_seconds
    gated = (
        cores >= 4
        or os.environ.get("REPRO_BENCH_STRICT_SPEEDUP") == "1"
    )
    print_table(
        "Work-stealing pool vs one worker (heterogeneous grid)",
        ["workers", "wall s", "cases"],
        [
            [1, f"{inline.wall_seconds:.2f}",
             sum(r.campaign.merged.test_cases for r in inline.results)],
            [POOL_WORKERS, f"{pooled.wall_seconds:.2f}",
             sum(r.campaign.merged.test_cases for r in pooled.results)],
        ],
    )
    print(f"speedup: {speedup:.2f}x on {cores} core(s)")

    # 1. the pool size moves wall clock, never bytes
    reports_equal = pooled.cell_reports_json() == inline.cell_reports_json()
    assert reports_equal, "the pool size changed the merged cell reports"
    # the timing claim rests on budget-bound cells: every contract in
    # the grid holds, so no cell stops early
    for result in pooled.results:
        assert not result.found, (
            f"{result.cell.label}: expected the contract to hold"
        )

    # 3. kill half the checkpoints; resume must reproduce the digest
    records = sorted(
        name for name in os.listdir(journal_dir)
        if name.startswith("shard-") and name.endswith(".pkl")
    )
    assert len(records) == len(pooled.results) * SHARDS_PER_CELL
    for name in records[::2]:
        os.unlink(journal_dir / name)
    resumed = SweepRunner(
        pooled_spec, journal_dir=str(journal_dir), resume=True
    ).run()
    resume_digest_equal = resumed.report_digest() == pooled.report_digest()
    assert resume_digest_equal, (
        "resuming from the journal changed the report digest"
    )

    emit_json(
        "workstealing",
        {
            "arch": arch,
            "cores": cores,
            "cells": [r.deterministic_report() for r in pooled.results],
            "shards_per_cell": SHARDS_PER_CELL,
            "total_units": len(pooled.results) * SHARDS_PER_CELL,
            "workers": POOL_WORKERS,
            "wall_seconds_1_worker": inline.wall_seconds,
            "wall_seconds_workstealing": pooled.wall_seconds,
            "speedup": speedup,
            "speedup_gated": gated,
            "reports_equal": reports_equal,
            "resume_digest_equal": resume_digest_equal,
        },
    )

    # 2. wall-clock scaling (needs real hardware parallelism; see
    # module docstring)
    if gated:
        assert speedup >= 1.3, (
            f"a {POOL_WORKERS}-worker pool should beat one worker "
            f">=1.3x on the heterogeneous grid with {cores} cores, "
            f"got {speedup:.2f}x"
        )
