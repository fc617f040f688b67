"""Sweep pool scaling: wall-clock scaling at equal reports.

The cross-ISA grid is the repository's main workload (Table 3/4 shape),
and its cells are independent campaigns with coordinate-derived seeds —
so running their units on more worker processes must change wall clock
only. This benchmark runs the same 2-ISA grid as
``bench_sweep_cross_isa.py`` (``{x86_64, aarch64} x {CT-SEQ, CT-COND}
x {skylake-v4-patched, coffee-lake}``, identical cell seeds and shard
batteries) on one worker (inline) and on a 4-worker pool, each through
its own persistent trace cache, and pins two claims:

1. **Equal reports** — the deterministic per-cell reports of the
   4-worker sweep are byte-identical to the 1-worker run's (which
   process emulates a shared trace first changes how often the model
   is re-emulated, never what it produces), and the paper-shaped
   outcomes hold (CT-SEQ violated on both ISAs, CT-COND holds).
2. **Wall-clock speedup** — on 4 workers the sweep finishes in >=1.5x
   less wall time. The assertion is gated on the machine
   actually having 4+ cores (oversubscribed or small CI machines can
   dip under any threshold and would flake);
   ``REPRO_BENCH_STRICT_SPEEDUP=1`` forces it. The measurement is
   always printed and recorded.
"""

import os
from dataclasses import replace

from repro.core.sweep import SweepRunner

from bench_sweep_cross_isa import cross_isa_spec
from conftest import emit_json, print_table

#: the pool compared with the inline (1-worker) baseline
POOL_WORKERS = 4


def _available_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def scaling_spec(scale):
    """The cross-ISA grid on one worker (inline, strictly serial) and
    the usual 2-shard batteries."""
    spec = cross_isa_spec(scale, shards=2)
    spec.workers = 1
    return spec


def test_sweep_parallel_scaling(scale, tmp_path):
    spec = scaling_spec(scale)
    cores = _available_cores()

    sequential = SweepRunner(spec, cache_dir=str(tmp_path / "seq")).run()
    parallel = SweepRunner(
        replace(spec, workers=POOL_WORKERS), cache_dir=str(tmp_path / "par")
    ).run()

    speedup = sequential.wall_seconds / parallel.wall_seconds
    print_table(
        f"Sweep pool scaling (2-ISA grid, {POOL_WORKERS} workers)",
        ["workers", "wall s", "violations", "disk hits"],
        [
            [1, f"{sequential.wall_seconds:.2f}",
             sequential.violations_found,
             sequential.trace_cache_disk_hits],
            [POOL_WORKERS, f"{parallel.wall_seconds:.2f}",
             parallel.violations_found,
             parallel.trace_cache_disk_hits],
        ],
    )
    print(f"speedup: {speedup:.2f}x on {cores} core(s)")

    emit_json(
        "sweep_parallel_scaling",
        {
            "cores": cores,
            "cells": [r.deterministic_report() for r in parallel.results],
            "workers": POOL_WORKERS,
            "wall_seconds_sequential": sequential.wall_seconds,
            "wall_seconds_parallel": parallel.wall_seconds,
            "speedup": speedup,
        },
    )

    # 1. equal reports: scheduling must not change what was found
    assert parallel.cell_reports_json() == sequential.cell_reports_json()
    # ... and the paper-shaped outcomes hold on the parallel run too
    for result in parallel.results:
        if result.cell.contract == "CT-SEQ":
            assert result.found, f"{result.cell.label}: expected a violation"
        else:
            assert not result.found, (
                f"{result.cell.label}: CT-COND should hold"
            )

    # 2. wall-clock scaling (needs real hardware parallelism; see
    # module docstring)
    if cores >= 4 or os.environ.get("REPRO_BENCH_STRICT_SPEEDUP") == "1":
        assert speedup >= 1.5, (
            f"{POOL_WORKERS} workers should give >=1.5x on {cores} "
            f"cores, "
            f"got {speedup:.2f}x"
        )
