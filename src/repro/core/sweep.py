"""Cross-ISA sweeps over ``arch x contract x cpu``, and the one process
scheduler every campaign and sweep runs on.

The paper's headline evaluation is a grid (Table 3): run the MRT loop
once per target CPU per contract and report which cells surface
violations, and how fast (Table 4). With the architecture-plugin layer
the same grid extends across ISAs, so fence/serialization findings are
reported *per architecture* instead of per hard-coded ISA ("Don't sit
on the fence"): the same sweep shows LFENCE-bounded speculation on
x86-64 next to DSB/ISB-bounded speculation on AArch64.

- :class:`SweepSpec` describes the grid: the three axes, a base
  :class:`FuzzerConfig` every cell inherits, and the per-cell campaign
  shape (workers/shards/mode). Each cell fuzzes with a deterministic
  seed derived by :func:`derive_cell_seed` — the cell-level mirror of
  :func:`repro.core.campaign.derive_shard_seed`. The derivation mixes
  the base seed with the ``(arch, contract)`` coordinates but
  **deliberately not the cpu**: cells along the cpu axis replay the
  identical program/input battery, which is both the fair comparison
  (same tests against every CPU) and what lets them share contract
  traces through the persistent cache.
- :func:`run_units` is the one process scheduler. Every cell is split
  into shard-sized *units* by the campaign engine's own
  :func:`~repro.core.campaign.shard_fuzzer_config` partition, and one
  pool of ``workers`` long-lived processes drains all cells' units, so
  a worker that finishes a cheap cell's units takes the pending units
  of an expensive one instead of idling. Which process runs a unit is
  pure scheduling: merging a cell's reports in shard order gives the
  same report for every pool size. A worker that dies mid-unit shows
  up as EOF on its own pipe; its unit is requeued onto a fresh process.
  In ``mode="first-violation"`` a violation cancels the rest of *its*
  cell only. A pool of one runs the units inline, in order.
  :class:`~repro.core.campaign.CampaignRunner` runs on the same pool as
  a one-cell grid.
- :class:`SweepRunner` runs a grid on that pool and merges the outcomes
  into a :class:`SweepReport`: the violation matrix, detection time to
  first violation per cell, and observed shard concurrency. When a
  ``cache_dir`` is set, every unit shares one on-disk
  :class:`~repro.core.trace_cache.PersistentTraceCache`, so cells with
  the same ``(arch, contract)`` pair emulate each trace once; a
  ``trace_cache_max_bytes`` bound on the base config arms the cache's
  size-bounded GC, which the runner also finalizes after the grid. A
  ``journal_dir`` checkpoints each completed unit atomically
  (:class:`~repro.core.journal.CampaignJournal`); ``resume=True``
  replays journaled units and dispatches only the missing ones.
- :class:`SweepReport` renders as JSON and as a markdown matrix (one
  ``contract x cpu`` table per architecture). The per-cell
  ``deterministic_report()`` dicts exclude wall-clock and cache
  counters, so for budget-bound sweeps they are byte-identical across
  runs, worker counts, and cache on/off — the sweep-level analogue of
  the campaign engine's merged-report invariance.

CLI::

    python -m repro sweep --arch x86_64,aarch64 \
        --contract CT-SEQ,CT-COND --cpu skylake,coffee-lake -n 100
"""

from __future__ import annotations

import hashlib
import json
import logging
import multiprocessing
import multiprocessing.connection
import signal
import sys
import time
import traceback
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro import faults
from repro.arch import architecture_names
from repro.contracts import contract_names
from repro.core.campaign import (
    CampaignCancelled,
    CampaignReport,
    derive_shard_seed,
    merge_reports,
    shard_budgets,
    shard_fuzzer_config,
)
from repro.core.config import FuzzerConfig
from repro.core.fuzzer import Fuzzer, FuzzingReport
from repro.core.journal import CampaignJournal, sweep_payload
from repro.core.patterns import PatternCoverage
from repro.core.trace_cache import PersistentTraceCache, program_fingerprint
from repro.uarch.config import preset_names

logger = logging.getLogger(__name__)

#: parent -> worker message: stop the in-flight unit at its next
#: measurement batch (first-violation cancellation)
_STOP = "stop"


@dataclass(frozen=True)
class SweepCell:
    """One grid coordinate: an (arch, contract, cpu) triple."""

    arch: str
    contract: str
    cpu: str

    @property
    def label(self) -> str:
        return f"{self.arch}/{self.contract}/{self.cpu}"


def derive_cell_seed(base_seed: int, cell: SweepCell) -> int:
    """Deterministic, well-separated seed for one sweep cell.

    Mirrors :func:`~repro.core.campaign.derive_shard_seed`: the cell's
    ``(arch, contract)`` coordinates are digested into a stable index
    and pushed through the same splitmix64 finalizer, so nearby base
    seeds or similar coordinates still yield uncorrelated streams. The
    cpu coordinate deliberately does not participate: cells along the
    cpu axis run the identical program/input battery (fair comparison,
    maximal trace-cache sharing); within a cell, shards then derive
    their seeds from this value as usual.
    """
    digest = hashlib.sha1(
        f"{cell.arch}|{cell.contract}".encode("utf-8")
    ).digest()
    coordinate = int.from_bytes(digest[:8], "big")
    return derive_shard_seed(base_seed, coordinate)


def _run_unit(config: FuzzerConfig, should_stop=None) -> FuzzingReport:
    """One unit: a single shard's fuzzing run.

    Module-level and looked up at call time, so fork-based tests and
    profilers can replace it before the workers fork. Full-mode units
    in a worker run as ``_run_unit(config)``; ``should_stop`` is passed
    only when something can stop the unit early.
    """
    return Fuzzer(config).run(should_stop=should_stop)


def _cancelled_report() -> FuzzingReport:
    """A unit skipped because its cell already found a violation."""
    return FuzzingReport(coverage=PatternCoverage(), cancelled=True)


def _unit_worker(conn) -> None:
    """Process entry point for one pool worker.

    Pulls ``(cell, shard, config, stoppable)`` units off its private
    duplex pipe until the ``None`` sentinel (or the parent hangs up),
    shipping ``(cell, shard, error, report)`` back for each. Workers are
    long-lived across many units: only the pickled config travels.

    The pipe is deliberately *not* a ``multiprocessing.Queue``: queue
    puts spool through a feeder thread holding a write lock shared by
    every worker, so a worker killed mid-unit could take that lock to
    its grave and wedge all its siblings. Here each result is sent
    synchronously from this thread over a pipe nobody else writes, so
    a death mid-unit holds no shared state at all — the parent just
    sees EOF on this worker's pipe. The same pipe carries the
    first-violation stop: a stoppable unit polls it between measurement
    batches.
    """
    # unwind instead of dying mid-cleanup when the pool is torn down
    try:
        signal.signal(signal.SIGTERM, lambda *_args: sys.exit(1))
    except (ValueError, OSError):  # pragma: no cover - exotic platform
        pass
    while True:
        try:
            task = conn.recv()
        except EOFError:  # parent died mid-dispatch
            return
        if task is None:
            return
        if task == _STOP:
            continue  # the stop raced the unit's own completion
        cell, shard, config, stoppable = task
        # the chaos suite's stand-in for an OOM kill mid-unit; only
        # ever in a worker, never in the parent of an inline run
        faults.maybe_exit("sweep.unit")
        try:
            if stoppable:
                report = _run_unit(config, conn.poll)
            else:
                report = _run_unit(config)
        except SystemExit:
            raise
        except BaseException:
            conn.send((cell, shard, traceback.format_exc(), None))
        else:
            conn.send((cell, shard, None, report))


@dataclass
class _Worker:
    """The parent's view of one pool worker."""

    process: multiprocessing.Process
    conn: multiprocessing.connection.Connection
    #: the ``(cell, shard)`` unit it is running, if any
    unit: Optional[Tuple[int, int]] = None


class _UnitScheduler:
    """Scheduling state of one :func:`run_units` call."""

    #: how many times one unit may be re-dispatched after its worker died
    MAX_UNIT_RETRIES = 2
    #: backoff for worker-process spawn failures (EAGAIN under fork
    #: pressure); deterministic jitter, so retry timing is reproducible
    SPAWN_RETRY = faults.RetryPolicy(
        attempts=3, base_delay=0.05, max_delay=1.0
    )
    #: how often the parent polls ``should_stop`` and worker liveness
    #: while no result arrives
    POLL_SECONDS = 0.2

    def __init__(self, cells, first_violation, journal, on_cell) -> None:
        self.labels = [label for label, _units in cells]
        self.units = [list(units) for _label, units in cells]
        self.reports: List[Dict[int, FuzzingReport]] = [{} for _ in cells]
        self.first_violation = first_violation
        self.journal = journal
        self.on_cell = on_cell
        #: cells whose violation cancelled their remaining units
        self.stopped = set()
        self.pending: deque = deque()
        self.live: Dict[object, _Worker] = {}
        self.finished: List[multiprocessing.Process] = []
        self.retries: Dict[Tuple[int, int], int] = {}
        methods = multiprocessing.get_all_start_methods()
        self.context = multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn"
        )

    def outstanding(self) -> int:
        return sum(
            len(units) - len(reports)
            for units, reports in zip(self.units, self.reports)
        )

    def accept(self, cell: int, shard: int, report: FuzzingReport,
               record: bool = True) -> bool:
        """Store one unit's report. Returns True when the report stops
        its cell (first-violation mode): its pending units become
        cancelled reports here, and the caller tells the cell's
        in-flight units to stop."""
        if shard in self.reports[cell]:
            return False  # a requeued unit's duplicate: identical bytes
        if record and self.journal is not None:
            self.journal.record(cell, shard, report)
        self.reports[cell][shard] = report
        stops = (
            self.first_violation and report.found
            and cell not in self.stopped
        )
        if stops:
            self.stopped.add(cell)
            for unit in [unit for unit in self.pending if unit[0] == cell]:
                self.pending.remove(unit)
                self.reports[cell][unit[1]] = _cancelled_report()
        if len(self.reports[cell]) == len(self.units[cell]):
            self.on_cell(cell, self.cell_reports(cell))
        return stops

    def cell_reports(self, cell: int) -> List[FuzzingReport]:
        return [
            self.reports[cell][shard]
            for shard in range(len(self.units[cell]))
        ]

    # -- a pool of one -------------------------------------------------

    def run_inline(self, should_stop) -> None:
        """Run every pending unit in this process, in order; the stop
        signal reaches each unit between its measurement batches."""
        while self.pending:
            if should_stop is not None and should_stop():
                raise CampaignCancelled(
                    f"stopped with {len(self.pending)} unit(s) pending"
                )
            cell, shard = self.pending.popleft()
            config = self.units[cell][shard]
            if should_stop is None:
                report = _run_unit(config)
            else:
                report = _run_unit(config, should_stop)
            if report.cancelled:
                raise CampaignCancelled(
                    f"stopped inside {self.labels[cell]} shard {shard}"
                )
            self.accept(cell, shard, report)

    # -- the process pool ----------------------------------------------

    def run_pooled(self, size: int, should_stop) -> None:
        """Dispatch units to long-lived workers, one at a time each, so
        the parent always knows which unit every worker holds; requeue
        a dead worker's unit onto a fresh process."""
        try:
            for _ in range(min(size, len(self.pending))):
                self.dispatch(self.spawn())
            while self.outstanding():
                if should_stop is not None and should_stop():
                    # the except-clause terminates workers; journaled
                    # unit checkpoints persist, so a resume finishes
                    # exactly the units this stop abandoned
                    raise CampaignCancelled(
                        f"stopped with {self.outstanding()} unit(s) "
                        "outstanding"
                    )
                ready = multiprocessing.connection.wait(
                    list(self.live), timeout=self.POLL_SECONDS
                )
                if not ready:
                    # a death is an EOF on the worker's own pipe, unless
                    # a sibling forked concurrently (another service
                    # job) inherited that pipe's write end
                    for worker in list(self.live.values()):
                        if not worker.process.is_alive():
                            self.reap(worker)
                    continue
                for conn in ready:
                    worker = self.live.get(conn)
                    if worker is None:
                        continue  # reaped or retired earlier in this batch
                    try:
                        cell, shard, error, report = conn.recv()
                    except (EOFError, OSError):
                        self.reap(worker)
                        continue
                    worker.unit = None
                    if error is not None:
                        raise RuntimeError(
                            f"{self.labels[cell]} shard {shard} failed "
                            f"in its worker:\n{error}"
                        )
                    if self.accept(cell, shard, report):
                        self.stop_cell(cell)
                    self.dispatch(worker)
        except BaseException:
            for worker in self.live.values():
                if worker.process.is_alive():
                    worker.process.terminate()
            raise
        finally:
            for worker in self.live.values():
                worker.conn.close()
                worker.process.join()
            for process in self.finished:
                process.join()

    def spawn(self) -> _Worker:
        parent_conn, child_conn = self.context.Pipe(duplex=True)
        process = self.context.Process(
            target=_unit_worker, args=(child_conn,)
        )

        def start() -> None:
            faults.inject_oserror("sweep.spawn")
            process.start()

        # fork can fail transiently (EAGAIN under process pressure);
        # retry with deterministic backoff before failing the run
        self.SPAWN_RETRY.call(start)
        # close the parent's copy so the worker's death is the only
        # thing that can EOF this pipe
        child_conn.close()
        worker = _Worker(process, parent_conn)
        self.live[parent_conn] = worker
        return worker

    def dispatch(self, worker: _Worker) -> None:
        if not self.pending:
            self.retire(worker)
            return
        cell, shard = worker.unit = self.pending.popleft()
        config = self.units[cell][shard]
        try:
            worker.conn.send((cell, shard, config, self.first_violation))
        except OSError:
            self.reap(worker)  # died between its last result and this

    def retire(self, worker: _Worker) -> None:
        # no work left: stop the worker (a later death-requeue spawns a
        # fresh replacement, so nothing is stranded)
        del self.live[worker.conn]
        try:
            worker.conn.send(None)
        except OSError:
            pass  # already dead with no unit: nothing lost
        worker.conn.close()
        self.finished.append(worker.process)

    def reap(self, worker: _Worker) -> None:
        """A worker died: requeue its unit onto a fresh process, up to
        :attr:`MAX_UNIT_RETRIES` times per unit."""
        del self.live[worker.conn]
        worker.process.join()
        worker.conn.close()
        self.finished.append(worker.process)
        if worker.unit is None:
            return
        cell, shard = worker.unit
        if cell in self.stopped:
            # its cell already has its violation: skip, don't re-run
            self.accept(cell, shard, _cancelled_report())
            return
        retry = self.retries.get(worker.unit, 0) + 1
        self.retries[worker.unit] = retry
        code = worker.process.exitcode
        if retry > self.MAX_UNIT_RETRIES:
            raise RuntimeError(
                f"{self.labels[cell]} shard {shard} worker died "
                f"{retry} times (last exit code {code}); giving up"
            )
        logger.warning(
            "%s shard %d: worker died with exit code %s; requeued "
            "(retry %d of %d)",
            self.labels[cell], shard, code, retry, self.MAX_UNIT_RETRIES,
        )
        self.pending.appendleft(worker.unit)
        self.dispatch(self.spawn())

    def stop_cell(self, cell: int) -> None:
        """Tell the workers running the cell's units to stop them."""
        for worker in list(self.live.values()):
            if worker.unit is not None and worker.unit[0] == cell:
                try:
                    worker.conn.send(_STOP)
                except OSError:
                    pass  # dead: reap() cancels its unit


def run_units(
    cells: Sequence[Tuple[str, Sequence[FuzzerConfig]]],
    workers: int,
    first_violation: bool = False,
    journal: Optional[CampaignJournal] = None,
    resume: bool = False,
    on_cell: Optional[Callable[[int, List[FuzzingReport]], None]] = None,
    should_stop: Optional[Callable[[], bool]] = None,
) -> List[List[FuzzingReport]]:
    """Run every cell's units on one pool of ``workers`` processes.

    ``cells`` lists ``(label, unit configs)`` pairs; the result holds
    each cell's unit reports in unit order. With an opened ``journal``
    every completed unit is checkpointed, and ``resume`` replays its
    records instead of re-running them. ``on_cell(index, reports)``
    fires as each cell completes. In ``first_violation`` mode a unit
    that finds a violation cancels its own cell's remaining units:
    pending ones become empty ``cancelled`` reports and in-flight ones
    stop at their next measurement batch. ``should_stop`` is polled
    while units run; when it fires the run raises
    :class:`~repro.core.campaign.CampaignCancelled`.
    """
    scheduler = _UnitScheduler(
        cells, first_violation, journal,
        on_cell or (lambda _cell, _reports: None),
    )
    units = scheduler.units
    if journal is not None and resume:
        for (cell, shard), report in journal.completed().items():
            if 0 <= cell < len(units) and 0 <= shard < len(units[cell]):
                scheduler.accept(cell, shard, report, record=False)
    scheduler.pending.extend(
        (cell, shard)
        for cell in range(len(units))
        for shard in range(len(units[cell]))
        if shard not in scheduler.reports[cell]
    )
    if min(workers, len(scheduler.pending)) == 1:
        scheduler.run_inline(should_stop)
    elif scheduler.pending:
        scheduler.run_pooled(workers, should_stop)
    return [scheduler.cell_reports(cell) for cell in range(len(units))]


@dataclass
class SweepSpec:
    """A cartesian campaign grid over ``arch x contract x cpu``.

    Every cell inherits ``base_config`` with its arch/contract/cpu and
    seed replaced. The per-cell test-case budget is
    ``base_config.num_test_cases`` unless ``total_budget`` is set, in
    which case the total is split over the cells with
    :func:`~repro.core.campaign.shard_budgets` (the same near-equal
    slicing the campaign engine uses for shards); ``budget_overrides``
    pins individual cells (keyed by ``(arch, contract, cpu)``) for
    heterogeneous grids like Table 3.
    """

    arches: Tuple[str, ...] = ("x86_64",)
    contracts: Tuple[str, ...] = ("CT-SEQ",)
    cpus: Tuple[str, ...] = ("skylake",)
    base_config: FuzzerConfig = field(default_factory=FuzzerConfig)
    #: pool size, shards per cell (default: one per worker) and mode
    workers: int = 1
    shards: Optional[int] = None
    mode: str = "full"
    #: optional grid-wide budget, split over cells like shard_budgets
    total_budget: Optional[int] = None
    #: optional per-cell budget pins, keyed by (arch, contract, cpu)
    budget_overrides: Mapping[Tuple[str, str, str], int] = field(
        default_factory=dict
    )

    def __post_init__(self) -> None:
        for axis, values, known in (
            ("arch", self.arches, architecture_names()),
            ("contract", self.contracts, contract_names()),
            ("cpu", self.cpus, preset_names()),
        ):
            if not values:
                raise ValueError(f"sweep {axis} axis must not be empty")
            if len(set(values)) != len(values):
                raise ValueError(
                    f"duplicate {axis} values in {values!r}: a repeated "
                    "cell would rerun the identical campaign"
                )
            for value in values:
                if value not in known:
                    raise ValueError(
                        f"unknown {axis} {value!r}; "
                        f"available: {', '.join(known)}"
                    )
        valid_keys = {
            (cell.arch, cell.contract, cell.cpu) for cell in self.cells()
        }
        for key in self.budget_overrides:
            if key not in valid_keys:
                raise ValueError(
                    f"budget override {key!r} matches no grid cell"
                )

    def cells(self) -> List[SweepCell]:
        """Grid cells in deterministic arch-major order."""
        return [
            SweepCell(arch, contract, cpu)
            for arch in self.arches
            for contract in self.contracts
            for cpu in self.cpus
        ]

    def cell_budget(self, cell: SweepCell, index: int, count: int) -> int:
        override = self.budget_overrides.get(
            (cell.arch, cell.contract, cell.cpu)
        )
        if override is not None:
            return override
        if self.total_budget is not None:
            return shard_budgets(self.total_budget, count)[index]
        return self.base_config.num_test_cases

    def cell_config(self, cell: SweepCell, index: int = 0,
                    count: int = 1) -> FuzzerConfig:
        """The :class:`FuzzerConfig` one cell's campaign runs with."""
        return replace(
            self.base_config,
            arch=cell.arch,
            contract_name=cell.contract,
            cpu_preset=cell.cpu,
            cpu_config=None,
            seed=derive_cell_seed(self.base_config.seed, cell),
            num_test_cases=self.cell_budget(cell, index, count),
        )


@dataclass
class SweepCellResult:
    """Outcome of one cell's campaign."""

    cell: SweepCell
    seed: int
    campaign: CampaignReport

    @property
    def found(self) -> bool:
        return self.campaign.found

    @property
    def classification(self) -> Optional[str]:
        violation = self.campaign.violation
        return violation.classification if violation else None

    @property
    def time_to_first_violation(self) -> Optional[float]:
        """Wall-clock seconds inside the winning shard until detection
        (the Table 4 metric), or ``None`` without a violation."""
        violation = self.campaign.violation
        return violation.seconds_until_found if violation else None

    def matrix_entry(self) -> str:
        """The human-readable violation-matrix cell."""
        if not self.found:
            return "-"
        violation = self.campaign.violation
        return (
            f"{self.classification} "
            f"({violation.test_cases_until_found} cases, "
            f"{violation.seconds_until_found:.1f}s)"
        )

    def deterministic_report(self) -> Dict[str, object]:
        """The cell outcome minus anything scheduling-dependent.

        Wall-clock times, observed concurrency and cache counters are
        excluded, so for budget-bound full-mode sweeps this dict is
        identical across runs, worker counts, and cache on/off.
        """
        merged = self.campaign.merged
        violation = merged.violation
        report: Dict[str, object] = {
            "arch": self.cell.arch,
            "contract": self.cell.contract,
            "cpu": self.cell.cpu,
            "seed": self.seed,
            "shards": self.campaign.shards,
            "mode": self.campaign.mode,
            "test_cases": merged.test_cases,
            "inputs_tested": merged.inputs_tested,
            "prescreened_inert": merged.prescreened_inert,
            "patterns_covered": (
                len(merged.coverage.covered) if merged.coverage else 0
            ),
            "found": self.found,
            "winning_shard": self.campaign.winning_shard,
            "violation": None,
        }
        if violation is not None:
            report["violation"] = {
                "classification": violation.classification,
                "program_fingerprint": program_fingerprint(
                    violation.program, self.cell.arch
                ),
                "positions": [violation.position_a, violation.position_b],
                "test_cases_until_found": violation.test_cases_until_found,
                "inputs_until_found": violation.inputs_until_found,
            }
        return report

    def timing_report(self) -> Dict[str, object]:
        """The scheduling-dependent counters, reported separately."""
        merged = self.campaign.merged
        return {
            "wall_seconds": self.campaign.wall_seconds,
            "aggregate_seconds": merged.duration_seconds,
            "observed_concurrency": self.campaign.observed_concurrency,
            "seconds_until_found": self.time_to_first_violation,
            "contract_emulations": merged.contract_emulations,
            "trace_cache_hits": merged.trace_cache_hits,
            "trace_cache_disk_hits": merged.trace_cache_disk_hits,
            "trace_cache_gc_evictions": merged.trace_cache_gc_evictions,
            "trace_cache_gc_bytes": merged.trace_cache_gc_bytes,
            "trace_cache_disk_write_errors": (
                merged.trace_cache_disk_write_errors
            ),
            "cancelled_shards": self.campaign.cancelled_shards,
        }


@dataclass
class SweepReport:
    """Merged outcome of one grid sweep."""

    spec: SweepSpec
    results: List[SweepCellResult]
    wall_seconds: float
    cache_dir: Optional[str] = None
    #: disk entries / bytes the trace-cache GC evicted across the sweep
    #: (cells' own passes plus the runner's finalizing pass)
    trace_cache_gc_evictions: int = 0
    trace_cache_gc_bytes: int = 0
    #: disk footprint of the shared cache after the finalizing GC pass
    #: (``None`` without a cache directory)
    trace_cache_disk_bytes: Optional[int] = None

    @property
    def violations_found(self) -> int:
        return sum(1 for result in self.results if result.found)

    @property
    def trace_cache_disk_hits(self) -> int:
        """Traces reused from the shared on-disk cache across the sweep
        (nonzero when sibling shards, neighboring cells or an earlier
        run already emulated them)."""
        return sum(
            result.campaign.merged.trace_cache_disk_hits
            for result in self.results
        )

    @property
    def trace_cache_disk_write_errors(self) -> int:
        """Disk-cache publications that failed with an ``OSError`` and
        degraded to no-persist across the sweep (ENOSPC, read-only
        cache, ...). Nonzero means the run was correct but slower than
        a healthy-disk run — the misses were re-emulated."""
        return sum(
            result.campaign.merged.trace_cache_disk_write_errors
            for result in self.results
        )

    def cell_result(self, cell: SweepCell) -> SweepCellResult:
        for result in self.results:
            if result.cell == cell:
                return result
        raise KeyError(cell.label)

    # -- rendering ---------------------------------------------------------

    def to_markdown(self) -> str:
        """The violation matrix: one ``contract x cpu`` table per arch."""
        lines: List[str] = ["# Sweep violation matrix", ""]
        for arch in self.spec.arches:
            lines.append(f"## {arch}")
            lines.append("")
            header = ["contract \\ cpu"] + list(self.spec.cpus)
            lines.append("| " + " | ".join(header) + " |")
            lines.append("|" + "---|" * len(header))
            for contract in self.spec.contracts:
                row = [contract]
                for cpu in self.spec.cpus:
                    result = self.cell_result(
                        SweepCell(arch, contract, cpu)
                    )
                    row.append(result.matrix_entry())
                lines.append("| " + " | ".join(row) + " |")
            lines.append("")
        lines.append(
            f"{self.violations_found}/{len(self.results)} cells violated "
            f"in {self.wall_seconds:.1f}s"
            + (
                f" ({self.trace_cache_disk_hits} traces reused from "
                f"{self.cache_dir})"
                if self.cache_dir
                else ""
            )
        )
        return "\n".join(lines)

    def to_json(self) -> Dict[str, object]:
        """Full JSON report: deterministic cell reports under ``cells``,
        scheduling-dependent counters under ``timing``."""
        return {
            "grid": {
                "arches": list(self.spec.arches),
                "contracts": list(self.spec.contracts),
                "cpus": list(self.spec.cpus),
                "mode": self.spec.mode,
                "workers": self.spec.workers,
                "base_seed": self.spec.base_config.seed,
            },
            "cells": [
                result.deterministic_report() for result in self.results
            ],
            "timing": {
                result.cell.label: result.timing_report()
                for result in self.results
            },
            "trace_cache": {
                "disk_hits": self.trace_cache_disk_hits,
                "gc_evictions": self.trace_cache_gc_evictions,
                "gc_bytes": self.trace_cache_gc_bytes,
                "disk_bytes": self.trace_cache_disk_bytes,
                "disk_write_errors": self.trace_cache_disk_write_errors,
                "max_bytes": self.spec.base_config.trace_cache_max_bytes,
            },
            "wall_seconds": self.wall_seconds,
            "trace_cache_disk_hits": self.trace_cache_disk_hits,
        }

    def cell_reports_json(self) -> str:
        """Canonical JSON of the deterministic per-cell reports — the
        byte-comparable artifact for reproducibility checks."""
        return json.dumps(
            [result.deterministic_report() for result in self.results],
            indent=2,
            sort_keys=True,
        ) + "\n"

    def report_digest(self) -> str:
        """sha1 over :meth:`cell_reports_json` — the sweep-level analogue
        of :meth:`CampaignReport.report_digest`, equal across worker
        counts and kill-and-resume."""
        return hashlib.sha1(
            self.cell_reports_json().encode("utf-8")
        ).hexdigest()

    def summary(self) -> str:
        cache = (
            f", {self.trace_cache_disk_hits} traces reused from disk"
            if self.cache_dir
            else ""
        )
        return (
            f"{self.violations_found}/{len(self.results)} cells violated "
            f"across {len(self.spec.arches)} arch(es) in "
            f"{self.wall_seconds:.1f}s{cache}"
        )


class SweepRunner:
    """Executes a :class:`SweepSpec` on one pool of ``spec.workers``
    processes (:func:`run_units`).

    Cells are split into ``spec.shards`` units each (default: one per
    worker), and cell seeds come from the grid coordinates alone, so
    the pool size changes wall clock only: deterministic cell reports
    are byte-identical for every ``workers`` value at a fixed shard
    count. ``cache_dir`` points every unit at one shared persistent
    trace cache; ``base_config.trace_cache_max_bytes`` bounds that
    cache's disk footprint, with a finalizing GC pass after the grid.
    ``schedule`` is accepted for existing callers; the unit pool
    (``"work-stealing"``) is the only scheduler.
    """

    def __init__(
        self,
        spec: SweepSpec,
        cache_dir: Optional[str] = None,
        schedule: str = "work-stealing",
        journal_dir: Optional[str] = None,
        resume: bool = False,
    ):
        if spec.workers < 1:
            raise ValueError("workers must be >= 1")
        if spec.shards is not None and spec.shards < 1:
            raise ValueError("shards must be >= 1")
        if schedule != "work-stealing":
            raise ValueError(
                f"unknown schedule {schedule!r}; the unit pool "
                "('work-stealing') is the only scheduler"
            )
        if resume and journal_dir is None:
            raise ValueError("resume requires a journal directory")
        if journal_dir is not None and spec.mode != "full":
            raise ValueError(
                "journaling requires mode='full': first-violation unit "
                "reports depend on cancel timing, so checkpoints would "
                "not be replayable"
            )
        self.spec = spec
        self.journal_dir = journal_dir
        self.resume = resume
        self.cache_dir = (
            cache_dir
            if cache_dir is not None
            else spec.base_config.trace_cache_dir
        )

    def cell_configs(self) -> List[Tuple[SweepCell, FuzzerConfig]]:
        cells = self.spec.cells()
        configs = []
        for index, cell in enumerate(cells):
            config = self.spec.cell_config(cell, index, len(cells))
            if self.cache_dir is not None:
                config = replace(config, trace_cache_dir=self.cache_dir)
            configs.append((cell, config))
        return configs

    def run(self, progress=None, should_stop=None) -> SweepReport:
        """Run the grid; ``progress`` is an optional callable invoked
        with (cell, campaign_report) as each cell completes, in
        completion order. ``should_stop`` is an optional zero-argument
        callable polled while units run (the service's cancel/deadline
        signal); when it fires the sweep raises
        :class:`~repro.core.campaign.CampaignCancelled` — journaled unit
        checkpoints survive, so a cancelled journaled sweep resumes
        like a killed one."""
        start = time.perf_counter()
        cache: Optional[PersistentTraceCache] = None
        max_bytes = self.spec.base_config.trace_cache_max_bytes
        if self.cache_dir is not None:
            # create eagerly so an empty grid still leaves a valid dir
            cache = PersistentTraceCache(
                self.cache_dir,
                max_bytes=max_bytes,
                compress=self.spec.base_config.trace_cache_compress,
            )
        pairs = self.cell_configs()
        shards = (
            self.spec.shards
            if self.spec.shards is not None
            else self.spec.workers
        )
        journal: Optional[CampaignJournal] = None
        if self.journal_dir is not None:
            journal = CampaignJournal(self.journal_dir)
            journal.open(sweep_payload(self.spec, shards), resume=self.resume)
        results: List[Optional[SweepCellResult]] = [None] * len(pairs)

        def finish_cell(index: int, reports: List[FuzzingReport]) -> None:
            cell, config = pairs[index]
            merged, winner = merge_reports(reports)
            campaign = CampaignReport(
                merged=merged,
                shard_reports=reports,
                winning_shard=winner,
                workers=self.spec.workers,
                wall_seconds=time.perf_counter() - start,
                mode=self.spec.mode,
            )
            results[index] = SweepCellResult(cell, config.seed, campaign)
            if progress is not None:
                progress(cell, campaign)

        run_units(
            [
                (
                    f"sweep cell {cell.label}",
                    [
                        shard_fuzzer_config(config, index, shards)
                        for index in range(shards)
                    ],
                )
                for cell, config in pairs
            ],
            self.spec.workers,
            first_violation=self.spec.mode == "first-violation",
            journal=journal,
            resume=self.resume,
            on_cell=finish_cell,
            should_stop=should_stop,
        )
        gc_evictions = sum(
            result.campaign.merged.trace_cache_gc_evictions
            for result in results
        )
        gc_bytes = sum(
            result.campaign.merged.trace_cache_gc_bytes for result in results
        )
        disk_bytes: Optional[int] = None
        if cache is not None:
            if max_bytes is not None:
                # finalizing pass: concurrent writers enforce the bound
                # cooperatively, so trim whatever the last writers left;
                # its scan doubles as the footprint measurement
                evicted, freed = cache.gc()
                gc_evictions += evicted
                gc_bytes += freed
                disk_bytes = cache.known_disk_bytes()
            else:
                disk_bytes = cache.disk_usage_bytes()
        return SweepReport(
            spec=self.spec,
            results=results,
            wall_seconds=time.perf_counter() - start,
            cache_dir=self.cache_dir,
            trace_cache_gc_evictions=gc_evictions,
            trace_cache_gc_bytes=gc_bytes,
            trace_cache_disk_bytes=disk_bytes,
        )


def run_sweep(
    spec: SweepSpec,
    cache_dir: Optional[str] = None,
    progress=None,
    journal_dir: Optional[str] = None,
    resume: bool = False,
    should_stop=None,
) -> SweepReport:
    """Convenience one-call grid sweep."""
    return SweepRunner(
        spec,
        cache_dir=cache_dir,
        journal_dir=journal_dir,
        resume=resume,
    ).run(progress=progress, should_stop=should_stop)


__all__ = [
    "SweepCell",
    "SweepCellResult",
    "SweepReport",
    "SweepRunner",
    "SweepSpec",
    "derive_cell_seed",
    "run_sweep",
    "run_units",
]
