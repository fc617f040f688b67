"""Parallel fuzzing campaigns: sharding the MRT loop across processes.

The testing loop is embarrassingly parallel across test cases — each
round generates, measures and analyzes one program independently — yet
:meth:`Fuzzer.run` is strictly sequential. :class:`CampaignRunner`
splits a campaign's test-case budget into *shards* and fans the shards
out over a pool of worker processes:

- **Deterministic sharding.** Shard ``i`` of a campaign with base seed
  ``s`` always fuzzes with ``derive_shard_seed(s, i)`` and a fixed slice
  of the budget (:func:`shard_budgets`), so for budget-bound campaigns
  (``timeout_seconds=None``, the default) the merged outcome depends
  only on the shard count — never on the worker count, scheduling, or
  whether the shards ran in-process or in a pool. ``workers=1`` runs the
  same shards inline and is the baseline of
  ``benchmarks/bench_campaign_scaling.py``.
- **Report merging.** Per-shard :class:`FuzzingReport`s are merged by
  :func:`merge_reports`: pattern coverage is unioned, counters are
  summed, effectiveness is test-case-weighted, and when several shards
  find violations the winner is first-violation-wins — the violation
  found after the fewest test cases — with a stable tie-break on
  (inputs until found, shard index).

Shards run as units on the one process scheduler,
:func:`repro.core.sweep.run_units`: a campaign is a one-cell grid on a
pool of ``workers`` long-lived processes (a pool of one runs the shards
inline). Every shard builds its own :class:`Fuzzer`, so no state is
shared and no locks are needed; shard results travel back as pickled
reports, and a worker that dies mid-shard has its shard requeued onto a
fresh process.

- **Early cancel.** ``mode="first-violation"`` stops the campaign at the
  first confirmed violation instead of draining the full budget: once a
  shard reports a violation, shards not yet started are skipped and
  running ones are told to stop at their next measurement batch (at
  most one diversity round of test cases apart; every test case in a
  timed or noisy campaign). Shards that completed before the
  signal produce exactly the reports they would in ``mode="full"``;
  cancelled shards return partial reports flagged ``cancelled``. How
  far an interrupted shard got depends on scheduling, so
  first-violation campaigns trade the full mode's merged-report
  invariance for wall-clock savings. With one worker the shards run in
  index order and every shard after the first violating one is skipped.

- **Checkpoint/resume.** With a ``journal_dir``, every completed shard
  report is published atomically to a :class:`~repro.core.journal.
  CampaignJournal`; ``resume=True`` replays the journaled shards and
  dispatches only the missing ones, so a campaign killed mid-run
  finishes with the exact merged report (and
  :meth:`CampaignReport.report_digest`) of an uninterrupted run.
  Journaling requires ``mode="full"`` — first-violation shard reports
  depend on cancel timing and are not replayable.

A wall-clock budget (``timeout_seconds``) bounds each *shard*
individually, so the campaign's wall time can reach ``timeout x
ceil(shards / workers)`` when workers are scarce — and because a
timed-out shard stops wherever the clock caught it, timed campaigns
trade the worker-count invariance above for the time bound: a run on
fewer cores breaks off at different test-case counts than one on many.
Budget-bound campaigns (``-n`` only) keep the full guarantee.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.config import FuzzerConfig
from repro.core.fuzzer import FuzzingReport
from repro.core.journal import CampaignJournal, campaign_payload
from repro.core.patterns import PatternCoverage
from repro.core.trace_cache import program_fingerprint
from repro.core.violation import Violation

_MASK64 = (1 << 64) - 1


class CampaignCancelled(RuntimeError):
    """A cooperative stop signal (job cancel, deadline expiry) fired
    before the campaign drained its budget.

    Raised by the campaign and sweep runners when the ``should_stop``
    callable threaded through :mod:`repro.api` returns True mid-run.
    Shards that completed before the signal keep their journal
    checkpoints, so a journaled campaign cancelled this way resumes
    exactly like one killed by the OS.
    """


def derive_shard_seed(base_seed: int, shard_index: int) -> int:
    """Deterministic, well-separated seed for one shard.

    A splitmix64 finalizer over ``(base_seed, shard_index)``: nearby base
    seeds or shard indices still yield uncorrelated PRNG streams, and the
    mapping is stable across runs, platforms and worker counts.
    """
    if shard_index < 0:
        raise ValueError("shard_index must be non-negative")
    x = (base_seed * 0x9E3779B97F4A7C15 + (shard_index + 1)) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return x & 0x7FFFFFFF


def shard_budgets(total: int, shards: int) -> List[int]:
    """Split ``total`` test cases into ``shards`` near-equal slices."""
    if shards <= 0:
        raise ValueError("shards must be positive")
    base, extra = divmod(max(0, total), shards)
    return [base + (1 if index < extra else 0) for index in range(shards)]


def shard_fuzzer_config(
    config: FuzzerConfig, shard_index: int, shards: int
) -> FuzzerConfig:
    """The :class:`FuzzerConfig` one shard runs with."""
    budgets = shard_budgets(config.num_test_cases, shards)
    return replace(
        config,
        seed=derive_shard_seed(config.seed, shard_index),
        num_test_cases=budgets[shard_index],
    )


def merge_reports(
    reports: Sequence[FuzzingReport],
) -> Tuple[FuzzingReport, Optional[int]]:
    """Merge per-shard reports into one campaign-level report.

    Returns the merged report and the index of the winning shard (the
    one whose violation is kept), or ``None`` when no shard found one.
    Deterministic: coverage union, counter sums, and first-violation-wins
    with a stable tie-break on (test cases until found, inputs until
    found, shard index).
    """
    if not reports:
        raise ValueError("no shard reports to merge")
    merged = FuzzingReport(coverage=PatternCoverage())
    effectiveness_weighted = 0.0
    for report in reports:
        merged.test_cases += report.test_cases
        merged.inputs_tested += report.inputs_tested
        merged.duration_seconds += report.duration_seconds
        merged.rounds += report.rounds
        merged.reconfigurations += report.reconfigurations
        merged.discarded_by_priming += report.discarded_by_priming
        merged.discarded_by_nesting += report.discarded_by_nesting
        merged.unconfirmed_candidates += report.unconfirmed_candidates
        merged.prescreened_inert += report.prescreened_inert
        merged.prescreen_safety_checked += report.prescreen_safety_checked
        merged.contract_emulations += report.contract_emulations
        merged.trace_cache_hits += report.trace_cache_hits
        merged.trace_cache_disk_hits += report.trace_cache_disk_hits
        merged.trace_cache_gc_evictions += report.trace_cache_gc_evictions
        merged.trace_cache_gc_bytes += report.trace_cache_gc_bytes
        merged.trace_cache_disk_write_errors += (
            report.trace_cache_disk_write_errors
        )
        effectiveness_weighted += report.mean_effectiveness * report.test_cases
        if report.coverage is not None:
            merged.coverage.covered |= report.coverage.covered
    if merged.test_cases:
        merged.mean_effectiveness = effectiveness_weighted / merged.test_cases

    winner: Optional[int] = None
    best_key: Optional[Tuple[int, int, int]] = None
    for index, report in enumerate(reports):
        if report.violation is None:
            continue
        key = (
            report.violation.test_cases_until_found,
            report.violation.inputs_until_found,
            index,
        )
        if best_key is None or key < best_key:
            best_key = key
            winner = index
    if winner is not None:
        merged.violation = reports[winner].violation
    return merged, winner


@dataclass
class CampaignReport:
    """Outcome of one parallel campaign."""

    merged: FuzzingReport
    shard_reports: List[FuzzingReport]
    winning_shard: Optional[int]
    workers: int
    wall_seconds: float
    #: campaign mode the runner used ("full" | "first-violation")
    mode: str = "full"

    @property
    def found(self) -> bool:
        return self.merged.found

    @property
    def cancelled_shards(self) -> int:
        """Shards stopped early by the first-violation cancel signal."""
        return sum(1 for report in self.shard_reports if report.cancelled)

    @property
    def violation(self) -> Optional[Violation]:
        return self.merged.violation

    @property
    def shards(self) -> int:
        return len(self.shard_reports)

    @property
    def observed_concurrency(self) -> float:
        """Mean number of shards in flight: aggregate shard wall time
        over campaign wall time. Note this measures *concurrency*, not
        speedup — per-shard durations are wall clock inside each worker
        process, so on an oversubscribed machine (workers > cores)
        time-sliced shards inflate the aggregate and this can approach
        ``workers`` even when the campaign runs no faster than
        ``workers=1``. Compare wall times across worker counts for real
        scaling (see ``benchmarks/bench_campaign_scaling.py``)."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.merged.duration_seconds / self.wall_seconds

    def deterministic_report(self) -> Dict[str, Any]:
        """The campaign outcome minus anything scheduling-dependent.

        Wall-clock times, worker counts and cache counters are excluded,
        so for budget-bound full-mode campaigns this dict — and therefore
        :meth:`report_digest` — is identical across runs, worker counts,
        and whether the campaign ran straight through or was killed and
        resumed from its journal.
        """
        merged = self.merged
        violation = merged.violation
        report: Dict[str, Any] = {
            "shards": self.shards,
            "mode": self.mode,
            "test_cases": merged.test_cases,
            "inputs_tested": merged.inputs_tested,
            "prescreened_inert": merged.prescreened_inert,
            "patterns_covered": (
                len(merged.coverage.covered) if merged.coverage else 0
            ),
            "found": self.found,
            "winning_shard": self.winning_shard,
            "violation": None,
        }
        if violation is not None:
            report["violation"] = {
                "classification": violation.classification,
                "program_fingerprint": program_fingerprint(
                    violation.program, violation.arch_name
                ),
                "positions": [violation.position_a, violation.position_b],
                "test_cases_until_found": violation.test_cases_until_found,
                "inputs_until_found": violation.inputs_until_found,
            }
        return report

    def report_digest(self) -> str:
        """sha1 over the canonical deterministic report — the equality
        token the kill-and-resume gate compares."""
        canonical = json.dumps(
            self.deterministic_report(), sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha1(canonical.encode("utf-8")).hexdigest()

    def summary(self) -> str:
        found = (
            f"VIOLATION in shard {self.winning_shard} "
            f"({self.merged.violation.classification})"
            if self.merged.violation
            else "no violation"
        )
        cancelled = (
            f", {self.cancelled_shards} shard(s) cancelled early"
            if self.cancelled_shards
            else ""
        )
        return (
            f"{found} after {self.merged.test_cases} test cases / "
            f"{self.merged.inputs_tested} inputs across {self.shards} "
            f"shard(s) on {self.workers} worker(s) in "
            f"{self.wall_seconds:.2f}s wall "
            f"({self.merged.duration_seconds:.2f}s aggregate, "
            f"effectiveness {self.merged.mean_effectiveness:.2f}{cancelled})"
        )


class CampaignRunner:
    """Fans one fuzzing budget out over deterministic shards.

    ``workers`` bounds process-level parallelism; ``shards`` (default:
    ``workers``) fixes the seed/budget partition. Keep ``shards`` fixed
    while varying ``workers`` to scale the same campaign across machines
    with different core counts and still get the identical merged report.
    """

    MODES = ("full", "first-violation")

    def __init__(
        self,
        config: FuzzerConfig,
        workers: int = 4,
        shards: Optional[int] = None,
        mode: str = "full",
        journal_dir: Optional[str] = None,
        resume: bool = False,
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.config = config
        self.workers = workers
        self.shards = shards if shards is not None else workers
        if self.shards < 1:
            raise ValueError("shards must be >= 1")
        if mode not in self.MODES:
            raise ValueError(
                f"unknown campaign mode {mode!r}; expected one of {self.MODES}"
            )
        self.mode = mode
        if resume and journal_dir is None:
            raise ValueError("resume requires a journal directory")
        if journal_dir is not None and mode != "full":
            raise ValueError(
                "journaling requires mode='full': first-violation shard "
                "reports depend on cancel timing, so checkpoints would not "
                "be replayable"
            )
        self.journal_dir = journal_dir
        self.resume = resume

    def run(self, should_stop=None) -> CampaignReport:
        """Run the campaign; ``should_stop`` is an optional zero-argument
        callable polled while shards run (the service's cancel/deadline
        signal). When it fires mid-run the campaign raises
        :class:`CampaignCancelled` — already-journaled checkpoints
        survive, so a cancelled journaled campaign resumes like a killed
        one."""
        # the sweep module builds on this one, so import at call time
        from repro.core.sweep import run_units

        start = time.perf_counter()
        journal: Optional[CampaignJournal] = None
        if self.journal_dir is not None:
            journal = CampaignJournal(self.journal_dir)
            journal.open(
                campaign_payload(self.config, self.shards, self.mode),
                resume=self.resume,
            )
        config = self.config
        label = (
            f"campaign {config.arch}/{config.contract_name}/"
            f"{config.cpu_preset}"
        )
        units = [
            shard_fuzzer_config(config, index, self.shards)
            for index in range(self.shards)
        ]
        [shard_reports] = run_units(
            [(label, units)],
            self.workers,
            first_violation=self.mode == "first-violation",
            journal=journal,
            resume=self.resume,
            should_stop=should_stop,
        )
        merged, winner = merge_reports(shard_reports)
        return CampaignReport(
            merged=merged,
            shard_reports=shard_reports,
            winning_shard=winner,
            workers=self.workers,
            wall_seconds=time.perf_counter() - start,
            mode=self.mode,
        )


def run_campaign(
    config: FuzzerConfig,
    workers: int = 4,
    shards: Optional[int] = None,
    mode: str = "full",
    journal_dir: Optional[str] = None,
    resume: bool = False,
    should_stop=None,
) -> CampaignReport:
    """Convenience one-call parallel campaign."""
    return CampaignRunner(
        config, workers=workers, shards=shards, mode=mode,
        journal_dir=journal_dir, resume=resume,
    ).run(should_stop=should_stop)


__all__ = [
    "CampaignCancelled",
    "CampaignReport",
    "CampaignRunner",
    "derive_shard_seed",
    "merge_reports",
    "run_campaign",
    "shard_budgets",
    "shard_fuzzer_config",
]
