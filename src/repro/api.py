"""Stable programmatic facade over the fuzzing engines.

``repro.api`` is the one surface the CLI handlers, the campaign
service (:mod:`repro.service`) and external embedders share:

- :class:`EngineOptions` — a flat, JSON-friendly options bag covering
  the target (arch/contract/cpu), the budget knobs and the
  cache/corpus plumbing.
  ``to_fuzzer_config()`` is the single place an options bag becomes a
  :class:`~repro.core.config.FuzzerConfig`; ``from_args`` adapts a
  parsed argparse namespace (see :func:`repro.cli.add_engine_options`)
  and ``to_dict``/``from_dict`` round-trip through JSON for the
  service wire protocol.
- ``run_fuzz`` / ``run_campaign`` / ``run_sweep`` / ``run_minimize`` /
  ``run_replay`` — one call per subcommand, returning the engine's
  report objects (extending the earlier ``run_minimize`` precedent).

Validation errors raise :class:`ValueError` (including
:class:`~repro.core.journal.JournalMismatch` for checkpoint/spec
conflicts); the CLI maps them to clean ``SystemExit`` messages.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from typing import Any, Callable, Dict, Mapping, Optional, Sequence, Tuple

from repro.core.campaign import (
    CampaignCancelled,
    CampaignReport,
    CampaignRunner,
)
from repro.core.config import FuzzerConfig, GeneratorConfig
from repro.core.fuzzer import Fuzzer, FuzzingReport
from repro.core.journal import JournalMismatch
from repro.core.postprocessor import Postprocessor
from repro.core.sweep import SweepReport, SweepRunner, SweepSpec

__all__ = [
    "CampaignCancelled",
    "EngineOptions",
    "JournalMismatch",
    "run_campaign",
    "run_fuzz",
    "run_minimize",
    "run_replay",
    "run_sweep",
]


#: fields older releases wrote (``serve --state-dir`` snapshots keep
#: them): engine knobs that never changed a result, so ``from_dict``
#: drops them
_RETIRED_FIELDS = frozenset(
    {"battery_eval", "masked_fusion", "dead_flags", "compile_programs"}
)


@dataclass
class EngineOptions:
    """Everything a fuzzing engine run is configured by, flat and
    JSON-serializable. Field defaults match the CLI defaults."""

    # target coordinates
    arch: str = "x86_64"
    subsets: str = "AR+MEM+CB"
    contract: str = "CT-SEQ"
    cpu: str = "skylake"
    executor_mode: str = "P+P"
    # budget
    num_test_cases: int = 200
    inputs_per_test_case: int = 50
    entropy_bits: int = 2
    timeout_seconds: Optional[float] = None
    # pipeline shape
    analyzer_mode: str = "subset"
    sandbox_pages: int = 1
    prescreen: bool = False
    prescreen_safety_rate: int = 20
    seed: int = 0
    # contract-trace cache / counterexample corpus plumbing
    cache: bool = False
    cache_entries: int = 65536
    cache_dir: Optional[str] = None
    cache_max_bytes: Optional[int] = None
    cache_compress: bool = False
    corpus_dir: Optional[str] = None

    def to_fuzzer_config(self) -> FuzzerConfig:
        """The single options-bag -> FuzzerConfig mapping."""
        if self.cache_max_bytes is not None and not self.cache_dir:
            raise ValueError(
                "--cache-max-bytes bounds the persistent disk tier and "
                "requires --cache-dir"
            )
        if self.cache_compress and not self.cache_dir:
            raise ValueError(
                "--cache-compress compresses the persistent disk tier and "
                "requires --cache-dir"
            )
        return FuzzerConfig(
            arch=self.arch,
            instruction_subsets=tuple(self.subsets.split("+")),
            contract_name=self.contract,
            cpu_preset=self.cpu,
            executor_mode=self.executor_mode,
            num_test_cases=self.num_test_cases,
            inputs_per_test_case=self.inputs_per_test_case,
            entropy_bits=self.entropy_bits,
            timeout_seconds=self.timeout_seconds,
            analyzer_mode=self.analyzer_mode,
            prescreen=self.prescreen,
            prescreen_safety_rate=self.prescreen_safety_rate,
            seed=self.seed,
            generator=GeneratorConfig(sandbox_pages=self.sandbox_pages),
            contract_trace_cache=self.cache,
            trace_cache_entries=self.cache_entries,
            trace_cache_dir=self.cache_dir,
            trace_cache_max_bytes=self.cache_max_bytes,
            trace_cache_compress=self.cache_compress,
            corpus_dir=self.corpus_dir,
        )

    @classmethod
    def from_args(cls, args: Any, axes: bool = False) -> "EngineOptions":
        """Adapt a namespace parsed by
        :func:`repro.cli.add_engine_options`.

        With ``axes=True`` (the sweep form) arch/contract/cpu are
        comma-separated axis lists on the namespace; the options bag
        keeps its scalar defaults and the caller passes the axes to
        :func:`run_sweep` directly.
        """
        options = cls(
            subsets=args.subsets,
            executor_mode=args.mode,
            num_test_cases=args.num_test_cases,
            inputs_per_test_case=args.inputs,
            entropy_bits=args.entropy,
            timeout_seconds=args.timeout,
            analyzer_mode=args.analyzer,
            sandbox_pages=args.pages,
            prescreen=args.prescreen,
            prescreen_safety_rate=args.prescreen_safety_rate,
            seed=args.seed,
            cache=args.cache,
            cache_entries=args.cache_entries,
            cache_dir=args.cache_dir,
            cache_max_bytes=args.cache_max_bytes,
            cache_compress=args.cache_compress,
            corpus_dir=args.corpus_dir,
        )
        if not axes:
            options.arch = args.arch
            options.contract = args.contract
            options.cpu = args.cpu
        return options

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "EngineOptions":
        data = {k: v for k, v in data.items() if k not in _RETIRED_FIELDS}
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(
                f"unknown EngineOptions field(s): {', '.join(unknown)}"
            )
        return cls(**data)


def run_fuzz(
    options: EngineOptions,
    should_stop: Optional[Callable[[], bool]] = None,
) -> FuzzingReport:
    """One fuzzing campaign (the ``fuzz`` subcommand).

    ``should_stop`` is polled between measurement batches; when it
    fires the run stops early and the report comes back flagged
    ``cancelled`` (single-process fuzzing has no partial-shard hazard,
    so the partial report is returned rather than raised away).
    """
    return Fuzzer(options.to_fuzzer_config()).run(should_stop=should_stop)


def run_campaign(
    options: EngineOptions,
    workers: int = 4,
    shards: Optional[int] = None,
    mode: str = "full",
    journal_dir: Optional[str] = None,
    resume: bool = False,
    should_stop: Optional[Callable[[], bool]] = None,
) -> CampaignReport:
    """One sharded campaign (the ``campaign`` subcommand), optionally
    checkpointed to / resumed from an atomic journal. ``should_stop``
    is the cooperative cancel/deadline signal; when it fires mid-run
    the campaign raises :class:`CampaignCancelled` (journaled shard
    checkpoints survive for a later resume)."""
    return CampaignRunner(
        options.to_fuzzer_config(),
        workers=workers,
        shards=shards,
        mode=mode,
        journal_dir=journal_dir,
        resume=resume,
    ).run(should_stop=should_stop)


def run_sweep(
    options: EngineOptions,
    arches: Optional[Sequence[str]] = None,
    contracts: Optional[Sequence[str]] = None,
    cpus: Optional[Sequence[str]] = None,
    workers: int = 1,
    shards: Optional[int] = None,
    mode: str = "full",
    total_budget: Optional[int] = None,
    budget_overrides: Optional[
        Mapping[Tuple[str, str, str], int]
    ] = None,
    journal_dir: Optional[str] = None,
    resume: bool = False,
    progress: Optional[Callable[..., None]] = None,
    should_stop: Optional[Callable[[], bool]] = None,
) -> SweepReport:
    """One campaign grid (the ``sweep`` subcommand). Axes default to
    the options bag's scalar coordinates (a 1x1x1 grid); every cell's
    shards run on one pool of ``workers`` processes.
    ``should_stop`` is the cooperative cancel/deadline signal; when it
    fires the sweep raises :class:`CampaignCancelled` (journaled unit
    checkpoints survive for a later resume)."""
    spec = SweepSpec(
        arches=tuple(arches) if arches else (options.arch,),
        contracts=tuple(contracts) if contracts else (options.contract,),
        cpus=tuple(cpus) if cpus else (options.cpu,),
        base_config=options.to_fuzzer_config(),
        workers=workers,
        shards=shards,
        mode=mode,
        total_budget=total_budget,
        budget_overrides=dict(budget_overrides or {}),
    )
    return SweepRunner(
        spec,
        cache_dir=options.cache_dir,
        journal_dir=journal_dir,
        resume=resume,
    ).run(progress=progress, should_stop=should_stop)


def run_minimize(options: EngineOptions, advise_fences: bool = False):
    """Fuzz until a violation, then run the 3-stage postprocessor.

    Returns ``(FuzzingReport, MinimizationResult or None)``.
    """
    fuzzer = Fuzzer(options.to_fuzzer_config())
    report = fuzzer.run()
    if not report.found:
        return report, None
    violation = report.violation
    result = Postprocessor(fuzzer.pipeline).minimize(
        violation.program,
        list(violation.input_sequence),
        advise_fences=advise_fences,
    )
    return report, result


def run_replay(
    corpus_dir: str,
    arch: Optional[str] = None,
    progress: Optional[Callable[..., None]] = None,
):
    """Re-run a counterexample corpus (the ``replay`` subcommand);
    returns the corpus's replay report."""
    from repro.corpus import CounterexampleCorpus

    return CounterexampleCorpus(corpus_dir).replay(
        arch=arch, progress=progress
    )
