"""The MRT fuzzing loop (paper §4 and Figure 2).

:class:`TestingPipeline` wires one target together — contract model,
executor against one simulated CPU, relational analyzer, and the two
false-positive filters (priming-swap verification, §5.3; nested-speculation
revalidation, §5.4).

:class:`Fuzzer` drives the pipeline in rounds: generate a test case and a
priming sequence of inputs, collect both trace kinds, analyze, and either
report a confirmed violation or feed pattern coverage into the diversity
analysis that widens the generator configuration (§5.6).
"""

from __future__ import annotations

import contextlib
import time
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import Iterator, List, Optional, Sequence, Set, Tuple

from repro.isa.assembler import render_program
from repro.isa.instruction import TestCaseProgram
from repro.analysis.passes import default_pipeline
from repro.analysis.prescreen import (
    PrescreenSoundnessError,
    classify as prescreen_classify,
)
from repro.emulator.battery import BatteryFallback
from repro.emulator.compiled import (
    CompiledProgram,
    compile_program,
    program_digest,
    shared_compiled_cache,
)
from repro.emulator.errors import EmulationError
from repro.emulator.state import InputData, SandboxLayout
from repro.contracts.contract import Contract, get_contract
from repro.executor.executor import Executor, ExecutorConfig
from repro.executor.modes import measurement_mode
from repro.executor.noise import NO_NOISE, NoiseModel
from repro.traces import CTrace, ExecutionLog, HTrace
from repro.uarch.cpu import RunInfo
from repro.core.analyzer import (
    AnalysisResult,
    RelationalAnalyzer,
    ViolationCandidate,
)
from repro.core.config import FuzzerConfig
from repro.core.generator import TestCaseGenerator
from repro.core.input_gen import InputGenerator
from repro.core.patterns import (
    PatternCoverage,
    available_patterns_for_subsets,
    patterns_in_log,
)
from repro.core.trace_cache import (
    CacheKey,
    ContractTraceCache,
    TraceEntry,
    make_trace_cache,
    program_fingerprint,
)
from repro.core.violation import Violation, classify_speculation_kinds


@dataclass
class TestOutcome:
    """Everything collected for one test case."""

    program: TestCaseProgram
    inputs: Sequence[InputData]
    ctraces: List[CTrace]
    htraces: List[HTrace]
    logs: List[ExecutionLog]
    analysis: AnalysisResult
    #: per-input run infos of the *original* priming sequence, snapshotted
    #: before any re-measurement (the priming-swap check overwrites the
    #: executor's ``last_run_infos`` with swapped-sequence runs)
    run_infos: List[List[RunInfo]] = field(default_factory=list)


class TestingPipeline:
    """One target (CPU x contract x threat model), end to end.

    When ``config.contract_trace_cache`` is set (or a cache instance is
    passed explicitly), contract-trace collection is memoized across
    calls in a :class:`ContractTraceCache`; repeated collections for the
    same (program, input, contract) triple — the nesting revalidation and
    the postprocessor's shrinking loops — skip the model emulation.
    ``contract_emulations`` counts the emulations actually performed.
    """

    def __init__(
        self,
        config: FuzzerConfig,
        noise: NoiseModel = NO_NOISE,
        trace_cache: Optional[ContractTraceCache] = None,
    ):
        self.config = config
        self.arch = config.resolve_arch()
        self.layout = SandboxLayout()
        self.cpu_config = config.resolve_cpu()
        self.contract: Contract = get_contract(
            config.contract_name, speculation_window=config.speculation_window
        )
        if trace_cache is None:
            trace_cache = make_trace_cache(
                config.contract_trace_cache, config.trace_cache_dir
            )
        self.trace_cache = trace_cache
        self.contract_emulations = 0
        self.analyzer = RelationalAnalyzer(config.analyzer_mode)
        self.executor = Executor(
            self.cpu_config,
            measurement_mode(config.executor_mode),
            self.layout,
            ExecutorConfig(
                repetitions=config.executor_repetitions,
                warmup_passes=config.executor_warmups,
                outlier_threshold=config.outlier_threshold,
                noise=noise,
                noise_seed=config.seed,
            ),
            arch=self.arch,
        )
        self.discarded_by_priming = 0
        self.discarded_by_nesting = 0
        #: the per-object fast path over the digest-keyed shared cache:
        #: id(program) -> (program, CompiledProgram). The stored program
        #: reference both keeps the id from being recycled while the
        #: entry lives and guards against aliasing (an entry only
        #: answers for the *same object*, so a recycled id can never
        #: serve another program's IR); a handful of entries cover the
        #: pipeline's access pattern (the current test case, the swap
        #: check, the postprocessor's current shrink candidate).
        self._compiled: "OrderedDict[int, Tuple[TestCaseProgram, CompiledProgram]]" = (
            OrderedDict()
        )
        self._pass_pipeline = default_pipeline()

    def compiled_for(self, program: TestCaseProgram) -> CompiledProgram:
        """The compile-once IR of a test case.

        Each distinct program is lowered (and optimized by the pass
        pipeline) exactly once and the IR is threaded through contract
        emulation, hardware-trace collection, the priming-swap check and
        the nesting revalidation. Lowerings live in the process-global
        :func:`~repro.emulator.compiled.shared_compiled_cache`, keyed by
        content digest — so every pipeline in the process (campaign
        shard workers and sweep cells run many per worker) reuses one
        compilation of equal-text programs, and a recycled ``id()`` can
        never alias a stale entry.
        """
        key = id(program)
        entry = self._compiled.get(key)
        if entry is not None and entry[0] is program:
            self._compiled.move_to_end(key)
            return entry[1]
        cache = shared_compiled_cache()
        digest_key = (program_digest(program, self.arch.name),)
        compiled = cache.get(digest_key)
        if compiled is None:
            compiled = self._pass_pipeline.run(
                compile_program(program, self.arch)
            ).program
            cache.put(digest_key, compiled)
        self._compiled[key] = (program, compiled)
        # one measurement batch holds up to round_size distinct programs
        # whose contract halves run after the whole batch measured, so
        # the memo must outlive a full round
        capacity = max(16, self.config.round_size + 1)
        while len(self._compiled) > capacity:
            self._compiled.popitem(last=False)
        return compiled

    # -- trace collection -------------------------------------------------------

    def collect_contract_traces(
        self, program: TestCaseProgram, inputs: Sequence[InputData]
    ) -> Tuple[List[CTrace], List[ExecutionLog]]:
        """Pure trace collection: one ``(CTrace, ExecutionLog)`` per input.

        The program fingerprint is computed once per call (so cache
        lookups cost a hash per input rather than an emulation) and the
        program is compiled once, shared by every input's collection.
        A battery of more than one input runs through the group-lockstep
        engine (:mod:`repro.emulator.battery`) first; whenever that
        engine declines, this falls through to the per-input loop, which
        remains the behavioural referee. Either way, the entries emulated
        on cache misses reach the trace cache's disk tier in one
        :meth:`~ContractTraceCache.publish` at the end.
        """
        if len(inputs) > 1:
            collected = self._collect_battery(
                self.compiled_for(program), program, inputs
            )
            if collected is not None:
                return collected
        fingerprint = (
            program_fingerprint(program, self.arch.name)
            if self.trace_cache is not None
            else None
        )
        ctraces: List[CTrace] = []
        logs: List[ExecutionLog] = []
        with self._publishing() as emulated:
            for input_data in inputs:
                ctrace, log = self._trace_and_log(
                    self.contract, program, fingerprint, input_data, emulated
                )
                ctraces.append(ctrace)
                logs.append(log)
        return ctraces, logs

    @contextlib.contextmanager
    def _publishing(self) -> Iterator[List[Tuple[CacheKey, TraceEntry]]]:
        """Collect the ``(key, entry)`` pairs a collection emulates on
        cache misses, then hand them to one ``publish`` — also when an
        :class:`EmulationError` ends the collection early, so the entries
        computed before it still persist."""
        emulated: List[Tuple[CacheKey, TraceEntry]] = []
        try:
            yield emulated
        finally:
            if emulated:
                self.trace_cache.publish(emulated)

    def _collect_battery(
        self,
        compiled: CompiledProgram,
        program: TestCaseProgram,
        inputs: Sequence[InputData],
    ) -> Optional[Tuple[List[CTrace], List[ExecutionLog]]]:
        """Battery-batched collection, or ``None`` to use the per-input
        loop (the engine declined: architectural fault, step budget).

        Counter and cache behaviour is byte-identical to the per-input
        loop. Without a trace cache, every input is one emulation. With
        one, the cache is *peeked* first (no stats, no LRU movement),
        only the missing lanes are battery-emulated, and then the
        per-input ``get``/``remember`` protocol replays in input order,
        followed by one ``publish`` — so hit/miss counters,
        ``contract_emulations``, LRU order and disk publications match
        the per-input loop exactly (duplicate inputs included: the first
        occurrence misses and is remembered, the second hits). A lane
        whose peek hit but whose ``get`` then missed (the replay's own
        misses evicted it from a small memory tier, and no disk record
        holds it) is re-emulated individually — the same single
        emulation the per-input loop would perform.
        """
        contract = self.contract
        cache = self.trace_cache
        if cache is None:
            try:
                results = contract.collect_traces_battery(
                    compiled, inputs, self.layout, strict=True
                )
            except BatteryFallback:
                return None
            self.contract_emulations += len(inputs)
            return [t for t, _ in results], [log for _, log in results]
        fingerprint = program_fingerprint(program, self.arch.name)
        keys = [cache.key(fingerprint, x, contract) for x in inputs]
        missing = [
            position
            for position, key in enumerate(keys)
            if not cache.peek(key)
        ]
        computed = {}
        if missing:
            try:
                results = contract.collect_traces_battery(
                    compiled,
                    [inputs[position] for position in missing],
                    self.layout,
                    strict=True,
                )
            except BatteryFallback:
                return None
            computed = dict(zip(missing, results))
        ctraces: List[CTrace] = []
        logs: List[ExecutionLog] = []
        with self._publishing() as emulated:
            for position, key in enumerate(keys):
                entry = cache.get(key)
                if entry is None:
                    entry = computed.get(position)
                    if entry is None:
                        entry = contract.collect_trace_and_log(
                            program, inputs[position], self.layout,
                            self.arch, compiled,
                        )
                    self.contract_emulations += 1
                    cache.remember(key, entry)
                    emulated.append((key, entry))
                ctraces.append(entry[0])
                logs.append(entry[1])
        return ctraces, logs

    def _trace_and_log(
        self,
        contract: Contract,
        program: TestCaseProgram,
        fingerprint: Optional[str],
        input_data: InputData,
        emulated: List[Tuple[CacheKey, TraceEntry]],
    ) -> Tuple[CTrace, ExecutionLog]:
        """One memoized contract-trace collection; a miss is remembered
        and appended to ``emulated`` for the caller's one publish."""
        if self.trace_cache is None:
            self.contract_emulations += 1
            return contract.collect_trace_and_log(
                program, input_data, self.layout, self.arch,
                self.compiled_for(program),
            )
        if fingerprint is None:
            fingerprint = program_fingerprint(program, self.arch.name)
        key = self.trace_cache.key(fingerprint, input_data, contract)
        entry = self.trace_cache.get(key)
        if entry is None:
            entry = contract.collect_trace_and_log(
                program, input_data, self.layout, self.arch,
                self.compiled_for(program),
            )
            self.contract_emulations += 1
            self.trace_cache.remember(key, entry)
            emulated.append((key, entry))
        return entry

    def test_program(
        self, program: TestCaseProgram, inputs: Sequence[InputData]
    ) -> TestOutcome:
        """Collect both trace kinds and run the relational analysis."""
        ctraces, logs = self.collect_contract_traces(program, inputs)
        htraces = self.executor.collect_hardware_traces(
            self.compiled_for(program), inputs
        )
        analysis = self.analyzer.analyze(ctraces, htraces)
        run_infos = [list(infos) for infos in self.executor.last_run_infos]
        return TestOutcome(
            program, inputs, ctraces, htraces, logs, analysis, run_infos
        )

    def measure_batch(self, cases):
        """Hardware half of a batched round: one executor batch over
        every case (each case's program compiled once, reused by the
        contract half). Returns ``(htraces, run_infos)`` per case,
        ``None`` traces where the measurement faulted (the sequential
        skip)."""
        trace_batches = self.executor.collect_hardware_traces_batched(
            [self.compiled_for(program) for program, _inputs in cases],
            [inputs for _program, inputs in cases],
            skip_faulting=True,
        )
        return list(zip(trace_batches, self.executor.last_batch_run_infos))

    def outcome_from_measurement(
        self,
        program: TestCaseProgram,
        inputs: Sequence[InputData],
        htraces: Optional[List[HTrace]],
        run_infos,
    ) -> Optional[TestOutcome]:
        """Contract half of a batched round, per case: collect the
        model traces and analyze against already-measured hardware
        traces. ``None`` when either side faulted — exactly the case
        the sequential loop skips. Deferring this per case is what
        keeps batched campaigns' contract-emulation counts identical to
        sequential ones: a violation stops the round before the
        remaining cases' models are ever emulated."""
        if htraces is None:
            return None
        try:
            ctraces, logs = self.collect_contract_traces(program, inputs)
        except EmulationError:
            return None  # instrumentation gap: the sequential skip
        analysis = self.analyzer.analyze(ctraces, htraces)
        return TestOutcome(
            program, inputs, ctraces, htraces, logs, analysis, run_infos
        )

    def test_programs(
        self, cases: Sequence[Tuple[TestCaseProgram, Sequence[InputData]]]
    ) -> List[Optional[TestOutcome]]:
        """Batched :meth:`test_program`: one entry per case, in order.

        Hardware traces of the whole batch are collected in a single
        executor batch (:meth:`~repro.executor.executor.Executor
        .collect_hardware_traces_batched`), then each case's contract
        traces and analysis follow. A case whose measurement or
        contract emulation faults yields ``None`` — exactly the case
        the sequential loop would skip. Traces and analyses are
        identical to per-case :meth:`test_program` calls.
        """
        return [
            self.outcome_from_measurement(program, inputs, htraces, run_infos)
            for (program, inputs), (htraces, run_infos) in zip(
                cases, self.measure_batch(cases)
            )
        ]

    # -- false-positive filters ----------------------------------------------------

    def confirm_candidate(
        self, outcome: TestOutcome, candidate: ViolationCandidate
    ) -> bool:
        """Apply the priming-swap check and nesting revalidation."""
        if self.config.revalidate_with_nesting:
            nested = self.contract.with_nesting(
                self.config.nesting_depth_for_revalidation
            )
            fingerprint = (
                program_fingerprint(outcome.program, self.arch.name)
                if self.trace_cache is not None
                else None
            )
            with self._publishing() as emulated:
                trace_a, _ = self._trace_and_log(
                    nested,
                    outcome.program,
                    fingerprint,
                    outcome.inputs[candidate.position_a],
                    emulated,
                )
                trace_b, _ = self._trace_and_log(
                    nested,
                    outcome.program,
                    fingerprint,
                    outcome.inputs[candidate.position_b],
                    emulated,
                )
            if trace_a != trace_b:
                # with nesting modelled, the contract separates the inputs:
                # the divergence was permitted leakage after all (§5.4)
                self.discarded_by_nesting += 1
                return False
        if self.config.verify_with_priming:
            confirmed = self.executor.priming_swap_check(
                outcome.program,
                outcome.inputs,
                candidate.position_a,
                candidate.position_b,
                self.analyzer.equivalent,
                compiled=self.compiled_for(outcome.program),
            )
            if not confirmed:
                self.discarded_by_priming += 1
                return False
        return True

    def check_violation(
        self,
        program: TestCaseProgram,
        inputs: Sequence[InputData],
        confirm: bool = False,
    ) -> Optional[ViolationCandidate]:
        """Test one program; return the first (optionally confirmed)
        candidate. Used by the postprocessor's shrinking loops."""
        try:
            outcome = self.test_program(program, inputs)
        except EmulationError:
            return None
        for candidate in outcome.analysis.candidates:
            if not confirm or self.confirm_candidate(outcome, candidate):
                return candidate
        return None

    # -- violation construction ------------------------------------------------------

    def build_violation(
        self, outcome: TestOutcome, candidate: ViolationCandidate
    ) -> Violation:
        kinds = self._speculation_kinds(
            outcome, candidate.position_a
        ) | self._speculation_kinds(outcome, candidate.position_b)
        has_division = any(
            instruction.category == "VAR"
            for instruction in outcome.program.all_instructions()
        )
        classification = classify_speculation_kinds(
            kinds, self.cpu_config, program_has_division=has_division
        )
        return Violation(
            program=outcome.program,
            contract_name=self.contract.name,
            cpu_name=self.cpu_config.name,
            arch_name=self.arch.name,
            ctrace=candidate.ctrace,
            input_sequence=list(outcome.inputs),
            position_a=candidate.position_a,
            position_b=candidate.position_b,
            htrace_a=candidate.htrace_a,
            htrace_b=candidate.htrace_b,
            classification=classification,
            speculation_kinds=kinds,
        )

    def _speculation_kinds(
        self, outcome: TestOutcome, position: int
    ) -> Set[str]:
        """Speculation provenance of one input, from the outcome's own
        run-info snapshot — the executor's ``last_run_infos`` may by now
        describe a priming-swap re-measurement, not this sequence."""
        kinds: Set[str] = set()
        infos = outcome.run_infos
        if position < len(infos):
            for info in infos[position]:
                kinds |= info.speculation_kinds
        return kinds


@dataclass
class FuzzingReport:
    """Result of one fuzzing campaign."""

    violation: Optional[Violation] = None
    test_cases: int = 0
    inputs_tested: int = 0
    duration_seconds: float = 0.0
    rounds: int = 0
    reconfigurations: int = 0
    mean_effectiveness: float = 0.0
    coverage: Optional[PatternCoverage] = None
    discarded_by_priming: int = 0
    discarded_by_nesting: int = 0
    unconfirmed_candidates: int = 0
    #: test cases the static pre-screen classified INERT and skipped
    #: (still counted in ``test_cases``, so campaign positions match a
    #: run without the pre-screen; their inputs are not ``inputs_tested``)
    prescreened_inert: int = 0
    #: INERT-classified cases measured anyway by the safety sampling
    prescreen_safety_checked: int = 0
    #: True when the campaign stopped early on an external stop signal
    #: (first-violation campaign mode) before draining its budget
    cancelled: bool = False
    #: contract-model emulations actually performed (cache misses + all
    #: collections when the trace cache is disabled)
    contract_emulations: int = 0
    #: emulations skipped by the contract-trace cache
    trace_cache_hits: int = 0
    #: subset of the hits served from the persistent on-disk tier, i.e.
    #: traces computed by another process or an earlier run
    trace_cache_disk_hits: int = 0
    #: disk-tier publications that failed with an ``OSError``
    #: (ENOSPC, EACCES, ...) and degraded to counted no-persist instead
    #: of failing the run
    trace_cache_disk_write_errors: int = 0

    @property
    def found(self) -> bool:
        return self.violation is not None

    def summary(self) -> str:
        outcome = (
            f"VIOLATION ({self.violation.classification})"
            if self.violation
            else "no violation"
        )
        screened = (
            f", {self.prescreened_inert} pre-screened"
            if self.prescreened_inert
            else ""
        )
        return (
            f"{outcome} after {self.test_cases} test cases / "
            f"{self.inputs_tested} inputs in {self.duration_seconds:.2f}s "
            f"(effectiveness {self.mean_effectiveness:.2f}, "
            f"{self.reconfigurations} reconfigurations{screened})"
        )


class Fuzzer:
    """The MRT campaign driver with diversity-guided generation."""

    def __init__(self, config: FuzzerConfig, noise: NoiseModel = NO_NOISE):
        self.config = config
        self.noise = noise
        self.pipeline = TestingPipeline(config, noise)
        self.arch = self.pipeline.arch
        self.instruction_set = self.arch.instruction_subset(
            config.instruction_subsets
        )
        self.generator = TestCaseGenerator(
            self.instruction_set,
            config.generator,
            self.pipeline.layout,
            seed=config.seed,
            arch=self.arch,
        )
        self.input_generator = InputGenerator(
            seed=config.seed + 1,
            entropy_bits=config.entropy_bits,
            registers=config.generator.register_pool
            or self.arch.default_register_pool,
            layout=self.pipeline.layout,
            flag_bits=self.arch.registers.flag_bits,
        )
        self.coverage = PatternCoverage()
        self._available_patterns = available_patterns_for_subsets(
            config.instruction_subsets
        )
        self._inputs_per_case = config.inputs_per_test_case
        self._feedback_stage = 0  # 0: individuals, 1: pairs, 2: saturated

    def run(self, should_stop=None) -> FuzzingReport:
        """Fuzz until the first confirmed violation or budget exhaustion.

        ``should_stop`` is an optional zero-argument callable polled
        between measurement batches (at most ``round_size`` test cases
        apart; every case when measuring case by case); when it returns
        True the campaign stops early with ``report.cancelled`` set (the
        campaign runner's first-violation early-cancel signal).

        The hardware traces of one diversity round's test cases are
        collected in a single executor batch. Generation order, analysis
        order and the round-boundary reconfiguration points are those of
        the case-by-case loop, so the report is identical to it (the one
        corner that can differ: a case whose *hardware* run faults while
        its contract model would not — the batch skips it before any
        contract emulation, so only the emulation/cache counters move,
        never a finding). Timed campaigns (``timeout_seconds``) and
        noisy executors (an armed :class:`NoiseModel` draws from one
        RNG stream, which measurement reordering would shift) measure
        case by case.
        """
        config = self.config
        report = FuzzingReport(coverage=self.coverage)
        start = time.perf_counter()
        effectiveness_sum = 0.0
        measured_cases = 0
        new_coverage_this_round = False
        # Batch only when the round's measurement order cannot matter:
        # an armed noise model draws from one RNG stream, so reordering
        # measurements (the batch measures hardware before the swap
        # checks and contract collections) would change its draws.
        batch_limit = (
            max(1, config.round_size)
            if config.timeout_seconds is None and self.noise.is_silent
            else 1
        )

        case_index = 0
        inert_seen = 0
        while case_index < config.num_test_cases:
            if should_stop is not None and should_stop():
                report.cancelled = True
                break
            if (
                config.timeout_seconds is not None
                and time.perf_counter() - start > config.timeout_seconds
            ):
                break
            end = min(config.num_test_cases, case_index + batch_limit)
            if batch_limit > 1:
                # a batch never crosses a round boundary: the boundary's
                # reconfiguration changes the generator for later cases
                boundary = (
                    (case_index // config.round_size) + 1
                ) * config.round_size
                end = min(end, boundary)
            cases = [
                (
                    self.generator.generate(),
                    self.input_generator.generate(self._inputs_per_case),
                )
                for _ in range(case_index, end)
            ]
            # static pre-screen (repro.analysis.prescreen): INERT cases
            # are skipped before any emulation; the safety sampling
            # keeps measuring every Nth of them so a pre-screen
            # soundness bug fails loudly instead of losing violations
            screened = [False] * len(cases)
            safety = [False] * len(cases)
            if config.prescreen:
                for offset, (program, _inputs) in enumerate(cases):
                    if self._classify_case(program).active:
                        continue
                    inert_seen += 1
                    if (
                        config.prescreen_safety_rate
                        and inert_seen % config.prescreen_safety_rate == 0
                    ):
                        safety[offset] = True
                        report.prescreen_safety_checked += 1
                    else:
                        screened[offset] = True
                        report.prescreened_inert += 1
            # hardware first, in one batch; contract traces lazily per
            # case below, so a violation mid-round leaves the remaining
            # cases' models unemulated — as in the sequential loop
            measured = self.pipeline.measure_batch(
                [case for case, skip in zip(cases, screened) if not skip]
            )
            measured_iter = iter(measured)

            for offset, (program, inputs) in enumerate(cases):
                index = case_index + offset
                if screened[offset]:
                    # skipped before measurement but still a generated
                    # test case: counting it keeps campaign positions
                    # (test_cases_until_found) identical to a run
                    # without the pre-screen; round bookkeeping also
                    # advances so reconfiguration points match
                    report.test_cases += 1
                    if (
                        config.diversity_feedback
                        and (index + 1) % config.round_size == 0
                    ):
                        report.rounds += 1
                        if self._maybe_reconfigure(new_coverage_this_round):
                            report.reconfigurations += 1
                        new_coverage_this_round = False
                    continue
                htraces, run_infos = next(measured_iter)
                outcome = self.pipeline.outcome_from_measurement(
                    program, inputs, htraces, run_infos
                )
                if outcome is None:
                    # an instrumentation gap let a fault through: skip
                    continue
                report.test_cases += 1
                report.inputs_tested += len(outcome.inputs)
                effectiveness_sum += outcome.analysis.effectiveness
                measured_cases += 1

                candidates = outcome.analysis.candidates[
                    : config.max_candidates_per_test_case
                ]
                for candidate in candidates:
                    if self.pipeline.confirm_candidate(outcome, candidate):
                        if safety[offset]:
                            raise PrescreenSoundnessError(
                                "pre-screen classified a violating test "
                                "case INERT (safety sample at case "
                                f"{index}):\n{render_program(program)}"
                            )
                        violation = self.pipeline.build_violation(
                            outcome, candidate
                        )
                        violation.test_cases_until_found = report.test_cases
                        violation.inputs_until_found = report.inputs_tested
                        violation.seconds_until_found = (
                            time.perf_counter() - start
                        )
                        report.violation = violation
                        break
                    report.unconfirmed_candidates += 1
                if report.violation is not None:
                    break

                # diversity analysis (§5.6)
                if config.diversity_feedback:
                    if self._update_coverage(outcome):
                        new_coverage_this_round = True
                    if (index + 1) % config.round_size == 0:
                        report.rounds += 1
                        if self._maybe_reconfigure(new_coverage_this_round):
                            report.reconfigurations += 1
                        new_coverage_this_round = False
            if report.violation is not None:
                break
            case_index = end

        report.duration_seconds = time.perf_counter() - start
        if measured_cases:
            report.mean_effectiveness = effectiveness_sum / measured_cases
        report.discarded_by_priming = self.pipeline.discarded_by_priming
        report.discarded_by_nesting = self.pipeline.discarded_by_nesting
        report.contract_emulations = self.pipeline.contract_emulations
        cache = self.pipeline.trace_cache
        if cache is not None:
            report.trace_cache_hits = cache.stats.hits
            report.trace_cache_disk_hits = cache.stats.disk_hits
            report.trace_cache_disk_write_errors = (
                cache.stats.disk_write_errors
            )
        if config.corpus_dir is not None and report.violation is not None:
            # persist the find as a replayable regression test; a local
            # import because repro.corpus builds pipelines from records
            from repro.corpus import CounterexampleCorpus

            CounterexampleCorpus(config.corpus_dir).add_violation(
                report.violation,
                config,
                provenance={
                    "found_by": "fuzz",
                    "test_cases_until_found": report.test_cases,
                    "inputs_until_found": report.inputs_tested,
                },
            )
        return report

    # -- static pre-screen -------------------------------------------------------

    def _classify_case(self, program: TestCaseProgram):
        """Run the static leak pre-screen on one generated test case."""
        return prescreen_classify(
            self.pipeline.compiled_for(program),
            self.pipeline.contract,
            self.config.executor_mode,
        )

    # -- diversity feedback ------------------------------------------------------

    def _update_coverage(self, outcome: TestOutcome) -> bool:
        """Mine patterns from the model's execution logs, per input class."""
        pattern_sets = [patterns_in_log(log) for log in outcome.logs]
        newly_covered = False
        for cls in outcome.analysis.classes:
            members = [pattern_sets[position] for position in cls.positions]
            if self.coverage.update_from_class(members):
                newly_covered = True
        return newly_covered

    def _maybe_reconfigure(self, new_coverage: bool) -> bool:
        """Widen the generator when the coverage target for the current
        stage is met, or when a round brought no new coverage."""
        grow = False
        if self._feedback_stage == 0 and self.coverage.all_individuals_covered(
            self._available_patterns
        ):
            self._feedback_stage = 1
            grow = True
        elif self._feedback_stage == 1 and self.coverage.all_pairs_covered(
            self._available_patterns
        ):
            self._feedback_stage = 2
            grow = True
        elif not new_coverage:
            grow = True
        if grow:
            config = self.config
            grown = self.generator.config.grown()
            capped = replace(
                grown,
                instructions_per_test=min(
                    grown.instructions_per_test, config.max_instructions_per_test
                ),
                basic_blocks=min(grown.basic_blocks, config.max_basic_blocks),
                memory_accesses=min(
                    grown.memory_accesses, config.max_instructions_per_test // 2
                ),
            )
            if (
                capped == self.generator.config
                and self._inputs_per_case >= config.max_inputs_per_test_case
            ):
                return False  # saturated: nothing left to widen
            self.generator.reconfigure(capped)
            self._inputs_per_case = min(
                config.max_inputs_per_test_case,
                max(self._inputs_per_case + 1, int(self._inputs_per_case * 1.5)),
            )
        return grow


def fuzz(config: FuzzerConfig, noise: NoiseModel = NO_NOISE) -> FuzzingReport:
    """Convenience one-call campaign (the library's quickstart entry point)."""
    return Fuzzer(config, noise).run()


__all__ = [
    "Fuzzer",
    "FuzzingReport",
    "TestOutcome",
    "TestingPipeline",
    "fuzz",
]
