"""The executor: collecting stable hardware traces (paper §5.3).

One call to :meth:`Executor.collect_hardware_traces` performs a full
*priming sequence*: it measures all inputs of a test case in order against
one microarchitectural context, so that the execution with each input sets
the context for the next. The sequence is repeated — warm-up passes first,
then recorded passes — and per input the one-off outlier traces are
discarded before the remaining traces are unioned (paper's
"reducing nondeterminism" step).

:meth:`Executor.priming_swap_check` implements the swap verification:
when two inputs of the same contract-equivalence class disagree on their
hardware traces, the executor re-measures with the inputs swapped in the
priming sequence; if each input reproduces the other's trace under the
other's context, the divergence is context-caused and discarded as a
false positive.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Set, Union

from repro.isa.instruction import LinearProgram, TestCaseProgram
from repro.emulator.compiled import (
    CompiledProgram,
    as_compiled,
    program_digest,
    shared_compiled_cache,
)
from repro.emulator.errors import EmulationError
from repro.emulator.state import InputData, SandboxLayout
from repro.traces import HTrace
from repro.uarch.config import UarchConfig
from repro.uarch.cpu import RunInfo, SpeculativeCPU
from repro.executor.modes import MeasurementMode, PRIME_PROBE
from repro.executor.noise import NO_NOISE, NoiseModel


@dataclass(frozen=True)
class ExecutorConfig:
    """Measurement parameters (paper defaults in §5.3)."""

    #: recorded passes over the input sequence (the paper repeats each
    #: measurement 50 times on noisy silicon; the simulator is
    #: deterministic, so fewer repetitions suffice unless noise is injected)
    repetitions: int = 3
    #: unrecorded warm-up passes before measuring
    warmup_passes: int = 1
    #: traces observed at most this many times across repetitions are
    #: discarded as outliers (0 disables outlier filtering)
    outlier_threshold: int = 1
    noise: NoiseModel = NO_NOISE
    noise_seed: int = 0


@dataclass
class MeasurementStats:
    """Bookkeeping for diagnostics and the fuzzing-speed benchmark."""

    measurements: int = 0
    discarded_smi: int = 0
    discarded_outliers: int = 0
    run_infos: List[RunInfo] = field(default_factory=list)


class Executor:
    """Runs test cases on a simulated CPU and collects hardware traces."""

    def __init__(
        self,
        cpu_config: UarchConfig,
        mode: MeasurementMode = PRIME_PROBE,
        layout: Optional[SandboxLayout] = None,
        config: Optional[ExecutorConfig] = None,
        arch=None,
    ):
        self.cpu_config = cpu_config
        self.mode = mode
        self.layout = layout or SandboxLayout()
        self.config = config or ExecutorConfig()
        self.cpu = SpeculativeCPU(cpu_config, self.layout, arch)
        self.arch = self.cpu.arch
        self._rng = random.Random(self.config.noise_seed)
        # One noise-calibration pass, reused across every measurement
        # batch: the model parameters are frozen for the executor's
        # lifetime, so the former per-input re-derivation inside
        # _measure_once was pure hot-path overhead (executor/noise.py).
        self._calibration = self.config.noise.calibrate()
        self._prime_probe = mode.technique == "prime_probe"
        self.stats = MeasurementStats()
        #: per-input run info of the most recent priming sequence, used by
        #: the fuzzer to classify speculation provenance
        self.last_run_infos: List[List[RunInfo]] = []
        #: per-item run infos of the most recent batched collection
        #: (``None`` entries mirror skipped, faulting batch items)
        self.last_batch_run_infos: List[Optional[List[List[RunInfo]]]] = []

    # -- one measurement ------------------------------------------------------

    def _prepare_side_channel(self) -> None:
        if self._prime_probe:
            self.cpu.cache.prime()
        else:  # flush_reload / evict_reload: clear the monitored region
            self.cpu.cache.evict_region(self.layout.base, self.layout.size)

    def _probe_side_channel(self) -> Set[int]:
        if self._prime_probe:
            return self.cpu.cache.probe()
        return self.cpu.cache.cached_lines(self.layout.base, self.layout.size)

    def _lower(self, program) -> CompiledProgram:
        """Lower a program to the compile-once IR
        (:mod:`repro.emulator.compiled`) exactly once per collection, so
        the repeated measurements of a priming sequence never re-decode.
        Test-case programs route through the process-global
        digest-keyed IR cache, so an executor handed a raw program (no
        pipeline pre-lowering, e.g. the gallery tools) still reuses any
        equal-text compilation in this process. Compiled programs pass
        through, interpretive ones included (the equality tests'
        reference path).
        """
        if isinstance(program, TestCaseProgram):
            cache = shared_compiled_cache()
            key = (program_digest(program, self.arch.name), "executor")
            compiled = cache.get(key)
            if compiled is None:
                compiled = as_compiled(program, self.arch)
                cache.put(key, compiled)
            return compiled
        return as_compiled(program, self.arch)

    def _measure_once(
        self, program: CompiledProgram, input_data: InputData
    ) -> Optional[Set[int]]:
        """One measurement: prepare, run, probe. None when SMI-polluted."""
        self._prepare_side_channel()
        if self.mode.assists:
            self.cpu.clear_accessed_bit(self.layout.assist_page_index)
        info = self.cpu.run(program, input_data)
        self.stats.measurements += 1
        self.stats.run_infos.append(info)
        if len(self.stats.run_infos) > 8192:  # bound memory on long campaigns
            del self.stats.run_infos[:4096]
        signals = self._probe_side_channel()
        signals, smi_detected = self._calibration.perturb(signals, self._rng)
        if smi_detected:
            self.stats.discarded_smi += 1
            return None
        return signals

    # -- priming sequences ------------------------------------------------------

    def collect_hardware_traces(
        self,
        program: Union[TestCaseProgram, CompiledProgram],
        inputs: Sequence[InputData],
        fresh_context: bool = True,
    ) -> List[HTrace]:
        """Collect one merged hardware trace per input (paper §5.3).

        The input sequence is executed in order (priming); the whole
        sequence is repeated ``warmup_passes + repetitions`` times; per
        input, one-off traces are discarded and the rest are unioned.
        ``program`` may be a pre-compiled
        :class:`~repro.emulator.compiled.CompiledProgram` (the pipeline
        compiles each test case once and threads the IR through).
        """
        return self.collect_hardware_traces_linearized(
            program, inputs, fresh_context
        )

    def collect_hardware_traces_linearized(
        self,
        linear: Union[LinearProgram, CompiledProgram, TestCaseProgram],
        inputs: Sequence[InputData],
        fresh_context: bool = True,
    ) -> List[HTrace]:
        """Batch-friendly variant of :meth:`collect_hardware_traces`.

        Callers that measure the same program against several input
        sequences (the priming-swap check, campaign batching) lower
        once and reuse the compiled stream across all measurements.
        """
        program = self._lower(linear)
        if fresh_context:
            self.cpu.reset_context()
        per_input_traces: List[List[frozenset]] = [[] for _ in inputs]
        self.last_run_infos = [[] for _ in inputs]

        for _ in range(self.config.warmup_passes):
            for input_data in inputs:
                self._measure_once(program, input_data)

        for _ in range(max(1, self.config.repetitions)):
            for position, input_data in enumerate(inputs):
                signals = self._measure_once(program, input_data)
                self.last_run_infos[position].append(self.stats.run_infos[-1])
                if signals is not None:
                    per_input_traces[position].append(frozenset(signals))

        return [self._merge(traces) for traces in per_input_traces]

    def collect_hardware_traces_batched(
        self,
        programs: Sequence[Union[TestCaseProgram, LinearProgram,
                                 CompiledProgram]],
        input_batches: Sequence[Sequence[InputData]],
        fresh_context: bool = True,
        skip_faulting: bool = False,
    ) -> List[Optional[List[HTrace]]]:
        """Measure a batch of (program, input sequence) pairs in one call.

        The batch path of the campaign shards and the priming-swap
        check: each distinct program is compiled exactly once (repeats
        — the swap check measures one program against three sequences —
        reuse the lowered IR, and pre-compiled programs pass through),
        the noise calibration and side-channel dispatch are shared
        across the whole batch, and each pair is still measured against
        a fresh microarchitectural context, so a batch produces
        bit-identical traces to one :meth:`collect_hardware_traces`
        call per pair.

        Returns one trace list per pair, in order. With ``skip_faulting``
        a pair whose measurement faults architecturally (an
        :class:`~repro.emulator.errors.EmulationError` — instrumentation
        gap or runaway control flow) yields ``None`` instead of aborting
        the batch; without it the error propagates, matching the
        unbatched path. Per-item run infos are kept in
        ``last_batch_run_infos`` (``None`` for skipped items).
        """
        if len(programs) != len(input_batches):
            raise ValueError(
                f"batch shape mismatch: {len(programs)} program(s) vs "
                f"{len(input_batches)} input sequence(s)"
            )
        compiled_by_id = {}
        results: List[Optional[List[HTrace]]] = []
        batch_run_infos: List[Optional[List[List[RunInfo]]]] = []
        for program, inputs in zip(programs, input_batches):
            if isinstance(program, CompiledProgram):
                lowered = program
            else:
                lowered = compiled_by_id.get(id(program))
                if lowered is None:
                    lowered = self._lower(program)
                    compiled_by_id[id(program)] = lowered
            try:
                traces = self.collect_hardware_traces_linearized(
                    lowered, inputs, fresh_context
                )
            except EmulationError:
                if not skip_faulting:
                    self.last_batch_run_infos = batch_run_infos
                    raise
                self.last_run_infos = []
                results.append(None)
                batch_run_infos.append(None)
                continue
            results.append(traces)
            batch_run_infos.append(
                [list(infos) for infos in self.last_run_infos]
            )
        self.last_batch_run_infos = batch_run_infos
        return results

    def _merge(self, traces: List[frozenset]) -> HTrace:
        """Discard one-off outliers, then union (paper §5.3 step 3)."""
        if not traces:
            return HTrace.empty()
        threshold = self.config.outlier_threshold
        if threshold and len(traces) > threshold:
            counts = Counter(traces)
            kept = [t for t in traces if counts[t] > threshold]
            self.stats.discarded_outliers += len(traces) - len(kept)
            if not kept:  # everything was a one-off: keep the majority trace
                kept = [counts.most_common(1)[0][0]]
            traces = kept
        merged: Set[int] = set()
        for trace in traces:
            merged |= trace
        return HTrace.from_signals(merged)

    # -- priming-swap verification (paper §5.3) ---------------------------------

    def priming_swap_check(
        self,
        program: TestCaseProgram,
        inputs: Sequence[InputData],
        position_a: int,
        position_b: int,
        equivalent: Callable[[HTrace, HTrace], bool],
        compiled: Optional[CompiledProgram] = None,
    ) -> bool:
        """Return True when the divergence between the inputs at
        ``position_a`` and ``position_b`` is *input-caused*, i.e. a real
        violation; False when swapping contexts explains it away.

        Implements the paper's example: for inputs at positions 100 and
        200, it measures the sequences ``(i1..i99, i200, i101..i199,
        i200)`` and ``(i1..i99, i100, i101..i199, i100)``, and discards
        the violation if each input reproduces the other's trace when
        measured in the other's context.
        """
        if position_a > position_b:
            position_a, position_b = position_b, position_a
        swapped_to_a = list(inputs)
        swapped_to_a[position_a] = inputs[position_b]
        swapped_to_b = list(inputs)
        swapped_to_b[position_b] = inputs[position_a]
        # one batch: the program is compiled once (or the pipeline's
        # pre-compiled IR is reused) and the calibration is shared
        # across the three priming sequences
        lowered = compiled if compiled is not None else self._lower(program)
        original, traces_a, traces_b = self.collect_hardware_traces_batched(
            [lowered, lowered, lowered], [inputs, swapped_to_a, swapped_to_b]
        )

        # input_b measured in context of position_a vs. input_a there:
        b_reproduces_a = equivalent(traces_a[position_a], original[position_a])
        # input_a measured in context of position_b vs. input_b there:
        a_reproduces_b = equivalent(traces_b[position_b], original[position_b])
        false_positive = b_reproduces_a and a_reproduces_b
        return not false_positive


__all__ = ["Executor", "ExecutorConfig", "MeasurementStats"]
