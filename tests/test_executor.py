"""Tests for the executor: measurement modes, priming, repetition,
outlier filtering, SMI discarding, batched collection and the
priming-swap verification."""

import pytest

from repro.arch import get_architecture
from repro.isa.assembler import parse_program
from repro.emulator.errors import EmulationError
from repro.emulator.state import InputData, SandboxLayout
from repro.executor.executor import Executor, ExecutorConfig
from repro.executor.modes import (
    FLUSH_RELOAD,
    PRIME_PROBE,
    PRIME_PROBE_ASSIST,
    measurement_mode,
    mode_names,
)
from repro.executor.noise import NO_NOISE, NoiseModel
from repro.traces import HTrace
from repro.uarch.config import skylake


@pytest.fixture
def layout():
    return SandboxLayout()


SIMPLE = "MOV RAX, qword ptr [R14 + 320]"  # set 5
V1 = """
    JNS .end
    AND RBX, 0b111111000000
    MOV RCX, qword ptr [R14 + RBX]
.end: NOP
"""


class TestModes:
    def test_mode_lookup(self):
        assert measurement_mode("P+P") is PRIME_PROBE
        assert measurement_mode("p+p+a").assists
        assert measurement_mode("Flush+Reload") is FLUSH_RELOAD

    def test_unknown_mode(self):
        with pytest.raises(KeyError):
            measurement_mode("L3-P+P")

    def test_mode_names_resolve(self):
        for name in mode_names():
            measurement_mode(name)

    def test_with_assists(self):
        mode = PRIME_PROBE.with_assists()
        assert mode.assists and mode.technique == "prime_probe"


class TestBasicMeasurement:
    def test_prime_probe_sees_access(self, layout):
        executor = Executor(skylake(), PRIME_PROBE, layout)
        traces = executor.collect_hardware_traces(
            parse_program(SIMPLE), [InputData()]
        )
        assert len(traces) == 1
        expected_set = ((layout.base + 320) // 64) % 64
        assert expected_set in traces[0]

    def test_flush_reload_sees_block(self, layout):
        executor = Executor(skylake(), FLUSH_RELOAD, layout)
        traces = executor.collect_hardware_traces(
            parse_program(SIMPLE), [InputData()]
        )
        assert 5 in traces[0]  # block 5 of the sandbox

    def test_pp_and_fr_equivalent_on_one_page(self, layout):
        """§6.1: F+R and P+P produce equivalent traces for a 4KB sandbox."""
        program = parse_program(
            "MOV RAX, qword ptr [R14 + 320]\nMOV RBX, qword ptr [R14 + 1344]"
        )
        pp = Executor(skylake(), PRIME_PROBE, layout)
        fr = Executor(skylake(), FLUSH_RELOAD, layout)
        trace_pp = pp.collect_hardware_traces(program, [InputData()])[0]
        trace_fr = fr.collect_hardware_traces(program, [InputData()])[0]
        base_set = (layout.base // 64) % 64
        shifted = {(signal - base_set) % 64 for signal in trace_pp.signals}
        assert shifted == set(trace_fr.signals)

    def test_deterministic_without_noise(self, layout):
        program = parse_program(V1)
        inputs = [InputData(registers={"RBX": 64 * i}, flags={"SF": bool(i % 2)})
                  for i in range(6)]
        first = Executor(skylake(), PRIME_PROBE, layout).collect_hardware_traces(
            program, inputs
        )
        second = Executor(skylake(), PRIME_PROBE, layout).collect_hardware_traces(
            program, inputs
        )
        assert [t.signals for t in first] == [t.signals for t in second]

    def test_assist_mode_clears_bit_each_measurement(self, layout):
        program = parse_program("MOV RAX, qword ptr [R14 + 4096]")
        executor = Executor(skylake(), PRIME_PROBE_ASSIST, layout)
        executor.collect_hardware_traces(program, [InputData()] * 2)
        assists = sum(
            info.assists_triggered for info in executor.stats.run_infos
        )
        assert assists == executor.stats.measurements

    def test_stats_accounting(self, layout):
        config = ExecutorConfig(repetitions=3, warmup_passes=2)
        executor = Executor(skylake(), PRIME_PROBE, layout, config)
        executor.collect_hardware_traces(parse_program(SIMPLE), [InputData()] * 4)
        assert executor.stats.measurements == (3 + 2) * 4


class TestOutlierFiltering:
    def test_one_off_trace_discarded(self, layout):
        executor = Executor(
            skylake(), PRIME_PROBE, layout, ExecutorConfig(repetitions=5)
        )
        merged = executor._merge(
            [frozenset({1}), frozenset({1}), frozenset({1}), frozenset({1, 9})]
        )
        assert merged.signals == {1}
        assert executor.stats.discarded_outliers == 1

    def test_all_singletons_keeps_majority(self, layout):
        executor = Executor(skylake(), PRIME_PROBE, layout)
        merged = executor._merge([frozenset({1}), frozenset({2})])
        assert merged.signals in ({1}, {2})

    def test_union_of_consistent_variants(self, layout):
        """§5.3: consistently observed speculative variants are unioned."""
        executor = Executor(
            skylake(), PRIME_PROBE, layout, ExecutorConfig(outlier_threshold=0)
        )
        merged = executor._merge([frozenset({1, 7}), frozenset({1})])
        assert merged.signals == {1, 7}

    def test_empty_measurements(self, layout):
        executor = Executor(skylake(), PRIME_PROBE, layout)
        assert executor._merge([]).signals == set()


class TestNoiseHandling:
    def test_noise_model_silent_by_default(self):
        assert NO_NOISE.is_silent

    def test_spurious_noise_filtered_by_repetition(self, layout):
        noise = NoiseModel(spurious_rate=0.2)
        config = ExecutorConfig(repetitions=9, outlier_threshold=2, noise=noise)
        executor = Executor(skylake(), PRIME_PROBE, layout, config)
        traces = executor.collect_hardware_traces(
            parse_program(SIMPLE), [InputData()]
        )
        expected_set = ((layout.base + 320) // 64) % 64
        assert traces[0].signals == {expected_set}

    def test_smi_measurements_discarded(self, layout):
        noise = NoiseModel(smi_rate=1.0)
        config = ExecutorConfig(repetitions=3, noise=noise)
        executor = Executor(skylake(), PRIME_PROBE, layout, config)
        traces = executor.collect_hardware_traces(
            parse_program(SIMPLE), [InputData()]
        )
        # every measurement was SMI-polluted and discarded
        assert executor.stats.discarded_smi == executor.stats.measurements
        assert traces[0].signals == set()

    def test_noise_deterministic_per_seed(self, layout):
        noise = NoiseModel(spurious_rate=0.5)
        runs = []
        for _ in range(2):
            config = ExecutorConfig(repetitions=3, noise=noise, noise_seed=99,
                                    outlier_threshold=0)
            executor = Executor(skylake(), PRIME_PROBE, layout, config)
            runs.append(
                executor.collect_hardware_traces(parse_program(SIMPLE), [InputData()])
            )
        assert runs[0][0].signals == runs[1][0].signals


class TestPrimingSwap:
    def test_last_run_infos_initialized(self, layout):
        """Fresh executors expose (empty) run infos before any
        measurement, so consumers never need an attribute guard."""
        assert Executor(skylake(), PRIME_PROBE, layout).last_run_infos == []

    def test_swap_sequences_pinned(self, layout):
        """Pin the §5.3 swap semantics: for positions a < b, the check
        measures the original sequence, then the sequence with input_b
        moved into position a (only), then the one with input_a moved
        into position b (only) — and position arguments are normalized,
        so (b, a) measures exactly the same three sequences."""
        program = parse_program(V1)
        inputs = [InputData(registers={"RBX": 64 * i}) for i in range(6)]
        position_a, position_b = 1, 4

        for call_order in ((position_a, position_b), (position_b, position_a)):
            executor = Executor(skylake(), PRIME_PROBE, layout)
            captured = []

            def record(linear, sequence):
                captured.append(list(sequence))
                return [HTrace.empty() for _ in sequence]

            executor.collect_hardware_traces_linearized = record
            confirmed = executor.priming_swap_check(
                program, inputs, *call_order,
                lambda a, b: a.signals == b.signals,
            )
            # all-empty traces: each input "reproduces" the other's trace
            # in the other's context, i.e. a context-caused false positive
            assert not confirmed
            assert len(captured) == 3
            original, swapped_to_a, swapped_to_b = captured
            assert original == list(inputs)
            expected_a = list(inputs)
            expected_a[position_a] = inputs[position_b]
            assert swapped_to_a == expected_a
            expected_b = list(inputs)
            expected_b[position_b] = inputs[position_a]
            assert swapped_to_b == expected_b

    def test_argument_order_irrelevant(self, layout):
        """position_a > position_b is normalized: both orders agree."""
        program = parse_program(V1)
        inputs = [
            InputData(registers={"RBX": 0x1C0}, flags={"SF": True}),
            InputData(registers={"RBX": 0x1C0}),
            InputData(registers={"RBX": 0x340}, flags={"SF": True}),
            InputData(registers={"RBX": 0x340}),
        ]
        equivalent = lambda a, b: a.signals == b.signals
        forward = Executor(skylake(), PRIME_PROBE, layout).priming_swap_check(
            program, inputs, 0, 2, equivalent
        )
        backward = Executor(skylake(), PRIME_PROBE, layout).priming_swap_check(
            program, inputs, 2, 0, equivalent
        )
        assert forward is True
        assert backward is True

    def test_context_caused_divergence_discarded(self, layout):
        """A divergence that swaps away with the contexts is a false
        positive (§5.3). A single bypass-training artifact: the first
        input bypasses, the second does not — swapping shows each input
        reproduces the other's trace in the other's position."""
        program = parse_program(
            """
            MOV qword ptr [R14 + 64], RAX
            MOV RBX, qword ptr [R14 + 64]
            AND RBX, 0b111111000000
            MOV RCX, qword ptr [R14 + RBX]
            """
        )
        # identical inputs: any trace difference is purely positional
        inputs = [InputData(registers={"RAX": 0x80})] * 2
        executor = Executor(skylake(v4_patch=False), PRIME_PROBE, layout)
        confirmed = executor.priming_swap_check(
            program, inputs, 0, 1, lambda a, b: a.signals == b.signals
        )
        assert not confirmed

    def test_input_caused_divergence_confirmed(self, layout):
        program = parse_program(V1)
        # same class (all taken), different leaking registers
        inputs = [
            InputData(registers={"RBX": 0x1C0}, flags={"SF": True}),
            InputData(registers={"RBX": 0x1C0}),
            InputData(registers={"RBX": 0x340}, flags={"SF": True}),
            InputData(registers={"RBX": 0x340}),
        ]
        executor = Executor(skylake(), PRIME_PROBE, layout)
        traces = executor.collect_hardware_traces(program, inputs)
        # positions 0 and 2 leak transiently nothing... architectural leak
        # differs by RBX: 1 vs 3 have architectural fallthrough... compare
        # the not-taken pair (SF=True executes the load architecturally)
        assert traces[0].signals != traces[2].signals
        confirmed = executor.priming_swap_check(
            program, inputs, 0, 2, lambda a, b: a.signals == b.signals
        )
        assert confirmed


V1_A64 = """
    B.PL .end
    AND X1, X1, #0b111111000000
    LDR X2, [X27, X1]
.end: NOP
"""


class TestBatchedCollection:
    """collect_hardware_traces_batched: bit-identical to per-pair calls."""

    def _signals(self, traces):
        return [trace.signals for trace in traces]

    def test_batched_equals_per_input_x86(self, layout):
        programs = [parse_program(SIMPLE), parse_program(V1)]
        batches = [
            [InputData()] * 3,
            [InputData(registers={"RBX": 64 * i},
                       flags={"SF": bool(i % 2)}) for i in range(6)],
        ]
        reference = [
            Executor(skylake(), PRIME_PROBE, layout).collect_hardware_traces(
                program, inputs
            )
            for program, inputs in zip(programs, batches)
        ]
        batched = Executor(
            skylake(), PRIME_PROBE, layout
        ).collect_hardware_traces_batched(programs, batches)
        assert [self._signals(t) for t in batched] == [
            self._signals(t) for t in reference
        ]

    def test_batched_equals_per_input_aarch64(self):
        arch = get_architecture("aarch64")
        layout = SandboxLayout()
        program = arch.parse_program(V1_A64)
        inputs = [
            InputData(registers={"X1": 64 * i}, flags={"N": bool(i % 2)})
            for i in range(6)
        ]
        reference = Executor(
            skylake(), PRIME_PROBE, layout, arch=arch
        ).collect_hardware_traces(program, inputs)
        # the same program measured twice in one batch: linearized once,
        # each item against a fresh context
        batched = Executor(
            skylake(), PRIME_PROBE, layout, arch=arch
        ).collect_hardware_traces_batched([program, program],
                                          [inputs, inputs])
        assert self._signals(batched[0]) == self._signals(reference)
        assert self._signals(batched[1]) == self._signals(reference)

    def test_batched_under_noise_matches_sequential_rng_stream(self, layout):
        """One calibration per batch must not change what the noise RNG
        produces: a batch consumes the exact same stream as back-to-back
        linearized calls on one executor."""
        noise = NoiseModel(spurious_rate=0.5, drop_rate=0.25)
        config = ExecutorConfig(repetitions=3, noise=noise, noise_seed=11,
                                outlier_threshold=0)
        programs = [parse_program(SIMPLE), parse_program(V1)]
        batches = [[InputData()] * 2,
                   [InputData(registers={"RBX": 192})] * 2]
        sequential = Executor(skylake(), PRIME_PROBE, layout, config)
        reference = [
            sequential.collect_hardware_traces_linearized(
                program.linearize(), inputs
            )
            for program, inputs in zip(programs, batches)
        ]
        batched = Executor(
            skylake(), PRIME_PROBE, layout, config
        ).collect_hardware_traces_batched(programs, batches)
        assert [self._signals(t) for t in batched] == [
            self._signals(t) for t in reference
        ]

    def test_batch_run_infos_per_item(self, layout):
        executor = Executor(skylake(), PRIME_PROBE, layout)
        executor.collect_hardware_traces_batched(
            [parse_program(SIMPLE)], [[InputData()] * 2]
        )
        assert len(executor.last_batch_run_infos) == 1
        assert len(executor.last_batch_run_infos[0]) == 2  # one per input

    def test_shape_mismatch_rejected(self, layout):
        executor = Executor(skylake(), PRIME_PROBE, layout)
        with pytest.raises(ValueError, match="batch shape"):
            executor.collect_hardware_traces_batched(
                [parse_program(SIMPLE)], []
            )

    def test_faulting_item_skipped_or_raised(self, layout):
        good = parse_program(SIMPLE)
        # an architecturally-committed sandbox escape faults the run
        faulting = parse_program("MOV RAX, qword ptr [R14 + 1048576]")
        executor = Executor(skylake(), PRIME_PROBE, layout)
        with pytest.raises(EmulationError):
            executor.collect_hardware_traces_batched(
                [good, faulting], [[InputData()], [InputData()]]
            )
        results = executor.collect_hardware_traces_batched(
            [good, faulting, good],
            [[InputData()], [InputData()], [InputData()]],
            skip_faulting=True,
        )
        assert results[1] is None
        assert executor.last_batch_run_infos[1] is None
        assert results[0] is not None and results[2] is not None
        assert self._signals(results[0]) == self._signals(results[2])


class TestHTrace:
    def test_bitmap_rendering(self):
        trace = HTrace.from_signals({0, 4, 5}, num_slots=8)
        assert trace.bitmap() == "10001100"

    def test_union_and_subset(self):
        a = HTrace.from_signals({1, 2})
        b = HTrace.from_signals({1})
        assert b.issubset(a)
        assert a.union(b).signals == {1, 2}
        assert 2 in a and 2 not in b
