"""Tests for the speculative CPU simulator.

Covers architectural correctness (speculation must never change final
architectural state), every leak mechanism the paper's evaluation relies
on (V1, V4, latency races, MDS, LVI-Null, speculative store eviction,
V2, V5-ret), and the patches that disable them.
"""

import hashlib
from collections import Counter

import pytest

from repro.arch import get_architecture
from repro.core.input_gen import InputGenerator
from repro.executor.executor import Executor
from repro.executor.modes import measurement_mode, mode_names
from repro.gallery import GALLERY
from repro.isa.assembler import parse_program
from repro.emulator.errors import ExecutionLimitExceeded, SandboxViolation
from repro.emulator.machine import Emulator
from repro.emulator.state import InputData, SandboxLayout
from repro.uarch.config import coffee_lake, preset, preset_names, skylake
from repro.uarch.cpu import SpeculativeCPU


@pytest.fixture
def layout():
    return SandboxLayout()


def probe_run(cpu, linear, input_data):
    """One Prime+Probe measurement against the CPU."""
    cpu.cache.prime()
    info = cpu.run(linear, input_data)
    return sorted(cpu.cache.probe()), info


class TestArchitecturalEquivalence:
    """Speculation may leak, but the final architectural state must equal
    the functional emulator's for every program and input."""

    PROGRAMS = [
        "MOV RAX, 5\nADD RAX, RBX\nSUB RCX, RAX",
        """
        CMP RAX, 0
        JZ .skip
        MOV RBX, 7
    .skip: ADD RBX, 1
        """,
        """
        MOV qword ptr [R14 + 64], RAX
        MOV RBX, qword ptr [R14 + 64]
        AND RBX, 0b111111000000
        MOV RCX, qword ptr [R14 + RBX]
        """,
        """
        MOV RDX, 0
        OR RBX, 1
        DIV RBX
        """,
    ]

    @pytest.mark.parametrize("text", PROGRAMS)
    @pytest.mark.parametrize("rax", [0, 0x40, 0x80])
    def test_final_state_matches_emulator(self, text, rax, layout):
        program = parse_program(text)
        input_data = InputData(
            registers={"RAX": rax, "RBX": 0x40, "RCX": 0x80},
            memory=bytes(range(1, 255)) * 4,
        )
        emulator = Emulator(program, layout)
        emulator.run(input_data)

        cpu = SpeculativeCPU(skylake(), layout)
        cpu.run(program.linearize(), input_data)

        assert cpu.state.registers == emulator.state.registers
        assert cpu.state.flags == emulator.state.flags
        assert bytes(cpu.state.memory) == bytes(emulator.state.memory)

    def test_training_does_not_change_architecture(self, layout):
        """Repeated runs with different predictor states give identical
        architectural results."""
        program = parse_program(
            """
            CMP RAX, 0
            JZ .skip
            MOV RBX, 7
        .skip: ADD RBX, 1
            """
        )
        linear = program.linearize()
        cpu = SpeculativeCPU(skylake(), layout)
        finals = set()
        for _ in range(5):
            cpu.run(linear, InputData(registers={"RAX": 1}))
            finals.add(cpu.state.read_register("RBX"))
        assert finals == {8}


class TestConditionalSpeculation:
    V1 = """
        JNS .end
        AND RBX, 0b111111000000
        MOV RCX, qword ptr [R14 + RBX]
    .end: NOP
    """

    def test_mispredicted_path_touches_cache(self, layout):
        cpu = SpeculativeCPU(skylake(), layout)
        linear = parse_program(self.V1).linearize()
        # SF clear: branch taken, but predictor starts not-taken -> the
        # fallthrough load runs transiently
        trace, info = probe_run(
            cpu, linear, InputData(registers={"RBX": 0x1C0})
        )
        assert info.squashes == ["cond"]
        assert 7 in trace  # 0x1C0 / 64

    def test_leak_is_input_dependent(self, layout):
        traces = []
        for rbx in (0x1C0, 0x340):
            cpu = SpeculativeCPU(skylake(), layout)
            trace, _ = probe_run(
                cpu, parse_program(self.V1).linearize(),
                InputData(registers={"RBX": rbx}),
            )
            traces.append(tuple(trace))
        assert traces[0] != traces[1]

    def test_correct_prediction_no_leak(self, layout):
        cpu = SpeculativeCPU(skylake(), layout)
        linear = parse_program(self.V1).linearize()
        probe_run(cpu, linear, InputData())  # trains toward taken
        probe_run(cpu, linear, InputData())
        trace, info = probe_run(cpu, linear, InputData(registers={"RBX": 0x1C0}))
        assert info.squashes == []
        assert trace == []

    def test_speculation_disabled_by_config(self, layout):
        config = skylake().with_overrides(conditional_branch_speculation=False)
        cpu = SpeculativeCPU(config, layout)
        trace, info = probe_run(
            cpu, parse_program(self.V1).linearize(),
            InputData(registers={"RBX": 0x1C0}),
        )
        assert info.squashes == [] and trace == []

    def test_lfence_stops_wrong_path(self, layout):
        fenced = """
            JNS .end
            LFENCE
            AND RBX, 0b111111000000
            MOV RCX, qword ptr [R14 + RBX]
        .end: NOP
        """
        cpu = SpeculativeCPU(skylake(), layout)
        trace, info = probe_run(
            cpu, parse_program(fenced).linearize(),
            InputData(registers={"RBX": 0x1C0}),
        )
        assert trace == []
        assert info.squashes == ["cond"]

    def test_rollback_restores_registers(self, layout):
        program = """
            JNS .end
            MOV RBX, 999
        .end: NOP
        """
        cpu = SpeculativeCPU(skylake(), layout)
        cpu.run(parse_program(program).linearize(), InputData(registers={"RBX": 5}))
        assert cpu.state.read_register("RBX") == 5

    def test_rob_bounds_window(self, layout):
        # a long wrong path is cut off after rob_size instructions
        body = "\n".join(["NOP"] * 20) + "\nAND RBX, 0b111111000000\nMOV RCX, qword ptr [R14 + RBX]"
        program = f"JNS .end\n{body}\n.end: NOP"
        config = skylake().with_overrides(rob_size=5, branch_resolve_latency=1000)
        cpu = SpeculativeCPU(config, layout)
        trace, info = probe_run(
            cpu, parse_program(program).linearize(), InputData(registers={"RBX": 0x1C0})
        )
        assert trace == []  # squashed before reaching the load


class TestStoreBypass:
    V4 = """
        MOV qword ptr [R14 + 64], RAX
        MOV RBX, qword ptr [R14 + 64]
        AND RBX, 0b111111000000
        MOV RCX, qword ptr [R14 + RBX]
    """

    def _mem_with_old(self, layout, old):
        memory = bytearray(layout.size)
        memory[64:72] = old.to_bytes(8, "little")
        return bytes(memory)

    def test_bypass_leaks_stale_value(self, layout):
        cpu = SpeculativeCPU(skylake(v4_patch=False), layout)
        trace, info = probe_run(
            cpu, parse_program(self.V4).linearize(),
            InputData(registers={"RAX": 0x80},
                      memory=self._mem_with_old(layout, 0x1C0)),
        )
        assert "bypass" in info.squashes
        assert 7 in trace  # stale 0x1C0 -> set 7

    def test_architectural_value_is_new(self, layout):
        cpu = SpeculativeCPU(skylake(v4_patch=False), layout)
        cpu.run(
            parse_program(self.V4).linearize(),
            InputData(registers={"RAX": 0x80},
                      memory=self._mem_with_old(layout, 0x1C0)),
        )
        assert cpu.state.read_register("RBX") == 0x80  # replayed correctly

    def test_v4_patch_disables_bypass(self, layout):
        cpu = SpeculativeCPU(skylake(v4_patch=True), layout)
        trace, info = probe_run(
            cpu, parse_program(self.V4).linearize(),
            InputData(registers={"RAX": 0x80},
                      memory=self._mem_with_old(layout, 0x1C0)),
        )
        assert info.squashes == []
        assert 7 not in trace

    def test_disambiguator_trains_and_decays(self, layout):
        cpu = SpeculativeCPU(skylake(v4_patch=False), layout)
        linear = parse_program(self.V4).linearize()
        input_data = InputData(registers={"RAX": 0x80},
                               memory=self._mem_with_old(layout, 0x1C0))
        bypasses = []
        for _ in range(4):
            _, info = probe_run(cpu, linear, input_data)
            bypasses.append("bypass" in info.squashes)
        assert bypasses == [True, False, True, False]

    def test_forwarding_when_address_ready(self, layout):
        # spacing the load three cycles after the store yields forwarding
        forwarded = """
            MOV qword ptr [R14 + 64], RAX
            NOP
            NOP
            NOP
            MOV RBX, qword ptr [R14 + 64]
            AND RBX, 0b111111000000
            MOV RCX, qword ptr [R14 + RBX]
        """
        cpu = SpeculativeCPU(skylake(v4_patch=False), layout)
        trace, info = probe_run(
            cpu, parse_program(forwarded).linearize(),
            InputData(registers={"RAX": 0x80},
                      memory=self._mem_with_old(layout, 0x1C0)),
        )
        assert info.squashes == []
        assert 7 not in trace  # no stale leak
        assert 2 in trace      # new value 0x80 -> set 2


class TestMicrocodeAssists:
    MDS = """
        MOV RAX, qword ptr [R14 + 8]
        MOV RBX, qword ptr [R14 + 4096]
        AND RBX, 0b111111000000
        MOV RCX, qword ptr [R14 + RBX]
    """

    def _secret_memory(self, layout, secret):
        memory = bytearray(layout.size)
        memory[8:16] = secret.to_bytes(8, "little")
        return bytes(memory)

    def test_assist_forwards_stale_lfb_value(self, layout):
        cpu = SpeculativeCPU(skylake(v4_patch=True), layout)
        linear = parse_program(self.MDS).linearize()
        cpu.clear_accessed_bit(layout.assist_page_index)
        cpu.cache.prime()
        info = cpu.run(linear, InputData(memory=self._secret_memory(layout, 0x2C0)))
        trace = sorted(cpu.cache.probe())
        assert info.assists_triggered == 1
        assert info.injected_values[0][0] == "stale"
        assert 11 in trace  # secret 0x2C0 -> set 11

    def test_assist_fires_once_per_clear(self, layout):
        cpu = SpeculativeCPU(skylake(), layout)
        linear = parse_program(self.MDS).linearize()
        cpu.clear_accessed_bit(layout.assist_page_index)
        info1 = cpu.run(linear, InputData())
        info2 = cpu.run(linear, InputData())
        assert info1.assists_triggered == 1
        assert info2.assists_triggered == 0  # accessed bit now set

    def test_no_assist_without_cleared_bit(self, layout):
        cpu = SpeculativeCPU(skylake(), layout)
        _, info = probe_run(
            cpu, parse_program(self.MDS).linearize(), InputData()
        )
        assert info.assists_triggered == 0

    def test_mds_patch_forwards_zero(self, layout):
        # the injected value must be zero on MDS-patched silicon (LVI-Null)
        cpu = SpeculativeCPU(coffee_lake(), layout)
        linear = parse_program(self.MDS).linearize()
        cpu.clear_accessed_bit(layout.assist_page_index)
        info = cpu.run(linear, InputData(memory=self._secret_memory(layout, 0x2C0)))
        assert info.injected_values and info.injected_values[0] == ("zero", 0)

    def test_assist_replay_is_architectural(self, layout):
        cpu = SpeculativeCPU(skylake(), layout)
        linear = parse_program(self.MDS).linearize()
        memory = bytearray(layout.size)
        memory[4096:4104] = (0x77).to_bytes(8, "little")
        cpu.clear_accessed_bit(layout.assist_page_index)
        cpu.run(linear, InputData(memory=bytes(memory)))
        assert cpu.state.read_register("RBX") == 0x77 & 0xFC0

    def test_store_buffer_preferred_over_lfb(self, layout):
        # Fallout: the newest store-buffer entry wins
        program = """
            MOV qword ptr [R14 + 8], RAX
            MOV RBX, qword ptr [R14 + 4096]
            AND RBX, 0b111111000000
            MOV RCX, qword ptr [R14 + RBX]
        """
        cpu = SpeculativeCPU(skylake(v4_patch=True), layout)
        cpu.clear_accessed_bit(layout.assist_page_index)
        cpu.cache.prime()
        cpu.run(parse_program(program).linearize(),
                InputData(registers={"RAX": 0x380}))
        assert 14 in cpu.cache.probe()  # 0x380 -> set 14


class TestSpeculativeStoreEviction:
    PROGRAM = """
        JNS .end
        AND RBX, 0b111111000000
        MOV qword ptr [R14 + RBX], RCX
    .end: NOP
    """

    def test_coffee_lake_speculative_store_touches_cache(self, layout):
        cpu = SpeculativeCPU(coffee_lake(), layout)
        trace, info = probe_run(
            cpu, parse_program(self.PROGRAM).linearize(),
            InputData(registers={"RBX": 0x1C0}),
        )
        assert info.squashes == ["cond"]
        assert 7 in trace

    def test_skylake_speculative_store_invisible(self, layout):
        cpu = SpeculativeCPU(skylake(), layout)
        trace, info = probe_run(
            cpu, parse_program(self.PROGRAM).linearize(),
            InputData(registers={"RBX": 0x1C0}),
        )
        assert info.squashes == ["cond"]
        assert 7 not in trace

    def test_memory_rolled_back_on_both(self, layout):
        for config in (skylake(), coffee_lake()):
            cpu = SpeculativeCPU(config, layout)
            cpu.run(parse_program(self.PROGRAM).linearize(),
                    InputData(registers={"RBX": 0x1C0, "RCX": 0x99}))
            assert cpu.state.read_memory(layout.base + 0x1C0, 8) == 0


class TestIndirectAndReturnSpeculation:
    def test_btb_misdirection(self, layout):
        program = """
            MOV RBX, .t1
            MOV RCX, .t2
            CMP RAX, 0
            CMOVNZ RBX, RCX
            JMP RBX
        .t1: NOP
            JMP .end
        .t2: AND RDX, 0b111111000000
            MOV RSI, qword ptr [R14 + RDX]
            JMP .end
        .end: NOP
        """
        linear = parse_program(program).linearize()
        cpu = SpeculativeCPU(skylake(), layout)
        # first run: target .t2 (trains BTB), no prediction yet
        probe_run(cpu, linear, InputData(registers={"RAX": 1, "RDX": 0x1C0}))
        # second run: target .t1, BTB says .t2 -> transient leak of RDX
        trace, info = probe_run(
            cpu, linear, InputData(registers={"RAX": 0, "RDX": 0x340})
        )
        assert "indirect" in info.squashes
        assert 13 in trace  # 0x340 -> set 13

    def test_ret2spec(self, layout):
        program = """
            MOV RDX, .other
            CALL .func
        .cont: AND RBX, 0b111111000000
            MOV RCX, qword ptr [R14 + RBX]
            JMP .end
        .func: MOV qword ptr [RSP], RDX
            RET
        .other: NOP
        .end: NOP
        """
        cpu = SpeculativeCPU(skylake(v4_patch=True), layout)
        trace, info = probe_run(
            cpu, parse_program(program).linearize(),
            InputData(registers={"RBX": 0x1C0}),
        )
        assert "ret" in info.squashes
        assert 7 in trace  # the .cont leak ran transiently

    def test_ret_speculation_disabled(self, layout):
        program = """
            MOV RDX, .other
            CALL .func
        .cont: AND RBX, 0b111111000000
            MOV RCX, qword ptr [R14 + RBX]
            JMP .end
        .func: MOV qword ptr [RSP], RDX
            RET
        .other: NOP
        .end: NOP
        """
        config = skylake(v4_patch=True).with_overrides(
            return_stack_speculation=False
        )
        cpu = SpeculativeCPU(config, layout)
        trace, info = probe_run(
            cpu, parse_program(program).linearize(),
            InputData(registers={"RBX": 0x1C0}),
        )
        assert "ret" not in info.squashes
        assert 7 not in trace


class TestLatencyRace:
    """The §6.3 mechanism: DIV latency gates a transient access."""

    V1_VAR = """
        JNZ .end
        MOV RDX, 0
        OR RBX, 1
        DIV RBX
        AND RAX, 0b111111000000
        MOV RDI, qword ptr [R14 + RAX]
    .end: NOP
    """

    def _run(self, layout, dividend):
        cpu = SpeculativeCPU(skylake(), layout)
        linear = parse_program(self.V1_VAR).linearize()
        # ZF clear -> branch taken architecturally; predictor fresh
        # (weakly not-taken) -> the div+load path runs transiently
        cpu.cache.prime()
        info = cpu.run(linear, InputData(registers={"RAX": dividend, "RBX": 0}))
        return sorted(cpu.cache.probe()), info

    def test_fast_division_leaks(self, layout):
        trace, info = self._run(layout, 5)
        assert info.squashes == ["cond"]
        assert 0 in trace  # quotient 5 -> set 0

    def test_slow_division_does_not_leak(self, layout):
        trace, info = self._run(layout, (1 << 62) + 5)
        assert info.squashes == ["cond"]
        assert trace == []  # division outlasted the speculation window

    def test_latency_is_the_only_difference(self, layout):
        # both quotients map to the same cache set; only timing differs
        fast, _ = self._run(layout, 5)
        slow, _ = self._run(layout, (1 << 62) + 5)
        assert fast != slow


class TestGalleryPin:
    """Every gallery gadget under every CPU preset and executor mode,
    pinned to one digest of the hardware traces and every run's
    diagnostics. It covers the assist, store-bypass, return, indirect
    and speculative-store paths of ``SpeculativeCPU.run`` that a clean
    fuzzing campaign never takes."""

    #: sha1 computed before the CPU loop was restructured
    DIGEST = "f7ead4e7167e46abc59188137829df4bfd461d4b"
    #: squash kinds over the same runs, so the pin is not vacuous
    SQUASHES = {
        "assist": 3456, "bypass": 432, "cond": 5580, "indirect": 288,
        "ret": 1728,
    }

    def test_traces_and_run_infos_are_pinned(self):
        digest = hashlib.sha1()
        squashes = Counter()
        for name, gadget in GALLERY.items():
            arch = get_architecture(gadget.arch)
            program = gadget.program()
            # 24 inputs: with 12 the V2 gadget never mispredicts
            inputs = InputGenerator(
                seed=7,
                entropy_bits=gadget.entropy_bits,
                registers=arch.default_register_pool,
                flag_bits=arch.registers.flag_bits,
            ).generate(24)
            for cpu_name in preset_names():
                for mode_name in mode_names():
                    executor = Executor(
                        preset(cpu_name), measurement_mode(mode_name), arch=arch
                    )
                    traces = executor.collect_hardware_traces(program, inputs)
                    digest.update(repr((
                        name, cpu_name, mode_name,
                        [trace.bitmap() for trace in traces],
                    )).encode())
                    for info in executor.stats.run_infos:
                        digest.update(repr((
                            info.instructions_executed,
                            info.squashes,
                            info.assists_triggered,
                            info.speculative_accesses,
                            info.injected_values,
                        )).encode())
                        squashes.update(info.squashes)
        assert len(GALLERY) == 15
        assert dict(squashes) == self.SQUASHES
        assert digest.hexdigest() == self.DIGEST


class TestRunExits:
    """How ``SpeculativeCPU.run`` leaves its loop: a fault on the wrong
    path squashes, an architectural fault propagates, the instruction
    count includes the wrong path, and the step limit raises."""

    PROGRAMS = {
        "x86_64": (
            """
            CMP RAX, 0
            JNZ .skip
            MOV RBX, qword ptr [R14 + RCX]
        .skip: NOP
            """,
            "RAX", "RCX",
        ),
        "aarch64": (
            """
            CMP X0, #0
            B.NE .skip
            LDR X1, [X27, X2]
        .skip: NOP
            """,
            "X0", "X2",
        ),
    }

    def _run(self, arch_name, selector, offset, **kwargs):
        arch = get_architecture(arch_name)
        text, selector_reg, offset_reg = self.PROGRAMS[arch_name]
        cpu = SpeculativeCPU(skylake(), SandboxLayout(), arch)
        linear = arch.parse_program(text).linearize()
        return cpu.run(
            linear,
            InputData(registers={selector_reg: selector, offset_reg: offset}),
            **kwargs,
        )

    @pytest.mark.parametrize("arch_name", ["x86_64", "aarch64"])
    def test_wrong_path_fault_squashes(self, arch_name):
        # the branch is taken, the fresh predictor says not taken: the
        # out-of-sandbox load runs only on the wrong path
        info = self._run(arch_name, 1, 1 << 20)
        assert info.squashes == ["cond"]
        assert info.instructions_executed == 3

    @pytest.mark.parametrize("arch_name", ["x86_64", "aarch64"])
    def test_architectural_fault_raises(self, arch_name):
        with pytest.raises(SandboxViolation):
            self._run(arch_name, 0, 1 << 20)

    @pytest.mark.parametrize("arch_name", ["x86_64", "aarch64"])
    def test_count_includes_wrong_path(self, arch_name):
        info = self._run(arch_name, 1, 0)
        assert info.squashes == ["cond"]
        assert info.instructions_executed == 5

    @pytest.mark.parametrize("arch_name", ["x86_64", "aarch64"])
    def test_step_limit_raises(self, arch_name):
        with pytest.raises(ExecutionLimitExceeded):
            self._run(arch_name, 1, 0, max_steps=3)
        # the limit is checked before the end of the program is: a run
        # of exactly max_steps instructions raises too
        with pytest.raises(ExecutionLimitExceeded):
            self._run(arch_name, 1, 0, max_steps=5)
        assert self._run(arch_name, 1, 0, max_steps=6).instructions_executed == 5


class TestTimingRules:
    """Two timing rules of the dataflow model that the gallery gadgets
    do not reach: where a store's address-ready cycle comes from, and
    that a load's address is taken before the load overwrites it."""

    def test_store_address_resolves_from_the_dataflow_cycle(self, layout):
        program = parse_program(
            """
            MOV RBX, qword ptr [R14 + 128]
            MOV dword ptr [R14 + RBX + 64], EAX
            ADD qword ptr [R14 + 64], RCX
            MOV RDX, qword ptr [R14 + 64]
            """
        )
        cpu = SpeculativeCPU(skylake(v4_patch=False), layout)
        issued = []
        info = cpu.run(
            program.linearize(),
            InputData(registers={"RAX": 1, "RCX": 2}),
            trace_hook=lambda pc, cycle, speculative: issued.append(
                (pc, cycle, speculative)
            ),
        )
        # pc 1, a pure store, issues on its data (EAX), not on the
        # missing load that produces RBX: its address resolves at
        # 30 + 3 = 33. pc 2 partially overlaps it and stalls to 33, but
        # its own store's address resolves from its dataflow cycle,
        # 2 + 3 = 5, so pc 3 forwards from it instead of bypassing it
        assert issued == [(0, 0, False), (1, 1, False), (2, 33, False),
                          (3, 34, False)]
        assert info.squashes == []
        assert cpu.state.read_register("RDX") == 3

    @pytest.mark.parametrize("arch_name,text,registers", [
        ("x86_64",
         """
         MOV qword ptr [R14 + 64], RCX
         MOV RAX, qword ptr [R14 + RAX]
         AND RAX, 0b111111000000
         MOV RBX, qword ptr [R14 + RAX]
         """,
         {"RAX": 64, "RCX": 0x80}),
        ("aarch64",
         """
         STR X1, [X27, #64]
         LDR X0, [X27, X0]
         AND X0, X0, #0b111111000000
         LDR X2, [X27, X0]
         """,
         {"X0": 64, "X1": 0x80}),
    ], ids=["x86_64", "aarch64"])
    def test_bypass_uses_the_address_before_the_load(self, arch_name, text,
                                                     registers, layout):
        # the load overwrites its own index register with 0x80; the
        # bypass must still see the address it loads from, 64
        arch = get_architecture(arch_name)
        memory = bytearray(layout.size)
        memory[64:72] = (0x1C0).to_bytes(8, "little")
        cpu = SpeculativeCPU(skylake(v4_patch=False), layout, arch)
        trace, info = probe_run(
            cpu, arch.parse_program(text).linearize(),
            InputData(registers=registers, memory=bytes(memory)),
        )
        assert info.squashes == ["bypass"]
        assert info.speculative_accesses == [
            ("bypass", layout.base + 64), ("bypass", layout.base + 0x1C0),
        ]
        assert 7 in trace  # the stale 0x1C0 leaks through set 7
