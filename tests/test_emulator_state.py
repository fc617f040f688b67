"""Unit tests for architectural state and the sandbox."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import get_architecture
from repro.core.input_gen import InputGenerator
from repro.emulator.errors import SandboxViolation
from repro.emulator.state import ArchState, InputData, SandboxLayout, PAGE_SIZE
from repro.gallery import GALLERY
from repro.uarch.config import skylake
from repro.uarch.cpu import SpeculativeCPU


class TestSandboxLayout:
    def test_default_geometry(self):
        layout = SandboxLayout()
        assert layout.num_pages == 2
        assert layout.size == 2 * PAGE_SIZE
        assert layout.end == layout.base + 8192

    def test_contains(self):
        layout = SandboxLayout()
        assert layout.contains(layout.base)
        assert layout.contains(layout.end - 8, 8)
        assert not layout.contains(layout.end - 4, 8)
        assert not layout.contains(layout.base - 1)

    def test_page_of(self):
        layout = SandboxLayout()
        assert layout.page_of(layout.base) == 0
        assert layout.page_of(layout.base + PAGE_SIZE) == 1

    def test_assist_page_is_last(self):
        assert SandboxLayout().assist_page_index == 1
        assert SandboxLayout(num_pages=1).assist_page_index == 0

    def test_stack_top_inside_sandbox(self):
        layout = SandboxLayout()
        assert layout.contains(layout.stack_top, 8)


class TestRegisters:
    def test_64bit_write_read(self):
        state = ArchState()
        state.write_register("RAX", 0x123456789ABCDEF0)
        assert state.read_register("RAX") == 0x123456789ABCDEF0

    def test_32bit_write_zero_extends(self):
        state = ArchState()
        state.write_register("RAX", 0xFFFFFFFFFFFFFFFF)
        state.write_register("EAX", 0x12345678)
        assert state.read_register("RAX") == 0x12345678

    def test_16bit_write_merges(self):
        state = ArchState()
        state.write_register("RAX", 0x1111111111111111)
        state.write_register("AX", 0xFFFF)
        assert state.read_register("RAX") == 0x111111111111FFFF

    def test_8bit_write_merges(self):
        state = ArchState()
        state.write_register("RBX", 0x2222222222222222)
        state.write_register("BL", 0xAB)
        assert state.read_register("RBX") == 0x22222222222222AB

    def test_narrow_reads_masked(self):
        state = ArchState()
        state.write_register("RCX", 0xDEADBEEFCAFEBABE)
        assert state.read_register("ECX") == 0xCAFEBABE
        assert state.read_register("CX") == 0xBABE
        assert state.read_register("CL") == 0xBE

    def test_values_wrap_to_64_bits(self):
        state = ArchState()
        state.write_register("RAX", 1 << 70)
        assert state.read_register("RAX") == 0

    def test_r14_holds_sandbox_base(self):
        state = ArchState()
        assert state.read_register("R14") == state.layout.base

    def test_rsp_holds_stack_top(self):
        state = ArchState()
        assert state.read_register("RSP") == state.layout.stack_top


class TestMemory:
    def test_little_endian_roundtrip(self):
        state = ArchState()
        state.write_memory(state.layout.base, 8, 0x0102030405060708)
        assert state.read_memory(state.layout.base, 8) == 0x0102030405060708
        assert state.read_memory(state.layout.base, 1) == 0x08

    def test_write_masks_to_size(self):
        state = ArchState()
        state.write_memory(state.layout.base, 1, 0x1FF)
        assert state.read_memory(state.layout.base, 1) == 0xFF

    def test_out_of_sandbox_read_raises(self):
        state = ArchState()
        with pytest.raises(SandboxViolation):
            state.read_memory(state.layout.end, 1)

    def test_out_of_sandbox_write_raises(self):
        state = ArchState()
        with pytest.raises(SandboxViolation):
            state.write_memory(state.layout.base - 8, 8, 0)

    def test_straddling_end_raises(self):
        state = ArchState()
        with pytest.raises(SandboxViolation):
            state.read_memory(state.layout.end - 4, 8)


class TestInputLoading:
    def test_load_input_sets_everything(self):
        state = ArchState()
        state.write_register("RAX", 999)
        input_data = InputData(
            registers={"RAX": 0x40, "RBX": 0x80},
            flags={"ZF": True},
            memory=b"\xAA" * 16,
        )
        state.load_input(input_data)
        assert state.read_register("RAX") == 0x40
        assert state.read_register("RBX") == 0x80
        assert state.read_register("RCX") == 0  # reset
        assert state.read_flag("ZF") and not state.read_flag("CF")
        assert state.read_memory(state.layout.base, 1) == 0xAA
        assert state.read_memory(state.layout.base + 16, 1) == 0  # zero-filled

    def test_load_input_resets_previous_memory(self):
        state = ArchState()
        state.write_memory(state.layout.base + 100, 1, 0xFF)
        state.load_input(InputData())
        assert state.read_memory(state.layout.base + 100, 1) == 0

    def test_load_input_preserves_fixed_registers(self):
        state = ArchState()
        state.load_input(InputData(registers={"R14": 0, "RSP": 0}))
        # R14/RSP are reset to their sandbox roles after input load
        assert state.read_register("R14") == state.layout.base
        assert state.read_register("RSP") == state.layout.stack_top

    def test_unknown_flag_rejected(self):
        state = ArchState()
        with pytest.raises(KeyError):
            state.load_input(InputData(flags={"XX": True}))


class TestSnapshots:
    def test_snapshot_restore(self):
        state = ArchState()
        state.write_register("RAX", 1)
        state.write_flag("CF", True)
        state.write_memory(state.layout.base, 8, 42)
        snapshot = state.snapshot()
        state.write_register("RAX", 2)
        state.write_flag("CF", False)
        state.write_memory(state.layout.base, 8, 43)
        state.restore(snapshot)
        assert state.read_register("RAX") == 1
        assert state.read_flag("CF")
        assert state.read_memory(state.layout.base, 8) == 42

    def test_snapshot_is_immutable_copy(self):
        state = ArchState()
        snapshot = state.snapshot()
        state.write_register("RAX", 7)
        state.restore(snapshot)
        assert state.read_register("RAX") == 0


class TestInputData:
    def test_fingerprint_stable(self):
        a = InputData(registers={"RAX": 1}, memory=b"ab")
        b = InputData(registers={"RAX": 1}, memory=b"ab")
        assert a.fingerprint() == b.fingerprint()

    def test_fingerprint_differs(self):
        a = InputData(registers={"RAX": 1})
        b = InputData(registers={"RAX": 2})
        assert a.fingerprint() != b.fingerprint()

    def test_repr_mentions_seed(self):
        assert "seed=5" in repr(InputData(seed=5))


def _reference_load_input(state, input_data):
    """``load_input`` as a per-register loop: reset every register and
    flag, write each input register through ``RegisterFile.canonical``
    and ``width``, then restore the fixed registers (the model
    ``load_input`` and ``write_register`` must reproduce)."""
    regfile = state.arch.registers
    for name in regfile.gpr_names:
        state.registers[name] = 0
    for flag in regfile.flag_bits:
        state.flags[flag] = False
    for name, value in input_data.registers.items():
        canonical = regfile.canonical(name)
        mask = (1 << regfile.width(name)) - 1
        value &= mask
        if regfile.width(name) >= 32:
            state.registers[canonical] = value
        else:
            state.registers[canonical] = (state.registers[canonical] & ~mask) | value
    for flag, value in input_data.flags.items():
        if flag not in state.flags:
            raise KeyError(f"unknown flag: {flag!r}")
        state.flags[flag] = bool(value)
    size = state.layout.size
    data = input_data.memory[:size]
    state.memory[: len(data)] = data
    state.memory[len(data) : size] = bytes(size - len(data))
    state.registers[regfile.sandbox_base_register] = state.layout.base
    if regfile.stack_register is not None:
        state.registers[regfile.stack_register] = state.layout.stack_top


#: per ISA: register names (full width, narrow views, the fixed
#: registers, a lower-case spelling) and a program whose first run
#: mispredicts, so the CPU restores a checkpoint and swaps the state's
#: containers, after writing registers, flags and memory
_LOAD_CASES = {
    "x86_64": (
        ("RAX", "EAX", "AX", "AL", "RBX", "BL", "R9", "R9D", "R14", "RSP",
         "rcx"),
        """
        MOV qword ptr [R14 + 64], RAX
        ADD RBX, 7
        CMP RAX, 0
        JNZ .end
        MOV qword ptr [R14 + 128], RBX
        SUB RCX, 1
    .end: NOP
        """,
    ),
    "aarch64": (
        ("X0", "W0", "X1", "W1", "X5", "X27", "x2"),
        """
        STR X0, [X27, #64]
        ADD X1, X1, #7
        CMP X0, #0
        B.NE .end
        STR X1, [X27, #128]
        SUB X2, X2, #1
    .end: NOP
        """,
    ),
}


def _dirty_state(arch_name):
    """A CPU state that a run left dirty after a speculative rollback."""
    arch = get_architecture(arch_name)
    program = arch.parse_program(_LOAD_CASES[arch_name][1]).linearize()
    cpu = SpeculativeCPU(skylake(), SandboxLayout(), arch)
    info = cpu.run(program, InputData(
        registers=dict.fromkeys(arch.default_register_pool, 0x1C0),
        flags=dict.fromkeys(arch.registers.flag_bits, True),
        memory=b"\x5A" * 300,
    ))
    assert info.squashes == ["cond"]
    return cpu.state


@st.composite
def _load_inputs(draw):
    arch_name = draw(st.sampled_from(sorted(_LOAD_CASES)))
    arch = get_architecture(arch_name)
    names = _LOAD_CASES[arch_name][0]
    registers = draw(st.dictionaries(
        st.sampled_from(names),
        st.integers(-(1 << 70), 1 << 72),
        max_size=len(names),
    ))
    flags = draw(st.dictionaries(
        st.sampled_from(arch.registers.flag_bits),
        st.one_of(st.booleans(), st.integers(0, 3)),
    ))
    size = SandboxLayout().size
    length = draw(st.sampled_from([0, 1, 77, size - 1, size, size + 1, size + 300]))
    fill = draw(st.integers(0, 255))
    memory = bytes((fill + 31 * i) & 0xFF for i in range(length))
    return arch_name, InputData(registers=registers, flags=flags, memory=memory)


class TestLoadInputMatchesReference:
    """``load_input`` against the per-register reference loop, on a fresh
    state and on one a speculative CPU run left dirty."""

    @staticmethod
    def _loaded(state, input_data, load):
        load(state, input_data)
        return dict(state.registers), dict(state.flags), bytes(state.memory)

    @settings(max_examples=60, deadline=None)
    @given(case=_load_inputs())
    def test_fresh_and_dirty_states(self, case):
        arch_name, input_data = case
        arch = get_architecture(arch_name)
        expected = self._loaded(
            ArchState(SandboxLayout(), arch), input_data, _reference_load_input
        )
        for state in (ArchState(SandboxLayout(), arch), _dirty_state(arch_name)):
            loaded = self._loaded(state, input_data, ArchState.load_input)
            assert loaded == expected
            assert len(state.memory) == state.layout.size

    @pytest.mark.parametrize("arch_name", sorted(_LOAD_CASES))
    def test_fixed_registers_override_input(self, arch_name):
        arch = get_architecture(arch_name)
        regfile = arch.registers
        fixed = [regfile.sandbox_base_register]
        if regfile.stack_register is not None:
            fixed.append(regfile.stack_register)
        for state in (ArchState(SandboxLayout(), arch), _dirty_state(arch_name)):
            state.load_input(InputData(registers=dict.fromkeys(fixed, 0x40)))
            assert state.registers[regfile.sandbox_base_register] == state.layout.base
            if regfile.stack_register is not None:
                assert state.registers[regfile.stack_register] == state.layout.stack_top

    @pytest.mark.parametrize("arch_name", sorted(_LOAD_CASES))
    def test_unknown_names_raise(self, arch_name):
        arch = get_architecture(arch_name)
        for state in (ArchState(SandboxLayout(), arch), _dirty_state(arch_name)):
            with pytest.raises(ValueError, match="unknown register"):
                state.load_input(InputData(registers={"NOPE": 1}))
            with pytest.raises(KeyError, match="unknown flag"):
                state.load_input(InputData(flags={"NOPE": True}))


class TestInitialStateParity:
    """The CPU reuses one state across runs; the contract model and the
    battery build a fresh one per input. Both must start from the same
    registers, flags and memory."""

    @pytest.mark.parametrize("arch_name", sorted(_LOAD_CASES))
    def test_reused_cpu_state_equals_fresh_state(self, arch_name):
        arch = get_architecture(arch_name)
        layout = SandboxLayout()
        gadgets = [g for g in GALLERY.values() if g.arch == arch_name]
        nop = arch.parse_program("NOP").linearize()
        cpu = SpeculativeCPU(skylake(), layout, arch)
        inputs = InputGenerator(
            seed=5,
            registers=arch.default_register_pool,
            flag_bits=arch.registers.flag_bits,
        ).generate(6)
        for position, input_data in enumerate(inputs):
            # leave the reused state dirty with a gadget run first
            gadget = gadgets[position % len(gadgets)]
            cpu.run(gadget.program().linearize(), inputs[position - 1])
            cpu.run(nop, input_data)
            fresh = ArchState(layout, arch)
            fresh.load_input(input_data)
            assert cpu.state.registers == fresh.registers
            assert cpu.state.flags == fresh.flags
            assert cpu.state.memory == fresh.memory
