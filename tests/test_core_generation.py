"""Tests for test-case generation (§5.1) and input generation (§5.2)."""

import hashlib
import random

import pytest

from repro.arch import get_architecture
from repro.isa.instruction_set import instruction_subset
from repro.emulator.machine import Emulator
from repro.emulator.state import InputData, SandboxLayout
from repro.core.config import GeneratorConfig
from repro.core.generator import TestCaseGenerator
from repro.core.input_gen import InputGenerator


@pytest.fixture
def layout():
    return SandboxLayout()


def generate_programs(subsets, count=10, seed=0, config=None, layout=None):
    generator = TestCaseGenerator(
        instruction_subset(subsets), config, layout, seed=seed
    )
    return [generator.generate() for _ in range(count)]


class TestGeneratorStructure:
    def test_programs_are_dags(self, layout):
        for program in generate_programs(["AR", "MEM", "CB"], layout=layout):
            program.validate_dag()

    def test_block_count_respected(self, layout):
        config = GeneratorConfig(basic_blocks=4)
        for program in generate_programs(
            ["AR", "CB"], config=config, layout=layout
        ):
            assert len(program.blocks) == 4

    def test_instruction_budget(self, layout):
        config = GeneratorConfig(instructions_per_test=10, memory_accesses=0)
        for program in generate_programs(
            ["AR"], config=config, layout=layout
        ):
            body = sum(len(block.body) for block in program.blocks)
            assert body == 10  # no instrumentation without memory/div

    def test_memory_quota(self, layout):
        config = GeneratorConfig(instructions_per_test=8, memory_accesses=3)
        for program in generate_programs(
            ["AR", "MEM"], config=config, layout=layout, count=20
        ):
            memory_ops = sum(
                1
                for instruction in program.all_instructions()
                if instruction.is_load or instruction.is_store
            )
            assert memory_ops == 3

    def test_register_pool_respected(self, layout):
        pool = {"RAX", "RBX", "RCX", "RDX", "R14", "RSP"}  # + fixed regs
        for program in generate_programs(["AR", "MEM", "CB"], layout=layout):
            for instruction in program.all_instructions():
                used = set(instruction.registers_read()) | set(
                    instruction.registers_written()
                )
                assert used <= pool, str(instruction)

    def test_no_control_flow_without_cb(self, layout):
        for program in generate_programs(["AR", "MEM"], layout=layout):
            assert not any(
                instruction.is_control_flow
                for instruction in program.all_instructions()
            )

    def test_deterministic_per_seed(self, layout):
        from repro.isa.assembler import render_program

        first = generate_programs(["AR", "MEM", "CB"], seed=5, layout=layout)
        second = generate_programs(["AR", "MEM", "CB"], seed=5, layout=layout)
        assert [render_program(p) for p in first] == [
            render_program(p) for p in second
        ]


class TestInstrumentation:
    def test_memory_operands_masked(self, layout):
        """Every memory operand's index register is AND-masked right
        before the access (the paper's sandboxing instrumentation)."""
        for program in generate_programs(["AR", "MEM"], layout=layout, count=20):
            for block in program.blocks:
                for position, instruction in enumerate(block.body):
                    for operand, _, _ in instruction.memory_accesses():
                        if operand.index is None:
                            continue
                        preceding = [str(i) for i in block.body[:position]]
                        assert any(
                            text.startswith(f"AND {operand.index},")
                            for text in preceding
                        ), f"unmasked access: {instruction}"

    def test_generated_programs_never_fault(self, layout):
        """Instrumentation guarantees fault-free execution (§5.1 step 4)."""
        input_gen = InputGenerator(seed=1, layout=layout)
        programs = generate_programs(
            ["AR", "MEM", "VAR", "CB"], count=30, seed=7, layout=layout
        )
        for program in programs:
            emulator = Emulator(program, layout)
            for input_data in input_gen.generate(5):
                emulator.run(input_data)  # must not raise

    def test_accesses_stay_in_sandbox(self, layout):
        input_gen = InputGenerator(seed=2, layout=layout)
        for program in generate_programs(
            ["AR", "MEM"], count=15, seed=3, layout=layout
        ):
            emulator = Emulator(program, layout)
            for input_data in input_gen.generate(3):
                for result in emulator.run(input_data):
                    for access in result.mem_accesses:
                        assert layout.contains(access.address, access.size)

    def test_division_guards_present(self, layout):
        programs = generate_programs(
            ["AR", "VAR"],
            count=30,
            seed=1,
            config=GeneratorConfig(instructions_per_test=6),
            layout=layout,
        )
        divisions = 0
        for program in programs:
            instructions = list(program.all_instructions())
            for position, instruction in enumerate(instructions):
                if instruction.mnemonic in ("DIV", "IDIV"):
                    divisions += 1
                    preceding = [str(i) for i in instructions[:position]]
                    assert "MOV RDX, 0" in preceding
        assert divisions > 0, "no divisions sampled; increase count"

    def test_two_page_sandbox_mask(self, layout):
        config = GeneratorConfig(sandbox_pages=2)
        generator = TestCaseGenerator(
            instruction_subset(["AR", "MEM"]), config, layout, seed=0
        )
        assert generator._address_mask() == 2 * 4096 - 64

    def test_offset_keeps_accesses_inside(self, layout):
        config = GeneratorConfig(sandbox_pages=2, randomize_offset=True)
        generator = TestCaseGenerator(
            instruction_subset(["AR", "MEM"]), config, layout, seed=0
        )
        input_gen = InputGenerator(seed=2, entropy_bits=32, layout=layout)
        for _ in range(10):
            program = generator.generate()
            emulator = Emulator(program, layout)
            for input_data in input_gen.generate(2):
                emulator.run(input_data)  # no SandboxViolation

    def test_grown_config(self):
        config = GeneratorConfig(instructions_per_test=10, basic_blocks=2,
                                 memory_accesses=2)
        grown = config.grown()
        assert grown.instructions_per_test == 15
        assert grown.basic_blocks == 3
        assert grown.memory_accesses == 3


class TestInputGenerator:
    def test_entropy_masking(self, layout):
        generator = InputGenerator(seed=0, entropy_bits=2, layout=layout)
        for input_data in generator.generate(20):
            for value in input_data.registers.values():
                assert value % 64 == 0
                assert value < 4 << 6

    def test_memory_filled(self, layout):
        generator = InputGenerator(seed=0, entropy_bits=2, layout=layout)
        input_data = generator.generate_one()
        assert len(input_data.memory) == layout.size
        words = {
            int.from_bytes(input_data.memory[i : i + 8], "little")
            for i in range(0, 64, 8)
        }
        assert words <= {0, 64, 128, 192}

    def test_deterministic_per_seed(self, layout):
        a = InputGenerator(seed=3, layout=layout).generate(5)
        b = InputGenerator(seed=3, layout=layout).generate(5)
        assert [x.fingerprint() for x in a] == [x.fingerprint() for x in b]

    def test_explicit_input_seed(self, layout):
        generator = InputGenerator(seed=0, layout=layout)
        a = generator.generate_one(input_seed=77)
        b = generator.generate_one(input_seed=77)
        assert a.fingerprint() == b.fingerprint()

    def test_explicit_input_seed_leaves_the_prng_alone(self, layout):
        """Only seed-less inputs draw from the generator's PRNG, so an
        explicit-seed input in between shifts no later input."""
        generator = InputGenerator(seed=0, layout=layout)
        generator.generate_one(input_seed=77)
        fresh = InputGenerator(seed=0, layout=layout)
        assert generator.generate_one() == fresh.generate_one()

    def test_higher_entropy_more_values(self, layout):
        low = InputGenerator(seed=0, entropy_bits=1, layout=layout)
        high = InputGenerator(seed=0, entropy_bits=16, layout=layout)
        low_values = {v for i in low.generate(30) for v in i.registers.values()}
        high_values = {v for i in high.generate(30) for v in i.registers.values()}
        assert len(high_values) > len(low_values)

    def test_entropy_bounds_validated(self, layout):
        with pytest.raises(ValueError):
            InputGenerator(entropy_bits=0, layout=layout)
        with pytest.raises(ValueError):
            InputGenerator(entropy_bits=64, layout=layout)

    def test_default_layout_not_shared(self):
        """Regression: the default SandboxLayout must be built per
        generator (a dataclass default would be one class-level
        instance shared by every generator)."""
        assert InputGenerator().layout is not InputGenerator().layout

    def test_flags_randomized(self, layout):
        generator = InputGenerator(seed=0, layout=layout)
        flags = {
            flag: {input_data.flags[flag] for input_data in generator.generate(30)}
            for flag in ("SF", "ZF", "CF")
        }
        for flag, values in flags.items():
            assert values == {True, False}, flag

    def test_effectiveness_improves_with_lower_entropy(self, layout):
        """The paper's CH2 trade-off: less entropy, more trace collisions."""
        from repro.contracts import get_contract
        from repro.core.analyzer import RelationalAnalyzer
        from repro.isa.assembler import parse_program

        program = parse_program(
            "AND RBX, 0b111111000000\nMOV RAX, qword ptr [R14 + RBX]"
        )
        contract = get_contract("CT-SEQ")
        analyzer = RelationalAnalyzer()
        scores = {}
        for bits in (1, 10):
            generator = InputGenerator(seed=5, entropy_bits=bits, layout=layout)
            inputs = generator.generate(20)
            ctraces = [
                contract.collect_trace(program, input_data, layout)
                for input_data in inputs
            ]
            classes, singles = analyzer.build_classes(ctraces)
            scores[bits] = sum(c.size for c in classes) / 20
        assert scores[1] >= scores[10]


# -- reference oracle for the bulk sandbox draw --------------------------------


def _per_word_input(input_seed, entropy_bits, registers, flag_bits, layout,
                    randomize_flags=True):
    """One input built one PRNG call per register, flag and sandbox word:
    the generator's original loop, kept here as the oracle."""
    rng = random.Random(input_seed)

    def value():
        return (rng.getrandbits(32) & ((1 << entropy_bits) - 1)) << 6

    values = {name: value() for name in registers}
    flags = (
        {flag: bool(rng.getrandbits(1)) for flag in flag_bits}
        if randomize_flags
        else {}
    )
    memory = bytearray(layout.size)
    for offset in range(0, layout.size, 8):
        memory[offset : offset + 8] = value().to_bytes(8, "little")
    return InputData(values, flags, bytes(memory), input_seed)


def _per_word_inputs(seed, count, **kwargs):
    outer = random.Random(seed)
    return [
        _per_word_input(outer.getrandbits(32), **kwargs) for _ in range(count)
    ]


def _pool(arch_name):
    arch = get_architecture(arch_name)
    return {
        "registers": arch.default_register_pool,
        "flag_bits": arch.registers.flag_bits,
    }


class TestBulkSandboxDraw:
    """The one-call sandbox draw reproduces the per-word loop exactly:
    registers, flags, memory and seed, input by input."""

    @pytest.mark.parametrize("num_pages", [1, 2])
    @pytest.mark.parametrize("entropy_bits", [1, 2, 3, 8, 16, 31, 32])
    @pytest.mark.parametrize("arch_name", ["x86_64", "aarch64"])
    def test_matches_per_word_loop(self, arch_name, entropy_bits, num_pages):
        layout = SandboxLayout(num_pages=num_pages)
        config = dict(entropy_bits=entropy_bits, layout=layout, **_pool(arch_name))
        for seed in range(50):
            generated = InputGenerator(seed=seed, **config).generate(2)
            assert generated == _per_word_inputs(seed, 2, **config)

    @pytest.mark.parametrize("arch_name", ["x86_64", "aarch64"])
    def test_explicit_seed_and_fixed_flags(self, arch_name):
        layout = SandboxLayout()
        config = dict(entropy_bits=5, layout=layout, randomize_flags=False,
                      **_pool(arch_name))
        generator = InputGenerator(seed=9, **config)
        assert generator.generate_one(input_seed=77) == _per_word_input(77, **config)
        assert generator.generate(3) == _per_word_inputs(9, 3, **config)
        assert all(not input_data.flags for input_data in generator.generate(3))

    @pytest.mark.parametrize("entropy_bits, digest", [
        (2, "90b5af8b40dad3fc0a3474a07d67dff0e02a56a0"),
        (31, "673ce430e8e0ce527d4f498b946e9760e4bd5e32"),
    ])
    def test_memory_image_digest_is_pinned(self, entropy_bits, digest):
        """Independent of both implementations above: the sha1 of one
        sandbox image as the per-word loop generated it."""
        generator = InputGenerator(seed=3, entropy_bits=entropy_bits,
                                   layout=SandboxLayout(), **_pool("x86_64"))
        input_data = generator.generate(2)[1]
        assert input_data.seed == 2545373330
        assert hashlib.sha1(input_data.memory).hexdigest() == digest
