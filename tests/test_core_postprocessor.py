"""Tests for counterexample minimization (§5.7)."""

import pytest

from repro.isa.assembler import parse_program, render_program
from repro.core.config import FuzzerConfig
from repro.core.fuzzer import TestingPipeline
from repro.core.input_gen import InputGenerator
from repro.core.postprocessor import MinimizationResult, Postprocessor


def _result_for(program):
    return MinimizationResult(
        program=program,
        inputs=[],
        original_instruction_count=program.num_instructions,
        original_input_count=0,
    )


class TestLeakRegion:
    def test_fence_shields_all_following_instructions(self):
        """Regression: an LFENCE delimits the whole fence-shielded region,
        not just the single instruction after it (Figure 4)."""
        program = parse_program(
            "MOV RAX, 1\nLFENCE\nMOV RBX, 2\nMOV RCX, 3"
        )
        assert _result_for(program).leak_region() == ["MOV RAX, 1"]

    def test_speculation_source_reopens_region(self):
        """A branch after a fence can start a new speculative path, so it
        reopens the leak region."""
        program = parse_program(
            """
            LFENCE
            JNS .end
            MOV RCX, qword ptr [R14 + 64]
        .end: NOP
            """
        )
        region = _result_for(program).leak_region()
        assert region[0] == "JNS .end"
        assert "MOV RCX, qword ptr [R14 + 64]" in region

    def test_unfenced_program_is_all_region(self):
        program = parse_program("MOV RAX, 1\nMOV RBX, 2")
        assert len(_result_for(program).leak_region()) == 2


@pytest.fixture(scope="module")
def pipeline():
    return TestingPipeline(
        FuzzerConfig(
            contract_name="CT-SEQ",
            cpu_preset="skylake-v4-patched",
            seed=0,
        )
    )


@pytest.fixture(scope="module")
def violating_case(pipeline):
    """A V1 gadget padded with irrelevant instructions, plus inputs."""
    # padding must not write FLAGS before the branch (MOVs only), or the
    # input-controlled branch direction would be destroyed
    program = parse_program(
        """
        MOV RDX, 7
        MOV RSI, RDX
        JNS .end
        AND RBX, 0b111111000000
        MOV RCX, qword ptr [R14 + RBX]
        XOR RDX, RDX
    .end: NOP
        """
    )
    inputs = InputGenerator(seed=42, layout=pipeline.layout).generate(40)
    assert pipeline.check_violation(program, inputs) is not None
    return program, inputs


class TestMinimization:
    def test_rejects_non_violating_case(self, pipeline):
        program = parse_program("NOP\nNOP")
        inputs = InputGenerator(seed=0, layout=pipeline.layout).generate(4)
        with pytest.raises(ValueError):
            Postprocessor(pipeline).minimize(program, inputs)

    def test_input_sequence_shrinks(self, pipeline, violating_case):
        program, inputs = violating_case
        postprocessor = Postprocessor(pipeline)
        minimal = postprocessor.minimize_inputs(program, list(inputs))
        assert 2 <= len(minimal) <= len(inputs)
        assert pipeline.check_violation(program, minimal) is not None

    def test_instructions_shrink(self, pipeline, violating_case):
        program, inputs = violating_case
        postprocessor = Postprocessor(pipeline)
        inputs = postprocessor.minimize_inputs(program, list(inputs))
        minimized = postprocessor.minimize_instructions(program, inputs)
        assert minimized.num_instructions < program.num_instructions
        assert pipeline.check_violation(minimized, inputs) is not None
        # the irrelevant arithmetic must be gone
        text = render_program(minimized)
        assert "MOV RDX, 7" not in text

    def test_full_minimize_inserts_fences(self, pipeline, violating_case):
        program, inputs = violating_case
        result = Postprocessor(pipeline).minimize(program, list(inputs))
        assert result.instruction_count <= program.num_instructions
        assert result.original_instruction_count == program.num_instructions
        assert result.original_input_count == len(inputs)
        # Figure 4: the minimized case still violates, and the region
        # without fences localizes the leak
        assert pipeline.check_violation(result.program, result.inputs)
        region = result.leak_region()
        assert any("MOV RCX" in line or "JNS" in line for line in region)

    def test_fences_never_break_violation(self, pipeline, violating_case):
        program, inputs = violating_case
        postprocessor = Postprocessor(pipeline)
        fenced, count = postprocessor.insert_fences(program, inputs)
        assert pipeline.check_violation(fenced, inputs) is not None
        lfences = sum(
            1 for i in fenced.all_instructions() if i.mnemonic == "LFENCE"
        )
        assert lfences == count

    def test_fences_probe_every_body_slot_once_last_first(
        self, pipeline, violating_case
    ):
        """§5.7 order: each block's ``len(body) + 1`` insertion points
        are probed exactly once, from the last slot backwards."""
        program, inputs = violating_case
        postprocessor = Postprocessor(pipeline)
        probed = []

        def record(candidate, _inputs):
            probed.extend(
                (block_index, body_index)
                for block_index, block in enumerate(candidate.blocks)
                for body_index, instruction in enumerate(block.body)
                if instruction.mnemonic == "LFENCE"
            )
            return False  # no fence survives: every probe sees one fence

        postprocessor._violates = record
        fenced, count = postprocessor.insert_fences(program, inputs)
        slots = [
            (block_index, body_index)
            for block_index, block in enumerate(program.blocks)
            for body_index in range(len(block.body) + 1)
        ]
        assert len(program.blocks) > 1
        assert probed == slots[::-1]
        assert count == 0
        assert render_program(fenced) == render_program(program)

    def test_fully_fenced_program_is_clean(self, pipeline, violating_case):
        """Sanity: LFENCE before the leaking load kills the violation —
        the mechanism stage 3 relies on."""
        program, inputs = violating_case
        fenced = parse_program(
            """
            MOV RDX, 7
            ADD RDX, 3
            JNS .end
            LFENCE
            AND RBX, 0b111111000000
            MOV RCX, qword ptr [R14 + RBX]
            XOR RDX, RDX
        .end: NOP
            """
        )
        assert pipeline.check_violation(fenced, inputs) is None
