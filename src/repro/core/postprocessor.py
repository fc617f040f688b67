"""Counterexample minimization (paper §5.7).

Three stages:

1. **input-sequence minimization** — remove inputs while the violation
   still reproduces, finding the smallest priming sequence;
2. **test-case minimization** — remove one instruction at a time while
   re-checking the violation;
3. **speculative-part minimization** — insert serializing fences
   (LFENCE on x86-64, DSB on AArch64; the architecture descriptor says
   which) starting from the last instruction while the violation
   persists; the remaining fence-free region is the location of the
   leakage (paper Figure 4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List, Optional, Sequence, Tuple

from repro.isa.instruction import Instruction, TestCaseProgram
from repro.analysis.fence_advisor import FencePlan, advise_fences as advise
# imported by name only so perfbench's tracer, which wraps
# compile_program in every module that imports it, still installs
from repro.emulator.compiled import compile_program  # noqa: F401
from repro.emulator.errors import EmulationError
from repro.emulator.state import InputData
from repro.core.fuzzer import TestingPipeline


@dataclass
class MinimizationResult:
    """Outcome of postprocessing one violation."""

    program: TestCaseProgram
    inputs: List[InputData]
    original_instruction_count: int
    original_input_count: int
    fences_inserted: int = 0
    #: rendered minimized test case, Figure 4 style
    text: str = ""
    #: the architecture's serializing-instruction set (close the leak
    #: region); ``None`` falls back to the default (x86-64) backend's set
    serializing: Optional[FrozenSet[str]] = None

    @property
    def instruction_count(self) -> int:
        return self.program.num_instructions

    def leak_region(self) -> List[str]:
        """The instructions not shielded by fences (the leak location).

        A serializing fence closes the region: speculation cannot flow
        past it, so the instructions that follow — however many — are
        shielded until an instruction that can itself *start* a new
        speculative path (a branch, store, call or return) reopens it.
        Figure 4's minimized test cases read exactly this way: the
        surviving fences bracket the speculation source and the leaking
        accesses, and everything behind a fence is out of the region.

        Which mnemonics serialize is architecture-declared (x86:
        LFENCE/MFENCE, AArch64: DSB/ISB) — a hard-coded ``"LFENCE"``
        check here would silently mis-report the region on any other
        backend (or any renamed fence).
        """
        serializing = self.serializing
        if serializing is None:
            from repro.arch import get_architecture

            serializing = get_architecture("x86_64").serializing_instructions
        region: List[str] = []
        in_region = True
        for instruction in self.program.all_instructions():
            if instruction.mnemonic in serializing:
                in_region = False
                continue
            if not in_region and self._starts_speculation(instruction):
                in_region = True
            if in_region:
                region.append(str(instruction))
        return region

    @staticmethod
    def _starts_speculation(instruction: Instruction) -> bool:
        """Can this instruction open a speculative path of its own?"""
        return (
            instruction.is_cond_branch
            or instruction.is_indirect_branch
            or instruction.is_store
            or instruction.is_call
            or instruction.is_ret
        )


class Postprocessor:
    """Shrinks a violating (program, input sequence) pair."""

    def __init__(self, pipeline: TestingPipeline, confirm: bool = False):
        self.pipeline = pipeline
        self.arch = pipeline.arch
        #: when True, every shrink step re-runs the full confirmation
        #: (priming swap + nesting); much slower, used for final validation
        self.confirm = confirm
        self._fence = self.arch.fence_instruction()

    # -- public API ---------------------------------------------------------------

    def minimize(
        self,
        program: TestCaseProgram,
        inputs: Sequence[InputData],
        max_passes: int = 3,
        advise_fences: bool = False,
    ) -> MinimizationResult:
        """Run all three minimization stages.

        With ``advise_fences``, stage 3 probes the insertion points the
        static fence advisor (:mod:`repro.analysis.fence_advisor`)
        flags first — same validation per probe, different order, so
        the surviving fence set can differ from the default exhaustive
        reverse order (which is why the default stays off)."""
        inputs = list(inputs)
        if not self._violates(program, inputs):
            raise ValueError("the provided test case does not violate")
        original_instructions = program.num_instructions
        original_inputs = len(inputs)

        inputs = self.minimize_inputs(program, inputs)
        program = self.minimize_instructions(program, inputs, max_passes)
        advice = None
        if advise_fences:
            advice = advise(
                self.pipeline.compiled_for(program),
                program,
                self.pipeline.config.executor_mode,
            )
        pre_fence_program = program
        program, fences = self.insert_fences(program, inputs, advice)

        result = MinimizationResult(
            program=program,
            inputs=inputs,
            original_instruction_count=original_instructions,
            original_input_count=original_inputs,
            fences_inserted=fences,
            text=self.arch.render_program(program),
            serializing=self.arch.serializing_instructions,
        )
        if self.pipeline.config.corpus_dir is not None:
            self._persist(pre_fence_program, result)
        return result

    def _persist(
        self, program: TestCaseProgram, result: MinimizationResult
    ) -> Optional[str]:
        """Record the minimized counterexample in the corpus.

        The fenced program no longer violates (that is the point of
        stage 3), so the replayable record stores the *pre-fence*
        shrunk program: the smallest (program, battery) pair that still
        detects. Re-detection here also yields the Violation the record
        digest pins. Local import: repro.corpus builds pipelines from
        records, importing this module's package."""
        from repro.corpus import CounterexampleCorpus, record_from_violation

        try:
            outcome = self.pipeline.test_program(program, result.inputs)
        except EmulationError:
            return None
        violation = None
        for candidate in outcome.analysis.candidates:
            if not self.confirm or self.pipeline.confirm_candidate(
                outcome, candidate
            ):
                violation = self.pipeline.build_violation(outcome, candidate)
                break
        if violation is None:
            return None
        record = record_from_violation(
            violation,
            self.pipeline.config,
            provenance={
                "found_by": "minimize",
                "original_instruction_count": result.original_instruction_count,
                "original_input_count": result.original_input_count,
            },
            confirmed=self.confirm
            and (
                self.pipeline.config.verify_with_priming
                or self.pipeline.config.revalidate_with_nesting
            ),
        )
        return CounterexampleCorpus(
            self.pipeline.config.corpus_dir
        ).add(record)

    # -- stage 1: inputs ------------------------------------------------------------

    def minimize_inputs(
        self, program: TestCaseProgram, inputs: List[InputData]
    ) -> List[InputData]:
        """Find a minimal priming sequence that still violates (§5.7)."""
        current = list(inputs)
        index = len(current) - 1
        while index >= 0 and len(current) > 2:
            shrunk = current[:index] + current[index + 1 :]
            if self._violates(program, shrunk):
                current = shrunk
            index -= 1
        return current

    # -- stage 2: instructions ---------------------------------------------------------

    def minimize_instructions(
        self,
        program: TestCaseProgram,
        inputs: Sequence[InputData],
        max_passes: int = 3,
    ) -> TestCaseProgram:
        """Remove instructions one at a time while the violation persists."""
        current = program.clone()
        for _ in range(max_passes):
            changed = False
            for block_index in range(len(current.blocks)):
                body = current.blocks[block_index].body
                position = len(body) - 1
                while position >= 0:
                    candidate = current.clone()
                    del candidate.blocks[block_index].body[position]
                    if self._violates(candidate, inputs):
                        current = candidate
                        changed = True
                    position -= 1
            # also try dropping terminators (a branch may be irrelevant)
            for block_index in range(len(current.blocks)):
                terms = current.blocks[block_index].terminators
                position = len(terms) - 1
                while position >= 0:
                    candidate = current.clone()
                    del candidate.blocks[block_index].terminators[position]
                    if self._still_valid(candidate) and self._violates(
                        candidate, inputs
                    ):
                        current = candidate
                        changed = True
                    position -= 1
            if not changed:
                break
        return current

    # -- stage 3: fence boundaries -------------------------------------------------------

    def insert_fences(
        self,
        program: TestCaseProgram,
        inputs: Sequence[InputData],
        advice: Optional[FencePlan] = None,
    ) -> Tuple[TestCaseProgram, int]:
        """Insert serializing fences from the last instruction backwards
        while the violation persists; survivors delimit the leaking
        region.

        ``advice`` (from :func:`repro.analysis.fence_advisor.advise_fences`)
        reorders the probes: the advised points — where a fence is
        predicted to kill the violation, i.e. the leak region — are
        probed last, so the shielding fences around the region are
        already in place when the region itself is probed."""
        current = program.clone()
        fences = 0
        positions: List[Tuple[int, int]] = []
        for block_index, block in enumerate(current.blocks):
            for body_index in range(len(block.body) + 1):
                positions.append((block_index, body_index))
        probe_order = list(reversed(positions))
        if advice is not None and not advice.empty:
            advised = set(advice.positions)
            probe_order = [p for p in probe_order if p not in advised] + [
                p for p in probe_order if p in advised
            ]
        for block_index, body_index in probe_order:
            candidate = current.clone()
            candidate.blocks[block_index].body.insert(
                body_index, self._fence
            )
            if self._violates(candidate, inputs):
                current = candidate
                fences += 1
        return current, fences

    # -- helpers ----------------------------------------------------------------------

    def _violates(
        self, program: TestCaseProgram, inputs: Sequence[InputData]
    ) -> bool:
        if len(inputs) < 2 or program.num_instructions == 0:
            return False
        candidate = self.pipeline.check_violation(
            program, inputs, confirm=self.confirm
        )
        return candidate is not None

    @staticmethod
    def _still_valid(program: TestCaseProgram) -> bool:
        try:
            program.validate_dag()
        except ValueError:
            return False
        return True


__all__ = ["MinimizationResult", "Postprocessor"]
