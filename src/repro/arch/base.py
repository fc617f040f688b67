"""The architecture descriptor: everything the pipeline needs per ISA.

The MRT pipeline (paper §4) is architecture-agnostic: it needs *some*
register file, *some* instruction catalog split into the tested subsets,
*some* way to execute one instruction and to close a speculation window.
An :class:`Architecture` bundles exactly those ingredients:

- a :class:`RegisterFile` (canonical registers, narrower views, flag
  bits, the sandbox-base and stack conventions);
- an instruction catalog (:class:`~repro.isa.instruction_set.InstructionSet`)
  tagged with the paper's ISA-subset categories (AR/MEM/VAR/CB/IND/...);
- the condition-code table and its flag dependencies;
- a semantics entry point (``execute``) mapping one instruction to a
  :class:`~repro.emulator.semantics.StepResult`;
- the *serializing instruction* set — the instructions that close a
  speculation window (x86: LFENCE/MFENCE; aarch64: DSB/ISB). Fence
  semantics differ per ISA, so contracts and the postprocessor consult
  this set instead of hard-coding a mnemonic;
- assembler syntax (parse/render) so programs round-trip through text;
- generator hooks (address-masking instrumentation, division guards)
  that encode the per-ISA fault-avoidance idioms of §5.1.

Concrete backends subclass :class:`Architecture` and register an
instance with :func:`repro.arch.register_architecture`; the pipeline
resolves them by name through :func:`repro.arch.get_architecture`.
"""

from __future__ import annotations

from typing import (
    Callable,
    Dict,
    FrozenSet,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.isa.instruction import Instruction, InstructionSet, TestCaseProgram


class RegisterFile:
    """Register-file description of one architecture.

    ``views`` maps every accepted register name to its canonical backing
    register and width in bits, e.g. ``{"EAX": ("RAX", 32)}`` or
    ``{"W3": ("X3", 32)}``. Writes to sub-64-bit views follow the shared
    model implemented by :class:`~repro.emulator.state.ArchState`: 32-bit
    writes zero-extend into the canonical register (x86-64 and AArch64
    agree on this), narrower writes merge.
    """

    def __init__(
        self,
        gpr_names: Tuple[str, ...],
        flag_bits: Tuple[str, ...],
        views: Mapping[str, Tuple[str, int]],
        sandbox_base_register: str,
        stack_register: Optional[str] = None,
        view_name_fn: Optional[Callable[[str, int], str]] = None,
    ):
        self.gpr_names = tuple(gpr_names)
        self.flag_bits = tuple(flag_bits)
        self.views: Dict[str, Tuple[str, int]] = dict(views)
        self.sandbox_base_register = sandbox_base_register
        self.stack_register = stack_register
        self._view_name_fn = view_name_fn
        #: every register and flag at its reset value; states copy these
        #: instead of rebuilding them per input
        self.zero_registers: Dict[str, int] = dict.fromkeys(self.gpr_names, 0)
        self.zero_flags: Dict[str, bool] = dict.fromkeys(self.flag_bits, False)

    def canonical(self, name: str) -> str:
        """The canonical register backing view ``name``."""
        try:
            return self.views[name.upper()][0]
        except KeyError:
            raise ValueError(f"unknown register: {name!r}") from None

    def width(self, name: str) -> int:
        """Width in bits of register view ``name``."""
        try:
            return self.views[name.upper()][1]
        except KeyError:
            raise ValueError(f"unknown register: {name!r}") from None

    def is_register(self, name: str) -> bool:
        return name.upper() in self.views

    def view_name(self, canonical: str, width: int) -> str:
        """The conventional name of the ``width``-bit view of a register."""
        if self._view_name_fn is not None:
            return self._view_name_fn(canonical, width)
        canonical = canonical.upper()
        for name, (backing, view_width) in self.views.items():
            if backing == canonical and view_width == width:
                return name
        raise ValueError(f"no {width}-bit view of {canonical!r}")


class Architecture:
    """Base class of ISA backends. Subclasses fill in the declarative
    attributes and implement the per-ISA methods; the shared helpers at
    the bottom derive everything else."""

    #: registry name, e.g. ``"x86_64"``
    name: str = ""
    registers: RegisterFile
    #: the full instruction catalog
    instruction_set: InstructionSet
    #: subset name -> catalog categories, e.g. ``{"CB": ("CB", "UNCOND")}``
    subset_categories: Mapping[str, Tuple[str, ...]] = {}
    #: canonical condition codes, in the order the generator samples them
    condition_codes: Tuple[str, ...] = ()
    #: condition code -> flag bits it reads
    condition_flags: Mapping[str, Tuple[str, ...]] = {}
    #: mnemonics that close a speculation window (contract + postprocessor)
    serializing_instructions: FrozenSet[str] = frozenset()
    #: the fence the postprocessor inserts during §5.7 stage 3
    fence_mnemonic: str = ""
    #: mnemonics billed at the CPU model's multiply latency
    multiply_mnemonics: FrozenSet[str] = frozenset()
    #: registers the generator and input generator use by default (§5.1:
    #: a small pool raises input effectiveness)
    default_register_pool: Tuple[str, ...] = ()

    # -- per-ISA methods ----------------------------------------------------

    def execute(self, instruction, state, pc=0, resolve_label=None):
        """Execute one instruction architecturally (see per-arch semantics)."""
        raise NotImplementedError

    def compile_instruction(self, instruction, pc=0, label_to_index=None):
        """Lower one instruction into a bound step closure.

        The closure (``run(state) -> StepResult``) must be byte-identical
        in behaviour to :meth:`execute` for this instruction at this
        ``pc``: the backend resolves the mnemonic dispatch, operand
        accessors, condition codes and label targets here, exactly once,
        so the execution engines can run compile-once/execute-many (see
        :mod:`repro.emulator.compiled`).
        """
        raise NotImplementedError

    def compile_instruction_no_flags(
        self, instruction, pc=0, label_to_index=None
    ):
        """Like :meth:`compile_instruction` but skipping flag writes.

        Returns ``None`` when the backend has no flag-skipping variant
        for this instruction. Only the dead-flag elimination pass
        (:mod:`repro.analysis.deadflags`) may install the returned
        closure, and only after liveness proves every flag the
        instruction writes dead on every path — register and memory
        effects must still be byte-identical to :meth:`execute`.
        """
        return None

    def evaluate_condition(self, code: str, state) -> bool:
        """Evaluate a canonical condition code against the flag bits."""
        raise NotImplementedError

    def condition_of(self, mnemonic: str) -> Optional[str]:
        """Extract the canonical condition code from a mnemonic, if any."""
        raise NotImplementedError

    def parse_program(
        self, text: str, name: str = "testcase", instruction_set=None
    ) -> TestCaseProgram:
        """Parse assembly text in this architecture's syntax."""
        raise NotImplementedError

    def render_instruction(self, instruction: Instruction) -> str:
        """Render one instruction in this architecture's syntax."""
        raise NotImplementedError

    def render_program(
        self, program: TestCaseProgram, numbered: bool = False
    ) -> str:
        """Render a program block-by-block, Figure 3 style."""
        from repro.isa.assembler import render_program_with

        return render_program_with(program, self.render_instruction, numbered)

    def cond_branch_mnemonic(self, code: str) -> str:
        """The conditional-branch mnemonic for a condition code."""
        raise NotImplementedError

    #: the unconditional direct-branch mnemonic ("JMP" / "B")
    uncond_branch_mnemonic: str = ""

    # -- generator hooks (§5.1 instrumentation) -----------------------------

    def address_instrumentation(
        self, index_register: str, mask: int, offset: int
    ) -> Tuple[List[Instruction], int]:
        """Instructions confining ``index_register`` to the sandbox, plus
        the displacement the memory operand should carry.

        x86 folds the per-test-case offset into the operand displacement;
        AArch64 addressing has no base+index+displacement form, so its
        backend adds the offset to the index register instead.
        """
        raise NotImplementedError

    def division_guards(self, instruction: Instruction) -> List[Instruction]:
        """Instrumentation preventing division faults (empty when the ISA's
        division cannot fault, as on AArch64)."""
        return []

    def division_register_pool(self, pool: Sequence[str]) -> List[str]:
        """Registers eligible as division operands (x86 excludes RDX)."""
        return list(pool)

    def division_latency_value(self, state, instruction: Instruction) -> int:
        """The value whose magnitude drives variable division latency in
        the CPU model (the quotient location differs per ISA)."""
        raise NotImplementedError

    # -- shared helpers -----------------------------------------------------

    def is_serializing(self, instruction: Instruction) -> bool:
        """True when this instruction closes a speculation window."""
        return instruction.mnemonic in self.serializing_instructions

    def fence_instruction(self) -> Instruction:
        """A fresh instance of the postprocessor's fence."""
        return Instruction(
            self.instruction_set.find(self.fence_mnemonic, ()), ()
        )

    def subset_names(self) -> Tuple[str, ...]:
        return tuple(self.subset_categories)

    def instruction_subset(self, names) -> InstructionSet:
        """Build an instruction set from subset names, e.g. ``["AR", "MEM"]``."""
        categories: List[str] = []
        for name in names:
            try:
                categories.extend(self.subset_categories[name.upper()])
            except KeyError:
                raise ValueError(
                    f"unknown subset {name!r}; expected one of "
                    f"{self.subset_names()}"
                ) from None
        return InstructionSet(self.instruction_set.by_category(*categories))

    def parse_subset_expression(self, expression: str) -> InstructionSet:
        """Parse a ``"AR+MEM+CB"``-style expression into an instruction set."""
        return self.instruction_subset(expression.split("+"))

    def __repr__(self) -> str:
        return f"<Architecture {self.name}>"


__all__ = ["Architecture", "RegisterFile"]
