"""Compile-once program IR for the emulation hot loop.

Both execution engines — the contract model
(:meth:`repro.contracts.contract.Contract.collect_trace_and_log`) and the
speculative CPU simulator (:meth:`repro.uarch.cpu.SpeculativeCPU.run`) —
execute the *same* test-case program across dozens of inputs, contracts
and speculative rollbacks. The interpretive path pays the full decode
cost on every step: a string-mnemonic if/elif dispatch, a fresh
:class:`~repro.emulator.semantics.OperandContext` with per-operand
``isinstance`` chains, ``condition_of()`` string parsing, and label
resolution through a dict of names.

:func:`compile_program` lowers each instruction exactly once into a
:class:`DecodedOp`:

- a **bound semantics handler** (``run``): the architecture backend's
  per-mnemonic compiler (see ``_COMPILERS`` in
  :mod:`repro.arch.x86_64.semantics` / :mod:`repro.arch.aarch64.semantics`)
  specializes the instruction into a closure over precompiled operand
  accessors — no per-step mnemonic dispatch, no ``OperandContext``;
- **pre-resolved control flow**: condition codes extracted and bound to
  their evaluators, label operands resolved to instruction indices;
- **precomputed operand accessors**: register reads/writes bound to the
  canonical register name and width mask, memory operands lowered to
  ``base + index + displacement`` address closures with a fixed width;
- **static metadata** the execution engines used to re-derive per step:
  category, fence/serializing bits, register/flag read–write sets,
  address vs. data registers, the CPU model's issue set, latency class,
  and the constant fields of the model's
  :class:`~repro.traces.ExecutionLogEntry`.

The compiled path is **byte-identical** to the interpretive one: every
``run`` closure performs the same state transitions, raises the same
faults, and returns an equal :class:`~repro.emulator.semantics.StepResult`
(same memory-access order, same branch info), so contract traces,
hardware traces and fuzzing reports do not change — only the time they
take (see ``benchmarks/bench_emulation_throughput.py`` and
``docs/performance.md``). ``compile_linear(..., interpretive=True)``
builds the same IR with handlers that fall back to ``arch.execute``,
which is how the reference path stays available for equality tests.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Mapping, Optional, Tuple, Union

from repro.isa.instruction import Instruction, LinearProgram, TestCaseProgram
from repro.isa.operands import (
    AgenOperand,
    ImmediateOperand,
    LabelOperand,
    MemoryOperand,
    RegisterOperand,
)
from repro.isa.registers import canonical_register, register_width
from repro.emulator.errors import InvalidProgram
from repro.emulator.semantics import (
    MASK64,
    BranchInfo,
    MemAccess,
    StepResult,
    mask,
)
from repro.emulator.state import ArchState
from repro.traces import ExecutionLogEntry

#: ``run(state) -> StepResult`` — one fully bound instruction execution.
StepFn = Callable[[ArchState], StepResult]
#: ``read(state, accesses) -> value`` — precompiled operand read.
ReadFn = Callable[[ArchState, List[MemAccess]], int]
#: ``write(state, value, accesses)`` — precompiled operand write.
WriteFn = Callable[[ArchState, int, List[MemAccess]], None]
#: ``address(state) -> int`` — precompiled memory-operand address.
AddressFn = Callable[[ArchState], int]

_WIDTH_MASKS = {8: 0xFF, 16: 0xFFFF, 32: 0xFFFFFFFF, 64: MASK64}


def compile_address(operand) -> AddressFn:
    """Lower a memory/AGEN operand into an address closure.

    Mirrors :meth:`OperandContext.address_of`: read the base (and index)
    register views, add the displacement, wrap to 64 bits.
    """
    base_c = canonical_register(operand.base)
    base_m = _WIDTH_MASKS[register_width(operand.base)]
    disp = operand.displacement
    if operand.index is None:

        def address(state, _c=base_c, _m=base_m, _d=disp):
            return ((state.registers[_c] & _m) + _d) & MASK64

    else:
        index_c = canonical_register(operand.index)
        index_m = _WIDTH_MASKS[register_width(operand.index)]

        def address(state, _c=base_c, _m=base_m, _ic=index_c, _im=index_m,
                    _d=disp):
            return (
                (state.registers[_c] & _m)
                + (state.registers[_ic] & _im)
                + _d
            ) & MASK64

    return address


class CompiledOperands:
    """Compile-time analogue of :class:`OperandContext`.

    Where the interpretive context dispatches on the operand kind at
    every ``read``/``write``, this helper resolves the kind *once* and
    hands the backend's instruction compiler a bound accessor closure
    per operand slot. The closures reproduce the context's behaviour
    exactly, including memory-access recording order and the
    re-computation of a memory destination's address on write.
    """

    def __init__(
        self,
        instruction: Instruction,
        label_to_index: Optional[Mapping[str, int]] = None,
    ):
        self.instruction = instruction
        self.label_to_index = label_to_index

    def width(self, position: int = 0) -> int:
        """Operation width of a slot (same rule as ``OperandContext``)."""
        operand = self.instruction.operands[position]
        if isinstance(operand, (RegisterOperand, MemoryOperand)):
            return operand.width
        return self.instruction.spec.operands[position].width

    def reader(self, position: int) -> ReadFn:
        """A bound read accessor for operand slot ``position``."""
        operand = self.instruction.operands[position]
        template = self.instruction.spec.operands[position]
        if isinstance(operand, RegisterOperand):
            canonical = operand.canonical
            wmask = _WIDTH_MASKS[operand.width]

            def read(state, accesses, _c=canonical, _m=wmask):
                return state.registers[_c] & _m

            return read
        if isinstance(operand, ImmediateOperand):
            value = operand.value & mask(max(template.width, 8))

            def read(state, accesses, _v=value):
                return _v

            return read
        if isinstance(operand, MemoryOperand):
            address_fn = compile_address(operand)
            size = operand.width // 8

            def read(state, accesses, _a=address_fn, _s=size):
                address = _a(state)
                value = state.read_memory(address, _s)
                accesses.append(MemAccess(address, _s, value, False))
                return value

            return read
        if isinstance(operand, LabelOperand):
            index = self._resolve_label(operand.name)

            def read(state, accesses, _i=index):
                return _i

            return read
        if isinstance(operand, AgenOperand):
            address_fn = compile_address(operand)

            def read(state, accesses, _a=address_fn):
                return _a(state)

            return read
        raise InvalidProgram(f"unreadable operand: {operand!r}")

    def writer(self, position: int) -> WriteFn:
        """A bound write accessor for operand slot ``position``."""
        operand = self.instruction.operands[position]
        if isinstance(operand, RegisterOperand):
            canonical = operand.canonical
            width = operand.width
            wmask = _WIDTH_MASKS[width]
            if width >= 32:
                # 64-bit writes replace; 32-bit writes zero-extend.
                def write(state, value, accesses, _c=canonical, _m=wmask):
                    state.registers[_c] = value & _m

            else:
                def write(state, value, accesses, _c=canonical, _m=wmask):
                    old = state.registers[_c]
                    state.registers[_c] = (old & ~_m) | (value & _m)

            return write
        if isinstance(operand, MemoryOperand):
            address_fn = compile_address(operand)
            size = operand.width // 8
            vmask = _WIDTH_MASKS[operand.width]

            def write(state, value, accesses, _a=address_fn, _s=size,
                      _m=vmask):
                address = _a(state)
                old_value = state.read_memory(address, _s)
                state.write_memory(address, _s, value)
                accesses.append(
                    MemAccess(address, _s, value & _m, True, old_value)
                )

            return write
        raise InvalidProgram(f"unwritable operand: {operand!r}")

    def resolve_label_operand(self, position: int = 0) -> int:
        """Resolve a LABEL operand slot to its instruction index."""
        operand = self.instruction.operands[position]
        if not isinstance(operand, LabelOperand):
            raise InvalidProgram(f"not a label operand: {operand!r}")
        return self._resolve_label(operand.name)

    def _resolve_label(self, name: str) -> int:
        if self.label_to_index is None:
            raise InvalidProgram("label operand without a resolver")
        try:
            return self.label_to_index[name]
        except KeyError:
            raise InvalidProgram(f"undefined label: {name!r}") from None


def make_step(instruction: Instruction, pc: int,
              body: Callable[[ArchState, List[MemAccess]], None]) -> StepFn:
    """Wrap a straight-line handler body into a full ``run`` closure.

    The raw body is published as ``run.body`` so the battery engine
    (:mod:`repro.emulator.battery`) can execute memory-free ops without
    allocating the accesses list and :class:`StepResult` that a
    straight-line step discards anyway.
    """
    next_pc = pc + 1

    def run(state, _b=body, _i=instruction, _p=pc, _n=next_pc):
        accesses: List[MemAccess] = []
        _b(state, accesses)
        return StepResult(_i, _p, _n, accesses, None)

    run.body = body
    return run


# -- ISA-neutral control-flow compilers ---------------------------------------
#
# Branch shapes are identical across the backends (the paper's test
# cases are DAGs of direct/conditional/indirect jumps); only the
# condition-code extraction and its flag evaluator are per-ISA, so the
# backends bind those and delegate the closure construction here. One
# implementation means a fix to e.g. BranchInfo construction can never
# drift between backends — which the byte-identical-traces guarantee
# depends on.


def condition_evaluator(table, code: Optional[str]):
    """The bound evaluator for a pre-resolved condition code, from a
    backend's import-time evaluator table."""
    if code is None or code not in table:
        raise InvalidProgram(f"unknown condition code: {code!r}")
    return table[code]


def compile_cond_branch(instruction: Instruction, ops: "CompiledOperands",
                        pc: int, condition: Optional[str],
                        evaluator) -> StepFn:
    """A conditional branch with its condition pre-resolved and bound."""
    read0 = ops.reader(0)
    fallthrough = pc + 1

    def run(state):
        accesses: List[MemAccess] = []
        taken = evaluator(state)
        target = read0(state, accesses)
        branch = BranchInfo("cond", taken, target, fallthrough, condition)
        return StepResult(
            instruction, pc, target if taken else fallthrough, accesses,
            branch,
        )

    return run


def compile_uncond_branch(instruction: Instruction, ops: "CompiledOperands",
                          pc: int) -> StepFn:
    read0 = ops.reader(0)
    fallthrough = pc + 1

    def run(state):
        accesses: List[MemAccess] = []
        target = read0(state, accesses)
        branch = BranchInfo("uncond", True, target, fallthrough)
        return StepResult(instruction, pc, target, accesses, branch)

    return run


def compile_indirect_branch(instruction: Instruction,
                            ops: "CompiledOperands", pc: int) -> StepFn:
    read0 = ops.reader(0)
    fallthrough = pc + 1

    def run(state):
        accesses: List[MemAccess] = []
        target = read0(state, accesses) & MASK64
        branch = BranchInfo("indirect", True, target, fallthrough)
        return StepResult(instruction, pc, target, accesses, branch)

    return run


def compile_no_op(instruction: Instruction, ops: "CompiledOperands",
                  pc: int) -> StepFn:
    """NOPs and fences: no state change, no accesses, fall through."""
    next_pc = pc + 1

    def run(state):
        return StepResult(instruction, pc, next_pc, [], None)

    return run


@dataclass
class DecodedOp:
    """One instruction, lowered once for compile-once/execute-many.

    ``run`` is the bound semantics handler; everything else is static
    metadata the execution engines would otherwise re-derive per step.
    """

    instruction: Instruction
    pc: int
    run: StepFn
    # -- control flow -------------------------------------------------------
    #: canonical condition code of a conditional branch (pre-resolved)
    condition: Optional[str]
    #: direct branch target, resolved to an instruction index
    target: Optional[int]
    # -- static classification ---------------------------------------------
    category: str
    is_fence: bool
    is_serializing: bool
    is_cond_branch: bool
    is_uncond_branch: bool
    is_indirect_branch: bool
    is_load: bool
    is_store: bool
    # -- dataflow -----------------------------------------------------------
    registers_read: Tuple[str, ...]
    #: the registers the issue cycle waits on: ``registers_read``, minus
    #: the address-only registers of a store that loads nothing (it
    #: issues on data readiness; its address resolves later through the
    #: AGU, which enables V4 and the Appendix A.6 variant)
    issue_regs: Tuple[str, ...]
    registers_written: Tuple[str, ...]
    flags_read: Tuple[str, ...]
    flags_written: Tuple[str, ...]
    #: canonical registers feeding address generation
    addr_regs: frozenset
    #: canonical registers feeding data (implicit reads + source operands)
    data_regs: frozenset
    #: one ``(address closure, size in bytes)`` per explicit memory operand
    mem_operands: Tuple[Tuple[AddressFn, int], ...]
    # -- timing -------------------------------------------------------------
    #: "division" | "multiply" | "base"
    latency_class: str
    #: for "division": reads the value whose magnitude drives the latency
    division_value: Optional[Callable[[ArchState], int]]
    # -- logging ------------------------------------------------------------
    #: pre-bound ExecutionLogEntry constructor (static fields baked in;
    #: callers supply ``addresses`` and ``speculative``)
    log_entry: Callable[..., ExecutionLogEntry]


@dataclass
class CompiledProgram:
    """A test-case program lowered to :class:`DecodedOp` records.

    Compiled once per (program, architecture) pair and reused across
    every input, contract collection, speculative rollback and hardware
    measurement of that test case.
    """

    ops: Tuple[DecodedOp, ...]
    linear: LinearProgram
    arch: object
    #: True when the handlers fall back to ``arch.execute`` (the
    #: reference path used by the equality tests and benchmarks)
    interpretive: bool = False
    name: str = "testcase"
    #: lazily built per-observation-clause step plans of the battery
    #: engine (:mod:`repro.emulator.battery`). Derived state, not
    #: identity: excluded from comparisons, and ``dataclasses.replace``
    #: (the optimization passes) re-initializes it empty so a program
    #: with swapped handlers can never serve a stale plan.
    battery_plans: Dict = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __len__(self) -> int:
        return len(self.ops)

    @property
    def instructions(self) -> List[Instruction]:
        return self.linear.instructions

    @property
    def label_to_index(self):
        return self.linear.label_to_index


def _interpretive_step(instruction: Instruction, pc: int, arch,
                       label_to_index: Mapping[str, int]) -> StepFn:
    """The reference handler: full per-step dispatch via ``arch.execute``."""

    def resolve_label(name: str) -> int:
        try:
            return label_to_index[name]
        except KeyError:
            raise InvalidProgram(f"undefined label: {name!r}") from None

    def run(state, _i=instruction, _p=pc, _r=resolve_label, _e=arch.execute):
        return _e(_i, state, _p, _r)

    return run


def decode_op(instruction: Instruction, pc: int, arch,
              label_to_index: Mapping[str, int],
              interpretive: bool = False) -> DecodedOp:
    """Lower one instruction into a :class:`DecodedOp`."""
    if interpretive:
        run = _interpretive_step(instruction, pc, arch, label_to_index)
    else:
        run = arch.compile_instruction(instruction, pc, label_to_index)

    spec = instruction.spec
    category = spec.category
    mem_accesses = instruction.memory_accesses()
    is_load = any(read for _, read, _ in mem_accesses)
    is_store = any(write for _, _, write in mem_accesses)
    addr_regs = frozenset(
        register
        for operand, _, _ in mem_accesses
        for register in operand.address_registers()
    )
    data_regs = set(spec.implicit_reads)
    for operand, template in zip(instruction.operands, spec.operands):
        if template.src and hasattr(operand, "canonical"):
            data_regs.add(operand.canonical)
        elif isinstance(operand, AgenOperand):
            # AGEN registers feed an address *computation* whose result
            # lands in a register (LEA) — no memory access happens, so
            # they are data dependencies, not addr_regs
            data_regs.add(canonical_register(operand.base))
            if operand.index is not None:
                data_regs.add(canonical_register(operand.index))

    if category == "VAR":
        latency_class = "division"

        def division_value(state, _a=arch, _i=instruction):
            return _a.division_latency_value(state, _i)

    elif spec.mnemonic in arch.multiply_mnemonics:
        latency_class = "multiply"
        division_value = None
    else:
        latency_class = "base"
        division_value = None

    condition = arch.condition_of(spec.mnemonic) if category == "CB" else None
    label = instruction.label_target()
    target: Optional[int] = None
    if label is not None:
        try:
            target = label_to_index[label]
        except KeyError:
            raise InvalidProgram(f"undefined label: {label!r}") from None

    registers_read = instruction.registers_read()
    registers_written = instruction.registers_written()
    if is_store and not is_load:
        issue_regs = tuple(
            register for register in registers_read
            if register not in addr_regs or register in data_regs
        )
    else:
        issue_regs = registers_read
    is_cond_branch = category == "CB"
    is_uncond_branch = category == "UNCOND"
    is_indirect_branch = category == "IND"

    log_entry = partial(
        ExecutionLogEntry,
        pc=pc,
        mnemonic=spec.mnemonic,
        registers_read=registers_read,
        registers_written=registers_written,
        flags_read=spec.flags_read,
        flags_written=spec.flags_written,
        is_load=is_load,
        is_store=is_store,
        is_cond_branch=is_cond_branch,
        is_uncond_branch=is_uncond_branch or is_indirect_branch,
    )

    return DecodedOp(
        instruction=instruction,
        pc=pc,
        run=run,
        condition=condition,
        target=target,
        category=category,
        is_fence=category == "FENCE",
        is_serializing=arch.is_serializing(instruction),
        is_cond_branch=is_cond_branch,
        is_uncond_branch=is_uncond_branch,
        is_indirect_branch=is_indirect_branch,
        is_load=is_load,
        is_store=is_store,
        registers_read=registers_read,
        issue_regs=issue_regs,
        registers_written=registers_written,
        flags_read=spec.flags_read,
        flags_written=spec.flags_written,
        addr_regs=addr_regs,
        data_regs=frozenset(data_regs),
        mem_operands=tuple(
            (compile_address(operand), operand.width // 8)
            for operand, _, _ in mem_accesses
        ),
        latency_class=latency_class,
        division_value=division_value,
        log_entry=log_entry,
    )


def compile_linear(linear: LinearProgram, arch=None,
                   interpretive: bool = False,
                   name: str = "testcase") -> CompiledProgram:
    """Lower a linearized program into a :class:`CompiledProgram`."""
    if arch is None:
        from repro.arch import get_architecture

        arch = get_architecture("x86_64")
    ops = tuple(
        decode_op(instruction, pc, arch, linear.label_to_index, interpretive)
        for pc, instruction in enumerate(linear.instructions)
    )
    return CompiledProgram(
        ops=ops, linear=linear, arch=arch, interpretive=interpretive,
        name=name,
    )


def compile_program(program: TestCaseProgram, arch=None,
                    interpretive: bool = False) -> CompiledProgram:
    """Compile a test-case program once for execute-many use.

    ``interpretive=True`` builds the same IR with handlers that fall
    back to the per-step ``arch.execute`` dispatch — the reference path
    the equality tests and the throughput benchmark compare against.
    """
    return compile_linear(
        program.linearize(), arch, interpretive, name=program.name
    )


def as_compiled(program: Union[TestCaseProgram, LinearProgram,
                               CompiledProgram],
                arch=None) -> CompiledProgram:
    """Normalize any program representation to a :class:`CompiledProgram`.

    Already-compiled programs pass through untouched, interpretive ones
    included (they were compiled once upstream).
    """
    if isinstance(program, CompiledProgram):
        return program
    if isinstance(program, LinearProgram):
        return compile_linear(program, arch)
    return compile_program(program, arch)


# -- cross-object IR reuse ----------------------------------------------------


def program_digest(program: TestCaseProgram, arch_name: str = "") -> str:
    """A stable content digest of a test case (see also
    :func:`repro.core.trace_cache.program_fingerprint`, which delegates
    here).

    Block structure plus instruction text determine the lowered IR for
    one architecture, so two *distinct program objects* with equal text
    — e.g. the same seed re-generated by a neighboring sweep cell in
    the same worker process — share a digest and hence a compilation.
    ``arch_name`` namespaces the digest: same-text programs of
    different backends never collide.
    """
    hasher = hashlib.sha1()
    hasher.update(arch_name.encode("utf-8"))
    for block in program.blocks:
        hasher.update(f"\n.{block.name}:".encode("utf-8"))
        for instruction in block.instructions():
            hasher.update(b"\n")
            hasher.update(str(instruction).encode("utf-8"))
    return hasher.hexdigest()


class CompiledProgramCache:
    """A bounded LRU of lowered (and optimized) programs, keyed by
    content digest.

    Compiled handlers are closures, so the IR cannot be pickled across
    process boundaries; what *can* be shared is every compilation
    within one process. Campaign shard workers and the sweep runner's
    cell workers construct a fresh ``Fuzzer`` (and hence a fresh
    pipeline memo) per shard/cell, yet one worker process runs many of
    them — and deterministic grids regenerate byte-identical programs
    (same generator seed) in each. Keying by
    :func:`program_digest` instead of object identity lets every
    pipeline in the process reuse the one lowering.

    A key is the digest plus whatever else names the lowering: the
    pipeline's pass-optimized IR is keyed ``(digest,)`` (see
    ``TestingPipeline.compiled_for``), an executor's own unoptimized
    lowering ``(digest, "executor")``.
    """

    def __init__(self, max_entries: int = 512):
        if max_entries <= 0:
            raise ValueError("max_entries must be positive")
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self._entries: "OrderedDict[tuple, CompiledProgram]" = OrderedDict()

    def get(self, key: tuple) -> Optional[CompiledProgram]:
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry

    def put(self, key: tuple, compiled: CompiledProgram) -> None:
        self._entries[key] = compiled
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)


#: the process-global IR cache shared by every pipeline and executor in
#: this process (shard workers, sweep cells, the postprocessor)
_SHARED_CACHE = CompiledProgramCache()


def shared_compiled_cache() -> CompiledProgramCache:
    """The process-global :class:`CompiledProgramCache`."""
    return _SHARED_CACHE


__all__ = [
    "AddressFn",
    "CompiledOperands",
    "CompiledProgram",
    "CompiledProgramCache",
    "DecodedOp",
    "ReadFn",
    "StepFn",
    "WriteFn",
    "as_compiled",
    "compile_address",
    "compile_cond_branch",
    "compile_indirect_branch",
    "compile_linear",
    "compile_no_op",
    "compile_program",
    "compile_uncond_branch",
    "condition_evaluator",
    "decode_op",
    "make_step",
    "program_digest",
    "shared_compiled_cache",
]
