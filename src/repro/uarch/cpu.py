"""The speculative CPU simulator: a black box producing hardware traces.

``SpeculativeCPU.run`` executes a test case with one input, modelling an
in-order-fetch, dataflow-stalling speculative pipeline with an explicit
cycle clock:

- an instruction *issues* at ``max(fetch cycle, operand-ready cycles)`` and
  makes its results available after its latency;
- a mispredicted branch opens a *speculation frame* (an architectural
  checkpoint) that is squashed at the branch's resolve cycle; wrong-path
  instructions execute — and leave cache traces — only if they issue before
  the squash. Operand-dependent DIV latency therefore races against branch
  resolution, reproducing the paper's V1-var/V4-var leaks (§6.3);
- a load that issues before an older aliasing store's address is resolved
  speculatively *bypasses* the store (Spectre V4) when the memory
  disambiguator predicts no alias; it is squashed and replayed once the
  alias is detected;
- an access to a page whose accessed bit is clear triggers a *microcode
  assist*: a transient window in which the load forwards stale
  store-buffer/line-fill-buffer data (MDS) or zero (LVI-Null on
  MDS-patched parts) before the replay;
- speculative stores allocate cache lines only when the configuration says
  so (Coffee Lake: yes; Skylake: no — the §6.4 experiment).

The cache, predictors and line-fill buffer persist across :meth:`run`
calls; they are the microarchitectural context ``Ctx`` that the executor's
priming sequences manipulate. :meth:`reset_context` starts a fresh context
for a new test case.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple, Union

from repro.isa.instruction import Instruction, LinearProgram
from repro.emulator.compiled import CompiledProgram, compile_linear
from repro.emulator.errors import EmulationFault, ExecutionLimitExceeded
from repro.emulator.state import ArchState, InputData, SandboxLayout, Snapshot
from repro.uarch.cache import L1DCache
from repro.uarch.config import UarchConfig
from repro.uarch.lfb import LineFillBuffer
from repro.uarch.predictors import (
    BranchTargetBuffer,
    ConditionalBranchPredictor,
    MemoryDisambiguator,
    ReturnStackBuffer,
)

DEFAULT_MAX_STEPS = 50_000


@dataclass
class _StoreEntry:
    """A store-buffer entry of the current execution.

    The covered interval ``[address, end)`` is precomputed on
    construction: the overlap scans of the store-bypass machinery probe
    every buffered entry per load, and re-deriving ``address + size``
    on each probe was pure hot-path overhead.
    """

    address: int
    size: int
    value: int
    old_value: int
    addr_ready: int  # cycle at which the store's address is resolved
    pc: int
    #: one past the last covered byte, fixed at construction
    end: int = field(init=False)

    def __post_init__(self) -> None:
        self.end = self.address + self.size

    def overlaps_exactly(self, address: int, size: int) -> bool:
        return self.address == address and self.size == size

    def overlaps(self, address: int, size: int) -> bool:
        return self.address < address + size and address < self.end


_Timing = Tuple[Dict[str, int], Dict[str, int], List[_StoreEntry]]


@dataclass
class _Frame:
    """One open speculation frame (an unresolved squash point)."""

    kind: str  # "cond" | "indirect" | "ret" | "bypass" | "assist"
    snapshot: Snapshot
    timing: _Timing
    resume_pc: int
    squash_cycle: int
    executed: int = 0
    load_pc: Optional[int] = None  # for "bypass": trains the disambiguator


@dataclass
class RunInfo:
    """Diagnostics of one run. Only used for *post-hoc* classification of
    violations (the paper's manual inspection); the MRT pipeline itself
    never looks inside."""

    instructions_executed: int = 0
    squashes: List[str] = field(default_factory=list)
    assists_triggered: int = 0
    #: (frame kind, address) for every cache-visible speculative access
    speculative_accesses: List[Tuple[str, int]] = field(default_factory=list)
    #: (kind, injected value) for every assist value injection
    injected_values: List[Tuple[str, int]] = field(default_factory=list)

    @property
    def speculation_kinds(self) -> Set[str]:
        return set(kind for kind, _ in self.speculative_accesses)


class SpeculativeCPU:
    """A simulated CPU under test: black box from (program, input, context)
    to microarchitectural cache state."""

    def __init__(
        self,
        config: UarchConfig,
        layout: Optional[SandboxLayout] = None,
        arch=None,
    ):
        self.config = config
        self.layout = layout or SandboxLayout()
        self.cache = L1DCache()
        self.cond_predictor = ConditionalBranchPredictor()
        self.btb = BranchTargetBuffer()
        self.rsb = ReturnStackBuffer()
        self.disambiguator = MemoryDisambiguator()
        self.lfb = LineFillBuffer()
        self.assist_pages: Set[int] = set()
        self.state = ArchState(self.layout, arch)
        self.arch = self.state.arch

    # -- context management (executor interface) ---------------------------

    def reset_context(self) -> None:
        """Start a fresh microarchitectural context (new test case)."""
        self.cache.flush_all()
        self.cond_predictor.reset()
        self.btb.reset()
        self.rsb.reset()
        self.disambiguator.reset()
        self.lfb.reset()
        self.assist_pages.clear()

    def clear_accessed_bit(self, page_index: int) -> None:
        """Make the next access to this page trigger a microcode assist
        (the executor's ``*+Assist`` preparation, §5.3)."""
        self.assist_pages.add(page_index)

    # -- execution ----------------------------------------------------------

    def run(
        self,
        program: Union[LinearProgram, CompiledProgram],
        input_data: InputData,
        max_steps: int = DEFAULT_MAX_STEPS,
        trace_hook=None,
    ) -> RunInfo:
        """Execute the program once; leak into the cache as configured.

        ``program`` is either a plain :class:`LinearProgram` — decoded
        on the fly with the reference (interpretive) handlers — or a
        :class:`~repro.emulator.compiled.CompiledProgram` lowered once
        upstream (the executor compiles per collection and reuses the
        IR across every warm-up, repetition and priming input). Both
        produce bit-identical runs; only the per-step decode cost
        differs.

        ``trace_hook(pc, issue_cycle, speculative)`` is called for every
        executed instruction (tests and diagnostics only).
        """
        if isinstance(program, CompiledProgram):
            if program.arch is not self.arch:
                raise ValueError(
                    f"program compiled for {program.arch!r}, "
                    f"CPU runs {self.arch!r}"
                )
            compiled = program
        else:
            compiled = compile_linear(program, self.arch, interpretive=True)
        ops = compiled.ops
        state = self.state
        state.load_input(input_data)
        config = self.config
        info = RunInfo()

        # per-run constants and bound methods, looked up once
        max_depth = config.max_speculation_depth
        rob_size = config.rob_size
        base_latency = config.base_latency
        multiply_latency = config.multiply_latency
        load_hit_latency = config.load_hit_latency
        load_miss_latency = config.load_miss_latency
        store_agu_latency = config.store_agu_latency
        speculative_stores_visible = config.speculative_stores_update_cache
        assist_pages = self.assist_pages
        cache_access = self.cache.access
        lfb_record = self.lfb.record
        record_speculative = info.speculative_accesses.append

        regfile = self.arch.registers
        reg_ready: Dict[str, int] = dict.fromkeys(regfile.gpr_names, 0)
        flag_ready: Dict[str, int] = dict.fromkeys(regfile.flag_bits, 0)
        store_buffer: List[_StoreEntry] = []
        frames: List[_Frame] = []
        pc = 0
        cycle = 0
        executed = 0
        end = len(ops)

        def timing_snapshot() -> _Timing:
            return (dict(reg_ready), dict(flag_ready), list(store_buffer))

        def squash(index: int) -> int:
            """Resolve frame ``index``: roll back it and everything after."""
            nonlocal cycle, store_buffer
            frame = frames[index]
            del frames[index:]
            state.restore(frame.snapshot)
            saved_regs, saved_flags, saved_buffer = frame.timing
            reg_ready.clear()
            reg_ready.update(saved_regs)
            flag_ready.clear()
            flag_ready.update(saved_flags)
            store_buffer = saved_buffer
            cycle = max(cycle, frame.squash_cycle)
            if frame.kind == "bypass" and frame.load_pc is not None:
                self.disambiguator.update(frame.load_pc, aliased=True)
            info.squashes.append(frame.kind)
            return frame.resume_pc

        def earliest_frame() -> int:
            return min(range(len(frames)), key=lambda i: frames[i].squash_cycle)

        while True:
            if executed >= max_steps:
                raise ExecutionLimitExceeded(
                    f"CPU exceeded {max_steps} instructions"
                )
            if not 0 <= pc < end:
                if frames:
                    pc = squash(earliest_frame())
                    continue
                break

            op = ops[pc]
            speculative = bool(frames)

            # A serializing fence (LFENCE/MFENCE on x86, DSB/ISB on
            # AArch64) waits for all older work; any open misprediction
            # resolves, squashing the wrong path the fence sits on.
            if speculative and op.is_serializing:
                pc = squash(earliest_frame())
                continue

            # -- issue cycle: dataflow stalls --------------------------------
            issue = cycle
            for register in op.issue_regs:
                ready = reg_ready[register]
                if ready > issue:
                    issue = ready
            for flag in op.flags_read:
                ready = flag_ready[flag]
                if ready > issue:
                    issue = ready
            # a store's address resolves from this dataflow cycle, before
            # any store-bypass stall below
            data_issue = issue

            # -- squash deadline check ----------------------------------------
            if frames:
                idx = earliest_frame()
                if issue >= frames[idx].squash_cycle:
                    pc = squash(idx)
                    continue

            # (address, size) of each explicit memory operand, from the
            # IR's precompiled address closures. Only an armed assist page
            # or a load meeting buffered stores reads them, and they must
            # be taken before ``op.run``: ``MOV RAX, [RAX]``, POP and RET
            # overwrite their own address registers.
            assist_armed = assist_pages and len(frames) < max_depth
            may_bypass = op.is_load and store_buffer
            if assist_armed or may_bypass:
                pre_accesses = [
                    (address_of(state), size)
                    for address_of, size in op.mem_operands
                ]
            # (address, size, architectural value) to restore right after
            # this instruction executes: value injections (bypass/assist)
            # must only be visible to the injected load itself
            pending_unpatch: Optional[Tuple[int, int, int]] = None

            # -- microcode assist (\*+Assist executor modes) -------------------
            assist_fired = False
            if assist_armed:
                for address, size in pre_accesses:
                    if not self.layout.contains(address, size):
                        continue
                    page = self.layout.page_of(address)
                    if page not in assist_pages:
                        continue
                    assist_pages.discard(page)
                    info.assists_triggered += 1
                    frames.append(
                        _Frame(
                            kind="assist",
                            snapshot=state.snapshot(),
                            timing=timing_snapshot(),
                            resume_pc=pc,
                            squash_cycle=issue + config.assist_window,
                        )
                    )
                    if op.is_load:
                        injected = self._assist_value(store_buffer)
                        pending_unpatch = (
                            address,
                            size,
                            state.read_memory(address, size),
                        )
                        state.write_memory(address, size, injected)
                        info.injected_values.append(
                            ("stale" if config.assists_leak_stale_data else "zero",
                             injected)
                        )
                    assist_fired = True
                    speculative = True
                    break

            # -- store bypass (Spectre V4) -------------------------------------
            if may_bypass and not assist_fired:
                for address, size in pre_accesses:
                    entry = self._youngest_overlap(store_buffer, address, size)
                    if entry is None:
                        continue
                    if entry.addr_ready <= issue:
                        continue  # resolved: store-to-load forwarding
                    if not entry.overlaps_exactly(address, size):
                        # partial overlap: conservative stall until resolved
                        issue = max(issue, entry.addr_ready)
                        continue
                    can_bypass = (
                        config.store_bypass
                        and len(frames) < max_depth
                        and self.disambiguator.predict_no_alias(pc)
                    )
                    if not can_bypass:
                        issue = max(issue, entry.addr_ready)
                        continue
                    oldest = self._oldest_unresolved_overlap(
                        store_buffer, address, size, issue
                    )
                    frames.append(
                        _Frame(
                            kind="bypass",
                            snapshot=state.snapshot(),
                            timing=timing_snapshot(),
                            resume_pc=pc,
                            squash_cycle=entry.addr_ready
                            + config.disambiguation_penalty,
                            load_pc=pc,
                        )
                    )
                    pending_unpatch = (
                        address,
                        size,
                        state.read_memory(address, size),
                    )
                    state.write_memory(address, size, oldest.old_value)
                    speculative = True
                    break

            # -- architectural execution ---------------------------------------
            try:
                result = op.run(state)
            except EmulationFault:
                # a fault inside speculation squashes; the rollback also
                # undoes any pending value-injection patch
                if frames:
                    pc = squash(earliest_frame())
                    continue
                raise
            executed += 1
            if trace_hook is not None:
                trace_hook(pc, issue, bool(frames))
            if pending_unpatch is not None:
                address, size, value = pending_unpatch
                if not any(s.address == address for s in result.stores):
                    # the injected value was only for this load; keep memory
                    # architectural for the rest of the transient window
                    state.write_memory(address, size, value)

            # -- division latency needs post-division results -------------------
            latency_class = op.latency_class
            if latency_class == "division":
                latency = self._division_latency_of(op)
            elif latency_class == "multiply":
                latency = multiply_latency
            else:
                latency = base_latency

            # -- cache effects and memory latencies -----------------------------
            for access in result.mem_accesses:
                address = access.address
                if access.is_write:
                    if not frames:
                        cache_access(address)
                    elif speculative_stores_visible:
                        cache_access(address)
                        record_speculative((frames[-1].kind, address))
                    lfb_record(address, access.value)
                    addr_ready = data_issue
                    for register in op.addr_regs:
                        ready = reg_ready[register]
                        if ready > addr_ready:
                            addr_ready = ready
                    store_buffer.append(
                        _StoreEntry(
                            address=address,
                            size=access.size,
                            value=access.value,
                            old_value=access.old_value,
                            addr_ready=addr_ready + store_agu_latency,
                            pc=pc,
                        )
                    )
                else:
                    access_latency = (
                        load_hit_latency
                        if cache_access(address)
                        else load_miss_latency
                    )
                    if access_latency > latency:
                        latency = access_latency
                    lfb_record(address, access.value)
                    if frames:
                        record_speculative((frames[-1].kind, address))

            done = issue + latency
            for register in op.registers_written:
                reg_ready[register] = done
            for flag in op.flags_written:
                flag_ready[flag] = done

            # -- control flow and prediction -------------------------------------
            next_pc = result.next_pc
            branch = result.branch
            if branch is not None:
                next_pc = self._handle_branch(
                    op.instruction,
                    branch,
                    pc,
                    issue,
                    frames,
                    speculative,
                    state,
                    timing_snapshot,
                )

            # -- reorder-buffer window accounting ---------------------------------
            if frames:
                squashed_by_rob = False
                for index, frame in enumerate(frames):
                    frame.executed += 1
                    if frame.executed > rob_size:
                        pc = squash(index)
                        squashed_by_rob = True
                        break
                if squashed_by_rob:
                    continue

            cycle = issue + 1
            pc = next_pc

        info.instructions_executed = executed
        return info

    # -- helpers --------------------------------------------------------------

    def _assist_value(self, store_buffer: List[_StoreEntry]) -> int:
        """The value transiently forwarded to a load that takes an assist."""
        if not self.config.assists_leak_stale_data:
            return 0  # LVI-Null: hardware MDS patch forwards zeros
        if store_buffer:
            return store_buffer[-1].value  # Fallout-style store-buffer leak
        stale = self.lfb.stale_value()
        return stale if stale is not None else 0

    @staticmethod
    def _youngest_overlap(
        store_buffer: List[_StoreEntry], address: int, size: int
    ) -> Optional[_StoreEntry]:
        # the probe interval is derived once; entries carry theirs
        # precomputed from construction
        end = address + size
        for entry in reversed(store_buffer):
            if entry.address < end and address < entry.end:
                return entry
        return None

    @staticmethod
    def _oldest_unresolved_overlap(
        store_buffer: List[_StoreEntry], address: int, size: int, issue: int
    ) -> _StoreEntry:
        end = address + size
        for entry in store_buffer:
            if entry.address < end and address < entry.end and entry.addr_ready > issue:
                return entry
        raise AssertionError("caller guarantees an unresolved overlap exists")

    def _division_latency_of(self, op) -> int:
        """Operand-dependent latency of a division (the §6.3 leak source).

        The architecture says where the quotient lands (RAX on x86, the
        destination register on AArch64) — the IR binds that lookup at
        compile time (``DecodedOp.division_value``); the divider's
        latency grows with the number of significant quotient bits, as
        on real radix-16 dividers.
        """
        quotient = op.division_value(self.state)
        return (
            self.config.div_base_latency
            + self.config.div_per_bit_latency * quotient.bit_length()
        )

    def _handle_branch(
        self,
        instruction: Instruction,
        branch,
        pc: int,
        issue: int,
        frames: List[_Frame],
        speculative: bool,
        state: ArchState,
        timing_snapshot,
    ) -> int:
        """Apply prediction to a branch; open a frame on misprediction.

        Returns the pc to fetch next (the predicted path on mispredictions).
        """
        config = self.config
        resolve_cycle = issue + config.branch_resolve_latency
        can_speculate = len(frames) < config.max_speculation_depth

        if branch.kind == "cond":
            predicted_taken = self.cond_predictor.predict(pc)
            if not speculative:
                self.cond_predictor.update(pc, branch.taken)
            if (
                predicted_taken != branch.taken
                and config.conditional_branch_speculation
                and can_speculate
            ):
                frames.append(
                    _Frame(
                        kind="cond",
                        snapshot=state.snapshot(),
                        timing=timing_snapshot(),
                        resume_pc=branch.target if branch.taken else branch.fallthrough,
                        squash_cycle=resolve_cycle,
                    )
                )
                return branch.fallthrough if branch.taken else branch.target
            return branch.target if branch.taken else branch.fallthrough

        if branch.kind == "indirect":
            predicted = self.btb.predict(pc)
            if not speculative:
                self.btb.update(pc, branch.target)
            if (
                predicted is not None
                and predicted != branch.target
                and config.indirect_branch_speculation
                and can_speculate
            ):
                frames.append(
                    _Frame(
                        kind="indirect",
                        snapshot=state.snapshot(),
                        timing=timing_snapshot(),
                        resume_pc=branch.target,
                        squash_cycle=resolve_cycle,
                    )
                )
                return predicted
            return branch.target

        if branch.kind == "call":
            # the RSB is updated even on speculative paths (real hardware)
            self.rsb.push(branch.fallthrough)
            return branch.target

        if branch.kind == "ret":
            predicted = self.rsb.pop()
            if (
                predicted is not None
                and predicted != branch.target
                and config.return_stack_speculation
                and can_speculate
            ):
                frames.append(
                    _Frame(
                        kind="ret",
                        snapshot=state.snapshot(),
                        timing=timing_snapshot(),
                        resume_pc=branch.target,
                        squash_cycle=resolve_cycle,
                    )
                )
                return predicted
            return branch.target

        # unconditional direct jump: never mispredicted
        return branch.target


__all__ = ["RunInfo", "SpeculativeCPU", "DEFAULT_MAX_STEPS"]
