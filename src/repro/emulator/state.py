"""Architectural state: registers, flags and the memory sandbox.

The paper confines all memory accesses of a test case to a *sandbox* of one
or two 4KB pages (§5.1) whose base address lives in a reserved register
(R14 on x86-64, X27 on AArch64). An *input* (paper §5.2) is an assignment
of values to registers, flag bits and the sandbox memory.

The register file, flag bits and sandbox/stack conventions come from the
:class:`~repro.arch.base.Architecture` descriptor; when none is given the
default (x86-64) backend is used.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple

from repro.emulator.errors import SandboxViolation


def _default_architecture():
    from repro.arch import get_architecture

    return get_architecture("x86_64")

PAGE_SIZE = 4096

_WIDTH_MASKS = {8: 0xFF, 16: 0xFFFF, 32: 0xFFFFFFFF, 64: 0xFFFFFFFFFFFFFFFF}


@dataclass(frozen=True)
class SandboxLayout:
    """Geometry of the memory sandbox.

    The first page is the *main* area used by generated code; the second
    page (when present) hosts the assist page for ``*+Assist`` executor
    modes and the stack used by CALL/RET gadgets.
    """

    base: int = 0x10000
    num_pages: int = 2

    @property
    def size(self) -> int:
        return self.num_pages * PAGE_SIZE

    @property
    def end(self) -> int:
        return self.base + self.size

    @property
    def main_area_size(self) -> int:
        return PAGE_SIZE

    @property
    def assist_page_index(self) -> int:
        """Page whose accessed bit is cleared in ``*+Assist`` modes."""
        return self.num_pages - 1

    @property
    def stack_top(self) -> int:
        """Initial stack pointer for gadgets that use CALL/RET."""
        return self.end - 8

    def contains(self, address: int, size: int = 1) -> bool:
        return self.base <= address and address + size <= self.end

    def page_of(self, address: int) -> int:
        return (address - self.base) // PAGE_SIZE

    def __repr__(self) -> str:
        return f"SandboxLayout(base={self.base:#x}, pages={self.num_pages})"


@dataclass(frozen=True)
class InputData:
    """One input to a test case: register, flag and memory initialization.

    ``memory`` may be shorter than the sandbox; the remainder is zeroed.
    ``seed`` records the PRNG seed for reproducibility and debugging.
    """

    registers: Mapping[str, int] = field(default_factory=dict)
    flags: Mapping[str, bool] = field(default_factory=dict)
    memory: bytes = b""
    seed: Optional[int] = None

    def fingerprint(self) -> int:
        """A stable hash usable as a dictionary key in reports."""
        items: Tuple = (
            tuple(sorted(self.registers.items())),
            tuple(sorted(self.flags.items())),
            self.memory,
        )
        return hash(items)

    def __repr__(self) -> str:
        regs = ", ".join(f"{r}={v:#x}" for r, v in sorted(self.registers.items()))
        return f"InputData(seed={self.seed}, {regs}, mem[{len(self.memory)}])"


Snapshot = Tuple[Dict[str, int], Dict[str, bool], bytes]


class ArchState:
    """Mutable architectural state of the emulated machine.

    ``arch`` selects the register file and the fixed-register
    conventions; it defaults to the x86-64 backend.
    """

    def __init__(self, layout: Optional[SandboxLayout] = None, arch=None):
        self.arch = arch or _default_architecture()
        self.layout = layout = layout or SandboxLayout()
        regfile = self.arch.registers
        self.registers: Dict[str, int] = dict(regfile.zero_registers)
        self.flags: Dict[str, bool] = dict(regfile.zero_flags)
        # the sandbox bounds as plain ints: every memory access checks them
        self._base = layout.base
        self._end = layout.end
        self.memory = bytearray(layout.size)
        #: the registers the sandbox convention fixes, whatever the input
        self._fixed_registers: Dict[str, int] = {
            regfile.sandbox_base_register: self._base
        }
        if regfile.stack_register is not None:
            self._fixed_registers[regfile.stack_register] = layout.stack_top
        self.registers.update(self._fixed_registers)

    def load_input(self, input_data: InputData) -> None:
        """Reset the state and apply an input (paper §5.3 step 2).

        Inputs are applied in order through :meth:`write_register`, so a
        narrow view merges into the value an earlier entry wrote and an
        unknown register is rejected.
        """
        regfile = self.arch.registers
        registers = self.registers
        registers.update(regfile.zero_registers)
        flags = self.flags
        flags.update(regfile.zero_flags)
        for name, value in input_data.registers.items():
            self.write_register(name, value)
        for flag, value in input_data.flags.items():
            if flag not in flags:
                raise KeyError(f"unknown flag: {flag!r}")
            flags[flag] = bool(value)
        size = self.layout.size
        data = input_data.memory[:size]
        self.memory[: len(data)] = data
        self.memory[len(data) : size] = bytes(size - len(data))
        registers.update(self._fixed_registers)

    # -- registers ---------------------------------------------------------

    def read_register(self, name: str) -> int:
        """Read a register view, masked to its width."""
        regfile = self.arch.registers
        return self.registers[regfile.canonical(name)] & _WIDTH_MASKS[
            regfile.width(name)
        ]

    def write_register(self, name: str, value: int) -> None:
        """Write a register view: 64-bit writes replace, 32-bit writes
        zero-extend (x86-64 and AArch64 agree), narrower views merge."""
        try:
            canonical, width = self.arch.registers.views[name.upper()]
        except KeyError:
            raise ValueError(f"unknown register: {name!r}") from None
        mask = _WIDTH_MASKS[width]
        value &= mask
        if width >= 32:
            # 64-bit writes replace; 32-bit writes zero the upper half.
            self.registers[canonical] = value
        else:
            old = self.registers[canonical]
            self.registers[canonical] = (old & ~mask) | value

    # -- flags --------------------------------------------------------------

    def read_flag(self, flag: str) -> bool:
        return self.flags[flag]

    def write_flag(self, flag: str, value: bool) -> None:
        if flag not in self.flags:
            raise KeyError(f"unknown flag: {flag!r}")
        self.flags[flag] = bool(value)

    # -- memory --------------------------------------------------------------

    def _check_bounds(self, address: int, size: int) -> None:
        if not (self._base <= address and address + size <= self._end):
            raise SandboxViolation(address, size, repr(self.layout))

    def read_memory(self, address: int, size: int) -> int:
        """Read ``size`` bytes at ``address`` (little-endian integer)."""
        self._check_bounds(address, size)
        offset = address - self._base
        return int.from_bytes(self.memory[offset : offset + size], "little")

    def write_memory(self, address: int, size: int, value: int) -> None:
        """Write ``size`` bytes at ``address`` (little-endian)."""
        self._check_bounds(address, size)
        offset = address - self._base
        value &= (1 << (size * 8)) - 1
        self.memory[offset : offset + size] = value.to_bytes(size, "little")

    # -- checkpoints (paper §5.4 execution clauses) ---------------------------

    def snapshot(self) -> Snapshot:
        """Capture a checkpoint for speculative rollback."""
        return (dict(self.registers), dict(self.flags), bytes(self.memory))

    def restore(self, snapshot: Snapshot) -> None:
        """Roll back to a checkpoint."""
        registers, flags, memory = snapshot
        self.registers = dict(registers)
        self.flags = dict(flags)
        self.memory = bytearray(memory)


__all__ = ["ArchState", "InputData", "SandboxLayout", "PAGE_SIZE"]
