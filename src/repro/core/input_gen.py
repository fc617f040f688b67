"""Input generation with reduced PRNG entropy (paper §5.2).

An input assigns values to the generator's register pool, the FLAGS bits
and the memory sandbox. Values come from a seeded 32-bit PRNG whose output
is masked down to ``entropy_bits`` bits (then shifted to cache-line
granularity so that distinct values map to distinct cache sets). Lower
entropy raises *input effectiveness* — the probability that several inputs
collide on the same contract trace — at the cost of a smaller tested value
range, exactly the trade-off the paper describes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.emulator.state import InputData, SandboxLayout


@dataclass
class InputGenerator:
    """Seeded low-entropy input generator.

    ``registers`` and ``flag_bits`` default to the x86-64 backend's
    register pool and flag set; pass the target architecture's values
    (``arch.default_register_pool`` / ``arch.registers.flag_bits``) when
    fuzzing another backend.
    """

    seed: int = 0
    entropy_bits: int = 2
    registers: Optional[Sequence[str]] = None
    layout: SandboxLayout = field(default_factory=SandboxLayout)
    randomize_flags: bool = True
    flag_bits: Optional[Sequence[str]] = None

    def __post_init__(self) -> None:
        if not 1 <= self.entropy_bits <= 32:
            raise ValueError("entropy_bits must be in [1, 32]")
        if self.registers is None or self.flag_bits is None:
            from repro.arch import get_architecture

            default = get_architecture("x86_64")
            if self.registers is None:
                self.registers = default.default_register_pool
            if self.flag_bits is None:
                self.flag_bits = default.registers.flag_bits
        self._rng = random.Random(self.seed)

    def _value(self, rng: random.Random) -> int:
        """One masked PRNG value, in cache-line units (64B granularity)."""
        raw = rng.getrandbits(32)
        masked = raw & ((1 << self.entropy_bits) - 1)
        return masked << 6

    def generate_one(self, input_seed: Optional[int] = None) -> InputData:
        """Generate a single input (optionally from an explicit seed).

        Without ``input_seed`` the input's seed is the next 32-bit draw
        of the generator's own PRNG. An explicit ``input_seed`` leaves
        that PRNG untouched, so the generator's next seed-less input is
        the one it would have produced without this call.
        """
        seed = (
            input_seed if input_seed is not None else self._rng.getrandbits(32)
        )
        rng = random.Random(seed)
        registers = {name: self._value(rng) for name in self.registers}
        flags = (
            {flag: bool(rng.getrandbits(1)) for flag in self.flag_bits}
            if self.randomize_flags
            else {}
        )
        return InputData(
            registers=registers,
            flags=flags,
            memory=self._sandbox_image(rng),
            seed=seed,
        )

    def _sandbox_image(self, rng: random.Random) -> bytes:
        """One :meth:`_value` per 8-byte sandbox word, drawn in bulk.

        ``getrandbits(32 * words)`` fills its result least significant
        32-bit word first, so word *i* of one bulk draw equals the
        *i*-th of ``words`` consecutive ``getrandbits(32)`` calls, and
        the PRNG ends in the same state. Each word is masked to
        ``entropy_bits``, widened to a little-endian 8-byte slot, and the
        whole image is shifted by 6: a slot holds at most 38 bits, so no
        bit crosses into the next slot.
        """
        words = self.layout.size // 8
        word_mask = (1 << self.entropy_bits) - 1
        masked = rng.getrandbits(32 * words) & int.from_bytes(
            word_mask.to_bytes(4, "little") * words, "little"
        )
        packed = masked.to_bytes(4 * words, "little")
        slots = bytearray(8 * words)
        for byte in range(4):
            slots[byte::8] = packed[byte::4]
        return (int.from_bytes(slots, "little") << 6).to_bytes(8 * words, "little")

    def generate(self, count: int) -> List[InputData]:
        """Generate a priming sequence of ``count`` pseudorandom inputs."""
        return [self.generate_one() for _ in range(count)]


def effectiveness(class_sizes: Sequence[int]) -> float:
    """Fraction of inputs that landed in non-singleton contract classes.

    This is the paper's *input effectiveness* metric (CH2): singleton
    classes are wasted effort because a lone input can never form a
    counterexample.
    """
    total = sum(class_sizes)
    if total == 0:
        return 0.0
    effective = sum(size for size in class_sizes if size >= 2)
    return effective / total


__all__ = ["InputGenerator", "effectiveness"]
