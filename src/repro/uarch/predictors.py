"""Branch predictors and the memory disambiguator.

These structures carry the *microarchitectural context* (``Ctx`` in the
paper's Definition 1): they persist across inputs within one priming
sequence, so earlier inputs train them for later ones — the priming
technique of §5.3 exploits exactly this.
"""

from __future__ import annotations

from typing import Dict, List, Optional


class ConditionalBranchPredictor:
    """Two-bit saturating counters indexed by pc.

    Counter values 0-1 predict not-taken, 2-3 predict taken; unknown
    pcs start weakly not-taken (1). The counters persist across runs —
    microarchitectural context that earlier inputs of a priming
    sequence set for later ones.

    There is deliberately no global history. Per-PC counters are the
    right model for the executor's repeated-measurement scheme: with
    history, a *fixed* priming sequence is perfectly learnable, so
    after the warm-up pass the predictor stops mispredicting and
    steady-state transient leakage disappears; per-PC counters keep
    mispredicting at direction switches forever, like the aliased and
    capacity-limited predictors of real parts.
    """

    def __init__(self):
        self._counters: Dict[int, int] = {}

    def predict(self, pc: int) -> bool:
        return self._counters.get(pc, 1) >= 2

    def update(self, pc: int, taken: bool) -> None:
        counter = self._counters.get(pc, 1)
        counter = min(3, counter + 1) if taken else max(0, counter - 1)
        self._counters[pc] = counter

    def reset(self) -> None:
        self._counters.clear()


class BranchTargetBuffer:
    """Last-target predictor for indirect branches (Spectre V2 substrate)."""

    def __init__(self):
        self._targets: Dict[int, int] = {}

    def predict(self, pc: int) -> Optional[int]:
        return self._targets.get(pc)

    def update(self, pc: int, target: int) -> None:
        self._targets[pc] = target

    def reset(self) -> None:
        self._targets.clear()


class ReturnStackBuffer:
    """A bounded return-address stack (Spectre V5/ret2spec substrate).

    Updated speculatively (pushes and pops are not rolled back on squash),
    matching real hardware.
    """

    def __init__(self, depth: int = 16):
        self.depth = depth
        self._stack: List[int] = []

    def push(self, return_address: int) -> None:
        self._stack.append(return_address)
        if len(self._stack) > self.depth:
            self._stack.pop(0)

    def pop(self) -> Optional[int]:
        return self._stack.pop() if self._stack else None

    def reset(self) -> None:
        self._stack.clear()


class MemoryDisambiguator:
    """Predicts whether a load aliases an older, unresolved store.

    Optimistic: unknown loads are predicted not to alias, enabling
    speculative store bypass (Spectre V4). A wrong bypass trains the
    per-PC counter toward "alias"; every prediction decays it back toward
    "no alias", modelling the periodic re-enabling of speculative bypass
    on Intel parts. The decay is a *per-PC* counter (not a global timer)
    so that, for a fixed priming sequence, the same inputs bypass in every
    measurement pass — repeatable traces are what the executor's warm-up
    and outlier filtering rely on.
    """

    def __init__(self):
        self._counters: Dict[int, int] = {}

    def predict_no_alias(self, pc: int) -> bool:
        counter = self._counters.get(pc, 0)
        prediction = counter < 2
        self._counters[pc] = max(0, counter - 1)  # decay toward "no alias"
        return prediction

    def update(self, pc: int, aliased: bool) -> None:
        counter = self._counters.get(pc, 0)
        counter = min(3, counter + 2) if aliased else max(0, counter - 1)
        self._counters[pc] = counter

    def reset(self) -> None:
        self._counters.clear()


__all__ = [
    "BranchTargetBuffer",
    "ConditionalBranchPredictor",
    "MemoryDisambiguator",
    "ReturnStackBuffer",
]
