"""Test diversity analysis via pattern coverage (paper §5.6).

Without coverage feedback from a black-box CPU, the fuzzer estimates how
likely the current generator configuration is to exercise new speculative
paths by counting *patterns*: pairs of consecutive instructions whose
data/control dependencies are likely to cause pipeline hazards.

- memory-dependency patterns: two consecutive accesses to the same
  address — ``store-after-store``, ``store-after-load``,
  ``load-after-store``, ``load-after-load``;
- register-dependency patterns: the second instruction consumes a result
  of the first — over a GPR (``reg-dep``) or over FLAGS (``flag-dep``);
- control-dependency patterns: a control-flow instruction followed by any
  instruction — ``cond-branch``, ``uncond-branch``.

A pattern is *covered* once a program and two inputs of the same input
class both match it (a single input can never form a counterexample).
Combinations of patterns within one test case are tracked too, to capture
interactions between speculation types.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Dict, FrozenSet, Iterable, List, Sequence, Set, Tuple

from repro.traces import ExecutionLog, ExecutionLogEntry

MEMORY_PATTERNS = (
    "store-after-store",
    "store-after-load",
    "load-after-store",
    "load-after-load",
)
REGISTER_PATTERNS = ("reg-dep", "flag-dep")
CONTROL_PATTERNS = ("cond-branch", "uncond-branch")

ALL_PATTERNS: Tuple[str, ...] = MEMORY_PATTERNS + REGISTER_PATTERNS + CONTROL_PATTERNS


def _pair_patterns(
    first: ExecutionLogEntry, second: ExecutionLogEntry
) -> Set[str]:
    """Patterns matched by one consecutive instruction pair."""
    patterns: Set[str] = set()
    if first.addresses and second.addresses:
        shared = set(first.addresses) & set(second.addresses)
        if shared:
            if first.is_store and second.is_store:
                patterns.add("store-after-store")
            if first.is_load and second.is_store:
                patterns.add("store-after-load")
            if first.is_store and second.is_load:
                patterns.add("load-after-store")
            if first.is_load and second.is_load:
                patterns.add("load-after-load")
    if set(first.registers_written) & set(second.registers_read):
        patterns.add("reg-dep")
    if set(first.flags_written) & set(second.flags_read):
        patterns.add("flag-dep")
    if first.is_cond_branch:
        patterns.add("cond-branch")
    if first.is_uncond_branch:
        patterns.add("uncond-branch")
    return patterns


def patterns_in_log(log: ExecutionLog) -> Set[str]:
    """All patterns matched anywhere in one execution's instruction stream."""
    matched: Set[str] = set()
    entries = log.entries
    for first, second in zip(entries, entries[1:]):
        matched |= _pair_patterns(first, second)
    return matched


@dataclass
class PatternCoverage:
    """Accumulates covered patterns and pattern pairs across rounds (the
    paper counts individual patterns and their pairs)."""

    covered: Set[FrozenSet[str]] = field(default_factory=set)

    def update_from_class(self, member_patterns: Sequence[Set[str]]) -> Set[FrozenSet[str]]:
        """Record coverage from one input class.

        ``member_patterns`` holds the per-input pattern sets of the class
        members; a pattern (or combination) counts as covered when at
        least two members match it.
        """
        newly: Set[FrozenSet[str]] = set()
        if len(member_patterns) < 2:
            return newly
        counts: Dict[FrozenSet[str], int] = {}
        for patterns in member_patterns:
            for combo in self._combinations(patterns):
                counts[combo] = counts.get(combo, 0) + 1
        for combo, count in counts.items():
            if count >= 2 and combo not in self.covered:
                self.covered.add(combo)
                newly.add(combo)
        return newly

    def _combinations(self, patterns: Set[str]) -> Iterable[FrozenSet[str]]:
        for size in (1, 2):
            for combo in combinations(sorted(patterns), size):
                yield frozenset(combo)

    # -- coverage targets (feedback thresholds, §5.6) --------------------------

    def individual_coverage(self) -> float:
        """Fraction of individual patterns covered."""
        singles = sum(1 for combo in self.covered if len(combo) == 1)
        return singles / len(ALL_PATTERNS)

    def pair_coverage(self, available_patterns: Sequence[str] = ALL_PATTERNS) -> float:
        """Fraction of pattern pairs covered (of those expressible)."""
        total = len(list(combinations(available_patterns, 2)))
        pairs = sum(1 for combo in self.covered if len(combo) == 2)
        return pairs / total if total else 1.0

    def all_individuals_covered(self, available_patterns: Sequence[str]) -> bool:
        covered_singles = {
            next(iter(combo)) for combo in self.covered if len(combo) == 1
        }
        return set(available_patterns) <= covered_singles

    def all_pairs_covered(self, available_patterns: Sequence[str]) -> bool:
        covered_pairs = {combo for combo in self.covered if len(combo) == 2}
        wanted = {
            frozenset(pair) for pair in combinations(sorted(available_patterns), 2)
        }
        return wanted <= covered_pairs


def available_patterns_for_subsets(subsets: Sequence[str]) -> Tuple[str, ...]:
    """The patterns expressible by a given instruction-subset selection.

    An AR-only target can never produce memory-dependency patterns, so
    demanding their coverage would stall the feedback loop forever.
    """
    names: List[str] = list(REGISTER_PATTERNS)
    upper = {name.upper() for name in subsets}
    if "MEM" in upper or "VAR" in upper:
        names.extend(MEMORY_PATTERNS)
    if "CB" in upper:
        names.extend(CONTROL_PATTERNS)
    return tuple(names)


__all__ = [
    "ALL_PATTERNS",
    "CONTROL_PATTERNS",
    "MEMORY_PATTERNS",
    "PatternCoverage",
    "REGISTER_PATTERNS",
    "available_patterns_for_subsets",
    "patterns_in_log",
]
