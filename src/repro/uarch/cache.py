"""Set-associative L1D cache model with true LRU replacement.

The cache is the side channel: the executor mounts Prime+Probe /
Flush+Reload / Evict+Reload attacks against it (paper §5.3). Attacker
lines are modelled as negative tags so they can never collide with victim
lines.

Prime+Probe costs what the victim touched, not the cache's size. Every
change to a set goes through ``access``, ``evict_region`` (which
``flush_line`` calls) or ``flush_all``, and each records the sets it
changed; ``prime`` refills and ``probe`` counts only the sets recorded
since the last prime. Every other set still holds exactly the attacker
lines prime put there, in prime's order, so it needs no refill and shows
no eviction. Victims never reference the negative attacker tags, so for
them the record is just the sets their lines map to.

Flush+Reload and Evict+Reload cost what the cache holds, not the
monitored region's size. ``evict_region`` and ``cached_lines`` scan the
non-empty sets for region lines, and between measurements those hold
only the few lines the victim loaded since the last eviction. A line
counts only in its home set (``tag % num_sets``), where ``access`` puts
every line, so the scan finds exactly the lines a walk over the region
would. Only the negative attacker tags ``prime`` places can sit outside
their home set, and only a region that reaches below address 0 holds
their line numbers.
"""

from __future__ import annotations

from itertools import compress
from typing import List, Set, Tuple


class L1DCache:
    """A ``num_sets`` x ``ways`` cache of ``line_size``-byte lines.

    Each set is a list of tags in LRU order (most recently used first).
    The default geometry (64 sets, 8 ways, 64-byte lines) matches the
    Skylake/Coffee Lake L1D the paper measures.
    """

    def __init__(self, num_sets: int = 64, ways: int = 8, line_size: int = 64):
        self.num_sets = num_sets
        self.ways = ways
        self.line_size = line_size
        self._sets: List[List[int]] = [[] for _ in range(num_sets)]
        #: each set's attacker tags in prime order
        self._attacker_tags = [
            tuple(-(1 + index * ways + way) for way in range(ways))
            for index in range(num_sets)
        ]
        #: sets changed since the last prime (all of them before the first)
        self._touched: Set[int] = set(range(num_sets))

    def set_index(self, address: int) -> int:
        """The cache set an address maps to."""
        return (address // self.line_size) % self.num_sets

    def tag(self, address: int) -> int:
        """The line tag of an address (full line number for simplicity)."""
        return address // self.line_size

    def access(self, address: int) -> bool:
        """Access one line: return True on hit; update LRU; fill on miss."""
        tag = address // self.line_size  # tag() and set_index(), inline
        index = tag % self.num_sets
        self._touched.add(index)
        lines = self._sets[index]
        if tag in lines:
            lines.remove(tag)
            lines.insert(0, tag)
            return True
        lines.insert(0, tag)
        if len(lines) > self.ways:
            lines.pop()
        return False

    def contains(self, address: int) -> bool:
        """Is the line holding ``address`` currently cached? (no LRU update)"""
        return bool(self.cached_lines(address, 1))

    def flush_line(self, address: int) -> None:
        """CLFLUSH: evict the line holding ``address`` if present."""
        self.evict_region(address, 1)

    def flush_all(self) -> None:
        """WBINVD-style full flush."""
        self._sets = [[] for _ in range(self.num_sets)]
        self._touched = set(range(self.num_sets))

    # -- attacker primitives --------------------------------------------------

    def prime(self) -> None:
        """Prime+Probe step 1: fill every way of every set with attacker
        lines. Attacker tags are negative so they never alias victim lines.
        Only the sets changed since the last prime need refilling."""
        sets, attacker_tags = self._sets, self._attacker_tags
        for index in self._touched:
            sets[index] = list(attacker_tags[index])
        self._touched.clear()

    def probe(self) -> Set[int]:
        """Prime+Probe step 2: sets where at least one attacker line was
        evicted, i.e. sets the victim touched. A new set on every call;
        only sets changed since the last prime can have lost a line."""
        sets, ways = self._sets, self.ways
        return {
            index
            for index in self._touched
            if sum(1 for tag in sets[index] if tag < 0) < ways
        }

    def _held_region_lines(self, base: int, size: int) -> List[Tuple[int, int]]:
        """``(set, tag)`` of every cached line that ``[base, base + size)``
        overlaps; an unaligned base with size 0 still names its line.
        Scans the non-empty sets and counts a tag only in its home set."""
        line_size, num_sets, sets = self.line_size, self.num_sets, self._sets
        first, stop = base // line_size, (base + size - 1) // line_size + 1
        return [
            (index, tag)
            for index in compress(range(num_sets), sets)
            for tag in sets[index]
            if first <= tag < stop and tag % num_sets == index
        ]

    def evict_region(self, base: int, size: int) -> None:
        """Evict+Reload preparation: evict every line of a memory region.
        A set counts as touched only when a line actually leaves it."""
        sets, touched = self._sets, self._touched
        for index, tag in self._held_region_lines(base, size):
            sets[index].remove(tag)
            touched.add(index)

    def cached_lines(self, base: int, size: int) -> Set[int]:
        """Flush/Evict+Reload probe: indices of region lines that are cached."""
        first_line = base // self.line_size
        return {tag - first_line for _, tag in self._held_region_lines(base, size)}

    def snapshot_tags(self) -> List[List[int]]:
        """Copy of the full tag state (tests and diagnostics)."""
        return [list(lines) for lines in self._sets]


__all__ = ["L1DCache"]
