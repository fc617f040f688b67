"""Microarchitecture configurations and the CPU presets of Table 2.

A :class:`UarchConfig` is the full description of a simulated CPU: which
speculation mechanisms exist, which patches are applied, and the timing
parameters that drive the race conditions of §6.3. Presets model the
paper's two machines:

- ``skylake(v4_patch=...)``: Intel Core i7-6700. MDS-vulnerable, stores
  update the cache only at retirement. The Spectre V4 microcode patch
  (SSBD) can be toggled, as in Targets 2-4.
- ``coffee_lake(v4_patch=True)``: Intel Core i7-9700. Hardware MDS patch
  (assists forward zeros -> LVI-Null), and speculative stores *do* modify
  the cache (the §6.4 finding).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Tuple


@dataclass(frozen=True)
class UarchConfig:
    """Complete configuration of a simulated CPU."""

    name: str

    # --- speculation mechanisms ------------------------------------------
    conditional_branch_speculation: bool = True
    indirect_branch_speculation: bool = True
    return_stack_speculation: bool = True
    #: speculative store bypass; disabled by the V4 (SSBD) microcode patch
    store_bypass: bool = True
    #: microcode assists forward stale LFB/store-buffer data (MDS). When
    #: False (hardware MDS patch) assists forward zeros instead: LVI-Null.
    assists_leak_stale_data: bool = True
    #: do speculative (not yet retired) stores allocate cache lines?
    #: False on Skylake, True on Coffee Lake (§6.4).
    speculative_stores_update_cache: bool = False
    #: maximum depth of nested speculation frames
    max_speculation_depth: int = 4
    #: reorder-buffer size: upper bound on speculatively executed
    #: instructions per frame (paper footnote 3 uses 250 for Skylake)
    rob_size: int = 250

    # --- timing parameters (cycles) ---------------------------------------
    base_latency: int = 1
    multiply_latency: int = 3
    load_hit_latency: int = 4
    load_miss_latency: int = 30
    #: extra cycles between a store issuing and its address being resolved
    store_agu_latency: int = 3
    #: cycles from a branch issuing (flags ready) to squashing a wrong path
    branch_resolve_latency: int = 45
    #: cycles after an unresolved store's address resolves until a wrongly
    #: bypassed load is squashed and replayed (conflict detection plus
    #: pipeline-flush latency; must exceed the miss latency for dependent
    #: instructions of the bypassed load to leave cache traces, as they do
    #: on real parts)
    disambiguation_penalty: int = 40
    #: length of the transient window opened by a microcode assist
    assist_window: int = 60
    #: operand-independent part of the DIV/IDIV latency
    div_base_latency: int = 10
    #: operand-dependent part: one extra cycle per significant quotient bit
    div_per_bit_latency: int = 1

    def division_latency(self, dividend: int, divisor: int) -> int:
        """Operand-dependent DIV latency: the §6.3 leak source.

        Latency grows with the number of significant quotient bits,
        approximating the radix-16 divider of Skylake-class cores.
        """
        if divisor == 0:
            return self.div_base_latency
        quotient_bits = max(0, dividend.bit_length() - divisor.bit_length())
        return self.div_base_latency + self.div_per_bit_latency * quotient_bits

    def with_overrides(self, **overrides) -> "UarchConfig":
        """A copy with selected fields replaced."""
        return replace(self, **overrides)


def skylake(v4_patch: bool = False) -> UarchConfig:
    """Intel Core i7-6700 model (Targets 1-7 in Table 2)."""
    suffix = "+ssbd" if v4_patch else ""
    return UarchConfig(
        name=f"skylake{suffix}",
        store_bypass=not v4_patch,
        assists_leak_stale_data=True,
        speculative_stores_update_cache=False,
    )


def coffee_lake(v4_patch: bool = True) -> UarchConfig:
    """Intel Core i7-9700 model (Target 8): hardware MDS patch, and
    speculative stores modify the cache state (§6.4)."""
    suffix = "" if v4_patch else "-ssbd"
    return UarchConfig(
        name=f"coffee_lake{suffix}",
        store_bypass=not v4_patch,
        assists_leak_stale_data=False,
        speculative_stores_update_cache=True,
    )


_PRESETS = {
    "skylake": lambda: skylake(v4_patch=False),
    "skylake-v4-patched": lambda: skylake(v4_patch=True),
    "coffee-lake": lambda: coffee_lake(),
}


def preset_names() -> Tuple[str, ...]:
    """Names of the available CPU presets."""
    return tuple(_PRESETS)


def preset(name: str) -> UarchConfig:
    """Look up a CPU preset by name (``skylake``, ``skylake-v4-patched``,
    ``coffee-lake``)."""
    try:
        return _PRESETS[name.lower()]()
    except KeyError:
        raise KeyError(
            f"unknown CPU preset {name!r}; available: {', '.join(_PRESETS)}"
        ) from None


__all__ = ["UarchConfig", "coffee_lake", "preset", "preset_names", "skylake"]
