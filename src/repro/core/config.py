"""Configuration dataclasses for the generator and the fuzzer.

The defaults follow the paper's experimental configuration (§6.1):
generation starts from 8 instructions, 2 memory accesses and 2 basic
blocks per test case, 2 bits of input entropy, and 50 inputs per test
case; the parameters grow over testing rounds under diversity feedback.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Tuple

from repro.uarch.config import UarchConfig


@dataclass(frozen=True)
class GeneratorConfig:
    """Test-case generator parameters (paper §5.1)."""

    instructions_per_test: int = 8
    basic_blocks: int = 2
    memory_accesses: int = 2
    #: the generator uses only a handful of registers to improve input
    #: effectiveness (§5.1: four registers); ``None`` means the target
    #: architecture's default pool (RAX-RDX on x86-64, X0-X3 on AArch64)
    register_pool: Optional[Tuple[str, ...]] = None
    #: number of 4KB sandbox pages generated accesses may touch
    sandbox_pages: int = 1
    #: accesses are cache-line (64B) aligned, then offset by a random value
    #: in [0, 64) chosen per test case (§5.1)
    randomize_offset: bool = True

    def grown(self) -> "GeneratorConfig":
        """The next diversity-feedback step (§5.6: sizes grow by constant
        factors, e.g. 10/2/50 -> 15/3/75)."""
        return replace(
            self,
            instructions_per_test=max(
                self.instructions_per_test + 1,
                int(self.instructions_per_test * 1.5),
            ),
            basic_blocks=self.basic_blocks + 1,
            memory_accesses=max(
                self.memory_accesses + 1, int(self.memory_accesses * 1.5)
            ),
        )


@dataclass(frozen=True)
class FuzzerConfig:
    """End-to-end fuzzing campaign configuration (one Table 2 target plus
    one contract)."""

    # what to test
    #: target ISA backend (see :func:`repro.arch.architecture_names`)
    arch: str = "x86_64"
    instruction_subsets: Tuple[str, ...] = ("AR", "MEM", "CB")
    contract_name: str = "CT-SEQ"
    #: either a preset name ("skylake", "skylake-v4-patched", "coffee-lake")
    #: or a full UarchConfig in ``cpu_config``
    cpu_preset: str = "skylake"
    cpu_config: Optional[UarchConfig] = None
    executor_mode: str = "P+P"

    # search budget
    num_test_cases: int = 1000
    timeout_seconds: Optional[float] = None
    inputs_per_test_case: int = 50

    # input generation (§5.2)
    entropy_bits: int = 2

    # generator (§5.1) and diversity feedback (§5.6)
    generator: GeneratorConfig = field(default_factory=GeneratorConfig)
    diversity_feedback: bool = True
    round_size: int = 10  # test cases per round
    #: growth caps: reconfiguration stops widening once these are reached
    #: (the paper's 24h campaigns are implicitly bounded by wall clock)
    max_inputs_per_test_case: int = 150
    max_instructions_per_test: int = 48
    max_basic_blocks: int = 8

    # analysis (§5.5) and violation filtering (§5.3, §5.4)
    analyzer_mode: str = "subset"  # "subset" | "strict"
    #: cap on candidate pairs run through the expensive confirmation
    #: (priming swap = three full priming sequences) per test case
    max_candidates_per_test_case: int = 5
    verify_with_priming: bool = True
    revalidate_with_nesting: bool = True
    nesting_depth_for_revalidation: int = 3
    speculation_window: int = 250

    # static leak pre-screen (repro.analysis.prescreen): classify each
    # generated test case before any emulation and skip the ones that
    # provably cannot violate under the configured contract + executor
    # mode. Off by default — enabling it changes which cases are
    # measured (and hence the diversity feedback), not any verdict about
    # a measured case.
    prescreen: bool = False
    #: safety sampling: still measure every Nth INERT-classified case;
    #: a confirmed violation on one of them is a soundness bug and
    #: raises :class:`repro.analysis.prescreen.PrescreenSoundnessError`.
    #: 0 disables sampling.
    prescreen_safety_rate: int = 20

    # measurement (§5.3)
    executor_repetitions: int = 3
    executor_warmups: int = 1
    outlier_threshold: int = 1

    # contract-trace memoization (see repro.core.trace_cache): contract
    # traces are pure functions of (program, input, contract), so repeated
    # collections — nesting revalidation, postprocessor shrinking — can be
    # served from an LRU cache instead of re-emulating the model
    contract_trace_cache: bool = False
    #: LRU capacity of the trace cache when enabled
    trace_cache_entries: int = 65536
    #: directory of the persistent cross-process trace cache; setting it
    #: implies caching and shares results between campaign shard workers,
    #: sweep cells with the same (arch, contract) pair, and later runs
    trace_cache_dir: Optional[str] = None
    #: size bound (bytes) of the persistent tier's disk footprint; when
    #: set, a garbage collector evicts least-recently-used records (by
    #: file mtime) whenever the tier outgrows the bound. None keeps the
    #: historical append-only behavior
    trace_cache_max_bytes: Optional[int] = None
    #: zlib-compress the persistent tier's disk records; reads remain
    #: transparent to uncompressed records, and compressed sizes
    #: feed the ``trace_cache_max_bytes`` GC accounting
    trace_cache_compress: bool = False

    #: directory of the replayable counterexample corpus (see
    #: repro.corpus): when set, every confirmed violation a fuzzing run
    #: reports — and every minimized counterexample the postprocessor
    #: produces — is persisted there as a self-contained JSON record
    #: under the same atomic-publish discipline as the trace cache, so
    #: campaign shard workers and sweep cells can append concurrently.
    #: ``python -m repro replay`` re-runs the directory as a
    #: deterministic regression gate
    corpus_dir: Optional[str] = None

    seed: int = 0

    def resolve_cpu(self) -> UarchConfig:
        if self.cpu_config is not None:
            return self.cpu_config
        from repro.uarch.config import preset

        return preset(self.cpu_preset)

    def resolve_arch(self):
        """The :class:`~repro.arch.base.Architecture` backend under test."""
        from repro.arch import get_architecture

        return get_architecture(self.arch)


__all__ = ["FuzzerConfig", "GeneratorConfig"]
