"""A small pass pipeline over :class:`CompiledProgram`.

An optimization pass (:mod:`repro.analysis.deadflags`) transforms a
compiled program into an equivalent one — same traces, same logs, same
faults — by swapping ``run`` closures for cheaper specializations. A
:class:`PassManager` runs a fixed pass list in order, each pass over
the previous one's output.

The pipeline contract every pass must honor:

- **pure**: never mutate the input program; return it unchanged when
  nothing applies (``dataclasses.replace`` otherwise);
- **byte-identical**: the transformed program produces equal
  :class:`~repro.emulator.semantics.StepResult` streams, faults and
  execution logs on every input — handlers may only get faster;
- **metadata-stable**: only ``run`` closures change; static
  :class:`~repro.emulator.compiled.DecodedOp` metadata (flag sets,
  ``log_entry``, branch info) is never rewritten, so downstream
  consumers (speculative CPU timing, battery plans) stay valid;
- **self-gating**: a pass refuses programs it cannot prove safe
  (interpretive handlers, statically unresolved control flow) by
  reporting zero applications rather than raising.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.analysis.deadflags import eliminate_dead_flags
from repro.emulator.compiled import CompiledProgram


@dataclass(frozen=True)
class PassResult:
    """One pass's effect on one program."""

    name: str
    #: the pass's output program
    program: CompiledProgram
    #: op indices whose handler the pass replaced
    applied: Tuple[int, ...]
    #: op indices the pass matched but had to leave alone
    skipped: Tuple[int, ...]


@dataclass(frozen=True)
class PipelineReport:
    """The pipeline's output program plus per-pass accounting."""

    program: CompiledProgram
    results: Tuple[PassResult, ...]


class DeadFlagPass:
    """Pipeline adapter for :func:`eliminate_dead_flags`."""

    name = "dead-flags"

    def run(self, compiled: CompiledProgram) -> PassResult:
        report = eliminate_dead_flags(compiled)
        return PassResult(
            self.name, report.program, report.optimized, report.skipped
        )


class PassManager:
    """Run a fixed pass sequence over one compiled program."""

    def __init__(self, passes):
        self.passes = tuple(passes)

    def run(self, compiled: CompiledProgram) -> PipelineReport:
        results: List[PassResult] = []
        for pipeline_pass in self.passes:
            result = pipeline_pass.run(compiled)
            results.append(result)
            compiled = result.program
        return PipelineReport(compiled, tuple(results))


def default_pipeline() -> PassManager:
    """The production pipeline: dead-flag elimination."""
    return PassManager([DeadFlagPass()])


__all__ = [
    "DeadFlagPass",
    "PassManager",
    "PassResult",
    "PipelineReport",
    "default_pipeline",
]
