"""Static analysis over compiled programs (CFG + dataflow + clients).

The package analyses :class:`~repro.emulator.compiled.CompiledProgram`
IR — the same op records both execution engines run — so every client
reasons about exactly what executes:

- :mod:`repro.analysis.cfg` — control-flow graph construction and the
  speculative-window reachability used by the pre-screen;
- :mod:`repro.analysis.dataflow` — the generic worklist solver;
- :mod:`repro.analysis.liveness` — backward register+flag liveness;
- :mod:`repro.analysis.taint` — forward taint from input-controlled
  locations;
- :mod:`repro.analysis.deadflags` — dead-flag elimination pass;
- :mod:`repro.analysis.prescreen` — static leak pre-screen for the
  fuzzing pipeline;
- :mod:`repro.analysis.metadata_lint` — differential linter checking
  static RW metadata against observed dynamic behaviour.

See ``docs/analysis.md`` for the contracts and soundness arguments.
"""

from repro.analysis.cfg import (
    CFG,
    SpeculationModel,
    SpeculationSource,
    build_cfg,
    reachable_within,
    speculation_sources,
    speculative_ops,
)
from repro.analysis.dataflow import Analysis, DataflowResult, solve
from repro.analysis.deadflags import DeadFlagReport, eliminate_dead_flags
from repro.analysis.liveness import Liveness, compute_liveness
from repro.analysis.taint import Taint, TaintSeed, compute_taint

__all__ = [
    "Analysis",
    "CFG",
    "DataflowResult",
    "DeadFlagReport",
    "Liveness",
    "SpeculationModel",
    "SpeculationSource",
    "Taint",
    "TaintSeed",
    "build_cfg",
    "compute_liveness",
    "compute_taint",
    "eliminate_dead_flags",
    "reachable_within",
    "solve",
    "speculation_sources",
    "speculative_ops",
]
