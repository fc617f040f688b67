"""Outside-in tracer: spans around the public functions of each layer.

The program under test is not modified. :func:`install` replaces each
traced function with a wrapper at the place its caller looks it up
(class attribute, or the module global a caller imported by name) and
records one span per call: name, start, end and the span that was open
when it started. Spans stay in memory; :meth:`Tracer.summary` folds
them into per-name totals at the end of the sample, where a span's
self time is its duration minus the time covered by its direct
children.

Counter hooks run after a call returns (or raises) and add work counts
measured at the same boundary: inputs generated, lanes emulated,
battery fallbacks, confirmations that held.
"""

from __future__ import annotations

import time
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

Hook = Callable[["Tracer", tuple, dict, object, Optional[BaseException]], None]


class Tracer:
    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        #: (name id, start, end, parent span index or -1)
        self.spans: List[Optional[Tuple[int, float, float, int]]] = []
        self._stack: List[int] = []
        self.counters: Counter = Counter()
        #: pipelines of the campaigns run so far, whose own counters are
        #: read when the sample ends (after any minimization too)
        self.pipelines: list = []

    def reset(self) -> None:
        self.spans.clear()
        self._stack.clear()
        self.counters.clear()
        self.pipelines.clear()

    def counter_totals(self) -> Dict[str, float]:
        """Boundary counters plus those the engine keeps itself."""
        totals = Counter(self.counters)
        for pipeline in self.pipelines:
            totals["executor.executor.measurements"] += (
                pipeline.executor.stats.measurements
            )
            cache = pipeline.trace_cache
            if cache is not None:
                for field in ("hits", "misses", "disk_hits", "disk_writes"):
                    totals[f"core.trace_cache.{field}"] += getattr(
                        cache.stats, field
                    )
        return dict(totals)

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrapper(self, original, name: Optional[str], hook: Optional[Hook] = None):
        """A callable that runs ``original`` inside a span called
        ``name`` (``None``: counters only, no span)."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        name_id = None if name is None else self._name_id(name)

        def traced(*args, **kwargs):
            error = None
            result = None
            if name_id is None:
                try:
                    result = original(*args, **kwargs)
                    return result
                except BaseException as exc:
                    error = exc
                    raise
                finally:
                    if hook is not None:
                        hook(self, args, kwargs, result, error)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = original(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                spans[index] = (name_id, start, clock(), parent)
                stack.pop()
                if hook is not None:
                    hook(self, args, kwargs, result, error)

        traced.__wrapped__ = original
        return traced

    def patch(self, owners, attr: str, name: Optional[str],
              hook: Optional[Hook] = None) -> None:
        """Wrap ``attr`` once and install the wrapper on every owner
        (a class, or each module that imported the function by name)."""
        original = getattr(owners[0], attr)
        traced = self.wrapper(original, name, hook)
        for owner in owners:
            if getattr(owner, attr) is not original:
                raise RuntimeError(
                    f"{owner.__name__}.{attr} is not the function "
                    f"{owners[0].__name__}.{attr} it is expected to alias"
                )
            setattr(owner, attr, traced)

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: ``calls``, inclusive ``s`` and ``self_s``,
        plus ``top_s``, the time of spans no other span encloses."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span is not None and span[3] >= 0:
                child_time[span[3]] += span[2] - span[1]
        out: Dict[str, Dict[str, float]] = {
            name: {"calls": 0, "s": 0.0, "self_s": 0.0, "top_s": 0.0}
            for name in self.names
        }
        for index, span in enumerate(self.spans):
            if span is None:  # still open: the sample raised mid-call
                continue
            name_id, start, end, parent = span
            entry = out[self.names[name_id]]
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += end - start - child_time[index]
            if parent < 0:
                entry["top_s"] += end - start
        return out


# -- counter hooks ---------------------------------------------------------


def _generate_hook(tracer, args, kwargs, result, error):
    if result is not None:
        tracer.counters["core.input_gen.generate.inputs"] += len(result)


def _battery_hook(tracer, args, kwargs, result, error):
    inputs = kwargs["inputs"] if "inputs" in kwargs else args[2]
    tracer.counters["contracts.contract.collect_traces_battery.lanes"] += len(inputs)
    if error is not None and type(error).__name__ == "BatteryFallback":
        tracer.counters["emulator.battery.fallbacks"] += 1


def _confirm_hook(tracer, args, kwargs, result, error):
    if result:
        tracer.counters["core.fuzzer.confirm_candidate.confirmed"] += 1


def _memo_miss_hook(tracer, args, kwargs, result, error):
    tracer.counters["core.input_gen.memo_misses"] += 1


def _fuzzer_run_hook(tracer, args, kwargs, result, error):
    tracer.pipelines.append(args[0].pipeline)


def install(tracer: Tracer) -> None:
    """Wrap every traced layer boundary. Call before the workload's
    objects are built (and, for sweeps, before workers fork)."""
    from repro.analysis import passes
    from repro.contracts import contract
    from repro.core import analyzer, fuzzer, generator, input_gen, patterns
    from repro.core import postprocessor, trace_cache
    from repro.emulator import compiled
    from repro.executor import executor
    from repro.uarch import cache, cpu

    patch = tracer.patch
    patch([input_gen.InputGenerator], "generate", "core.input_gen.generate",
          _generate_hook)
    # a memo miss is the only path that builds a new InputData
    patch([input_gen], "InputData", None, _memo_miss_hook)
    patch([generator.TestCaseGenerator], "generate", "core.generator.generate")
    patch([cpu.SpeculativeCPU], "run", "uarch.cpu.run")
    for primitive in ("prime", "probe", "evict_region", "cached_lines"):
        patch([cache.L1DCache], primitive, f"uarch.cache.{primitive}")
    for method in (
        "collect_hardware_traces_batched",
        "collect_hardware_traces_linearized",
        "priming_swap_check",
    ):
        patch([executor.Executor], method, f"executor.executor.{method}")
    patch([contract.Contract], "collect_traces_battery",
          "contracts.contract.collect_traces_battery", _battery_hook)
    patch([contract.Contract], "collect_trace_and_log",
          "contracts.contract.collect_trace_and_log")
    patch([compiled, fuzzer, postprocessor], "compile_program",
          "emulator.compiled.compile_program")
    for store in (trace_cache.ContractTraceCache, trace_cache.PersistentTraceCache):
        for method in ("get", "peek", "put"):
            patch([store], method, f"core.trace_cache.{method}")
    patch([passes.PassManager], "run", "analysis.passes.run")
    patch([analyzer.RelationalAnalyzer], "analyze", "core.analyzer.analyze")
    patch([fuzzer], "patterns_in_log", "core.patterns.update")
    patch([patterns.PatternCoverage], "update_from_class", "core.patterns.update")
    patch([fuzzer.TestingPipeline], "confirm_candidate",
          "core.fuzzer.confirm_candidate", _confirm_hook)
    patch([fuzzer.TestingPipeline], "check_violation",
          "core.fuzzer.check_violation")
    for stage in ("minimize_inputs", "minimize_instructions", "insert_fences"):
        patch([postprocessor.Postprocessor], stage, f"core.postprocessor.{stage}")
    patch([fuzzer.Fuzzer], "run", None, _fuzzer_run_hook)
