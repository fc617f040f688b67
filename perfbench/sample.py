"""One benchmark sample, in a fresh process.

Usage: ``python3 perfbench/sample.py '<spec json>'``. The spec names the
workload, its target (arch and fuzzing seed, or the sweep's base seed),
whether to trace, a scratch directory, and the ``time.monotonic()``
instant the parent spawned this process. The last line of stdout is one
JSON object: host timings, the host's speed while they were taken
(``reference.Gauge``, untraced samples only), the deterministic outputs
the oracle checks, the engine's exact-repeat counters and, when traced,
the per-layer span summary.

A fresh process per sample is deliberate: every CLI invocation starts
with cold process-global caches (the compiled-IR cache, the input memo)
and pays interpreter start-up and ``import repro``, so the benchmark
does too.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import reference  # noqa: E402

# Workload definitions. Changing any of these changes the pinned
# outputs in expected/ (regenerate with pin.py).
FUZZ_CLEAN = dict(contract="CT-COND", cpu="skylake", executor_mode="P+P",
                  num_test_cases=30)
#: fuzz-clean's pool keeps only the fuzzing seeds whose campaign tests
#: this many inputs. Two seeds test 1500 and run 10-20% faster, so a
#: run that drew them would measure its draw
FUZZ_CLEAN_INPUTS = 1750
DETECT = dict(contract="CT-SEQ", cpu="skylake", executor_mode="F+R",
              num_test_cases=200, cache=True)
#: detect-minimize's pool keeps only the fuzzing seeds whose violation is
#: found at this many test cases. Detection over all seeds has a long
#: tail (21 to 128 cases), and its inputs per second rise with the cases
#: found, so a wide band would make a run's times and rates depend on
#: which targets it drew rather than on the code
DETECT_BAND = (25, 28)
#: ...and only the first such seed per ISA, so every run times the
#: same two targets and the seed only orders them: in-band targets'
#: rates differ by up to 2x, so a run that drew them would measure its
#: draw
DETECT_TARGETS = 1
SWEEP_AXES = dict(arches=("x86_64", "aarch64"),
                  contracts=("CT-SEQ", "CT-COND"),
                  cpus=("skylake", "skylake-v4-patched"))
SWEEP_CELL_CASES = 6
SWEEP_WORKERS = 2
SWEEP_SHARDS = 2


def digest(value) -> str:
    return hashlib.sha1(
        json.dumps(value, sort_keys=True).encode("utf-8")
    ).hexdigest()[:16]


def peak_rss_mb(children: bool) -> float:
    """Peak resident set of this process, plus that of its largest
    child when the workload forks workers (Linux reports KiB)."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


def cpu_now() -> float:
    """CPU seconds of the main thread, less the gauge's readings."""
    return time.thread_time() - GAUGE.spent()


class Timer:
    """Times the sample's run: its wall seconds, and CPU seconds of
    the main thread less the gauge's readings (of this process only,
    not of a sweep's workers). The set-up before the run is read when
    the timer is made: CPU seconds of interpreter start, ``import
    repro`` and construction, and the wall from spawn. A traced run is
    gauged just before and just after it instead."""

    def __init__(self) -> None:
        self.setup_wall = time.monotonic() - SPEC["spawned"]
        self.setup_cpu = cpu_now()
        if SPEC["trace"]:
            GAUGE.burst()
        self.wall = time.perf_counter()
        self.gauged = GAUGE.spent()
        self.first = len(GAUGE.readings)

    def lap(self):
        """(wall, CPU) seconds since the run started."""
        return time.perf_counter() - self.wall, cpu_now() - self.setup_cpu

    def run_speed(self) -> float:
        """The host's speed since the run started (reference.speed);
        a traced run's is that of the readings just before it."""
        return reference.speed(GAUGE.readings[self.first:] or GAUGE.readings)

    def stop(self) -> dict:
        wall, cpu = self.lap()
        times = {"setup_s": self.setup_wall, "setup_cpu_s": self.setup_cpu,
                 "wall_s": wall, "cpu_s": cpu, "run_speed": self.run_speed(),
                 "gauge_s": GAUGE.spent() - self.gauged}
        if SPEC["trace"]:
            GAUGE.burst()
        return times


def fuzz_clean():
    from repro.api import EngineOptions
    from repro.core.fuzzer import Fuzzer

    options = EngineOptions(arch=SPEC["arch"], seed=SPEC["seed"], **FUZZ_CLEAN)
    fuzzer = Fuzzer(options.to_fuzzer_config())
    timer = Timer()
    report = fuzzer.run()
    times = timer.stop()
    covered = sorted(sorted(combo) for combo in report.coverage.covered)
    return {
        **times,
        "rate_cpu_s": times["cpu_s"],
        "rate_speed": times["run_speed"],
        "cases": report.test_cases,
        "inputs": report.inputs_tested,
        "effectiveness": report.mean_effectiveness,
        "checks": {
            "found": report.found,
            "digest": digest([
                report.test_cases, report.inputs_tested, report.rounds,
                report.reconfigurations, covered, report.contract_emulations,
                report.mean_effectiveness,
            ]),
        },
        "counters": {
            "measurements": fuzzer.pipeline.executor.stats.measurements,
            "contract_emulations": report.contract_emulations,
        },
    }


def detect_minimize():
    """``repro.api.run_minimize``, with construction, detection and
    minimization timed apart."""
    from repro.api import EngineOptions
    from repro.core.fuzzer import Fuzzer, TestingPipeline
    from repro.core.postprocessor import Postprocessor

    options = EngineOptions(arch=SPEC["arch"], seed=SPEC["seed"], **DETECT)
    fuzzer = Fuzzer(options.to_fuzzer_config())
    postprocessor = Postprocessor(fuzzer.pipeline)
    # count the shrink steps' re-measurements: ~100 calls of tens of
    # milliseconds each, so this wrapper costs nothing visible
    calls = [0]
    check_violation = TestingPipeline.check_violation

    def counted(pipeline, *args, **kwargs):
        calls[0] += 1
        return check_violation(pipeline, *args, **kwargs)

    fuzzer.pipeline.check_violation = counted.__get__(fuzzer.pipeline)
    timer = Timer()
    report = fuzzer.run()
    detected, detected_cpu = timer.lap()
    detected_speed = timer.run_speed()
    violation = report.violation
    if violation is None:
        raise RuntimeError("no violation found within the budget")
    result = postprocessor.minimize(
        violation.program, list(violation.input_sequence)
    )
    times = timer.stop()
    return {
        **times,
        "ttv_s": detected,
        "minimize_s": times["wall_s"] - detected,
        # rates cover the detection phase: minimization re-measures
        # shrinking copies of one test case, not new inputs
        "rate_cpu_s": detected_cpu,
        "rate_speed": detected_speed,
        "cases": report.test_cases,
        "inputs": report.inputs_tested,
        "effectiveness": report.mean_effectiveness,
        "checks": {
            "classification": violation.classification,
            "test_cases_until_found": violation.test_cases_until_found,
            "minimized_digest": digest(result.text),
        },
        "counters": {
            "measurements": fuzzer.pipeline.executor.stats.measurements,
            "contract_emulations": fuzzer.pipeline.contract_emulations,
            "trace_cache_hits": fuzzer.pipeline.trace_cache.stats.hits,
            "check_violation_calls": calls[0],
        },
    }


def sweep_grid():
    """``repro.api.run_sweep`` (work-stealing, fresh cache and journal),
    with construction and the run timed apart."""
    from repro.api import EngineOptions
    from repro.core.sweep import SweepRunner, SweepSpec

    workdir = SPEC["workdir"]
    cache_dir = os.path.join(workdir, "cache")
    journal_dir = os.path.join(workdir, "journal")
    options = EngineOptions(seed=SPEC["seed"], num_test_cases=SWEEP_CELL_CASES,
                            cache_dir=cache_dir)
    spec = SweepSpec(
        base_config=options.to_fuzzer_config(),
        workers=SWEEP_WORKERS,
        shards=SWEEP_SHARDS,
        **SWEEP_AXES,
    )
    runner = SweepRunner(spec, cache_dir=cache_dir, schedule="work-stealing",
                         journal_dir=journal_dir)
    timer = Timer()
    report = runner.run()
    times = timer.stop()
    data = report.to_json()
    timing = data["timing"].values()
    records = [
        name for name in os.listdir(journal_dir)
        if name.startswith("shard-") and name.endswith(".pkl")
    ]
    merged = [result.campaign.merged for result in report.results]
    return {
        **times,
        # the traced time of a sweep is spent in its workers
        "busy_s": sum(m.duration_seconds for m in merged),
        "cases": sum(m.test_cases for m in merged),
        "inputs": sum(m.inputs_tested for m in merged),
        "effectiveness": statistics.mean(m.mean_effectiveness for m in merged),
        "units": len(report.results) * SWEEP_SHARDS,
        "checks": {
            "report_digest": report.report_digest(),
            "matrix": {
                result.cell.label: (
                    f"{result.classification} @"
                    f"{result.campaign.violation.test_cases_until_found}"
                    if result.found else "-"
                )
                for result in report.results
            },
        },
        # which cell first emulates a trace its cpu-axis twin shares is
        # up to the scheduler, so only the lookup total repeats exactly
        "counters": {
            "trace_cache_lookups": sum(
                t["contract_emulations"] + t["trace_cache_hits"] for t in timing
            ),
            "journal_records": len(records),
        },
        "layers": {
            "core.sweep.concurrency": sum(
                t["aggregate_seconds"] for t in timing
            ) / data["wall_seconds"],
            "core.sweep.max_cell_wall_s": max(t["wall_seconds"] for t in timing),
            "core.journal.records": len(records),
        },
    }


def compiled_cache_counts():
    from repro.emulator.compiled import shared_compiled_cache

    cache = shared_compiled_cache()
    return {"emulator.compiled.cache_hits": cache.hits,
            "emulator.compiled.cache_misses": cache.misses}


def trace_sweep_workers(tracer) -> str:
    """Sweep workers are forked from this process with the tracer
    installed; each unit's span summary is appended to a file here,
    since spans in a worker's memory die with it."""
    from repro.core import sweep

    path = os.path.join(SPEC["workdir"], "units.jsonl")
    run_unit = sweep._run_unit

    def traced_unit(config):
        tracer.reset()
        before = compiled_cache_counts()
        try:
            return run_unit(config)
        finally:
            for name, value in compiled_cache_counts().items():
                tracer.counters[name] += value - before[name]
            line = json.dumps({"spans": tracer.summary(),
                               "counters": tracer.counter_totals()})
            with open(path, "a", encoding="utf-8") as handle:
                handle.write(line + "\n")

    sweep._run_unit = traced_unit
    return path


def gauge_sweep_workers() -> str:
    """Sweep workers are forked from this process, where the gauge's
    timer does not carry over: each unit gauges its worker anew and
    appends its ISA, inputs, seconds and readings to a file here."""
    from repro.core import sweep

    path = os.path.join(SPEC["workdir"], "gauge.jsonl")
    run_unit = sweep._run_unit

    def gauged_unit(config):
        gauge = reference.Gauge()
        gauge.start()
        report = run_unit(config)
        line = json.dumps({"arch": config.arch, "inputs": report.inputs_tested,
                           "seconds": report.duration_seconds,
                           "readings": gauge.stop()})
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(line + "\n")
        return report

    sweep._run_unit = gauged_unit
    return path


def sweep_units(path) -> dict:
    """The gauged units' readings, and per ISA its units' inputs and
    worker-seconds, each unit's scaled by the speed gauged in it."""
    readings, per_isa = [], {}
    with open(path, encoding="utf-8") as handle:
        for unit in map(json.loads, handle):
            readings += unit["readings"]
            inputs, seconds = per_isa.get(unit["arch"], (0, 0.0))
            per_isa[unit["arch"]] = (
                inputs + unit["inputs"],
                seconds + unit["seconds"] * reference.speed(unit["readings"]),
            )
    return {"readings": readings, "per_isa": per_isa}


WORKLOADS = {
    "fuzz-clean": fuzz_clean,
    "detect-minimize": detect_minimize,
    "sweep-grid": sweep_grid,
}


def main() -> None:
    tracer = None
    units_path = gauge_path = None
    sweep = SPEC["workload"] == "sweep-grid"
    if SPEC["trace"]:
        from tracer import Tracer, install

        tracer = Tracer()
        install(tracer)
        if sweep:
            units_path = trace_sweep_workers(tracer)
    elif sweep:
        gauge_path = gauge_sweep_workers()
    result = WORKLOADS[SPEC["workload"]]()
    result["rss_mb"] = peak_rss_mb(children=sweep)
    readings = GAUGE.stop()
    if gauge_path is not None:
        units = sweep_units(gauge_path)
        readings = readings + units["readings"]
        result["per_isa"] = units["per_isa"]
        # the workers' readings, as a share of the sweep's wall
        result["gauge_s"] += sum(units["readings"]) / SWEEP_WORKERS
    result["speed"] = reference.speed(readings)
    result["readings"] = len(readings)
    if tracer is not None:
        spans, counters = tracer.summary(), tracer.counter_totals()
        if units_path is not None:
            # worker-side totals: CPU-seconds summed over both workers,
            # not a share of the sweep's wall time
            spans, counters = {}, {}
            with open(units_path, encoding="utf-8") as handle:
                for line in handle:
                    unit = json.loads(line)
                    for name, entry in unit["spans"].items():
                        total = spans.setdefault(name, dict.fromkeys(entry, 0))
                        for key, value in entry.items():
                            total[key] += value
                    for name, value in unit["counters"].items():
                        counters[name] = counters.get(name, 0) + value
        else:
            counters.update(compiled_cache_counts())
        result["trace"] = {"spans": spans, "counters": counters}
    print(json.dumps(result))


if __name__ == "__main__":
    SPEC = json.loads(sys.argv[1])
    GAUGE = reference.Gauge()
    if not SPEC["trace"]:
        # from the start, so set-up is gauged too; traced samples are
        # gauged only around their run, so no reading lands in a span
        GAUGE.start()
    main()
