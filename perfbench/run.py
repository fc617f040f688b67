"""End-to-end benchmark of the MRT fuzzer: one command per workload.

    python3 perfbench/run.py --workload fuzz-clean --seed 3 --seconds 25 --trace 0

Workloads (see README.md for why each was chosen):

- ``fuzz-clean``: clean CT-COND campaigns, alternating x86_64/aarch64;
- ``detect-minimize``: fuzz to a confirmed V1 under F+R, then minimize;
- ``sweep-grid``: a 2x2x2 work-stealing sweep with 2 workers.

Each sample runs in a fresh process (``sample.py``) on one target from
the workload's pinned pool (``expected/<workload>.json``). A run times
``TARGETS`` targets, the first of the pool in an order set by
``--seed``, each as often as fills ``--seconds`` on a quiet host
(``reps_of``), so faster code times the same targets as often as
slower code. On a slower host no sample starts once ``--seconds``
have passed, so the run still ends in time. Every sample's
deterministic outputs and exact-repeat counters are checked against
the pins. Every time is scaled to a reference host's speed by a
reference kernel read throughout each sample (``reference.py``,
``timed``), and every metric is a median over the samples of a
target. With ``--trace 1`` each target runs untraced, then traced, and
the per-layer metrics are reported instead.

The last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. Exit code 2, and no result
line, when the checkout cannot run the benchmark at all.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, "_work")
DEFAULT_SEED = 3
#: the seed later performance claims are re-checked on, never tuned on
HELD_OUT_SEED = 11
SAMPLE_TIMEOUT_S = 120
#: one untraced sample's seconds on a quiet 2-vCPU x86-64 VM, process
#: start included. Only sets how often a run repeats its targets, so it
#: must not be re-measured per commit: both sides of a comparison take
#: the median of as many repeats
SAMPLE_S = {"fuzz-clean": 2.5, "detect-minimize": 4.6, "sweep-grid": 2.9}
ARCHES = ("x86_64", "aarch64")
#: targets a run times, each ``reps_of`` times: one per ISA (the first
#: of each in the seed's order) on the fuzzing workloads, two base
#: seeds on the sweep
TARGETS = 2


class BenchmarkError(Exception):
    """The checkout cannot run the benchmark (no result is printed)."""


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env.pop("REPRO_FAULTS", None)  # never inject faults into a measurement
    return env


def preflight():
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        raise BenchmarkError(f"no repro package under {ROOT}/src")
    # compiles the bytecode once, so no sample's set-up pays for it
    warm = subprocess.run(
        [sys.executable, "-c", "import repro.api, repro.core.sweep"],
        env=child_env(), cwd=ROOT, capture_output=True, text=True,
        timeout=SAMPLE_TIMEOUT_S,
    )
    if warm.returncode != 0:
        raise BenchmarkError(f"import repro failed:\n{warm.stderr}")


def run_sample(workload, target, trace, workdir):
    """Run one sample in a fresh process; returns its result dict or
    raises ``RuntimeError`` with the child's stderr."""
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    spec = dict(target, workload=workload, trace=trace, workdir=workdir,
                spawned=time.monotonic())
    # its own session, so a timeout also stops the sweep's workers
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "sample.py"), json.dumps(spec)],
        env=child_env(), cwd=ROOT, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=SAMPLE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(
            f"{workload} sample {target} exceeded {SAMPLE_TIMEOUT_S}s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        raise RuntimeError(
            f"{workload} sample {target} failed:\n{stderr[-4000:]}"
        )
    return json.loads(stdout.strip().splitlines()[-1])


def pin_path(workload):
    return os.path.join(HERE, "expected", f"{workload}.json")


def load_pins(workload):
    """The workload's target pool: pinned outputs per target."""
    path = pin_path(workload)
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError) as exc:
        raise BenchmarkError(f"cannot read pinned outputs {path}: {exc}")


def target_order(workload, pool, seed):
    """The pinned pool, shuffled by ``seed``. The fuzzing workloads
    alternate ISAs, one target per sample."""
    rng = random.Random(f"{workload}/{seed}")
    if workload == "sweep-grid":
        keys = sorted(pool, key=int)
        rng.shuffle(keys)
        return [{"seed": int(key)} for key in keys]
    per_arch = []
    for arch in ARCHES:
        keys = sorted(pool[arch], key=int)
        rng.shuffle(keys)
        per_arch.append([{"arch": arch, "seed": int(key)} for key in keys])
    return [target for pair in zip(*per_arch) for target in pair]


def reps_of(workload, seconds, trace):
    """How often a run times each of its ``TARGETS`` targets: as often
    as fills ``seconds`` at ``SAMPLE_S`` (twice that a sample when
    traced), and at least twice untraced, since a run's times are
    medians over those repeats."""
    per_target = SAMPLE_S[workload] * (2 if trace else 1)
    return max(1 if trace else 2, round(seconds / (TARGETS * per_target)))


def expected_for(workload, pool, target):
    if workload == "sweep-grid":
        return pool[str(target["seed"])]
    return pool[target["arch"]][str(target["seed"])]


def check(sample, expected):
    """Mismatches between a sample and its pinned outputs/counters."""
    problems = []
    for section in ("checks", "counters"):
        for key, want in expected[section].items():
            got = sample[section].get(key)
            if got != want:
                problems.append(f"{section}.{key}: got {got!r}, pinned {want!r}")
    return problems


def median(values):
    return statistics.median(values) if values else 0.0


def timed(workload, sample):
    """(run, rate) seconds of one sample at the reference host's speed
    (see reference.py): its whole run, and what its rates divide by
    (the campaign, or detect-minimize's detection phase). A fuzzing
    sample counts its main thread's CPU seconds, each scaled by the
    speed gauged over the same phase; the sweep, whose workers run at
    once, its wall, scaled by the speed over all its readings."""
    if workload == "sweep-grid":
        scaled = sample["wall_s"] * sample["speed"]
        return scaled, scaled
    return (sample["cpu_s"] * sample["run_speed"],
            sample["rate_cpu_s"] * sample["rate_speed"])


def end_to_end(workload, samples):
    """``setup_s`` (CPU seconds at reference-host speed) and
    ``peak_rss_mb`` are medians over the run's samples. Each target's
    times are medians over its samples (see :func:`timed`): ``run_s``
    is their mean over targets, a rate is the targets' total count over
    their total time. The sweep's per-ISA rates divide by that ISA's
    units' worker-seconds, each unit's scaled by its own speed (see
    sample.sweep_units)."""
    by_target = {}
    for sample in samples:
        key = (sample.get("arch"), sample["seed"])
        by_target.setdefault(key, []).append(sample)
    run_s, inputs, cases, rate_s = [], 0, 0, 0.0
    per_isa = {arch: [0, 0.0] for arch in ARCHES}
    for group in by_target.values():
        first = group[0]
        times = [timed(workload, sample) for sample in group]
        run_s.append(median([run for run, _ in times]))
        rate = median([rate for _, rate in times])
        inputs += first["inputs"]
        cases += first["cases"]
        rate_s += rate
        if "per_isa" in first:
            for arch, (count, _) in first["per_isa"].items():
                per_isa[arch][0] += count
                per_isa[arch][1] += median([s["per_isa"][arch][1] for s in group])
        else:
            per_isa[first["arch"]][0] += first["inputs"]
            per_isa[first["arch"]][1] += rate
    metrics = {
        "setup_s": (median([s["setup_cpu_s"] * s["speed"] for s in samples]),
                    "s"),
        "run_s": (statistics.mean(run_s), "s"),
        "inputs_per_s": (ratio(inputs, rate_s), "1/s"),
        "cases_per_s": (ratio(cases, rate_s), "1/s"),
    }
    for arch, (count, seconds) in per_isa.items():
        metrics[f"inputs_per_s.{arch}"] = (ratio(count, seconds), "1/s")
    metrics["peak_rss_mb"] = (median([s["rss_mb"] for s in samples]), "MB")
    return metrics


def ratio(part, whole):
    return part / whole if whole else 0.0


#: every traced span (see tracer.install). Each reports its self time;
#: the self times plus ``untraced.s`` add up to ``trace.wall_s``
SPANS = (
    "core.input_gen.generate",
    "core.generator.generate",
    "uarch.cpu.run",
    "uarch.cache.prime",
    "uarch.cache.probe",
    "uarch.cache.evict_region",
    "uarch.cache.cached_lines",
    "executor.executor.collect_hardware_traces_batched",
    "executor.executor.collect_hardware_traces_linearized",
    "executor.executor.priming_swap_check",
    "contracts.contract.collect_traces_battery",
    "contracts.contract.collect_trace_and_log",
    "emulator.compiled.compile_program",
    "core.trace_cache.get",
    "core.trace_cache.peek",
    "core.trace_cache.put",
    "analysis.passes.run",
    "core.analyzer.analyze",
    "core.patterns.update",
    "core.fuzzer.confirm_candidate",
    "core.fuzzer.check_violation",
    "core.postprocessor.minimize_inputs",
    "core.postprocessor.minimize_instructions",
    "core.postprocessor.insert_fences",
)
#: spans whose inclusive time (``.s``) is reported too
INCLUSIVE = tuple(
    name for name in SPANS
    if name.rsplit(".", 1)[1] not in (
        "collect_hardware_traces_batched",
        "collect_hardware_traces_linearized",
        "check_violation",
    )
)
#: spans whose call count is reported
CALLED = ("uarch.cpu.run", "contracts.contract.collect_trace_and_log",
          "core.fuzzer.confirm_candidate", "core.fuzzer.check_violation")
#: tracer counters reported as they are
COUNTERS = (
    "core.input_gen.generate.inputs",
    "executor.executor.measurements",
    "contracts.contract.collect_traces_battery.lanes",
    "emulator.battery.fallbacks",
    "core.trace_cache.hits",
    "core.trace_cache.misses",
    "core.trace_cache.disk_hits",
    "core.trace_cache.disk_writes",
)
#: sweep-grid's own layers, from its report and journal
SWEEP_LAYERS = {"core.sweep.concurrency": "ratio",
                "core.sweep.max_cell_wall_s": "s",
                "core.journal.records": "count"}


def per_layer(pairs):
    """Per-layer metrics, averaged per traced sample. ``pairs`` holds
    (untraced, traced) samples of the same target."""
    n = max(1, len(pairs))
    spans, counters = {}, {}
    for _, traced in pairs:
        for name, entry in traced["trace"]["spans"].items():
            total = spans.setdefault(name, dict.fromkeys(entry, 0.0))
            for key, value in entry.items():
                total[key] += value / n
        for name, value in traced["trace"]["counters"].items():
            counters[name] = counters.get(name, 0) + value / n

    def span(name, key):
        return spans.get(name, {}).get(key, 0.0)

    def mean(key, samples):
        return sum(sample[key] for sample in samples) / n

    untraced = [u for u, _ in pairs]
    traced = [t for _, t in pairs]
    # both walls at the reference host's speed, the untraced one less
    # the gauge's readings
    plain = sum((u["wall_s"] - u["gauge_s"]) * u["speed"] for u in untraced) / n
    slowed = sum(t["wall_s"] * t["speed"] for t in traced) / n
    # what the spans partition: the sample's wall time in process, the
    # workers' campaign seconds on sweep-grid
    busy = sum(t.get("busy_s", t["wall_s"]) for t in traced) / n
    top = sum(entry["top_s"] for entry in spans.values())
    generated = counters.get("core.input_gen.generate.inputs", 0)
    compiled = counters.get("emulator.compiled.cache_hits", 0)
    confirms = span("core.fuzzer.confirm_candidate", "calls")
    m = {f"{name}.s": (span(name, "s"), "s") for name in INCLUSIVE}
    m.update({f"{name}.self_s": (span(name, "self_s"), "s") for name in SPANS})
    m.update({f"{name}.calls": (span(name, "calls"), "count") for name in CALLED})
    m.update({name: (counters.get(name, 0), "count") for name in COUNTERS})
    m.update({
        "core.input_gen.memo_hit_ratio": (ratio(
            generated - counters.get("core.input_gen.memo_misses", 0), generated
        ), "ratio"),
        "emulator.compiled.cache_hit_ratio": (ratio(
            compiled, compiled + counters.get("emulator.compiled.cache_misses", 0)
        ), "ratio"),
        "core.fuzzer.confirm_candidate.confirmed_ratio": (ratio(
            counters.get("core.fuzzer.confirm_candidate.confirmed", 0), confirms
        ), "ratio"),
        "core.analyzer.effectiveness": (mean("effectiveness", traced), "ratio"),
        # untraced phase walls, scaled: the fuzzing loop (to the
        # violation on detect-minimize; worker-seconds on sweep-grid)
        # and minimization
        "core.fuzzer.run.s": (sum(
            u.get("busy_s", u.get("ttv_s", u["wall_s"])) * u["speed"]
            for u in untraced
        ) / n, "s"),
        "core.postprocessor.minimize.s": (sum(
            u.get("minimize_s", 0.0) * u["speed"] for u in untraced
        ) / n, "s"),
        "trace.wall_s": (busy, "s"),
        "reference.speed": (median([u["speed"] for u in untraced]), "ratio"),
        "untraced.s": (busy - top, "s"),
        "trace.overhead_frac": (ratio(slowed - plain, plain), "ratio"),
    })
    for name, unit in SWEEP_LAYERS.items():
        m[name] = (median([t["layers"][name] for t in traced if "layers" in t]), unit)
    return m


def operations(workload, sample):
    """Operations a sample attempted: test cases, or sweep units."""
    return sample["units"] if workload == "sweep-grid" else sample["cases"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("fuzz-clean", "detect-minimize", "sweep-grid"))
    parser.add_argument(
        "--seed", type=int, default=DEFAULT_SEED,
        help=f"orders the target pool (default {DEFAULT_SEED}; re-check "
             f"performance claims on the held-out seed {HELD_OUT_SEED})")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        pool = load_pins(args.workload)
        preflight()
    except (BenchmarkError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    workload = args.workload
    targets = target_order(workload, pool, args.seed)[:TARGETS]
    reps = reps_of(workload, args.seconds, args.trace)
    workdir = os.path.join(WORK, f"{workload}-{os.getpid()}")
    samples, pairs, problems = [], [], []
    attempted = 0
    deadline = time.monotonic() + args.seconds
    for target in [target for _ in range(reps) for target in targets]:
        if problems or time.monotonic() > deadline:
            break
        try:
            runs = [run_sample(workload, target, False, workdir)]
            if args.trace:
                runs.append(run_sample(workload, target, True, workdir))
        except RuntimeError as exc:
            problems.append(str(exc))
            break
        expected = expected_for(workload, pool, target)
        for sample in runs:
            sample.update(target)
            attempted += operations(workload, sample)
            problems += [f"{target}: {p}" for p in check(sample, expected)]
        samples.append(runs[0])
        print("sample " + json.dumps({
            key: runs[0][key] for key in
            ("arch", "seed", "setup_s", "setup_cpu_s", "wall_s", "cpu_s",
             "rate_cpu_s", "gauge_s", "speed", "run_speed", "rate_speed",
             "readings", "inputs", "cases", "rss_mb") if key in runs[0]
        }), flush=True)
        if args.trace:
            pairs.append(tuple(runs))
    try:
        os.rmdir(WORK)
    except OSError:  # another run's scratch is still there
        pass

    for problem in problems:
        print(f"CHECK FAILED {problem}", file=sys.stderr)
    correct = not problems and bool(samples)
    metrics = per_layer(pairs) if args.trace else end_to_end(workload, samples)
    print(f"{workload} seed={args.seed} samples={len(samples)} reps={reps} "
          f"targets={[tuple(t.values()) for t in targets]}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<56} {value:>14.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, attempted),
        "failed": 0 if correct else max(1, attempted),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
