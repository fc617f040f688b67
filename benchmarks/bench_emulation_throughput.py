"""Emulation throughput: the compile-once program IR vs. the interpreter.

The single hottest path of the MRT pipeline is program emulation: every
contract trace and every hardware measurement re-executes the same test
case, and the fuzzer replays each case across dozens of inputs, contract
parameterizations (nesting revalidation) and speculative rollbacks.
``repro.emulator.compiled`` lowers each program exactly once into bound
step closures (no per-step mnemonic dispatch, operand ``isinstance``
chains, ``condition_of`` parsing or label lookups); this benchmark pins
the two guarantees that refactor makes:

1. **>= 2x contract-trace throughput** on a ~30-instruction generated
   battery, on both ISA backends, measured as best-of-N wall clock of
   ``Contract.collect_trace_and_log`` over the identical (program,
   input) grid — interpretive vs. compiled;
2. **byte-identical results**: contract traces *and* execution logs,
   and hardware traces from the executor (fed interpretive IR built
   with ``compile_program(..., interpretive=True)``), must not change
   by a single byte on either ISA.

On top of the per-input compiled path, ``repro.emulator.battery`` runs
each compiled program *once* across the whole input battery (one plan
dispatch per op per battery, lane splitting on divergence; see
``docs/performance.md``). The benchmark pins the same two guarantees
for it:

3. **>= 1.5x additional throughput** over the per-input compiled path,
   on both ISAs, measured as best-of-N wall clock of
   ``Contract.collect_traces_battery`` on pass-optimized IR over the
   identical grid;
4. **byte-identical results** again: the battery's (trace, log) pairs
   entry-for-entry against the per-input compiled results.

End-to-end fuzzing reports on each reference path (interpretive IR,
per-input contract loop, no IR passes) are compared with production
by the tier-1 suite (``tests/test_reference_paths.py``), not here.

The JSON section (``emulation_throughput``) is schema- and value-gated
by ``tools/check_bench_json.py``: the ratios must hold (>= 2.0
compiled, >= 1.5 battery) and the equality flags must be true, so a
silent regression of either guarantee fails CI rather than rotting in
an artifact.
"""

import time

from repro.analysis.passes import default_pipeline
from repro.arch import get_architecture
from repro.contracts import get_contract
from repro.core.config import GeneratorConfig
from repro.core.generator import TestCaseGenerator
from repro.core.input_gen import InputGenerator
from repro.emulator.compiled import compile_program
from repro.emulator.state import SandboxLayout
from repro.executor.executor import Executor, ExecutorConfig
from repro.executor.modes import measurement_mode
from repro.uarch.config import preset

from conftest import emit_json, print_table

#: the generated battery: ~30 instructions per program (paper-scale test
#: cases after a few diversity rounds), conditional branches included so
#: the contract model forks and rolls back speculative paths
BATTERY_CONFIG = GeneratorConfig(
    instructions_per_test=30, basic_blocks=4, memory_accesses=8
)
PROGRAMS = 6
INPUTS = 30
TIMING_ROUNDS = 4  # best-of-N wall clock per engine


def _battery(arch, layout):
    generator = TestCaseGenerator(
        arch.instruction_subset(["AR", "MEM", "CB"]),
        BATTERY_CONFIG,
        layout,
        seed=5,
        arch=arch,
    )
    inputs = InputGenerator(
        seed=6,
        layout=layout,
        registers=arch.default_register_pool,
        flag_bits=arch.registers.flag_bits,
    ).generate(INPUTS)
    return [generator.generate() for _ in range(PROGRAMS)], inputs


def _collect_all(contract, programs, inputs, layout, arch, compiled_map):
    """One full battery pass; returns (wall seconds, results)."""
    results = []
    start = time.perf_counter()
    for program in programs:
        compiled = compiled_map[id(program)] if compiled_map else None
        for input_data in inputs:
            results.append(
                contract.collect_trace_and_log(
                    program, input_data, layout, arch, compiled
                )
            )
    return time.perf_counter() - start, results


def _collect_battery_all(contract, programs, inputs, layout, optimized_map):
    """One full battery-batched pass; returns (wall seconds, results).

    ``strict=True``: on this battery a fallback would mean the timing
    silently measured the per-input rerun instead — fail loudly.
    """
    results = []
    start = time.perf_counter()
    for program in programs:
        results.extend(
            contract.collect_traces_battery(
                optimized_map[id(program)], inputs, layout, strict=True
            )
        )
    return time.perf_counter() - start, results


def _hardware_traces(arch, programs, inputs, interpretive):
    executor = Executor(
        preset("skylake"),
        measurement_mode("P+P"),
        SandboxLayout(),
        ExecutorConfig(),
        arch=arch,
    )
    return [
        executor.collect_hardware_traces(
            compile_program(program, arch, interpretive=interpretive),
            inputs,
        )
        for program in programs
    ]


def test_compiled_emulation_throughput():
    """>= 2x contract-trace throughput (compiled vs. interpretive) and
    >= 1.5x on top of that (battery vs. per-input compiled), with
    byte-identical traces, on both ISA backends."""
    contract = get_contract("CT-COND")
    per_arch = {}
    rows = []
    traces_equal = True
    battery_traces_equal = True
    instruction_counts = []

    for arch_name in ("x86_64", "aarch64"):
        arch = get_architecture(arch_name)
        layout = SandboxLayout()
        programs, inputs = _battery(arch, layout)
        instruction_counts.extend(p.num_instructions for p in programs)
        compiled_map = {
            id(program): compile_program(program, arch)
            for program in programs
        }
        # the battery runs on pass-optimized IR, as the fuzzer pipeline
        # does in production (dead-flag elimination, byte-identical by
        # the pass-pipeline contract)
        optimized_map = {
            key: default_pipeline().run(compiled).program
            for key, compiled in compiled_map.items()
        }

        interpretive_best = compiled_best = battery_best = float("inf")
        interpretive_results = compiled_results = battery_results = None
        for _ in range(TIMING_ROUNDS):
            seconds, results = _collect_all(
                contract, programs, inputs, layout, arch, None
            )
            if seconds < interpretive_best:
                interpretive_best, interpretive_results = seconds, results
            seconds, results = _collect_all(
                contract, programs, inputs, layout, arch, compiled_map
            )
            if seconds < compiled_best:
                compiled_best, compiled_results = seconds, results
            seconds, results = _collect_battery_all(
                contract, programs, inputs, layout, optimized_map
            )
            if seconds < battery_best:
                battery_best, battery_results = seconds, results

        # contract traces and execution logs: byte-identical
        contract_equal = all(
            a[0] == b[0] and a[1].entries == b[1].entries
            for a, b in zip(interpretive_results, compiled_results)
        )
        # battery results: entry-for-entry equal to per-input compiled
        arch_battery_equal = all(
            a[0] == b[0] and a[1].entries == b[1].entries
            for a, b in zip(compiled_results, battery_results)
        )
        battery_traces_equal = battery_traces_equal and arch_battery_equal
        # hardware traces: byte-identical on compiled and interpretive IR
        hardware_equal = _hardware_traces(
            arch, programs, inputs, interpretive=False
        ) == _hardware_traces(arch, programs, inputs, interpretive=True)
        traces_equal = traces_equal and contract_equal and hardware_equal

        collections = len(programs) * len(inputs)
        ratio = interpretive_best / compiled_best
        battery_ratio = compiled_best / battery_best
        per_arch[arch_name] = {
            "interpretive_seconds": interpretive_best,
            "compiled_seconds": compiled_best,
            "battery_seconds": battery_best,
            "ratio": ratio,
            "battery_ratio": battery_ratio,
            "traces_per_second_interpretive": collections / interpretive_best,
            "traces_per_second_compiled": collections / compiled_best,
            "traces_per_second_battery": collections / battery_best,
            "contract_traces_equal": contract_equal,
            "hardware_traces_equal": hardware_equal,
            "battery_traces_equal": arch_battery_equal,
        }
        rows.append([
            arch_name,
            f"{interpretive_best * 1000:.0f}",
            f"{compiled_best * 1000:.0f}",
            f"{battery_best * 1000:.0f}",
            f"{ratio:.2f}x",
            f"{battery_ratio:.2f}x",
            contract_equal and hardware_equal and arch_battery_equal,
        ])

    print_table(
        f"Contract-trace throughput ({PROGRAMS} programs x {INPUTS} inputs, "
        f"~{sum(instruction_counts) // len(instruction_counts)} instructions"
        ", CT-COND)",
        ["arch", "interp ms", "compiled ms", "battery ms", "speedup",
         "battery x", "traces =="],
        rows,
    )

    min_ratio = min(stats["ratio"] for stats in per_arch.values())
    min_battery_ratio = min(
        stats["battery_ratio"] for stats in per_arch.values()
    )
    emit_json(
        "emulation_throughput",
        {
            "instructions": sum(instruction_counts)
            // len(instruction_counts),
            "programs": PROGRAMS,
            "inputs": INPUTS,
            "contract": contract.name,
            "arches": per_arch,
            "throughput_ratio": min_ratio,
            "battery_ratio": min_battery_ratio,
            "traces_equal": traces_equal,
            "battery_traces_equal": battery_traces_equal,
        },
    )

    assert traces_equal, "compiled engine diverged from the interpreter"
    assert battery_traces_equal, (
        "battery engine diverged from the per-input compiled path"
    )
    assert min_ratio >= 2.0, (
        f"compile-once IR must be >= 2x on contract traces, got "
        f"{min_ratio:.2f}x"
    )
    assert min_battery_ratio >= 1.5, (
        f"battery-batched evaluation must be >= 1.5x over the per-input "
        f"compiled path, got {min_battery_ratio:.2f}x"
    )
