"""The compile-once program IR must be byte-identical to the interpreter.

Three layers of evidence, from exhaustive to end-to-end:

- **catalog-exhaustive**: every instruction form of every registered
  backend, compiled and single-stepped next to ``arch.execute`` under
  both flag polarities — states, step results and faults must match;
- **randomized programs** (the property test of the issue): generated
  programs on both ISAs, stepped in lockstep (arch state, memory
  accesses, branch info per step), plus contract traces/logs across all
  execution clauses, ``SpeculativeCPU`` run infos with trace-hook
  parity, and executor hardware traces on compiled and interpretive
  IR;
- **structure**: what the compiler precomputes (resolved labels,
  condition codes, serializing bits, latency classes) and how the
  pipeline memoizes the IR.
"""

import pytest

from repro.arch import architecture_names, get_architecture
from repro.contracts import get_contract
from repro.core.config import FuzzerConfig, GeneratorConfig
from repro.core.fuzzer import TestingPipeline
from repro.core.generator import TestCaseGenerator
from repro.core.input_gen import InputGenerator
from repro.emulator.compiled import (
    CompiledProgram,
    as_compiled,
    compile_linear,
    compile_program,
)
from repro.emulator.errors import EmulationFault, InvalidProgram
from repro.emulator.machine import Emulator
from repro.emulator.state import ArchState, InputData, SandboxLayout
from repro.executor.executor import Executor, ExecutorConfig
from repro.executor.modes import measurement_mode
from repro.uarch.config import preset
from repro.uarch.cpu import SpeculativeCPU

from test_arch_registry import _concrete_operands, _prepared_state

ARCHS = sorted(architecture_names())
CONTRACTS = ("CT-SEQ", "CT-COND", "CT-BPAS", "CT-COND-BPAS", "ARCH-SEQ")


def _generator(arch, layout, seed, subsets=("AR", "MEM", "CB")):
    return TestCaseGenerator(
        arch.instruction_subset(list(subsets)),
        GeneratorConfig(
            instructions_per_test=14, basic_blocks=3, memory_accesses=4
        ),
        layout,
        seed=seed,
        arch=arch,
    )


def _inputs(arch, layout, seed, count):
    return InputGenerator(
        seed=seed,
        layout=layout,
        registers=arch.default_register_pool,
        flag_bits=arch.registers.flag_bits,
    ).generate(count)


def _states_equal(a: ArchState, b: ArchState) -> bool:
    return (
        a.registers == b.registers
        and a.flags == b.flags
        and a.memory == b.memory
    )


# -- catalog-exhaustive single-step equality ----------------------------------


@pytest.mark.parametrize("arch_name", ARCHS)
def test_every_catalog_entry_compiles_and_matches_interpreter(arch_name):
    """Each instruction form: one compiled step == one interpreted step
    (state deltas, step results, and faults), under both flag
    polarities."""
    from repro.isa.instruction import Instruction

    arch = get_architecture(arch_name)
    labels = {"target": 7}

    for spec in arch.instruction_set:
        instruction = Instruction(spec, _concrete_operands(arch, spec))
        run = arch.compile_instruction(instruction, 0, labels)
        for polarity in (False, True):
            states = []
            outcomes = []
            for engine in ("interpretive", "compiled"):
                state = _prepared_state(arch)
                for flag in arch.registers.flag_bits:
                    state.write_flag(flag, polarity)
                if spec.category == "VAR":
                    for guard in arch.division_guards(instruction):
                        arch.execute(guard, state, 0, lambda label: 7)
                try:
                    if engine == "interpretive":
                        result = arch.execute(
                            instruction, state, 0, lambda label: 7
                        )
                    else:
                        result = run(state)
                    outcomes.append(result)
                except EmulationFault as fault:
                    outcomes.append((type(fault), str(fault)))
                states.append(state)

            reference, compiled = outcomes
            if isinstance(reference, tuple):
                assert compiled == reference, str(instruction)
            else:
                assert compiled.pc == reference.pc, str(instruction)
                assert compiled.next_pc == reference.next_pc, str(instruction)
                assert (
                    compiled.mem_accesses == reference.mem_accesses
                ), str(instruction)
                assert compiled.branch == reference.branch, str(instruction)
            assert _states_equal(states[0], states[1]), str(instruction)


# -- randomized program property tests ----------------------------------------


@pytest.mark.parametrize("arch_name", ARCHS)
def test_random_programs_step_identically(arch_name):
    """Lockstep architectural execution: per-step state, memory accesses
    and branch info agree on randomly generated programs."""
    arch = get_architecture(arch_name)
    layout = SandboxLayout()
    generator = _generator(arch, layout, seed=11)
    for trial in range(12):
        program = generator.generate()
        compiled = compile_program(program, arch)
        for input_data in _inputs(arch, layout, seed=trial, count=3):
            emulator = Emulator(program, layout, arch)
            reference = emulator.run(input_data)

            state = ArchState(layout, arch)
            state.load_input(input_data)
            pc, steps = 0, []
            while 0 <= pc < len(compiled.ops):
                result = compiled.ops[pc].run(state)
                steps.append(result)
                pc = result.next_pc

            assert len(steps) == len(reference)
            for ours, theirs in zip(steps, reference):
                assert ours.pc == theirs.pc
                assert ours.next_pc == theirs.next_pc
                assert ours.mem_accesses == theirs.mem_accesses
                assert ours.branch == theirs.branch
            assert _states_equal(state, emulator.state)


@pytest.mark.parametrize("arch_name", ARCHS)
def test_random_programs_contract_traces_identical(arch_name):
    """Contract traces and execution logs agree across all execution
    clauses (speculative forks and rollbacks included)."""
    arch = get_architecture(arch_name)
    layout = SandboxLayout()
    generator = _generator(arch, layout, seed=23)
    contracts = [get_contract(name) for name in CONTRACTS]
    for trial in range(8):
        program = generator.generate()
        compiled = compile_program(program, arch)
        inputs = _inputs(arch, layout, seed=100 + trial, count=3)
        for contract in contracts:
            for input_data in inputs:
                ref_trace, ref_log = contract.collect_trace_and_log(
                    program, input_data, layout, arch
                )
                new_trace, new_log = contract.collect_trace_and_log(
                    program, input_data, layout, arch, compiled
                )
                assert new_trace == ref_trace
                assert new_log.entries == ref_log.entries


@pytest.mark.parametrize("arch_name", ARCHS)
def test_random_programs_cpu_runs_identical(arch_name):
    """``SpeculativeCPU.run`` parity: RunInfo and the trace-hook stream
    (pc, issue cycle, speculative) agree between a plain LinearProgram
    (interpretive decode) and the compiled IR, with persistent
    microarchitectural context across inputs."""
    arch = get_architecture(arch_name)
    layout = SandboxLayout()
    division = "VAR" in arch.subset_names()
    subsets = ("AR", "MEM", "CB", "VAR") if division else ("AR", "MEM", "CB")
    generator = _generator(arch, layout, seed=31, subsets=subsets)

    for trial in range(6):
        program = generator.generate()
        linear = program.linearize()
        compiled = compile_linear(linear, arch)
        inputs = _inputs(arch, layout, seed=200 + trial, count=4)

        hooks = {"interpretive": [], "compiled": []}
        infos = {"interpretive": [], "compiled": []}
        for engine, runnable in (
            ("interpretive", linear),
            ("compiled", compiled),
        ):
            cpu = SpeculativeCPU(preset("skylake"), layout, arch)
            cpu.reset_context()
            for input_data in inputs:
                info = cpu.run(
                    runnable,
                    input_data,
                    trace_hook=lambda pc, issue, spec, _e=engine: hooks[
                        _e
                    ].append((pc, issue, spec)),
                )
                infos[engine].append(info)

        assert hooks["compiled"] == hooks["interpretive"]
        assert infos["compiled"] == infos["interpretive"]


@pytest.mark.parametrize("arch_name", ARCHS)
def test_executor_traces_identical_across_engine_knob(arch_name):
    """Hardware traces (and per-input run infos) are byte-identical on
    compiled and on interpretive IR."""
    arch = get_architecture(arch_name)
    layout = SandboxLayout()
    generator = _generator(arch, layout, seed=41)
    program = generator.generate()
    inputs = _inputs(arch, layout, seed=42, count=6)

    outcomes = {}
    for interpretive in (False, True):
        executor = Executor(
            preset("skylake"),
            measurement_mode("P+P"),
            layout,
            ExecutorConfig(),
            arch=arch,
        )
        lowered = compile_program(program, arch, interpretive=interpretive)
        assert lowered.interpretive is interpretive
        traces = executor.collect_hardware_traces(lowered, inputs)
        outcomes[interpretive] = (traces, executor.last_run_infos)

    assert outcomes[True][0] == outcomes[False][0]
    assert outcomes[True][1] == outcomes[False][1]


# -- compiler structure and pipeline threading --------------------------------


def test_decoded_ops_precompute_static_metadata():
    arch = get_architecture("x86_64")
    program = arch.parse_program(
        """
        MOV RAX, 17
        CMP RAX, 3
        JNZ .skip
        MOV RBX, qword ptr [R14 + RAX]
        LFENCE
    .skip: NOP
        """
    )
    compiled = compile_program(program, arch)
    ops = compiled.ops
    assert len(compiled) == 6

    branch = ops[2]
    assert branch.is_cond_branch
    assert branch.condition == "NZ"  # pre-resolved, no per-step parsing
    assert branch.target == compiled.label_to_index["skip"] == 5

    load = ops[3]
    assert load.is_load and not load.is_store
    assert load.addr_regs == frozenset({"R14", "RAX"})
    assert len(load.mem_operands) == 1
    state = ArchState(SandboxLayout(), arch)
    address_of, size = load.mem_operands[0]
    assert size == 8
    assert address_of(state) == state.read_register("R14")

    fence = ops[4]
    assert fence.is_fence and fence.is_serializing

    entry = branch.log_entry(addresses=(), speculative=False)
    assert entry.pc == 2 and entry.mnemonic == "JNZ"
    assert entry.is_cond_branch and not entry.is_load


def test_compile_rejects_undefined_labels():
    arch = get_architecture("x86_64")
    program = arch.parse_program("MOV RAX, 1\nJNZ .skip\n.skip: NOP\n")
    linear = program.linearize()
    del linear.label_to_index["skip"]
    with pytest.raises(InvalidProgram, match="undefined label"):
        compile_linear(linear, arch)


def test_cpu_rejects_cross_architecture_ir():
    x86 = get_architecture("x86_64")
    aarch64 = get_architecture("aarch64")
    compiled = compile_program(x86.parse_program("NOP\n"), x86)
    cpu = SpeculativeCPU(preset("skylake"), arch=aarch64)
    with pytest.raises(ValueError, match="compiled for"):
        cpu.run(compiled, InputData())


def test_contract_rejects_cross_architecture_ir():
    x86 = get_architecture("x86_64")
    aarch64 = get_architecture("aarch64")
    program = x86.parse_program("NOP\n")
    compiled = compile_program(program, x86)
    contract = get_contract("CT-SEQ")
    with pytest.raises(ValueError, match="compiled for"):
        contract.collect_trace_and_log(
            program, InputData(), None, aarch64, compiled
        )


def test_as_compiled_passes_compiled_programs_through():
    arch = get_architecture("x86_64")
    compiled = compile_program(arch.parse_program("NOP\n"), arch)
    assert as_compiled(compiled, arch) is compiled
    interpretive = compile_program(
        arch.parse_program("NOP\n"), arch, interpretive=True
    )
    assert interpretive.interpretive
    assert as_compiled(interpretive, arch) is interpretive


def test_pipeline_compiles_each_program_once():
    pipeline = TestingPipeline(FuzzerConfig(num_test_cases=1))
    program = pipeline.arch.parse_program("MOV RAX, 1\nNOP\n")
    first = pipeline.compiled_for(program)
    assert isinstance(first, CompiledProgram)
    assert pipeline.compiled_for(program) is first  # memoized by identity
    clone = program.clone()
    # equal text -> same digest -> the one lowering is shared (the
    # process-global IR cache; sweep cells regenerate identical programs)
    assert pipeline.compiled_for(clone) is first
    mutated = pipeline.arch.parse_program("MOV RAX, 2\nNOP\n")
    assert pipeline.compiled_for(mutated) is not first  # different text


def test_pipeline_compile_memo_outlives_a_measurement_round():
    # a batched round compiles round_size programs before their contract
    # halves run; the memo must still hold the first one at that point
    round_size = 40
    pipeline = TestingPipeline(
        FuzzerConfig(num_test_cases=1, round_size=round_size)
    )
    programs = [
        pipeline.arch.parse_program(f"MOV RAX, {index}\nNOP\n")
        for index in range(round_size)
    ]
    compiled = [pipeline.compiled_for(program) for program in programs]
    for program, ir in zip(programs, compiled):
        assert pipeline.compiled_for(program) is ir


# -- satellite regressions ----------------------------------------------------


def test_store_entry_interval_precomputed():
    from repro.uarch.cpu import _StoreEntry

    entry = _StoreEntry(
        address=0x100, size=8, value=1, old_value=0, addr_ready=3, pc=0
    )
    assert entry.end == 0x108
    assert entry.overlaps(0x104, 8)
    assert not entry.overlaps(0x108, 8)
    assert entry.overlaps_exactly(0x100, 8)


@pytest.mark.parametrize("arch_name", ARCHS)
def test_condition_tables_memoized_at_import(arch_name):
    arch = get_architecture(arch_name)
    if arch_name == "x86_64":
        from repro.isa.instruction_set import _CONDITION_OF

        assert _CONDITION_OF["JNE"] == "NZ"  # alias, canonicalized
        assert arch.condition_of("CMOVNBE") == "A"
        assert arch.condition_of("JMP") is None
    else:
        from repro.arch.aarch64.instruction_set import _CONDITION_OF

        assert _CONDITION_OF["B.HS"] == "CS"  # alias, canonicalized
        assert arch.condition_of("B.LO") == "CC"
        assert arch.condition_of("B") is None
    state = ArchState(SandboxLayout(), arch)
    code = arch.condition_codes[0]
    assert arch.evaluate_condition(code, state) in (True, False)
    with pytest.raises(InvalidProgram):
        arch.evaluate_condition("BOGUS", state)
