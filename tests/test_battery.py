"""Battery-batched evaluation must be byte-identical to the per-input loop.

The group-lockstep engine (:mod:`repro.emulator.battery`) runs each
compiled program once across its whole input battery; the per-input
``collect_trace_and_log`` loop remains the behavioural referee. These
tests pin the equality from four directions:

- **randomized lockstep**: generated programs of both ISAs, across all
  execution clauses and with nested speculation, compared entry for
  entry against the per-input results;
- **divergence**: hand-written programs whose lanes split at
  conditional branches, at speculative faults, and at store-bypass
  forks — plus the fallback protocol for conditions the engine refuses
  to model (architectural faults, the step budget);
- **bookkeeping parity**: ``TestingPipeline`` emulation counters and
  trace-cache statistics (duplicate inputs included) must not move a
  unit when ``battery_eval`` flips, and ``ContractTraceCache.peek``
  must observably not mutate stats or LRU order;
- **the pass pipeline**: masked-access fusion fires on the §5.1 idiom,
  is gated on the dead-flag proof for x86 ``AND``, and never changes a
  trace.
"""

import os
from dataclasses import replace

import pytest

from repro.analysis.fusion import fuse_masked_access
from repro.analysis.passes import default_pipeline
from repro.arch import architecture_names, get_architecture
from repro.contracts import get_contract
from repro.core.config import FuzzerConfig, GeneratorConfig
from repro.core.fuzzer import TestingPipeline
from repro.core.generator import TestCaseGenerator
from repro.core.input_gen import InputGenerator
from repro.emulator import battery
from repro.emulator.battery import BatteryFallback, run_battery
from repro.emulator.compiled import compile_program, shared_compiled_cache
from repro.emulator.errors import SandboxViolation
from repro.emulator.state import InputData, SandboxLayout
from repro.isa.assembler import parse_program

ARCHS = sorted(architecture_names())
CONTRACTS = ("CT-SEQ", "CT-COND", "CT-BPAS", "ARCH-SEQ")


def _generator(arch, layout, seed):
    return TestCaseGenerator(
        arch.instruction_subset(["AR", "MEM", "CB"]),
        GeneratorConfig(
            instructions_per_test=16, basic_blocks=3, memory_accesses=5
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


def _per_input(contract, program, inputs, layout, arch, compiled):
    return [
        contract.collect_trace_and_log(
            program, input_data, layout, arch, compiled
        )
        for input_data in inputs
    ]


def _assert_lockstep(contract, program, inputs, layout, arch):
    compiled = compile_program(program, arch)
    reference = _per_input(contract, program, inputs, layout, arch, compiled)
    batched = contract.collect_traces_battery(
        compiled, inputs, layout, strict=True
    )
    assert len(batched) == len(reference)
    for (trace_a, log_a), (trace_b, log_b) in zip(reference, batched):
        assert trace_a == trace_b
        assert log_a.entries == log_b.entries
    return reference


# -- randomized lockstep ------------------------------------------------------


@pytest.mark.parametrize("arch_name", ARCHS)
@pytest.mark.parametrize("contract_name", CONTRACTS)
def test_battery_matches_per_input_randomized(arch_name, contract_name):
    """Generated programs, all execution clauses: entry-for-entry equal."""
    arch = get_architecture(arch_name)
    layout = SandboxLayout()
    contract = get_contract(contract_name)
    generator = _generator(arch, layout, seed=11)
    inputs = _inputs(arch, layout, seed=12, count=10)
    for _ in range(4):
        _assert_lockstep(contract, generator.generate(), inputs, layout, arch)


@pytest.mark.parametrize("arch_name", ARCHS)
def test_battery_matches_nested_speculation(arch_name):
    """max_nesting=2 (speculation inside speculation) stays in lockstep."""
    arch = get_architecture(arch_name)
    layout = SandboxLayout()
    contract = get_contract("CT-COND-BPAS", max_nesting=2)
    generator = _generator(arch, layout, seed=21)
    inputs = _inputs(arch, layout, seed=22, count=8)
    for _ in range(3):
        _assert_lockstep(contract, generator.generate(), inputs, layout, arch)


@pytest.mark.parametrize("arch_name", ARCHS)
def test_battery_matches_on_pass_optimized_ir(arch_name):
    """The production shape: battery over pipeline-optimized IR equals
    the per-input loop over the unoptimized IR."""
    arch = get_architecture(arch_name)
    layout = SandboxLayout()
    contract = get_contract("CT-COND")
    generator = _generator(arch, layout, seed=31)
    inputs = _inputs(arch, layout, seed=32, count=8)
    for _ in range(3):
        program = generator.generate()
        compiled = compile_program(program, arch)
        optimized = default_pipeline().run(compiled).program
        reference = _per_input(
            contract, program, inputs, layout, arch, compiled
        )
        batched = contract.collect_traces_battery(
            optimized, inputs, layout, strict=True
        )
        for (trace_a, log_a), (trace_b, log_b) in zip(reference, batched):
            assert trace_a == trace_b
            assert log_a.entries == log_b.entries


# -- targeted divergence ------------------------------------------------------


def _divergent_branch_program(arch_name):
    """Lanes split at the first conditional branch (flags are part of
    the input, so a randomized battery takes both sides)."""
    if arch_name == "x86_64":
        return parse_program(
            "JZ .skip\n"
            "MOV RAX, qword ptr [R14 + 64]\n"
            ".skip: MOV RBX, qword ptr [R14 + 128]\n"
            "NOP"
        )
    arch = get_architecture(arch_name)
    return arch.parse_program(
        "B.EQ .skip\n"
        "LDR X1, [X27, #64]\n"
        ".skip: LDR X2, [X27, #128]\n"
        "NOP"
    )


@pytest.mark.parametrize("arch_name", ARCHS)
@pytest.mark.parametrize("contract_name", ("CT-SEQ", "CT-COND"))
def test_conditional_branch_divergence(arch_name, contract_name):
    """A battery whose lanes take both sides of a Jcc/B.cond splits and
    still matches the per-input loop lane for lane."""
    arch = get_architecture(arch_name)
    layout = SandboxLayout()
    contract = get_contract(contract_name)
    program = _divergent_branch_program(arch_name)
    zero_flag = "ZF" if arch_name == "x86_64" else "Z"
    inputs = [
        InputData(flags={zero_flag: bool(index % 2)}, seed=index)
        for index in range(6)
    ]
    reference = _assert_lockstep(contract, program, inputs, layout, arch)
    # the split actually happened: the two flag polarities trace apart
    assert reference[0][0] != reference[1][0]


def _speculative_fault_program(arch_name):
    """The faulting load sits on the architecturally-dead path: only
    CT-COND's wrong-path speculation reaches it, and only for lanes
    whose input register pushes the address out of the sandbox."""
    if arch_name == "x86_64":
        return parse_program(
            "CMP RAX, RAX\n"
            "JZ .skip\n"
            "MOV RBX, qword ptr [R14 + RAX + 8000]\n"
            ".skip: NOP"
        )
    arch = get_architecture(arch_name)
    return arch.parse_program(
        "CMP X1, X1\n"
        "B.EQ .skip\n"
        "ADD X2, X1, #4000\n"
        "ADD X2, X2, #4000\n"
        "LDR X3, [X27, X2]\n"
        ".skip: NOP"
    )


@pytest.mark.parametrize("arch_name", ARCHS)
def test_speculative_fault_splits_lanes(arch_name):
    """Lanes that fault on the wrong path roll back individually; lanes
    that do not keep speculating — and both match the per-input loop."""
    arch = get_architecture(arch_name)
    layout = SandboxLayout()
    contract = get_contract("CT-COND")
    program = _speculative_fault_program(arch_name)
    register = "RAX" if arch_name == "x86_64" else "X1"
    # 8000 + 192 + 8 > two pages: the 192 lanes fault speculatively,
    # the 0/64 lanes complete their wrong-path load
    inputs = [
        InputData(registers={register: value}, seed=value)
        for value in (0, 192, 64, 192, 0)
    ]
    reference = _assert_lockstep(contract, program, inputs, layout, arch)
    # the faulting lane really rolled back early: it observes less of
    # the wrong path than a completing lane
    assert reference[1][0] != reference[0][0]


def _architectural_fault_program(arch_name):
    if arch_name == "x86_64":
        return parse_program(
            "MOV RBX, qword ptr [R14 + RAX + 8000]\nNOP"
        )
    arch = get_architecture(arch_name)
    return arch.parse_program(
        "ADD X2, X1, #4000\n"
        "ADD X2, X2, #4000\n"
        "LDR X3, [X27, X2]\n"
        "NOP"
    )


@pytest.mark.parametrize("arch_name", ARCHS)
def test_architectural_fault_fallback_parity(arch_name):
    """Architectural faults are the per-input loop's business: strict
    batteries refuse them, non-strict ones rerun per input and surface
    the identical exception at the identical input."""
    arch = get_architecture(arch_name)
    layout = SandboxLayout()
    contract = get_contract("CT-SEQ")
    program = _architectural_fault_program(arch_name)
    register = "RAX" if arch_name == "x86_64" else "X1"
    inputs = [
        InputData(registers={register: value}, seed=value)
        for value in (0, 64, 192, 0)
    ]
    compiled = compile_program(program, arch)

    with pytest.raises(BatteryFallback):
        contract.collect_traces_battery(compiled, inputs, layout, strict=True)

    with pytest.raises(SandboxViolation) as reference:
        _per_input(contract, program, inputs, layout, arch, compiled)
    with pytest.raises(SandboxViolation) as fallback:
        contract.collect_traces_battery(compiled, inputs, layout)
    assert str(fallback.value) == str(reference.value)


def test_step_budget_is_a_fallback_not_a_crash():
    """Exhausting the battery step budget raises BatteryFallback (the
    per-input loop owns the ExecutionLimitExceeded protocol)."""
    arch = get_architecture("x86_64")
    contract = get_contract("CT-SEQ")
    program = parse_program("NOP\nNOP\nNOP\nNOP\nNOP")
    compiled = compile_program(program, arch)
    inputs = [InputData(seed=index) for index in range(3)]
    with pytest.raises(BatteryFallback):
        run_battery(
            compiled,
            inputs,
            observation=contract.observation,
            execution=contract.execution,
            speculation_window=contract.speculation_window,
            max_nesting=contract.max_nesting,
            layout=SandboxLayout(),
            max_steps=2,
        )


def test_shared_scratch_stays_empty():
    """The fast-path scratch list is shared by every memory-free body on
    the premise that none of them ever appends an access — lock that
    premise in after a real battery run."""
    arch = get_architecture("x86_64")
    layout = SandboxLayout()
    contract = get_contract("CT-COND")
    generator = _generator(arch, layout, seed=41)
    inputs = _inputs(arch, layout, seed=42, count=6)
    compiled = compile_program(generator.generate(), arch)
    contract.collect_traces_battery(compiled, inputs, layout, strict=True)
    assert battery._SCRATCH == []


# -- pipeline bookkeeping parity ----------------------------------------------


def _pipeline_pair(arch_name, **overrides):
    base = FuzzerConfig(arch=arch_name, **overrides)
    on = TestingPipeline(base)
    off = TestingPipeline(replace(base, battery_eval=False))
    assert on.config.battery_eval and not off.config.battery_eval
    return on, off


@pytest.mark.parametrize("arch_name", ARCHS)
def test_pipeline_counter_parity_without_cache(arch_name):
    arch = get_architecture(arch_name)
    layout = SandboxLayout()
    on, off = _pipeline_pair(arch_name)
    program = _generator(arch, layout, seed=51).generate()
    inputs = _inputs(arch, layout, seed=52, count=8)
    result_on = on.collect_contract_traces(program, inputs)
    result_off = off.collect_contract_traces(program, inputs)
    assert result_on[0] == result_off[0]
    assert [log.entries for log in result_on[1]] == [
        log.entries for log in result_off[1]
    ]
    assert on.contract_emulations == off.contract_emulations == len(inputs)


@pytest.mark.parametrize(
    "arch_name, persistent",
    [pytest.param(name, False, id=name) for name in ARCHS]
    + [pytest.param(name, True, id=f"{name}-disk") for name in ARCHS],
)
def test_pipeline_cache_parity_with_duplicates(arch_name, persistent, tmp_path):
    """Hit/miss stats, emulation counters and cached results must be
    identical with ``battery_eval`` flipped — including a battery that
    contains the same input twice (first occurrence misses and is
    remembered, second hits) and a warm second collection. On the disk
    tier each side publishes its collection as one record, which a
    fresh pipeline then replays without a single emulation."""
    arch = get_architecture(arch_name)
    layout = SandboxLayout()
    base = FuzzerConfig(arch=arch_name, contract_trace_cache=True)
    on_config = replace(
        base, trace_cache_dir=str(tmp_path / "on") if persistent else None
    )
    off_config = replace(
        base,
        battery_eval=False,
        trace_cache_dir=str(tmp_path / "off") if persistent else None,
    )
    on, off = TestingPipeline(on_config), TestingPipeline(off_config)
    assert on.config.battery_eval and not off.config.battery_eval
    program = _generator(arch, layout, seed=61).generate()
    distinct = _inputs(arch, layout, seed=62, count=6)
    inputs = distinct + [distinct[0], distinct[3]]

    result_on = on.collect_contract_traces(program, inputs)
    result_off = off.collect_contract_traces(program, inputs)
    assert result_on[0] == result_off[0]
    assert on.contract_emulations == off.contract_emulations == len(distinct)
    assert on.trace_cache.stats.hits == off.trace_cache.stats.hits == 2
    assert (
        on.trace_cache.stats.misses
        == off.trace_cache.stats.misses
        == len(distinct)
    )

    # warm pass: every lane hits, no new emulation on either side
    warm_on = on.collect_contract_traces(program, inputs)
    warm_off = off.collect_contract_traces(program, inputs)
    assert warm_on[0] == warm_off[0] == result_on[0]
    assert on.contract_emulations == off.contract_emulations == len(distinct)
    assert on.trace_cache.stats.hits == off.trace_cache.stats.hits

    if not persistent:
        return
    for side in (on, off):
        records = [
            name
            for _root, _dirs, files in os.walk(side.trace_cache.cache_dir)
            for name in files
            if name.endswith(".trace")
        ]
        assert len(records) == 1
        assert side.trace_cache.stats.disk_writes == len(distinct)
    replay = TestingPipeline(on_config)
    replayed = replay.collect_contract_traces(program, inputs)
    assert replay.contract_emulations == 0
    assert replay.trace_cache.stats.disk_hits == len(distinct)
    assert replay.trace_cache.stats.hits == len(inputs)
    assert replayed[0] == result_on[0]
    assert [log.entries for log in replayed[1]] == [
        log.entries for log in result_on[1]
    ]


def test_peek_does_not_mutate_stats_or_recency():
    """``peek`` is the battery's pre-pass over the cache: it must leave
    hit/miss counters and LRU recency untouched so the replayed
    ``get``/``put`` protocol matches the per-input loop exactly."""
    from repro.core.trace_cache import ContractTraceCache

    arch = get_architecture("x86_64")
    layout = SandboxLayout()
    contract = get_contract("CT-SEQ")
    program = parse_program("NOP")
    compiled = compile_program(program, arch)
    cache = ContractTraceCache(max_entries=2)
    inputs = [InputData(seed=index) for index in range(3)]
    keys = [cache.key("fp", input_data, contract) for input_data in inputs]
    entries = [
        contract.collect_trace_and_log(
            program, input_data, layout, arch, compiled
        )
        for input_data in inputs
    ]

    cache.put(keys[0], entries[0])
    cache.put(keys[1], entries[1])
    before = (cache.stats.hits, cache.stats.misses)
    assert cache.peek(keys[0])
    assert not cache.peek(keys[2])
    assert (cache.stats.hits, cache.stats.misses) == before
    # peek did not refresh keys[0]: the next insert still evicts it
    cache.put(keys[2], entries[2])
    assert not cache.peek(keys[0])
    assert cache.peek(keys[1]) and cache.peek(keys[2])


def test_compiled_ir_shared_across_pipelines():
    """Equal-text programs share one lowering process-wide: a second
    pipeline's ``compiled_for`` is a shared-cache hit, not a recompile."""
    arch_name = "x86_64"
    arch = get_architecture(arch_name)
    layout = SandboxLayout()
    program = _generator(arch, layout, seed=71).generate()
    clone = program.clone()

    first = TestingPipeline(FuzzerConfig(arch=arch_name))
    second = TestingPipeline(FuzzerConfig(arch=arch_name))
    compiled = first.compiled_for(program)
    hits_before = shared_compiled_cache().hits
    assert second.compiled_for(clone) is compiled
    assert shared_compiled_cache().hits > hits_before


def test_equal_configs_generate_equal_batteries():
    """Two generators with the same configuration produce equal
    batteries: an input is a pure function of the configuration."""
    arch = get_architecture("x86_64")
    layout = SandboxLayout()

    def make():
        return InputGenerator(
            seed=81,
            layout=layout,
            registers=arch.default_register_pool,
            flag_bits=arch.registers.flag_bits,
        ).generate(5)

    first = make()
    second = make()
    assert first == second


# -- masked-access fusion -----------------------------------------------------


def _fusible_program(arch_name):
    """The §5.1 idiom: mask a register, use it as an address offset. The
    trailing compare redefines the x86 flags so the AND's writes are
    provably dead (the fusion precondition)."""
    if arch_name == "x86_64":
        return parse_program(
            "AND RAX, 4032\n"
            "MOV RBX, qword ptr [R14 + RAX]\n"
            "CMP RBX, RBX\n"
            "NOP"
        )
    arch = get_architecture(arch_name)
    return arch.parse_program(
        "AND X1, X1, #4032\n"
        "LDR X2, [X27, X1]\n"
        "CMP X2, X2\n"
        "NOP"
    )


@pytest.mark.parametrize("arch_name", ARCHS)
def test_fusion_fires_on_masked_access_idiom(arch_name):
    arch = get_architecture(arch_name)
    program = _fusible_program(arch_name)
    compiled = compile_program(program, arch)
    report = default_pipeline().run(compiled)
    assert 0 in report.applied("masked-access-fusion")


@pytest.mark.parametrize("arch_name", ARCHS)
def test_fusion_preserves_traces(arch_name):
    """Fused handlers are specializations, not approximations: traces
    and logs match the unoptimized IR on a randomized battery."""
    arch = get_architecture(arch_name)
    layout = SandboxLayout()
    contract = get_contract("CT-COND")
    program = _fusible_program(arch_name)
    compiled = compile_program(program, arch)
    optimized = default_pipeline().run(compiled).program
    inputs = _inputs(arch, layout, seed=91, count=8)
    reference = _per_input(contract, program, inputs, layout, arch, compiled)
    fused = _per_input(contract, program, inputs, layout, arch, optimized)
    for (trace_a, log_a), (trace_b, log_b) in zip(reference, fused):
        assert trace_a == trace_b
        assert log_a.entries == log_b.entries


def test_x86_fusion_requires_dead_flag_proof():
    """An x86 AND whose flags are live at exit must not fuse: without
    the dead-flag proof the specialized handler would skip observable
    flag writes."""
    arch = get_architecture("x86_64")
    # no later flag write: the AND's flags are live at program exit
    program = parse_program(
        "AND RAX, 4032\nMOV RBX, qword ptr [R14 + RAX]\nNOP"
    )
    compiled = compile_program(program, arch)
    report = fuse_masked_access(compiled, dead_flag_pcs=frozenset())
    assert report.fused == ()
    assert default_pipeline().run(compiled).applied(
        "masked-access-fusion"
    ) == ()
