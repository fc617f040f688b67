"""Tests for the static-analysis package (``repro.analysis``).

Fixpoints are checked on hand-built programs with known answers on both
ISA backends; the dead-flag elimination pass is validated byte-identical
against the unoptimized IR (contract traces, execution logs, CPU run
infos, final architectural states, and whole fuzzing reports); the
pre-screen is validated violation-identical (same campaign outcome at
the same position, every gallery gadget kept) with its safety sampling
raising loudly on a planted unsound classification; the metadata linter
is run clean over both catalogs and shown to catch deliberately
corrupted specs; and the LEA ``data_regs`` fix it originally flagged is
pinned as a regression test.
"""

from dataclasses import replace

import pytest

from repro.analysis import (
    SpeculationModel,
    TaintSeed,
    build_cfg,
    compute_def_use,
    compute_liveness,
    compute_taint,
    eliminate_dead_flags,
    reachable_within,
    speculation_sources,
    speculative_ops,
)
from repro.analysis.defuse import ENTRY
from repro.analysis.fence_advisor import advise_fences
from repro.analysis.liveness import FLAG, REG
from repro.analysis.metadata_lint import lint_architecture
from repro.analysis.prescreen import (
    ACTIVE,
    INERT,
    PrescreenResult,
    PrescreenSoundnessError,
    classify,
)
from repro.arch import architecture_names, get_architecture
from repro.contracts import get_contract
from repro.core.config import FuzzerConfig, GeneratorConfig
from repro.core.fuzzer import TestingPipeline, fuzz
from repro.core.generator import TestCaseGenerator
from repro.core.input_gen import InputGenerator
from repro.emulator.compiled import compile_program, decode_op
from repro.emulator.state import ArchState, SandboxLayout
from repro.gallery import GALLERY
from repro.uarch.config import preset
from repro.uarch.cpu import SpeculativeCPU

ARCHS = sorted(architecture_names())

X86 = get_architecture("x86_64")
A64 = get_architecture("aarch64")


def _compiled(arch, text):
    program = arch.parse_program(text)
    return program, compile_program(program, arch)


def _detect_config(**overrides):
    """A budget known to surface a V1-style violation quickly."""
    defaults = dict(
        instruction_subsets=("AR", "MEM", "CB"),
        contract_name="CT-SEQ",
        cpu_preset="skylake-v4-patched",
        num_test_cases=120,
        inputs_per_test_case=25,
        seed=7,
    )
    defaults.update(overrides)
    return FuzzerConfig(**defaults)


# -- CFG construction ---------------------------------------------------------


class TestCFG:
    def test_straight_line(self):
        _, compiled = _compiled(X86, "MOV RAX, 1\nNOP\nNOP\n")
        cfg = build_cfg(compiled)
        assert cfg.successors == ((1,), (2,), (3,))
        assert cfg.exit_index == 3
        assert not cfg.has_unresolved_flow
        assert cfg.predecessors == ((), (0,), (1,))

    def test_cond_branch_has_both_successors(self):
        _, compiled = _compiled(
            X86,
            """
            ADD RAX, RBX
            CMP RAX, 3
            JNZ .end
            ADD RBX, 1
            .end: NOP
            """,
        )
        cfg = build_cfg(compiled)
        assert cfg.successors == ((1,), (2,), (3, 4), (4,), (5,))
        assert not cfg.has_unresolved_flow

    def test_uncond_branch_has_only_its_target(self):
        _, compiled = _compiled(X86, "JMP .end\nNOP\n.end: NOP\n")
        cfg = build_cfg(compiled)
        assert cfg.successors[0] == (2,)
        assert not cfg.has_unresolved_flow

    def test_indirect_branch_is_unresolved(self):
        _, compiled = _compiled(X86, "MOV RBX, .t1\nJMP RBX\n.t1: NOP\n")
        cfg = build_cfg(compiled)
        assert cfg.has_unresolved_flow
        # conservatively every node plus exit
        assert cfg.successors[1] == (0, 1, 2, 3)

    def test_aarch64_cond_branch(self):
        _, compiled = _compiled(
            A64,
            """
            B.PL .end
            AND X1, X1, #0b111111000000
            LDR X2, [X27, X1]
            .end: NOP
            """,
        )
        cfg = build_cfg(compiled)
        assert cfg.successors == ((1, 3), (2,), (3,), (4,))
        assert not cfg.has_unresolved_flow


# -- speculation model and window reachability --------------------------------


class TestSpeculation:
    def test_model_of_contract(self):
        seq = SpeculationModel.of_contract(get_contract("CT-SEQ"))
        assert not seq.speculate_cond and not seq.speculate_bypass
        cond = SpeculationModel.of_contract(get_contract("CT-COND"))
        assert cond.speculate_cond and not cond.speculate_bypass
        bpas = SpeculationModel.of_contract(get_contract("CT-BPAS"))
        assert not bpas.speculate_cond and bpas.speculate_bypass

    def test_hardware_model(self):
        plain = SpeculationModel.hardware("P+P")
        assert plain.speculate_cond and plain.speculate_bypass
        assert not plain.speculate_assists
        assert plain.window >= 250  # ROB-dominating ceiling
        assist = SpeculationModel.hardware("P+P+A")
        assert assist.speculate_assists

    def test_sources(self):
        _, compiled = _compiled(
            X86,
            """
            JNS .end
            MOV qword ptr [R14], RAX
            MOV RBX, qword ptr [R14]
            .end: NOP
            """,
        )
        cfg = build_cfg(compiled)
        sources = {
            (source.pc, source.kind): source.entries
            for source in speculation_sources(
                cfg, SpeculationModel.hardware("P+P+A")
            )
        }
        # cond wrong path starts at either architectural successor
        assert sources[(0, "cond")] == (1, 3)
        # bypass wrong path re-runs the sequence from after the store
        assert sources[(1, "bypass")] == (2,)
        # an assist re-executes the load itself
        assert sources[(2, "assist")] == (2,)

    def test_window_bounds_reachability(self):
        _, compiled = _compiled(
            X86,
            """
            MOV qword ptr [R14], RAX
            NOP
            NOP
            MOV RCX, qword ptr [R14]
            """,
        )
        cfg = build_cfg(compiled)
        short = reachable_within(cfg, (1,), window=2)
        assert short == {1: 1, 2: 2}
        full = reachable_within(cfg, (1,), window=250)
        assert full == {1: 1, 2: 2, 3: 3}

    def test_nested_speculation_covers_wrong_paths(self):
        """A window opened by the inner branch (itself only reachable
        speculatively past the outer one) still follows CFG edges: the
        load is covered at depth 1 via the inner branch's wrong path."""
        _, compiled = _compiled(
            X86,
            """
            JNS .end
            JNZ .end
            MOV RCX, qword ptr [R14]
            .end: NOP
            """,
        )
        cfg = build_cfg(compiled)
        model = SpeculationModel(
            speculate_cond=True, speculate_bypass=False, window=250
        )
        depths = speculative_ops(cfg, model)
        assert set(depths) == {1, 2, 3}
        assert depths[2] == 1  # entry of the inner branch's wrong path


# -- liveness -----------------------------------------------------------------


class TestLiveness:
    def test_dead_flag_write_before_compare(self):
        _, compiled = _compiled(
            X86,
            """
            ADD RAX, RBX
            CMP RAX, 3
            JNZ .end
            ADD RBX, 1
            .end: NOP
            """,
        )
        cfg = build_cfg(compiled)
        liveness = compute_liveness(cfg)
        # op0's flags are overwritten by CMP before any read; CMP's own
        # flags are read by JNZ; op3's flags reach the exit (everything
        # is live at exit), so only op0 is dead
        assert liveness.dead_flag_writes(cfg) == [0]
        assert "ZF" in liveness.live_flags_out(1)
        # every register is live at exit, hence live throughout
        assert "RAX" in liveness.live_regs_out(0)

    def test_everything_live_at_exit(self):
        _, compiled = _compiled(X86, "ADD RAX, RBX\n")
        cfg = build_cfg(compiled)
        liveness = compute_liveness(cfg)
        assert liveness.dead_flag_writes(cfg) == []
        gprs = {name for kind, name in liveness.live_out[0] if kind == REG}
        assert gprs == set(X86.registers.gpr_names)
        flags = {name for kind, name in liveness.live_out[0] if kind == FLAG}
        assert flags == set(X86.registers.flag_bits)

    def test_aarch64_dead_flag_write(self):
        _, compiled = _compiled(
            A64,
            """
            ADDS X1, X2, #1
            CMP X1, #3
            B.NE .end
            NOP
            .end: NOP
            """,
        )
        cfg = build_cfg(compiled)
        liveness = compute_liveness(cfg)
        assert liveness.dead_flag_writes(cfg) == [0]


# -- taint --------------------------------------------------------------------


class TestTaint:
    def test_loads_taint_their_destinations(self):
        _, compiled = _compiled(
            X86,
            """
            MOV RAX, 5
            MOV RBX, qword ptr [R14]
            MOV RCX, RBX
            NOP
            """,
        )
        cfg = build_cfg(compiled)
        taint = compute_taint(cfg, TaintSeed())
        assert not taint.reg_tainted(1, "RAX")  # imm write, untainted
        assert taint.reg_tainted(2, "RBX")  # load destination
        assert taint.reg_tainted(3, "RCX")  # propagated through MOV

    def test_full_width_write_untaints(self):
        _, compiled = _compiled(X86, "MOV RAX, 0\nNOP\n")
        cfg = build_cfg(compiled)
        taint = compute_taint(cfg, TaintSeed.all_inputs(X86))
        assert taint.reg_tainted(0, "RAX")  # seeded at entry
        assert not taint.reg_tainted(1, "RAX")  # strongly untainted

    def test_address_and_condition_queries(self):
        _, compiled = _compiled(
            A64,
            """
            LDR X1, [X27, X2]
            CMP X1, #0
            B.NE .end
            .end: NOP
            """,
        )
        cfg = build_cfg(compiled)
        taint = compute_taint(cfg, TaintSeed.all_inputs(A64))
        assert taint.address_tainted(0, cfg.ops[0])
        assert taint.condition_tainted(2, cfg.ops[2])


# -- reaching definitions / def-use -------------------------------------------


class TestDefUse:
    def test_chains_merge_across_branches(self):
        _, compiled = _compiled(
            X86,
            """
            MOV RAX, 1
            JNZ .skip
            MOV RAX, 2
            .skip: MOV RBX, RAX
            """,
        )
        cfg = build_cfg(compiled)
        defuse = compute_def_use(cfg)
        reaching = defuse.defs_of_use[3][(REG, "RAX")]
        assert reaching == {(0, (REG, "RAX")), (2, (REG, "RAX"))}
        assert defuse.uses_of_def(0) == {3}
        assert defuse.uses_of_def(2) == {3}

    def test_entry_definition_reaches_unwritten_uses(self):
        _, compiled = _compiled(X86, "ADD RAX, RBX\n")
        cfg = build_cfg(compiled)
        defuse = compute_def_use(cfg)
        assert defuse.defs_of_use[0][(REG, "RBX")] == {
            (ENTRY, (REG, "RBX"))
        }

    def test_strong_kill_hides_older_def(self):
        _, compiled = _compiled(
            X86, "MOV RAX, 1\nMOV RAX, 2\nMOV RBX, RAX\n"
        )
        cfg = build_cfg(compiled)
        defuse = compute_def_use(cfg)
        assert defuse.defs_of_use[2][(REG, "RAX")] == {(1, (REG, "RAX"))}
        assert defuse.uses_of_def(0) == frozenset()


# -- dead-flag elimination ----------------------------------------------------


def _random_programs(arch, seed, count):
    layout = SandboxLayout()
    generator = TestCaseGenerator(
        arch.instruction_subset(["AR", "MEM", "CB"]),
        GeneratorConfig(
            instructions_per_test=14, basic_blocks=3, memory_accesses=4
        ),
        layout,
        seed=seed,
        arch=arch,
    )
    return layout, [generator.generate() for _ in range(count)]


class TestDeadFlagElimination:
    def test_optimizes_the_known_dead_write(self):
        _, compiled = _compiled(
            X86,
            """
            ADD RAX, RBX
            CMP RAX, 3
            JNZ .end
            ADD RBX, 1
            .end: NOP
            """,
        )
        report = eliminate_dead_flags(compiled)
        assert report.optimized == (0,)
        assert report.skipped == ()
        # metadata stays untouched: only the run closure is swapped
        assert report.program.ops[0].flags_written == compiled.ops[0].flags_written
        assert report.program.ops[0].run is not compiled.ops[0].run

    def test_refuses_unresolved_flow(self):
        _, compiled = _compiled(X86, "MOV RBX, .t1\nJMP RBX\n.t1: NOP\n")
        report = eliminate_dead_flags(compiled)
        assert report.program is compiled
        assert report.optimized == ()

    def test_leaves_interpretive_programs_alone(self):
        program = X86.parse_program("ADD RAX, RBX\nCMP RAX, 3\nNOP\n")
        compiled = compile_program(program, X86, interpretive=True)
        report = eliminate_dead_flags(compiled)
        assert report.program is compiled

    @pytest.mark.parametrize("arch_name", ARCHS)
    def test_byte_identical_on_random_programs(self, arch_name):
        """Optimized vs unoptimized IR: identical contract traces and
        logs (speculative clauses included), identical CPU run infos,
        identical final architectural states."""
        arch = get_architecture(arch_name)
        layout, programs = _random_programs(arch, seed=61, count=6)
        contracts = [get_contract("CT-SEQ"), get_contract("CT-COND-BPAS")]
        optimized_any = 0
        for trial, program in enumerate(programs):
            compiled = compile_program(program, arch)
            report = eliminate_dead_flags(compiled)
            optimized_any += len(report.optimized)
            inputs = InputGenerator(
                seed=trial,
                layout=layout,
                registers=arch.default_register_pool,
                flag_bits=arch.registers.flag_bits,
            ).generate(2)
            for contract in contracts:
                for input_data in inputs:
                    ref = contract.collect_trace_and_log(
                        program, input_data, layout, arch, compiled
                    )
                    new = contract.collect_trace_and_log(
                        program, input_data, layout, arch, report.program
                    )
                    assert new[0] == ref[0]
                    assert new[1].entries == ref[1].entries
            infos = {}
            for key, runnable in (("ref", compiled), ("opt", report.program)):
                cpu = SpeculativeCPU(preset("skylake"), layout, arch)
                cpu.reset_context()
                infos[key] = [cpu.run(runnable, i) for i in inputs]
            assert infos["opt"] == infos["ref"]
            states = {}
            for key, runnable in (("ref", compiled), ("opt", report.program)):
                state = ArchState(layout, arch)
                state.load_input(inputs[0])
                pc = 0
                while 0 <= pc < len(runnable.ops):
                    pc = runnable.ops[pc].run(state).next_pc
                states[key] = state
            assert states["opt"].registers == states["ref"].registers
            assert states["opt"].flags == states["ref"].flags
            assert states["opt"].memory == states["ref"].memory
        assert optimized_any > 0  # the property actually exercised the pass

    def test_fuzzing_report_identical_with_knob(self, reference_path):
        config = _detect_config()
        optimized = fuzz(config)
        taken = reference_path("no-passes")
        baseline = fuzz(config)
        assert taken
        assert optimized.found == baseline.found
        assert optimized.test_cases == baseline.test_cases
        assert optimized.inputs_tested == baseline.inputs_tested
        assert optimized.mean_effectiveness == baseline.mean_effectiveness
        if baseline.found:
            assert (
                optimized.violation.test_cases_until_found
                == baseline.violation.test_cases_until_found
            )
            assert (
                optimized.violation.classification
                == baseline.violation.classification
            )


# -- static leak pre-screen ---------------------------------------------------


def _classify_gadget(name):
    entry = GALLERY[name]
    config = FuzzerConfig(
        arch=entry.arch,
        contract_name=entry.contract,
        cpu_preset=entry.cpu_preset,
        executor_mode=entry.executor_mode,
        analyzer_mode=entry.analyzer_mode,
    )
    pipeline = TestingPipeline(config)
    compiled = compile_program(entry.program(), pipeline.arch)
    return classify(compiled, pipeline.contract, entry.executor_mode)


class TestPrescreen:
    def test_every_gallery_gadget_is_active(self):
        """No handwritten violation may ever be screened out."""
        for name in GALLERY:
            result = _classify_gadget(name)
            assert result.verdict == ACTIVE, (name, result.reason)

    def test_spectre_v1_fires_tainted_window_access(self):
        result = _classify_gadget("spectre-v1")
        assert result.reason == "tainted-window-access"

    def test_indirect_flow_is_always_active(self):
        result = _classify_gadget("spectre-v2")
        assert result.reason == "unresolved-flow"

    def test_accessless_windows_are_inert(self):
        _, compiled = _compiled(X86, "JNZ .end\nMOV RAX, 17\n.end: NOP\n")
        result = classify(compiled, get_contract("CT-SEQ"))
        assert result.verdict == INERT
        assert result.reason == "no-speculative-leak"

    def test_straight_line_is_inert(self):
        _, compiled = _compiled(X86, "MOV RAX, 1\nADD RAX, RBX\nNOP\n")
        assert classify(compiled, get_contract("CT-SEQ")).verdict == INERT

    def test_pc_blind_clause_keeps_tainted_branches(self):
        """Under a clause that hides the pc, the architectural path can
        vary unobserved, so a tainted branch alone must stay ACTIVE —
        while a pc-exposing clause screens the same program."""
        _, compiled = _compiled(
            X86, "CMP RAX, 1\nJNZ .end\nNOP\n.end: NOP\n"
        )
        blind = classify(compiled, get_contract("MEM-SEQ"))
        assert blind.verdict == ACTIVE
        assert blind.reason == "pc-blind-tainted-branch"
        seeing = classify(compiled, get_contract("CT-SEQ"))
        assert seeing.verdict == INERT

    def test_speculative_tainted_access_is_active(self):
        _, compiled = _compiled(
            X86,
            """
            JNS .end
            AND RBX, 0b111111000000
            MOV RCX, qword ptr [R14 + RBX]
            .end: NOP
            """,
        )
        result = classify(compiled, get_contract("CT-SEQ"))
        assert result.verdict == ACTIVE
        assert result.reason == "tainted-window-access"

    def test_campaign_is_violation_identical(self):
        config = _detect_config()
        baseline = fuzz(replace(config, prescreen=False))
        screened = fuzz(replace(config, prescreen=True))
        assert baseline.found and screened.found
        assert screened.test_cases == baseline.test_cases
        assert (
            screened.violation.test_cases_until_found
            == baseline.violation.test_cases_until_found
        )
        assert (
            screened.violation.classification
            == baseline.violation.classification
        )

    def test_safety_sampling_raises_on_unsound_screen(self, monkeypatch):
        """Plant an (unsound) always-INERT classifier: the safety
        sampling must measure the violating case anyway and fail the
        run loudly instead of silently losing the violation."""
        import repro.core.fuzzer as fuzzer_module

        monkeypatch.setattr(
            fuzzer_module,
            "prescreen_classify",
            lambda *_args, **_kwargs: PrescreenResult(INERT, "planted"),
        )
        config = _detect_config(prescreen=True, prescreen_safety_rate=1)
        with pytest.raises(PrescreenSoundnessError):
            fuzz(config)


# -- LEA metadata regression (found by the linter) ----------------------------


class TestLeaMetadataRegression:
    def test_agen_registers_are_data_dependencies(self):
        """LEA's base/index feed an address *computation* whose result
        lands in a register — no memory access happens, so they must be
        in data_regs (and the read partition must hold). The linter
        originally flagged this as unpartitioned."""
        program = X86.parse_program("LEA RAX, [R14 + RBX + 8]\n")
        instruction = next(program.all_instructions())
        op = decode_op(instruction, 0, X86, {})
        assert op.addr_regs == frozenset()  # LEA touches no memory
        assert {"R14", "RBX"} <= set(op.data_regs)
        assert set(op.registers_read) == set(op.addr_regs) | set(op.data_regs)
        assert not op.is_load and not op.is_store

    def test_linter_accepts_all_lea_forms(self):
        lea_specs = [
            spec
            for spec in X86.instruction_set.specs
            if spec.mnemonic == "LEA"
        ]
        assert lea_specs
        assert lint_architecture(X86, trials=3, specs=lea_specs) == []


# -- metadata linter ----------------------------------------------------------


class TestMetadataLint:
    @pytest.mark.parametrize("arch_name", ARCHS)
    def test_full_catalog_is_clean(self, arch_name):
        arch = get_architecture(arch_name)
        assert lint_architecture(arch, trials=1) == []

    def _spec(self, mnemonic):
        for spec in X86.instruction_set.specs:
            if spec.mnemonic == mnemonic and all(
                template.kind == "REG" for template in spec.operands
            ):
                return spec
        raise AssertionError(f"no all-register {mnemonic} form")

    def test_catches_undeclared_flag_write(self):
        corrupted = replace(self._spec("ADD"), flags_written=())
        findings = lint_architecture(X86, trials=3, specs=[corrupted])
        assert any(f.invariant == "undeclared-write" for f in findings)

    def test_catches_undeclared_flag_read(self):
        corrupted = replace(self._spec("ADC"), flags_read=())
        findings = lint_architecture(X86, trials=3, specs=[corrupted])
        assert any(f.invariant == "undeclared-read" for f in findings)

    def test_catches_undeclared_register_read(self):
        spec = self._spec("ADD")
        stripped = tuple(
            replace(template, src=False) if not template.dest else template
            for template in spec.operands
        )
        corrupted = replace(spec, operands=stripped)
        findings = lint_architecture(X86, trials=3, specs=[corrupted])
        assert any(f.invariant == "undeclared-read" for f in findings)


# -- fence advisor ------------------------------------------------------------


class TestFenceAdvisor:
    def test_spectre_v1_advice_targets_the_leak(self):
        entry = GALLERY["spectre-v1"]
        program = entry.program()
        compiled = compile_program(program, X86)
        plan = advise_fences(compiled, program)
        assert not plan.empty
        # the speculative load (linear pc 2) is the leaking access, fed
        # by the AND masking its index (linear pc 1)
        assert plan.leak_ops == (2,)
        assert 1 in plan.feeding_defs
        blocks = program.blocks
        for block_index, body_index in plan.positions:
            assert 0 <= block_index < len(blocks)
            assert 0 <= body_index <= len(blocks[block_index].body)

    def test_no_advice_without_speculative_leaks(self):
        program, compiled = _compiled(X86, "MOV RAX, 1\nADD RAX, RBX\n")
        assert advise_fences(compiled, program).empty

    def test_no_advice_with_unresolved_flow(self):
        program, compiled = _compiled(
            X86, "MOV RBX, .t1\nJMP RBX\n.t1: NOP\n"
        )
        assert advise_fences(compiled, program).empty
