"""Negative controls: test cases with nothing to leak must stay silent.

The rest of the suite pins that violations *are* found, or that engine
variants agree with each other. This module pins the other half: the
shapes of sca-fuzzer's bats suite — an empty test case, NOPs, a chain
of direct jumps, long register arithmetic and (x86-64 only) a nested
CALL/RET chain — never report a violation against CT-SEQ on skylake,
on both ISAs and under every executor mode. The harness is
``TestingPipeline.check_violation(..., confirm=True)`` over 50
generated inputs; its positive twin, the spectre-v1 gadget under P+P,
F+R and E+R, shows the same harness does fire.

The conformance cells at the end pin whole campaigns against a CPU
whose speculation the contract does or does not cover.
"""

import pytest

from repro.arch import get_architecture
from repro.core.config import FuzzerConfig
from repro.core.fuzzer import Fuzzer, TestingPipeline
from repro.core.input_gen import InputGenerator
from repro.executor.modes import mode_names
from repro.gallery import GALLERY
from repro.uarch.config import skylake


def _jump_chain(branch, length=10):
    lines = []
    for index in range(length):
        lines += [f"{branch} .l{index}", f".l{index}:"]
    return "\n".join(lines) + " NOP"


_X86_ARITHMETIC = (
    "ADD RAX, RBX", "SUB RCX, RDX", "XOR RBX, RAX", "AND RDX, RCX",
    "OR RAX, RDX",
)
_A64_ARITHMETIC = (
    "ADD X0, X1, X2", "SUB X3, X0, X1", "EOR X2, X2, X3", "AND X1, X0, X3",
    "ORR X0, X2, X1",
)

SHAPES = {
    "x86_64": {
        "empty": "",
        "nops": "NOP\n" * 20,
        "jumps": _jump_chain("JMP"),
        "arithmetic": "\n".join(
            _X86_ARITHMETIC[i % len(_X86_ARITHMETIC)] for i in range(100)
        ),
        "calls": (
            "CALL .f1\nJMP .end\n"
            ".f1: CALL .f2\nRET\n"
            ".f2: CALL .f3\nRET\n"
            ".f3: NOP\nRET\n"
            ".end: NOP"
        ),
    },
    "aarch64": {
        "empty": "",
        "nops": "NOP\n" * 20,
        "jumps": _jump_chain("B"),
        "arithmetic": "\n".join(
            _A64_ARITHMETIC[i % len(_A64_ARITHMETIC)] for i in range(100)
        ),
    },
}


def _check(arch_name, asm, mode):
    """The first confirmed violation of one test case, or ``None``."""
    arch = get_architecture(arch_name)
    pipeline = TestingPipeline(
        FuzzerConfig(
            arch=arch_name,
            contract_name="CT-SEQ",
            cpu_preset="skylake",
            executor_mode=mode,
        )
    )
    inputs = InputGenerator(
        seed=42,
        layout=pipeline.layout,
        registers=arch.default_register_pool,
        flag_bits=arch.registers.flag_bits,
    ).generate(50)
    return pipeline.check_violation(
        arch.parse_program(asm), inputs, confirm=True
    )


@pytest.mark.parametrize("mode", mode_names())
@pytest.mark.parametrize(
    "arch_name, shape",
    [(arch_name, shape) for arch_name in SHAPES for shape in SHAPES[arch_name]],
)
def test_stays_silent(arch_name, shape, mode):
    assert _check(arch_name, SHAPES[arch_name][shape], mode) is None


@pytest.mark.parametrize("mode", ["P+P", "F+R", "E+R"])
def test_positive_twin_fires(mode):
    assert _check("x86_64", GALLERY["spectre-v1"].asm, mode) is not None


#: skylake with conditional-branch speculation as its only mechanism
CONDITIONAL_ONLY = skylake().with_overrides(
    indirect_branch_speculation=False,
    return_stack_speculation=False,
    store_bypass=False,
)


@pytest.mark.parametrize(
    "arch_name, contract_name, speculation_window, violates",
    [
        ("x86_64", "CT-COND", 250, False),
        ("aarch64", "CT-COND", 250, False),
        ("x86_64", "CT-SEQ", 250, True),
        ("aarch64", "CT-SEQ", 250, True),
        # a deliberate model mismatch: the contract's window is shorter
        # than the CPU's, so its speculative traces miss real leaks
        ("x86_64", "CT-COND", 2, True),
    ],
)
def test_conformance_cell(arch_name, contract_name, speculation_window, violates):
    """A conformance-matrix cell: a conditional-only CPU under
    Flush+Reload stays clean against CT-COND, which models exactly its
    speculation, over 40 test cases, and its twins, CT-SEQ (no
    speculation modelled) and CT-COND with a shrunk window, report V1
    within the same budget. F+R stands in for E+R too: the executor
    prepares and probes both through ``evict_region`` and
    ``cached_lines``. A simulator is useful only once it is checked
    against known expected behaviour (the RIKEN Post-K simulator
    evaluation, PAPERS.md); these cells check the CPU model against the
    contract that should and the ones that should not describe it."""
    report = Fuzzer(FuzzerConfig(
        arch=arch_name,
        contract_name=contract_name,
        cpu_config=CONDITIONAL_ONLY,
        executor_mode="F+R",
        num_test_cases=40,
        inputs_per_test_case=50,
        speculation_window=speculation_window,
        seed=5,
    )).run()
    if violates:
        assert report.violation is not None
        assert report.violation.classification.startswith("V1")
    else:
        assert report.violation is None
        assert report.test_cases == 40
