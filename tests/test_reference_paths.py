"""Every reference path reproduces the production engine's reports.

The production engine lowers each test case once to the compiled IR,
runs the dead-flag pass over it and collects contract traces
battery-batched. The paths it must match byte for byte are reachable
only from tests, through the ``reference_path`` fixture
(``tests/conftest.py``): the per-input contract loop, an empty pass
pipeline and interpretive IR. Here a whole ``Fuzzer.run`` on each of
them is compared with production on both ISAs.
"""

import functools

import pytest

from repro.core.config import FuzzerConfig
from repro.core.fuzzer import Fuzzer
from repro.core.trace_cache import program_fingerprint

#: budgets that reach a confirmed violation within about a second on
#: each ISA, so the comparison covers diversity rounds and candidate
#: confirmation (the nesting and priming-swap filters)
BUDGETS = {
    "x86_64": dict(seed=7, num_test_cases=120, inputs_per_test_case=25),
    "aarch64": dict(seed=3, num_test_cases=60, inputs_per_test_case=30),
}


def _config(arch_name):
    return FuzzerConfig(
        arch=arch_name,
        contract_name="CT-SEQ",
        cpu_preset="skylake-v4-patched",
        **BUDGETS[arch_name],
    )


def report_digest(report, arch_name):
    """The byte-comparable projection of a fuzzing report: wall-clock
    fields excluded; everything the MRT loop decides included, and the
    contract emulations it performed."""
    violation = None
    if report.found:
        violation = (
            program_fingerprint(report.violation.program, arch_name),
            report.violation.classification,
            report.violation.position_a,
            report.violation.position_b,
            str(report.violation.htrace_a),
            str(report.violation.htrace_b),
            str(report.violation.ctrace),
            tuple(sorted(report.violation.speculation_kinds)),
        )
    return (
        report.test_cases,
        report.inputs_tested,
        report.rounds,
        report.reconfigurations,
        report.mean_effectiveness,
        sorted(report.coverage.covered),
        report.discarded_by_priming,
        report.discarded_by_nesting,
        report.unconfirmed_candidates,
        report.contract_emulations,
        violation,
    )


@functools.lru_cache(maxsize=None)
def production_digest(arch_name):
    report = Fuzzer(_config(arch_name)).run()
    assert report.found
    return report_digest(report, arch_name)


@pytest.mark.parametrize("path", ["per-input", "no-passes", "interpretive"])
@pytest.mark.parametrize("arch_name", ["x86_64", "aarch64"])
def test_report_matches_production(arch_name, path, reference_path):
    expected = production_digest(arch_name)
    taken = reference_path(path)
    report = Fuzzer(_config(arch_name)).run()
    assert taken
    assert report_digest(report, arch_name) == expected
