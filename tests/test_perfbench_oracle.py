"""perfbench's own oracle, run as a tier-1 test.

One traced sample per workload, through ``perfbench/run.py``'s
``run_sample`` and checked by its ``check`` against the outputs and
counters pinned in ``perfbench/expected/``: a change that moves a
pinned report or counter, or renames a function the tracer wraps,
fails here instead of only in the benchmark. Traced samples are gauged
only before and after their run, so a unit shorter than the gauge
interval cannot fail them. The benchmark's modules are loaded as they
are, read-only.
"""

import importlib.util
from pathlib import Path

import pytest

RUN_PY = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"
#: the seed whose target order perfbench runs by default
SEED = 3


def _load_run():
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "workload", ["fuzz-clean", "detect-minimize", "sweep-grid"]
)
def test_a_traced_sample_matches_its_pins(workload, tmp_path):
    run = _load_run()
    pool = run.load_pins(workload)
    target = run.target_order(workload, pool, SEED)[0]
    sample = run.run_sample(workload, target, True, str(tmp_path / "work"))
    assert run.check(sample, run.expected_for(workload, pool, target)) == []
