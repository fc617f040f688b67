"""Shared fixtures for the test suite."""

import pytest

from repro.emulator.state import InputData, SandboxLayout
from repro.uarch.config import coffee_lake, skylake


@pytest.fixture
def layout():
    return SandboxLayout()


@pytest.fixture
def skylake_config():
    return skylake()


@pytest.fixture
def skylake_patched_config():
    return skylake(v4_patch=True)


@pytest.fixture
def coffee_lake_config():
    return coffee_lake()


def make_input(registers=None, flags=None, memory=b"", seed=None):
    """Convenience input constructor used across test modules."""
    return InputData(
        registers=registers or {},
        flags=flags or {},
        memory=memory,
        seed=seed,
    )


@pytest.fixture
def input_factory():
    return make_input


@pytest.fixture
def reference_path(monkeypatch):
    """Route the testing pipelines built after ``reference_path(name)``
    onto a reference path, the oracle the production engine must match
    byte for byte:

    - ``"per-input"``: the battery engine declines, so every contract
      trace comes from the per-input loop;
    - ``"no-passes"``: an empty IR pass pipeline (no dead-flag
      elimination);
    - ``"interpretive"``: programs lower to interpretive IR, whose
      handlers dispatch through ``arch.execute`` on every step.

    The call returns a list that gains an entry each time the path is
    taken, so a test can assert that it was. It also swaps in a fresh
    process-global IR cache: the cache key names the program, not the
    pipeline that lowered it, so production IR cached earlier would
    otherwise serve the reference pipelines.
    """
    from repro.analysis.passes import PassManager
    from repro.core import fuzzer
    from repro.emulator import compiled

    taken = []

    def route(name):
        monkeypatch.setattr(
            compiled, "_SHARED_CACHE", compiled.CompiledProgramCache()
        )
        if name == "per-input":
            def decline(pipeline, compiled_program, program, inputs):
                taken.append(name)
                return None

            monkeypatch.setattr(
                fuzzer.TestingPipeline, "_collect_battery", decline
            )
        elif name == "no-passes":
            class NoPasses(PassManager):
                def run(self, compiled_program):
                    taken.append(name)
                    return super().run(compiled_program)

            monkeypatch.setattr(
                fuzzer, "default_pipeline", lambda: NoPasses(())
            )
        elif name == "interpretive":
            lower = fuzzer.compile_program

            def interpretive(program, arch=None):
                taken.append(name)
                return lower(program, arch, interpretive=True)

            monkeypatch.setattr(fuzzer, "compile_program", interpretive)
        else:
            raise ValueError(f"unknown reference path {name!r}")
        return taken

    return route
