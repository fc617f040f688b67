"""Tests of the replayable counterexample corpus (repro.corpus).

Covers the full round trip (persist -> load -> replay) on both ISA
backends, the storage discipline (atomic publish, digest dedup,
schema-version rejection, torn-file degradation to SKIP), the replay
verdict semantics, the persistence hooks (Fuzzer.run and
Postprocessor.minimize), and — against the checked-in ``corpus/seed``
artifact — the determinism matrix: the replay report digest is pinned
on the production engine and on every combination of the reference
paths (the byte-identical engine contracts, pinned by a fixed external
artifact instead of self-parity).
"""

import functools
import json
import os
from dataclasses import replace
from pathlib import Path

import pytest

from repro.core.config import FuzzerConfig
from repro.core.fuzzer import Fuzzer, TestingPipeline
from repro.core.input_gen import InputGenerator
from repro.core.postprocessor import Postprocessor
from repro.corpus import (
    CHANGED,
    FAIL,
    FORMAT,
    PASS,
    SKIP,
    CorpusRecord,
    CounterexampleCorpus,
    decode_input,
    encode_input,
    record_from_violation,
)
from repro.gallery import GALLERY

#: the checked-in seed corpus this repo's CI replays on every leg
SEED_CORPUS = str(Path(__file__).resolve().parent.parent / "corpus" / "seed")


@functools.lru_cache(maxsize=None)
def detect(name, max_inputs=128):
    """(config, violation) of one gallery gadget, fully confirmed —
    the same deterministic procedure tools/seed_corpus.py runs."""
    entry = GALLERY[name]
    config = FuzzerConfig(
        arch=entry.arch,
        contract_name=entry.contract,
        cpu_preset=entry.cpu_preset,
        executor_mode=entry.executor_mode,
        analyzer_mode=entry.analyzer_mode,
        seed=11,
    )
    pipeline = TestingPipeline(config)
    generator = InputGenerator(
        seed=42,
        entropy_bits=entry.entropy_bits,
        layout=pipeline.layout,
        registers=pipeline.arch.default_register_pool,
        flag_bits=pipeline.arch.registers.flag_bits,
    )
    program = entry.program()
    count = 4
    while count <= max_inputs:
        inputs = generator.generate(count)
        outcome = pipeline.test_program(program, inputs)
        for candidate in outcome.analysis.candidates:
            if pipeline.confirm_candidate(outcome, candidate):
                return config, pipeline.build_violation(outcome, candidate)
        count *= 2
    raise AssertionError(f"{name} did not violate within {max_inputs} inputs")


def gadget_record(name):
    config, violation = detect(name)
    return record_from_violation(violation, config, name=name)


class TestInputCodec:
    def test_round_trip(self):
        pipeline = TestingPipeline(FuzzerConfig())
        generator = InputGenerator(seed=3, layout=pipeline.layout)
        for original in generator.generate(4):
            decoded = decode_input(encode_input(original))
            assert dict(decoded.registers) == dict(original.registers)
            assert dict(decoded.flags) == dict(original.flags)
            assert decoded.memory == original.memory
            assert decoded.seed == original.seed

    def test_encoding_is_json_safe(self):
        pipeline = TestingPipeline(FuzzerConfig())
        generator = InputGenerator(seed=3, layout=pipeline.layout)
        payload = encode_input(generator.generate_one())
        assert decode_input(json.loads(json.dumps(payload))).memory


@pytest.mark.parametrize("name", ["spectre-v1", "spectre-v1-a64"])
class TestRoundTrip:
    """Persist -> load -> replay on both ISA backends."""

    def test_persist_load_replay(self, tmp_path, name):
        corpus = CounterexampleCorpus(str(tmp_path))
        record = gadget_record(name)
        path = corpus.add(record)
        assert path is not None and os.path.exists(path)

        entries = corpus.load()
        assert len(entries) == 1
        loaded = entries[0].record
        assert loaded is not None
        assert loaded.arch == record.arch
        assert loaded.program_text == record.program_text
        assert loaded.expected_digest == record.expected_digest
        assert len(loaded.inputs) == len(record.inputs)

        result = corpus.replay_entry(entries[0])
        assert result.verdict == PASS
        assert result.observed_digest == record.expected_digest
        assert result.inputs == len(record.inputs)

    def test_record_json_is_self_contained(self, tmp_path, name):
        """A record round-trips through plain JSON text — no pickles,
        no references into this process."""
        record = gadget_record(name)
        rehydrated = CorpusRecord.from_json(
            json.loads(json.dumps(record.to_json()))
        )
        assert rehydrated.expected_digest == record.expected_digest
        assert rehydrated.program_text == record.program_text


class TestStorageDiscipline:
    def test_duplicate_digest_dedups(self, tmp_path):
        corpus = CounterexampleCorpus(str(tmp_path))
        record = gadget_record("spectre-v1")
        assert corpus.add(record) is not None
        assert corpus.add(record) is None  # same evidence, same file
        assert len(corpus) == 1

    def test_no_temp_files_survive_publish(self, tmp_path):
        corpus = CounterexampleCorpus(str(tmp_path))
        corpus.add(gadget_record("spectre-v1"))
        leftovers = [
            name for name in os.listdir(tmp_path) if name.startswith(".tmp-")
        ]
        assert leftovers == []

    def test_foreign_schema_version_degrades_to_skip(self, tmp_path):
        corpus = CounterexampleCorpus(str(tmp_path))
        payload = gadget_record("spectre-v1").to_json()
        payload["format"] = FORMAT + 1
        (tmp_path / "future.json").write_text(
            json.dumps(payload), encoding="utf-8"
        )
        entries = corpus.load()
        assert len(entries) == 1
        assert entries[0].record is None
        assert "format" in entries[0].skip_reason
        assert corpus.replay_entry(entries[0]).verdict == SKIP

    def test_torn_file_degrades_to_skip(self, tmp_path):
        corpus = CounterexampleCorpus(str(tmp_path))
        blob = json.dumps(gadget_record("spectre-v1").to_json())
        (tmp_path / "torn.json").write_text(
            blob[: len(blob) // 2], encoding="utf-8"
        )
        entries = corpus.load()
        assert len(entries) == 1
        assert entries[0].record is None
        assert corpus.replay_entry(entries[0]).verdict == SKIP

    def test_missing_keys_degrade_to_skip(self, tmp_path):
        corpus = CounterexampleCorpus(str(tmp_path))
        (tmp_path / "empty.json").write_text(
            json.dumps({"format": FORMAT}), encoding="utf-8"
        )
        report = corpus.replay()
        assert [result.verdict for result in report.results] == [SKIP]
        assert not report.strict_ok()
        assert report.ok  # non-strict: SKIP alone is not a failure

    def test_hidden_and_foreign_files_are_ignored(self, tmp_path):
        corpus = CounterexampleCorpus(str(tmp_path))
        (tmp_path / ".tmp-half-written").write_text("{", encoding="utf-8")
        (tmp_path / "notes.txt").write_text("hi", encoding="utf-8")
        assert corpus.paths() == []


class TestReplayVerdicts:
    def test_changed_on_evidence_drift(self, tmp_path):
        corpus = CounterexampleCorpus(str(tmp_path))
        record = replace(
            gadget_record("spectre-v1"), expected_digest="0" * 40
        )
        corpus.add(record)
        report = corpus.replay()
        assert [result.verdict for result in report.results] == [CHANGED]
        assert not report.ok

    def test_fail_when_detection_is_lost(self, tmp_path):
        """A record whose program no longer violates is a
        detection-power regression, not a crash."""
        corpus = CounterexampleCorpus(str(tmp_path))
        record = replace(gadget_record("spectre-v1"), program_text="NOP")
        corpus.add(record)
        report = corpus.replay()
        assert [result.verdict for result in report.results] == [FAIL]
        assert not report.ok

    def test_unknown_contract_degrades_to_skip(self, tmp_path):
        corpus = CounterexampleCorpus(str(tmp_path))
        record = replace(
            gadget_record("spectre-v1"), contract="CT-FROM-THE-FUTURE"
        )
        corpus.add(record)
        assert [r.verdict for r in corpus.replay().results] == [SKIP]

    def test_arch_filter(self, tmp_path):
        corpus = CounterexampleCorpus(str(tmp_path))
        corpus.add(gadget_record("spectre-v1"))
        corpus.add(gadget_record("spectre-v1-a64"))
        report = corpus.replay(arch="aarch64")
        assert len(report.results) == 1
        assert report.results[0].entry.record.arch == "aarch64"


class TestPersistenceHooks:
    def test_fuzzer_run_persists_its_violation(self, tmp_path):
        """The corpus_dir config knob records the find of a plain
        fuzzing run, and the record replays PASS."""
        config = FuzzerConfig(
            instruction_subsets=("AR", "MEM", "CB"),
            contract_name="CT-SEQ",
            cpu_preset="skylake-v4-patched",
            num_test_cases=120,
            inputs_per_test_case=25,
            seed=7,
            corpus_dir=str(tmp_path),
        )
        report = Fuzzer(config).run()
        assert report.found
        corpus = CounterexampleCorpus(str(tmp_path))
        entries = corpus.load()
        assert len(entries) == 1
        assert entries[0].record.provenance["found_by"] == "fuzz"
        result = corpus.replay_entry(entries[0])
        assert result.verdict == PASS

    def test_postprocessor_minimize_persists(self, tmp_path):
        """Postprocessor.minimize records the *pre-fence* minimized
        counterexample; it replays PASS at its own confirmation level."""
        config, violation = detect("spectre-v1")
        pipeline = TestingPipeline(
            replace(config, corpus_dir=str(tmp_path))
        )
        Postprocessor(pipeline).minimize(
            violation.program, list(violation.input_sequence)
        )
        corpus = CounterexampleCorpus(str(tmp_path))
        entries = corpus.load()
        assert len(entries) == 1
        record = entries[0].record
        assert record.provenance["found_by"] == "minimize"
        assert record.confirmed is False  # shrunk at confirm=False
        assert corpus.replay_entry(entries[0]).verdict == PASS


def take_paths(reference_path, paths):
    """Route onto every reference path in ``paths``; returns the list
    each taken path appends its name to."""
    taken = []
    for name in paths:
        taken = reference_path(name)
    return taken


class TestKnobParity:
    """Replay is engine-independent: the per-input contract loop and
    interpretive IR, alone and together, give the production engine's
    verdicts and digest on freshly recorded gadget counterexamples."""

    @pytest.fixture(scope="class")
    def small_corpus(self, tmp_path_factory):
        corpus = CounterexampleCorpus(
            str(tmp_path_factory.mktemp("knob-corpus"))
        )
        corpus.add(gadget_record("spectre-v1"))
        corpus.add(gadget_record("spectre-v1-a64"))
        return corpus

    @pytest.mark.parametrize(
        "paths",
        [("per-input",), ("interpretive",), ("per-input", "interpretive")],
        ids=["no-battery", "interpretive", "interpretive-no-battery"],
    )
    def test_digest_parity(self, small_corpus, reference_path, paths):
        baseline = small_corpus.replay()
        assert baseline.strict_ok()
        taken = take_paths(reference_path, paths)
        knobbed = small_corpus.replay()
        assert knobbed.strict_ok()
        assert knobbed.report_digest() == baseline.report_digest()
        assert set(taken) == set(paths)


#: the first 12 hex digits of corpus/seed's replay report digest
SEED_CORPUS_DIGEST = "24737b5bd965"


class TestSeedCorpusDeterminismMatrix:
    """The checked-in corpus/seed is the fixed external artifact that
    pins the byte-identical engine contracts: the replay report digest
    is pinned on the production engine and on every combination of the
    reference paths (per-input contract loop, interpretive IR, no IR
    passes)."""

    @pytest.fixture(scope="class")
    def seed_corpus(self):
        corpus = CounterexampleCorpus(SEED_CORPUS)
        assert len(corpus) >= 3, "checked-in corpus/seed is missing"
        return corpus

    def test_seed_corpus_covers_both_isas(self, seed_corpus):
        arches = {
            entry.record.arch
            for entry in seed_corpus.load()
            if entry.record is not None
        }
        assert {"x86_64", "aarch64"} <= arches

    # ids read battery-compiled-passes; [True-True-True] is production
    @pytest.mark.parametrize("passes", [True, False])
    @pytest.mark.parametrize("compiled", [True, False])
    @pytest.mark.parametrize("battery", [True, False])
    def test_digest_is_knob_invariant(
        self, seed_corpus, reference_path, passes, compiled, battery
    ):
        paths = [
            name
            for name, on in (
                ("per-input", battery),
                ("interpretive", compiled),
                ("no-passes", passes),
            )
            if not on
        ]
        taken = take_paths(reference_path, paths)
        report = seed_corpus.replay()
        assert report.strict_ok(), [r.detail for r in report.results]
        assert report.report_digest()[:12] == SEED_CORPUS_DIGEST
        assert set(taken) == set(paths)
