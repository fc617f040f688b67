"""Tests for contract-trace memoization: fingerprints, LRU behavior,
and the pipeline integration (cache hits skip model emulations without
changing any collected trace)."""

import multiprocessing
import os
import pickle
import zlib
from pathlib import Path

import pytest

from repro import faults, storage
from repro.emulator.errors import EmulationError
from repro.isa.assembler import parse_program
from repro.emulator.state import InputData
from repro.contracts import get_contract
from repro.core.config import FuzzerConfig
from repro.core.fuzzer import TestingPipeline
from repro.core.input_gen import InputGenerator
from repro.core.trace_cache import (
    ContractTraceCache,
    PersistentTraceCache,
    input_identity,
    key_digest,
    make_trace_cache,
    program_fingerprint,
)

V1 = """
    JNS .end
    AND RBX, 0b111111000000
    MOV RCX, qword ptr [R14 + RBX]
.end: NOP
"""


def cached_config(**overrides):
    defaults = dict(
        contract_name="CT-SEQ",
        cpu_preset="skylake-v4-patched",
        contract_trace_cache=True,
        seed=0,
    )
    defaults.update(overrides)
    return FuzzerConfig(**defaults)


class TestFingerprints:
    def test_clone_shares_fingerprint(self):
        program = parse_program(V1)
        assert program_fingerprint(program) == program_fingerprint(
            program.clone()
        )

    def test_mutation_changes_fingerprint(self):
        program = parse_program(V1)
        mutated = program.clone()
        del mutated.blocks[1].body[0]
        assert program_fingerprint(program) != program_fingerprint(mutated)

    def test_input_identity_covers_content(self):
        # same (missing) seed, different content: identities must differ
        a = InputData(registers={"RAX": 0})
        b = InputData(registers={"RAX": 64})
        assert input_identity(a) != input_identity(b)
        assert input_identity(a) == input_identity(
            InputData(registers={"RAX": 0})
        )


class TestLRU:
    def test_roundtrip_and_stats(self):
        cache = ContractTraceCache(max_entries=8)
        assert cache.get(("k", None, 0, ("CT-SEQ", 250, 1))) is None
        cache.put(("k", None, 0, ("CT-SEQ", 250, 1)), ("trace", "log"))
        assert cache.get(("k", None, 0, ("CT-SEQ", 250, 1))) == (
            "trace",
            "log",
        )
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.hit_rate == pytest.approx(0.5)
        assert len(cache) == 1

    def test_least_recently_used_evicted_first(self):
        cache = ContractTraceCache(max_entries=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh "a"; "b" is now the LRU
        cache.put("c", 3)
        assert "b" not in cache
        assert "a" in cache and "c" in cache
        assert cache.stats.evictions == 1

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            ContractTraceCache(max_entries=0)

    def test_clear(self):
        cache = ContractTraceCache()
        cache.put("a", 1)
        cache.clear()
        assert len(cache) == 0

    def test_nesting_depth_separates_keys(self):
        """The §5.4 revalidation runs the same-named contract with deeper
        nesting; its traces must never collide with the base model's."""
        cache = ContractTraceCache()
        contract = get_contract("CT-COND")
        fingerprint = program_fingerprint(parse_program(V1))
        input_data = InputData()
        assert cache.key(fingerprint, input_data, contract) != cache.key(
            fingerprint, input_data, contract.with_nesting(3)
        )


KEY = ("fp", None, "digest", ("CT-SEQ", 250, 1))
OTHER_KEY = ("fp2", 7, "digest2", ("CT-COND", 250, 3))


def _populate_from_child(cache_dir):
    """Child-process body: publish one entry into the shared cache."""
    PersistentTraceCache(cache_dir).put(KEY, ("trace", "log"))


class TestPersistentCache:
    def test_roundtrip_through_disk(self, tmp_path):
        writer = PersistentTraceCache(str(tmp_path))
        writer.put(KEY, ("trace", "log"))
        assert writer.stats.disk_writes == 1
        # a fresh instance (cold memory tier) resolves from disk ...
        reader = PersistentTraceCache(str(tmp_path))
        assert reader.get(KEY) == ("trace", "log")
        assert reader.stats.disk_hits == 1
        # ... and promotes the entry, so the next hit is memory-tier
        assert reader.get(KEY) == ("trace", "log")
        assert reader.stats.hits == 2
        assert reader.stats.disk_hits == 1

    def test_miss_on_unknown_key(self, tmp_path):
        cache = PersistentTraceCache(str(tmp_path))
        assert cache.get(OTHER_KEY) is None
        assert cache.stats.misses == 1

    def test_disk_entries_and_clear_semantics(self, tmp_path):
        cache = PersistentTraceCache(str(tmp_path))
        cache.put(KEY, ("trace", "log"))
        cache.put(OTHER_KEY, ("trace2", "log2"))
        assert cache.disk_entries() == 2
        cache.clear()  # memory only; the disk tier persists
        assert len(cache) == 0
        assert cache.disk_entries() == 2
        assert cache.get(KEY) == ("trace", "log")
        cache.clear_disk()
        assert cache.disk_entries() == 0

    def test_clear_disk_sweeps_orphaned_temp_files(self, tmp_path):
        # a writer killed between mkstemp and os.replace leaves a
        # .tmp-* file behind; clear_disk must sweep those too
        cache = PersistentTraceCache(str(tmp_path))
        orphan_dir = tmp_path / "ab"
        orphan_dir.mkdir()
        orphan = orphan_dir / ".tmp-killed-writer"
        orphan.write_bytes(b"partial")
        cache.clear_disk()
        assert not orphan.exists()

    def test_unpicklable_entry_degrades_to_memory_only(self, tmp_path):
        cache = PersistentTraceCache(str(tmp_path))
        unpicklable = (lambda: None, "log")
        cache.put(KEY, unpicklable)  # must not raise mid-fuzz
        assert cache.get(KEY) == unpicklable  # memory tier still serves
        assert cache.disk_entries() == 0
        assert not any(  # and no temp file leaked
            name.startswith(".tmp-")
            for _root, _dirs, files in os.walk(tmp_path)
            for name in files
        )

    def test_corrupt_entry_degrades_to_miss(self, tmp_path):
        cache = PersistentTraceCache(str(tmp_path))
        cache.put(KEY, ("trace", "log"))
        path = Path(cache._path(KEY))
        path.write_bytes(b"torn write")
        cache.clear()
        assert cache.get(KEY) is None
        assert not path.exists()  # the torn file was discarded
        # and the slot is writable again
        cache.put(KEY, ("trace", "log"))
        assert PersistentTraceCache(str(tmp_path)).get(KEY) == (
            "trace", "log"
        )

    def test_digest_collision_degrades_to_miss(self, tmp_path):
        # simulate two keys hashing to one file: the stored key wins,
        # the other key misses instead of reading a wrong trace
        cache = PersistentTraceCache(str(tmp_path))
        cache.put(KEY, ("trace", "log"))
        source = cache._path(KEY)
        target = cache._path(OTHER_KEY)
        os.makedirs(os.path.dirname(target), exist_ok=True)
        os.replace(source, target)
        cache.clear()
        assert cache.get(OTHER_KEY) is None

    def test_existing_entry_not_rewritten(self, tmp_path):
        first = PersistentTraceCache(str(tmp_path))
        first.put(KEY, ("trace", "log"))
        second = PersistentTraceCache(str(tmp_path))
        second.put(KEY, ("trace", "log"))
        assert second.stats.disk_writes == 0

    def test_entry_written_by_another_process_is_visible(self, tmp_path):
        context = multiprocessing.get_context(
            "fork"
            if "fork" in multiprocessing.get_all_start_methods()
            else "spawn"
        )
        child = context.Process(
            target=_populate_from_child, args=(str(tmp_path),)
        )
        child.start()
        child.join()
        assert child.exitcode == 0
        cache = PersistentTraceCache(str(tmp_path))
        assert cache.get(KEY) == ("trace", "log")
        assert cache.stats.disk_hits == 1

    def test_memory_tier_still_bounded(self, tmp_path):
        cache = PersistentTraceCache(str(tmp_path), max_entries=2)
        for index in range(4):
            cache.put((f"fp{index}", None, "d", ("CT-SEQ", 250, 1)), index)
        assert len(cache) == 2
        assert cache.stats.evictions == 2
        assert cache.disk_entries() == 4  # disk keeps everything


#: KEY's input (seed 3, its own content) under KEY's program and contract
SAME_RECORD_KEY = ("fp", 3, "digest3", ("CT-SEQ", 250, 1))


def _trace_files(directory):
    return [
        os.path.join(root, name)
        for root, _dirs, files in os.walk(directory)
        for name in files
        if name.endswith(".trace")
    ]


def _counting_replace(monkeypatch):
    """Count ``os.replace`` calls: one per published file."""
    calls = []
    real_replace = os.replace

    def replace(source, target):
        calls.append(target)
        return real_replace(source, target)

    monkeypatch.setattr(os, "replace", replace)
    return calls


class TestRecordLayout:
    """One record file per (program fingerprint, contract key)."""

    def test_inputs_of_one_program_and_contract_share_a_file(self, tmp_path):
        writer = PersistentTraceCache(str(tmp_path))
        writer.put(KEY, ("trace", "log"))
        writer.put(SAME_RECORD_KEY, ("trace3", "log3"))
        assert writer._path(KEY) == writer._path(SAME_RECORD_KEY)
        assert len(_trace_files(tmp_path)) == 1
        assert writer.stats.disk_writes == 2
        reader = PersistentTraceCache(str(tmp_path))
        assert reader.get(KEY) == ("trace", "log")
        assert reader.get(SAME_RECORD_KEY) == ("trace3", "log3")
        assert reader.stats.disk_hits == 2

    def test_republishing_present_entries_writes_nothing(
        self, tmp_path, monkeypatch
    ):
        items = [(KEY, ("trace", "log")), (SAME_RECORD_KEY, ("t3", "l3"))]
        PersistentTraceCache(str(tmp_path)).publish(items)
        replaced = _counting_replace(monkeypatch)
        again = PersistentTraceCache(str(tmp_path))
        again.publish(items)
        assert replaced == []
        assert again.stats.disk_writes == 0

    def test_a_record_file_is_read_once(self, tmp_path, monkeypatch):
        PersistentTraceCache(str(tmp_path)).publish(
            [(KEY, ("trace", "log")), (SAME_RECORD_KEY, ("t3", "l3"))]
        )
        reader = PersistentTraceCache(str(tmp_path))
        real_open = open
        opened = []
        monkeypatch.setattr(
            storage, "open",
            lambda path, *args: opened.append(path) or real_open(path, *args),
            raising=False,
        )
        assert reader.peek(KEY) and reader.peek(SAME_RECORD_KEY)
        assert reader.get(KEY) == ("trace", "log")
        assert reader.get(SAME_RECORD_KEY) == ("t3", "l3")
        assert opened == [reader._path(KEY)]
        reader.clear()  # drops the record memo with the memory tier
        assert reader.get(KEY) == ("trace", "log")
        assert len(opened) == 2

    def test_a_missing_record_is_not_memoized(self, tmp_path):
        reader = PersistentTraceCache(str(tmp_path))
        assert not reader.peek(KEY)
        PersistentTraceCache(str(tmp_path)).put(KEY, ("trace", "log"))
        assert reader.get(KEY) == ("trace", "log")
        assert reader.stats.disk_hits == 1

    def test_publish_merges_with_the_file_not_the_memo(self, tmp_path):
        first = PersistentTraceCache(str(tmp_path))
        second = PersistentTraceCache(str(tmp_path))
        first.put(KEY, ("trace", "log"))
        assert second.get(KEY) == ("trace", "log")  # memoizes the record
        first.put(SAME_RECORD_KEY, ("t3", "l3"))
        other_input = ("fp", 4, "digest4", ("CT-SEQ", 250, 1))
        second.put(other_input, ("t4", "l4"))
        reader = PersistentTraceCache(str(tmp_path))
        assert reader.get(KEY) == ("trace", "log")
        assert reader.get(SAME_RECORD_KEY) == ("t3", "l3")
        assert reader.get(other_input) == ("t4", "l4")

    @pytest.mark.parametrize("battery", [True, False])
    def test_one_publish_per_collection(
        self, tmp_path, monkeypatch, battery
    ):
        pipeline = TestingPipeline(
            cached_config(trace_cache_dir=str(tmp_path))
        )
        if not battery:  # the per-input loop: the battery declines
            monkeypatch.setattr(
                pipeline, "_collect_battery", lambda *args: None
            )
        program = parse_program(V1)
        inputs = InputGenerator(seed=3, layout=pipeline.layout).generate(8)
        replaced = _counting_replace(monkeypatch)
        pipeline.collect_contract_traces(program, inputs)
        assert len(replaced) == 1
        assert pipeline.trace_cache.stats.disk_writes == 8
        assert len(_trace_files(tmp_path)) == 1

    def test_emulation_error_still_publishes_earlier_entries(
        self, tmp_path, monkeypatch
    ):
        pipeline = TestingPipeline(
            cached_config(trace_cache_dir=str(tmp_path))
        )
        monkeypatch.setattr(pipeline, "_collect_battery", lambda *args: None)
        program = parse_program(V1)
        inputs = InputGenerator(seed=3, layout=pipeline.layout).generate(4)
        contract_class = type(pipeline.contract)
        real_collect = contract_class.collect_trace_and_log
        calls = []

        def collect_until_the_third(contract, *args, **kwargs):
            calls.append(None)
            if len(calls) == 3:
                raise EmulationError("injected")
            return real_collect(contract, *args, **kwargs)

        # contracts are frozen dataclasses: patch the class
        monkeypatch.setattr(
            contract_class, "collect_trace_and_log", collect_until_the_third
        )
        with pytest.raises(EmulationError):
            pipeline.collect_contract_traces(program, inputs)
        assert pipeline.trace_cache.stats.disk_writes == 2
        reader = PersistentTraceCache(str(tmp_path))
        fingerprint = program_fingerprint(program, pipeline.arch.name)
        keys = [
            reader.key(fingerprint, input_data, pipeline.contract)
            for input_data in inputs
        ]
        assert [reader.get(key) is not None for key in keys] == [
            True, True, False, False
        ]

    def test_format_1_files_are_never_read_and_clear_disk_removes_them(
        self, tmp_path
    ):
        # the one-entry-per-file layout of format 1, named by the digest
        # of the full cache key
        digest = key_digest(KEY)
        legacy = tmp_path / digest[:2] / (digest + ".trace")
        legacy.parent.mkdir()
        legacy.write_bytes(pickle.dumps((1, KEY, ("trace", "log"))))
        cache = PersistentTraceCache(str(tmp_path))
        assert cache.get(KEY) is None
        assert not cache.peek(KEY)
        assert legacy.exists()  # never read, so never discarded either
        assert cache.disk_entries() == 1
        cache.clear_disk()
        assert not legacy.exists()

    def test_torn_records_are_re_emulated_and_republished(self, tmp_path):
        program = parse_program(V1)
        config = cached_config(trace_cache_dir=str(tmp_path))
        with faults.injected(faults.FaultPlan.parse("trace_cache.torn=1")):
            first = TestingPipeline(config)
            inputs = InputGenerator(seed=3, layout=first.layout).generate(8)
            reference = first.collect_contract_traces(program, inputs)
            fresh = TestingPipeline(config)
            replayed = fresh.collect_contract_traces(program, inputs)
        stats = fresh.trace_cache.stats
        assert (stats.misses, stats.hits, stats.disk_hits) == (8, 0, 0)
        assert fresh.contract_emulations == 8
        assert stats.disk_writes == 8
        assert len(_trace_files(tmp_path)) == 1
        assert replayed[0] == reference[0]
        assert [log.entries for log in replayed[1]] == [
            log.entries for log in reference[1]
        ]


def _numbered_key(index):
    return (f"fp{index}", None, "digest", ("CT-SEQ", 250, 1))


class TestDiskGC:
    """The disk tier has no garbage collector: it is append-only, and
    only ``clear_disk()`` deletes records."""

    PAYLOAD = ("payload" * 64, "log")

    def test_unbounded_cache_never_collects(self, tmp_path):
        cache = PersistentTraceCache(str(tmp_path))
        for index in range(32):
            cache.put(_numbered_key(index), self.PAYLOAD)
        assert cache.disk_entries() == 32
        reader = PersistentTraceCache(str(tmp_path))
        for index in range(32):
            assert reader.get(_numbered_key(index)) == self.PAYLOAD
        assert reader.stats.disk_hits == 32

    def test_evicted_entry_degrades_to_miss_and_is_rewritable(self, tmp_path):
        cache = PersistentTraceCache(str(tmp_path))
        reader = PersistentTraceCache(str(tmp_path))
        cache.put(_numbered_key(0), self.PAYLOAD)
        cache.clear_disk()  # delete every record
        cache.clear()  # drop the memory tier too
        assert cache.get(_numbered_key(0)) is None
        assert reader.get(_numbered_key(0)) is None
        cache.put(_numbered_key(0), self.PAYLOAD)
        assert PersistentTraceCache(str(tmp_path)).get(
            _numbered_key(0)
        ) == self.PAYLOAD


class TestCompression:
    """Records that older releases zlib-compressed."""

    def test_corrupt_compressed_entry_degrades_to_miss(self, tmp_path):
        # the layout of the retired compression knob: a magic prefix,
        # then the zlib-compressed pickle. Such a record is a miss, is
        # discarded and re-emulated: never an error, never a stale trace
        program = parse_program(V1)
        config = cached_config(trace_cache_dir=str(tmp_path))
        first = TestingPipeline(config)
        inputs = InputGenerator(seed=3, layout=first.layout).generate(8)
        reference = first.collect_contract_traces(program, inputs)
        [path] = _trace_files(tmp_path)
        record = Path(path)
        record.write_bytes(b"RZTC\x01" + zlib.compress(record.read_bytes()))
        fresh = TestingPipeline(config)
        replayed = fresh.collect_contract_traces(program, inputs)
        stats = fresh.trace_cache.stats
        assert (stats.misses, stats.hits, stats.disk_hits) == (8, 0, 0)
        assert fresh.contract_emulations == 8
        assert replayed[0] == reference[0]
        assert [log.entries for log in replayed[1]] == [
            log.entries for log in reference[1]
        ]
        # republished in the plain layout, which the next run reads
        assert stats.disk_writes == 8
        assert _trace_files(tmp_path) == [path]
        again = TestingPipeline(config)
        assert again.collect_contract_traces(program, inputs)[0] == (
            reference[0]
        )
        assert again.trace_cache.stats.disk_hits == 8


class TestMakeTraceCache:
    def test_disabled(self):
        assert make_trace_cache(False, None) is None

    def test_memory_only(self):
        cache = make_trace_cache(True, None)
        assert type(cache) is ContractTraceCache
        assert cache.max_entries == 65536

    def test_cache_dir_implies_persistent(self, tmp_path):
        cache = make_trace_cache(False, str(tmp_path))
        assert isinstance(cache, PersistentTraceCache)
        assert cache.cache_dir == str(tmp_path)
        assert cache.max_entries == 65536


class TestPipelineIntegration:
    def test_repeat_collection_is_served_from_cache(self):
        pipeline = TestingPipeline(cached_config())
        program = parse_program(V1)
        inputs = InputGenerator(seed=3, layout=pipeline.layout).generate(8)
        first_traces, first_logs = pipeline.collect_contract_traces(
            program, inputs
        )
        assert pipeline.contract_emulations == 8
        second_traces, second_logs = pipeline.collect_contract_traces(
            program, inputs
        )
        assert pipeline.contract_emulations == 8  # no new emulations
        assert pipeline.trace_cache.stats.hits == 8
        assert second_traces == first_traces
        assert [len(log) for log in second_logs] == [
            len(log) for log in first_logs
        ]

    def test_cache_does_not_change_traces(self):
        program = parse_program(V1)
        cached = TestingPipeline(cached_config())
        plain = TestingPipeline(cached_config(contract_trace_cache=False))
        assert plain.trace_cache is None
        inputs = InputGenerator(seed=5, layout=cached.layout).generate(12)
        assert cached.collect_contract_traces(program, inputs)[0] == (
            plain.collect_contract_traces(program, inputs)[0]
        )

    def test_persistent_cache_shared_between_pipelines(self, tmp_path):
        program = parse_program(V1)
        first = TestingPipeline(
            cached_config(contract_trace_cache=False,
                          trace_cache_dir=str(tmp_path))
        )
        inputs = InputGenerator(seed=3, layout=first.layout).generate(8)
        reference, _ = first.collect_contract_traces(program, inputs)
        assert first.contract_emulations == 8
        # a second pipeline (fresh memory tier) re-collects without a
        # single model emulation, with identical traces
        second = TestingPipeline(
            cached_config(contract_trace_cache=False,
                          trace_cache_dir=str(tmp_path))
        )
        replayed, _ = second.collect_contract_traces(program, inputs)
        assert second.contract_emulations == 0
        assert second.trace_cache.stats.disk_hits == 8
        assert replayed == reference

    def test_check_violation_identical_with_cache(self):
        program = parse_program(V1)
        cached = TestingPipeline(cached_config())
        plain = TestingPipeline(cached_config(contract_trace_cache=False))
        inputs = InputGenerator(seed=42, layout=cached.layout).generate(40)
        from_cache = cached.check_violation(program, inputs, confirm=True)
        from_plain = plain.check_violation(program, inputs, confirm=True)
        assert from_cache is not None and from_plain is not None
        assert (from_cache.position_a, from_cache.position_b) == (
            from_plain.position_a,
            from_plain.position_b,
        )
        # re-checking the same case is fully served from the cache ...
        emulations_after_first = cached.contract_emulations
        repeat = cached.check_violation(program, inputs, confirm=True)
        assert cached.contract_emulations == emulations_after_first
        # ... with the identical verdict
        assert (repeat.position_a, repeat.position_b) == (
            from_cache.position_a,
            from_cache.position_b,
        )
