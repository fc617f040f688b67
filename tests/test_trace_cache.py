"""Tests for contract-trace memoization: fingerprints, LRU behavior,
and the pipeline integration (cache hits skip model emulations without
changing any collected trace)."""

import multiprocessing
import os
import pickle
from pathlib import Path

import pytest

from repro import faults
from repro.emulator.errors import EmulationError
from repro.isa.assembler import parse_program
from repro.emulator.state import InputData
from repro.contracts import get_contract
from repro.core.config import FuzzerConfig
from repro.core.fuzzer import TestingPipeline
from repro.core import trace_cache
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
        reader = PersistentTraceCache(str(tmp_path), max_bytes=1 << 30)
        real_open, real_utime = open, os.utime
        opened, touched = [], []
        monkeypatch.setattr(
            trace_cache, "open",
            lambda path, *args: opened.append(path) or real_open(path, *args),
            raising=False,
        )
        monkeypatch.setattr(
            os, "utime",
            lambda path, *args: touched.append(path) or real_utime(path, *args),
        )
        assert reader.peek(KEY) and reader.peek(SAME_RECORD_KEY)
        assert reader.get(KEY) == ("trace", "log")
        assert reader.get(SAME_RECORD_KEY) == ("t3", "l3")
        assert opened == touched == [reader._path(KEY)]
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

    def test_a_rewrite_accounts_the_size_delta(self, tmp_path):
        cache = PersistentTraceCache(str(tmp_path), max_bytes=1 << 30)
        cache.put(KEY, ("trace", "log"))
        cache.put(SAME_RECORD_KEY, ("t3", "l3"))
        assert cache.known_disk_bytes() == cache.disk_usage_bytes()

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


def _write_entries_from_child(cache_dir, max_bytes, start, count):
    """Child-process body: publish many entries under a GC bound."""
    cache = PersistentTraceCache(cache_dir, max_bytes=max_bytes)
    for index in range(start, start + count):
        cache.put(_numbered_key(index), ("payload" * 64, "log"))


class TestDiskGC:
    PAYLOAD = ("payload" * 64, "log")

    def _entry_size(self, tmp_path):
        probe = PersistentTraceCache(str(tmp_path / "probe"))
        probe.put(_numbered_key(0), self.PAYLOAD)
        return probe.disk_usage_bytes()

    def test_invalid_max_bytes(self, tmp_path):
        with pytest.raises(ValueError, match="max_bytes"):
            PersistentTraceCache(str(tmp_path), max_bytes=0)

    def test_unbounded_cache_never_collects(self, tmp_path):
        cache = PersistentTraceCache(str(tmp_path))
        for index in range(32):
            cache.put(_numbered_key(index), self.PAYLOAD)
        assert cache.stats.gc_runs == 0
        assert cache.disk_entries() == 32

    def test_put_enforces_the_bound(self, tmp_path):
        bound = 6 * self._entry_size(tmp_path)
        cache = PersistentTraceCache(str(tmp_path), max_bytes=bound)
        for index in range(50):
            cache.put(_numbered_key(index), self.PAYLOAD)
            assert cache.disk_usage_bytes() <= bound
        assert cache.stats.gc_runs > 0
        assert cache.stats.gc_evicted_entries > 0
        assert cache.stats.gc_evicted_bytes > 0
        assert cache.disk_entries() < 50

    def test_eviction_order_is_lru_by_mtime(self, tmp_path):
        cache = PersistentTraceCache(str(tmp_path))
        now = os.path.getmtime(str(tmp_path))
        for index, age in enumerate((400, 300, 200, 100)):
            key = _numbered_key(index)
            cache.put(key, self.PAYLOAD)
            os.utime(cache._path(key), (now - age, now - age))
        entry_size = cache.disk_usage_bytes() // 4
        # room for two entries (after headroom): the two oldest go
        evicted, freed = cache.gc(max_bytes=3 * entry_size)
        assert evicted == 2
        assert freed == 2 * entry_size
        remaining = {
            index
            for index in range(4)
            if os.path.exists(cache._path(_numbered_key(index)))
        }
        assert remaining == {2, 3}  # the most recently touched survive

    def test_disk_hit_refreshes_recency(self, tmp_path):
        writer = PersistentTraceCache(str(tmp_path), max_bytes=1 << 30)
        now = os.path.getmtime(str(tmp_path))
        for index in range(2):
            key = _numbered_key(index)
            writer.put(key, self.PAYLOAD)
            os.utime(writer._path(key), (now - 500 + index, now - 500 + index))
        # a cold reader hits entry 0 on disk, refreshing its mtime ...
        reader = PersistentTraceCache(str(tmp_path), max_bytes=1 << 30)
        assert reader.get(_numbered_key(0)) == self.PAYLOAD
        # ... so the GC now evicts entry 1 (older use) first: the bound
        # is just under two entries, and the 75% headroom target then
        # asks for one eviction
        entry_size = reader.disk_usage_bytes() // 2
        reader.gc(max_bytes=2 * entry_size - 1)
        assert os.path.exists(reader._path(_numbered_key(0)))
        assert not os.path.exists(reader._path(_numbered_key(1)))

    def test_evicted_entry_degrades_to_miss_and_is_rewritable(self, tmp_path):
        cache = PersistentTraceCache(str(tmp_path), max_bytes=1 << 30)
        cache.put(_numbered_key(0), self.PAYLOAD)
        cache.gc(max_bytes=1)  # evict everything
        cache.clear()  # drop the memory tier too
        assert cache.get(_numbered_key(0)) is None
        cache.put(_numbered_key(0), self.PAYLOAD)
        assert PersistentTraceCache(str(tmp_path)).get(
            _numbered_key(0)
        ) == self.PAYLOAD

    def test_gc_sweeps_stale_tmp_orphans_only(self, tmp_path):
        cache = PersistentTraceCache(str(tmp_path), max_bytes=1 << 30)
        orphan_dir = tmp_path / "ab"
        orphan_dir.mkdir()
        stale = orphan_dir / ".tmp-killed-writer"
        stale.write_bytes(b"partial")
        old = os.path.getmtime(str(stale)) - 2 * cache.TMP_GRACE_SECONDS
        os.utime(str(stale), (old, old))
        fresh = orphan_dir / ".tmp-in-flight"
        fresh.write_bytes(b"partial")
        cache.gc()
        assert not stale.exists()
        assert fresh.exists()  # presumed to belong to a live writer

    def test_concurrent_writers_respect_the_bound(self, tmp_path):
        bound = 8 * self._entry_size(tmp_path)
        cache_dir = str(tmp_path / "shared")
        context = multiprocessing.get_context(
            "fork"
            if "fork" in multiprocessing.get_all_start_methods()
            else "spawn"
        )
        children = [
            context.Process(
                target=_write_entries_from_child,
                args=(cache_dir, bound, start, 40),
            )
            for start in (0, 1000, 2000)
        ]
        for child in children:
            child.start()
        for child in children:
            child.join()
            assert child.exitcode == 0
        # cooperative enforcement plus a finalizing pass (what campaign
        # runs and the sweep runner do) leaves the tier within bounds
        cache = PersistentTraceCache(cache_dir, max_bytes=bound)
        cache.gc()
        assert cache.disk_usage_bytes() <= bound

    def test_make_trace_cache_passes_the_bound(self, tmp_path):
        cache = make_trace_cache(False, str(tmp_path), 16, 4096)
        assert isinstance(cache, PersistentTraceCache)
        assert cache.max_bytes == 4096
        assert make_trace_cache(True, None, 16, 4096).max_entries == 16


class TestCompression:
    """zlib compression of disk entries (``--cache-compress``)."""

    #: redundant payload so compression visibly shrinks the footprint
    PAYLOAD = ("observation " * 256, "log")

    @staticmethod
    def _entry_paths(tmp_path):
        return [
            os.path.join(root, name)
            for root, _dirs, files in os.walk(tmp_path)
            for name in files
            if name.endswith(".trace")
        ]

    def test_compressed_roundtrip(self, tmp_path):
        writer = PersistentTraceCache(str(tmp_path), compress=True)
        writer.put(KEY, self.PAYLOAD)
        [path] = self._entry_paths(tmp_path)
        with open(path, "rb") as handle:
            assert handle.read(5) == PersistentTraceCache.COMPRESSED_MAGIC
        reader = PersistentTraceCache(str(tmp_path), compress=True)
        assert reader.get(KEY) == self.PAYLOAD
        assert reader.stats.disk_hits == 1

    def test_uncompressed_cache_reads_compressed_entries(self, tmp_path):
        PersistentTraceCache(str(tmp_path), compress=True).put(
            KEY, self.PAYLOAD
        )
        legacy_reader = PersistentTraceCache(str(tmp_path))
        assert legacy_reader.get(KEY) == self.PAYLOAD
        assert legacy_reader.stats.disk_hits == 1

    def test_compressed_cache_reads_legacy_entries(self, tmp_path):
        PersistentTraceCache(str(tmp_path)).put(KEY, self.PAYLOAD)
        reader = PersistentTraceCache(str(tmp_path), compress=True)
        assert reader.get(KEY) == self.PAYLOAD
        assert reader.stats.disk_hits == 1

    def test_compression_shrinks_the_footprint(self, tmp_path):
        plain = PersistentTraceCache(str(tmp_path / "plain"))
        packed = PersistentTraceCache(str(tmp_path / "packed"),
                                      compress=True)
        plain.put(KEY, self.PAYLOAD)
        packed.put(KEY, self.PAYLOAD)
        assert packed.disk_usage_bytes() < plain.disk_usage_bytes() / 2

    def test_gc_accounts_compressed_sizes(self, tmp_path):
        # a bound that holds few uncompressed entries holds many
        # compressed ones: the GC accounting must see compressed sizes
        probe = PersistentTraceCache(str(tmp_path / "probe"),
                                     compress=True)
        probe.put(_numbered_key(0), self.PAYLOAD)
        compressed_size = probe.disk_usage_bytes()
        bound = compressed_size * 6
        cache = PersistentTraceCache(str(tmp_path / "bounded"),
                                     max_bytes=bound, compress=True)
        for index in range(5):
            cache.put(_numbered_key(index), self.PAYLOAD)
        assert cache.stats.gc_evicted_entries == 0
        assert cache.disk_entries() == 5
        assert cache.known_disk_bytes() <= bound

    def test_corrupt_compressed_entry_degrades_to_miss(self, tmp_path):
        cache = PersistentTraceCache(str(tmp_path), compress=True)
        cache.put(KEY, self.PAYLOAD)
        [path] = self._entry_paths(tmp_path)
        with open(path, "wb") as handle:
            handle.write(PersistentTraceCache.COMPRESSED_MAGIC + b"torn")
        fresh = PersistentTraceCache(str(tmp_path), compress=True)
        assert fresh.get(KEY) is None  # miss, and best-effort deletion
        assert not self._entry_paths(tmp_path)


class TestMakeTraceCache:
    def test_disabled(self):
        assert make_trace_cache(False, None, 16) is None

    def test_memory_only(self):
        cache = make_trace_cache(True, None, 16)
        assert type(cache) is ContractTraceCache
        assert cache.max_entries == 16

    def test_cache_dir_implies_persistent(self, tmp_path):
        cache = make_trace_cache(False, str(tmp_path), 16)
        assert isinstance(cache, PersistentTraceCache)
        assert cache.cache_dir == str(tmp_path)

    def test_compress_knob_reaches_the_persistent_tier(self, tmp_path):
        cache = make_trace_cache(False, str(tmp_path), 16, None, True)
        assert isinstance(cache, PersistentTraceCache)
        assert cache.compress is True
        assert make_trace_cache(False, str(tmp_path), 16).compress is False


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
