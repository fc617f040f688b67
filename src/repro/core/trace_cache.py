"""Cross-call memoization of contract traces.

Contract emulation is deterministic: ``Contract(Prog, Data) -> CTrace``
is a pure function of the program text, the input assignment and the
contract parameters, so its results can be memoized safely.
:class:`ContractTraceCache` is a bounded in-memory LRU map from
``(program fingerprint, input identity, contract key)`` to the
``(CTrace, ExecutionLog)`` pair produced by
:meth:`Contract.collect_trace_and_log`; :class:`PersistentTraceCache`
adds an on-disk tier shared by every process pointed at the same
directory (campaign shard workers, neighboring sweep cells, repeated
runs). The full key/eviction/persistence contract is documented in
``docs/campaigns-and-sweeps.md``; the short version:

- keys include the nesting depth (:attr:`Contract.cache_key`), so the
  §5.4 revalidation never collides with the base model, and program
  fingerprints are namespaced by architecture;
- the memory tier evicts least-recently-used entries at ``max_entries``
  (65536: comfortably a postprocessor run, one program family x a few
  hundred inputs);
- callers look entries up with ``get``/``peek``, :meth:`~ContractTraceCache
  .remember` each emulated miss, and hand a collection's emulated
  entries to one :meth:`~ContractTraceCache.publish` at its end
  (``put`` is ``remember`` plus a one-entry ``publish``);
- the disk tier stores one record per ``(program fingerprint, contract
  key)``: every input's entry of one program under one contract, so a
  collection reads one file and publishes one file;
- the disk tier is crash-safe: records are published through
  :class:`repro.storage.RecordStore`, so concurrent shard writers can
  never expose a torn record;
- the disk tier is append-only: only
  :meth:`~PersistentTraceCache.clear_disk` deletes records.

Knobs (also exposed on :class:`repro.core.config.FuzzerConfig` and the
CLI as ``--cache`` / ``--cache-dir``): ``contract_trace_cache`` turns
the memory tier on, and ``trace_cache_dir`` selects the persistent
backend.
"""

from __future__ import annotations

import hashlib
import logging
import os
import pickle
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Tuple

from repro import faults
from repro.faults import RetryPolicy
from repro.isa.instruction import TestCaseProgram
from repro.emulator.compiled import program_digest
from repro.emulator.state import InputData
from repro.contracts.contract import Contract
from repro.storage import RecordStore
from repro.traces import CTrace, ExecutionLog

#: (program fingerprint, input seed, input content hash, contract key)
CacheKey = Tuple[str, Optional[int], str, Tuple[str, int, int]]

TraceEntry = Tuple[CTrace, ExecutionLog]

#: (program fingerprint, contract key): the disk tier's unit of storage
RecordKey = Tuple[str, Tuple[str, int, int]]

#: one record's entries, keyed by input identity ``(seed, content hash)``
Record = Dict[Tuple[Optional[int], str], TraceEntry]

logger = logging.getLogger(__name__)


def program_fingerprint(program: TestCaseProgram, arch_name: str = "") -> str:
    """A stable content fingerprint of a test case.

    Two programs with the same block structure and instruction text have
    identical semantics under every contract *within one architecture*,
    so block names plus instruction text are the right identity for
    memoization (clones share it; any mutation — removed instruction,
    inserted fence — changes it). ``arch_name`` namespaces the
    fingerprint so same-text programs of different backends (e.g. a
    NOP-only program) can never collide.

    The same identity also keys the process-global compiled-IR cache,
    so this delegates to :func:`repro.emulator.compiled.program_digest`
    — one definition, one hash per program per call site.
    """
    return program_digest(program, arch_name)


def input_identity(input_data: InputData) -> Tuple[Optional[int], str]:
    """Identity of one input: its PRNG seed plus a content digest.

    The seed alone is not sufficient — handwritten inputs share
    ``seed=None`` and generator seeds only determine the content for one
    (layout, register pool, entropy) combination — so the content digest
    always participates. A cryptographic digest (like the program side)
    rather than Python's salted 64-bit ``hash()``: a silent collision
    here would hand the analyzer a wrong trace, and sha1 is also stable
    across processes.
    """
    hasher = hashlib.sha1()
    for name, value in sorted(input_data.registers.items()):
        hasher.update(f"{name}={value:#x};".encode("utf-8"))
    hasher.update(b"|")
    for flag, value in sorted(input_data.flags.items()):
        hasher.update(f"{flag}={int(value)};".encode("utf-8"))
    hasher.update(b"|")
    hasher.update(input_data.memory)
    return (input_data.seed, hasher.hexdigest())


@dataclass
class CacheStats:
    """Hit/miss accounting; every hit is one skipped contract emulation."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    #: subset of ``hits`` served from the on-disk tier — i.e. results
    #: computed by another process (or an earlier run) of the same cache
    #: directory. Always 0 for the purely in-memory cache.
    disk_hits: int = 0
    #: entries published to the on-disk tier by this process (a record
    #: rewrite counts the entries it added)
    disk_writes: int = 0
    #: publications that failed with an ``OSError`` (ENOSPC, EACCES,
    #: ... after retries, or a record that could not be re-read for
    #: the merge) — each one is a skipped memoization, never a
    #: fuzzing-loop error
    disk_write_errors: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def __str__(self) -> str:
        disk = (
            f", {self.disk_hits} from disk" if self.disk_hits else ""
        )
        return (
            f"{self.hits} hits / {self.lookups} lookups "
            f"({self.hit_rate:.0%}){disk}, {self.evictions} evictions"
        )


class ContractTraceCache:
    """A bounded LRU cache of contract-trace collection results."""

    def __init__(self, max_entries: int = 65536):
        if max_entries <= 0:
            raise ValueError("max_entries must be positive")
        self.max_entries = max_entries
        self.stats = CacheStats()
        self._entries: "OrderedDict[CacheKey, TraceEntry]" = OrderedDict()

    def key(
        self,
        program_fp: str,
        input_data: InputData,
        contract: Contract,
    ) -> CacheKey:
        """Build the cache key for one (program, input, contract) triple."""
        seed, content = input_identity(input_data)
        return (program_fp, seed, content, contract.cache_key)

    def get(self, key: CacheKey) -> Optional[TraceEntry]:
        entry = self._entries.get(key)
        if entry is None:
            self.stats.misses += 1
            return None
        self._entries.move_to_end(key)
        self.stats.hits += 1
        return entry

    def peek(self, key: CacheKey) -> bool:
        """Is the key present? No stats, no LRU movement.

        The battery-batched collection pre-screens its inputs with this
        so only the cache-missing lanes are emulated, then replays the
        per-input ``get``/``remember`` protocol — which must see the
        exact hit/miss sequence the per-input loop would have, so the
        peek itself cannot touch the counters or the recency order.
        """
        return key in self._entries

    def put(self, key: CacheKey, entry: TraceEntry) -> None:
        self.remember(key, entry)
        self.publish([(key, entry)])

    def remember(self, key: CacheKey, entry: TraceEntry) -> None:
        """Insert into the in-memory LRU tier only."""
        self._entries[key] = entry
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.stats.evictions += 1

    def publish(self, items: Iterable[Tuple[CacheKey, TraceEntry]]) -> None:
        """Persist one collection's emulated entries; a no-op here, the
        memory tier already holds them (:meth:`remember`)."""

    def clear(self) -> None:
        self._entries.clear()

    def __contains__(self, key: CacheKey) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)


def key_digest(key: tuple) -> str:
    """Stable hex digest of a key tuple, usable as a file name.

    ``repr`` of the tuple is deterministic across processes (the
    components are strings, ints and tuples thereof — no salted
    ``hash()`` participates), so sibling shard processes derive the same
    file name for the same record key.
    """
    return hashlib.sha1(repr(key).encode("utf-8")).hexdigest()


class PersistentTraceCache(ContractTraceCache):
    """A two-tier trace cache: in-memory LRU over an on-disk store.

    The disk tier lives in ``cache_dir`` and is shared by *every*
    process pointed at the same directory — campaign shard workers,
    neighboring sweep cells with the same ``(arch, contract)`` pair, and
    later runs. It stores one *record* per ``(program fingerprint,
    contract key)``: a pickled dict from input identity to
    ``(CTrace, ExecutionLog)``, in a file named by the digest of that
    pair (:meth:`_path`) and fanned out over 256 subdirectories by
    digest prefix. A collection of one program's inputs therefore reads
    one file and writes one file.

    After a memory-tier miss, ``get`` and ``peek`` look the input up in
    its record. A record file is read once and then kept in a memo of
    the last :attr:`RECORD_MEMO` records read or written; a missing
    record is never memoized, so a sibling's later publication stays
    visible. :meth:`publish` groups a collection's emulated entries by
    record, re-reads the record file (not the memo) and, if the record
    gains entries, publishes the merged record atomically, so a reader
    sees a complete record or none. Two writers that merge the same
    record at once each publish a complete record and the last one
    wins, dropping the other's new entries: that costs a later
    re-emulation, never a wrong or torn trace.

    The disk tier is append-only (no cross-process eviction protocol;
    :meth:`clear` drops the memory tier and the record memo,
    :meth:`clear_disk` deletes the stored records). Torn files are
    treated as misses and deleted best-effort; a record of another
    :attr:`FORMAT` or another record key (a digest collision) reads as
    empty.
    """

    #: format version of stored records; bump on layout changes. Format
    #: 1 stored one entry per file under a digest of the full cache key:
    #: such files are never looked up, but :meth:`clear_disk` still
    #: removes them. Records that older releases zlib-compressed (behind
    #: a ``b"RZTC\\x01"`` prefix) do not unpickle, so they read as torn
    FORMAT = 2
    #: records kept decoded after a read or write, so the lookups of one
    #: collection (and of its nesting revalidation) read each file once
    RECORD_MEMO = 8
    #: consecutive publication failures after which the disk tier stops
    #: attempting writes for the rest of the process (a full or
    #: read-only disk is not going to heal mid-campaign; reads and the
    #: memory tier keep working)
    DEGRADE_AFTER = 8
    #: transient-error retry for publications: two quick tries, then
    #: the failure is counted and the record simply not persisted
    WRITE_RETRY = RetryPolicy(attempts=2, base_delay=0.01, max_delay=0.05)

    def __init__(
        self,
        cache_dir: str,
        max_entries: int = 65536,
        write_retry: Optional[RetryPolicy] = None,
    ):
        super().__init__(max_entries)
        self.cache_dir = os.fspath(cache_dir)
        self.write_retry = (
            write_retry if write_retry is not None else self.WRITE_RETRY
        )
        self._consecutive_write_failures = 0
        self._records: "OrderedDict[RecordKey, Record]" = OrderedDict()
        os.makedirs(self.cache_dir, exist_ok=True)
        self._store = RecordStore(self.cache_dir, ".trace", fanout=True)

    @property
    def disk_degraded(self) -> bool:
        """True once :attr:`DEGRADE_AFTER` consecutive publications
        failed and the tier gave up writing for this process."""
        return self._consecutive_write_failures >= self.DEGRADE_AFTER

    def _path(self, key: CacheKey) -> str:
        """Path of the record file that holds ``key``'s entry."""
        return self._store.path(self._record_name((key[0], key[3])))

    @staticmethod
    def _record_name(record_key: RecordKey) -> str:
        digest = key_digest(record_key)
        return os.path.join(digest[:2], digest + ".trace")

    def get(self, key: CacheKey) -> Optional[TraceEntry]:
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return entry
        entry = self._disk_get(key)
        if entry is not None:
            self.stats.hits += 1
            self.stats.disk_hits += 1
            self.remember(key, entry)
            return entry
        self.stats.misses += 1
        return None

    def peek(self, key: CacheKey) -> bool:
        """Key present in either tier? No stats, no LRU movement.

        A disk lookup reads the key's record like ``get`` does (once,
        then from the memo). A peeked entry can still be gone by the
        follow-up ``get`` (evicted from the memory tier, or its record
        from the memo and then from disk), so callers treat a
        peek-hit/get-miss pair as an ordinary miss (the battery replay
        falls back to one per-input emulation).
        """
        return key in self._entries or self._disk_get(key) is not None

    def clear(self) -> None:
        """Drop the memory tier and the record memo; the disk tier
        persists."""
        super().clear()
        self._records.clear()

    def _disk_get(self, key: CacheKey) -> Optional[TraceEntry]:
        """``key``'s entry in its record: from the memo, else from one
        read of the record file."""
        record_key = (key[0], key[3])
        record = self._records.get(record_key)
        if record is None:
            try:
                record = self._read_record(record_key)
            except OSError:
                # unreadable: a miss. Never discard here — a transient
                # EIO must not delete an intact record
                return None
            if record is None:
                return None  # missing records are never memoized
            self._memoize(record_key, record)
        return record.get((key[1], key[2]))

    def _memoize(self, record_key: RecordKey, record: Record) -> None:
        self._records[record_key] = record
        self._records.move_to_end(record_key)
        if len(self._records) > self.RECORD_MEMO:
            self._records.popitem(last=False)

    def _read_record(self, record_key: RecordKey) -> Optional[Record]:
        """One read of a record file: its entries.

        ``None`` when the file is missing, or torn and discarded; a
        record of another format or another record key reads as empty.
        Raises ``OSError`` when the file exists but cannot be read.
        """
        name = self._record_name(record_key)
        faults.inject_oserror("trace_cache.read")
        blob = self._store.read(name)
        if blob is None:
            return None
        try:
            version, stored_key, record = pickle.loads(blob)
        except (pickle.UnpicklingError, EOFError, AttributeError,
                ImportError, IndexError, TypeError, ValueError):
            # torn or incompatible record: a miss, not an error
            self._store.discard(name)
            return None
        if version != self.FORMAT or stored_key != record_key:
            # format drift, or a digest collision (the record key is
            # stored so a collision degrades to misses, not wrong traces)
            return {}
        return record

    def publish(self, items: Iterable[Tuple[CacheKey, TraceEntry]]) -> None:
        """Merge a collection's emulated entries into their records on
        disk: one re-read and at most one write per record."""
        records: Dict[RecordKey, Record] = {}
        for key, entry in items:
            records.setdefault((key[0], key[3]), {})[key[1], key[2]] = entry
        for record_key, fresh in records.items():
            self._publish_record(record_key, fresh)

    def _publish_record(self, record_key: RecordKey, fresh: Record) -> None:
        if self.disk_degraded:
            return  # tier gave up after repeated ENOSPC/EACCES failures
        try:
            # the file, not the memo: a sibling may have added entries
            stored = self._read_record(record_key)
        except OSError:
            # the stored entries are unknown, and rewriting without them
            # would drop them: a skipped publication
            self.stats.disk_write_errors += 1
            return
        stored = stored or {}
        new = {
            identity: entry
            for identity, entry in fresh.items()
            if identity not in stored
        }
        if not new:
            self._memoize(record_key, stored)
            return  # another process already published these entries
        record = {**stored, **new}
        try:
            blob = pickle.dumps((self.FORMAT, record_key, record),
                                protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:
            return  # unpicklable entry: a skipped memoization
        name = self._record_name(record_key)
        try:
            self.write_retry.call(lambda: self._publish_blob(name, blob))
        except OSError as error:
            # ENOSPC/EACCES after retries: count it and keep fuzzing —
            # a failed publication is a skipped memoization, never a
            # fuzzing-loop error
            self.stats.disk_write_errors += 1
            self._consecutive_write_failures += 1
            if self.disk_degraded:
                logger.warning(
                    "trace cache %s: %d consecutive publications failed "
                    "(last: %s); the disk tier stops writing for this "
                    "process", self.cache_dir, self.DEGRADE_AFTER, error,
                )
            return
        self._consecutive_write_failures = 0
        self.stats.disk_writes += len(new)
        self._memoize(record_key, record)

    def _publish_blob(self, name: str, blob: bytes) -> None:
        """One atomic-publish attempt; raises ``OSError`` on failure."""
        faults.inject_oserror("trace_cache.write")
        # a torn-write fault publishes a truncated blob: readers must
        # treat it as a miss and discard it, never crash on it
        blob = faults.corrupt("trace_cache.torn", blob)
        self._store.publish(name, blob)

    def clear_disk(self) -> None:
        """Delete every stored record (format 1 files too) and the record
        memo, including temp files orphaned by killed writers (leaves
        the directory tree in place)."""
        for name in self._store.names():
            self._store.discard(name)
        self._store.sweep_orphans()
        self._records.clear()

    def disk_entries(self) -> int:
        """Number of record files currently stored on disk."""
        return len(self._store.names())


def make_trace_cache(
    enabled: bool, cache_dir: Optional[str]
) -> Optional[ContractTraceCache]:
    """Build the cache a pipeline's config asks for (or ``None``).

    ``cache_dir`` implies caching even when the boolean knob is off —
    pointing a run at a directory is an explicit opt-in.
    """
    if cache_dir:
        return PersistentTraceCache(cache_dir)
    if enabled:
        return ContractTraceCache()
    return None


__all__ = [
    "CacheKey",
    "CacheStats",
    "ContractTraceCache",
    "PersistentTraceCache",
    "TraceEntry",
    "input_identity",
    "key_digest",
    "make_trace_cache",
    "program_fingerprint",
]
