"""The record store every persisted artifact publishes through.

The contract of :class:`repro.storage.RecordStore` (atomic publish, one
read, listing and orphan sweeping), what a torn record becomes for each
of its four owners, and a source scan that keeps the store the only
publisher under ``src/repro``.
"""

import os
from pathlib import Path

import pytest

from repro import storage
from repro.core.fuzzer import FuzzingReport
from repro.core.journal import CampaignJournal
from repro.core.patterns import PatternCoverage
from repro.core.trace_cache import PersistentTraceCache
from repro.corpus import SKIP, CorpusRecord, CounterexampleCorpus
from repro.service import ServiceState
from repro.storage import TEMP_PREFIX, RecordStore

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def _files(directory):
    return sorted(
        os.path.relpath(os.path.join(root, name), directory)
        for root, _dirs, files in os.walk(directory)
        for name in files
    )


class TestRecordStore:
    @pytest.mark.parametrize("fanout", [False, True])
    def test_publish_read_list_round_trip(self, tmp_path, fanout):
        store = RecordStore(str(tmp_path), ".rec", fanout=fanout)
        names = (
            ["ab/second.rec", "0f/first.rec"] if fanout
            else ["second.rec", "first.rec"]
        )
        for name in names:
            store.publish(name, name.encode())
        store.publish(names[0], b"replaced")
        assert store.names() == sorted(names)
        assert store.read(names[0]) == b"replaced"
        assert store.read(names[1]) == names[1].encode()
        assert store.read("missing.rec") is None
        assert os.stat(store.path(names[0])).st_mode & 0o777 == 0o644
        store.discard(names[0])
        assert store.names() == [names[1]]
        assert _files(tmp_path) == [names[1]]  # no temp file left over

    def test_a_failed_replace_leaves_no_record_and_no_temp_file(
        self, tmp_path, monkeypatch
    ):
        store = RecordStore(str(tmp_path), ".rec")

        def fail(source, target):
            raise OSError(28, "no space left on device")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError):
            store.publish("record.rec", b"blob")
        assert store.read("record.rec") is None
        assert _files(tmp_path) == []

    def test_temp_and_foreign_files_are_never_listed(self, tmp_path):
        flat = RecordStore(str(tmp_path), ".rec")
        fanned = RecordStore(str(tmp_path), ".rec", fanout=True)
        (tmp_path / "ab").mkdir()
        (tmp_path / "nested").mkdir()
        for name in (
            "kept.rec", TEMP_PREFIX + "abc", TEMP_PREFIX + "abc.rec",
            ".hidden.rec", "notes.txt", "ab/kept.rec",
            "ab/" + TEMP_PREFIX + "def", "ab/other.json", "nested/deep.rec",
        ):
            (tmp_path / name).write_bytes(b"x")
        assert flat.names() == ["kept.rec"]
        assert fanned.names() == [os.path.join("ab", "kept.rec")]

    def test_sweep_orphans_spares_in_flight_temp_files(self, tmp_path):
        store = RecordStore(str(tmp_path), ".rec", fanout=True)
        grace = 300.0
        (tmp_path / "ab").mkdir()
        stale = tmp_path / "ab" / (TEMP_PREFIX + "killed-writer")
        fresh = tmp_path / "ab" / (TEMP_PREFIX + "in-flight")
        record = tmp_path / "ab" / "old.rec"
        for path in (stale, fresh, record):
            path.write_bytes(b"partial")
        old = os.path.getmtime(stale) - 2 * grace
        os.utime(stale, (old, old))
        os.utime(record, (old, old))
        store.sweep_orphans(grace)
        assert not stale.exists()
        assert fresh.exists() and record.exists()
        store.sweep_orphans()  # no grace: every temp file goes
        assert not fresh.exists() and record.exists()

    @staticmethod
    def _temp_files(directory):
        """An aged and a fresh temp file in ``directory``."""
        stale = directory / (TEMP_PREFIX + "killed-writer")
        fresh = directory / (TEMP_PREFIX + "in-flight")
        for path in (stale, fresh):
            path.write_bytes(b"partial")
        old = os.path.getmtime(stale) - 2 * storage.ORPHAN_GRACE_SECONDS
        os.utime(stale, (old, old))
        return stale, fresh

    def test_journal_resume_sweeps_aged_temp_files(self, tmp_path):
        payload = {"kind": "test"}
        CampaignJournal(str(tmp_path)).open(payload)
        stale, fresh = self._temp_files(tmp_path)
        CampaignJournal(str(tmp_path)).open(payload, resume=True)
        assert not stale.exists()
        assert fresh.exists()

    def test_service_state_sweeps_aged_temp_files(self, tmp_path):
        jobs_dir = tmp_path / "jobs"
        jobs_dir.mkdir()
        stale, fresh = self._temp_files(jobs_dir)
        ServiceState(str(tmp_path))
        assert not stale.exists()
        assert fresh.exists()


# -- what a torn record becomes, owner by owner ------------------------


def _journal(directory):
    journal = CampaignJournal(directory)
    journal.open({"kind": "test"})
    journal.record(0, 0, FuzzingReport(coverage=PatternCoverage()))
    assert set(journal.completed()) == {(0, 0)}

    def degraded():
        return journal.completed() == {}  # the shard re-runs

    return os.path.join(directory, journal.record_name(0, 0)), degraded


def _state(directory):
    state = ServiceState(directory)
    job_id = "job-0001-00f1e1ed"
    assert state.save_job({"job_id": job_id, "state": "done"})
    assert [job["job_id"] for job in state.load_jobs()] == [job_id]

    def degraded():
        return state.load_jobs() == []  # the snapshot is skipped

    return state.job_path(job_id), degraded


def _corpus(directory):
    corpus = CounterexampleCorpus(directory)
    path = corpus.add(CorpusRecord(
        arch="x86_64", contract="CT-SEQ", cpu="skylake",
        executor_mode="P+P", analyzer_mode="subset",
        program_text="NOP", inputs=(), name="torn",
    ))
    assert corpus.load()[0].record is not None

    def degraded():
        [entry] = corpus.load()
        return corpus.replay_entry(entry).verdict == SKIP

    return path, degraded


KEY = ("fp", None, "digest", ("CT-SEQ", 250, 1))


def _trace_tier(directory):
    PersistentTraceCache(directory).put(KEY, ("trace", "log"))
    reader = PersistentTraceCache(directory)
    path = reader._path(KEY)

    def degraded():
        # a miss, and the torn record is discarded
        return reader.get(KEY) is None and not os.path.exists(path)

    return path, degraded


@pytest.mark.parametrize(
    "owner", [_journal, _state, _corpus, _trace_tier],
    ids=["journal", "state", "corpus", "trace-tier"],
)
def test_a_truncated_record_degrades_as_its_owner_documents(
    tmp_path, owner
):
    path, degraded = owner(str(tmp_path))
    blob = Path(path).read_bytes()
    Path(path).write_bytes(blob[: len(blob) // 2])
    assert degraded()


def test_the_store_is_the_only_publisher():
    publishers = sorted(
        str(path.relative_to(SRC))
        for path in SRC.rglob("*.py")
        if any(
            needle in path.read_text(encoding="utf-8")
            for needle in ("tempfile.mkstemp", "os.replace")
        )
    )
    assert publishers == [os.path.basename(storage.__file__)]
