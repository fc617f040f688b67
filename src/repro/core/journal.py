"""Atomic completed-shard journal for checkpointed, resumable campaigns.

A journal is a directory holding one ``spec.json`` describing the
campaign (or sweep) it belongs to, plus one record file per completed
shard.  Every file is published through :class:`repro.storage
.RecordStore`: a reader never observes a half-written record, and a
worker killed mid-write leaves at worst a stale temp file, never a torn
journal entry.

The spec file pins a digest of everything that determines shard
results (resolved shard count, mode, and the result-determining
``FuzzerConfig`` fields).  Resuming against a journal whose digest
does not match the requested spec is a hard :class:`JournalMismatch`
error — silently re-running a different campaign over someone else's
checkpoints would corrupt the merged report.  Records carry the same
digest plus their (cell, shard) coordinates; anything unreadable,
foreign, or out of range is treated as missing and simply re-run,
mirroring how torn corpus records degrade to SKIP.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import pickle
from typing import Any, Dict, Mapping, Optional, Tuple

from repro import faults
from repro.core.config import FuzzerConfig
from repro.core.fuzzer import FuzzingReport
from repro.storage import ORPHAN_GRACE_SECONDS, RecordStore

logger = logging.getLogger(__name__)

SCHEMA_VERSION = 1
SPEC_FILE = "spec.json"
_RECORD_PREFIX = "shard-"
_RECORD_SUFFIX = ".pkl"

# FuzzerConfig fields that do not influence shard results: cache and
# corpus plumbing is side-channel state.  Excluding them means a resume
# may legally add or drop e.g. --cache-dir without invalidating
# checkpoints.
EXCLUDED_CONFIG_FIELDS = frozenset(
    {
        "contract_trace_cache",
        "trace_cache_dir",
        "corpus_dir",
    }
)


class JournalMismatch(ValueError):
    """The journal on disk belongs to a different campaign spec."""


def canonical_spec_json(payload: Mapping[str, Any]) -> str:
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), default=str
    )


def spec_digest(payload: Mapping[str, Any]) -> str:
    return hashlib.sha1(canonical_spec_json(payload).encode("utf-8")).hexdigest()


def config_payload(config: FuzzerConfig) -> Dict[str, Any]:
    """The result-determining slice of a FuzzerConfig, JSON-ready."""
    data = dataclasses.asdict(config)
    for field in EXCLUDED_CONFIG_FIELDS:
        data.pop(field, None)
    return data


def campaign_payload(
    config: FuzzerConfig, shards: int, mode: str
) -> Dict[str, Any]:
    return {
        "kind": "campaign",
        "shards": shards,
        "mode": mode,
        "config": config_payload(config),
    }


def sweep_payload(spec: Any, shards: int) -> Dict[str, Any]:
    """Journal spec for a SweepSpec (typed loosely to avoid an import
    cycle with core.sweep)."""
    return {
        "kind": "sweep",
        "arches": list(spec.arches),
        "contracts": list(spec.contracts),
        "cpus": list(spec.cpus),
        "shards": shards,
        "mode": spec.mode,
        "total_budget": spec.total_budget,
        "budget_overrides": sorted(
            [list(key), value] for key, value in spec.budget_overrides.items()
        ),
        "config": config_payload(spec.base_config),
    }


class CampaignJournal:
    """Completed-shard checkpoint directory for one campaign/sweep."""

    def __init__(self, directory: str) -> None:
        self.directory = directory
        self._store = RecordStore(directory, _RECORD_SUFFIX)
        self.digest: Optional[str] = None
        #: record publications that failed with an ``OSError`` and were
        #: skipped — the shard result stays in memory and the campaign
        #: continues, it just isn't checkpointed (a later resume re-runs
        #: that shard)
        self.publish_errors = 0

    # -- lifecycle ----------------------------------------------------

    def open(self, payload: Mapping[str, Any], resume: bool = False) -> None:
        """Bind the journal to ``payload``.

        Creates the directory and spec file for a fresh journal;
        validates the digest against an existing one.  With
        ``resume=True`` the spec file must already exist — resuming a
        journal that was never started is a spelling mistake, not a
        campaign.  A bound journal has one writer, this process, so
        temp files a killed writer left behind are swept here.
        """
        digest = spec_digest(payload)
        spec_path = self._store.path(SPEC_FILE)
        try:
            blob = self._store.read(SPEC_FILE)
            existing = None if blob is None else json.loads(blob)
        except (OSError, ValueError) as error:
            raise JournalMismatch(
                f"journal spec {spec_path} is unreadable: {error}"
            )
        if existing is not None:
            if existing.get("schema") != SCHEMA_VERSION:
                raise JournalMismatch(
                    f"journal {self.directory} uses schema "
                    f"{existing.get('schema')!r}, expected {SCHEMA_VERSION}"
                )
            if existing.get("digest") != digest:
                raise JournalMismatch(
                    f"journal {self.directory} records a different campaign "
                    f"spec (journal digest {existing.get('digest')}, "
                    f"requested {digest}); refusing to mix checkpoints"
                )
        elif resume:
            raise JournalMismatch(
                f"cannot resume: {spec_path} does not exist "
                "(was this campaign ever started with a journal?)"
            )
        else:
            self._store.publish(
                SPEC_FILE,
                json.dumps(
                    {
                        "schema": SCHEMA_VERSION,
                        "digest": digest,
                        "spec": payload,
                    },
                    sort_keys=True,
                    indent=2,
                    default=str,
                ).encode("utf-8"),
            )
        self._store.sweep_orphans(ORPHAN_GRACE_SECONDS)
        self.digest = digest

    # -- records ------------------------------------------------------

    @staticmethod
    def record_name(cell_index: int, shard_index: int) -> str:
        return f"{_RECORD_PREFIX}{cell_index:04d}-{shard_index:04d}{_RECORD_SUFFIX}"

    def record(
        self, cell_index: int, shard_index: int, report: FuzzingReport
    ) -> bool:
        """Checkpoint one completed shard; returns False when the
        publication failed with an ``OSError`` (disk full, read-only
        journal, ...) and was skipped.

        A failed checkpoint must never fail the campaign: the shard
        report is already merged in memory, so losing the record only
        costs a re-run of that shard on a *later* resume — exactly the
        degradation a torn record already has.
        """
        if self.digest is None:
            raise RuntimeError("journal must be opened before recording")
        payload = {
            "schema": SCHEMA_VERSION,
            "digest": self.digest,
            "cell": cell_index,
            "shard": shard_index,
            "report": report,
        }
        try:
            faults.inject_oserror("journal.publish")
            self._store.publish(
                self.record_name(cell_index, shard_index),
                pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL),
            )
        except OSError as error:
            self.publish_errors += 1
            logger.warning(
                "journal %s: checkpoint of cell %d shard %d skipped (%s); "
                "a resume re-runs that shard",
                self.directory, cell_index, shard_index, error,
            )
            return False
        return True

    def completed(self) -> Dict[Tuple[int, int], FuzzingReport]:
        """All valid checkpoints, keyed by (cell, shard).

        Torn, foreign, or mislabeled record files are skipped — the
        corresponding shard is simply re-run.
        """
        if self.digest is None:
            raise RuntimeError("journal must be opened before reading")
        out: Dict[Tuple[int, int], FuzzingReport] = {}
        for name in self._store.names():
            if not name.startswith(_RECORD_PREFIX):
                continue
            try:
                payload = pickle.loads(self._store.read(name))
            except Exception:
                continue  # torn, foreign or gone: re-run that shard
            if not isinstance(payload, dict):
                continue
            if payload.get("schema") != SCHEMA_VERSION:
                continue
            if payload.get("digest") != self.digest:
                continue
            cell = payload.get("cell")
            shard = payload.get("shard")
            report = payload.get("report")
            if not isinstance(cell, int) or not isinstance(shard, int):
                continue
            if not isinstance(report, FuzzingReport):
                continue
            if name != self.record_name(cell, shard):
                continue  # renamed/copied record: coordinates lie
            out[(cell, shard)] = report
        return out
