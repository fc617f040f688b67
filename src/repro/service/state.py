"""Crash-safe service state: the job table as a directory of JSON files.

A :class:`ServiceState` persists one file per job under
``<state_dir>/jobs/``, published through :class:`repro.storage
.RecordStore`: a reader (including a restarted ``serve`` process) never
observes a half-written snapshot, and a service killed mid-save leaves
at worst a stale temp file, never a torn job record.

Persistence is best-effort by design — the service must keep running on
a full or read-only state disk. Every failed publication is counted in
:attr:`ServiceState.write_errors` and logged as one ``WARNING``, and the
in-memory job table stays authoritative; only a *later* restart loses
the unsaved updates, which the journal-backed resume path then
reconciles. The ``service.event`` fault site injects exactly this
failure for the chaos suite.
"""

from __future__ import annotations

import json
import logging
import os
from typing import Any, Dict, List, Mapping

from repro import faults
from repro.storage import ORPHAN_GRACE_SECONDS, RecordStore

logger = logging.getLogger(__name__)

SCHEMA_VERSION = 1
_JOBS_SUBDIR = "jobs"


class ServiceState:
    """Directory-backed job-table persistence for one service."""

    def __init__(self, directory: str) -> None:
        self.directory = directory
        self.jobs_dir = os.path.join(directory, _JOBS_SUBDIR)
        os.makedirs(self.jobs_dir, exist_ok=True)
        self._store = RecordStore(self.jobs_dir, ".json")
        # one service owns a state directory: older temp files are orphans
        self._store.sweep_orphans(ORPHAN_GRACE_SECONDS)
        #: snapshot publications that failed with an ``OSError`` and
        #: were skipped — the in-memory job table stays authoritative
        self.write_errors = 0

    def job_path(self, job_id: str) -> str:
        return self._store.path(f"{job_id}.json")

    def save_job(self, payload: Mapping[str, Any]) -> bool:
        """Atomically publish one job snapshot; returns False when the
        write failed with an ``OSError`` and was skipped."""
        job_id = str(payload["job_id"])
        blob = json.dumps(
            dict(payload, schema=SCHEMA_VERSION),
            sort_keys=True,
            default=str,
        ).encode("utf-8")
        try:
            faults.inject_oserror("service.event")
            self._store.publish(f"{job_id}.json", blob)
        except OSError as error:
            self.write_errors += 1
            logger.warning("service state %s: snapshot of job %s skipped "
                           "(%s)", self.jobs_dir, job_id, error)
            return False
        return True

    def load_jobs(self) -> List[Dict[str, Any]]:
        """All valid job snapshots, sorted by job id.

        Torn, foreign, or schema-mismatched files are skipped — losing
        a snapshot only loses that job's *service-side* record; its
        campaign journal (if any) is untouched.
        """
        out: List[Dict[str, Any]] = []
        for name in self._store.names():
            try:
                payload = json.loads(self._store.read(name))
            except (OSError, TypeError, ValueError):
                continue  # torn, unreadable or gone (read as None): skip
            if not isinstance(payload, dict):
                continue
            if payload.get("schema") != SCHEMA_VERSION:
                continue
            if name != f"{payload.get('job_id')}.json":
                continue  # renamed/copied snapshot: identity lies
            out.append(payload)
        return sorted(out, key=lambda p: str(p["job_id"]))


__all__ = ["SCHEMA_VERSION", "ServiceState"]
