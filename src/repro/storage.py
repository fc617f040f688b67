"""The one record store every persisted artifact publishes through.

The campaign journal, the counterexample corpus, the ``serve
--state-dir`` job snapshots and the disk trace tier all keep their
records in a :class:`RecordStore`, which owns the atomic publish, the
read, the listing and the sweep of orphaned temp files. Each owner
keeps its encoding, checks, failure policy and fault sites (the
"Persistence" table in ``docs/campaigns-and-sweeps.md``).
"""

from __future__ import annotations

import os
import re
import tempfile
import time
from typing import List, Optional

#: prefix of in-flight temp files; no record name starts with a dot
TEMP_PREFIX = ".tmp-"
#: age after which a temp file is an orphan: a publish writes one blob
#: and renames it, so an older temp file has no live writer
ORPHAN_GRACE_SECONDS = 300.0
_FANOUT_DIR = re.compile(r"[0-9a-f]{2}")


class RecordStore:
    """Records named ``*<suffix>`` in ``directory``, or with ``fanout``
    in its two-hex-digit subdirectories (named ``<xx>/<file>``)."""

    def __init__(self, directory: str, suffix: str,
                 fanout: bool = False) -> None:
        self.directory = os.fspath(directory)
        self.suffix = suffix
        self.fanout = fanout

    def path(self, name: str) -> str:
        return os.path.join(self.directory, name)

    def publish(self, name: str, blob: bytes) -> None:
        """Replace record ``name`` with ``blob`` atomically: readers see
        the old record or the new one, never a torn one. Raises
        ``OSError`` on failure, leaving no temp file behind."""
        path = self.path(name)
        directory = os.path.dirname(path)
        os.makedirs(directory, exist_ok=True)
        descriptor, temp_path = tempfile.mkstemp(
            prefix=TEMP_PREFIX, dir=directory
        )
        try:
            with os.fdopen(descriptor, "wb") as handle:
                handle.write(blob)
            os.chmod(temp_path, 0o644)  # mkstemp creates 0600
            os.replace(temp_path, path)
        except BaseException:
            _unlink(temp_path)
            raise

    def read(self, name: str) -> Optional[bytes]:
        """The record's bytes, or ``None`` when it does not exist (any
        other ``OSError`` propagates)."""
        try:
            with open(self.path(name), "rb") as handle:
                return handle.read()
        except FileNotFoundError:
            return None

    def names(self) -> List[str]:
        """Every published record's name, sorted; never a temp file."""
        return sorted(
            name for name in self._files()
            if name.endswith(self.suffix)
            and not os.path.basename(name).startswith(".")
        )

    def discard(self, name: str) -> None:
        _unlink(self.path(name))

    def sweep_orphans(self, grace_seconds: float = 0.0) -> None:
        """Unlink temp files older than ``grace_seconds`` (a younger one
        may belong to a live writer); ``0`` sweeps them all."""
        cutoff = time.time() - grace_seconds
        for name in self._files():
            if not os.path.basename(name).startswith(TEMP_PREFIX):
                continue
            path = self.path(name)
            try:
                if not grace_seconds or os.path.getmtime(path) < cutoff:
                    os.unlink(path)
            except OSError:
                pass  # published or swept meanwhile

    def _files(self) -> List[str]:
        if not self.fanout:
            return _listdir(self.directory)
        return [
            os.path.join(subdir, name)
            for subdir in _listdir(self.directory)
            if _FANOUT_DIR.fullmatch(subdir)
            for name in _listdir(os.path.join(self.directory, subdir))
        ]


def _listdir(directory: str) -> List[str]:
    try:
        return os.listdir(directory)
    except OSError:
        return []  # missing, not a directory, or unreadable: no records


def _unlink(path: str) -> None:
    try:
        os.unlink(path)
    except OSError:
        pass
