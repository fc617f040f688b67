"""Replayable counterexample corpus: violations as regression tests.

The paper's central claim is that a contract violation is *reproducible
evidence* (Table 3 grids, Table 4 detection times) — yet a violation
that dies with the fuzzing process proves nothing to the next run.
:class:`CounterexampleCorpus` persists every confirmed (and every
minimized) violation as a self-contained JSON record: the program text,
the exact input battery, the target coordinates (arch, contract, cpu,
executor and analyzer modes), the campaign seed, and the expected
verdict — a content digest of the detection evidence. Replaying the
corpus re-runs each record through the full testing pipeline and checks
that the violation is re-detected *byte-identically*, which turns the
corpus into a fast deterministic regression gate for detection power
(the spirit of sca-fuzzer-arm64's bats suite of pinned leak
measurements).

Storage discipline mirrors :class:`~repro.core.trace_cache
.PersistentTraceCache`:

- one record per file, named by a prefix of the violation digest — so a
  duplicate find (same evidence) lands on the same file name and
  deduplicates structurally;
- records are written to a temp file and published with an atomic
  ``os.replace``, so concurrent shard workers and sweep cells can
  append to one corpus directory without ever exposing a torn record;
- every record carries a schema version (:data:`FORMAT`); a record
  with an unknown version, torn bytes, or missing keys degrades to a
  SKIP verdict at load/replay time — never to a crash of the gate.

Replay verdicts (:class:`ReplayResult`):

- ``PASS``    — the violation was re-detected and its digest matches;
- ``CHANGED`` — a violation was re-detected, but the evidence (trace
  content, differing positions) no longer matches the record;
- ``FAIL``    — the pipeline no longer detects any violation: a
  detection-power regression;
- ``SKIP``    — the record could not be loaded (corrupt file, foreign
  schema version) or targets an unregistered arch/contract/cpu.

``python -m repro replay --corpus DIR`` drives this as a CLI gate:
exit 1 on any FAIL/CHANGED, and with ``--strict`` also on any SKIP or
an empty corpus. :meth:`ReplayReport.report_digest` is a canonical
digest over the per-entry outcomes, byte-identical on the production
engine and on every reference path the tests route pipelines onto
(the interpretive IR, the per-input contract loop, no IR passes) — the
corpus is the fixed external artifact that pins those engines'
byte-identical contracts between releases.
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
import tempfile
import time
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

from repro.emulator.errors import EmulationError
from repro.emulator.state import InputData
from repro.core.config import FuzzerConfig
from repro.core.violation import Violation

#: schema version of stored records; bump on layout changes. A record
#: with any other version is SKIPped by the loader, never guessed at.
FORMAT = 1

#: replay verdicts, in decreasing order of health
PASS = "PASS"
CHANGED = "CHANGED"
FAIL = "FAIL"
SKIP = "SKIP"


# -- input (de)serialization ------------------------------------------------------


def encode_input(input_data: InputData) -> Dict[str, object]:
    """One :class:`InputData` as a JSON-safe dict.

    Registers and flags are plain maps; the sandbox image (mostly-zero
    pages) is zlib-compressed and base64-armored. The encoding is a
    container format only — digests are computed over the *decoded*
    content, so a future zlib producing different bytes can never flip
    a verdict.
    """
    return {
        "registers": {name: value for name, value in
                      sorted(input_data.registers.items())},
        "flags": {name: bool(value) for name, value in
                  sorted(input_data.flags.items())},
        "memory": base64.b64encode(
            zlib.compress(input_data.memory)
        ).decode("ascii"),
        "seed": input_data.seed,
    }


def decode_input(payload: Mapping[str, object]) -> InputData:
    """Inverse of :func:`encode_input`."""
    return InputData(
        registers={str(name): int(value)
                   for name, value in payload["registers"].items()},
        flags={str(name): bool(value)
               for name, value in payload["flags"].items()},
        memory=zlib.decompress(base64.b64decode(payload["memory"])),
        seed=None if payload.get("seed") is None else int(payload["seed"]),
    )


# -- the violation digest ---------------------------------------------------------


def violation_digest(
    violation: Violation,
    executor_mode: str,
    analyzer_mode: str,
) -> str:
    """Content digest of one violation's detection evidence.

    Covers the target coordinates and the relational counterexample
    itself — the shared contract trace, the two differing hardware
    traces, and the positions of the differing inputs within the
    battery. Deliberately *excludes* the program text (the record
    stores it separately; digesting the rendering would couple the
    verdict to assembler formatting) and every wall-clock or
    scheduling-dependent counter. Contract traces and hardware traces
    are byte-identical across the compiled/interpretive/battery
    engines and the IR pass pipeline, so this digest is too — the
    tests replay on each reference path as an end-to-end determinism
    check.
    """
    evidence = {
        "arch": violation.arch_name,
        "contract": violation.contract_name,
        "cpu": violation.cpu_name,
        "executor_mode": executor_mode,
        "analyzer_mode": analyzer_mode,
        "positions": [violation.position_a, violation.position_b],
        "ctrace": [[tag, value] for tag, value in violation.ctrace],
        "htrace_a": violation.htrace_a.bitmap(),
        "htrace_b": violation.htrace_b.bitmap(),
    }
    canonical = json.dumps(evidence, sort_keys=True, separators=(",", ":"))
    return hashlib.sha1(canonical.encode("utf-8")).hexdigest()


# -- records ----------------------------------------------------------------------


@dataclass(frozen=True)
class CorpusRecord:
    """One persisted counterexample: everything replay needs, inline."""

    #: target coordinates
    arch: str
    contract: str
    cpu: str
    executor_mode: str
    analyzer_mode: str
    #: rendered program text in the backend's assembly syntax
    program_text: str
    #: the exact input battery the violation was found in
    inputs: Sequence[InputData]
    #: campaign seed of the run that found the violation
    seed: int = 0
    #: human label (gadget or campaign name); also the default entry name
    name: str = ""
    #: expected verdict: "violation" is the only supported value today;
    #: the field exists so future records can pin *non*-violations
    #: (compliance regressions) under the same schema
    expected_verdict: str = "violation"
    #: digest of the expected detection evidence (:func:`violation_digest`)
    expected_digest: str = ""
    #: classification the original detection reported (diagnostic only —
    #: replay compares digests, not names)
    classification: str = ""
    #: whether the recorded detection survived the §5.3/§5.4 confirmation
    #: filters; replay applies the same confirmation level
    confirmed: bool = True
    #: free-form provenance (found_by, minimization counts, …); never
    #: part of the digest
    provenance: Mapping[str, object] = field(default_factory=dict)

    def to_json(self) -> Dict[str, object]:
        return {
            "format": FORMAT,
            "name": self.name,
            "arch": self.arch,
            "contract": self.contract,
            "cpu": self.cpu,
            "executor_mode": self.executor_mode,
            "analyzer_mode": self.analyzer_mode,
            "seed": self.seed,
            "program": self.program_text,
            "inputs": [encode_input(data) for data in self.inputs],
            "expected": {
                "verdict": self.expected_verdict,
                "digest": self.expected_digest,
                "classification": self.classification,
                "confirmed": self.confirmed,
            },
            "provenance": dict(self.provenance),
        }

    @classmethod
    def from_json(cls, payload: Mapping[str, object]) -> "CorpusRecord":
        """Parse one record payload; raises on any shape problem (the
        corpus loader converts that into a SKIP entry)."""
        version = payload.get("format")
        if version != FORMAT:
            raise ValueError(
                f"unsupported corpus record format {version!r} "
                f"(this build reads format {FORMAT})"
            )
        expected = payload["expected"]
        return cls(
            arch=str(payload["arch"]),
            contract=str(payload["contract"]),
            cpu=str(payload["cpu"]),
            executor_mode=str(payload["executor_mode"]),
            analyzer_mode=str(payload["analyzer_mode"]),
            program_text=str(payload["program"]),
            inputs=tuple(decode_input(item) for item in payload["inputs"]),
            seed=int(payload.get("seed", 0)),
            name=str(payload.get("name", "")),
            expected_verdict=str(expected["verdict"]),
            expected_digest=str(expected["digest"]),
            classification=str(expected.get("classification", "")),
            confirmed=bool(expected.get("confirmed", True)),
            provenance=dict(payload.get("provenance", {})),
        )


def record_from_violation(
    violation: Violation,
    config: FuzzerConfig,
    name: str = "",
    provenance: Optional[Mapping[str, object]] = None,
    confirmed: Optional[bool] = None,
) -> CorpusRecord:
    """Build a corpus record from a confirmed :class:`Violation`.

    The program is rendered through its architecture's assembler (the
    same text :meth:`Violation.describe` shows), the full input battery
    is captured — positions in the digest index into it — and the
    digest pins the detection evidence. ``confirmed`` overrides the
    recorded confirmation level (the postprocessor shrinks with
    ``confirm=False`` by default, and its minimized counterexamples
    must replay at the level they were validated at).
    """
    from repro.arch import get_architecture

    if confirmed is None:
        confirmed = config.verify_with_priming or config.revalidate_with_nesting
    arch = get_architecture(violation.arch_name)
    # replay coordinates come from the *config* (registry keys a fresh
    # FuzzerConfig accepts), not the violation, whose contract/cpu
    # names are descriptive labels (e.g. "skylake+ssbd" for the
    # skylake-v4-patched preset); the digest, by contrast, is computed
    # from the violation both at record and at replay time, so the
    # descriptive names stay self-consistent there
    return CorpusRecord(
        arch=config.arch,
        contract=config.contract_name,
        cpu=config.cpu_preset,
        executor_mode=config.executor_mode,
        analyzer_mode=config.analyzer_mode,
        program_text=arch.render_program(violation.program),
        inputs=tuple(violation.input_sequence),
        seed=config.seed,
        name=name or violation.program.name or violation.classification,
        expected_digest=violation_digest(
            violation, config.executor_mode, config.analyzer_mode
        ),
        classification=violation.classification,
        confirmed=confirmed,
        provenance=dict(provenance or {}),
    )


# -- the corpus directory ---------------------------------------------------------


@dataclass
class CorpusEntry:
    """One on-disk record, loaded — or the reason it could not be."""

    path: str
    record: Optional[CorpusRecord] = None
    skip_reason: Optional[str] = None

    @property
    def name(self) -> str:
        if self.record is not None and self.record.name:
            return self.record.name
        return os.path.basename(self.path)


@dataclass
class ReplayResult:
    """Outcome of replaying one corpus entry."""

    entry: CorpusEntry
    verdict: str
    #: digest of the re-detected violation (None on FAIL/SKIP)
    observed_digest: Optional[str] = None
    #: classification of the re-detected violation (diagnostic)
    observed_classification: Optional[str] = None
    #: wall-clock seconds of the re-detection (the per-entry Table 4
    #: trend number; scheduling-dependent, excluded from digests)
    seconds: float = 0.0
    #: inputs replayed for this entry
    inputs: int = 0
    detail: str = ""

    @property
    def name(self) -> str:
        return self.entry.name


@dataclass
class ReplayReport:
    """Merged outcome of replaying a whole corpus."""

    corpus_dir: str
    results: List[ReplayResult] = field(default_factory=list)
    wall_seconds: float = 0.0

    def count(self, verdict: str) -> int:
        return sum(1 for result in self.results if result.verdict == verdict)

    @property
    def passed(self) -> int:
        return self.count(PASS)

    @property
    def ok(self) -> bool:
        """No FAIL/CHANGED — the non-strict gate."""
        return self.count(FAIL) == 0 and self.count(CHANGED) == 0

    def strict_ok(self) -> bool:
        """Every entry replayed PASS and the corpus was non-empty."""
        return bool(self.results) and self.passed == len(self.results)

    def report_digest(self) -> str:
        """Canonical digest over the deterministic per-entry outcomes.

        Sorted by entry file name; covers verdicts and observed
        violation digests, never wall-clock. Byte-identical on every
        reference path — the determinism tests pin exactly this string.
        """
        canonical = json.dumps(
            sorted(
                [
                    {
                        "file": os.path.basename(result.entry.path),
                        "verdict": result.verdict,
                        "digest": result.observed_digest,
                    }
                    for result in self.results
                ],
                key=lambda outcome: str(outcome["file"]),
            ),
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha1(canonical.encode("utf-8")).hexdigest()

    def summary(self) -> str:
        return (
            f"{self.passed}/{len(self.results)} PASS, "
            f"{self.count(CHANGED)} CHANGED, {self.count(FAIL)} FAIL, "
            f"{self.count(SKIP)} SKIP in {self.wall_seconds:.2f}s "
            f"(digest {self.report_digest()[:12]})"
        )

    def to_json(self) -> Dict[str, object]:
        """The ``corpus_replay`` benchmark-artifact section
        (schema-checked by ``tools/check_bench_json.py``)."""
        return {
            "corpus": self.corpus_dir,
            "entries": len(self.results),
            "passed": self.passed,
            "changed": self.count(CHANGED),
            "failed": self.count(FAIL),
            "skipped": self.count(SKIP),
            "report_digest": self.report_digest(),
            "detection": [
                {
                    "name": result.name,
                    "file": os.path.basename(result.entry.path),
                    "arch": (
                        result.entry.record.arch
                        if result.entry.record
                        else None
                    ),
                    "contract": (
                        result.entry.record.contract
                        if result.entry.record
                        else None
                    ),
                    "cpu": (
                        result.entry.record.cpu
                        if result.entry.record
                        else None
                    ),
                    "verdict": result.verdict,
                    "digest": result.observed_digest,
                    "inputs": result.inputs,
                    "seconds": result.seconds,
                }
                for result in sorted(
                    self.results,
                    key=lambda r: os.path.basename(r.entry.path),
                )
            ],
        }


class CounterexampleCorpus:
    """A directory of replayable counterexample records.

    Concurrency-safe by construction: records are published atomically
    (temp file + ``os.replace``) and file names derive from the
    violation digest, so concurrent writers of the *same* evidence
    collapse onto one file and writers of different evidence never
    collide. Unreadable or foreign-version files degrade to SKIP
    entries — the corpus never crashes its consumers.
    """

    #: digest-prefix length of record file names; 16 hex chars keep
    #: names human-diffable while making accidental collisions of
    #: *distinct* digests vanishingly unlikely
    NAME_DIGEST_CHARS = 16

    def __init__(self, directory: str):
        self.directory = os.fspath(directory)
        os.makedirs(self.directory, exist_ok=True)

    # -- persistence ------------------------------------------------------

    def path_for(self, record: CorpusRecord) -> str:
        digest = record.expected_digest or hashlib.sha1(
            record.program_text.encode("utf-8")
        ).hexdigest()
        prefix = "" if not record.name else _slug(record.name) + "-"
        return os.path.join(
            self.directory,
            f"{prefix}{digest[: self.NAME_DIGEST_CHARS]}.json",
        )

    def add(self, record: CorpusRecord) -> Optional[str]:
        """Persist one record; returns its path, or ``None`` when an
        entry with the same digest already exists (dedup)."""
        path = self.path_for(record)
        if os.path.exists(path):
            return None
        blob = (
            json.dumps(record.to_json(), indent=2, sort_keys=True) + "\n"
        ).encode("utf-8")
        descriptor, tmp_path = tempfile.mkstemp(
            prefix=".tmp-", dir=self.directory
        )
        try:
            with os.fdopen(descriptor, "wb") as handle:
                handle.write(blob)
            os.chmod(tmp_path, 0o644)  # mkstemp defaults to 0600
            os.replace(tmp_path, path)  # atomic publication
        except Exception:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise
        return path

    def add_violation(
        self,
        violation: Violation,
        config: FuzzerConfig,
        name: str = "",
        provenance: Optional[Mapping[str, object]] = None,
        confirmed: Optional[bool] = None,
    ) -> Optional[str]:
        """Convenience: build the record and persist it."""
        return self.add(
            record_from_violation(
                violation, config, name, provenance, confirmed
            )
        )

    # -- loading ----------------------------------------------------------

    def paths(self) -> List[str]:
        """Record files, sorted by name (deterministic replay order)."""
        try:
            names = sorted(os.listdir(self.directory))
        except OSError:
            return []
        return [
            os.path.join(self.directory, name)
            for name in names
            if name.endswith(".json") and not name.startswith(".")
        ]

    def load(self) -> List[CorpusEntry]:
        """Load every record; unreadable ones become SKIP entries."""
        entries: List[CorpusEntry] = []
        for path in self.paths():
            try:
                with open(path, encoding="utf-8") as handle:
                    payload = json.load(handle)
                record = CorpusRecord.from_json(payload)
            except (OSError, ValueError, KeyError, TypeError,
                    AttributeError) as error:
                entries.append(
                    CorpusEntry(path=path, skip_reason=str(error))
                )
                continue
            entries.append(CorpusEntry(path=path, record=record))
        return entries

    def __len__(self) -> int:
        return len(self.paths())

    # -- replay -----------------------------------------------------------

    def replay_entry(self, entry: CorpusEntry) -> ReplayResult:
        """Re-run one entry through the full testing pipeline."""
        if entry.record is None:
            return ReplayResult(
                entry=entry,
                verdict=SKIP,
                detail=entry.skip_reason or "unreadable record",
            )
        record = entry.record
        if record.expected_verdict != "violation":
            return ReplayResult(
                entry=entry,
                verdict=SKIP,
                detail=(
                    f"unsupported expected verdict "
                    f"{record.expected_verdict!r}"
                ),
            )
        try:
            pipeline, program = self._build_pipeline(record)
        except (KeyError, ValueError) as error:
            # unregistered arch/contract/cpu, or unparseable program
            # text: the record outlived this build's registries
            return ReplayResult(entry=entry, verdict=SKIP,
                                detail=str(error))
        inputs = list(record.inputs)
        start = time.perf_counter()
        try:
            outcome = pipeline.test_program(program, inputs)
        except EmulationError as error:
            return ReplayResult(
                entry=entry,
                verdict=FAIL,
                seconds=time.perf_counter() - start,
                inputs=len(inputs),
                detail=f"emulation fault during replay: {error}",
            )
        violation = None
        for candidate in outcome.analysis.candidates:
            if not record.confirmed or pipeline.confirm_candidate(
                outcome, candidate
            ):
                violation = pipeline.build_violation(outcome, candidate)
                break
        seconds = time.perf_counter() - start
        if violation is None:
            return ReplayResult(
                entry=entry,
                verdict=FAIL,
                seconds=seconds,
                inputs=len(inputs),
                detail="no violation re-detected (detection-power "
                "regression)",
            )
        observed = violation_digest(
            violation, record.executor_mode, record.analyzer_mode
        )
        verdict = PASS if observed == record.expected_digest else CHANGED
        detail = (
            ""
            if verdict == PASS
            else (
                f"evidence drifted: expected digest "
                f"{record.expected_digest[:12]}, observed {observed[:12]}"
            )
        )
        return ReplayResult(
            entry=entry,
            verdict=verdict,
            observed_digest=observed,
            observed_classification=violation.classification,
            seconds=seconds,
            inputs=len(inputs),
            detail=detail,
        )

    def replay(
        self, arch: Optional[str] = None, progress=None
    ) -> ReplayReport:
        """Replay every record (optionally restricted to one arch)."""
        start = time.perf_counter()
        report = ReplayReport(corpus_dir=self.directory)
        for entry in self.load():
            if (
                arch is not None
                and entry.record is not None
                and entry.record.arch != arch
            ):
                continue
            result = self.replay_entry(entry)
            report.results.append(result)
            if progress is not None:
                progress(result)
        report.wall_seconds = time.perf_counter() - start
        return report

    @staticmethod
    def _build_pipeline(record: CorpusRecord):
        """The (pipeline, parsed program) pair one record replays on."""
        from repro.arch import get_architecture
        from repro.core.fuzzer import TestingPipeline

        config = FuzzerConfig(
            arch=record.arch,
            contract_name=record.contract,
            cpu_preset=record.cpu,
            executor_mode=record.executor_mode,
            analyzer_mode=record.analyzer_mode,
            seed=record.seed,
        )
        arch = get_architecture(record.arch)
        program = arch.parse_program(
            record.program_text, name=record.name or "corpus-entry"
        )
        return TestingPipeline(config), program


def _slug(name: str) -> str:
    """File-name-safe slug of a record name."""
    return "".join(
        char if char.isalnum() or char in "-_" else "-"
        for char in name.lower()
    ).strip("-") or "entry"


__all__ = [
    "CHANGED",
    "FAIL",
    "FORMAT",
    "PASS",
    "SKIP",
    "CorpusEntry",
    "CorpusRecord",
    "CounterexampleCorpus",
    "ReplayReport",
    "ReplayResult",
    "decode_input",
    "encode_input",
    "record_from_violation",
    "violation_digest",
]
