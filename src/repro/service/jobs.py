"""The in-process campaign service: job specs, jobs, and the queue.

A :class:`JobSpec` pairs an :class:`~repro.api.EngineOptions` bag with
the run shape (kind, workers/shards/mode, sweep axes, journal).
:class:`CampaignService` executes submitted specs on a small
thread pool — each job drives the ordinary multiprocessing engines
through :mod:`repro.api`, so the processes fan out exactly as the CLI
subcommands would — and accumulates an append-only event list per job.
``results()`` streams those events with condition-variable wakeups, so
a consumer can follow a running campaign live: every violation arrives
as a self-contained record the moment its cell completes, not when the
whole grid does.

Lifecycle hardening (docs/service.md "Robustness"):

- **Cancellation and deadlines.** ``cancel(job_id)`` sets a cooperative
  stop flag; a per-job ``deadline_s`` arms a wall-clock bound counted
  from when the job starts running. Both are threaded through
  :mod:`repro.api` as a ``should_stop`` callable: inline runs poll it
  between measurement batches, and a worker pool's parent polls it
  and tears its workers down and joins them — no orphans. The
  resulting terminal states are ``cancelled`` and ``timeout``;
  journaled checkpoints written before the stop survive for a later
  resume.
- **Backpressure.** ``max_queued_jobs`` bounds the pending queue;
  ``submit`` on a full service raises :class:`ServiceBusy` carrying a
  ``retry_after`` hint instead of queueing unboundedly.
- **Crash safety.** With a ``state_dir``, every job mutation publishes
  an atomic snapshot (:class:`~repro.service.state.ServiceState`); a
  restarted service rebuilds its job table from the snapshots, keeps
  terminal jobs as history, and resubmits interrupted ones — flipping
  ``resume=True`` when the job's campaign journal already exists, so
  the re-run replays checkpoints instead of starting over.
"""

from __future__ import annotations

import itertools
import logging
import os
import threading
import time
import traceback
import uuid
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, fields
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional, Tuple

from repro import api
from repro.arch import get_architecture
from repro.core.trace_cache import program_fingerprint
from repro.core.violation import Violation
from repro.service.state import ServiceState

logger = logging.getLogger(__name__)

JOB_KINDS = ("fuzz", "campaign", "sweep")
JOB_STATES = (
    "pending", "running", "done", "failed", "cancelled", "timeout",
)
#: states a job can never leave
TERMINAL_STATES = ("done", "failed", "cancelled", "timeout")


class ServiceBusy(RuntimeError):
    """The service's bounded queue is full; try again later.

    Carries a ``retry_after`` hint (seconds). Deliberately a plain
    ``RuntimeError`` rather than a :class:`~repro.service.client.
    ServiceError` subclass — the client module imports this one, not
    the other way around.
    """

    def __init__(self, retry_after: float) -> None:
        super().__init__(
            f"service queue is full; retry after {retry_after:.0f}s"
        )
        self.retry_after = retry_after


def violation_record(violation: Violation) -> Dict[str, Any]:
    """A self-contained, JSON-ready description of one violation — the
    payload ``results()`` streams the moment a violation is confirmed."""
    arch = get_architecture(violation.arch_name)
    return {
        "arch": violation.arch_name,
        "contract": violation.contract_name,
        "cpu": violation.cpu_name,
        "classification": violation.classification,
        "program_fingerprint": program_fingerprint(
            violation.program, violation.arch_name
        ),
        "program": arch.render_program(violation.program),
        "positions": [violation.position_a, violation.position_b],
        "speculation_kinds": sorted(violation.speculation_kinds),
        "test_cases_until_found": violation.test_cases_until_found,
        "inputs_until_found": violation.inputs_until_found,
    }


#: fields older releases wrote (``serve --state-dir`` snapshots keep
#: them): scheduler knobs that never changed a result, so ``from_dict``
#: drops them
_RETIRED_FIELDS = frozenset({"schedule", "parallel_cells"})


@dataclass
class JobSpec:
    """One campaign request: what to run and how to shape it."""

    kind: str = "fuzz"
    options: api.EngineOptions = field(default_factory=api.EngineOptions)
    # campaign/sweep shape
    workers: int = 1
    shards: Optional[int] = None
    mode: str = "full"
    # sweep axes; empty means the options bag's scalar coordinates
    arches: Tuple[str, ...] = ()
    contracts: Tuple[str, ...] = ()
    cpus: Tuple[str, ...] = ()
    total_budget: Optional[int] = None
    # checkpoint/resume
    journal_dir: Optional[str] = None
    resume: bool = False
    #: wall-clock bound in seconds, counted from when the job starts
    #: running; expiry stops the engines cooperatively and lands the
    #: job in the ``timeout`` terminal state
    deadline_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind not in JOB_KINDS:
            raise ValueError(
                f"unknown job kind {self.kind!r}; "
                f"expected one of {JOB_KINDS}"
            )
        if isinstance(self.options, Mapping):
            self.options = api.EngineOptions.from_dict(self.options)
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValueError("deadline_s must be positive")
        self.arches = tuple(self.arches)
        self.contracts = tuple(self.contracts)
        self.cpus = tuple(self.cpus)

    def to_dict(self) -> Dict[str, Any]:
        data = asdict(self)
        data["arches"] = list(self.arches)
        data["contracts"] = list(self.contracts)
        data["cpus"] = list(self.cpus)
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "JobSpec":
        data = {
            k: v for k, v in dict(data).items() if k not in _RETIRED_FIELDS
        }
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(
                f"unknown JobSpec field(s): {', '.join(unknown)}"
            )
        return cls(**data)


class Job:
    """One submitted campaign: state, event log, and wakeup plumbing."""

    def __init__(self, job_id: str, spec: JobSpec) -> None:
        self.id = job_id
        self.spec = spec
        self.state = "pending"
        self.error: Optional[str] = None
        self.events: List[Dict[str, Any]] = []
        self.violations = 0
        self.report_summary: Optional[Dict[str, Any]] = None
        self.submitted_at = time.time()
        self.condition = threading.Condition()
        #: cooperative stop flag, set by cancel() and polled by the
        #: engines between measurement batches
        self.cancel_event = threading.Event()
        #: persistence hook the owning service installs; called after
        #: every mutation, outside the condition lock
        self.on_change: Optional[Callable[["Job"], None]] = None

    @property
    def finished(self) -> bool:
        return self.state in TERMINAL_STATES

    def _changed(self) -> None:
        if self.on_change is not None:
            self.on_change(self)

    def emit(self, event: Dict[str, Any]) -> None:
        with self.condition:
            self.events.append(dict(event, job_id=self.id))
            self.condition.notify_all()
        self._changed()

    def set_state(self, state: str) -> None:
        assert state in JOB_STATES
        with self.condition:
            self.state = state
        self.emit({"event": "state", "state": state})

    def finish(
        self,
        state: str,
        error: Optional[str] = None,
        report: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Flip to a terminal state and append the final ``done`` event
        in one critical section, so a streaming consumer can never see
        the job finished without its last event."""
        assert state in TERMINAL_STATES
        with self.condition:
            self.error = error
            self.report_summary = report
            self.state = state
            self.events.append(
                {
                    "event": "done",
                    "state": state,
                    "error": error,
                    "report": report,
                    "job_id": self.id,
                }
            )
            self.condition.notify_all()
        self._changed()

    def status(self) -> Dict[str, Any]:
        with self.condition:
            return {
                "job_id": self.id,
                "kind": self.spec.kind,
                "state": self.state,
                "events": len(self.events),
                "violations": self.violations,
                "error": self.error,
                "report": self.report_summary,
            }

    def snapshot(self) -> Dict[str, Any]:
        """The persistable job record a restarted service rebuilds
        from; everything JSON-ready."""
        with self.condition:
            return {
                "job_id": self.id,
                "spec": self.spec.to_dict(),
                "state": self.state,
                "submitted_at": self.submitted_at,
                "events": list(self.events),
                "violations": self.violations,
                "error": self.error,
                "report": self.report_summary,
            }


class CampaignService:
    """In-process job queue over the :mod:`repro.api` facade.

    ``max_parallel_jobs`` bounds how many jobs *run* concurrently; each
    job still fans out its own worker processes, so size the bound for
    the host (one running job per core group, typically).
    ``max_queued_jobs`` (``None`` = unbounded, the legacy behavior)
    bounds the pending backlog — a full service rejects ``submit`` with
    :class:`ServiceBusy` instead of queueing without limit. With a
    ``state_dir`` the job table survives a crash: see the module
    docstring's crash-safety notes.
    """

    def __init__(
        self,
        max_parallel_jobs: int = 1,
        max_queued_jobs: Optional[int] = None,
        state_dir: Optional[str] = None,
    ) -> None:
        if max_parallel_jobs < 1:
            raise ValueError("max_parallel_jobs must be >= 1")
        if max_queued_jobs is not None and max_queued_jobs < 0:
            raise ValueError("max_queued_jobs must be >= 0")
        self.max_parallel_jobs = max_parallel_jobs
        self.max_queued_jobs = max_queued_jobs
        self._jobs: Dict[str, Job] = {}
        self._lock = threading.Lock()
        self._counter = itertools.count(1)
        self._executor = ThreadPoolExecutor(
            max_workers=max_parallel_jobs,
            thread_name_prefix="campaign-job",
        )
        self.state = ServiceState(state_dir) if state_dir else None
        #: job ids rebuilt from the state dir at startup, terminal and
        #: interrupted alike (the latter are resubmitted)
        self.recovered_jobs: List[str] = []
        if self.state is not None:
            self._recover()

    # -- API ----------------------------------------------------------

    def submit(self, spec: Any) -> str:
        """Queue one job; returns its id immediately.

        Raises :class:`ServiceBusy` when the bounded queue is full —
        the ``retry_after`` hint scales with the backlog, so callers
        back off harder the deeper the queue.
        """
        if isinstance(spec, Mapping):
            spec = JobSpec.from_dict(spec)
        if not isinstance(spec, JobSpec):
            raise ValueError(
                f"expected a JobSpec or mapping, got {type(spec).__name__}"
            )
        with self._lock:
            if self.max_queued_jobs is not None:
                active = sum(
                    1 for job in self._jobs.values() if not job.finished
                )
                capacity = self.max_parallel_jobs + self.max_queued_jobs
                if active >= capacity:
                    raise ServiceBusy(
                        retry_after=float(
                            max(1, active - self.max_parallel_jobs + 1)
                        )
                    )
            job_id = f"job-{next(self._counter):04d}-{uuid.uuid4().hex[:8]}"
            job = Job(job_id, spec)
            self._install(job)
            self._jobs[job_id] = job
        self._persist(job)
        self._executor.submit(self._run, job)
        return job_id

    def cancel(self, job_id: str) -> Dict[str, Any]:
        """Request cooperative cancellation; returns the job's status.

        Idempotent: cancelling a finished job changes nothing, and
        repeated cancels of a running job just re-set the flag. The
        engines stop at their next measurement-batch boundary, so the
        terminal ``cancelled`` state lands shortly after, not
        instantly.
        """
        job = self._get(job_id)
        if not job.finished:
            job.cancel_event.set()
        return job.status()

    def status(self, job_id: str) -> Dict[str, Any]:
        return self._get(job_id).status()

    def jobs(self) -> List[Dict[str, Any]]:
        with self._lock:
            jobs = list(self._jobs.values())
        return [job.status() for job in sorted(jobs, key=lambda j: j.id)]

    def results(
        self,
        job_id: str,
        start: int = 0,
        wait: bool = True,
        heartbeat_s: Optional[float] = None,
        should_stop: Optional[Callable[[], bool]] = None,
    ) -> Iterator[Dict[str, Any]]:
        """Yield the job's events from index ``start``.

        With ``wait=True`` the iterator follows a running job until its
        final ``done`` event; with ``wait=False`` it returns whatever
        has accumulated so far. ``heartbeat_s`` bounds how long a
        waiting iterator stays silent: whenever that many seconds pass
        without a real event, a ``{"event": "heartbeat"}`` sentinel is
        yielded (the server turns it into a keepalive line; it is not
        part of the job's event log and never advances ``start``
        offsets). ``should_stop`` ends the stream early — the server's
        drain path uses it to unblock waiting consumers at shutdown.
        """
        job = self._get(job_id)
        index = max(0, start)
        while True:
            if should_stop is not None and should_stop():
                return
            with job.condition:
                deadline = (
                    time.monotonic() + heartbeat_s
                    if heartbeat_s is not None
                    else None
                )
                while (
                    wait and index >= len(job.events) and not job.finished
                ):
                    if should_stop is not None and should_stop():
                        return
                    if (
                        deadline is not None
                        and time.monotonic() >= deadline
                    ):
                        break
                    job.condition.wait(0.2)
                batch = list(job.events[index:])
                drained = job.finished or not wait
            if not batch and wait and not drained:
                # heartbeat interval elapsed with nothing to stream
                yield {"event": "heartbeat", "job_id": job_id}
                continue
            for event in batch:
                yield event
            index += len(batch)
            if drained and not batch:
                return
            if not wait:
                return

    def shutdown(self, wait: bool = True) -> None:
        self._executor.shutdown(wait=wait)

    # -- persistence / recovery ---------------------------------------

    def _install(self, job: Job) -> None:
        if self.state is not None:
            job.on_change = self._persist

    def _persist(self, job: Job) -> None:
        if self.state is not None:
            self.state.save_job(job.snapshot())

    def _recover(self) -> None:
        """Rebuild the job table from the state dir.

        Terminal jobs come back as queryable history. Interrupted jobs
        (``pending``/``running`` at crash time) are resubmitted with a
        fresh event log; when the job's campaign journal was already
        started, ``resume`` is flipped on so the re-run replays its
        checkpoints and converges on the same report the uninterrupted
        run would have produced.
        """
        assert self.state is not None
        max_index = 0
        for payload in self.state.load_jobs():
            job_id = str(payload["job_id"])
            try:
                max_index = max(max_index, int(job_id.split("-")[1]))
            except (IndexError, ValueError):
                pass
            try:
                spec = JobSpec.from_dict(payload.get("spec") or {})
            except (TypeError, ValueError) as error:
                logger.warning(
                    "skipping job %s from the state dir: unparseable "
                    "spec (%s)", job_id, error,
                )
                continue
            state = payload.get("state")
            job = Job(job_id, spec)
            job.submitted_at = payload.get(
                "submitted_at", job.submitted_at
            )
            if state in TERMINAL_STATES:
                job.state = state
                job.error = payload.get("error")
                job.report_summary = payload.get("report")
                job.violations = int(payload.get("violations") or 0)
                events = payload.get("events")
                if isinstance(events, list):
                    job.events = [e for e in events if isinstance(e, dict)]
                self._install(job)
                self._jobs[job_id] = job
                self.recovered_jobs.append(job_id)
                continue
            # interrupted: resubmit, resuming from the journal when one
            # was started (its spec.json is the started marker)
            if (
                spec.journal_dir
                and not spec.resume
                and os.path.exists(
                    os.path.join(spec.journal_dir, "spec.json")
                )
            ):
                spec.resume = True
            self._install(job)
            job.emit({"event": "recovered", "previous_state": state})
            self._jobs[job_id] = job
            self.recovered_jobs.append(job_id)
            self._persist(job)
            self._executor.submit(self._run, job)
        self._counter = itertools.count(max_index + 1)

    # -- execution ----------------------------------------------------

    def _get(self, job_id: str) -> Job:
        with self._lock:
            try:
                return self._jobs[job_id]
            except KeyError:
                raise KeyError(f"unknown job id {job_id!r}") from None

    def _run(self, job: Job) -> None:
        if job.cancel_event.is_set():
            # cancelled while still queued: never ran, no partial work
            job.finish("cancelled", error="cancelled before start")
            return
        deadline: Optional[float] = None
        if job.spec.deadline_s is not None:
            deadline = time.monotonic() + job.spec.deadline_s

        def stop_reason() -> Optional[str]:
            if job.cancel_event.is_set():
                return "cancelled"
            if deadline is not None and time.monotonic() >= deadline:
                return "timeout"
            return None

        def should_stop() -> bool:
            return stop_reason() is not None

        job.set_state("running")
        try:
            runner = {
                "fuzz": self._run_fuzz,
                "campaign": self._run_campaign,
                "sweep": self._run_sweep,
            }[job.spec.kind]
            summary = runner(job, should_stop)
        except api.CampaignCancelled as stop:
            # the engines unwound cooperatively: worker pools are joined
            # and journaled checkpoints survive for a later resume
            job.finish(stop_reason() or "cancelled", error=str(stop))
        except BaseException:
            job.finish("failed", error=traceback.format_exc())
        else:
            job.finish("done", report=summary)

    def _record_violation(
        self, job: Job, violation: Optional[Violation], **context: Any
    ) -> None:
        if violation is None:
            return
        with job.condition:
            job.violations += 1
        job.emit(
            {
                "event": "violation",
                "record": violation_record(violation),
                **context,
            }
        )

    def _run_fuzz(self, job: Job, should_stop) -> Dict[str, Any]:
        report = api.run_fuzz(job.spec.options, should_stop=should_stop)
        if report.cancelled:
            # single-process fuzzing returns a partial report instead of
            # raising; normalize to the campaign-style signal so _run
            # maps it to the right terminal state
            raise api.CampaignCancelled(
                f"fuzz stopped after {report.test_cases} test case(s)"
            )
        self._record_violation(job, report.violation)
        return {
            "kind": "fuzz",
            "found": report.found,
            "test_cases": report.test_cases,
            "inputs_tested": report.inputs_tested,
        }

    def _run_campaign(self, job: Job, should_stop) -> Dict[str, Any]:
        spec = job.spec
        report = api.run_campaign(
            spec.options,
            workers=spec.workers,
            shards=spec.shards,
            mode=spec.mode,
            journal_dir=spec.journal_dir,
            resume=spec.resume,
            should_stop=should_stop,
        )
        self._record_violation(
            job, report.violation, winning_shard=report.winning_shard
        )
        return {
            "kind": "campaign",
            "found": report.found,
            "test_cases": report.merged.test_cases,
            "inputs_tested": report.merged.inputs_tested,
            "shards": report.shards,
            "digest": report.report_digest(),
        }

    def _run_sweep(self, job: Job, should_stop) -> Dict[str, Any]:
        spec = job.spec

        def progress(cell, campaign) -> None:
            job.emit(
                {
                    "event": "cell",
                    "cell": cell.label,
                    "found": campaign.found,
                    "test_cases": campaign.merged.test_cases,
                }
            )
            self._record_violation(
                job, campaign.violation, cell=cell.label
            )

        report = api.run_sweep(
            spec.options,
            arches=spec.arches,
            contracts=spec.contracts,
            cpus=spec.cpus,
            workers=spec.workers,
            shards=spec.shards,
            mode=spec.mode,
            total_budget=spec.total_budget,
            journal_dir=spec.journal_dir,
            resume=spec.resume,
            progress=progress,
            should_stop=should_stop,
        )
        return {
            "kind": "sweep",
            "cells": len(report.results),
            "violations_found": report.violations_found,
            "digest": report.report_digest(),
        }
