"""Deterministic fault injection and shared retry policy.

Long campaigns die in boring ways — a full disk mid-checkpoint, a
worker OOM-killed mid-unit, a client socket reset mid-stream — and the
stack's answer everywhere is graceful degradation: a torn cache entry
is a miss, a failed journal publish is a skipped checkpoint, a dead
worker's unit is requeued. This module turns those claims into tested
invariants by letting a seed-driven :class:`FaultPlan` fire injected
failures at *named sites* instrumented at the real seams:

==================== ====================================================
site                 failure injected there
==================== ====================================================
trace_cache.read     ``OSError`` on a disk-tier read (degrades to miss)
trace_cache.write    ``OSError`` on entry publication (counted no-persist)
trace_cache.torn     the published entry blob is truncated (torn entry)
trace_cache.gc       ``OSError`` during the size-bounded GC pass
journal.publish      ``OSError`` publishing a shard checkpoint record
sweep.unit           a pool worker dies (``os._exit``) mid-unit (campaign
                     or sweep; inline runs never fire it)
sweep.spawn          ``OSError`` spawning a pool worker process
service.event        ``OSError`` persisting a job's state-dir snapshot
server.send          the server drops the client connection mid-response
==================== ====================================================

Activation is env-driven (so forked and spawned workers inherit the
plan) or programmatic (tests):

- ``REPRO_FAULTS`` — comma-separated rules ``site=rate[:count]``; e.g.
  ``trace_cache.torn=0.5,journal.publish=0.25,sweep.unit=1:1``.
- ``REPRO_FAULT_SEED`` — the plan seed (default 0). Firing decisions
  are a pure function of ``(seed, site, per-site counter)``, so a
  fixed seed replays the identical fault pattern.
- ``REPRO_FAULT_DIR`` — optional token directory for ``:count``-limited
  rules. Tokens are claimed with ``O_CREAT|O_EXCL``, so "kill exactly
  one worker" holds across a whole process tree, not per process.

Without a plan every hook is a cheap no-op, so instrumented hot paths
cost one module-level check in production.

:class:`RetryPolicy` is the shared capped-exponential-backoff policy
(deterministic seed-derived jitter) used by the service client's
reconnect-and-resume, the trace cache's disk publication, and the
unit pool's worker respawn.
"""

from __future__ import annotations

import contextlib
import errno
import hashlib
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, Optional, Tuple

_MASK64 = (1 << 64) - 1

#: every site the stack instruments, for spec validation
KNOWN_SITES = (
    "trace_cache.read",
    "trace_cache.write",
    "trace_cache.torn",
    "trace_cache.gc",
    "journal.publish",
    "sweep.unit",
    "sweep.spawn",
    "service.event",
    "server.send",
)

ENV_SPEC = "REPRO_FAULTS"
ENV_SEED = "REPRO_FAULT_SEED"
ENV_TOKEN_DIR = "REPRO_FAULT_DIR"


def _mix(*parts: int) -> int:
    """splitmix64 finalizer folded over the parts — the same stable
    mixing :func:`repro.core.campaign.derive_shard_seed` uses, so fault
    decisions are reproducible across runs, platforms and processes."""
    x = 0x9E3779B97F4A7C15
    for part in parts:
        x = (x ^ (part & _MASK64)) * 0xBF58476D1CE4E5B9 & _MASK64
        x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
        x ^= x >> 31
    return x & _MASK64


def _site_index(site: str) -> int:
    digest = hashlib.sha1(site.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class InjectedFault(OSError):
    """An injected I/O failure (defaults to ``ENOSPC`` semantics)."""

    def __init__(self, site: str, code: int = errno.ENOSPC) -> None:
        super().__init__(code, f"injected fault at {site}")
        self.site = site


@dataclass(frozen=True)
class FaultRule:
    """One site's injection rule: fire with ``rate`` probability per
    hit, at most ``count`` times (None = unbounded)."""

    site: str
    rate: float = 1.0
    count: Optional[int] = None

    def __post_init__(self) -> None:
        if self.site not in KNOWN_SITES:
            raise ValueError(
                f"unknown fault site {self.site!r}; "
                f"known sites: {', '.join(KNOWN_SITES)}"
            )
        if not 0.0 < self.rate <= 1.0:
            raise ValueError(
                f"fault rate for {self.site} must be in (0, 1], "
                f"got {self.rate}"
            )
        if self.count is not None and self.count < 1:
            raise ValueError("fault count must be >= 1 (or None)")


class FaultPlan:
    """A deterministic schedule of injected faults.

    ``should_fire(site)`` consumes one decision from the site's stream:
    hit ``n`` fires iff ``mix(seed, site, n)`` maps below ``rate`` —
    a pure function of the plan seed, so two runs with the same seed
    and the same per-process call sequence inject identical faults.
    ``count``-limited rules additionally claim a token: from
    ``token_dir`` atomically (process-tree-wide budget) or from a local
    counter (per-process budget) when no directory is set.
    """

    def __init__(
        self,
        rules: Dict[str, FaultRule] | Tuple[FaultRule, ...] | list,
        seed: int = 0,
        token_dir: Optional[str] = None,
    ) -> None:
        if not isinstance(rules, dict):
            rules = {rule.site: rule for rule in rules}
        self.rules: Dict[str, FaultRule] = dict(rules)
        self.seed = seed
        self.token_dir = token_dir
        self._counters: Dict[str, int] = {}
        self._fired: Dict[str, int] = {}
        if token_dir is not None:
            os.makedirs(token_dir, exist_ok=True)

    # -- construction -------------------------------------------------

    @classmethod
    def parse(
        cls, spec: str, seed: int = 0, token_dir: Optional[str] = None
    ) -> "FaultPlan":
        """Parse a ``site=rate[:count],...`` spec (the ``REPRO_FAULTS``
        grammar)."""
        rules = []
        for chunk in spec.split(","):
            chunk = chunk.strip()
            if not chunk:
                continue
            site, _, value = chunk.partition("=")
            if not value:
                raise ValueError(
                    f"bad fault rule {chunk!r}: expected site=rate[:count]"
                )
            rate_text, _, count_text = value.partition(":")
            try:
                rate = float(rate_text)
                count = int(count_text) if count_text else None
            except ValueError:
                raise ValueError(
                    f"bad fault rule {chunk!r}: expected site=rate[:count]"
                ) from None
            rules.append(FaultRule(site.strip(), rate, count))
        return cls(rules, seed=seed, token_dir=token_dir)

    @classmethod
    def from_env(cls, environ: Optional[Dict[str, str]] = None
                 ) -> Optional["FaultPlan"]:
        env = os.environ if environ is None else environ
        spec = env.get(ENV_SPEC)
        if not spec:
            return None
        return cls.parse(
            spec,
            seed=int(env.get(ENV_SEED, "0")),
            token_dir=env.get(ENV_TOKEN_DIR) or None,
        )

    def to_spec(self) -> str:
        """The ``REPRO_FAULTS`` string reproducing this plan's rules."""
        parts = []
        for rule in self.rules.values():
            count = f":{rule.count}" if rule.count is not None else ""
            parts.append(f"{rule.site}={rule.rate:g}{count}")
        return ",".join(parts)

    # -- firing -------------------------------------------------------

    def fired(self, site: str) -> int:
        """Faults this plan fired at ``site`` in this process."""
        return self._fired.get(site, 0)

    def should_fire(self, site: str) -> bool:
        rule = self.rules.get(site)
        if rule is None:
            return False
        hit = self._counters.get(site, 0)
        self._counters[site] = hit + 1
        threshold = int(rule.rate * (_MASK64 + 1))
        if _mix(self.seed, _site_index(site), hit) >= threshold:
            return False
        if rule.count is not None and not self._claim(rule):
            return False
        self._fired[site] = self._fired.get(site, 0) + 1
        return True

    def _claim(self, rule: FaultRule) -> bool:
        """Claim one of the rule's ``count`` firing tokens."""
        if self.token_dir is None:
            if self._fired.get(rule.site, 0) >= rule.count:
                return False
            return True
        safe = rule.site.replace("/", "_")
        for index in range(rule.count):
            path = os.path.join(self.token_dir, f"{safe}-{index}.token")
            try:
                descriptor = os.open(
                    path, os.O_CREAT | os.O_EXCL | os.O_WRONLY
                )
            except FileExistsError:
                continue
            except OSError:
                return False
            with os.fdopen(descriptor, "w") as handle:
                handle.write(f"pid={os.getpid()}\n")
            return True
        return False


# -- process-global plan -----------------------------------------------

_installed: Optional[FaultPlan] = None
#: (raw spec env value, plan) cache so hot paths pay one dict lookup
_env_cache: Tuple[Optional[str], Optional[FaultPlan]] = (None, None)


def install_plan(plan: Optional[FaultPlan]) -> None:
    """Install (or with ``None`` clear) the process-wide plan; takes
    precedence over the environment."""
    global _installed
    _installed = plan


@contextlib.contextmanager
def injected(plan: FaultPlan) -> Iterator[FaultPlan]:
    """Context manager installing ``plan`` for the block (tests)."""
    previous = _installed
    install_plan(plan)
    try:
        yield plan
    finally:
        install_plan(previous)


def active_plan() -> Optional[FaultPlan]:
    """The installed plan, else the (cached) environment plan."""
    if _installed is not None:
        return _installed
    global _env_cache
    spec = os.environ.get(ENV_SPEC)
    cached_spec, cached_plan = _env_cache
    if spec != cached_spec:
        cached_plan = FaultPlan.from_env() if spec else None
        _env_cache = (spec, cached_plan)
    return cached_plan


def should_fire(site: str) -> bool:
    """Does the active plan (if any) fire at ``site`` for this hit?"""
    plan = active_plan()
    return plan is not None and plan.should_fire(site)


def inject_oserror(site: str) -> None:
    """Raise :class:`InjectedFault` when the plan fires at ``site``."""
    if should_fire(site):
        raise InjectedFault(site)


def corrupt(site: str, blob: bytes) -> bytes:
    """Return ``blob`` truncated (a torn write) when ``site`` fires."""
    if should_fire(site) and len(blob) > 1:
        return blob[: max(1, len(blob) // 2)]
    return blob


def maybe_exit(site: str, code: int = 137) -> None:
    """Kill the current process (no cleanup — simulating an OOM kill
    or power loss) when the plan fires at ``site``."""
    if should_fire(site):
        os._exit(code)


# -- retry policy ------------------------------------------------------


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff with deterministic seed-derived jitter.

    ``delay(n)`` for retry ``n`` (0-based) is ``base_delay * 2**n``
    capped at ``max_delay``, shrunk by up to ``jitter`` of itself using
    the same splitmix64 stream the fault plans draw from — so two runs
    with the same seed back off identically, and concurrent clients
    with different seeds don't stampede in lockstep.
    """

    attempts: int = 4
    base_delay: float = 0.05
    max_delay: float = 2.0
    jitter: float = 0.5
    seed: int = 0
    #: injectable clock for tests; production uses ``time.sleep``
    sleep: Callable[[float], None] = field(
        default=time.sleep, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ValueError("attempts must be >= 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")

    def delay(self, attempt: int) -> float:
        raw = min(self.max_delay, self.base_delay * (2 ** attempt))
        fraction = _mix(self.seed, attempt) / (_MASK64 + 1)
        return raw * (1.0 - self.jitter * fraction)

    def call(self, fn: Callable[[], object], retry_on=(OSError,)):
        """Run ``fn``, retrying on ``retry_on`` up to ``attempts`` total
        tries with backoff between them; re-raises the last failure."""
        for attempt in range(self.attempts):
            try:
                return fn()
            except retry_on:
                if attempt + 1 >= self.attempts:
                    raise
                self.sleep(self.delay(attempt))
        raise AssertionError("unreachable")  # pragma: no cover


__all__ = [
    "ENV_SEED",
    "ENV_SPEC",
    "ENV_TOKEN_DIR",
    "FaultPlan",
    "FaultRule",
    "InjectedFault",
    "KNOWN_SITES",
    "RetryPolicy",
    "active_plan",
    "corrupt",
    "inject_oserror",
    "injected",
    "install_plan",
    "maybe_exit",
    "should_fire",
]
