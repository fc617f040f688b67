"""A fixed reference kernel that gauges how fast the host runs right now.

The host's speed drifts: other tenants of the machine slow every
process in this VM by up to 2x, for minutes at a time and also from
one tenth of a second to the next (measured on a 2-vCPU x86-64 VM).
While a sample runs, a :class:`Gauge` times a short slice of
:func:`kernel` every ``INTERVAL_S`` CPU seconds of its process, so the
run's seconds can be scaled to what they would be at a fixed host speed
(:data:`REFERENCE_S`). The kernel is small, frozen, pure-Python work of
the kind the fuzzer does: pseudo-random bits, register and memory
tables, an LRU cache set of small objects. Nothing here depends on
``repro``, so a change to the program under test leaves the kernel's
cost unchanged.
"""

from __future__ import annotations

import gc
import random
import signal
import statistics
import time

#: kernel iterations of one reading
STEPS = 1600
#: one reading's CPU seconds on a quiet 2-vCPU x86-64 VM. Scaled times
#: are seconds of that host; this is a unit, fixed for good, not a
#: measurement to redo per commit
REFERENCE_S = 0.001
#: CPU seconds of the process between two readings
INTERVAL_S = 0.04
#: readings taken at once before and after a run that is not gauged
#: while it runs
BURST = 20


class _Line:
    __slots__ = ("tag", "dirty")

    def __init__(self, tag: int) -> None:
        self.tag = tag
        self.dirty = False


def kernel() -> int:
    rng = random.Random(20240611)
    regs = [0] * 16
    memory = {}
    sets = [[] for _ in range(64)]
    checksum = 0
    for step in range(STEPS):
        bits = rng.getrandbits(24)
        reg = bits & 15
        value = (regs[reg] + (bits >> 4)) & 0xFFFFFFFF
        regs[reg] = value
        address = value & 0x3FFF
        if bits & 0x10:
            memory[address] = memory.get(address, 0) ^ value
        else:
            value ^= memory.get(address, step)
        lines = sets[(address >> 6) & 63]
        tag = address >> 12
        for line in lines:
            if line.tag == tag:
                line.dirty = True
                break
        else:
            if len(lines) == 8:
                lines.pop(0)
            lines.append(_Line(tag))
        checksum = (checksum * 31 + value) & 0xFFFFFFFF
    return checksum


def speed(readings) -> float:
    """The host's mean speed over ``readings`` (kernel seconds), as a
    share of the reference host's: a time times this is in seconds of
    that host. Readings are spread evenly over the process's CPU time,
    so their mean speed is the speed at which its work ran."""
    return statistics.mean(REFERENCE_S / reading for reading in readings)


class Gauge:
    """Reads the kernel every ``INTERVAL_S`` CPU seconds of this
    process, from a ``SIGPROF`` handler, while the program runs on.
    The collector is off during a reading, so the size of the
    program's heap does not count. Readings are in CPU seconds of the
    main thread, the one that runs the campaign: while a process-wide
    CPU timer is armed, Linux updates the process's CPU clock only at
    scheduler ticks, too coarse for a millisecond's reading."""

    def __init__(self) -> None:
        self.readings: list = []
        self._busy = False

    def spent(self) -> float:
        """CPU seconds the readings took, to take off the process's."""
        return sum(self.readings)

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self._read)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def stop(self) -> list:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_IGN)
        return self.readings

    def burst(self) -> None:
        """Take ``BURST`` readings now, for a run that is not gauged
        while it runs (a traced one)."""
        for _ in range(BURST):
            self._read(None, None)

    def _read(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.thread_time()
            kernel()
            self.readings.append(time.thread_time() - start)
        finally:
            if enabled:
                gc.enable()
            self._busy = False
