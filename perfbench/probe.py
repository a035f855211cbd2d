"""Host-speed probe: a fixed piece of work that runs none of the engine.

On a shared virtual machine the host's speed drifts: the same engine
work runs up to a third faster or slower from one stretch of tens of
seconds to the next, with CPU time equal to wall time.  The probe times
a fixed mix of interpreter work and small NumPy array operations, the
kinds of work the engine's hot loops do, again and again while a timing
runs.  A timing divided by the probe's mean slowdown against
:data:`REFERENCE_S` is the *host-adjusted* timing: what it would read on
a host where the probe takes exactly :data:`REFERENCE_S`.  A change to
the engine moves the timing and not the probe, so it still shows.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Probe rounds per timing, and untimed rounds before them.
ROUNDS = 1000
WARMUP_ROUNDS = 200
#: Seconds the probe takes on the reference host (a 2-vCPU Xeon KVM
#: guest takes 0.015-0.03 s, depending on its neighbours).
REFERENCE_S = 0.02
#: Wall seconds of work between two probes while a timing runs.
PERIOD_S = 0.5


def _work(a: np.ndarray, w: np.ndarray, rounds: int) -> None:
    table: dict[int, int] = {}
    for i in range(rounds):
        b = a @ w
        b = np.exp(b - b.max(axis=1, keepdims=True))
        b /= b.sum(axis=1, keepdims=True)
        key = i % 97
        table[key] = (table.get(key, 0) + int(b.argmax())) % 1009
        sorted(str(j) for j in range(20))


def probe() -> float:
    """Seconds the fixed probe work takes now, after an untimed warm-up
    that brings its code and data back into the caches."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((8, 32))
    w = rng.standard_normal((32, 96))
    _work(a, w, WARMUP_ROUNDS)
    started = time.perf_counter()
    _work(a, w, ROUNDS)
    return time.perf_counter() - started


class HostClock:
    """A wall clock for one timing that samples the host's speed as it
    goes: a probe at the start, one at each :meth:`tick` at least
    :data:`PERIOD_S` after the last, and one at :meth:`stop`.  Time spent
    probing is left out of :meth:`elapsed`."""

    def __init__(self) -> None:
        self.probes = [probe()]
        self.paused = 0.0
        self.started = self.last = time.perf_counter()
        self.stopped: float | None = None

    def tick(self) -> None:
        now = time.perf_counter()
        if now - self.last >= PERIOD_S:
            self.probes.append(probe())
            self.last = time.perf_counter()
            self.paused += self.last - now

    def elapsed(self) -> float:
        """Seconds of work so far (until :meth:`stop` once stopped)."""
        end = time.perf_counter() if self.stopped is None else self.stopped
        return end - self.started - self.paused

    def stop(self) -> float:
        """Stop the clock, take the closing probe; returns :meth:`elapsed`."""
        self.stopped = time.perf_counter()
        self.probes.append(probe())
        return self.elapsed()

    @property
    def slowdown(self) -> float:
        """Mean probe time over :data:`REFERENCE_S`: above 1 on a slow host."""
        return statistics.fmean(self.probes) / REFERENCE_S
