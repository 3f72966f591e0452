"""Host-speed probe: a fixed numpy kernel, timed between operations.

The benchmark runs on shared hosts whose speed drifts for every workload
at once: the probe's own time flips between about 22 and 29 ms for
seconds at a time, and operation times drift with it.  The probe does a
fixed amount of the kind of work the workloads do (a BLAS product and a
symmetric eigendecomposition at the default BLAS threading, normal draws
and elementwise passes) and uses nothing from ``pnormtest``, so a change
to the library leaves its time alone.  ``Adjuster`` runs a block of probe
calls between operations and rescales each operation's time by the host
speed measured just before and just after it, which takes the host's
drift out of the gated metrics.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# probe median, in seconds, on the host where the baseline in NOTES.md was
# measured; adjusted times are operation times at that host speed
NOMINAL_S = 0.030
# a block of probe calls this long runs before the first operation, before
# any operation that starts this long after the previous block, and after
# the last operation
BLOCK_S = 0.4
EVERY_S = 2.0


class HostProbe:
    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._x = rng.standard_normal((1500, 300))
        a = rng.standard_normal((400, 400))
        self._s = a @ a.T
        self._buf = np.empty(400_000)

    def _once(self) -> None:
        self._x.T @ self._x
        np.linalg.eigh(self._s)
        np.random.default_rng(1).standard_normal(out=self._buf)
        np.abs(self._buf, out=self._buf)
        np.sqrt(self._buf, out=self._buf)

    def block(self) -> list[float]:
        """Times probe calls for BLOCK_S seconds; the first call is not timed."""
        self._once()
        times = []
        start = time.perf_counter()
        while time.perf_counter() - start < BLOCK_S:
            t = time.perf_counter()
            self._once()
            times.append(time.perf_counter() - t)
        return times


class Adjuster:
    """Rescales operation times to the nominal host speed.

    An operation's adjusted time is its time times NOMINAL_S over the mean
    of the probe's median in the block before it and in the block after it.
    """

    def __init__(self) -> None:
        self.probe = HostProbe()
        self.probe_times: list[float] = []
        self.adjusted: list[float] = []
        self._pending: list[float] = []
        self._before = self._block()

    def _block(self) -> float:
        times = self.probe.block()
        self.probe_times += times
        self._last_block = time.perf_counter()
        return statistics.median(times)

    def _flush(self) -> None:
        after = self._block()
        scale = NOMINAL_S / ((self._before + after) / 2)
        self.adjusted += [d * scale for d in self._pending]
        self._pending = []
        self._before = after

    def before_operation(self) -> None:
        if self._pending and time.perf_counter() - self._last_block >= EVERY_S:
            self._flush()

    def add(self, duration: float) -> None:
        self._pending.append(duration)

    def finish(self) -> None:
        if self._pending:
            self._flush()
