"""Host-speed correction for timings taken on a shared, unsteady machine.

On the 2-vCPU Xeon VM the benchmark was built on, the same pass runs up
to twice as slow from one second to the next, because of other tenants.
A reference measured before and after a pass cannot follow that; a
reference sampled throughout the pass can.  ``Sampler`` times a small
fixed kernel from a SIGALRM handler every ``INTERVAL_S`` while it is
active, and ``corrected`` turns a wall time into seconds at full speed:

    (wall - time spent in the handler) * NOMINAL_S / mean kernel time

The kernel is pure Python that shares no code with confn.  The handler
runs in the main thread between bytecodes, so it sees the speed the
measured code sees.  Only use it around code that runs in the main thread
of this process; children run their own sampler (see probe.py).
"""

from __future__ import annotations

import itertools
import signal
import time

INTERVAL_S = 0.005
# kernel seconds at full speed on the host named above; a scale constant
NOMINAL_S = 0.00025


def _kernel() -> int:
    table = {}
    acc = 0
    for point in itertools.product(range(-2, 3), repeat=3):
        key = tuple(3 * x - 1 for x in point)
        if max(abs(x) for x in point) >= 1:
            acc += sum(a * b for a, b in zip(point, (3, -1, 4)))
        table[key] = acc
    return acc


class Sampler:
    """Samples the kernel's time while active (a context manager)."""

    def __init__(self) -> None:
        self.samples = 0
        self.kernel_s = 0.0
        self.handler_s = 0.0

    def _handle(self, signum, frame) -> None:
        start = time.perf_counter()
        _kernel()
        end = time.perf_counter()
        self.samples += 1
        self.kernel_s += end - start
        self.handler_s += time.perf_counter() - start

    def __enter__(self) -> "Sampler":
        self.samples, self.kernel_s, self.handler_s = 0, 0.0, 0.0
        signal.signal(signal.SIGALRM, self._handle)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        if not self.samples:  # too short for a tick: sample once now
            self._handle(None, None)
            self.handler_s = 0.0

    def stats(self) -> dict:
        return {
            "samples": self.samples,
            "kernel_s": self.kernel_s,
            "handler_s": self.handler_s,
        }


def corrected(wall_s: float, stats: dict) -> float:
    """Seconds at full host speed for ``wall_s`` sampled with ``stats``."""
    mean_kernel = stats["kernel_s"] / stats["samples"]
    return (wall_s - stats["handler_s"]) * NOMINAL_S / mean_kernel
