"""Host-speed meter for the untraced units.

The benchmark runs on a few cores of a shared host, and the speed of a core
swings by up to 1.8x within seconds as the host's other work comes and goes
(a fixed pure-Python loop took 5 ms or 8.5 ms on the same core a second
apart, with process CPU time equal to wall time; the two cores swing
independently). Wall times of a 20-second simulation then differ by a
quarter from run to run of the same inputs.

The meter takes that out. From a SIGALRM handler it runs a fixed reference
loop every `INTERVAL_S` of wall time in the measured process itself, so on
the same core and next to the program's own work. `Meter.seconds(t0, t1)`
returns the program's time between t0 and t1 with the loop's own time left
out and each gap between two loop samples scaled by `NOMINAL_S` over the
mean time of those two samples: seconds at the speed at which the loop takes
`NOMINAL_S`, its time on an uncontended core of the host the baseline was
made on (2-vCPU KVM Xeon, Python 3.11). Time before the first sample is
scaled by the first sample, time after the last by the last. Moving work
into or out of the program moves this time as it moves wall time; only the
host's speed is divided out. It does so only in part: when the loop runs at
8 ms rather than 4.5 ms the simulations slow a little more than the loop,
and the same input reads 5-12% higher, against 20-75% on the wall clock.
Times are on `time.monotonic`, the clock the parent process stamps a unit's
start with.
"""

from __future__ import annotations

import signal
import statistics
import time

NOMINAL_S = 0.005
INTERVAL_S = 0.04


def reference_loop() -> int:
    """A fixed pure-Python load of dict and integer operations, as the
    simulation's sweeps are made of; about 5 ms, resident in L1."""
    table: dict[int, int] = {}
    acc = 0
    for i in range(20000):
        k = (i * 7919) % 4093
        table[k] = table.get(k, 0) + i
        acc += table[k] & 255
    return acc


class Meter:
    def __init__(self) -> None:
        # (start, end, loop seconds) of every sample; the span start..end is
        # left out of the program's time.
        self.samples: list[tuple[float, float, float]] = []

    def _sample(self, *_args) -> None:
        start = time.monotonic()
        reference_loop()
        end = time.monotonic()
        self.samples.append((start, end, end - start))

    def start(self) -> None:
        # The first call warms the interpreter's specialised bytecode; only
        # the second is taken as a sample, but both are left out.
        start = time.monotonic()
        reference_loop()
        self._sample()
        self.samples[0] = (start, *self.samples[0][1:])
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample()

    def _gaps(self, t0: float, t1: float):
        """Yield (seconds of program time inside [t0, t1], loop seconds that
        time is scaled by) for every stretch between samples."""
        s = self.samples
        stretches = [(float("-inf"), s[0][0], s[0][2])]
        stretches += [(a[1], b[0], (a[2] + b[2]) / 2) for a, b in zip(s, s[1:])]
        stretches.append((s[-1][1], float("inf"), s[-1][2]))
        for begin, end, loop in stretches:
            overlap = min(end, t1) - max(begin, t0)
            if overlap > 0:
                yield overlap, loop

    def seconds(self, t0: float, t1: float) -> float:
        """Program time in [t0, t1] at the nominal speed."""
        return sum(dt * NOMINAL_S / loop for dt, loop in self._gaps(t0, t1))

    def wall_seconds(self, t0: float, t1: float) -> float:
        """Program time in [t0, t1] on the wall clock, the loop left out."""
        return sum(dt for dt, _ in self._gaps(t0, t1))

    def median_loop_s(self) -> float:
        return statistics.median(loop for _, _, loop in self.samples)
