"""Machine-speed calibration for the end-to-end metrics.

On a shared host the same code runs up to a third slower for tens of
seconds at a time while other tenants load the cores, and the speed also
flips within a second. No run length averages that away. So the benchmark
measures the host's current speed alongside the workload: every
``INTERVAL_NS`` (10 ms) it times a calibration loop of about 75 us. The
loop does the kinds of work chebauth does (256-bit modular squaring,
SHA-256, byte-wise XOR through a generator) but calls no chebauth code, so
no change to the library can move it. Each timing is scaled by
``REFERENCE_US / (calibration time around it)``, so it reads as it would on
a host that runs the loop in exactly ``REFERENCE_US``. The loop's own time
is left out of the scaled wall time.
"""

import hashlib
import statistics
from time import perf_counter_ns

#: Calibration loop time, in microseconds, that defines the reference speed:
#: a typical value on a shared 2-vCPU Xeon VM under Python 3.11, where run
#: medians ranged from 45 to 130 us.
REFERENCE_US = 75.0

#: Loop time between calibrations.
INTERVAL_NS = 10_000_000

_P = (1 << 256) - (1 << 32) - 977


def calibration_loop() -> int:
    x = 0x1234567890ABCDEF
    for _ in range(30):
        x = (2 * x * x - 1) % _P
    data = x.to_bytes(32, "big")
    for _ in range(10):
        data = hashlib.sha256(data).digest()
        data = bytes(a ^ b for a, b in zip(data, data[::-1]))
    return data[0]


class SpeedProbe:
    """Tracks the host's speed while a loop runs and scales its timings.

    Call ``start`` before the loop, ``tick`` once per iteration and ``stop``
    after it. An operation timed between two ticks records ``position``,
    the index of the first calibration after it; ``scale_at(position)``
    scales it by the median of the two calibrations before it and the two
    after, and ``stop`` returns the loop's scaled wall time in seconds.
    """

    def __init__(self):
        self.samples_us = []  # every calibration time of this probe, in order
        self._spans = []  # (position, ns) of the loop time between calibrations
        self._mark = 0

    @property
    def position(self) -> int:
        return len(self.samples_us)

    def calibrate(self):
        start = perf_counter_ns()
        calibration_loop()
        self.samples_us.append((perf_counter_ns() - start) / 1e3)

    def scale_at(self, position: int) -> float:
        near = self.samples_us[max(0, position - 2):position + 2]
        return REFERENCE_US / statistics.median(near)

    def start(self):
        self.calibrate()
        self._spans = []
        self._mark = perf_counter_ns()

    def tick(self):
        now = perf_counter_ns()
        if now - self._mark >= INTERVAL_NS:
            self._spans.append((self.position, now - self._mark))
            self.calibrate()
            self._mark = perf_counter_ns()

    def stop(self) -> float:
        self._spans.append((self.position, perf_counter_ns() - self._mark))
        self.calibrate()
        self.calibrate()
        return sum(ns * self.scale_at(position) for position, ns in self._spans) / 1e9
