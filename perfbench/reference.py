"""A fixed reference probe that tells how fast the host runs right now.

The benchmark's host is a few vCPUs of a shared machine whose speed shifts as
a whole: the same code runs up to about 2 times slower for stretches of a
second to several minutes (NOTES.md, "Timing on a shared host").  Wall time
alone then measures the neighbours as much as the program.

The probe is the benchmark's own code and data, so no change to cbfctl moves
it: FFT pairs on the padded 2D grids of n=8 and n=16, and a loop of small
numpy calls that costs interpreter overhead, as cbfctl's solvers do.  Its
arrays stay small, so that it allocates no memory that the C library maps and
unmaps per call; timing that would measure the state of the process's heap,
not the host.

A measured stretch of work is cut into segments by probes taken about every
``PROBE_EVERY_S`` seconds.  Each segment is rescaled by the mean of the two
probes around it,

    normalized seconds = wall seconds * PROBE_S / probe seconds,

and the normalized segments are summed: the work's time on a host where one
probe takes ``PROBE_S``.  The probes' own time is left out.
"""

from __future__ import annotations

import time

import numpy as np

# The unit of the normalized timings: about one probe's time on the 2-vCPU
# Xeon host the benchmark was written on, when nothing slowed it.  Any fixed
# value would do.
PROBE_S = 0.0015
PROBE_EVERY_S = 0.1


class Reference:
    """Times the probe and the segments of work between probes.

    ``start`` opens a measured stretch with a probe, ``tick`` takes the next
    probe once the last is ``PROBE_EVERY_S`` old, and ``stop`` closes the
    stretch with a probe and returns its normalized and wall seconds.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._fields = ((rng.standard_normal((2, 16, 16)), 8), (rng.standard_normal((2, 32, 32)), 4))
        self._vector = rng.standard_normal(16)
        self._open = False
        self._last_end = self._last_probe = 0.0
        self._wall = self._normalized = 0.0
        self._probe()  # fills numpy's FFT plan cache for the probe's shapes

    def _probe(self) -> None:
        t0 = time.perf_counter()
        for field, reps in self._fields:
            for _ in range(reps):
                np.fft.ifft2(np.fft.fft2(field))
        v = self._vector
        for _ in range(200):
            v = np.sqrt(v * v + 1.0) - 1.0
        t1 = time.perf_counter()
        if self._open:
            segment = t0 - self._last_end
            self._wall += segment
            self._normalized += segment * PROBE_S / (0.5 * (self._last_probe + t1 - t0))
        self._last_end, self._last_probe = t1, t1 - t0

    def start(self) -> None:
        self._wall = self._normalized = 0.0
        self._open = False
        self._probe()
        self._open = True

    def tick(self) -> None:
        if self._open and time.perf_counter() - self._last_end >= PROBE_EVERY_S:
            self._probe()

    def stop(self) -> tuple[float, float]:
        self._probe()
        self._open = False
        return self._normalized, self._wall

    def measure(self, fn):
        """Run ``fn()`` as one stretch, probed only at its ends; return its
        normalized seconds, its wall seconds and its result."""
        self.start()
        out = fn()
        normalized, wall = self.stop()
        return normalized, wall, out
