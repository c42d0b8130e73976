"""Machine-speed probes, used to express measured times at one reference speed.

On a shared host the speed of a core changes by up to 2x within seconds, as
other tenants load it; a run's raw wall time then says more about the host
than about the program.  A probe is a fixed kernel of this benchmark, so no
change to the program can change its cost.  Each timed stage is bracketed by
two probes, and its time is reported as

    seconds * reference / mean(probe before, probe after),

the stage's duration on a machine where the probe takes ``reference``
seconds.  Compute-bound and memory-bound code slow down by different factors
under the same load, so there are two kernels, and each workload uses the one
that resembles its hot loop:

* ``compute``: small FFTs and transcendentals on 1024 points in a Python loop,
  like a solver step;
* ``memory``: element-wise passes over arrays of 2.5e5 doubles, like the
  weight sweep and the dense weighted norms of the strip ladder.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.fft as sfft

_X = np.exp(2j * np.pi * np.arange(1024) / 1024)
_Y = np.random.default_rng(0).uniform(-1e3, 1e3, (4, 250_000))


def _compute() -> None:
    x = _X
    for _ in range(100):
        x = sfft.ifft(sfft.fft(x) * _X)
        x = np.cos(x.real) + 1j * np.sin(x.imag)


def _memory() -> None:
    a, b, c, d = _Y
    for _ in range(4):
        g = np.abs(a) - np.abs(b)
        m = np.maximum(np.abs(g), np.abs(c + d))
        s = np.minimum(np.abs(d), np.abs(d - b))
        1.5 * m - s


# Kernel and its reference time in seconds (about its time on an idle core).
KERNELS = {"compute": (_compute, 0.005), "memory": (_memory, 0.015)}


class Clock:
    """Times stages, each bracketed by probes, and scales them to the reference speed."""

    def __init__(self, kind: str):
        self._kernel, self.reference = KERNELS[kind]
        self.last = self.probe()

    def probe(self) -> float:
        t0 = time.perf_counter()
        self._kernel()
        return time.perf_counter() - t0

    def measure(self, fn):
        """Run ``fn()``; return (its result, raw seconds, reference seconds)."""
        before = self.last
        t0 = time.perf_counter()
        out = fn()
        raw = time.perf_counter() - t0
        self.last = self.probe()
        return out, raw, raw * self.reference / ((before + self.last) / 2)
