"""Independent references that the benchmark checks the program against.

Nothing here imports ``dkg1d``: each reference restates the mathematics from
its definition, so that a fault in the program cannot hide in a shared helper.

Strip ratios.  The strip families are 0/1 indicators on the frequency lattice
tau = i/2, xi = j/4 (the default spacings of the counterexample grids).  For
indicators the product transform is a pair count,

    F(u conj v)(k) = cell * #{p in S_u : p - k in S_v} / (2 pi)^2,

with cell = dtau * dxi, so the numerator and both denominators of a ratio
follow from the lattice points of the two strips and their pair offsets, with
no grid and no FFT.
"""

from __future__ import annotations

import math

import numpy as np

DTAU = 0.5
DXI = 0.25
CELL = DTAU * DXI

# Intervals A (u's xi-range) and B (v's xi-range) and the line of v's strip,
# as functions of the scale L; u's strip always lies along tau + xi = 0.
STRIPS = {
    "cond1_ab": (lambda L: (L - 0.5, L + 0.5), lambda L: (L - 1.0, L + 1.0), +1),
    "cond2": (lambda L: (L / 4, L / 2), lambda L: (L / 2, 3 * L / 2), +1),
    "cond3": (lambda L: (L - 0.5, L + 0.5), lambda L: (-1.0, 1.0), +1),
    "cond1_gamma": (lambda L: (L - 1.0, L + 1.0), lambda L: (L - 2.0, L + 2.0), -1),
    "cond4": (lambda L: (L - 1.0, L + 1.0), lambda L: (2 * L - 2.0, 2 * L + 2.0), -1),
}


def delta(family: str, e) -> float:
    """Decay exponent of a family: the ratio scales like L^(-delta)."""
    a, b, c, alpha, beta, gamma = e
    return {
        "cond1_ab": a + b + beta,
        "cond2": a + b + c + beta - 0.5,
        "cond3": a + c,
        "cond1_gamma": a + b + gamma,
        "cond4": a + b + c + gamma,
    }[family]


def necessary_margins(e) -> dict[str, float]:
    """Slack of each necessary condition of the null-form estimate (< 0: violated)."""
    a, b, c, alpha, beta, gamma = e
    return {
        "cond1": a + b + min(alpha, beta, gamma),
        "cond2": a + b + c + min(alpha, beta) - 0.5,
        "cond3": min(a, b) + c,
        "cond4": a + b + c + gamma,
    }


def strip_points(interval, line: int) -> tuple[np.ndarray, np.ndarray]:
    """Lattice indices (i, j) of {xi in interval, |tau + line * xi| <= 1/2}.

    With tau = i/2 and xi = j/4 the strip condition reads |2i + line*j| <= 2,
    which is exact in integers.
    """
    j_lo = math.ceil(interval[0] / DXI)
    j_hi = math.floor(interval[1] / DXI)
    i_list, j_list = [], []
    for j in range(j_lo, j_hi + 1):
        i_lo = math.ceil((-line * j - 2) / 2)
        i_hi = math.floor((-line * j + 2) / 2)
        for i in range(i_lo, i_hi + 1):
            i_list.append(i)
            j_list.append(j)
    return np.array(i_list, dtype=np.int64), np.array(j_list, dtype=np.int64)


def _bracket(x):
    return 1.0 + np.abs(x)


class StripReference:
    """Lattice points and pair-offset counts of one family at one scale L."""

    def __init__(self, family: str, L: float):
        A, B, v_line = STRIPS[family]
        self.u = strip_points(A(L), +1)
        self.v = strip_points(B(L), v_line)
        iu, ju = self.u
        iv, jv = self.v
        di = (iu[:, None] - iv[None, :]).ravel()
        dj = (ju[:, None] - jv[None, :]).ravel()
        span = int(dj.max() - dj.min()) + 1
        keys = (di - di.min()) * span + (dj - dj.min())
        uniq, counts = np.unique(keys, return_counts=True)
        self.k_tau = (uniq // span + di.min()) * DTAU
        self.k_xi = (uniq % span + dj.min()) * DXI
        self.counts = counts.astype(float)

    @property
    def nonzeros(self) -> int:
        return self.u[0].size + self.v[0].size

    def numerator(self, c: float, gamma: float) -> float:
        """H^{-c,-gamma} norm of u conj(v) from the pair counts."""
        w = _bracket(self.k_xi) ** (-c) * _bracket(np.abs(self.k_tau) - np.abs(self.k_xi)) ** (-gamma)
        amp = CELL / (2 * np.pi) ** 2 * self.counts
        return float(np.sqrt(np.sum((w * amp) ** 2) * CELL))

    def denom_u(self, a: float, alpha: float) -> float:
        """X+^{a,alpha} norm of u: weight <xi>^a <tau + xi>^alpha on S_u."""
        tau, xi = self.u[0] * DTAU, self.u[1] * DXI
        w = _bracket(xi) ** a * _bracket(tau + xi) ** alpha
        return float(np.sqrt(np.sum(w**2) * CELL))

    def denom_v(self, b: float, beta: float) -> float:
        """X-^{b,beta} norm of v: weight <xi>^b <tau - xi>^beta on S_v."""
        tau, xi = self.v[0] * DTAU, self.v[1] * DXI
        w = _bracket(xi) ** b * _bracket(tau - xi) ** beta
        return float(np.sqrt(np.sum(w**2) * CELL))

    def terms(self, e) -> tuple[float, float, float]:
        a, b, c, alpha, beta, gamma = e
        return self.numerator(c, gamma), self.denom_u(a, alpha), self.denom_v(b, beta)


def least_squares_slope(L_values, ratios) -> float:
    x = np.log(np.asarray(L_values, dtype=float))
    y = np.log(np.asarray(ratios, dtype=float))
    xm = x - x.mean()
    return float(np.dot(xm, y - y.mean()) / np.dot(xm, xm))


def region_violations(s: float, r: float) -> set[str]:
    """Inequalities of the certified region {s > -1/4, r > 0, |s| <= r <= 1+s} that fail."""
    failed = set()
    if not s > -0.25:
        failed.add("s > -1/4")
    if not r > 0:
        failed.add("r > 0")
    if not abs(s) <= r:
        failed.add("|s| <= r")
    if not r <= 1 + s:
        failed.add("r <= 1+s")
    return failed
