"""Hyperbolic weights on frequency 4-tuples and the 3/2 dominance inequality.

For frequencies ``(tau, xi)`` of a product and ``(lambda, eta)`` of its first
factor, the three weights

    Gamma   = |tau| - |xi|,
    Theta+  = lambda + eta,
    Sigma-  = lambda - tau - (eta - xi),

measure the distance of each function to its characteristic line.  The key
algebraic fact verified here is

    min(|eta|, |eta - xi|) <= (3/2) max(|Gamma|, |Theta+|, |Sigma-|),

which lets a power of the smaller input frequency be traded against one of
the hyperbolic weights in bilinear estimates.  It follows from the exact
sign-split identity

    Gamma = Theta+ - Sigma- - (2 eta - xi + |xi|)    (tau >= 0),
    Gamma = -Theta+ + Sigma- + (2 eta - xi - |xi|)   (tau <= 0),

whose parenthesized terms equal ``2 eta`` or ``2 (eta - xi)`` depending on
the sign of xi.

All functions are vectorized over numpy arrays.  ``sample_margins`` builds the
weights once per chunk; the three margin functions are its tested reference.
Every sweep runs its sample stream as two halves on two threads, the caller's
and one worker's, each half drawing from its own generator: a copy of the
seed's generator advanced by 4 draws per sample before the half.  Memory is
O(two chunks), and each seed gives the same statistics bit for bit as one
serial stream.
"""

from __future__ import annotations

import copy
import threading
from typing import NamedTuple

import numpy as np

from ._checks import finite_real, sample_count

# Share of a ``sample_margins`` budget spent on each corner manifold.
CORNER_FRACTION = 0.1
# Corners as (row, source row or None for 0, sign): tau = +-xi, eta = 0, eta = xi, xi = 0.
_CORNERS = ((0, 1, 1.0), (0, 1, -1.0), (3, None, 0.0), (3, 1, 1.0), (1, None, 0.0))
_CHUNK = 2**14  # 4-tuples per sample_margins chunk: 128 KB per float64 column
_MAX_SAMPLES = 2 * 10**8  # about 7 s of sample_margins on a 2-core x86-64 host, 11 s on one core


class WeightTriple(NamedTuple):
    gamma: np.ndarray
    theta_plus: np.ndarray
    sigma_minus: np.ndarray


def weights(tau, xi, lam, eta) -> WeightTriple:
    """Evaluate (Gamma, Theta+, Sigma-) componentwise."""
    tau, xi, lam, eta = (np.asarray(v, dtype=float) for v in (tau, xi, lam, eta))
    gamma = np.abs(tau) - np.abs(xi)
    theta_plus = lam + eta
    sigma_minus = lam - tau - (eta - xi)
    return WeightTriple(gamma, theta_plus, sigma_minus)


def dominance_margin(tau, xi, lam, eta) -> np.ndarray:
    """(3/2) max(|Gamma|, |Theta+|, |Sigma-|) - min(|eta|, |eta - xi|).

    Nonnegative for every real 4-tuple.
    """
    tau, xi, lam, eta = (np.asarray(v, dtype=float) for v in (tau, xi, lam, eta))
    g, tp, sm = weights(tau, xi, lam, eta)
    biggest = np.maximum(np.abs(g), np.maximum(np.abs(tp), np.abs(sm)))
    smallest = np.minimum(np.abs(eta), np.abs(eta - xi))
    return 1.5 * biggest - smallest


def sign_split_residual(tau, xi, lam, eta) -> np.ndarray:
    """Absolute defect of the sign-split identity; identically zero up to roundoff.

    For ``tau >= 0`` checks ``Gamma = Theta+ - Sigma- - (2 eta - xi + |xi|)``;
    for ``tau <= 0`` the mirrored identity.  At ``tau = 0`` both branches hold
    and the larger of the two residuals is returned.
    """
    tau, xi, lam, eta = (np.asarray(v, dtype=float) for v in (tau, xi, lam, eta))
    g, tp, sm = weights(tau, xi, lam, eta)
    res_pos = np.abs(g - (tp - sm - (2 * eta - xi + np.abs(xi))))
    res_neg = np.abs(g - (-tp + sm + (2 * eta - xi - np.abs(xi))))
    zero_tau = tau == 0
    out = np.where(tau >= 0, res_pos, res_neg)
    return np.where(zero_tau, np.maximum(res_pos, res_neg), out)


def sum_bound_margin(tau, xi, lam, eta) -> np.ndarray:
    """|Gamma| + |Theta+| + |Sigma-| - 2 min(|eta|, |eta - xi|), nonnegative."""
    tau, xi, lam, eta = (np.asarray(v, dtype=float) for v in (tau, xi, lam, eta))
    g, tp, sm = weights(tau, xi, lam, eta)
    smallest = np.minimum(np.abs(eta), np.abs(eta - xi))
    return np.abs(g) + np.abs(tp) + np.abs(sm) - 2 * smallest


def _chunk_stats(cols: np.ndarray) -> dict[str, float]:
    """The six ``sample_margins`` statistics of a (4, n) chunk of (tau, xi, lam, eta).

    One pass with the floating-point operations of the three public functions,
    in their order, so each statistic equals theirs bit for bit.  Results
    overwrite arrays no longer needed, since each fresh temporary costs page
    faults.  The residual takes the branch tau's sign selects, ``|g - s
    ((Theta+ - Sigma-) - (2 eta - xi + s |xi|))|`` with s = +-1 (negating a
    branch is exact), and the larger of both branches at tau = +-0.
    """
    tau, xi, lam, eta = cols
    # gamma, smallest and scale start as |tau|, |eta| and |lam|.
    abs_xi, gamma, smallest, scale = np.abs(xi), np.abs(tau), np.abs(eta), np.abs(lam)
    for w in (abs_xi, gamma, smallest):
        np.maximum(scale, w, out=scale)
    scale += 1.0
    gamma -= abs_xi
    eta_minus_xi = eta - xi
    sigma = lam - tau
    sigma -= eta_minus_xi
    np.minimum(smallest, np.abs(eta_minus_xi, out=eta_minus_xi), out=smallest)
    theta = np.add(lam, eta, out=eta_minus_xi)
    split, two_eta_minus_xi = theta - sigma, 2 * eta - xi

    def residual(sign):
        inner = sign * abs_xi
        inner += two_eta_minus_xi
        np.subtract(split, inner, out=inner)
        inner *= sign
        return np.abs(np.subtract(gamma, inner, out=inner), out=inner)

    res = residual(np.copysign(1.0, tau))
    zero_tau = tau == 0
    if zero_tau.any():
        res = np.where(zero_tau, np.maximum(residual(1.0), residual(-1.0)), res)
    abs_gamma, abs_theta, abs_sigma = (np.abs(w, out=w) for w in (gamma, theta, sigma))
    margin = np.maximum(abs_gamma, np.maximum(abs_theta, abs_sigma, out=split), out=split)
    margin *= 1.5
    margin -= smallest
    sum_margin = np.add(abs_gamma, abs_theta, out=abs_gamma)
    sum_margin += abs_sigma
    sum_margin -= np.multiply(2, smallest, out=smallest)
    return {
        "min_margin": margin.min(),
        "max_margin": margin.max(),
        "min_relative_margin": np.divide(margin, scale, out=abs_theta).min(),
        "max_relative_residual": np.divide(res, scale, out=res).max(),
        "min_sum_bound_margin": sum_margin.min(),
        "min_relative_sum_bound_margin": np.divide(sum_margin, scale, out=abs_sigma).min(),
    }


def _halves(n_samples: int) -> tuple[list, list]:
    """The sweep's chunks in stream order, as (corner, size) with corner None
    for the bulk, cut into two contiguous halves; the first takes the middle
    chunk of an odd count, so a sweep of one chunk is all first half."""
    n_corner = int(n_samples * CORNER_FRACTION)
    blocks = [(None, n_samples - 5 * n_corner)] + [(c, n_corner) for c in _CORNERS]
    chunks = [(corner, min(_CHUNK, size - start)) for corner, size in blocks for start in range(0, size, _CHUNK)]
    cut = (len(chunks) + 1) // 2
    return chunks[:cut], chunks[cut:]


def _fold(stats: dict[str, float], part: dict[str, float]) -> None:
    """Fold ``part`` into ``stats``: max for the ``max_*`` statistics, min for the others."""
    for key, value in part.items():
        fold = np.maximum if key.startswith("max") else np.minimum
        stats[key] = float(fold(stats.get(key, value), value))


def _sweep(chunks: list, rng: np.random.Generator, box: float, stop: threading.Event) -> dict[str, float]:
    """The folded statistics of ``chunks``, each drawn from ``rng`` in turn.

    Returns early, with what it has, once ``stop`` is set before a chunk, and
    sets ``stop`` when it raises, so that the other half stops too.
    """
    stats: dict[str, float] = {}
    try:
        for corner, size in chunks:
            if stop.is_set():
                break
            cols = rng.uniform(-box, box, size=(size, 4)).T.copy()
            if corner is not None:
                row, source, sign = corner
                cols[row] = 0.0 if source is None else sign * cols[source]
            _fold(stats, _chunk_stats(cols))
    except BaseException:
        stop.set()
        raise
    return stats


def sample_margins(n_samples: int, seed: int = 0, box: float = 1e3) -> dict[str, float]:
    """Monte-Carlo sweep of the inequality over [-box, box]^4 plus corner manifolds.

    The near-tight cases of the inequality live where ``tau = +-xi`` and
    ``eta in {0, xi}``, so a ``CORNER_FRACTION`` of the budget is spent on
    each of those manifolds (and on ``xi = 0``) rather than on the bulk.
    Samples are streamed in chunks of ``_CHUNK`` 4-tuples that continue one
    generator stream, and each seed gives the same samples as one whole-array
    draw.  The stream runs as two halves, each a contiguous run of chunks: the
    calling thread sweeps the first from ``default_rng(seed)``, and one worker
    thread the second from a copy of that generator advanced by 4 draws per
    sample before it (``uniform`` takes one 64-bit output per double).  Memory
    is O(two chunks), one per thread.  The statistics are folded by min and
    max, which do not depend on order, so the result is that of one serial
    stream bit for bit.  A sweep of one chunk leaves the worker an empty
    half, which gives no statistics.  An error in either half stops the other
    at its next chunk and is raised here.

    One pass per chunk builds the weights once and matches
    ``dominance_margin``, ``sum_bound_margin`` and ``sign_split_residual``
    bit for bit; those three are the reference the sweep is tested against.

    Returns min/max margin, the max identity residual relative to the scale
    of the inputs, and the min margin of the summed bound, both absolute and
    relative to that scale (the absolute one reads roundoff as about -1e-13
    at the default box).  ``n_samples`` is an integer from 1 to
    ``_MAX_SAMPLES``, a cap on run time (about 7 s on two cores).
    """
    sample_count(n_samples, _MAX_SAMPLES)
    # The largest intermediate is 1.5 max(|Gamma|, |Theta+|, |Sigma-|), and
    # |Sigma-| <= 4 box, so the sweep stays finite only while 6 box does.
    if not (finite_real(box) and 0 < 6 * float(box) < np.inf):
        raise ValueError("box must be a positive real number, with 6 * box finite")
    first, second = _halves(n_samples)
    rng = np.random.default_rng(seed)
    stop = threading.Event()
    # Imported here: concurrent.futures (with logging) adds about 8 ms to start-up.
    from concurrent.futures import ThreadPoolExecutor

    ahead = copy.deepcopy(rng.bit_generator).advance(4 * sum(size for _, size in first))
    with ThreadPoolExecutor(1) as pool:
        later = pool.submit(_sweep, second, np.random.Generator(ahead), box, stop)
        stats = _sweep(first, rng, box, stop)
    _fold(stats, later.result())
    return {"samples": int(n_samples), **stats}
