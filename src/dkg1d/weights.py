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

All functions are vectorized over numpy arrays.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

# Share of a ``sample_margins`` budget spent on each corner manifold.
CORNER_FRACTION = 0.1


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


def sample_margins(n_samples: int, seed: int = 0, box: float = 1e3) -> dict[str, float]:
    """Monte-Carlo sweep of the inequality over [-box, box]^4 plus corner manifolds.

    The near-tight cases of the inequality live where ``tau = +-xi`` and
    ``eta in {0, xi}``, so a ``CORNER_FRACTION`` of the budget is spent on
    each of those manifolds (and on ``xi = 0``) rather than on the bulk.

    Returns min/max margin, the max identity residual relative to the scale
    of the inputs, and the min margin of the summed bound, both absolute and
    relative to that scale (the absolute one reads roundoff as about -1e-13
    at the default box).
    """
    rng = np.random.default_rng(seed)
    n_corner = int(n_samples * CORNER_FRACTION)
    n_bulk = n_samples - 5 * n_corner

    samples = [rng.uniform(-box, box, size=(n_bulk, 4))]
    for kind in range(5):
        block = rng.uniform(-box, box, size=(n_corner, 4))
        if kind == 0:
            block[:, 0] = block[:, 1]          # tau = xi
        elif kind == 1:
            block[:, 0] = -block[:, 1]         # tau = -xi
        elif kind == 2:
            block[:, 3] = 0.0                  # eta = 0
        elif kind == 3:
            block[:, 3] = block[:, 1]          # eta = xi
        else:
            block[:, 1] = 0.0                  # xi = 0
        samples.append(block)
    pts = np.concatenate(samples, axis=0)
    tau, xi, lam, eta = pts[:, 0], pts[:, 1], pts[:, 2], pts[:, 3]

    margin = dominance_margin(tau, xi, lam, eta)
    residual = sign_split_residual(tau, xi, lam, eta)
    scale = np.abs(pts).max(axis=1) + 1.0
    sum_margin = sum_bound_margin(tau, xi, lam, eta)
    return {
        "samples": int(pts.shape[0]),
        "min_margin": float(margin.min()),
        "max_margin": float(margin.max()),
        "min_relative_margin": float((margin / scale).min()),
        "max_relative_residual": float((residual / scale).max()),
        "min_sum_bound_margin": float(sum_margin.min()),
        "min_relative_sum_bound_margin": float((sum_margin / scale).min()),
    }
