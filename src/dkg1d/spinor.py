"""Dirac matrices, eigenprojections and the spinor null form in 1+1 dimensions.

The Dirac operator ``alpha * D_x`` has Fourier symbol ``alpha * xi`` with
eigenvalues ``+-xi``.  We work in the fixed representation

    alpha = [[0, 1], [1, 0]],        beta = [[1, 0], [0, -1]],

both hermitian, with ``alpha^2 = beta^2 = I`` and
``alpha beta + beta alpha = 0``.  The constant projections
``P+- = (I +- alpha) / 2`` diagonalize the symbol; ``pecher_projection``
implements the frequency-dependent alternative ``pi+-(xi)`` that orders the
eigenvalues as ``+-|xi|`` instead.

A spinor is any array whose last axis has length 2 (components ``psi_1``,
``psi_2``); every operation broadcasts over leading axes, so fields of
spinors sampled on a grid are handled in one call.

Convention: the C^2 inner product is conjugate-linear in the *second* slot,
``<u, v> = u_1 conj(v_1) + u_2 conj(v_2)``.  With this choice the quadratic
density ``<beta psi, psi> = |psi_1|^2 - |psi_2|^2`` is real, as required for
it to source a real scalar field.
"""

from __future__ import annotations

import numpy as np

from ._checks import count

ALPHA = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
BETA = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
IDENTITY = np.eye(2, dtype=complex)

P_PLUS = 0.5 * np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex)
P_MINUS = 0.5 * np.array([[1.0, -1.0], [-1.0, 1.0]], dtype=complex)

_CHUNK = 2**13  # spinors per verify_identities chunk: 256 KiB per (k, 2) complex array


def apply_matrix(mat: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """Apply a 2x2 matrix to a spinor (or array of spinors)."""
    psi = np.asarray(psi, dtype=complex)
    return np.einsum("ij,...j->...i", mat, psi)


def decompose(psi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split a spinor into its P+ and P- parts; the parts sum back to psi."""
    psi = np.asarray(psi, dtype=complex)
    return apply_matrix(P_PLUS, psi), apply_matrix(P_MINUS, psi)


def null_form(psi: np.ndarray, psi_prime: np.ndarray) -> np.ndarray:
    """Bilinear form <beta psi, psi'> = psi_1 conj(psi'_1) - psi_2 conj(psi'_2).

    Vanishes identically when both arguments lie in the range of the same
    eigenprojection, which is what makes the Dirac-Klein-Gordon coupling a
    null form.  ``null_form(psi, psi)`` is real.
    """
    psi = np.asarray(psi, dtype=complex)
    psi_prime = np.asarray(psi_prime, dtype=complex)
    return psi[..., 0] * np.conj(psi_prime[..., 0]) - psi[..., 1] * np.conj(
        psi_prime[..., 1]
    )


def sign_convention(xi):
    """sgn(xi) with the fixed tie-break sgn(0) = +1."""
    return np.where(np.asarray(xi) >= 0, 1.0, -1.0)


def pecher_projection(xi, sign: int, psi: np.ndarray) -> np.ndarray:
    """Apply pi_sign(xi) to psi; for xi > 0 this is P_sign, for xi < 0 it is P_-sign.

    ``xi`` may be a scalar or an array broadcasting against the leading axes
    of ``psi``.
    """
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    psi = np.asarray(psi, dtype=complex)
    s = sign * sign_convention(xi)
    c1 = 0.5 * (psi[..., 0] + s * psi[..., 1])
    c2 = 0.5 * (s * psi[..., 0] + psi[..., 1])
    return np.stack([c1, c2], axis=-1)


def _matrix_residuals() -> dict[str, float]:
    mats = {
        "alpha_hermitian": ALPHA - ALPHA.conj().T,
        "beta_hermitian": BETA - BETA.conj().T,
        "alpha_squared": ALPHA @ ALPHA - IDENTITY,
        "beta_squared": BETA @ BETA - IDENTITY,
        "anticommutator": ALPHA @ BETA + BETA @ ALPHA,
        "alpha_is_pplus_minus_pminus": ALPHA - (P_PLUS - P_MINUS),
    }
    return {k: float(np.abs(v).max()) for k, v in mats.items()}


def _chunk_residuals(psi: np.ndarray, psi_p: np.ndarray, xi: np.ndarray) -> dict[str, float]:
    """Max residuals of the identities over one chunk of samples; each residual
    is a per-sample quantity, so a max over chunks is the max over all samples."""
    plus, minus = decompose(psi)
    plus_p, minus_p = decompose(psi_p)
    beta_psi = apply_matrix(BETA, psi)
    res: dict[str, float] = {}
    res["completeness"] = float(np.abs(plus + minus - psi).max())
    res["idempotency"] = max(
        float(np.abs(apply_matrix(P_PLUS, plus) - plus).max()),
        float(np.abs(apply_matrix(P_MINUS, minus) - minus).max()),
    )
    res["orthogonality"] = max(
        float(np.abs(apply_matrix(P_PLUS, minus)).max()),
        float(np.abs(apply_matrix(P_MINUS, plus)).max()),
    )
    res["alpha_eigenrelation"] = max(
        float(np.abs(apply_matrix(ALPHA, plus) - plus).max()),
        float(np.abs(apply_matrix(ALPHA, minus) + minus).max()),
    )
    res["beta_exchange"] = max(
        float(np.abs(apply_matrix(P_PLUS, beta_psi) - apply_matrix(BETA, minus)).max()),
        float(np.abs(apply_matrix(P_MINUS, beta_psi) - apply_matrix(BETA, plus)).max()),
    )

    abs_xi = np.abs(xi)
    xi_scale = np.maximum(1.0, abs_xi)
    pi_res = 0.0
    for sign in (+1, -1):
        proj = pecher_projection(xi, sign, psi)
        pi_res = max(pi_res, float(np.abs(pecher_projection(xi, sign, proj) - proj).max()))
        # (alpha xi) pi_sign psi = sign * |xi| * pi_sign psi, relative to max(1, |xi|)
        lhs = xi[:, None] * apply_matrix(ALPHA, proj)
        rhs = sign * abs_xi[:, None] * proj
        pi_res = max(pi_res, float((np.abs(lhs - rhs).max(axis=-1) / xi_scale).max()))
    res["pecher_relations"] = pi_res

    res["density_real"] = float(np.abs(np.imag(null_form(psi, psi))).max())
    scale = np.linalg.norm(psi, axis=-1) * np.linalg.norm(psi_p, axis=-1)
    scale = np.maximum(scale, 1e-300)
    res["null_form_vanishing"] = max(
        float((np.abs(null_form(plus, plus_p)) / scale).max()),
        float((np.abs(null_form(minus, minus_p)) / scale).max()),
    )
    return res


def verify_identities(n_samples: int = 1000, seed: int = 0) -> dict[str, float]:
    """Max residuals of the projection and matrix identities on random spinors.

    Returned keys cover: completeness (P+ + P- = I acting on psi),
    idempotency, orthogonality, the eigenrelation alpha P+- = +-P+-, the
    exchange identity P+- beta = beta P-+, the pi+-(xi) relations
    (idempotency, and (alpha xi) pi+- = +-|xi| pi+- relative to
    max(1, |xi|) per sample), reality of the quadratic density, null-form
    vanishing on equal ranges, and the constant matrix algebra.  All
    residuals are exact algebra and sit at roundoff.

    Samples are streamed in chunks of ``_CHUNK`` spinors drawn from one
    generator, each chunk in the order psi, psi', xi (xi = 0 at the first
    sample exercises sgn(0) = +1), and every residual is folded by max:
    memory is O(chunk) whatever ``n_samples`` is.
    """
    if not (count(n_samples) and 1 <= n_samples < 2**63):
        raise ValueError("n_samples must be an integer with 1 <= n_samples < 2**63")
    rng = np.random.default_rng(seed)
    res: dict[str, float] = {}
    for start in range(0, n_samples, _CHUNK):
        k = min(_CHUNK, n_samples - start)
        psi = rng.standard_normal((k, 2)) + 1j * rng.standard_normal((k, 2))
        psi_p = rng.standard_normal((k, 2)) + 1j * rng.standard_normal((k, 2))
        xi = rng.uniform(-100.0, 100.0, size=k)
        if start == 0:
            xi[0] = 0.0  # exercise the sgn(0) = +1 branch
        for key, value in _chunk_residuals(psi, psi_p, xi).items():
            res[key] = max(res.get(key, value), value)
    res.update(_matrix_residuals())
    return res
