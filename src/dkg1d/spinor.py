"""Dirac matrices, eigenprojections and the spinor null form in 1+1 dimensions.

The Dirac operator ``alpha * D_x`` has Fourier symbol ``alpha * xi`` with
eigenvalues ``+-xi``.  We work in the fixed representation

    alpha = [[0, 1], [1, 0]],        beta = [[1, 0], [0, -1]],

both hermitian, with ``alpha^2 = beta^2 = I`` and
``alpha beta + beta alpha = 0``.  The constant projections
``P_s = (I + s alpha) / 2``, s = +-1, diagonalize the symbol
(``alpha P_s = s P_s``), and Pecher's frequency-dependent projections are
``pi+-(xi) = P_(+-sgn xi)`` (sgn 0 = +1), which order the eigenvalues as
``+-|xi|`` instead.  One kernel applies P_s for both: ``decompose`` with
s = +-1, ``pecher_projection`` with s = +-sgn xi.  ``amplitudes`` gives the
coordinates of a spinor on the ranges of P+-, the state of the solver.

A spinor is any array whose last axis has length 2 (components ``psi_1``,
``psi_2``); every operation broadcasts over leading axes, so fields of
spinors sampled on a grid are handled in one call.

Convention: the C^2 inner product is conjugate-linear in the *second* slot,
``<u, v> = u_1 conj(v_1) + u_2 conj(v_2)``.  With this choice the quadratic
density ``<beta psi, psi> = |psi_1|^2 - |psi_2|^2`` is real, as required for
it to source a real scalar field.
"""

from __future__ import annotations

import math

import numpy as np

from ._checks import count, sample_count

ALPHA = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
BETA = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
IDENTITY = np.eye(2, dtype=complex)

P_PLUS, P_MINUS = (0.5 * (IDENTITY + s * ALPHA) for s in (1, -1))

_CHUNK = 2**13  # spinors per verify_identities chunk: 256 KiB per (k, 2) complex array
_MAX_SAMPLES = 10**7  # about 10 s of verify_identities on a 2-core x86-64 host


def apply_matrix(mat: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """Apply a 2x2 matrix to a spinor (or array of spinors).  The result is
    component-major, so spinors drawn in Fortran order keep their layout."""
    return np.moveaxis(np.tensordot(mat, np.asarray(psi, dtype=complex), axes=([1], [-1])), 0, -1)


def _project(s, psi: np.ndarray) -> np.ndarray:
    """P_s psi = (I + s alpha) psi / 2 for s = +-1: one scalar, or one value
    per spinor (an array broadcasting against the leading axes of psi).
    alpha psi is psi with its two components swapped."""
    return 0.5 * (psi + np.expand_dims(s, -1) * psi[..., ::-1])


def decompose(psi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split a spinor into its P+ and P- parts; the parts sum back to psi."""
    psi = np.asarray(psi, dtype=complex)
    return _project(1, psi), _project(-1, psi)


def amplitudes(psi: np.ndarray) -> np.ndarray:
    """Coordinates (a_+, a_-) of psi on the ranges of P+-, psi = a_+ e_+ + a_- e_-
    with e_+- = (1, +-1)/sqrt(2), stacked on a leading axis: shape (2, ...)
    for psi of shape (..., 2).  P_s psi = a_s e_s, and the map is unitary,
    since e_+ and e_- are orthonormal."""
    psi = np.asarray(psi, dtype=complex)
    return np.stack((psi[..., 0] + psi[..., 1], psi[..., 0] - psi[..., 1])) / math.sqrt(2.0)


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


def pecher_projection(xi, sign: int, psi: np.ndarray) -> np.ndarray:
    """Apply pi_sign(xi) = P_(sign sgn xi) to psi, with the tie-break
    sgn(0) = sgn(-0.0) = +1; +-inf take their sign, and a NaN xi, which has
    none, is refused with ValueError.  ``sign`` is the integer +1 or -1.

    ``xi`` may be a scalar or an array broadcasting against the leading axes
    of ``psi``.
    """
    if not (count(sign) and sign in (+1, -1)):
        raise ValueError("sign must be the integer +1 or -1")
    xi = np.asarray(xi)
    if np.isnan(xi).any():
        raise ValueError("frequency xi must not be NaN: pi+-(xi) needs the sign of xi")
    return _project(np.where(xi >= 0, sign, -sign), np.asarray(psi, dtype=complex))


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
    is a per-sample quantity, so a max over chunks is the max over all samples.
    Each identity is written once for s = +-1; a relative residual divides
    the defect's modulus, per sample, by its scale."""
    beta_psi = apply_matrix(BETA, psi)
    xi_scale = np.maximum(1.0, np.abs(xi))[:, None]
    scale = np.maximum(np.linalg.norm(psi, axis=-1) * np.linalg.norm(psi_p, axis=-1), 1e-300)
    parts = {s: _project(s, psi) for s in (1, -1)}
    res = {
        "completeness": float(np.abs(parts[1] + parts[-1] - psi).max()),
        "density_real": float(np.abs(np.imag(null_form(psi, psi))).max()),
    }
    for s, part in parts.items():
        pi = pecher_projection(xi, s, psi)
        for key, error in (
            ("idempotency", np.abs(_project(s, part) - part)),
            ("orthogonality", np.abs(_project(-s, part))),
            ("alpha_eigenrelation", np.abs(apply_matrix(ALPHA, part) - s * part)),
            ("beta_exchange", np.abs(_project(s, beta_psi) - apply_matrix(BETA, parts[-s]))),
            ("pecher_relations", np.abs(pecher_projection(xi, s, pi) - pi)),
            # (alpha xi) pi_s psi = s |xi| pi_s psi, relative to max(1, |xi|)
            ("pecher_relations", np.abs(xi[:, None] * apply_matrix(ALPHA, pi) - s * np.abs(xi)[:, None] * pi) / xi_scale),
            ("null_form_vanishing", np.abs(null_form(part, _project(s, psi_p))) / scale),
        ):
            res[key] = max(res.get(key, 0.0), float(error.max()))
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
    memory is O(chunk) whatever ``n_samples`` is.  ``n_samples`` is an
    integer from 1 to ``_MAX_SAMPLES``, a cap on run time (about 10 s).
    """
    sample_count(n_samples, _MAX_SAMPLES)
    rng = np.random.default_rng(seed)
    res: dict[str, float] = {}
    for start in range(0, n_samples, _CHUNK):
        k = min(_CHUNK, n_samples - start)
        # Component-major (Fortran) spinors: the identities' loops then run
        # over the k samples, not over a trailing axis of length 2.
        psi, psi_p = (np.empty((k, 2), dtype=complex, order="F") for _ in range(2))
        for spinors in (psi, psi_p):
            spinors.real = rng.standard_normal((k, 2))
            spinors.imag = rng.standard_normal((k, 2))
        xi = rng.uniform(-100.0, 100.0, size=k)
        if start == 0:
            xi[0] = 0.0  # exercise the sgn(0) = +1 branch
        for key, value in _chunk_residuals(psi, psi_p, xi).items():
            res[key] = max(res.get(key, value), value)
    res.update(_matrix_residuals())
    return res
