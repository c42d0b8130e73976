"""Discrete space-time Fourier analysis on uniform (t, x) grids.

Transform convention, fixed here and used by every other module:

    Fu(tau, xi) = sum_{t,x} exp(-i (t tau + x xi)) u(t, x) dt dx
    u(t, x)     = (2 pi)^{-2} sum_{tau,xi} exp(+i (t tau + x xi)) Fu dtau dxi

There is no 2 pi in the forward transform; every Plancherel constant of the
space-time transform lives in this module (``solver`` states its own in x):

* Parseval:  sum |Fu|^2 dtau dxi = (2 pi)^2 sum |u|^2 dt dx, exactly in the
  discrete setting (up to roundoff);
* ``weighted_norm`` with flavor ``"H"`` and ``a = alpha = 0`` equals
  ``2 pi * ||u||_{L2(dt dx)}``;
* products:  F(u conj v)(tau, xi)
  = (2 pi)^{-2} sum_{lam,eta} Fu(lam, eta) conj(Fv)(lam - tau, eta - xi)
  dlam deta, exactly, whenever the summed supports fit in the frequency box
  without periodic wrap-around.

Grids are centered on both sides: ``t_j = (j - n_t/2) dt`` and
``tau_k = (k - n_t/2) dtau`` with ``dtau = 2 pi / t_extent`` (same in x).
Values are stored row-major in t.  A periodic box stands in for the plane:
physical-side data is trusted only if it decays at the box boundary,
Fourier-side data only if its support is contained in the frequency box.

Weight families, with ``<y> = 1 + |y|``:

    X_plus   <xi>^a <tau + xi>^alpha
    X_minus  <xi>^a <tau - xi>^alpha
    H        <xi>^a <|tau| - |xi|>^alpha

Transforms are NumPy's (``numpy.fft``); this module imports no other FFT library.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

from ._checks import count, finite_real

Side = Literal["physical", "fourier"]
Flavor = Literal["X_plus", "X_minus", "H"]


def bracket(x):
    """Japanese bracket <x> = 1 + |x|; always >= 1."""
    return 1.0 + np.abs(x)


@dataclass(frozen=True)
class Grid2D:
    """Uniform centered space-time grid and its dual frequency grid.

    Sizes must be even integers (the centered index convention needs n/2
    integral) below 2^63, the largest count numpy indexes; FFT-friendly
    5-smooth sizes are strongly recommended.  Extents are real numbers, and
    they and the spacings on both sides must be finite and positive.
    """

    n_t: int
    n_x: int
    t_extent: float
    x_extent: float

    def __post_init__(self):
        if not all(count(n) and 2 <= n < 2**63 and n % 2 == 0 for n in (self.n_t, self.n_x)):
            raise ValueError("grid sizes must be even integers in [2, 2^63)")
        if not all(finite_real(e) and e > 0 for e in (self.t_extent, self.x_extent)):
            raise ValueError("grid extents must be finite and positive")
        if not (self.dt > 0 and self.dx > 0 and self.dtau < math.inf and self.dxi < math.inf):
            raise ValueError("grid spacings must be finite and positive")

    @property
    def dt(self) -> float:
        return self.t_extent / self.n_t

    @property
    def dx(self) -> float:
        return self.x_extent / self.n_x

    @property
    def dtau(self) -> float:
        return 2.0 * np.pi / self.t_extent

    @property
    def dxi(self) -> float:
        return 2.0 * np.pi / self.x_extent

    @property
    def t(self) -> np.ndarray:
        return (np.arange(self.n_t) - self.n_t // 2) * self.dt

    @property
    def x(self) -> np.ndarray:
        return (np.arange(self.n_x) - self.n_x // 2) * self.dx

    @property
    def tau(self) -> np.ndarray:
        return (np.arange(self.n_t) - self.n_t // 2) * self.dtau

    @property
    def xi(self) -> np.ndarray:
        return (np.arange(self.n_x) - self.n_x // 2) * self.dxi

    @property
    def cell_physical(self) -> float:
        return self.dt * self.dx

    @property
    def cell_fourier(self) -> float:
        return self.dtau * self.dxi


@dataclass
class GridFunction2D:
    """Complex samples on a Grid2D, tagged with the side they live on.

    Values are treated as immutable after construction; operations return
    new instances.
    """

    grid: Grid2D
    values: np.ndarray
    side: Side

    def __post_init__(self):
        self.values = np.asarray(self.values)
        if self.values.shape != (self.grid.n_t, self.grid.n_x):
            raise ValueError(
                f"value array shape {self.values.shape} does not match grid "
                f"({self.grid.n_t}, {self.grid.n_x})"
            )
        if self.side not in ("physical", "fourier"):
            raise ValueError(f"unknown side {self.side!r}")


def _centered(fftn, values: np.ndarray, axes: tuple[int, ...]) -> np.ndarray:
    """``fftn`` over ``axes`` of samples stored centered, stored centered again."""
    return np.fft.fftshift(fftn(np.fft.ifftshift(values, axes=axes), axes=axes), axes=axes)


def transform(u: GridFunction2D) -> GridFunction2D:
    """Forward space-time transform (physical -> fourier), Riemann-sum scaled."""
    if u.side != "physical":
        raise ValueError("transform expects a physical-side function")
    vals = _centered(np.fft.fftn, np.asarray(u.values, dtype=complex), (0, 1)) * u.grid.cell_physical
    return GridFunction2D(u.grid, vals, "fourier")


def inverse_transform(u_hat: GridFunction2D) -> GridFunction2D:
    """Inverse space-time transform (fourier -> physical)."""
    if u_hat.side != "fourier":
        raise ValueError("inverse_transform expects a fourier-side function")
    vals = _centered(np.fft.ifftn, np.asarray(u_hat.values, dtype=complex), (0, 1)) / u_hat.grid.cell_physical
    return GridFunction2D(u_hat.grid, vals, "physical")


def spatial_inverse(values: np.ndarray, extent: float) -> np.ndarray:
    """1d centered inverse transform (last axis) of f_hat(xi) = sum f(x) exp(-i x xi) dx."""
    values = np.asarray(values, dtype=complex)
    n = values.shape[-1]
    if n % 2:
        raise ValueError("spatial_inverse needs an even number of samples")
    dx = extent / n
    return _centered(np.fft.ifftn, values, (-1,)) / dx


@dataclass(frozen=True)
class NormIndex:
    """Exponents (a, alpha) and weight flavor of a space-time norm.

    The exponents may also be (k, 1) columns, which ``weight`` broadcasts
    against 1-d frequencies: one row of weights per exponent row.  A row
    agrees with the scalar exponents of that row up to roundoff, not bit for
    bit: numpy evaluates ``x ** -1.0`` and ``x ** 0.5`` for a scalar exponent
    as ``1 / x`` and ``sqrt(x)``, and a column through its general power.
    """

    a: float
    alpha: float
    flavor: Flavor

    def __post_init__(self):
        if self.flavor not in ("X_plus", "X_minus", "H"):
            raise ValueError(f"unknown flavor {self.flavor!r}")


def weight(idx: NormIndex, tau, xi) -> np.ndarray:
    """Pointwise weight of the norm ``idx`` at frequencies (tau, xi), broadcast."""
    if idx.flavor == "X_plus":
        hyp = bracket(tau + xi)
    elif idx.flavor == "X_minus":
        hyp = bracket(tau - xi)
    else:
        hyp = bracket(np.abs(tau) - np.abs(xi))
    return bracket(xi) ** idx.a * hyp**idx.alpha


def weighted_norm(u_hat: GridFunction2D, idx: NormIndex) -> float:
    """L2(dtau dxi) norm of the weighted Fourier-side values."""
    if u_hat.side != "fourier":
        raise ValueError("weighted_norm expects a fourier-side function")
    if not np.all(np.isfinite(u_hat.values)):
        raise ValueError("weighted_norm: non-finite values in input")
    grid = u_hat.grid
    weighted = weight(idx, grid.tau[:, None], grid.xi[None, :]) * np.abs(u_hat.values)
    return float(np.sqrt(np.sum(weighted**2) * grid.cell_fourier))


def indicator_product(counts, cell: float):
    """F(u conj v) of two 0/1 Fourier-side indicators, from pair counts.

    On a lattice with cell area ``cell``, the product rule above reads
    F(u conj v)(k) = (2 pi)^{-2} cell #{p in supp Fu : p - k in supp Fv}.
    """
    return np.asarray(counts) * (cell / (2 * np.pi) ** 2)


def bilinear_convolution(
    F: GridFunction2D, G: GridFunction2D, method: Literal["fft", "direct"] = "fft"
) -> GridFunction2D:
    """Correlation-type convolution sum_{lam,eta} F(lam,eta) G(lam-tau, eta-xi).

    Both inputs must be Fourier-side on the same grid.  ``G`` is treated as
    zero outside the frequency box (linear, not circular, convolution).  The
    FFT path zero-pads to linear-convolution length; the direct path is the
    O(N^4) reference sum used to cross-check it.
    """
    if F.side != "fourier" or G.side != "fourier":
        raise ValueError("bilinear_convolution expects fourier-side functions")
    if F.grid != G.grid:
        raise ValueError("bilinear_convolution: grid mismatch")
    grid = F.grid
    nt, nx = grid.n_t, grid.n_x
    cell = grid.cell_fourier

    if method == "direct":
        # out[k] = sum_p F[p] G[p - k + n/2], with G zero-padded by n/2 on each side
        Fv = np.asarray(F.values, dtype=complex)
        padded = np.pad(np.asarray(G.values, dtype=complex), ((nt // 2, nt // 2), (nx // 2, nx // 2)))
        out = np.empty((nt, nx), dtype=complex)
        for kt in range(nt):
            for kx in range(nx):
                out[kt, kx] = (Fv * padded[nt - kt : 2 * nt - kt, nx - kx : 2 * nx - kx]).sum()
        return GridFunction2D(grid, out * cell, "fourier")

    if method != "fft":
        raise ValueError(f"unknown method {method!r}")

    # out[k] = linear_conv(F, reverse(G))[k + n/2 - 1] per axis; its 2n - 1 points fit in length 2n
    shape = (2 * nt, 2 * nx)
    Fb = np.fft.fft2(np.asarray(F.values, dtype=complex), shape)
    Gb = np.fft.fft2(np.asarray(G.values, dtype=complex)[::-1, ::-1], shape)
    full = np.fft.ifft2(Fb * Gb)
    t0, x0 = nt // 2 - 1, nx // 2 - 1
    return GridFunction2D(grid, full[t0 : t0 + nt, x0 : x0 + nx] * cell, "fourier")


def product_norm(u: GridFunction2D, v: GridFunction2D, idx: NormIndex) -> float:
    """Weighted norm of the pointwise product u*conj(v)."""
    if u.side != "physical" or v.side != "physical":
        raise ValueError("product_norm expects physical-side functions")
    if u.grid != v.grid:
        raise ValueError("product_norm: grid mismatch")
    w = u.values * np.conj(v.values)
    w_hat = transform(GridFunction2D(u.grid, w, "physical"))
    return weighted_norm(w_hat, idx)

