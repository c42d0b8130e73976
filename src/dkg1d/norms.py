"""Discrete space-time Fourier analysis on uniform (t, x) grids.

Transform convention, fixed here and used by every other module:

    Fu(tau, xi) = sum_{t,x} exp(-i (t tau + x xi)) u(t, x) dt dx
    u(t, x)     = (2 pi)^{-2} sum_{tau,xi} exp(+i (t tau + x xi)) Fu dtau dxi

There is no 2 pi in the forward transform; every Plancherel constant lives
in this module and nowhere else:

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
"""

from __future__ import annotations

import io
import math
import struct
from dataclasses import dataclass
from typing import Literal

import numpy as np
import scipy.fft as sfft

_WORKERS = 2

Side = Literal["physical", "fourier"]
Flavor = Literal["X_plus", "X_minus", "H"]


def bracket(x):
    """Japanese bracket <x> = 1 + |x|; always >= 1."""
    return 1.0 + np.abs(x)


@dataclass(frozen=True)
class Grid2D:
    """Uniform centered space-time grid and its dual frequency grid.

    Sizes must be even (the centered index convention needs n/2 integral)
    and fit the int64 of the file header; FFT-friendly 5-smooth sizes are
    strongly recommended.  Extents, and the spacings on both sides, must be
    finite and positive.
    """

    n_t: int
    n_x: int
    t_extent: float
    x_extent: float

    def __post_init__(self):
        if not all(2 <= n < 2**63 and n % 2 == 0 for n in (self.n_t, self.n_x)):
            raise ValueError("grid sizes must be even integers in [2, 2^63)")
        if not (0 < self.t_extent < math.inf and 0 < self.x_extent < math.inf):
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


def _centered_fft2(values: np.ndarray) -> np.ndarray:
    return sfft.fftshift(
        sfft.fft2(sfft.ifftshift(values), workers=_WORKERS)
    )


def _centered_ifft2(values: np.ndarray) -> np.ndarray:
    return sfft.fftshift(
        sfft.ifft2(sfft.ifftshift(values), workers=_WORKERS)
    )


def transform(u: GridFunction2D) -> GridFunction2D:
    """Forward space-time transform (physical -> fourier), Riemann-sum scaled."""
    if u.side != "physical":
        raise ValueError("transform expects a physical-side function")
    vals = _centered_fft2(np.asarray(u.values, dtype=complex)) * u.grid.cell_physical
    return GridFunction2D(u.grid, vals, "fourier")


def inverse_transform(u_hat: GridFunction2D) -> GridFunction2D:
    """Inverse space-time transform (fourier -> physical)."""
    if u_hat.side != "fourier":
        raise ValueError("inverse_transform expects a fourier-side function")
    vals = _centered_ifft2(np.asarray(u_hat.values, dtype=complex)) / u_hat.grid.cell_physical
    return GridFunction2D(u_hat.grid, vals, "physical")


def spatial_inverse(values: np.ndarray, extent: float) -> np.ndarray:
    """1d centered inverse transform (last axis) of f_hat(xi) = sum f(x) exp(-i x xi) dx."""
    values = np.asarray(values, dtype=complex)
    n = values.shape[-1]
    if n % 2:
        raise ValueError("spatial_inverse needs an even number of samples")
    dx = extent / n
    return sfft.fftshift(
        sfft.ifft(sfft.ifftshift(values, axes=-1), axis=-1, workers=_WORKERS), axes=-1
    ) / dx


@dataclass(frozen=True)
class NormIndex:
    """Exponents (a, alpha) and weight flavor of a space-time norm."""

    a: float
    alpha: float
    flavor: Flavor

    def __post_init__(self):
        if self.flavor not in ("X_plus", "X_minus", "H"):
            raise ValueError(f"unknown flavor {self.flavor!r}")


def weight(idx: NormIndex, tau, xi) -> np.ndarray:
    """Pointwise weight of the norm ``idx`` at frequencies (tau, xi), broadcast."""
    w = bracket(xi) ** idx.a
    if idx.flavor == "X_plus":
        hyp = bracket(tau + xi)
    elif idx.flavor == "X_minus":
        hyp = bracket(tau - xi)
    else:
        hyp = bracket(np.abs(tau) - np.abs(xi))
    return w * hyp ** idx.alpha


def weighted_norm(u_hat: GridFunction2D, idx: NormIndex) -> float:
    """L2(dtau dxi) norm of the weighted Fourier-side values."""
    if u_hat.side != "fourier":
        raise ValueError("weighted_norm expects a fourier-side function")
    if not np.all(np.isfinite(u_hat.values)):
        raise ValueError("weighted_norm: non-finite values in input")
    grid = u_hat.grid
    return point_norm(u_hat.values, grid.tau[:, None], grid.xi[None, :], idx, grid.cell_fourier)


def point_norm(values, tau, xi, idx: NormIndex, cell: float) -> float:
    """``weighted_norm`` of Fourier-side data given only at lattice points.

    ``values`` are the data at the distinct points (tau, xi) of a lattice
    with cell area ``cell``; the data vanish everywhere else.
    """
    return float(np.sqrt(np.sum((weight(idx, tau, xi) * np.abs(values)) ** 2) * cell))


def indicator_product(counts, cell: float):
    """F(u conj v) of two 0/1 Fourier-side indicators, from pair counts.

    On a lattice with cell area ``cell``, the product rule above reads
    F(u conj v)(k) = (2 pi)^{-2} cell #{p in supp Fu : p - k in supp Fv}.
    """
    return np.asarray(counts) * (cell / (2 * np.pi) ** 2)


def l2_norm_physical(u: GridFunction2D) -> float:
    """Discrete L2(dt dx) norm of a physical-side function."""
    if u.side != "physical":
        raise ValueError("l2_norm_physical expects a physical-side function")
    return float(np.sqrt(np.sum(np.abs(u.values) ** 2) * u.grid.cell_physical))


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
        Fv = np.asarray(F.values, dtype=complex)
        Gv = np.asarray(G.values, dtype=complex)
        out = np.zeros((nt, nx), dtype=complex)
        # out[k] = sum_p F[p] G[p - k + n/2], with G zero outside its box
        for kt in range(nt):
            st = kt - nt // 2  # G row index = F row index - st
            ft_lo, ft_hi = max(0, st), min(nt, nt + st)
            gt_lo = ft_lo - st
            for kx in range(nx):
                sx = kx - nx // 2
                fx_lo, fx_hi = max(0, sx), min(nx, nx + sx)
                gx_lo = fx_lo - sx
                block = Fv[ft_lo:ft_hi, fx_lo:fx_hi] * Gv[
                    gt_lo : gt_lo + (ft_hi - ft_lo), gx_lo : gx_lo + (fx_hi - fx_lo)
                ]
                out[kt, kx] = block.sum()
        return GridFunction2D(grid, out * cell, "fourier")

    if method != "fft":
        raise ValueError(f"unknown method {method!r}")

    # out[k] = linear_conv(F, reverse(G))[k + n/2 - 1] per axis
    mt = sfft.next_fast_len(2 * nt - 1)
    mx = sfft.next_fast_len(2 * nx - 1)
    Fb = sfft.fft2(np.asarray(F.values, dtype=complex), s=(mt, mx), workers=_WORKERS)
    Gb = sfft.fft2(
        np.asarray(G.values, dtype=complex)[::-1, ::-1], s=(mt, mx), workers=_WORKERS
    )
    full = sfft.ifft2(Fb * Gb, workers=_WORKERS)
    t0, x0 = nt // 2 - 1, nx // 2 - 1
    out = full[t0 : t0 + nt, x0 : x0 + nx]
    return GridFunction2D(grid, np.ascontiguousarray(out) * cell, "fourier")


def product_norm(
    u: GridFunction2D,
    v: GridFunction2D,
    idx: NormIndex,
    conjugate_second: bool = False,
) -> float:
    """Weighted norm of the pointwise product u*v (or u*conj(v))."""
    if u.side != "physical" or v.side != "physical":
        raise ValueError("product_norm expects physical-side functions")
    if u.grid != v.grid:
        raise ValueError("product_norm: grid mismatch")
    w = u.values * (np.conj(v.values) if conjugate_second else v.values)
    w_hat = transform(GridFunction2D(u.grid, w, "physical"))
    return weighted_norm(w_hat, idx)


# Binary layout: little-endian header (int64 n_t, int64 n_x, float64 t_extent,
# float64 x_extent, int64 side flag 0=physical/1=fourier) followed by the
# values as interleaved re/im float64 pairs, row-major in t.
_HEADER = struct.Struct("<qqddq")
_SIDE_FLAG = {"physical": 0, "fourier": 1}
_FLAG_SIDE = {v: k for k, v in _SIDE_FLAG.items()}


def write_gridfunction(fh, gf: GridFunction2D) -> None:
    """Serialize one grid function to an open binary file object."""
    fh.write(
        _HEADER.pack(
            gf.grid.n_t,
            gf.grid.n_x,
            gf.grid.t_extent,
            gf.grid.x_extent,
            _SIDE_FLAG[gf.side],
        )
    )
    interleaved = np.empty((gf.grid.n_t, gf.grid.n_x, 2), dtype="<f8")
    interleaved[..., 0] = gf.values.real
    interleaved[..., 1] = gf.values.imag
    fh.write(interleaved.tobytes())


def read_gridfunction(fh) -> GridFunction2D:
    """Read one grid function from an open binary file object."""
    raw = fh.read(_HEADER.size)
    if len(raw) != _HEADER.size:
        raise ValueError("truncated grid-function header")
    n_t, n_x, t_extent, x_extent, flag = _HEADER.unpack(raw)
    if flag not in _FLAG_SIDE:
        raise ValueError(f"unknown side flag {flag}")
    grid = Grid2D(n_t, n_x, t_extent, x_extent)
    # Check the declared size against the stream before reading, so that a
    # corrupt header cannot ask for an arbitrarily large read.
    nbytes = 16 * n_t * n_x
    start = fh.tell()
    if fh.seek(0, io.SEEK_END) - start < nbytes:
        raise ValueError("truncated grid-function payload")
    fh.seek(start)
    pairs = np.frombuffer(fh.read(nbytes), dtype="<f8").reshape(n_t, n_x, 2)
    values = pairs[..., 0] + 1j * pairs[..., 1]
    return GridFunction2D(grid, values, _FLAG_SIDE[flag])


def save_gridfunction(path, gf: GridFunction2D) -> None:
    with open(path, "wb") as fh:
        write_gridfunction(fh, gf)


def load_gridfunction(path) -> GridFunction2D:
    with open(path, "rb") as fh:
        return read_gridfunction(fh)
