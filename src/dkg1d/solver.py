"""Charge-conserving split-step spectral solver for the 1d Dirac-Klein-Gordon system.

The evolved system, on a periodic spatial interval (D = -i d):

    (D_t + alpha D_x) psi + M beta psi = phi beta psi,
    (d_tt - d_xx + m^2) phi            = <beta psi, psi>.

The state is stored as two stacked arrays, the layout every flow acts on.
The spinor is kept through scalar amplitudes on the one-dimensional ranges
of P+-:  psi = a_+ e_+ + a_- e_-  with  e_+- = (1, +-1)/sqrt(2), and
``DKGState.a`` = (a_+, a_-) is one complex (2, n_x) array; ``DKGState.f`` =
(phi, phi_t) is one real (2, n_x) array.  The amplitudes halve the memory
and make the half-wave flows scalar.

A step composes three flows, each solved exactly:

* half-wave: per Fourier mode, a_+ picks up exp(-i xi dt) and a_- picks up
  exp(+i xi dt)  (unitary, exact transport);
* Klein-Gordon: per mode with omega = sqrt(xi^2 + m^2), (phi, phi_t)
  rotates by the exact harmonic-oscillator flow (energy preserving, with
  the omega -> 0 limit phi <- phi + dt phi_t);
* coupling: with phi frozen, psi <- cos(theta) psi + i sin(theta) beta psi
  with theta = (phi - M) dt, exact because ((phi - M) beta)^2 = (phi - M)^2 I;
  in amplitudes beta swaps the two ranges, so (a_+, a_-) mix through a
  pointwise unitary rotation.  Simultaneously phi_t gains dt <beta psi, psi>;
  the density <beta psi, psi> = 2 Re(a_+ conj a_-) is invariant under the
  rotation, so the kick is exact as well.

Every substep is unitary on the spinor, so the charge ||psi||_L2 is
conserved to roundoff over arbitrarily many steps; every substep is exactly
invertible, so a Strang step followed by its negative-dt mirror returns the
state to roundoff.

Each flow is written once, as a private kernel on the arrays ``a`` and
``f``.  ``run`` builds the per-mode propagator factors once and then costs
one batched complex FFT pair and one batched real FFT pair per step.  It
also fuses adjacent coupling substeps: the coupling leaves phi and the
density unchanged, so two coupling flows of lengths h1 and h2 compose to one
of length h1 + h2 exactly (the rotation angles (phi - M) h add, and so do
the kicks).  A run therefore applies coupling(dt/2) once to open,
coupling(dt) between steps and coupling(dt/2) to close before each
diagnostics row and to reopen after it; N steps with K recorded rows cost
N + K coupling flows instead of 2N.  The closing and reopening half-steps
around a row share one rotation (one cos and one sin of (phi - M) dt/2),
since the closing one leaves phi unchanged.  A row costs one complex FFT of
(a_+, a_-) for the H^s norm and one real FFT of phi each for the H^r norm
and the energy (whose phi_x^2 term comes by Parseval); the charge and the
other energy terms are dot products.  A non-finite field value makes its
row non-finite, so the row check is the only finiteness scan.  The public
flows and ``strang_step`` are thin wrappers over the same kernels.
"""

from __future__ import annotations

import contextlib
import functools
import io
import math
import os
import struct
from dataclasses import dataclass, replace

import numpy as np
import scipy.fft as sfft

SQRT2 = np.sqrt(2.0)


class BlowUpError(RuntimeError):
    """Non-finite value met during time stepping (blow-up or instability)."""

    def __init__(self, step: int, t: float):
        super().__init__(f"non-finite state at step {step} (t = {t:.6g})")
        self.step = step
        self.t = t


def _read_only(values: np.ndarray) -> np.ndarray:
    values.flags.writeable = False
    return values


@dataclass(frozen=True)
class GridSpec1D:
    """Periodic spatial grid; power-of-two size for FFT efficiency.

    ``n_x`` fits the int64 of the snapshot header, and the spacings ``dx``
    and ``2 pi / x_extent`` are finite and positive.
    """

    n_x: int
    x_extent: float

    def __post_init__(self):
        if not 2 <= self.n_x < 2**63 or self.n_x & (self.n_x - 1):
            raise ValueError("n_x must be a power of two in [2, 2^62]")
        if not 0 < self.x_extent < math.inf:
            raise ValueError("x_extent must be finite and positive")
        if not (self.dx > 0 and 2 * math.pi / self.x_extent < math.inf):
            raise ValueError("grid spacings must be finite and positive")

    @property
    def dx(self) -> float:
        return self.x_extent / self.n_x

    @property
    def x(self) -> np.ndarray:
        return (np.arange(self.n_x) - self.n_x // 2) * self.dx

    @property
    def xi(self) -> np.ndarray:
        """Dual modes in centered order, {-n/2, ..., n/2 - 1} * 2 pi / extent."""
        return (np.arange(self.n_x) - self.n_x // 2) * (2 * np.pi / self.x_extent)

    @functools.cached_property
    def xi_fft(self) -> np.ndarray:
        """Dual modes in FFT storage order (computed once, read-only)."""
        return _read_only(sfft.fftfreq(self.n_x, d=self.dx) * 2 * np.pi)

    @functools.cached_property
    def xi_rfft(self) -> np.ndarray:
        """Nonnegative dual modes of a real FFT (computed once, read-only)."""
        return _read_only(sfft.rfftfreq(self.n_x, d=self.dx) * 2 * np.pi)


@dataclass
class DKGState:
    """Field state at one instant, in the layout the flows act on.

    ``a`` = (a_+, a_-) holds the spinor amplitudes on the ranges of P+-,
    complex of shape (2, n_x); ``f`` = (phi, phi_t) holds the scalar field
    and its time derivative, real of shape (2, n_x).  ``psi_plus``,
    ``psi_minus``, ``phi`` and ``phi_t`` are row views of these.  The flows
    return new states and never write into the arrays of their input.
    """

    a: np.ndarray
    f: np.ndarray
    t: float
    M: float
    m: float
    grid: GridSpec1D

    @property
    def psi_plus(self) -> np.ndarray:
        return self.a[0]

    @property
    def psi_minus(self) -> np.ndarray:
        return self.a[1]

    @property
    def phi(self) -> np.ndarray:
        return self.f[0]

    @property
    def phi_t(self) -> np.ndarray:
        return self.f[1]


@dataclass(frozen=True)
class SolverConfig:
    grid: GridSpec1D
    dt: float
    t_end: float
    diagnostics_every: int = 16
    diag_s: float = 0.0
    diag_r: float = 0.0

    def __post_init__(self):
        if not 0 < self.dt < math.inf:
            raise ValueError("dt must be finite and positive")
        if not math.isfinite(self.t_end):
            raise ValueError("t_end must be finite")
        if self.dt > self.grid.dx + 1e-15:
            raise ValueError("dt must not exceed dx")
        if self.diagnostics_every < 1:
            raise ValueError("diagnostics_every must be >= 1")
        if not (math.isfinite(self.diag_s) and math.isfinite(self.diag_r)):
            raise ValueError("diag_s and diag_r must be finite")


def init_state(
    psi0: np.ndarray,
    phi0: np.ndarray,
    phi1: np.ndarray,
    M: float,
    m: float,
    grid: GridSpec1D,
) -> DKGState:
    """Assemble a state at t = 0 from spinor-valued and real scalar data."""
    psi0 = np.asarray(psi0, dtype=complex)
    if psi0.shape != (grid.n_x, 2):
        raise ValueError(f"psi0 must have shape ({grid.n_x}, 2)")
    phi0 = np.asarray(phi0)
    phi1 = np.asarray(phi1)
    if phi0.shape != (grid.n_x,) or phi1.shape != (grid.n_x,):
        raise ValueError(f"phi0 and phi1 must have shape ({grid.n_x},)")
    if np.iscomplexobj(phi0) or np.iscomplexobj(phi1):
        raise ValueError("phi0 and phi1 must be real arrays")
    if not (0 <= M < math.inf and 0 <= m < math.inf):
        raise ValueError("masses must be finite and nonnegative")
    if not all(np.isfinite(v).all() for v in (psi0, phi0, phi1)):
        raise ValueError("psi0, phi0 and phi1 must be finite")
    a = np.stack((psi0[:, 0] + psi0[:, 1], psi0[:, 0] - psi0[:, 1])) / SQRT2
    return DKGState(a, np.stack((phi0, phi1)).astype(float), 0.0, float(M), float(m), grid)


def reconstruct(state: DKGState) -> np.ndarray:
    """Spinor field of shape (n_x, 2) from the stored amplitudes."""
    a_plus, a_minus = state.a
    return np.stack([a_plus + a_minus, a_plus - a_minus], axis=-1) / SQRT2


def charge(state: DKGState) -> float:
    """Conserved L2 norm of the spinor field."""
    return float(np.sqrt(np.vdot(state.a, state.a).real * state.grid.dx))


def _density(a: np.ndarray) -> np.ndarray:
    return 2.0 * np.real(a[0] * np.conj(a[1]))


def spinor_density(state: DKGState) -> np.ndarray:
    """Pointwise source <beta psi, psi> = 2 Re(a_+ conj a_-), real."""
    return _density(state.a)


# Kernels on the state arrays a = (a_+, a_-) and f = (phi, phi_t).  Each
# returns new arrays.


@functools.lru_cache(maxsize=32)
def _wave_phases(grid: GridSpec1D, dt: float) -> np.ndarray:
    """Per-mode half-wave phases of (a_+, a_-), shape (2, n_x); cached, read-only."""
    xi = grid.xi_fft
    return _read_only(np.exp(-1j * np.stack((xi, -xi)) * dt))


@functools.lru_cache(maxsize=32)
def _kg_propagator(grid: GridSpec1D, m: float, dt: float) -> np.ndarray:
    """Per-mode matrix [[cos, sin/omega], [-omega sin, cos]] of the exact
    Klein-Gordon flow on (phi_hat, phi_t_hat), shape (2, 2, n_x // 2 + 1);
    cached, read-only."""
    omega = np.sqrt(grid.xi_rfft**2 + m**2)
    c = np.cos(omega * dt)
    s_over_omega = dt * np.sinc(omega * dt / np.pi)  # sin(omega dt)/omega, exact at 0
    return _read_only(np.array([[c, s_over_omega], [-omega * np.sin(omega * dt), c]]))


def _half_wave(a: np.ndarray, phases: np.ndarray) -> np.ndarray:
    return sfft.ifft(phases * sfft.fft(a, axis=-1), axis=-1, overwrite_x=True)


def _kg(f: np.ndarray, propagator: np.ndarray) -> np.ndarray:
    phi_hat, phi_t_hat = sfft.rfft(f, axis=-1)
    new = propagator[:, 0] * phi_hat
    new += propagator[:, 1] * phi_t_hat
    return sfft.irfft(new, n=f.shape[-1], axis=-1, overwrite_x=True)


def _rotation(phi: np.ndarray, M: float, h: float) -> tuple[np.ndarray, np.ndarray]:
    """cos(theta) and i sin(theta) of the coupling angle theta = (phi - M) h."""
    theta = phi - M
    theta *= h
    return np.cos(theta), 1j * np.sin(theta)


def _coupling(a: np.ndarray, f: np.ndarray, h: float, rotation) -> tuple[np.ndarray, np.ndarray]:
    kick = _density(a)  # invariant under the rotation below
    kick *= h
    # beta swaps the ranges: a_+- <- cos(theta) a_+- + i sin(theta) a_-+.
    cos, isin = rotation
    rotated = cos * a
    rotated += isin * a[::-1]
    f = f.copy()
    f[1] += kick
    return rotated, f


def half_wave_flow(state: DKGState, dt: float) -> DKGState:
    """Exact massless Dirac flow (transport): per-mode unit phases on each amplitude."""
    if dt == 0.0:
        return state
    return replace(state, a=_half_wave(state.a, _wave_phases(state.grid, dt)))


def kg_flow(state: DKGState, dt: float) -> DKGState:
    """Exact homogeneous Klein-Gordon flow on (phi, phi_t)."""
    if dt == 0.0:
        return state
    return replace(state, f=_kg(state.f, _kg_propagator(state.grid, state.m, dt)))


def coupling_flow(state: DKGState, dt: float) -> DKGState:
    """Exact coupling substep with phi frozen.

    Rotates the spinor pointwise by exp(i (phi - M) beta dt) (which preserves
    |psi| pointwise) and kicks phi_t by dt times the quadratic density.
    """
    if dt == 0.0:
        return state
    a, f = _coupling(state.a, state.f, dt, _rotation(state.phi, state.M, dt))
    return replace(state, a=a, f=f)


def _march(state: DKGState, dt: float, n_steps: int, every: int):
    """Take ``n_steps`` Strang steps of ``dt``; yield (k, state) after every
    ``every``-th step and after the last one.

    Between steps the closing coupling(dt/2) of one step and the opening
    coupling(dt/2) of the next fuse into one coupling(dt); before a yield the
    step is closed and afterwards the next one is opened with the same
    rotation, since the closing coupling leaves phi unchanged.  So every
    yielded state equals the one that step-by-step composition gives, up to
    roundoff.
    """
    if n_steps < 1:
        return
    M, half = state.M, dt / 2
    phases = _wave_phases(state.grid, dt)
    propagator = _kg_propagator(state.grid, state.m, dt)
    a, f = _coupling(state.a, state.f, half, _rotation(state.f[0], M, half))
    t = state.t
    for k in range(1, n_steps + 1):
        a = _half_wave(a, phases)
        f = _kg(f, propagator)
        t += dt
        if k % every and k < n_steps:
            a, f = _coupling(a, f, dt, _rotation(f[0], M, dt))
            continue
        rotation = _rotation(f[0], M, half)
        a, f = _coupling(a, f, half, rotation)
        yield k, replace(state, a=a, f=f, t=t)
        if k < n_steps:
            a, f = _coupling(a, f, half, rotation)


def strang_step(state: DKGState, dt: float) -> DKGState:
    """coupling(dt/2), then the commuting pair half-wave(dt) | kg(dt), then coupling(dt/2)."""
    return next(_march(state, dt, 1, 1))[1]


def _hermitian(weight: np.ndarray) -> np.ndarray:
    """Weight on the real-FFT bins of a real signal: the bins strictly between
    DC and Nyquist stand for themselves and their conjugate mirror, so they
    count twice; read-only."""
    weight[1 : weight.size - 1] *= 2
    return _read_only(weight)


@functools.lru_cache(maxsize=32)
def _gradient_weight(grid: GridSpec1D) -> np.ndarray:
    """Real-FFT weight w with sum(w |phi_hat|^2) = 1/2 int phi_x^2 dx
    (Parseval); the Nyquist derivative is dropped, as an inverse real FFT of
    i xi phi_hat drops it.  Cached, read-only."""
    weight = grid.xi_rfft**2 * (grid.dx / (2 * grid.n_x))
    weight[-1] = 0.0
    return _hermitian(weight)


def kg_energy(state: DKGState) -> float:
    """Discrete 1/2 int (phi_t^2 + phi_x^2 + m^2 phi^2) dx, spectral derivative.

    The phi_x^2 term comes from one real FFT of phi by Parseval, with the
    Nyquist mode's derivative dropped (it is the imaginary part that an
    inverse real FFT of i xi phi_hat discards); the other two terms are
    physical dot products.
    """
    phi, phi_t = state.f
    phi_hat = sfft.rfft(phi)
    gradient = np.vdot(phi_hat * _gradient_weight(state.grid), phi_hat).real
    return float(0.5 * state.grid.dx * (phi_t @ phi_t + state.m**2 * (phi @ phi)) + gradient)


@functools.lru_cache(maxsize=32)
def _sobolev_weight(grid: GridSpec1D, s: float) -> np.ndarray:
    """FFT weight dx (1 + |xi|)^s of the H^s norm; cached, read-only."""
    return _read_only(grid.dx * (1.0 + np.abs(grid.xi_fft)) ** s)


@functools.lru_cache(maxsize=32)
def _real_sobolev_weight(grid: GridSpec1D, s: float) -> np.ndarray:
    """Real-FFT weight w with sum(w |values_hat|^2) = ||values||_{H^s}^2:
    (1 + xi)^(2s) with the normalisation dx^2 / x_extent folded in.  Cached,
    read-only."""
    return _hermitian((1.0 + grid.xi_rfft) ** (2 * s) * (grid.dx**2 / grid.x_extent))


def sobolev_norm(values: np.ndarray, s: float, grid: GridSpec1D) -> float:
    """H^s norm over the last axis (leading axes summed in quadrature).

    Normalized so that s = 0 gives the physical L2(dx) norm.  Real values
    take one real FFT, whose bins strictly between DC and Nyquist count
    twice by Hermitian symmetry; complex values take a full FFT.
    """
    values = np.asarray(values)
    if values.shape[-1] != grid.n_x:
        raise ValueError("last axis must match the grid")
    if not np.iscomplexobj(values):
        hat = sfft.rfft(values, axis=-1)
        return float(np.sqrt(np.vdot(hat * _real_sobolev_weight(grid, s), hat).real))
    weighted = sfft.fft(values, axis=-1) * _sobolev_weight(grid, s)
    dxi = 2 * np.pi / grid.x_extent
    total = np.vdot(weighted, weighted).real * dxi / (2 * np.pi)
    return float(np.sqrt(total))


def spinor_sobolev_norm(state: DKGState, s: float) -> float:
    """H^s norm of the spinor field.

    The map from the amplitudes (a_+, a_-) to the components of psi is a
    constant unitary matrix, so it commutes with the Fourier transform and
    the norm can be taken of the amplitudes directly.
    """
    return sobolev_norm(state.a, s, state.grid)


def rough_data(s: float, seed: int, grid: GridSpec1D) -> np.ndarray:
    """Spinor data of unit H^s norm whose H^{s'} norms diverge for s' > s.

    Each component gets Fourier coefficients <xi>^(-s - 1/2 - 0.01) with
    independent unit-modulus random phases; bit-reproducible for a fixed
    seed.
    """
    rng = np.random.default_rng(seed)
    xi = grid.xi_fft
    magnitude = (1.0 + np.abs(xi)) ** (-s - 0.5 - 0.01)
    phases = np.exp(2j * np.pi * rng.random((2, grid.n_x)))
    coeff = magnitude[None, :] * phases
    components = sfft.ifft(coeff, axis=-1) / grid.dx
    psi0 = components.T.copy()
    norm = sobolev_norm(psi0.T, s, grid)
    return psi0 / norm


def smooth_data(
    grid: GridSpec1D, width: float | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Compactly concentrated analytic data placed well inside the box."""
    w = width if width is not None else grid.x_extent / 16
    x = grid.x
    envelope = np.exp(-((x / w) ** 2))
    psi0 = np.stack([(1.0 + 0.0j) * envelope, (0.3 - 0.4j) * envelope], axis=-1)
    phi0 = 0.5 * envelope
    phi1 = 0.2 * envelope * np.cos(2 * np.pi * x / grid.x_extent)
    return psi0, phi0, phi1


@dataclass
class DiagnosticsSeries:
    """Time series recorded by ``run``: one row per diagnostics interval."""

    t: np.ndarray
    charge: np.ndarray
    hs_psi: np.ndarray
    hr_phi: np.ndarray
    kg_energy: np.ndarray


def _record(state: DKGState, config: SolverConfig) -> tuple[float, ...]:
    return (
        state.t,
        charge(state),
        spinor_sobolev_norm(state, config.diag_s),
        sobolev_norm(state.phi, config.diag_r, state.grid),
        kg_energy(state),
    )


def run(
    config: SolverConfig, state: DKGState, return_final: bool = False
) -> DiagnosticsSeries | tuple[DiagnosticsSeries, DKGState]:
    """Advance to t_end (rounded to whole steps), recording diagnostics.

    Aborts with ``BlowUpError`` carrying the step index as soon as a
    recorded row stops being finite.  That covers every field value: a
    non-finite amplitude makes the charge non-finite, a non-finite phi the
    H^r norm and a non-finite phi_t the energy.  ``config.grid``
    must be the state's grid, since its ``dt <= dx`` check is made there.
    """
    if config.grid != state.grid:
        raise ValueError(f"config grid {config.grid} does not match the state grid {state.grid}")
    n_steps = max(0, int(round((config.t_end - state.t) / config.dt)))
    records = [_record(state, config)]
    rows = _march(state, config.dt, n_steps, config.diagnostics_every)
    for k, state in rows:
        row = _record(state, config)
        if not all(map(math.isfinite, row)):
            raise BlowUpError(k, state.t)
        records.append(row)
    cols = np.array(records, dtype=float).T
    series = DiagnosticsSeries(*cols)
    return (series, state) if return_final else series


# Snapshot format, little-endian: header (magic, float64 t, M, m, int64 n_x,
# float64 x_extent), then the state arrays row-major: a as complex128 and f
# as float64, that is psi_plus, psi_minus, phi and phi_t, n_x values each.
_STATE_MAGIC = b"DKG1DST2"
_OLD_STATE_MAGIC = b"DKG1DST1"
_STATE_HEADER = struct.Struct("<8sdddqd")
_A_DTYPE, _F_DTYPE = np.dtype("<c16"), np.dtype("<f8")
_BYTES_PER_POINT = 2 * (_A_DTYPE.itemsize + _F_DTYPE.itemsize)


def save_state(path, state: DKGState) -> None:
    """Write a snapshot of ``state`` to ``path``: a file name, or a binary
    file open for writing."""
    shape = (2, state.grid.n_x)
    if state.a.shape != shape or state.f.shape != shape:
        raise ValueError(f"a and f have shapes {state.a.shape} and {state.f.shape}, expected {shape}")
    if np.iscomplexobj(state.f):
        raise ValueError("f = (phi, phi_t) must be real")
    with open(path, "wb") if isinstance(path, (str, os.PathLike)) else contextlib.nullcontext(path) as fh:
        fh.write(_STATE_HEADER.pack(_STATE_MAGIC, state.t, state.M, state.m, shape[1], state.grid.x_extent))
        fh.write(state.a.astype(_A_DTYPE).tobytes())
        fh.write(state.f.astype(_F_DTYPE).tobytes())


def load_state(path) -> DKGState:
    with open(path, "rb") as fh:
        raw = fh.read(_STATE_HEADER.size)
        if raw[:8] == _OLD_STATE_MAGIC:
            raise ValueError(
                "padded snapshot format DKG1DST1 is no longer read; re-create the snapshot"
            )
        if len(raw) != _STATE_HEADER.size:
            raise ValueError("truncated solver state header")
        magic, t, M, m, n_x, x_extent = _STATE_HEADER.unpack(raw)
        if magic != _STATE_MAGIC:
            raise ValueError("not a solver state snapshot")
        if not all(map(math.isfinite, (t, M, m))):
            raise ValueError("non-finite time or mass in solver state header")
        grid = GridSpec1D(n_x=n_x, x_extent=x_extent)
        # Check the declared size against the file before reading, so that a
        # corrupt header cannot ask for an arbitrarily large read.
        nbytes = _BYTES_PER_POINT * n_x
        start = fh.tell()
        if fh.seek(0, io.SEEK_END) - start != nbytes:
            raise ValueError("solver state payload does not match its header")
        fh.seek(start)
        payload = fh.read(nbytes)
    a = np.frombuffer(payload, dtype=_A_DTYPE, count=2 * n_x)
    f = np.frombuffer(payload, dtype=_F_DTYPE, offset=a.nbytes)
    return DKGState(a.astype(complex).reshape(2, n_x), f.astype(float).reshape(2, n_x), t, M, m, grid)
