"""Charge-conserving split-step spectral solver for the 1d Dirac-Klein-Gordon system.

The evolved system, on a periodic spatial interval (D = -i d):

    (D_t + D_x) psi_+ + M psi_+ = P_+(phi beta psi),
    (D_t - D_x) psi_- + M psi_- = P_-(phi beta psi),
    (d_tt - d_xx + m^2) phi     = <beta psi, psi>.

The spinor is stored through scalar amplitudes on the one-dimensional
ranges of P+-:  psi = a_+ e_+ + a_- e_-  with  e_+- = (1, +-1)/sqrt(2).
This halves the memory and makes the half-wave flows scalar.

A step composes three flows, each solved exactly:

* half-wave: per Fourier mode, a_+ picks up exp(-i (xi + M) dt) and a_-
  picks up exp(-i (-xi + M) dt)  (unitary, exact transport for M = 0);
* Klein-Gordon: per mode with omega = sqrt(xi^2 + m^2), (phi, phi_t)
  rotates by the exact harmonic-oscillator flow (energy preserving, with
  the omega -> 0 limit phi <- phi + dt phi_t);
* coupling: with phi frozen, psi <- cos(phi dt) psi + i sin(phi dt) beta psi,
  exact because (phi beta)^2 = phi^2 I; in amplitudes beta swaps the two
  ranges, so (a_+, a_-) mix through a pointwise unitary rotation.
  Simultaneously phi_t gains dt <beta psi, psi>; the density
  <beta psi, psi> = 2 Re(a_+ conj a_-) is invariant under the rotation, so
  the kick is exact as well.

Every substep is unitary on the spinor, so the charge ||psi||_L2 is
conserved to roundoff over arbitrarily many steps; every substep is exactly
invertible, so a Strang step followed by its negative-dt mirror returns the
state to roundoff.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, replace
from typing import Literal

import numpy as np
import scipy.fft as sfft

from .norms import Grid2D, GridFunction2D, read_gridfunction, write_gridfunction

SQRT2 = np.sqrt(2.0)


class BlowUpError(RuntimeError):
    """Non-finite value met during time stepping (blow-up or instability)."""

    def __init__(self, step: int, t: float):
        super().__init__(f"non-finite state at step {step} (t = {t:.6g})")
        self.step = step
        self.t = t


@dataclass(frozen=True)
class GridSpec1D:
    """Periodic spatial grid; power-of-two size for FFT efficiency."""

    n_x: int
    x_extent: float

    def __post_init__(self):
        if self.n_x < 2 or self.n_x & (self.n_x - 1):
            raise ValueError("n_x must be a power of two")
        if not 0 < self.x_extent < math.inf:
            raise ValueError("x_extent must be finite and positive")

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

    @property
    def xi_fft(self) -> np.ndarray:
        """Dual modes in FFT storage order."""
        return sfft.fftfreq(self.n_x, d=self.dx) * 2 * np.pi

    @property
    def xi_rfft(self) -> np.ndarray:
        return sfft.rfftfreq(self.n_x, d=self.dx) * 2 * np.pi


@dataclass
class DKGState:
    """Field state at one instant: spinor amplitudes, scalar field, masses."""

    psi_plus: np.ndarray
    psi_minus: np.ndarray
    phi: np.ndarray
    phi_t: np.ndarray
    t: float
    M: float
    m: float
    grid: GridSpec1D


@dataclass(frozen=True)
class SolverConfig:
    grid: GridSpec1D
    dt: float
    t_end: float
    splitting: Literal["lie", "strang"] = "strang"
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
        if self.splitting not in ("lie", "strang"):
            raise ValueError("splitting must be 'lie' or 'strang'")
        if self.diagnostics_every < 1:
            raise ValueError("diagnostics_every must be >= 1")


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
    a_plus = (psi0[:, 0] + psi0[:, 1]) / SQRT2
    a_minus = (psi0[:, 0] - psi0[:, 1]) / SQRT2
    return DKGState(
        psi_plus=a_plus,
        psi_minus=a_minus,
        phi=phi0.astype(float),
        phi_t=phi1.astype(float),
        t=0.0,
        M=float(M),
        m=float(m),
        grid=grid,
    )


def reconstruct(state: DKGState) -> np.ndarray:
    """Spinor field of shape (n_x, 2) from the stored amplitudes."""
    psi1 = (state.psi_plus + state.psi_minus) / SQRT2
    psi2 = (state.psi_plus - state.psi_minus) / SQRT2
    return np.stack([psi1, psi2], axis=-1)


def charge(state: DKGState) -> float:
    """Conserved L2 norm of the spinor field."""
    density = np.abs(state.psi_plus) ** 2 + np.abs(state.psi_minus) ** 2
    return float(np.sqrt(density.sum() * state.grid.dx))


def spinor_density(state: DKGState) -> np.ndarray:
    """Pointwise source <beta psi, psi> = 2 Re(a_+ conj a_-), real."""
    return 2.0 * np.real(state.psi_plus * np.conj(state.psi_minus))


def half_wave_flow(state: DKGState, dt: float) -> DKGState:
    """Exact linear Dirac flow: per-mode unit phases on each amplitude."""
    if dt == 0.0:
        return state
    xi = state.grid.xi_fft
    phase_plus = np.exp(-1j * (xi + state.M) * dt)
    phase_minus = np.exp(-1j * (-xi + state.M) * dt)
    a_plus = sfft.ifft(phase_plus * sfft.fft(state.psi_plus))
    a_minus = sfft.ifft(phase_minus * sfft.fft(state.psi_minus))
    return replace(state, psi_plus=a_plus, psi_minus=a_minus)


def kg_flow(state: DKGState, dt: float) -> DKGState:
    """Exact homogeneous Klein-Gordon flow on (phi, phi_t)."""
    if dt == 0.0:
        return state
    omega = np.sqrt(state.grid.xi_rfft**2 + state.m**2)
    c = np.cos(omega * dt)
    s_over_omega = dt * np.sinc(omega * dt / np.pi)  # sin(omega dt)/omega, exact at 0
    phi_hat = sfft.rfft(state.phi)
    phi_t_hat = sfft.rfft(state.phi_t)
    new_phi = c * phi_hat + s_over_omega * phi_t_hat
    new_phi_t = -omega * np.sin(omega * dt) * phi_hat + c * phi_t_hat
    n = state.grid.n_x
    return replace(state, phi=sfft.irfft(new_phi, n=n), phi_t=sfft.irfft(new_phi_t, n=n))


def coupling_flow(state: DKGState, dt: float) -> DKGState:
    """Exact coupling substep with phi frozen.

    Rotates the spinor pointwise by exp(i phi beta dt) (which preserves |psi|
    pointwise) and kicks phi_t by dt times the quadratic density.
    """
    if dt == 0.0:
        return state
    theta = state.phi * dt
    c = np.cos(theta)
    s = np.sin(theta)
    density = spinor_density(state)  # invariant under the rotation below
    a_plus = c * state.psi_plus + 1j * s * state.psi_minus
    a_minus = c * state.psi_minus + 1j * s * state.psi_plus
    return replace(
        state, psi_plus=a_plus, psi_minus=a_minus, phi_t=state.phi_t + dt * density
    )


def strang_step(state: DKGState, dt: float) -> DKGState:
    """coupling(dt/2), then the commuting pair half-wave(dt) | kg(dt), then coupling(dt/2)."""
    s = coupling_flow(state, dt / 2)
    s = half_wave_flow(s, dt)
    s = kg_flow(s, dt)
    s = coupling_flow(s, dt / 2)
    return replace(s, t=state.t + dt)


def lie_step(state: DKGState, dt: float) -> DKGState:
    s = coupling_flow(state, dt)
    s = half_wave_flow(s, dt)
    s = kg_flow(s, dt)
    return replace(s, t=state.t + dt)


def step(state: DKGState, config: SolverConfig) -> DKGState:
    stepper = strang_step if config.splitting == "strang" else lie_step
    return stepper(state, config.dt)


def kg_energy(state: DKGState) -> float:
    """Discrete 1/2 int (phi_t^2 + phi_x^2 + m^2 phi^2) dx, spectral derivative."""
    phi_x = sfft.irfft(1j * state.grid.xi_rfft * sfft.rfft(state.phi), n=state.grid.n_x)
    integrand = state.phi_t**2 + phi_x**2 + state.m**2 * state.phi**2
    return float(0.5 * integrand.sum() * state.grid.dx)


def sobolev_norm(values: np.ndarray, s: float, grid: GridSpec1D) -> float:
    """H^s norm over the last axis (leading axes summed in quadrature).

    Normalized so that s = 0 gives the physical L2(dx) norm.
    """
    values = np.asarray(values, dtype=complex)
    if values.shape[-1] != grid.n_x:
        raise ValueError("last axis must match the grid")
    f_hat = sfft.fft(values, axis=-1) * grid.dx
    w = (1.0 + np.abs(grid.xi_fft)) ** s
    dxi = 2 * np.pi / grid.x_extent
    total = np.sum((w * np.abs(f_hat)) ** 2) * dxi / (2 * np.pi)
    return float(np.sqrt(total))


def spinor_sobolev_norm(state: DKGState, s: float) -> float:
    return sobolev_norm(reconstruct(state).T, s, state.grid)


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

    COLUMNS = ("t", "charge", "hs_psi", "hr_phi", "kg_energy")

    def rows(self):
        for i in range(self.t.size):
            yield (
                self.t[i],
                self.charge[i],
                self.hs_psi[i],
                self.hr_phi[i],
                self.kg_energy[i],
            )


def _record(state: DKGState, config: SolverConfig) -> tuple[float, ...]:
    return (
        state.t,
        charge(state),
        spinor_sobolev_norm(state, config.diag_s),
        sobolev_norm(state.phi.astype(complex), config.diag_r, state.grid),
        kg_energy(state),
    )


def run(
    config: SolverConfig, state: DKGState, return_final: bool = False
) -> DiagnosticsSeries | tuple[DiagnosticsSeries, DKGState]:
    """Advance to t_end (rounded to whole steps), recording diagnostics.

    Aborts with ``BlowUpError`` carrying the step index as soon as a
    recorded quantity or a field value stops being finite.
    """
    n_steps = max(0, int(round((config.t_end - state.t) / config.dt)))
    records = [_record(state, config)]
    for k in range(1, n_steps + 1):
        state = step(state, config)
        if k % config.diagnostics_every == 0 or k == n_steps:
            row = _record(state, config)
            finite = all(np.isfinite(v) for v in row) and np.all(
                np.isfinite(state.psi_plus)
            ) and np.all(np.isfinite(state.psi_minus)) and np.all(np.isfinite(state.phi))
            if not finite:
                raise BlowUpError(k, state.t)
            records.append(row)
    cols = np.array(records, dtype=float).T
    series = DiagnosticsSeries(*cols)
    return (series, state) if return_final else series


# Snapshot format: little-endian header (magic, t, M, m), then the four
# fields psi_plus, psi_minus, phi, phi_t as consecutive blocks in the
# GridFunction2D binary layout (two rows each: the field and a zero pad row,
# since that layout requires an even row count).
_STATE_MAGIC = b"DKG1DST1"
_STATE_HEADER = struct.Struct("<8sddd")


def save_state(path, state: DKGState) -> None:
    grid2d = Grid2D(n_t=2, n_x=state.grid.n_x, t_extent=1.0, x_extent=state.grid.x_extent)
    with open(path, "wb") as fh:
        fh.write(_STATE_HEADER.pack(_STATE_MAGIC, state.t, state.M, state.m))
        pad = np.zeros(state.grid.n_x, dtype=complex)
        for field in (state.psi_plus, state.psi_minus, state.phi, state.phi_t):
            values = np.stack([np.asarray(field, dtype=complex), pad])
            write_gridfunction(fh, GridFunction2D(grid2d, values, "physical"))


def load_state(path) -> DKGState:
    with open(path, "rb") as fh:
        raw = fh.read(_STATE_HEADER.size)
        if len(raw) != _STATE_HEADER.size:
            raise ValueError("truncated solver state header")
        magic, t, M, m = _STATE_HEADER.unpack(raw)
        if magic != _STATE_MAGIC:
            raise ValueError("not a solver state snapshot")
        if not all(map(math.isfinite, (t, M, m))):
            raise ValueError("non-finite time or mass in solver state header")
        fields = [read_gridfunction(fh) for _ in range(4)]
    n_x = fields[0].grid.n_x
    grid = GridSpec1D(n_x=n_x, x_extent=fields[0].grid.x_extent)
    return DKGState(
        psi_plus=fields[0].values[0].copy(),
        psi_minus=fields[1].values[0].copy(),
        phi=fields[2].values[0].real.copy(),
        phi_t=fields[3].values[0].real.copy(),
        t=t,
        M=M,
        m=m,
        grid=grid,
    )
