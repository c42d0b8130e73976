"""Charge-conserving split-step spectral solver for the 1d Dirac-Klein-Gordon system.

The evolved system, on a periodic spatial interval (D = -i d):

    (D_t + alpha D_x) psi + M beta psi = phi beta psi,
    (d_tt - d_xx + m^2) phi            = <beta psi, psi>.

The state is stored as two stacked arrays, the layout every flow acts on.
The spinor is kept through scalar amplitudes on the one-dimensional ranges
of P+-:  psi = a_+ e_+ + a_- e_-  with  e_+- = (1, +-1)/sqrt(2), and
``DKGState.a`` = (a_+, a_-) = ``spinor.amplitudes(psi)`` is one complex
(2, n_x) array; ``DKGState.f`` = (phi, phi_t) is one real (2, n_x) array.
The amplitudes halve the memory and make the half-wave flows scalar.  ``init_state``, ``save_state`` and
``load_state`` share one check of a valid state (``_check_state``), so
``save_state`` refuses exactly the states that ``load_state`` would refuse.

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

A Strang step is linear(dt/2) | coupling(dt) | linear(dt/2), where linear
is the commuting pair half-wave | Klein-Gordon, both diagonal in Fourier
space: one cache, ``_linear_table`` (four entries, keyed by (grid, m, h)),
holds their per-mode tables for one step length h, and one kernel,
``_linear``, applies a table.  The march behind ``run`` opens with one FFT and
one real FFT of the input state, yielded first as the t = 0 row, and holds
the spectra (a_hat, f_hat), the complex FFT of (a_+, a_-) and the real FFT
of (phi, phi_t), between steps, where the closing linear(dt/2) of one step
and the opening one of the next fuse into one linear(dt): linear runs once
a step, and a one-step march reads the dt/2 table alone.  A step costs one
inverse FFT of the amplitudes and one inverse real FFT of phi, for the
pointwise coupling, then one real FFT of the kick to phi_t and one FFT of the
rotated amplitudes; the half-wave phases carry the amplitudes' inverse FFT's
1/n_x, so no pass of its own scales them.  The coupling takes the cosine and
sine of its angle from one ``tan`` of the half angle, since NumPy's float64
``tan`` has a SIMD loop and its ``cos`` and ``sin`` do not.

Each march allocates one workspace, ``_Workspace``, sized by n_x, when it
starts, and its steps allocate no array: the inverse real FFT of phi, the
coupling's angle, cosine, density and kick, the kick's real FFT and the
Klein-Gordon product go into the workspace's buffers, a_hat is transformed
and rotated in place, and f_hat advances into a spare buffer that then
takes its place.  The kernels apply the same NumPy operations in the same
order as they would on new arrays, so every bit is unchanged.  Like the
spectra, whose last a_hat becomes the returned state's ``a``, the
workspace belongs to its march alone: nothing is cached per grid or per
process.

A diagnostics row reads the spectra the march holds, still owed the
closing linear(dt/2), with no transform: it applies the Klein-Gordon half
step to a copy of f_hat, and reads every column as a Parseval sum with
plain weights (``_row_weights``).  a_hat is read as it is, since the
half-wave phases have modulus 1 and leave |a_hat|^2, so the charge and the
H^s norm, unchanged.  Rows write nothing, so the march's bits do not
depend on ``diagnostics_every``.  ``run`` checks every row, t = 0 included,
in its one loop, and materialises the final state once: the closing
linear(dt/2), an inverse FFT and an inverse real FFT; ``strang_step`` is
the last yield of a one-step march, materialised the same way.  A
non-finite field value makes its row non-finite, so the row check is the
only finiteness scan, and ``run`` silences NumPy's overflow and invalid-value
warnings.

Every transform here, the march's and those of ``sobolev_norm`` and
``rough_data``, calls ``_pocketfft()``, SciPy's binding under ``scipy.fft``,
as ``scipy.fft`` would, without its per-call dispatch (more than a transform
at n_x = 1024), on complex128 or float64 input.  The binding is imported on
first use, so SciPy loads ``scipy.fft`` (about 0.3 s) on the first transform
and a process that never takes one does not pay for it.
"""

from __future__ import annotations

import contextlib
import functools
import io
import math
import struct
from dataclasses import dataclass, replace

import numpy as np

from . import spinor
from ._checks import count, finite_real

_MAX_MASS = math.sqrt(np.finfo(float).max)  # the largest m whose m**2 is finite


class BlowUpError(RuntimeError):
    """A non-finite diagnostics row of ``run``: blow-up, instability or overflow."""

    def __init__(self, step: int, t: float):
        super().__init__(f"non-finite diagnostics row at step {step} (t = {t:.6g})")
        self.step = step
        self.t = t


@dataclass(frozen=True)
class GridSpec1D:
    """Periodic spatial grid; power-of-two size for FFT efficiency.

    ``n_x`` fits the int64 of the snapshot header, and the spacings ``dx``
    and ``2 pi / x_extent`` are finite and positive.
    """

    n_x: int
    x_extent: float

    def __post_init__(self):
        n_x = self.n_x
        if not (count(n_x) and 2 <= n_x < 2**63) or n_x & (n_x - 1):
            raise ValueError("n_x must be an integer power of two in [2, 2^62]")
        if not (finite_real(self.x_extent) and self.x_extent > 0):
            raise ValueError("x_extent must be real, finite and positive")
        if not (self.dx > 0 and 2 * math.pi / self.x_extent < math.inf):
            raise ValueError("grid spacings must be finite and positive")

    @property
    def dx(self) -> float:
        return self.x_extent / self.n_x

    @property
    def x(self) -> np.ndarray:
        return (np.arange(self.n_x) - self.n_x // 2) * self.dx

    @property
    def xi_fft(self) -> np.ndarray:
        """Dual modes in FFT storage order."""
        return np.fft.fftfreq(self.n_x, d=self.dx) * 2 * np.pi

    @property
    def xi_rfft(self) -> np.ndarray:
        """Nonnegative dual modes of a real FFT."""
        return np.fft.rfftfreq(self.n_x, d=self.dx) * 2 * np.pi


@dataclass
class DKGState:
    """Field state at one instant, in the layout the flows act on.

    ``a`` = (a_+, a_-) holds the spinor amplitudes on the ranges of P+-,
    complex of shape (2, n_x); ``f`` = (phi, phi_t) holds the scalar field
    and its time derivative, real of shape (2, n_x).  ``psi_plus``,
    ``psi_minus``, ``phi`` and ``phi_t`` are row views of these.  ``strang_step``
    and ``run`` return new states and never write into the arrays of their input.
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
    """Step (any finite dt > 0), end time and diagnostics of a ``run``.
    ``diag_s`` and ``diag_r`` (regularities of the recorded norms of psi and
    phi) need a finite H^s weight on every mode, so that a finite state records a finite row."""

    grid: GridSpec1D
    dt: float
    t_end: float
    diagnostics_every: int = 16
    diag_s: float = 0.0
    diag_r: float = 0.0

    def __post_init__(self):
        if not (finite_real(self.dt) and self.dt > 0):
            raise ValueError("dt must be real, finite and positive")
        if not finite_real(self.t_end):
            raise ValueError("t_end must be real and finite")
        if not (count(self.diagnostics_every) and self.diagnostics_every >= 1):
            raise ValueError("diagnostics_every must be an integer >= 1")
        for s in (self.diag_s, self.diag_r):
            _sobolev_weight(self.grid, s, "diag_s and diag_r")


def _check_state(state: DKGState) -> DKGState:
    """``state``, if ``a`` and a real ``f`` have shape (2, n_x) and its time,
    masses (nonnegative), m**2 and fields are finite; otherwise ValueError."""
    shape = (2, state.grid.n_x)
    if state.a.shape != shape or state.f.shape != shape:
        raise ValueError(f"a and f have shapes {state.a.shape} and {state.f.shape}, expected {shape}")
    if np.iscomplexobj(state.f):
        raise ValueError("f = (phi, phi_t) must be real")
    if not finite_real(state.t):
        raise ValueError("non-finite time in solver state")
    if not (finite_real(state.M) and finite_real(state.m) and state.M >= 0 and 0 <= state.m <= _MAX_MASS):
        raise ValueError("masses must be finite and nonnegative, with m**2 finite")
    if not (np.isfinite(state.a).all() and np.isfinite(state.f).all()):
        raise ValueError("field values must be finite")
    return state


def init_state(
    psi0: np.ndarray,
    phi0: np.ndarray,
    phi1: np.ndarray,
    M: float,
    m: float,
    grid: GridSpec1D,
) -> DKGState:
    """Assemble a state at t = 0 from spinor-valued and real scalar data;
    data or masses that the state check refuses raise ValueError."""
    psi0 = np.asarray(psi0, dtype=complex)
    if psi0.shape != (grid.n_x, 2):
        raise ValueError(f"psi0 must have shape ({grid.n_x}, 2)")
    # A non-finite or overflowing psi0 gives a non-finite a (inf - inf is nan), which the check refuses.
    with np.errstate(invalid="ignore", over="ignore"):
        a = spinor.amplitudes(psi0)
    state = _check_state(DKGState(a, np.stack((phi0, phi1)), 0.0, M, m, grid))
    return replace(state, f=state.f.astype(float), M=float(M), m=float(m))


def charge(state: DKGState) -> float:
    """Conserved L2 norm of the spinor field."""
    return float(np.sqrt(np.vdot(state.a, state.a).real * state.grid.dx))


def _density(a: np.ndarray, out: np.ndarray | None = None, scratch: np.ndarray | None = None) -> np.ndarray:
    """Pointwise source <beta psi, psi> = 2 Re(a_+ conj a_-), real, written
    into ``out`` by way of the complex ``scratch`` (each new when None)."""
    product = np.conj(a[1], out=scratch)
    np.multiply(a[0], product, out=product)
    return np.multiply(2.0, product.real, out=out)


# Kernels on the state arrays a = (a_+, a_-) and f = (phi, phi_t), and on
# their spectra.  ``_linear`` multiplies a_hat in place and ``_coupling``
# rotates a in place; every other result goes into the buffers a caller
# passes, or into new arrays when it passes none.


class _Workspace:
    """The scratch arrays of one march on n points, allocated when it starts
    and rewritten by every step.  A buffer holds one value after another
    where the step's lifetimes allow: ``kick_hat`` and ``product`` are views
    of the front of ``z`` and ``pair``, which are free again by then."""

    def __init__(self, n: int):
        bins = n // 2 + 1  # of a real FFT
        self.phi = np.empty(n)  # phi, then the half-angle tangent t
        self.d = np.empty(n)  # 1 + t^2, then the kick
        self.cos = np.empty(n)
        self.z = np.empty(n, complex)  # a_+ conj a_-, then 2i t, then the kick's real FFT
        self.kick_hat = self.z[:bins]
        self.pair = np.empty((2, n), complex)  # 2i t (a_-, a_+), then a Klein-Gordon product
        self.product = self.pair.reshape(-1)[: 2 * bins].reshape(2, bins)
        self.f_hat = np.empty((2, bins), complex)  # the spare f_hat


# Four entries: a run and its -dt reversal each use the tables of dt/2 and dt; a one-step march, dt/2's alone.
@functools.lru_cache(maxsize=4)
def _linear_table(grid: GridSpec1D, m: float, h: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-mode tables of linear(h), cached and read-only: the half-wave
    phases exp(-+i xi h) / n_x of (a_+, a_-), shape (2, n_x), one row the
    other's conjugate, whose 1/n_x (exact, n_x being a power of two) scales
    the unscaled inverse FFT that follows them, and the exact Klein-Gordon
    flow on (phi_hat, phi_t_hat), [[cos, sin/omega], [-omega sin, cos]]
    (omega h) with omega = sqrt(xi^2 + m^2), shape (2, 2, n_x // 2 + 1), the
    identity at h = 0, stored complex so that applying it to f_hat casts
    nothing (the same bits)."""
    omega = np.sqrt(grid.xi_rfft**2 + m**2)
    c = np.cos(omega * h)
    s_over_omega = h * np.sinc(omega * h / np.pi)  # sin(omega h)/omega, exact at 0
    phase = np.exp(-1j * grid.xi_fft * h) / grid.n_x
    phases = np.stack((phase, phase.conj()))
    kg = np.array([[c, s_over_omega], [-omega * np.sin(omega * h), c]], dtype=complex)
    phases.flags.writeable = kg.flags.writeable = False
    return phases, kg


def _kg_flow(kg: np.ndarray, f_hat: np.ndarray, out: np.ndarray | None = None, product: np.ndarray | None = None) -> np.ndarray:
    """The Klein-Gordon matrices ``kg`` of a table applied to f_hat =
    (phi_hat, phi_t_hat), written into ``out`` by way of ``product`` (each
    new when None); ``out`` must not overlap f_hat."""
    new = np.multiply(kg[:, 0], f_hat[0], out=out)
    new += np.multiply(kg[:, 1], f_hat[1], out=product)
    return new


def _linear(
    table: tuple, a_hat: np.ndarray, f_hat: np.ndarray, out: np.ndarray | None = None, product: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """linear(h) of the spectra (a_hat, f_hat), ``table`` being
    ``_linear_table`` of h: a_hat multiplied in place (and divided by n_x),
    and f_hat advanced by ``_kg_flow`` into ``out``."""
    a_hat *= table[0]
    return a_hat, _kg_flow(table[1], f_hat, out, product)


def _coupling(a: np.ndarray, phi: np.ndarray, M: float, h: float, work: _Workspace) -> tuple[np.ndarray, np.ndarray]:
    """The amplitudes ``a`` rotated in place by the coupling angle theta =
    (phi - M) h, and the kick h <beta psi, psi> to phi_t, held in ``work``;
    ``phi`` may be ``work.phi``.

    cos(theta) and sin(theta) come from one tangent of the half angle,
    t = tan(theta / 2): cos = (1 - t^2) / d and sin = 2 t / d, d = 1 + t^2.
    Their squares sum to 1 for every t, so the rotation stays unitary to
    roundoff, and NumPy's float64 ``tan`` has a SIMD loop (AVX-512) where
    its ``cos`` and ``sin`` are scalar."""
    tan = np.subtract(phi, M, out=work.phi)
    tan *= h / 2
    tan = np.tan(tan, out=tan)
    d = np.multiply(tan, tan, out=work.d)
    cos = np.subtract(1.0, d, out=work.cos)
    d += 1.0
    cos /= d
    tan /= d
    kick = _density(a, d, work.z)  # invariant under the rotation below
    kick *= h
    # beta swaps the ranges: a_+- <- cos(theta) a_+- + i sin(theta) a_-+,
    # the swapped term taken before a is overwritten.
    swapped = np.multiply(np.multiply(tan, 2j, out=work.z), a[::-1], out=work.pair)
    np.multiply(cos, a, out=a)
    a += swapped
    return a, kick


def _pocketfft():
    """SciPy's pocketfft binding, called as ``c2c(x, axes, forward, inorm,
    out, nthreads)``, ``r2c`` alike and ``c2r(x, axes, n, forward, inorm,
    out, nthreads)``; inorm 0 leaves the sum unscaled, 2 divides it by n."""
    from scipy.fft._pocketfft import pypocketfft

    return pypocketfft


def _march(state: DKGState, dt: float, n_steps: int, every: int):
    """Take ``n_steps`` Strang steps of ``dt`` from ``state``; yield (k, t,
    a_hat, f_hat), the spectra the march holds: first those of ``state``
    (k = 0), then those after the coupling of every ``every``-th step and of
    the last one, still owed the step's closing linear(dt/2).

    Between steps the closing linear(dt/2) of one step and the opening one
    of the next fuse into one linear(dt).  The yielded arrays are the held
    ones, not copies, and the next step rewrites them: a reader must not
    write into them, and then no bit of the march depends on ``every``.
    The march's spectra and its one ``_Workspace`` are its own, shared
    with no other march: the last a_hat becomes the materialised state's ``a``.
    """
    fft = _pocketfft()
    a_hat = fft.c2c(np.asarray(state.a, complex), (-1,), True, 0, None, 1)
    f_hat = fft.r2c(np.asarray(state.f, float), (-1,), True, 0, None, 1)
    t = state.t
    yield 0, t, a_hat, f_hat
    if not n_steps:
        return
    M, n = state.M, state.grid.n_x
    half = _linear_table(state.grid, state.m, dt / 2)
    full = _linear_table(state.grid, state.m, dt) if n_steps > 1 else half
    work = _Workspace(n)
    for k in range(1, n_steps + 1):
        # The opening linear(dt/2), then one fused linear(dt) between steps;
        # f_hat advances into the spare, which then takes the old f_hat.
        a_hat, f_next = _linear(half if k == 1 else full, a_hat, f_hat, work.f_hat, work.product)
        f_hat, work.f_hat = f_next, f_hat
        a = fft.c2c(a_hat, (-1,), False, 0, a_hat, 1)
        a, kick = _coupling(a, fft.c2r(f_hat[0], (-1,), n, False, 2, work.phi, 1), M, dt, work)
        f_hat[1] += fft.r2c(kick, (-1,), True, 0, work.kick_hat, 1)
        a_hat = fft.c2c(a, (-1,), True, 0, a, 1)
        t += dt
        if k % every == 0 or k == n_steps:
            yield k, t, a_hat, f_hat


def _materialise(state: DKGState, dt: float, t: float, a_hat: np.ndarray, f_hat: np.ndarray) -> DKGState:
    """The state at ``t`` from the spectra a march of ``dt`` holds after a
    step: the closing linear(dt/2), then an inverse FFT and an inverse real FFT."""
    a_hat, f_hat = _linear(_linear_table(state.grid, state.m, dt / 2), a_hat, f_hat)
    fft = _pocketfft()
    a = fft.c2c(a_hat, (-1,), False, 0, a_hat, 1)
    return replace(state, a=a, f=fft.c2r(f_hat, (-1,), state.grid.n_x, False, 2, None, 1), t=t)


def strang_step(state: DKGState, dt: float) -> DKGState:
    """linear(dt/2), then coupling(dt), then linear(dt/2), where linear(h) is
    the commuting pair half-wave(h) | kg(h): one step of ``run``'s march.

    ``dt`` must be a finite real number; zero, negative and any size are
    allowed: every substep is an exact flow, so the step has no CFL limit."""
    if not finite_real(dt):
        raise ValueError("dt must be finite and real")
    *_, (_, t, a_hat, f_hat) = _march(state, dt, 1, 1)
    return _materialise(state, dt, t, a_hat, f_hat)


def _hermitian(weight: np.ndarray) -> np.ndarray:
    """Weight on the real-FFT bins of a real signal: the bins strictly between
    DC and Nyquist stand for themselves and their conjugate mirror, so they
    count twice."""
    weight[..., 1:-1] *= 2
    return weight


def _energy_weight(grid: GridSpec1D, m: float) -> np.ndarray:
    """Real-FFT weights w, shape (2, n_x // 2 + 1), with sum(w |f_hat|^2) =
    kg_energy of f = (phi, phi_t) (Parseval): (xi^2 + m^2, 1) dx / (2 n_x),
    with the Nyquist derivative dropped, as an inverse real FFT of
    i xi phi_hat drops it."""
    potential = grid.xi_rfft**2
    potential[-1] = 0.0
    return _hermitian(np.stack((potential + m**2, np.ones_like(potential))) * (grid.dx / (2 * grid.n_x)))


def _sobolev_weight(grid: GridSpec1D, s: float, name: str = "s") -> np.ndarray:
    """FFT weight w with sum(w |values_hat|^2) = ||values||_{H^s}^2:
    (1 + |xi|)^(2s) with the normalisation dx^2 / x_extent = dx / n_x folded
    in.  ValueError, naming ``name``, unless s is real and finite and w is
    finite on every bin, so that a finite state has a finite norm."""
    if finite_real(s):
        with np.errstate(over="ignore"):
            weight = (1.0 + np.abs(grid.xi_fft)) ** (2 * s)
            weight *= grid.dx / grid.n_x
        if np.isfinite(weight).all():
            return weight
    raise ValueError(f"{name} must be real and finite, with finite H^s weights on the grid")


def sobolev_norm(values: np.ndarray, s: float, grid: GridSpec1D) -> float:
    """H^s norm over the last axis (leading axes summed in quadrature).

    One complex FFT, weighted by (1 + |xi|)^(2s) and normalized so that
    s = 0 gives the physical L2(dx) norm.  The H^s norm of psi is that of
    the amplitudes (a_+, a_-), since the map between them is a constant
    unitary matrix.  ``s`` must be real and finite, with a finite weight on
    every bin of ``grid``, as ``SolverConfig`` asks of ``diag_s``; otherwise
    ValueError.
    """
    weight = _sobolev_weight(grid, s)
    values = np.asarray(values)
    if values.shape[-1] != grid.n_x:
        raise ValueError("last axis must match the grid")
    # Real input stays real, as scipy.fft.fft passes it: the binding's real path gives other bits.
    hat = _pocketfft().c2c(values.astype(np.result_type(values, float), copy=False), (-1,), True, 0, None, 1)
    return float(np.sqrt(np.vdot(hat * weight, hat).real))


def rough_data(s: float, seed: int, grid: GridSpec1D) -> np.ndarray:
    """Spinor data of unit H^s norm whose H^{s'} norms diverge for s' > s.

    Each component gets Fourier coefficients (1 + |xi|)^(-s - 1/2 - 0.01)
    with independent unit-modulus random phases; bit-reproducible for a
    fixed seed.  The domain is every s that keeps these magnitudes within a
    factor 1e6 of each other on ``grid``, (1 + pi/dx)^(-|s + 0.51|) >= 1e-6;
    there ``sobolev_norm`` reads 1 to within 1e-9 (relative).  Any other s
    raises ``ValueError``: the weight would amplify FFT roundoff in the
    smallest modes (1.65 at s = 10 on ``GridSpec1D(256, 16.0)``).
    """
    if not finite_real(s):
        raise ValueError("s must be real and finite")
    exponent = -s - 0.5 - 0.01
    if abs(exponent) * math.log1p(np.abs(grid.xi_fft).max()) > math.log(1e6):
        raise ValueError(
            f"s = {s:g} spreads the spectrum over more than a factor 1e6, "
            "so its H^s norm is roundoff-dominated or not finite on this grid"
        )
    rng = np.random.default_rng(seed)
    phases = np.exp(2j * np.pi * rng.random((2, grid.n_x)))
    magnitude = (1.0 + np.abs(grid.xi_fft)) ** exponent
    components = _pocketfft().c2c(magnitude * phases, (-1,), False, 2, None, 1) / grid.dx
    return components.T / sobolev_norm(components, s, grid)


def smooth_data(grid: GridSpec1D) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Compactly concentrated analytic data placed well inside the box."""
    w = grid.x_extent / 16
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


def _row_weights(config: SolverConfig, m: float) -> tuple:
    """Parseval weights that read a diagnostics row off spectra (a_hat,
    f_hat), built once per run: dx / n_x and the H^s weight on |a_hat|^2
    (charge and H^s norm), the H^r weight on the real-FFT bins of |phi_hat|^2
    and ``_energy_weight`` on |f_hat|^2.  Every weight is repeated over the
    (re, im) pairs of a real view."""
    grid = config.grid
    hr = _hermitian(_sobolev_weight(grid, config.diag_r)[: grid.n_x // 2 + 1])
    hs = _sobolev_weight(grid, config.diag_s)
    return grid.dx / grid.n_x, np.repeat(hs, 2), np.repeat(hr, 2), np.repeat(_energy_weight(grid, m), 2, axis=-1)


def _record(t: float, a_hat: np.ndarray, f_hat: np.ndarray, weights: tuple) -> tuple[float, ...]:
    """The row (t, charge, H^s, H^r, kg_energy) of the state whose FFT is
    a_hat and whose real FFT is f_hat, read with ``_row_weights``.

    Each dot runs over about 2 n_x doubles: OpenBLAS spreads a longer dot
    over its threads, and in the march at n_x = 4096 one dot over both rows
    of a_hat (16384 doubles) took 54 us with two threads against 9 us with
    one.  A square that overflows makes the row non-finite; ``run``
    silences the warning."""
    l2, hs, hr, energy = weights
    squares = f_hat.view(float) ** 2
    charge_squared = hs_squared = 0.0
    for row in a_hat.view(float):
        charge_squared += np.dot(row, row)
        hs_squared += np.dot(row * hs, row)
    hr_squared = np.dot(hr, squares[0])
    return t, math.sqrt(charge_squared * l2), math.sqrt(hs_squared), math.sqrt(hr_squared), float(np.vdot(energy, squares))


def run(
    config: SolverConfig, state: DKGState, return_final: bool = False
) -> DiagnosticsSeries | tuple[DiagnosticsSeries, DKGState]:
    """Advance to t_end, rounded to a whole number of steps, recording
    diagnostics.  A step count (t_end - t) / dt that is not finite or not
    below 2**53, past which float64 skips whole numbers, raises ValueError.

    The first recorded row that is not finite, the t = 0 row included,
    aborts the run with ``BlowUpError`` carrying its step index.  That
    covers every field value: a non-finite amplitude makes the charge
    non-finite, a non-finite phi the H^r norm and a non-finite phi_t the
    energy; so does a norm or energy that overflows on a finite state.
    ``config.grid`` must be the state's grid, on which the row weights are
    built.  As in ``strang_step``, no bound ties ``dt`` to the grid.
    """
    if config.grid != state.grid:
        raise ValueError(f"config grid {config.grid} does not match the state grid {state.grid}")
    steps = (config.t_end - state.t) / config.dt
    if not (math.isfinite(steps) and steps < 2**53):
        raise ValueError(f"(t_end - t) / dt is {steps}, not a finite step count below 2**53")
    n_steps = max(0, int(round(steps)))
    weights = _row_weights(config, state.m)
    # A row after a step reads a copy of f_hat with its closing Klein-Gordon
    # half step applied; the half-wave phases leave |a_hat|^2 alone.
    kg = _linear_table(state.grid, state.m, config.dt / 2)[1]
    records = []
    # An overflow or a non-finite value ends the run as a non-finite row, not as a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        for k, t, a_hat, f_hat in _march(state, config.dt, n_steps, config.diagnostics_every):
            row = _record(t, a_hat, _kg_flow(kg, f_hat) if k else f_hat, weights)
            if not all(map(math.isfinite, row)):
                raise BlowUpError(k, t)
            records.append(row)
    series = DiagnosticsSeries(*np.array(records, dtype=float).T)
    if not return_final:
        return series
    return series, _materialise(state, config.dt, t, a_hat, f_hat) if n_steps else state


# Snapshot format, little-endian: header (magic, float64 t, M, m, int64 n_x,
# float64 x_extent), then the state arrays row-major: a as complex128 and f
# as float64, that is psi_plus, psi_minus, phi and phi_t, n_x values each.
_STATE_MAGIC = b"DKG1DST2"
_STATE_HEADER = struct.Struct("<8sdddqd")
_A_DTYPE, _F_DTYPE = np.dtype("<c16"), np.dtype("<f8")
_BYTES_PER_POINT = 2 * (_A_DTYPE.itemsize + _F_DTYPE.itemsize)


def save_state(path, state: DKGState) -> None:
    """Write a snapshot of ``state`` to ``path``: a binary file open for writing,
    or a file name or descriptor, as ``open`` and ``load_state`` take.  The state
    passes the check that ``load_state`` makes before ``path`` is opened, so every snapshot written loads."""
    _check_state(state)
    with contextlib.nullcontext(path) if hasattr(path, "write") else open(path, "wb") as fh:
        fh.write(_STATE_HEADER.pack(_STATE_MAGIC, state.t, state.M, state.m, state.grid.n_x, state.grid.x_extent))
        fh.write(state.a.astype(_A_DTYPE).tobytes())
        fh.write(state.f.astype(_F_DTYPE).tobytes())


def load_state(path) -> DKGState:
    with open(path, "rb") as fh:
        raw = fh.read(_STATE_HEADER.size)
        if len(raw) != _STATE_HEADER.size:
            raise ValueError("truncated solver state header")
        magic, t, M, m, n_x, x_extent = _STATE_HEADER.unpack(raw)
        if magic != _STATE_MAGIC:
            raise ValueError("not a solver state snapshot")
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
    return _check_state(DKGState(a.astype(complex).reshape(2, n_x), f.astype(float).reshape(2, n_x), t, M, m, grid))
