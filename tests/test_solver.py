import dataclasses
import functools
import gc
import struct
import tracemalloc
import types

import numpy as np
import pytest
import scipy.fft
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from dkg1d import solver, spinor
from dkg1d.solver import DKGState, GridSpec1D, SolverConfig

# An int beyond float range: a real number, but not a finite float.
BEYOND_FLOAT = pytest.param(10**400, id="10**400")


@pytest.fixture
def grid():
    return GridSpec1D(256, 16.0)


@pytest.fixture
def smooth_state(grid):
    psi0, phi0, phi1 = solver.smooth_data(grid)
    return solver.init_state(psi0, phi0, phi1, 1.0, 1.0, grid)


def state_distance(a: DKGState, b: DKGState) -> float:
    return float(
        np.sqrt(
            np.sum(np.abs(a.psi_plus - b.psi_plus) ** 2)
            + np.sum(np.abs(a.psi_minus - b.psi_minus) ** 2)
            + np.sum((a.phi - b.phi) ** 2)
            + np.sum((a.phi_t - b.phi_t) ** 2)
        )
    )


def state_norm(a: DKGState) -> float:
    fields = (a.psi_plus, a.psi_minus, a.phi, a.phi_t)
    return float(np.sqrt(sum(np.sum(np.abs(v) ** 2) for v in fields)))


def plus_range_state(a_plus, grid, M=0.0):
    """psi in the range of P+ with phi = phi_t = 0: at M = 0 the coupling
    and Klein-Gordon substeps of a Strang step are exact identities there,
    so the step is the half-wave flow alone."""
    return DKGState(np.stack((a_plus, 0 * a_plus)), np.zeros((2, grid.n_x)), 0.0, M, 0.0, grid)


def scalar_state(phi, phi_t, grid, m=0.0):
    """psi = 0: the coupling substeps of a Strang step are exact identities,
    so the step is the Klein-Gordon flow alone."""
    return DKGState(np.zeros((2, grid.n_x), complex), np.stack((phi, phi_t)), 0.0, 0.0, m, grid)


def couple(a, phi, M, h):
    """``solver._coupling`` on a copy of ``a`` with a workspace of its own:
    the rotated amplitudes and the kick, which nothing else shares."""
    return solver._coupling(a.copy(), phi, M, h, solver._Workspace(phi.shape[-1]))


def coupled(state, h):
    """The coupling flow of length h through the kernels ``run`` applies."""
    a, kick = couple(state.a, state.phi, state.M, h)
    return dataclasses.replace(state, a=a, f=np.stack((state.phi, state.phi_t + kick)))


def data_state(grid, data, M):
    """Smooth data, or rough H^{1/4} spinor data with phi = phi_t = 0, at m = 1."""
    if data == "smooth":
        psi0, phi0, phi1 = solver.smooth_data(grid)
    else:
        psi0, phi0, phi1 = solver.rough_data(0.25, 9, grid), np.zeros(grid.n_x), np.zeros(grid.n_x)
    return solver.init_state(psi0, phi0, phi1, M, 1.0, grid)


def diagnostics(state, s=0.0, r=0.0):
    """The one diagnostics row of a zero-step ``run`` from ``state``."""
    config = SolverConfig(grid=state.grid, dt=state.grid.dx / 2, t_end=state.t, diag_s=s, diag_r=r)
    return solver.run(config, state)


class TestGridSpec:
    def test_spacing(self):
        g = GridSpec1D(8, 4.0)
        assert g.dx == 0.5
        assert g.x[4] == 0.0
        assert sorted(g.xi_fft) == pytest.approx((np.arange(8) - 4) * np.pi / 2)

    def test_dual_modes(self):
        g = GridSpec1D(8, 4.0)
        assert np.array_equal(g.xi_rfft, np.abs(g.xi_fft[: g.n_x // 2 + 1]))

    def test_rejects_non_power_of_two(self):
        for n_x in (100, 8.0, np.float64(16.0), 8.5, "8"):
            with pytest.raises(ValueError, match="integer power of two"):
                GridSpec1D(n_x, 4.0)
        assert GridSpec1D(np.int64(8), 4.0).n_x == 8

    @pytest.mark.parametrize("extent", [0.0, np.nan, np.inf, "4", None, True, BEYOND_FLOAT])
    def test_rejects_bad_extent(self, extent):
        with pytest.raises(ValueError, match="finite and positive"):
            GridSpec1D(8, extent)


@pytest.mark.parametrize(
    "call, message",
    [
        # The extent is positive, but dx = 5e-324 / 2 underflows to 0.
        pytest.param(lambda: GridSpec1D(2, 5e-324), "grid spacings must be finite and positive", id="dx-underflows"),
        pytest.param(
            lambda: solver.sobolev_norm(np.ones((2, 32)), 0.0, GridSpec1D(64, 16.0)),
            "last axis must match the grid",
            id="sobolev-axis",
        ),
    ],
)
def test_refusals(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


class TestStateLayout:
    def test_fields(self):
        assert [f.name for f in dataclasses.fields(DKGState)] == ["a", "f", "t", "M", "m", "grid"]

    def test_named_fields_are_row_views(self, smooth_state):
        a, f = smooth_state.a, smooth_state.f
        assert a.shape == f.shape == (2, smooth_state.grid.n_x)
        assert a.dtype == complex and f.dtype == float
        for view, rows, i in [("psi_plus", a, 0), ("psi_minus", a, 1), ("phi", f, 0), ("phi_t", f, 1)]:
            row = getattr(smooth_state, view)
            assert np.shares_memory(row, rows)
            assert np.array_equal(row, rows[i])
            with pytest.raises(AttributeError):
                setattr(smooth_state, view, row)

    def test_flows_leave_input_arrays_alone(self, smooth_state):
        a, f = smooth_state.a.copy(), smooth_state.f.copy()
        solver.strang_step(smooth_state, 0.05)
        coupled(smooth_state, 0.05)
        solver.run(SolverConfig(grid=smooth_state.grid, dt=0.05, t_end=0.5), smooth_state)
        assert np.array_equal(smooth_state.a, a) and np.array_equal(smooth_state.f, f)


class TestInitState:
    def test_plus_range_data(self, grid):
        psi0 = np.ones((grid.n_x, 2), dtype=complex)
        state = solver.init_state(psi0, np.zeros(grid.n_x), np.zeros(grid.n_x), 0, 0, grid)
        assert np.abs(state.psi_minus).max() == 0.0

    def test_zero_data(self, grid):
        state = solver.init_state(
            np.zeros((grid.n_x, 2), complex), np.zeros(grid.n_x), np.zeros(grid.n_x), 1, 1, grid
        )
        assert solver.charge(state) == 0.0

    def test_reconstruction_roundtrip(self, grid):
        rng = np.random.default_rng(0)
        psi0 = rng.standard_normal((grid.n_x, 2)) + 1j * rng.standard_normal((grid.n_x, 2))
        state = solver.init_state(psi0, np.zeros(grid.n_x), np.zeros(grid.n_x), 1, 1, grid)
        a_plus, a_minus = state.a
        psi = np.stack([a_plus + a_minus, a_plus - a_minus], axis=-1) / np.sqrt(2)
        assert np.abs(psi - psi0).max() <= 1e-14

    def test_rejects_complex_phi(self, grid):
        with pytest.raises(ValueError, match="real"):
            solver.init_state(
                np.zeros((grid.n_x, 2), complex),
                np.zeros(grid.n_x, complex),
                np.zeros(grid.n_x),
                1,
                1,
                grid,
            )

    def test_rejects_shape_mismatch(self, grid):
        with pytest.raises(ValueError):
            solver.init_state(
                np.zeros((grid.n_x, 3), complex), np.zeros(grid.n_x), np.zeros(grid.n_x), 1, 1, grid
            )

    @pytest.mark.parametrize("field", [0, 1, 2])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_data(self, grid, field, value):
        data = [np.zeros((grid.n_x, 2), complex), np.zeros(grid.n_x), np.zeros(grid.n_x)]
        data[field][3] = value
        with pytest.raises(ValueError, match="finite"):
            solver.init_state(*data, 1.0, 1.0, grid)

    @pytest.mark.parametrize(
        "M, m",
        [(np.nan, 1.0), (1.0, np.inf), (-1.0, 1.0), ("1", 1.0), (None, 1.0), (True, 1.0)]
        + [pytest.param(1.0, 10**400, id="1.0-10**400"), (1.0, 1e200)],
    )
    def test_rejects_bad_masses(self, grid, M, m):
        with pytest.raises(ValueError, match="masses"):
            solver.init_state(
                np.zeros((grid.n_x, 2), complex), np.zeros(grid.n_x), np.zeros(grid.n_x), M, m, grid
            )


class TestHalfWaveFlow:
    """Strang steps of plus-range data at phi = phi_t = 0, and at M = 0 unless stated."""

    def test_single_mode_phase(self, grid):
        xi_k = 5 * 2 * np.pi / grid.x_extent
        mode = np.exp(1j * xi_k * grid.x)
        out = solver.strang_step(plus_range_state(mode, grid), 0.25)
        assert_allclose(out.psi_plus, np.exp(-1j * xi_k * 0.25) * mode, atol=1e-13)
        assert np.abs(out.psi_minus).max() == 0.0 and np.abs(out.f).max() == 0.0

    def test_zero_dt_is_identity(self, smooth_state):
        out = solver.strang_step(smooth_state, 0.0)
        assert out.t == smooth_state.t
        assert state_distance(out, smooth_state) <= 1e-15 * state_norm(smooth_state)

    def test_mass_phase(self, grid):
        # M acts as M beta, in the coupling; the half-wave is pure transport,
        # so constant plus-range data only rotate, by the angle -M h.
        ones, M, h = np.ones(grid.n_x, complex), 2.0, 0.5
        out = solver.strang_step(plus_range_state(ones, grid, M), h)
        assert_allclose(out.psi_plus, np.cos(M * h) * ones, atol=1e-15)
        assert_allclose(out.psi_minus, -1j * np.sin(M * h) * ones, atol=1e-15)

    def test_transport(self):
        g = GridSpec1D(512, 32.0)
        a0 = np.exp(-((g.x) / 1.5) ** 2) * np.exp(2j * g.x)
        shift_cells = 16
        out = solver.strang_step(plus_range_state(a0, g), shift_cells * g.dx)
        assert np.abs(out.psi_plus - np.roll(a0, shift_cells)).max() <= 1e-12


class TestKGFlow:
    """Strang steps at psi = 0."""

    def test_standing_mode_oscillates(self):
        g = GridSpec1D(64, 2 * np.pi)
        phi0 = np.cos(3 * g.x)
        out = solver.strang_step(scalar_state(phi0, 0 * phi0, g), 0.4)
        assert_allclose(out.phi, np.cos(3 * 0.4) * phi0, atol=1e-13)
        assert np.abs(out.a).max() == 0.0

    def test_zero_mode_free_drift(self):
        g = GridSpec1D(64, 2 * np.pi)
        phi_t0 = np.full(g.n_x, 0.7)
        out = solver.strang_step(scalar_state(0 * phi_t0, phi_t0, g), 0.3)
        assert_allclose(out.phi, 0.3 * phi_t0, atol=1e-14)
        assert_allclose(out.phi_t, phi_t0, atol=1e-14)

    def test_energy_conserved(self, grid):
        rng = np.random.default_rng(1)
        phi0 = np.real(np.fft.ifft(np.exp(-np.abs(np.fft.fftfreq(grid.n_x) * 40)) * rng.standard_normal(grid.n_x)))
        state = scalar_state(phi0, np.roll(phi0, 3), grid, m=1.0)
        e0 = diagnostics(state).kg_energy[0]
        for _ in range(200):
            state = solver.strang_step(state, 0.03)
        assert abs(diagnostics(state).kg_energy[0] - e0) <= 1e-10 * e0


class TestCouplingFlow:
    """The coupling kernel ``solver._coupling``."""

    def test_zero_field_kicks_phi_t(self, grid):
        rng = np.random.default_rng(2)
        psi0 = rng.standard_normal((grid.n_x, 2)) + 1j * rng.standard_normal((grid.n_x, 2))
        # At M = 0 a zero field leaves the spinor alone.
        state = solver.init_state(psi0, np.zeros(grid.n_x), np.zeros(grid.n_x), 0, 1, grid)
        out = coupled(state, 0.2)
        assert_allclose(out.psi_plus, state.psi_plus)
        density = np.abs(psi0[:, 0]) ** 2 - np.abs(psi0[:, 1]) ** 2
        assert_allclose(out.phi_t, 0.2 * density, atol=1e-13)

    def test_plus_range_source_vanishes(self, grid):
        psi0 = np.ones((grid.n_x, 2), complex)
        state = solver.init_state(psi0, 0.3 * np.ones(grid.n_x), np.zeros(grid.n_x), 1, 1, grid)
        out = coupled(state, 0.2)
        assert np.abs(out.phi_t).max() <= 1e-15

    def test_charge_invariant(self, smooth_state):
        out = coupled(smooth_state, 0.37)
        assert solver.charge(out) == pytest.approx(solver.charge(smooth_state), rel=1e-14)

    def test_pointwise_modulus_preserved(self, smooth_state):
        out = coupled(smooth_state, 0.37)
        before = np.abs(smooth_state.psi_plus) ** 2 + np.abs(smooth_state.psi_minus) ** 2
        after = np.abs(out.psi_plus) ** 2 + np.abs(out.psi_minus) ** 2
        assert_allclose(after, before, rtol=1e-13)

    def test_density_invariant_under_rotation(self, smooth_state):
        out = coupled(smooth_state, 0.37)
        assert_allclose(solver._density(out.a), solver._density(smooth_state.a), atol=1e-13)

    def test_half_steps_compose(self, smooth_state):
        # The coupling is an exact flow: coupling(h/2) o coupling(h/2) = coupling(h).
        h = 0.37
        twice = coupled(coupled(smooth_state, h / 2), h / 2)
        once = coupled(smooth_state, h)
        assert state_distance(twice, once) <= 1e-14 * state_norm(once)

    def test_awkward_angles(self):
        # theta = (phi - M) h across +-4 pi, the doubles nearest +-pi and
        # +-pi/2, where tan(theta/2) is about 1e16 or 1, and both zeros.
        # The half-angle tangent must give the cos/sin rotation.
        near = [np.nextafter(x, toward) for x in (np.pi, np.pi / 2) for toward in (0.0, np.inf)]
        special = [np.pi, -np.pi, np.pi / 2, -np.pi / 2, 0.0, -0.0, *near, *np.negative(near)]
        theta = np.concatenate((np.linspace(-4 * np.pi, 4 * np.pi, 2001), special))
        rng = np.random.default_rng(4)
        a = rng.standard_normal((2, theta.size)) + 1j * rng.standard_normal((2, theta.size))
        M, h = 0.0, 1.0  # so that phi - M and (phi - M) h are theta exactly
        rotated, _ = couple(a, theta, M, h)
        before, after = np.sum(np.abs(a) ** 2, axis=0), np.sum(np.abs(rotated) ** 2, axis=0)
        assert_allclose(after, before, rtol=1e-14)
        assert np.sum(after) == pytest.approx(np.sum(before), rel=1e-14)
        reference = np.cos(theta) * a + 1j * np.sin(theta) * a[::-1]
        assert np.abs(rotated - reference).max() <= 1e-14 * np.abs(a).max()
        half = couple(couple(a, theta, M, h / 2)[0], theta, M, h / 2)[0]
        assert np.abs(half - rotated).max() <= 1e-14 * np.abs(a).max()
        back = couple(rotated, theta, M, -h)[0]
        assert np.abs(back - a).max() <= 1e-14 * np.abs(a).max()

    def test_field_equal_to_mass_is_identity(self):
        a = np.random.default_rng(5).standard_normal((2, 8)) + 0j
        rotated, _ = couple(a, np.full(8, 1.25), 1.25, 0.3)
        assert np.array_equal(rotated, a)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_workspace_kernels_give_the_allocating_bits(self):
        # The march's kernels write into a workspace; they must give the bits
        # of the same NumPy expressions on new arrays, non-finite values and
        # signed zeros included, with phi read from and the angle written to
        # the same buffer, as in the march.
        n = 64
        rng = np.random.default_rng(8)
        a = rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))
        a[:, :4] = [[np.inf, np.nan, -0.0, 1e300], [1.0, -np.inf, -0.0j, 1e300j]]
        phi = 3 * rng.standard_normal(n)
        phi[4:8] = [np.nan, np.inf, -0.0, np.pi]
        M, h = 1.25, 0.3
        tan = phi - M
        tan *= h / 2
        tan = np.tan(tan)
        d = tan * tan
        cos = 1.0 - d
        d += 1.0
        cos /= d
        tan /= d
        kick = 2.0 * np.real(a[0] * np.conj(a[1]))
        kick *= h
        rotated = cos * a
        rotated += (tan * 2j) * a[::-1]
        work = solver._Workspace(n)
        work.phi[:] = phi
        got_rotated, got_kick = solver._coupling(a.copy(), work.phi, M, h, work)
        assert got_rotated.tobytes() == rotated.tobytes() and got_kick.tobytes() == kick.tobytes()
        kg = solver._linear_table(GridSpec1D(n, 16.0), 1.0, 0.01)[1][1]
        f_hat = a[:, : n // 2 + 1] * [[1.0], [2.0]]
        new = kg[:, 0] * f_hat[0]
        new += kg[:, 1] * f_hat[1]
        got = solver._kg_flow(kg, f_hat, work.f_hat, work.product)
        assert got is work.f_hat and got.tobytes() == new.tobytes()


class TestPropagatorCache:
    def test_repeated_calls_share_one_read_only_array(self, grid):
        dt = grid.dx / 2
        table = solver._linear_table(grid, 1.0, dt)
        assert solver._linear_table(grid, 1.0, dt) is table
        for array in table:
            with pytest.raises(ValueError, match="read-only"):
                array[0, 0] = 0.0

    def test_stepping_on_many_grids_keeps_two_entries(self):
        # The cache keeps the two entries a +dt/-dt reversal needs, so the
        # grids and tables of earlier steps are freed: about 0.6 MiB stays
        # at 2^12 points, where 32 entries in each of two caches kept about
        # 9.5 MiB.
        n = 2**12
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for k in range(40):
                grid = GridSpec1D(n, 16.0 + k)
                state = solver.init_state(np.zeros((n, 2), complex), np.zeros(n), np.zeros(n), 1.0, 1.0, grid)
                solver.strang_step(state, grid.dx / 2)
            del grid, state
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert retained < 2**21

    def test_half_step_tables_compose_to_the_full_step(self, grid):
        # The march fuses linear(dt/2) o linear(dt/2) into linear(dt).  The
        # phases carry the inverse FFT's 1/n_x, an exact power-of-two scaling.
        dt = 0.3 * grid.dx
        phases, kg = solver._linear_table(grid, 1.0, dt)
        n = grid.n_x
        assert_allclose((n * phases[0]) ** 2, n * phases[1], rtol=0, atol=1e-15)
        twice = np.einsum("ijb,jkb->ikb", kg[0], kg[0])
        assert_allclose(twice, kg[1], rtol=1e-14, atol=1e-15)

    def test_cache_keyed_by_arguments(self, grid):
        # The key is (grid, m, dt): an equal grid shares the entry, and each
        # argument changes the Klein-Gordon matrices.
        dt = grid.dx / 2
        table = solver._linear_table(grid, 1.0, dt)
        assert solver._linear_table(GridSpec1D(256, 16.0), 1.0, dt) is table
        for key in ((GridSpec1D(256, 32.0), 1.0, dt), (grid, 2.0, dt), (grid, 1.0, dt / 2)):
            assert not np.array_equal(solver._linear_table(*key)[1], table[1])


class TestStep:
    def test_zero_state_fixed(self, grid):
        state = solver.init_state(
            np.zeros((grid.n_x, 2), complex), np.zeros(grid.n_x), np.zeros(grid.n_x), 1, 1, grid
        )
        dt = grid.dx / 2
        out = solver.strang_step(state, dt)
        assert np.abs(out.psi_plus).max() == 0.0
        assert np.abs(out.phi).max() == 0.0
        assert out.t == pytest.approx(dt)

    @pytest.mark.parametrize("dt", [np.nan, np.inf, -np.inf, "0.1", None, True, BEYOND_FLOAT])
    def test_rejects_non_finite_dt(self, smooth_state, dt):
        with pytest.raises(ValueError, match="dt must be finite"):
            solver.strang_step(smooth_state, dt)

    def test_time_reversal(self, smooth_state):
        dt = smooth_state.grid.dx / 2
        forward = solver.strang_step(smooth_state, dt)
        back = solver.strang_step(forward, -dt)
        scale = state_distance(
            smooth_state,
            DKGState(0 * smooth_state.a, 0 * smooth_state.f, 0.0, 1.0, 1.0, smooth_state.grid),
        )
        assert state_distance(back, smooth_state) <= 1e-12 * scale

    def test_strang_self_convergence(self, smooth_state):
        def advance(dt, n):
            s = smooth_state
            for _ in range(n):
                s = solver.strang_step(s, dt)
            return s

        e1 = state_distance(advance(0.05, 8), advance(0.025, 16))
        e2 = state_distance(advance(0.025, 16), advance(0.0125, 32))
        order = np.log2(e1 / e2)
        assert order == pytest.approx(2.0, abs=0.2)

    @pytest.mark.parametrize("M", [0.0, 1.0, 7.0])
    def test_energy_drift_second_order(self, M):
        # E = <H psi, psi> + kg_energy with H = alpha D + (M - phi) beta is
        # conserved by the DKG system: d/dt <H psi, psi> = -int phi_t <beta psi, psi>
        # cancels the rate of kg_energy.  In amplitudes alpha = diag(1, -1)
        # and <beta psi, psi> = 2 Re(a_+ conj a_-).  A Strang run conserves E
        # to O(dt^2), so halving dt quarters the drift.
        g = GridSpec1D(512, 32.0)
        psi0, phi0, phi1 = solver.smooth_data(g)
        start = solver.init_state(psi0, phi0, phi1, M, 1.0, g)

        def energy(s):
            a_hat = np.fft.fft(s.a, axis=-1) * g.dx
            dirac = np.sum(g.xi_fft * (np.abs(a_hat[0]) ** 2 - np.abs(a_hat[1]) ** 2)) / g.x_extent
            density = 2 * np.real(s.psi_plus * np.conj(s.psi_minus))
            return dirac + np.sum((M - s.phi) * density) * g.dx + reference_kg_energy(s)

        def max_drift(dt):
            s, e0, drift = start, energy(start), 0.0
            for _ in range(int(round(2.0 / dt))):
                s = solver.strang_step(s, dt)
                drift = max(drift, abs(energy(s) - e0))
            return drift

        drifts = [max_drift(g.dx / k) for k in (2, 4, 8)]
        ratios = [drifts[0] / drifts[1], drifts[1] / drifts[2]]
        assert all(3.8 <= r <= 4.2 for r in ratios), (drifts, ratios)

    def test_decoupled_transport(self):
        g = GridSpec1D(1024, 64.0)
        a0 = np.exp(-((g.x) / 2.0) ** 2).astype(complex)
        psi0 = np.stack([a0, a0], axis=-1) / np.sqrt(2)
        state = solver.init_state(psi0, np.zeros(g.n_x), np.zeros(g.n_x), 0.0, 1.0, g)
        dt = g.dx / 2
        s = state
        for _ in range(int(round(1.0 / dt))):
            s = solver.strang_step(s, dt)
        shift = int(round(1.0 / g.dx))
        assert np.abs(s.psi_plus - np.roll(state.psi_plus, shift)).max() <= 1e-8
        assert np.abs(s.phi).max() == 0.0
        assert np.abs(s.psi_minus).max() == 0.0

    def test_charge_conservation_long_run(self, smooth_state):
        dt = smooth_state.grid.dx / 2
        c0 = solver.charge(smooth_state)
        s = smooth_state
        for _ in range(2000):
            s = solver.strang_step(s, dt)
        assert abs(solver.charge(s) - c0) <= 1e-11 * c0

    def test_charge_homogeneity(self, grid):
        rng = np.random.default_rng(3)
        psi0 = rng.standard_normal((grid.n_x, 2)) + 1j * rng.standard_normal((grid.n_x, 2))
        a = solver.init_state(psi0, np.zeros(grid.n_x), np.zeros(grid.n_x), 1, 1, grid)
        b = solver.init_state(2 * psi0, np.zeros(grid.n_x), np.zeros(grid.n_x), 1, 1, grid)
        assert solver.charge(b) == pytest.approx(2 * solver.charge(a), rel=1e-14)

    def test_spectral_spatial_accuracy(self):
        # Analytic data: the spatial error collapses faster than any fixed
        # order, so doubling resolution gains more than 10^3.
        def final_state(n):
            g = GridSpec1D(n, 16.0)
            envelope = np.exp(-((g.x / 0.22) ** 2))
            psi0 = np.stack([envelope, (0.3 - 0.4j) * envelope], axis=-1)
            phi1 = 0.2 * envelope * np.cos(2 * np.pi * g.x / g.x_extent)
            s = solver.init_state(psi0, 0.5 * envelope, phi1, 1.0, 1.0, g)
            for _ in range(20):
                s = solver.strang_step(s, 0.01)
            return s

        ref = final_state(2048)

        def error(n):
            s = final_state(n)
            stride = 2048 // n
            return max(
                np.abs(s.psi_plus - ref.psi_plus[::stride]).max(),
                np.abs(s.phi - ref.phi[::stride]).max(),
            )

        e256, e512 = error(256), error(512)
        assert e512 < 1e-10
        assert e256 / max(e512, 1e-16) > 1e3


@pytest.fixture
def boosted_state(grid):
    """Smooth data with the spinor boosted by e^{3ix}, so that it carries momentum; M = m = 1."""
    psi0, phi0, phi1 = solver.smooth_data(grid)
    return solver.init_state(psi0 * np.exp(3j * grid.x)[:, None], phi0, phi1, 1.0, 1.0, grid)


def momentum(state):
    """P = sum_xi xi (|a_+_hat|^2 + |a_-_hat|^2) dx/n - int phi_t phi_x dx, with
    a_hat the unnormalised FFT: conserved by the DKG system and by every
    substep, since the coupling's rotation and its kick to phi_t change the
    Dirac and the field momentum by opposite amounts."""
    g = state.grid
    a_hat = np.fft.fft(state.a, axis=-1)
    dirac = np.sum(g.xi_fft * np.sum(np.abs(a_hat) ** 2, axis=0)) * g.dx / g.n_x
    phi_x = np.fft.irfft(1j * g.xi_rfft * np.fft.rfft(state.phi), n=g.n_x)
    return dirac - np.sum(state.phi_t * phi_x) * g.dx


# Rows e_+ and e_- = (1, +-1)/sqrt(2): psi = a_+ e_+ + a_- e_-.
E_PLUS_MINUS = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)


def system_rhs(state, mass_sign=-1.0):
    """Time derivative of (a, f) that the DKG system gives in its component
    form, with D = -i d:  (D_t + alpha D_x) psi + M beta psi = phi beta psi,
    that is psi_t = -alpha psi_x + i (phi - M) beta psi, and
    (d_tt - d_xx + m^2) phi = <beta psi, psi>; psi_t is mapped to the
    amplitudes by ``spinor.amplitudes``, which is linear.  ``mass_sign`` = +1
    puts phi + M in place of phi - M."""
    g = state.grid
    psi = state.a.T @ E_PLUS_MINUS
    psi_x = np.fft.ifft(1j * g.xi_fft[:, None] * np.fft.fft(psi, axis=0), axis=0)
    coupling = 1j * (state.phi + mass_sign * state.M)[:, None] * spinor.apply_matrix(spinor.BETA, psi)
    psi_t = -spinor.apply_matrix(spinor.ALPHA, psi_x) + coupling
    phi_xx = np.fft.irfft(-(g.xi_rfft**2) * np.fft.rfft(state.phi), n=g.n_x)
    source = spinor.null_form(psi, psi).real
    return spinor.amplitudes(psi_t), np.stack((state.phi_t, phi_xx - state.m**2 * state.phi + source))


class TestSystem:
    """The step against the DKG system it is meant to solve."""

    def test_momentum_conserved(self, boosted_state):
        dt = boosted_state.grid.dx / 2
        p0, s, drift = momentum(boosted_state), boosted_state, 0.0
        for _ in range(2000):
            s = solver.strang_step(s, dt)
            drift = max(drift, abs(momentum(s) - p0))
        assert drift <= 1e-12 * abs(p0)

    def test_central_difference_matches_system(self, boosted_state):
        # (S(dt) - S(-dt)) / (2 dt) is the system's right-hand side up to
        # O(dt^2), so the residual quarters per halving of dt; with the
        # mass entering as phi + M it stays of order one.
        def residual(dt, mass_sign=-1.0):
            forward, back = solver.strang_step(boosted_state, dt), solver.strang_step(boosted_state, -dt)
            da, df = system_rhs(boosted_state, mass_sign)
            return max(
                np.abs((forward.a - back.a) / (2 * dt) - da).max(),
                np.abs((forward.f - back.f) / (2 * dt) - df).max(),
            )

        residuals = [residual(dt) for dt in (0.01, 0.005, 0.0025)]
        ratios = [residuals[0] / residuals[1], residuals[1] / residuals[2]]
        assert residuals[0] < 1e-3 and all(3.8 <= r <= 4.2 for r in ratios), (residuals, ratios)
        assert residual(0.01, mass_sign=1.0) > 0.5

    def test_amplitudes_are_the_projections(self, grid):
        # a_+- e_+- = P+- psi, and the solver's source 2 Re(a_+ conj a_-) is <beta psi, psi>.
        rng = np.random.default_rng(6)
        psi = rng.standard_normal((grid.n_x, 2)) + 1j * rng.standard_normal((grid.n_x, 2))
        a = spinor.amplitudes(psi)
        scale = np.abs(psi).max()
        for amplitude, e, projection in zip(a, E_PLUS_MINUS, (spinor.P_PLUS, spinor.P_MINUS)):
            assert_allclose(amplitude[:, None] * e, spinor.apply_matrix(projection, psi), rtol=0, atol=1e-15 * scale)
        density = spinor.null_form(psi, psi).real
        assert_allclose(solver._density(a), density, rtol=0, atol=1e-14 * scale**2)


class TestConfigValidation:
    def test_dt_above_dx_accepted(self, grid):
        # Every substep is an exact flow, so no dt bound is tied to dx.
        assert SolverConfig(grid=grid, dt=2 * grid.dx, t_end=1.0).dt == 2 * grid.dx

    def test_dt_far_above_a_tiny_dx_accepted(self):
        fine = GridSpec1D(1024, 1e-14)
        assert SolverConfig(grid=fine, dt=100 * fine.dx, t_end=1e-12).dt == 100 * fine.dx

    def test_dt_positive(self, grid):
        with pytest.raises(ValueError, match="positive"):
            SolverConfig(grid=grid, dt=0.0, t_end=1.0)

    @pytest.mark.parametrize("dt", [np.nan, np.inf])
    def test_dt_finite(self, grid, dt):
        with pytest.raises(ValueError, match="finite"):
            SolverConfig(grid=grid, dt=dt, t_end=1.0)

    @pytest.mark.parametrize("t_end", [np.nan, np.inf])
    def test_t_end_finite(self, grid, t_end):
        with pytest.raises(ValueError, match="t_end"):
            SolverConfig(grid=grid, dt=grid.dx / 2, t_end=t_end)

    @pytest.mark.parametrize("every", [0, -3, 1.5, 2.5, 2.0, np.float64(4.0), "4", True])
    def test_rejects_bad_diagnostics_every(self, grid, every):
        # A fractional period would put rows where k % every happens to be 0.
        with pytest.raises(ValueError, match="diagnostics_every must be an integer"):
            SolverConfig(grid=grid, dt=grid.dx / 2, t_end=1.0, diagnostics_every=every)
        SolverConfig(grid=grid, dt=grid.dx / 2, t_end=1.0, diagnostics_every=np.int64(4))

    @pytest.mark.parametrize("name", ["dt", "t_end", "diag_s", "diag_r"])
    @pytest.mark.parametrize("value", ["0.1", None, True, BEYOND_FLOAT])
    def test_rejects_non_real(self, grid, name, value):
        kwargs = {"dt": grid.dx / 2, "t_end": 1.0, name: value}
        with pytest.raises(ValueError, match="must be real"):
            SolverConfig(grid=grid, **kwargs)

    @pytest.mark.parametrize("name", ["diag_s", "diag_r"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_diagnostic_regularity_finite(self, grid, name, value):
        with pytest.raises(ValueError, match="diag_s and diag_r"):
            SolverConfig(grid=grid, dt=grid.dx / 2, t_end=1.0, **{name: value})

    @pytest.mark.parametrize("name", ["diag_s", "diag_r"])
    def test_diagnostic_weight_finite(self, grid, name):
        # On 256 cells over 16 the Nyquist weight (1 + 16 pi)^(2s) overflows
        # at s = 100: the first row would be non-finite and the run would
        # report a blow-up of a finite state.  s = 60 still fits in a float.
        with pytest.raises(ValueError, match="weights"):
            SolverConfig(grid=grid, dt=grid.dx / 2, t_end=1.0, **{name: 100.0})
        SolverConfig(grid=grid, dt=grid.dx / 2, t_end=1.0, **{name: 60.0})

    def test_validation_retains_no_arrays(self):
        # A config checks its weights and keeps none of them, so once
        # dropped, configs on distinct 2^16-point grids (512 KiB per weight
        # and per grid's dual modes) leave nothing behind.
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for k in range(40):
                grid = GridSpec1D(2**16, 64.0 + k)
                SolverConfig(grid=grid, dt=grid.dx / 2, t_end=1.0, diag_s=0.5, diag_r=1.0)
            del grid
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert retained < 2**20


class TestRoughData:
    def test_unit_l2_at_zero_regularity(self, grid):
        psi0 = solver.rough_data(0.0, 7, grid)
        norm = solver.sobolev_norm(psi0.T, 0.0, grid)
        assert norm == pytest.approx(1.0, rel=1e-12)
        with pytest.raises(ValueError, match="s must be real and finite"):
            solver.rough_data(np.nan, 7, grid)
        for s in (400.0, -400.0):
            with pytest.raises(ValueError, match="not finite on this grid"):
                solver.rough_data(s, 7, GridSpec1D(64, 16.0))

    def test_spectrum_span_floor(self):
        # Spectra spread over more than a factor 1e6 are refused: the rows
        # whose H^s norm read 1.65, 1.25 and 1.48, and s = -9, which read
        # 6.3e-4 off at a spread of 3e-15.
        for s, n, x_extent in ((10.0, 256, 16.0), (20.0, 64, 16.0), (20.0, 4096, 64.0), (-9.0, 256, 16.0)):
            with pytest.raises(ValueError, match="factor 1e6"):
                solver.rough_data(s, 7, GridSpec1D(n, x_extent))
        g = GridSpec1D(4096, 64.0)
        assert solver.sobolev_norm(solver.rough_data(0.25, 7, g).T, 0.25, g) == pytest.approx(1.0, abs=1e-12)
        # The domain is |s + 0.51| <= half_width; at its edges the norm reads 1 to 1e-9.
        g = GridSpec1D(256, 4.0)
        half_width = np.log(1e6) / np.log1p(np.abs(g.xi_fft).max())
        for side in (-1, 1):
            s = -0.51 + side * half_width * (1 - 1e-9)
            for seed in range(3):
                norm = solver.sobolev_norm(solver.rough_data(s, seed, g).T, s, g)
                assert norm == pytest.approx(1.0, abs=1e-9)
            with pytest.raises(ValueError, match="factor 1e6"):
                solver.rough_data(-0.51 + side * half_width * (1 + 1e-9), 0, g)

    def test_reproducible(self, grid):
        a = solver.rough_data(-0.2, 11, grid)
        b = solver.rough_data(-0.2, 11, grid)
        assert np.array_equal(a, b)

    def test_rough_norm_growth(self):
        # Unit H^(-0.2) data gains L2 mass as the grid refines; the H^(-0.2)
        # norm stays pinned at 1 by construction.
        norms_by_n = {}
        for n in (256, 1024, 4096):
            g = GridSpec1D(n, 16.0)
            psi0 = solver.rough_data(-0.2, 5, g)
            norms_by_n[n] = (
                solver.sobolev_norm(psi0.T, 0.0, g),
                solver.sobolev_norm(psi0.T, -0.2, g),
            )
        l2 = [norms_by_n[n][0] for n in (256, 1024, 4096)]
        hs = [norms_by_n[n][1] for n in (256, 1024, 4096)]
        assert l2[0] < l2[1] < l2[2]
        assert l2[2] / l2[0] > 1.3
        assert hs == pytest.approx([1.0, 1.0, 1.0], rel=1e-12)


def reference_sobolev_norm(values, s, grid):
    """H^s norm by a full complex FFT, every bin weighted once."""
    weighted = np.fft.fft(values, axis=-1) * (grid.dx * (1.0 + np.abs(grid.xi_fft)) ** s)
    return float(np.sqrt(np.sum(np.abs(weighted) ** 2) / grid.x_extent))


def reference_kg_energy(state):
    """Energy with phi_x taken by an inverse real FFT of i xi phi_hat."""
    g = state.grid
    phi_x = np.fft.irfft(1j * g.xi_rfft * np.fft.rfft(state.phi), n=g.n_x)
    return float(0.5 * np.sum(state.phi_t**2 + phi_x**2 + state.m**2 * state.phi**2) * g.dx)


class TestDiagnostics:
    @pytest.mark.parametrize("s", [np.nan, np.inf, -np.inf, 1e300])
    def test_sobolev_norm_rejects_bad_regularity(self, s):
        # SolverConfig's rule for diag_s: a finite s with a finite weight on
        # every bin.  1e300 is finite but its weight overflows.
        with pytest.raises(ValueError, match="s must be real and finite, with finite H\\^s weights"):
            solver.sobolev_norm(np.ones(64), s, GridSpec1D(64, 16.0))

    @pytest.mark.parametrize("n", [2, 4, 64, 4096])
    @pytest.mark.parametrize("s", [-0.5, 0.0, 0.25, 1.0])
    def test_sobolev_norm_matches_full_fft(self, n, s):
        grid = GridSpec1D(n, 16.0)
        rng = np.random.default_rng(n)
        for values in (rng.standard_normal(n), rng.standard_normal((2, n))):
            expected = reference_sobolev_norm(values, s, grid)
            assert solver.sobolev_norm(values, s, grid) == pytest.approx(expected, rel=1e-13, abs=0)
            complex_values = values + 1j * rng.standard_normal(values.shape)
            expected = reference_sobolev_norm(complex_values, s, grid)
            assert solver.sobolev_norm(complex_values, s, grid) == pytest.approx(expected, rel=1e-13, abs=0)

    @pytest.mark.parametrize("n", [2, 4, 64, 4096])
    @pytest.mark.parametrize("m", [0.0, 1.0])
    def test_kg_energy_matches_inverse_fft_derivative(self, n, m):
        grid = GridSpec1D(n, 16.0)
        f = np.random.default_rng(n).standard_normal((2, n))
        state = DKGState(np.zeros((2, n), complex), f, 0.0, 1.0, m, grid)
        assert diagnostics(state).kg_energy[0] == pytest.approx(reference_kg_energy(state), rel=1e-13, abs=0)

    @pytest.mark.parametrize("data", ["smooth", "rough"])
    def test_zero_step_row_matches_references(self, grid, data):
        if data == "smooth":
            psi0, phi0, phi1 = solver.smooth_data(grid)
        else:
            psi0, phi0, phi1 = solver.rough_data(0.25, 9, grid), np.zeros(grid.n_x), np.zeros(grid.n_x)
        state = solver.init_state(psi0, phi0, phi1, 1.0, 1.0, grid)
        s, r = 0.25, 0.5
        row = diagnostics(state, s, r)
        assert row.t.size == 1 and row.t[0] == 0.0
        assert row.charge[0] == pytest.approx(np.sqrt(np.sum(np.abs(psi0) ** 2) * grid.dx), rel=1e-13)
        assert row.hs_psi[0] == pytest.approx(reference_sobolev_norm(psi0.T, s, grid), rel=1e-13)
        assert row.hr_phi[0] == pytest.approx(reference_sobolev_norm(state.phi, r, grid), rel=1e-13)
        assert row.kg_energy[0] == pytest.approx(reference_kg_energy(state), rel=1e-13)

    @pytest.mark.parametrize("every", [1, 3])
    @pytest.mark.parametrize("m", [0.0, 1.0])
    def test_field_columns_match_references_on_rough_data(self, grid, m, every):
        # Rows read H^r and kg_energy off a copy of f_hat with the closing
        # Klein-Gordon half step applied.  Rough phi and phi_t fill every
        # bin, the Nyquist bin (whose derivative the energy drops) included.
        psi0 = solver.rough_data(0.25, 9, grid)
        phi0, phi1 = (np.real(solver.rough_data(0.25, seed, grid)[:, 0]) for seed in (10, 11))
        assert np.abs(np.fft.rfft(phi0)[-1]) > 0 and np.abs(np.fft.rfft(phi1)[-1]) > 0
        state = solver.init_state(psi0, phi0, phi1, 1.0, m, grid)
        dt, n_steps, r = 0.3 * grid.dx, 37, 0.5
        config = SolverConfig(grid=grid, dt=dt, t_end=n_steps * dt, diagnostics_every=every, diag_s=0.25, diag_r=r)
        series = solver.run(config, state)
        rows = [state]
        for _ in range(n_steps):
            rows.append(solver.strang_step(rows[-1], dt))
        rows = [row for k, row in enumerate(rows) if k % every == 0 or k == n_steps]
        assert_allclose(series.kg_energy, [reference_kg_energy(row) for row in rows], rtol=1e-12)
        assert_allclose(series.hr_phi, [solver.sobolev_norm(row.phi, r, grid) for row in rows], rtol=1e-12)

    @pytest.mark.parametrize("n", [2, 4, 64, 4096])
    def test_nyquist_derivative_dropped(self, n):
        # phi = cos(pi j) lives on the Nyquist bin alone, so both energies
        # keep only its m^2 phi^2 term; its H^s norm weighs that bin once.
        grid = GridSpec1D(n, 16.0)
        phi = np.cos(np.pi * np.arange(n))
        for m in (0.0, 1.0):
            state = DKGState(np.zeros((2, n), complex), np.stack((phi, 0 * phi)), 0.0, 1.0, m, grid)
            physical = 0.5 * m**2 * np.sum(phi**2) * grid.dx
            undropped = 0.5 * np.sum((grid.xi_rfft[-1] * phi) ** 2) * grid.dx
            for energy in (diagnostics(state).kg_energy[0], reference_kg_energy(state)):
                assert abs(energy - physical) <= 1e-13 * undropped
        state = DKGState(np.zeros((2, n), complex), np.stack((phi, 0 * phi)), 0.0, 1.0, 1.0, grid)
        for s in (-0.5, 1.0):
            expected = reference_sobolev_norm(phi, s, grid)
            assert solver.sobolev_norm(phi, s, grid) == pytest.approx(expected, rel=1e-13, abs=0)
            assert diagnostics(state, r=s).hr_phi[0] == pytest.approx(expected, rel=1e-13, abs=0)


class TestRun:
    def test_zero_data(self, grid):
        state = solver.init_state(
            np.zeros((grid.n_x, 2), complex), np.zeros(grid.n_x), np.zeros(grid.n_x), 1, 1, grid
        )
        config = SolverConfig(grid=grid, dt=grid.dx / 2, t_end=0.5)
        series = solver.run(config, state)
        assert np.all(series.charge == 0.0)
        assert np.all(series.kg_energy == 0.0)

    def test_charge_column_constant(self, smooth_state):
        config = SolverConfig(grid=smooth_state.grid, dt=smooth_state.grid.dx / 2, t_end=1.0)
        series = solver.run(config, smooth_state)
        drift = np.abs(series.charge - series.charge[0]).max()
        assert drift <= 1e-10 * series.charge[0]

    def test_rough_run_completes(self):
        # Stability probe at desk scale: rough data inside the certified
        # region, N = 4096, T = 0.5, no non-finite abort.
        g = GridSpec1D(4096, 64.0)
        psi0 = solver.rough_data(-0.2, 13, g)
        state = solver.init_state(psi0, np.zeros(g.n_x), np.zeros(g.n_x), 1.0, 1.0, g)
        config = SolverConfig(grid=g, dt=g.dx / 2, t_end=0.5, diag_s=-0.2, diag_r=0.3)
        series = solver.run(config, state)
        assert np.isfinite(series.hs_psi).all()
        assert series.t[-1] == pytest.approx(0.5)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_blowup_abort(self, grid):
        a = np.zeros((2, grid.n_x), complex)
        a[:, 0] = np.inf
        state = DKGState(a, np.zeros((2, grid.n_x)), 0.0, 1.0, 1.0, grid)
        config = SolverConfig(grid=grid, dt=grid.dx / 2, t_end=1.0, diagnostics_every=4)
        with pytest.raises(solver.BlowUpError) as err:
            solver.run(config, state)
        assert err.value.step == 0

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("row", ["psi_plus", "psi_minus", "phi", "phi_t"])
    def test_blowup_in_any_field(self, smooth_state, row, value):
        # The row check is the only finiteness scan: a non-finite entry in
        # any of the four rows must end the run at the first recorded row,
        # the t = 0 row.
        a, f = smooth_state.a.copy(), smooth_state.f.copy()
        fields = {"psi_plus": a[0], "psi_minus": a[1], "phi": f[0], "phi_t": f[1]}
        fields[row][5] = value
        state = dataclasses.replace(smooth_state, a=a, f=f)
        config = SolverConfig(grid=state.grid, dt=state.grid.dx / 2, t_end=1.0, diagnostics_every=3)
        with pytest.raises(solver.BlowUpError) as err:
            solver.run(config, state)
        assert err.value.step == 0

    def test_overflowing_t0_row_refused(self):
        # A finite state whose H^r norm and energy overflow: row 0 is checked
        # like every other row, so even a zero-step run refuses it.
        g = GridSpec1D(64, 16.0)
        big = np.full(g.n_x, 1e160)
        state = solver.init_state(np.zeros((g.n_x, 2), complex), big, 0 * big, 1.0, 1.0, g)
        with pytest.raises(solver.BlowUpError, match="non-finite diagnostics row at step 0") as err:
            diagnostics(state)
        assert err.value.step == 0

    def test_overflow_mid_run_reports_its_step(self):
        # Row 0 is finite; the first kick dt <beta psi, psi> ~ 1e300 then
        # overflows the energy, so the run ends at the next recorded row.
        g = GridSpec1D(64, 16.0)
        big = np.full(g.n_x, 1e150, complex)
        state = solver.init_state(np.stack((big, 0 * big), axis=-1), np.zeros(g.n_x), np.zeros(g.n_x), 1.0, 1.0, g)
        config = SolverConfig(grid=g, dt=g.dx / 2, t_end=1.0, diagnostics_every=4)
        with pytest.raises(solver.BlowUpError) as err:
            solver.run(config, state)
        assert err.value.step == 4

    def test_final_state_returned(self, smooth_state):
        config = SolverConfig(grid=smooth_state.grid, dt=smooth_state.grid.dx / 2, t_end=0.25)
        series, final = solver.run(config, smooth_state, return_final=True)
        assert final.t == pytest.approx(series.t[-1])

    def test_steps_above_dx_keep_accuracy_and_charge(self):
        # Every substep is an exact flow, so the step has no CFL limit: on
        # smooth data dt = 1/4 errs alike at dt = dx (n = 256) and at dt = 16 dx
        # (n = 4096), and a long run at dt = 16 dx stays finite and conserves
        # charge.  Measured: 2.607e-2 and 2.603e-2, drift 2.8e-14 over 200 steps.
        def smooth(n):
            g = GridSpec1D(n, 64.0)
            return g, solver.init_state(*solver.smooth_data(g), 1.0, 1.0, g)

        def final(n, dt):
            g, state = smooth(n)
            return solver.run(SolverConfig(grid=g, dt=dt, t_end=4.0, diagnostics_every=2**20), state, True)[1]

        def error(n):
            coarse, fine = final(n, 1 / 4), final(n, 1 / 512)
            return max(np.abs(x - y).max() / np.abs(y).max() for x, y in ((coarse.a, fine.a), (coarse.f, fine.f)))

        assert error(4096) == pytest.approx(error(256), rel=0.01)
        g, state = smooth(4096)
        series = solver.run(SolverConfig(grid=g, dt=16 * g.dx, t_end=50.0, diagnostics_every=1), state)
        assert series.t.size == 201 and np.isfinite(np.stack(dataclasses.astuple(series))).all()
        assert np.abs(series.charge - series.charge[0]).max() <= 1e-12 * series.charge[0]

    def test_rejects_grid_mismatch(self, grid):
        # The config's row weights are built on its own grid, so it must be
        # the state's: a 64-cell weight cannot read a 256-cell spectrum.
        coarse = GridSpec1D(64, 16.0)
        psi0, phi0, phi1 = solver.smooth_data(grid)
        state = solver.init_state(psi0, phi0, phi1, 1.0, 1.0, grid)
        config = SolverConfig(grid=coarse, dt=coarse.dx, t_end=2 * coarse.dx)
        with pytest.raises(ValueError, match="grid"):
            solver.run(config, state)

    # The last pair asks for 1e300 steps: finite, but beyond the 2**53 bound.
    @pytest.mark.parametrize("dt, t_end", [(1e-320, 1.0), (1e-300, 1e308), (1e-300, -1e308), (1e-300, 1.0)])
    def test_rejects_non_finite_step_count(self, smooth_state, monkeypatch, dt, t_end):
        def no_march(*args, **kwargs):
            raise AssertionError("run stepped before checking the step count")

        monkeypatch.setattr(solver, "_march", no_march)
        config = SolverConfig(grid=smooth_state.grid, dt=dt, t_end=t_end)
        with pytest.raises(ValueError, match="not a finite step count"):
            solver.run(config, smooth_state)

    def test_zero_steps(self, smooth_state):
        config = SolverConfig(grid=smooth_state.grid, dt=smooth_state.grid.dx / 2, t_end=smooth_state.t)
        series, final = solver.run(config, smooth_state, return_final=True)
        assert series.t.size == 1
        assert final is smooth_state

    @pytest.mark.parametrize("every", [1, 3, 16])
    def test_matches_step_loop(self, smooth_state, every):
        # 37 steps is a multiple of neither 3 nor 16, so the last row comes
        # off the diagnostics interval, as in the loop below.  A non-dyadic
        # dt makes the accumulated times round, so the t column must follow
        # t += dt.
        dt, n_steps = 0.3 * smooth_state.grid.dx, 37
        config = SolverConfig(
            grid=smooth_state.grid,
            dt=dt,
            t_end=n_steps * dt,
            diagnostics_every=every,
        )
        series, final = solver.run(config, smooth_state, return_final=True)
        s, rows = smooth_state, [smooth_state]
        for k in range(1, n_steps + 1):
            s = solver.strang_step(s, dt)
            if k % every == 0 or k == n_steps:
                rows.append(s)
        assert series.t.size == len(rows)
        assert np.array_equal(series.t, [r.t for r in rows])
        assert_allclose(series.charge, [solver.charge(r) for r in rows], rtol=1e-12)
        assert_allclose(series.kg_energy, [reference_kg_energy(r) for r in rows], rtol=1e-12)
        assert final.t == s.t
        assert state_distance(final, s) <= 1e-12 * state_norm(s)

    @pytest.mark.parametrize("data", ["smooth", "rough"])
    @pytest.mark.parametrize("M", [0.0, 1.0])
    def test_final_bits_independent_of_every(self, grid, data, M):
        # Rows read the spectra the march holds, or a copy, and write nothing
        # into them, so how often they are taken cannot change a bit of the
        # march, nor of a row taken at a step that two intervals share.
        state = data_state(grid, data, M)
        dt, n_steps = 0.3 * grid.dx, 37  # non-dyadic, so a reordered product rounds differently
        runs = []
        for every in (1, 3, 16, 37):
            config = SolverConfig(grid=grid, dt=dt, t_end=n_steps * dt, diagnostics_every=every, diag_s=0.25, diag_r=0.5)
            series, final = solver.run(config, state, return_final=True)
            steps = [k for k in range(n_steps + 1) if k % every == 0 or k == n_steps]
            assert series.t.size == len(steps)  # the t = 0 row and the last one included
            runs.append((dict(zip(steps, np.column_stack(dataclasses.astuple(series)))), final))
        (rows_1, final_1), *others = runs
        for rows, final in others:
            assert np.array_equal(final.a, final_1.a) and np.array_equal(final.f, final_1.f)
            assert final.t == final_1.t
            for k, row in rows.items():
                assert np.array_equal(row, rows_1[k]), k

    @pytest.mark.parametrize("data", ["smooth", "rough"])
    @pytest.mark.parametrize("M", [0.0, 1.0])
    def test_step_bit_equal_to_one_step_run(self, grid, data, M):
        state = data_state(grid, data, M)
        dt = 0.3 * grid.dx
        config = SolverConfig(grid=grid, dt=dt, t_end=dt, diag_s=0.25, diag_r=0.5)
        _, final = solver.run(config, state, return_final=True)
        step = solver.strang_step(state, dt)
        assert np.array_equal(step.a, final.a) and np.array_equal(step.f, final.f)
        assert step.t == final.t

    def test_interleaved_marches_match_lone_ones(self, grid):
        # Each march owns its workspace and spectra: two marches on one grid
        # and one dt, advanced in turn, yield the bits of each run alone.
        dt, n_steps = 0.3 * grid.dx, 9
        states = [data_state(grid, "smooth", 1.0), data_state(grid, "rough", 0.0)]

        def bits(march):
            for k, t, a_hat, f_hat in march:
                yield k, t, a_hat.tobytes(), f_hat.tobytes()

        alone = [list(bits(solver._march(state, dt, n_steps, 1))) for state in states]
        together = list(zip(*(bits(solver._march(state, dt, n_steps, 1)) for state in states)))
        assert len(together) == n_steps + 1
        assert [list(march) for march in zip(*together)] == alone

    def test_step_result_owns_its_arrays(self, smooth_state):
        # The returned state holds the march's last a_hat: a later step, from
        # the same state or from this one, must not write into it.
        dt = smooth_state.grid.dx / 2
        s1 = solver.strang_step(smooth_state, dt)
        a, f = s1.a.copy(), s1.f.copy()
        solver.strang_step(smooth_state, dt)
        solver.strang_step(s1, dt)
        assert np.array_equal(s1.a, a) and np.array_equal(s1.f, f)

    @pytest.mark.parametrize("every", [1, 3, 16])
    @pytest.mark.parametrize("data", ["smooth", "rough"])
    @pytest.mark.parametrize("M", [0.0, 1.0])
    def test_norm_columns_match_public_functions(self, grid, data, M, every):
        # The rows take hr_phi from the phi_hat that run keeps between rows,
        # not from a transform of phi; both columns must still be the public
        # norms of the states a strang_step loop reaches.
        state = data_state(grid, data, M)
        dt, n_steps, s, r = 0.3 * grid.dx, 37, 0.25, 0.5
        config = SolverConfig(grid=grid, dt=dt, t_end=n_steps * dt, diagnostics_every=every, diag_s=s, diag_r=r)
        series = solver.run(config, state)
        rows = [state]
        for _ in range(n_steps):
            rows.append(solver.strang_step(rows[-1], dt))
        rows = [row for k, row in enumerate(rows) if k % every == 0 or k == n_steps]
        assert_allclose(series.hs_psi, [solver.sobolev_norm(row.a, s, grid) for row in rows], rtol=1e-12)
        assert_allclose(series.hr_phi, [solver.sobolev_norm(row.phi, r, grid) for row in rows], rtol=1e-12)

    @pytest.mark.parametrize("every", [1, 3, 16])
    def test_transform_budget(self, smooth_state, monkeypatch, every):
        # A step inverts the amplitudes and phi and transforms back the
        # rotated amplitudes and the kick to phi_t.  Rows take no transform:
        # the t = 0 row shares the opening transforms of the input state, and
        # the final state is materialised once, unless no step was taken.
        # The march calls the pocketfft binding; a transform through the
        # public scipy.fft names counts as well, so none may slip in.
        rows = {}

        def counted(name, transform):
            def wrapper(x, *args, **kwargs):
                rows[name] = rows.get(name, 0) + int(np.prod(np.shape(x)[:-1]))
                return transform(x, *args, **kwargs)

            return wrapper

        binding = solver._pocketfft()
        c2c = {True: counted("fft", binding.c2c), False: counted("ifft", binding.c2c)}
        kernels = types.SimpleNamespace(
            c2c=lambda x, axes, forward, *args: c2c[forward](x, axes, forward, *args),
            r2c=counted("rfft", binding.r2c),
            c2r=counted("irfft", binding.c2r),
        )
        monkeypatch.setattr(solver, "_pocketfft", lambda: kernels)
        for name in ("fft", "ifft", "rfft", "irfft"):
            monkeypatch.setattr(scipy.fft, name, counted(name, getattr(scipy.fft, name)))
        dt = smooth_state.grid.dx / 2
        for n_steps in (0, 37):
            rows.clear()
            config = SolverConfig(grid=smooth_state.grid, dt=dt, t_end=n_steps * dt, diagnostics_every=every)
            solver.run(config, smooth_state, return_final=True)
            forward = {"fft": 2 * n_steps + 2, "rfft": n_steps + 2}
            inverse = {"ifft": forward["fft"], "irfft": forward["rfft"]} if n_steps else {}
            assert rows == forward | inverse

    @pytest.mark.parametrize(
        "field, convert, exact",
        [
            pytest.param("f", lambda f: np.round(4 * f).astype(int), True, id="int-f"),
            pytest.param("f", lambda f: f.astype(np.float32), False, id="float32-f"),
            pytest.param("a", lambda a: a.astype(np.complex64), False, id="complex64-a"),
            pytest.param("a", lambda a: a.real.copy(), True, id="real-a"),
            pytest.param("a", np.asfortranarray, True, id="fortran-a"),
            pytest.param("f", lambda f: np.repeat(f, 2, axis=-1)[:, ::2], True, id="strided-f"),
        ],
    )
    def test_state_dtypes_and_layouts(self, smooth_state, field, convert, exact):
        # The state check admits any real f and any a of shape (2, n_x); the
        # march reads a as complex128 and f as float64, so a state in another
        # dtype or layout runs, and one that casts without rounding gives the
        # bits of the same state cast up front.
        state = dataclasses.replace(smooth_state, **{field: convert(getattr(smooth_state, field))})
        cast = dataclasses.replace(state, a=np.ascontiguousarray(state.a, complex), f=np.ascontiguousarray(state.f, float))
        dt = state.grid.dx / 2
        config = SolverConfig(grid=state.grid, dt=dt, t_end=20 * dt, diagnostics_every=3)
        results = [(solver.run(config, s, return_final=True), solver.strang_step(s, dt)) for s in (state, cast)]
        ((series, final), step), ((series_cast, final_cast), step_cast) = results
        rows, rows_cast = np.column_stack(dataclasses.astuple(series)), np.column_stack(dataclasses.astuple(series_cast))
        assert rows.shape == (8, 5) and np.isfinite(rows).all()
        assert final.a.dtype == step.a.dtype == complex and final.f.dtype == step.f.dtype == float
        if exact:
            assert np.array_equal(rows, rows_cast)
            for x, y in ((final, final_cast), (step, step_cast)):
                assert np.array_equal(x.a, y.a) and np.array_equal(x.f, y.f)

    @pytest.mark.parametrize("every", [1, 3, 16])
    def test_linear_budget(self, smooth_state, monkeypatch, every):
        # The march applies linear once per step (the opening half step, then
        # one fused full step between steps); rows apply none, and the
        # closing half step is applied once, to materialise the final state.
        calls = []
        linear = solver._linear

        def counted(*args):
            calls.append(args[1])
            return linear(*args)

        monkeypatch.setattr(solver, "_linear", counted)
        dt = smooth_state.grid.dx / 2
        for n_steps in (0, 1, 37):
            for return_final in (False, True):
                calls.clear()
                config = SolverConfig(grid=smooth_state.grid, dt=dt, t_end=n_steps * dt, diagnostics_every=every)
                solver.run(config, smooth_state, return_final=return_final)
                materialised = int(return_final and n_steps > 0)
                assert len(calls) == n_steps + materialised
                assert calls.count(1) == max(n_steps - 1, 0)
        calls.clear()
        solver.strang_step(smooth_state, dt)
        assert calls == [0, 0]


@pytest.mark.parametrize("n", [2, 16, 1024, 4096])
@pytest.mark.parametrize("lead", [(), (2,)], ids=["1-D", "2-rows"])
def test_pocketfft_binding_matches_scipy_fft(n, lead):
    # The solver calls SciPy's private binding with the arguments scipy.fft
    # passes it.  A release that changes the binding's signature or its
    # norm codes fails here, bit for bit, before the solver's tests do.
    binding = solver._pocketfft()
    rng = np.random.default_rng(n)
    x = rng.standard_normal((*lead, n)) + 1j * rng.standard_normal((*lead, n))
    real, half = x.real.copy(), x[..., : n // 2 + 1].copy()

    def same_bits(got, want):
        return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()

    assert same_bits(binding.c2c(x, (-1,), True, 0, None, 1), scipy.fft.fft(x))
    assert same_bits(binding.c2c(real, (-1,), True, 0, None, 1), scipy.fft.fft(real))
    assert same_bits(binding.c2c(x, (-1,), False, 2, None, 1), scipy.fft.ifft(x))
    # The march's inverse FFT of the amplitudes is unscaled (inorm 0).
    unscaled_ifft = functools.partial(scipy.fft.ifft, norm="forward")
    assert same_bits(binding.c2c(x, (-1,), False, 0, None, 1), unscaled_ifft(x))
    assert same_bits(binding.r2c(real, (-1,), True, 0, None, 1), scipy.fft.rfft(real))
    assert same_bits(binding.c2r(half, (-1,), n, False, 2, None, 1), scipy.fft.irfft(half, n=n))
    for forward, inorm, transform in ((True, 0, scipy.fft.fft), (False, 2, scipy.fft.ifft), (False, 0, unscaled_ifft)):
        held = x.copy()
        binding.c2c(held, (-1,), forward, inorm, held, 1)
        assert same_bits(held, transform(x))
    # The march writes its inverse real FFT of phi into a held float64 buffer
    # and the kick's real FFT into the front of a held complex one.
    held = np.full(real.shape, np.nan)
    binding.c2r(half, (-1,), n, False, 2, held, 1)
    assert same_bits(held, scipy.fft.irfft(half, n=n))
    store = np.full(x.shape, np.nan, complex)
    binding.r2c(real, (-1,), True, 0, store[..., : n // 2 + 1], 1)
    assert same_bits(store[..., : n // 2 + 1], scipy.fft.rfft(real))


class TestSnapshot:
    def test_roundtrip(self, smooth_state, tmp_path):
        s = solver.strang_step(smooth_state, 0.01)
        path = tmp_path / "state.bin"
        solver.save_state(path, s)
        back = solver.load_state(path)
        assert back.t == s.t
        assert back.M == s.M and back.m == s.m
        assert back.grid == s.grid
        for name in ("psi_plus", "psi_minus", "phi", "phi_t"):
            assert np.array_equal(getattr(back, name), getattr(s, name))
            assert getattr(back, name).dtype == getattr(s, name).dtype

    def test_flat_layout(self, tmp_path):
        g = GridSpec1D(4, 2.5)
        state = DKGState(
            np.stack((np.array([1 + 2j, 3, 4, 5]), np.full(4, -1j))),
            np.stack((np.arange(4.0), np.full(4, 0.5))),
            0.75,
            1.0,
            2.0,
            g,
        )
        path = tmp_path / "state.bin"
        solver.save_state(path, state)
        raw = path.read_bytes()
        # Header: magic, float64 t, M, m, int64 n_x, float64 x_extent; then
        # psi_plus, psi_minus as complex128 and phi, phi_t as float64.
        assert len(raw) == 48 + 4 * (16 + 16 + 8 + 8)
        assert struct.unpack("<8sdddqd", raw[:48]) == (b"DKG1DST2", 0.75, 1.0, 2.0, 4, 2.5)
        assert np.array_equal(np.frombuffer(raw[48:112], dtype="<c16"), state.psi_plus)
        assert np.array_equal(np.frombuffer(raw[112:176], dtype="<c16"), state.psi_minus)
        assert np.array_equal(np.frombuffer(raw[176:208], dtype="<f8"), state.phi)
        assert np.array_equal(np.frombuffer(raw[208:], dtype="<f8"), state.phi_t)

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"not a snapshot at all, certainly not long enough")
        with pytest.raises(ValueError):
            solver.load_state(path)

    def test_rejects_short_or_non_finite_header(self, smooth_state, tmp_path):
        path = tmp_path / "state.bin"
        solver.save_state(path, smooth_state)
        raw = path.read_bytes()
        path.write_bytes(raw[:20])
        with pytest.raises(ValueError, match="truncated"):
            solver.load_state(path)
        # Header: 8-byte magic, then float64 t, M, m.
        path.write_bytes(raw[:8] + struct.pack("<d", np.nan) + raw[16:])
        with pytest.raises(ValueError, match="non-finite"):
            solver.load_state(path)

    def test_rejects_old_padded_format(self, tmp_path):
        path = tmp_path / "old.bin"
        path.write_bytes(struct.pack("<8sddd", b"DKG1DST1", 0.0, 1.0, 1.0) + bytes(64))
        with pytest.raises(ValueError, match="not a solver state snapshot"):
            solver.load_state(path)

    @pytest.mark.parametrize("row", ["psi_plus", "psi_minus", "phi", "phi_t"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_payload(self, smooth_state, tmp_path, row, value):
        # A snapshot holds only what init_state accepts: finite fields.
        path = tmp_path / "state.bin"
        solver.save_state(path, smooth_state)
        raw = path.read_bytes()
        # After the 48-byte header: psi_plus, psi_minus as complex128, then
        # phi, phi_t as float64.  Overwrite (the real part of) value 3 of ``row``.
        n = smooth_state.grid.n_x
        row_start = {"psi_plus": 0, "psi_minus": 16 * n, "phi": 32 * n, "phi_t": 40 * n}[row]
        at = 48 + row_start + 3 * (16 if row.startswith("psi") else 8)
        path.write_bytes(raw[:at] + struct.pack("<d", value) + raw[at + 8 :])
        with pytest.raises(ValueError, match="field values must be finite"):
            solver.load_state(path)

    @pytest.mark.parametrize("M, m", [(-2.0, 1.0), (1.0, -1.0)])
    def test_rejects_negative_masses(self, smooth_state, tmp_path, M, m):
        path = tmp_path / "state.bin"
        solver.save_state(path, smooth_state)
        raw = path.read_bytes()
        # Header: 8-byte magic, then float64 t, M, m.
        path.write_bytes(raw[:16] + struct.pack("<dd", M, m) + raw[32:])
        with pytest.raises(ValueError, match="masses must be finite and nonnegative"):
            solver.load_state(path)

    @pytest.mark.parametrize(
        "n_x, x_extent, match",
        [(6, 16.0, "power of two"), (-8, 16.0, "power of two"), (8, np.nan, "finite"), (8, np.inf, "finite")],
    )
    def test_rejects_bad_grid(self, tmp_path, n_x, x_extent, match):
        path = tmp_path / "state.bin"
        header = struct.pack("<8sdddqd", b"DKG1DST2", 0.0, 1.0, 1.0, n_x, x_extent)
        path.write_bytes(header + bytes(48 * 8))
        with pytest.raises(ValueError, match=match):
            solver.load_state(path)

    def test_rejects_payload_size_mismatch(self, smooth_state, tmp_path):
        path = tmp_path / "state.bin"
        solver.save_state(path, smooth_state)
        raw = path.read_bytes()
        for data in (raw[:-1], raw + b"\0", raw[:48]):
            path.write_bytes(data)
            with pytest.raises(ValueError, match="payload"):
                solver.load_state(path)
        # A declared n_x of 2^62 must be refused before any read.
        path.write_bytes(raw[:32] + struct.pack("<q", 2**62) + raw[40:])
        with pytest.raises(ValueError, match="payload"):
            solver.load_state(path)

    def test_save_rejects_inconsistent_state(self, smooth_state, tmp_path):
        path = tmp_path / "state.bin"
        n = smooth_state.grid.n_x
        short = DKGState(smooth_state.a[:, : n // 2], smooth_state.f, 0.0, 1.0, 1.0, smooth_state.grid)
        with pytest.raises(ValueError, match="shapes"):
            solver.save_state(path, short)
        one_row = DKGState(smooth_state.a, smooth_state.f[:1], 0.0, 1.0, 1.0, smooth_state.grid)
        with pytest.raises(ValueError, match="shapes"):
            solver.save_state(path, one_row)
        complex_phi = DKGState(smooth_state.a, smooth_state.f + 1j, 0.0, 1.0, 1.0, smooth_state.grid)
        with pytest.raises(ValueError, match="real"):
            solver.save_state(path, complex_phi)
        # What load_state would refuse is refused before the file is opened.
        for t in (np.nan, np.inf, -np.inf, True):
            with pytest.raises(ValueError, match="non-finite time"):
                solver.save_state(path, dataclasses.replace(smooth_state, t=t))
        for M, m in ((-2.0, 1.0), (1.0, -1.0), (np.nan, 1.0), (1.0, np.inf), (True, 1.0), (1.0, "1"), (1.0, 1e200)):
            with pytest.raises(ValueError, match="masses must be finite and nonnegative"):
                solver.save_state(path, dataclasses.replace(smooth_state, M=M, m=m))
        for row in ("psi_plus", "psi_minus", "phi", "phi_t"):
            for value in (np.nan, np.inf, -np.inf):
                state = dataclasses.replace(smooth_state, a=smooth_state.a.copy(), f=smooth_state.f.copy())
                getattr(state, row)[3] = value
                with pytest.raises(ValueError, match="field values must be finite"):
                    solver.save_state(path, state)
        assert not path.exists()

    @pytest.mark.parametrize(
        "field, value",
        [("t", np.nan), ("t", np.inf), ("t", -np.inf), ("M", -2.0), ("M", np.nan), ("m", np.inf), ("m", 1e200)]
        + [(row, value) for row in ("psi_plus", "psi_minus", "phi", "phi_t") for value in (np.nan, np.inf, -np.inf)],
    )
    def test_save_and_load_refuse_alike(self, smooth_state, tmp_path, field, value):
        # A defect that a snapshot can carry: save_state refuses the state,
        # and load_state refuses its bytes, written here directly, with the
        # same message.
        state = dataclasses.replace(smooth_state, a=smooth_state.a.copy(), f=smooth_state.f.copy())
        if field in ("t", "M", "m"):
            state = dataclasses.replace(state, **{field: value})
        else:
            getattr(state, field)[3] = value
        saved = tmp_path / "saved.bin"
        with pytest.raises(ValueError) as refused_save:
            solver.save_state(saved, state)
        assert not saved.exists()
        g = state.grid
        path = tmp_path / "state.bin"
        header = solver._STATE_HEADER.pack(b"DKG1DST2", state.t, state.M, state.m, g.n_x, g.x_extent)
        path.write_bytes(header + state.a.astype("<c16").tobytes() + state.f.astype("<f8").tobytes())
        with pytest.raises(ValueError) as refused_load:
            solver.load_state(path)
        assert str(refused_load.value) == str(refused_save.value)


# Deterministic and bounded, so that the suite stays reproducible and fast.
FUZZ = settings(
    derandomize=True,
    database=None,
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


class TestSnapshotFuzz:
    """``load_state`` returns a state or raises ValueError, whatever the bytes."""

    @pytest.fixture
    def valid(self, tmp_path):
        g = GridSpec1D(8, 4.0)
        psi0, phi0, phi1 = solver.smooth_data(g)
        path = tmp_path / "valid.bin"
        solver.save_state(path, solver.init_state(psi0, phi0, phi1, 1.0, 1.0, g))
        return path.read_bytes()

    @staticmethod
    def _load(tmp_path, data: bytes) -> None:
        path = tmp_path / "fuzz.bin"
        path.write_bytes(data)
        try:
            solver.load_state(path)
        except ValueError:
            pass

    @FUZZ
    @given(data=st.binary(max_size=600), with_magic=st.booleans())
    def test_arbitrary_bytes(self, tmp_path, data, with_magic):
        self._load(tmp_path, b"DKG1DST2" + data if with_magic else data)

    @FUZZ
    @given(position=st.integers(0, 10**6), value=st.integers(0, 255))
    def test_single_byte_mutation(self, tmp_path, valid, position, value):
        position %= len(valid)
        self._load(tmp_path, valid[:position] + bytes([value]) + valid[position + 1 :])

    @FUZZ
    @given(length=st.integers(0, 10**6))
    def test_truncation(self, tmp_path, valid, length):
        self._load(tmp_path, valid[: length % len(valid)])


# Arbitrary integers and floats, NaN and +-inf included, with powers of two
# and positive floats mixed in so that valid grids are drawn often.
SIZES = st.one_of(st.integers(), st.integers(0, 70).map(lambda k: 2**k))
# Values a validator must refuse with ValueError before comparing them.
NOT_REAL = st.one_of(st.text(max_size=4), st.none(), st.booleans())


class TestConfigFuzz:
    """The validators construct an object that meets its invariants, or raise ValueError."""

    @FUZZ
    @given(n_x=SIZES, x_extent=st.one_of(st.floats(), st.floats(min_value=0.0, exclude_min=True), NOT_REAL))
    def test_grid(self, n_x, x_extent):
        try:
            g = GridSpec1D(n_x, x_extent)
        except ValueError:
            return
        assert 2 <= g.n_x < 2**63 and g.n_x & (g.n_x - 1) == 0
        assert 0 < g.x_extent < np.inf and not isinstance(g.x_extent, bool)
        assert 0 < g.dx < np.inf and 0 < 2 * np.pi / g.x_extent < np.inf

    @FUZZ
    @given(
        grid=st.builds(GridSpec1D, st.integers(1, 20).map(lambda k: 2**k), st.floats(1e-3, 1e3)),
        dt=st.one_of(st.floats(), NOT_REAL),
        dt_in_cells=st.one_of(st.none(), st.floats(0, 2)),
        t_end=st.one_of(st.floats(), NOT_REAL),
        every=st.one_of(st.integers(), st.booleans()),
        diag_s=st.one_of(st.floats(), NOT_REAL),
        diag_r=st.one_of(st.floats(), NOT_REAL),
    )
    def test_solver_config(self, grid, dt, dt_in_cells, t_end, every, diag_s, diag_r):
        if dt_in_cells is not None:
            dt = dt_in_cells * grid.dx
        try:
            c = SolverConfig(grid=grid, dt=dt, t_end=t_end, diagnostics_every=every, diag_s=diag_s, diag_r=diag_r)
        except ValueError:
            return
        assert 0 < c.dt
        assert np.isfinite([c.t_end, c.diag_s, c.diag_r]).all()
        nyquist = np.pi * grid.n_x / grid.x_extent
        with np.errstate(over="ignore"):
            weights = grid.dx**2 * (1 + nyquist) ** (2 * np.array([c.diag_s, c.diag_r]))
        assert np.isfinite(weights).all()
        assert c.diagnostics_every >= 1
        assert not any(isinstance(v, bool) for v in (c.dt, c.t_end, c.diagnostics_every, c.diag_s, c.diag_r))
