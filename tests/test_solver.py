import dataclasses
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from dkg1d import solver
from dkg1d.solver import DKGState, GridSpec1D, SolverConfig


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


class TestGridSpec:
    def test_spacing(self):
        g = GridSpec1D(8, 4.0)
        assert g.dx == 0.5
        assert g.x[4] == 0.0
        assert sorted(g.xi_fft) == pytest.approx(sorted(g.xi))

    def test_dual_modes_cached_read_only(self):
        g = GridSpec1D(8, 4.0)
        for modes in (g.xi_fft, g.xi_rfft):
            with pytest.raises(ValueError, match="read-only"):
                modes[0] = 1.0
        assert g.xi_fft is g.xi_fft and g.xi_rfft is g.xi_rfft
        assert np.array_equal(g.xi_rfft, np.abs(g.xi_fft[: g.n_x // 2 + 1]))

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            GridSpec1D(100, 4.0)

    @pytest.mark.parametrize("extent", [0.0, np.nan, np.inf])
    def test_rejects_bad_extent(self, extent):
        with pytest.raises(ValueError, match="finite and positive"):
            GridSpec1D(8, extent)


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
        for flow in (solver.half_wave_flow, solver.kg_flow, solver.coupling_flow, solver.strang_step):
            flow(smooth_state, 0.05)
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
        assert np.abs(solver.reconstruct(state) - psi0).max() <= 1e-14

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

    @pytest.mark.parametrize("M, m", [(np.nan, 1.0), (1.0, np.inf), (-1.0, 1.0)])
    def test_rejects_bad_masses(self, grid, M, m):
        with pytest.raises(ValueError, match="masses"):
            solver.init_state(
                np.zeros((grid.n_x, 2), complex), np.zeros(grid.n_x), np.zeros(grid.n_x), M, m, grid
            )


class TestHalfWaveFlow:
    def test_single_mode_phase(self, grid):
        k = 5
        mode = np.exp(1j * grid.xi[grid.n_x // 2 + k] * grid.x)
        state = DKGState(np.stack((mode, 0 * mode)), np.zeros((2, grid.n_x)), 0.0, 0.0, 0.0, grid)
        out = solver.half_wave_flow(state, 0.25)
        xi_k = grid.xi[grid.n_x // 2 + k]
        assert_allclose(out.psi_plus, np.exp(-1j * xi_k * 0.25) * mode, atol=1e-13)

    def test_zero_dt_is_identity(self, smooth_state):
        out = solver.half_wave_flow(smooth_state, 0.0)
        assert out is smooth_state

    def test_mass_phase(self, grid):
        # M acts as M beta, in the coupling; the half-wave is pure transport.
        ones, M, h = np.ones(grid.n_x, complex), 2.0, 0.5
        state = DKGState(np.stack((ones, 0 * ones)), np.zeros((2, grid.n_x)), 0.0, M, 0.0, grid)
        assert_allclose(solver.half_wave_flow(state, h).a, state.a, atol=1e-13)
        out = solver.coupling_flow(state, h)
        assert_allclose(out.psi_plus, np.cos(M * h) * ones, atol=1e-15)
        assert_allclose(out.psi_minus, -1j * np.sin(M * h) * ones, atol=1e-15)

    def test_transport(self):
        g = GridSpec1D(512, 32.0)
        a0 = np.exp(-((g.x) / 1.5) ** 2) * np.exp(2j * g.x)
        state = DKGState(np.stack((a0, 0 * a0)), np.zeros((2, g.n_x)), 0.0, 0.0, 0.0, g)
        shift_cells = 16
        out = solver.half_wave_flow(state, shift_cells * g.dx)
        assert np.abs(out.psi_plus - np.roll(a0, shift_cells)).max() <= 1e-12


class TestKGFlow:
    def test_standing_mode_oscillates(self):
        g = GridSpec1D(64, 2 * np.pi)
        phi0 = np.cos(3 * g.x)
        state = DKGState(np.zeros((2, g.n_x), complex), np.stack((phi0, 0 * phi0)), 0.0, 0.0, 0.0, g)
        out = solver.kg_flow(state, 0.4)
        assert_allclose(out.phi, np.cos(3 * 0.4) * phi0, atol=1e-13)

    def test_zero_mode_free_drift(self):
        g = GridSpec1D(64, 2 * np.pi)
        phi_t0 = np.full(g.n_x, 0.7)
        state = DKGState(np.zeros((2, g.n_x), complex), np.stack((0 * phi_t0, phi_t0)), 0.0, 0.0, 0.0, g)
        out = solver.kg_flow(state, 0.3)
        assert_allclose(out.phi, 0.3 * phi_t0, atol=1e-14)
        assert_allclose(out.phi_t, phi_t0, atol=1e-14)

    def test_energy_conserved(self, grid):
        rng = np.random.default_rng(1)
        phi0 = np.real(np.fft.ifft(np.exp(-np.abs(np.fft.fftfreq(grid.n_x) * 40)) * rng.standard_normal(grid.n_x)))
        phi1 = np.roll(phi0, 3)
        state = DKGState(np.zeros((2, grid.n_x), complex), np.stack((phi0, phi1)), 0.0, 0.0, 1.0, grid)
        e0 = solver.kg_energy(state)
        for _ in range(200):
            state = solver.kg_flow(state, 0.03)
        assert abs(solver.kg_energy(state) - e0) <= 1e-10 * e0


class TestCouplingFlow:
    def test_zero_field_kicks_phi_t(self, grid):
        rng = np.random.default_rng(2)
        psi0 = rng.standard_normal((grid.n_x, 2)) + 1j * rng.standard_normal((grid.n_x, 2))
        # At M = 0 a zero field leaves the spinor alone.
        state = solver.init_state(psi0, np.zeros(grid.n_x), np.zeros(grid.n_x), 0, 1, grid)
        out = solver.coupling_flow(state, 0.2)
        assert_allclose(out.psi_plus, state.psi_plus)
        density = np.abs(psi0[:, 0]) ** 2 - np.abs(psi0[:, 1]) ** 2
        assert_allclose(out.phi_t, 0.2 * density, atol=1e-13)

    def test_plus_range_source_vanishes(self, grid):
        psi0 = np.ones((grid.n_x, 2), complex)
        state = solver.init_state(psi0, 0.3 * np.ones(grid.n_x), np.zeros(grid.n_x), 1, 1, grid)
        out = solver.coupling_flow(state, 0.2)
        assert np.abs(out.phi_t).max() <= 1e-15

    def test_charge_invariant(self, smooth_state):
        out = solver.coupling_flow(smooth_state, 0.37)
        assert solver.charge(out) == pytest.approx(solver.charge(smooth_state), rel=1e-14)

    def test_pointwise_modulus_preserved(self, smooth_state):
        out = solver.coupling_flow(smooth_state, 0.37)
        before = np.abs(smooth_state.psi_plus) ** 2 + np.abs(smooth_state.psi_minus) ** 2
        after = np.abs(out.psi_plus) ** 2 + np.abs(out.psi_minus) ** 2
        assert_allclose(after, before, rtol=1e-13)

    def test_density_invariant_under_rotation(self, smooth_state):
        out = solver.coupling_flow(smooth_state, 0.37)
        assert_allclose(
            solver.spinor_density(out), solver.spinor_density(smooth_state), atol=1e-13
        )

    def test_half_steps_compose(self, smooth_state):
        # The fused run relies on coupling(h/2) o coupling(h/2) = coupling(h).
        h = 0.37
        twice = solver.coupling_flow(solver.coupling_flow(smooth_state, h / 2), h / 2)
        once = solver.coupling_flow(smooth_state, h)
        assert state_distance(twice, once) <= 1e-14 * state_norm(once)


class TestPropagatorCache:
    def test_repeated_calls_share_one_read_only_array(self, grid):
        dt = grid.dx / 2
        for build in (
            lambda: solver._wave_phases(grid, dt),
            lambda: solver._kg_propagator(grid, 1.0, dt),
        ):
            first = build()
            assert build() is first
            with pytest.raises(ValueError, match="read-only"):
                first[0, 0] = 0.0

    def test_cache_keyed_by_arguments(self, grid):
        dt = grid.dx / 2
        assert solver._wave_phases(grid, dt) is not solver._wave_phases(grid, dt / 2)
        assert solver._kg_propagator(grid, 1.0, dt) is not solver._kg_propagator(grid, 2.0, dt)
        assert np.array_equal(
            solver._kg_propagator(GridSpec1D(256, 16.0), 1.0, dt),
            solver._kg_propagator(grid, 1.0, dt),
        )


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
            coupling = np.sum((M - s.phi) * solver.spinor_density(s)) * g.dx
            return dirac + coupling + solver.kg_energy(s)

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
            psi0, phi0, phi1 = solver.smooth_data(g, width=0.22)
            s = solver.init_state(psi0, phi0, phi1, 1.0, 1.0, g)
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


class TestConfigValidation:
    def test_dt_cap(self, grid):
        with pytest.raises(ValueError, match="dx"):
            SolverConfig(grid=grid, dt=2 * grid.dx, t_end=1.0)

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

    @pytest.mark.parametrize("name", ["diag_s", "diag_r"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_diagnostic_regularity_finite(self, grid, name, value):
        with pytest.raises(ValueError, match="diag_s and diag_r"):
            SolverConfig(grid=grid, dt=grid.dx / 2, t_end=1.0, **{name: value})


class TestRoughData:
    def test_unit_l2_at_zero_regularity(self, grid):
        psi0 = solver.rough_data(0.0, 7, grid)
        norm = solver.sobolev_norm(psi0.T, 0.0, grid)
        assert norm == pytest.approx(1.0, rel=1e-12)

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
        assert solver.kg_energy(state) == pytest.approx(reference_kg_energy(state), rel=1e-13, abs=0)

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
            for energy in (solver.kg_energy(state), reference_kg_energy(state)):
                assert abs(energy - physical) <= 1e-13 * undropped
        for s in (-0.5, 1.0):
            expected = reference_sobolev_norm(phi, s, grid)
            assert solver.sobolev_norm(phi, s, grid) == pytest.approx(expected, rel=1e-13, abs=0)


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
        assert err.value.step == 4

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("row", ["psi_plus", "psi_minus", "phi", "phi_t"])
    def test_blowup_in_any_field(self, smooth_state, row, value):
        # The row check is the only finiteness scan: a non-finite entry in
        # any of the four rows must end the run at the first recorded row.
        a, f = smooth_state.a.copy(), smooth_state.f.copy()
        fields = {"psi_plus": a[0], "psi_minus": a[1], "phi": f[0], "phi_t": f[1]}
        fields[row][5] = value
        state = dataclasses.replace(smooth_state, a=a, f=f)
        config = SolverConfig(grid=state.grid, dt=state.grid.dx / 2, t_end=1.0, diagnostics_every=3)
        with pytest.raises(solver.BlowUpError) as err:
            solver.run(config, state)
        assert err.value.step == 3

    def test_final_state_returned(self, smooth_state):
        config = SolverConfig(grid=smooth_state.grid, dt=smooth_state.grid.dx / 2, t_end=0.25)
        series, final = solver.run(config, smooth_state, return_final=True)
        assert final.t == pytest.approx(series.t[-1])

    def test_rejects_grid_mismatch(self, grid):
        # The config's dt <= dx check is made on its own grid, so it must be
        # the state's: dt = dx(64 cells) is 4 dx on the 256-cell state grid.
        coarse = GridSpec1D(64, 16.0)
        psi0, phi0, phi1 = solver.smooth_data(grid)
        state = solver.init_state(psi0, phi0, phi1, 1.0, 1.0, grid)
        config = SolverConfig(grid=coarse, dt=coarse.dx, t_end=2 * coarse.dx)
        with pytest.raises(ValueError, match="grid"):
            solver.run(config, state)

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
        assert_allclose(series.kg_energy, [solver.kg_energy(r) for r in rows], rtol=1e-12)
        assert final.t == s.t
        assert state_distance(final, s) <= 1e-12 * state_norm(s)

    @pytest.mark.parametrize("data", ["smooth", "rough"])
    @pytest.mark.parametrize("M", [0.0, 1.0])
    def test_row_every_step_bit_equal_to_step_loop(self, grid, data, M):
        # Around each row the closing and reopening half-steps share one
        # rotation; that must give the same bits as a loop of strang_step.
        if data == "smooth":
            psi0, phi0, phi1 = solver.smooth_data(grid)
        else:
            psi0, phi0, phi1 = solver.rough_data(0.25, 9, grid), np.zeros(grid.n_x), np.zeros(grid.n_x)
        state = solver.init_state(psi0, phi0, phi1, M, 1.0, grid)
        dt, n_steps = 0.3 * grid.dx, 12  # non-dyadic, so a reordered angle rounds differently
        config = SolverConfig(grid=grid, dt=dt, t_end=n_steps * dt, diagnostics_every=1, diag_s=0.25, diag_r=0.5)
        _, final = solver.run(config, state, return_final=True)
        s = state
        for _ in range(n_steps):
            s = solver.strang_step(s, dt)
        assert np.array_equal(final.a, s.a)
        assert np.array_equal(final.f, s.f)


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
        with pytest.raises(ValueError, match="DKG1DST1"):
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
        assert not path.exists()


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


class TestConfigFuzz:
    """The validators construct an object that meets its invariants, or raise ValueError."""

    @FUZZ
    @given(n_x=SIZES, x_extent=st.one_of(st.floats(), st.floats(min_value=0.0, exclude_min=True)))
    def test_grid(self, n_x, x_extent):
        try:
            g = GridSpec1D(n_x, x_extent)
        except ValueError:
            return
        assert 2 <= g.n_x < 2**63 and g.n_x & (g.n_x - 1) == 0
        assert 0 < g.x_extent < np.inf
        assert 0 < g.dx < np.inf and 0 < 2 * np.pi / g.x_extent < np.inf

    @FUZZ
    @given(
        grid=st.builds(GridSpec1D, st.integers(1, 20).map(lambda k: 2**k), st.floats(1e-3, 1e3)),
        dt=st.floats(),
        dt_in_cells=st.one_of(st.none(), st.floats(0, 2)),
        t_end=st.floats(),
        every=st.integers(),
        diag_s=st.floats(),
        diag_r=st.floats(),
    )
    def test_solver_config(self, grid, dt, dt_in_cells, t_end, every, diag_s, diag_r):
        if dt_in_cells is not None:
            dt = dt_in_cells * grid.dx
        try:
            c = SolverConfig(grid=grid, dt=dt, t_end=t_end, diagnostics_every=every, diag_s=diag_s, diag_r=diag_r)
        except ValueError:
            return
        assert 0 < c.dt <= grid.dx + 1e-15
        assert np.isfinite([c.t_end, c.diag_s, c.diag_r]).all()
        assert c.diagnostics_every >= 1
