import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_max_ulp

from dkg1d import norms
from dkg1d.norms import Grid2D, GridFunction2D, NormIndex


def random_gf(grid, seed, side="physical"):
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal((grid.n_t, grid.n_x)) + 1j * rng.standard_normal(
        (grid.n_t, grid.n_x)
    )
    return GridFunction2D(grid, vals, side)


def gaussian_gf(grid):
    T, X = np.meshgrid(grid.t, grid.x, indexing="ij")
    return GridFunction2D(grid, np.exp(-(T**2 + X**2) / 2) + 0j, "physical")


def naive_transform(u):
    """Direct double-sum quadrature of the defining integral (oracle)."""
    g = u.grid
    ph_t = np.exp(-1j * np.outer(g.tau, g.t))
    ph_x = np.exp(-1j * np.outer(g.xi, g.x))
    return ph_t @ u.values @ ph_x.T * g.cell_physical


class TestBracket:
    def test_values(self):
        assert norms.bracket(0) == 1
        assert norms.bracket(-3) == 4
        assert norms.bracket(1e6) == 1 + 1e6

    def test_lower_bound(self):
        x = np.linspace(-50, 50, 1001)
        assert (norms.bracket(x) >= 1).all()


class TestGrid2D:
    def test_spacings(self):
        g = Grid2D(8, 16, 4.0, 8.0)
        assert g.dt == 0.5 and g.dx == 0.5
        assert g.dtau == pytest.approx(2 * np.pi / 4.0)
        assert g.dxi == pytest.approx(2 * np.pi / 8.0)
        assert g.t[g.n_t // 2] == 0.0
        assert g.tau[g.n_t // 2] == 0.0

    def test_rejects_odd_sizes(self):
        with pytest.raises(ValueError):
            Grid2D(7, 16, 1.0, 1.0)
        for n in (8.0, np.float64(8)):
            with pytest.raises(ValueError, match="even integers"):
                Grid2D(8, n, 1.0, 1.0)

    def test_rejects_bad_extent(self):
        with pytest.raises(ValueError):
            Grid2D(8, 8, 0.0, 1.0)

    @pytest.mark.parametrize("extent", [np.nan, np.inf, -np.inf, "1", True, pytest.param(10**400, id="10**400")])
    def test_rejects_non_finite_extent(self, extent):
        with pytest.raises(ValueError, match="finite"):
            Grid2D(8, 8, extent, 1.0)
        with pytest.raises(ValueError, match="finite"):
            Grid2D(8, 8, 1.0, extent)

    def test_shape_mismatch(self):
        g = Grid2D(8, 8, 1.0, 1.0)
        with pytest.raises(ValueError):
            GridFunction2D(g, np.zeros((8, 9)), "physical")


class TestTransform:
    def test_zero(self):
        g = Grid2D(8, 8, 3.0, 3.0)
        u = GridFunction2D(g, np.zeros((8, 8), complex), "physical")
        assert np.all(norms.transform(u).values == 0)

    def test_point_mass_is_flat(self):
        g = Grid2D(16, 16, 5.0, 5.0)
        vals = np.zeros((16, 16), complex)
        vals[3, 11] = 1.0
        u_hat = norms.transform(GridFunction2D(g, vals, "physical"))
        assert_allclose(np.abs(u_hat.values), g.cell_physical, rtol=1e-12)

    def test_matches_direct_quadrature(self):
        g = Grid2D(16, 24, 7.0, 9.0)
        u = random_gf(g, 0)
        u_hat = norms.transform(u)
        oracle = naive_transform(u)
        assert np.abs(u_hat.values - oracle).max() <= 1e-12 * np.abs(oracle).max()

    def test_gaussian_matches_analytic(self):
        # F[exp(-(t^2+x^2)/2)] = 2 pi exp(-(tau^2+xi^2)/2); compare on the
        # interior modes where the analytic value is not vanishingly small.
        g = Grid2D(128, 128, 20.0, 20.0)
        u_hat = norms.transform(gaussian_gf(g))
        TAU, XI = np.meshgrid(g.tau, g.xi, indexing="ij")
        analytic = 2 * np.pi * np.exp(-(TAU**2 + XI**2) / 2)
        interior = (np.abs(TAU) <= 5) & (np.abs(XI) <= 5)
        rel = np.abs(u_hat.values - analytic)[interior] / analytic[interior]
        assert rel.max() <= 1e-6

    def test_roundtrip(self):
        g = Grid2D(32, 16, 3.0, 11.0)
        u = random_gf(g, 1)
        back = norms.inverse_transform(norms.transform(u))
        assert np.abs(back.values - u.values).max() <= 1e-12 * np.abs(u.values).max()

    def test_side_validation(self):
        g = Grid2D(8, 8, 1.0, 1.0)
        u = random_gf(g, 2)
        with pytest.raises(ValueError):
            norms.inverse_transform(u)
        with pytest.raises(ValueError):
            norms.transform(norms.transform(u))

    def test_parseval_exact(self):
        g = Grid2D(32, 48, 10.0, 12.0)
        u = random_gf(g, 3)
        u_hat = norms.transform(u)
        lhs = np.sum(np.abs(u_hat.values) ** 2) * g.cell_fourier
        rhs = (2 * np.pi) ** 2 * np.sum(np.abs(u.values) ** 2) * g.cell_physical
        assert abs(lhs - rhs) <= 1e-10 * rhs


class TestWeightedNorm:
    def test_zero(self):
        g = Grid2D(8, 8, 1.0, 1.0)
        u = GridFunction2D(g, np.zeros((8, 8), complex), "fourier")
        assert norms.weighted_norm(u, NormIndex(1.0, 1.0, "X_plus")) == 0.0

    def test_single_mode_weight(self):
        # Unit mass at (tau, xi) = (2, 1):  <1>^1 <3>^1 = 8, times the cell
        # root.  (At (tau, xi) = (1, 2) the same weight reads <2><3> = 12.)
        g = Grid2D(16, 16, 2 * np.pi, 2 * np.pi)  # unit frequency spacing
        vals = np.zeros((16, 16), complex)
        kt = 8 + 2  # tau = 2
        kx = 8 + 1  # xi = 1
        vals[kt, kx] = 1.0
        u = GridFunction2D(g, vals, "fourier")
        expected = 8.0 * np.sqrt(g.cell_fourier)
        assert norms.weighted_norm(u, NormIndex(1.0, 1.0, "X_plus")) == pytest.approx(expected)

        vals = np.zeros((16, 16), complex)
        vals[8 + 1, 8 + 2] = 1.0  # (tau, xi) = (1, 2)
        u = GridFunction2D(g, vals, "fourier")
        expected = 12.0 * np.sqrt(g.cell_fourier)
        assert norms.weighted_norm(u, NormIndex(1.0, 1.0, "X_plus")) == pytest.approx(expected)

    def test_flavors_differ(self):
        g = Grid2D(16, 16, 2 * np.pi, 2 * np.pi)
        vals = np.zeros((16, 16), complex)
        vals[8 + 1, 8 + 2] = 1.0  # tau=1, xi=2
        u = GridFunction2D(g, vals, "fourier")
        root = np.sqrt(g.cell_fourier)
        assert norms.weighted_norm(u, NormIndex(0, 1, "X_plus")) == pytest.approx(4 * root)
        assert norms.weighted_norm(u, NormIndex(0, 1, "X_minus")) == pytest.approx(2 * root)
        assert norms.weighted_norm(u, NormIndex(0, 1, "H")) == pytest.approx(2 * root)

    def test_homogeneity_exact(self):
        g = Grid2D(16, 16, 4.0, 4.0)
        u = random_gf(g, 4, side="fourier")
        idx = NormIndex(0.7, -0.3, "H")
        doubled = GridFunction2D(g, 2.0 * u.values, "fourier")
        assert norms.weighted_norm(doubled, idx) == 2.0 * norms.weighted_norm(u, idx)

    def test_h_flavor_is_planck_scaled_l2(self):
        g = Grid2D(128, 128, 20.0, 20.0)
        u = gaussian_gf(g)
        u_hat = norms.transform(u)
        val = norms.weighted_norm(u_hat, NormIndex(0.0, 0.0, "H"))
        phys = np.sqrt(np.sum(np.abs(u.values) ** 2) * g.cell_physical)
        assert val == pytest.approx(2 * np.pi * phys, rel=1e-8)

    def test_nonfinite_rejected(self):
        g = Grid2D(8, 8, 1.0, 1.0)
        vals = np.zeros((8, 8), complex)
        vals[0, 0] = np.nan
        with pytest.raises(ValueError):
            norms.weighted_norm(GridFunction2D(g, vals, "fourier"), NormIndex(0, 0, "H"))

    def test_conjugation_h_norm_equal(self):
        g = Grid2D(32, 32, 9.0, 7.0)
        u = random_gf(g, 5)
        conj = GridFunction2D(g, np.conj(u.values), "physical")
        idx = NormIndex(0.4, 0.6, "H")
        a = norms.weighted_norm(norms.transform(u), idx)
        b = norms.weighted_norm(norms.transform(conj), idx)
        assert abs(a - b) <= 1e-12 * a

    def test_conjugation_preserves_x_flavors(self):
        # The X weights <tau +- xi> are even under joint reflection of
        # (tau, xi), so plain conjugation preserves each X norm as well.
        # Exact only for data without Nyquist content (the reflection of the
        # -n/2 row wraps onto itself with a different X weight).
        g = Grid2D(32, 32, 9.0, 7.0)
        raw = random_gf(g, 6, side="fourier").values
        raw[0, :] = 0.0
        raw[:, 0] = 0.0
        u = norms.inverse_transform(GridFunction2D(g, raw, "fourier"))
        conj = GridFunction2D(g, np.conj(u.values), "physical")
        for flavor in ("X_plus", "X_minus"):
            idx = NormIndex(0.3, 0.8, flavor)
            a = norms.weighted_norm(norms.transform(u), idx)
            b = norms.weighted_norm(norms.transform(conj), idx)
            assert abs(a - b) <= 1e-12 * a


class TestPointNorm:
    """Exponent columns of ``weight`` give, row by row, the weights of one
    exponent at a time up to roundoff, as ``ratio_ladder`` relies on."""

    # numpy evaluates ``array ** -1.0`` and ``** 0.5`` apart from its general
    # power, so those two exponents are in the list next to random ones.  The
    # class and test names predate the roundoff bound; they are kept so that
    # ids stay stable.
    EXPONENTS = [-1.0, 0.5, 2.0, 1.0, 0.0, -0.0, -0.5, -2.0, 1.5]
    EXPONENTS += list(np.random.default_rng(11).uniform(-2, 2, 40))

    @pytest.mark.parametrize("flavor", ["X_plus", "X_minus", "H"])
    @pytest.mark.parametrize("n", [13, 1000, 10_000])
    def test_exponent_columns_bit_equal(self, flavor, n):
        rng = np.random.default_rng(n)
        tau = rng.integers(-4 * n, 4 * n, n) * 0.5
        xi = rng.integers(-4 * n, 4 * n, n) * 0.25
        a = np.array(self.EXPONENTS)
        alpha = a[::-1].copy()
        weights = norms.weight(NormIndex(a[:, None], alpha[:, None], flavor), tau, xi)
        assert weights.shape == (a.size, n)
        for k in range(a.size):
            idx = NormIndex(float(a[k]), float(alpha[k]), flavor)
            assert_array_max_ulp(weights[k], norms.weight(idx, tau, xi), maxulp=4)


class TestBilinearConvolution:
    def test_zero(self):
        g = Grid2D(8, 8, 1.0, 1.0)
        z = GridFunction2D(g, np.zeros((8, 8), complex), "fourier")
        f = random_gf(g, 7, side="fourier")
        assert np.all(norms.bilinear_convolution(z, f).values == 0)

    def test_single_cells(self):
        g = Grid2D(8, 8, 1.0, 1.0)
        F = np.zeros((8, 8), complex)
        G = np.zeros((8, 8), complex)
        F[5, 6] = 1.0
        G[2, 3] = 1.0
        out = norms.bilinear_convolution(
            GridFunction2D(g, F, "fourier"), GridFunction2D(g, G, "fourier")
        )
        # Output sits at the index difference plus center: k = p - q + n/2.
        expected = np.zeros((8, 8), complex)
        expected[5 - 2 + 4, 6 - 3 + 4] = g.cell_fourier
        assert_allclose(out.values, expected, atol=1e-13 * g.cell_fourier)
        direct = norms.bilinear_convolution(
            GridFunction2D(g, F, "fourier"), GridFunction2D(g, G, "fourier"), "direct"
        )
        assert_allclose(direct.values, expected, atol=0)

    @pytest.mark.parametrize("shape", [(8, 8), (16, 12), (32, 32), (64, 64), (64, 32)])
    def test_fft_matches_direct(self, shape):
        g = Grid2D(shape[0], shape[1], 3.0, 5.0)
        F = random_gf(g, shape[0], side="fourier")
        G = random_gf(g, shape[1] + 1, side="fourier")
        fft_path = norms.bilinear_convolution(F, G, "fft")
        direct = norms.bilinear_convolution(F, G, "direct")
        scale = np.abs(direct.values).max()
        assert np.abs(fft_path.values - direct.values).max() <= 1e-10 * scale

    def test_grid_mismatch(self):
        a = random_gf(Grid2D(8, 8, 1.0, 1.0), 0, side="fourier")
        b = random_gf(Grid2D(8, 8, 2.0, 1.0), 0, side="fourier")
        with pytest.raises(ValueError):
            norms.bilinear_convolution(a, b)


class TestProductNorm:
    def test_zero_factor(self):
        g = Grid2D(16, 16, 4.0, 4.0)
        z = GridFunction2D(g, np.zeros((16, 16), complex), "physical")
        v = random_gf(g, 8)
        assert norms.product_norm(z, v, NormIndex(0, 0, "H")) == 0.0

    def test_flat_window_reduces_to_weighted_norm(self):
        g = Grid2D(16, 16, 4.0, 4.0)
        u = random_gf(g, 9)
        ones = GridFunction2D(g, np.ones((16, 16), complex), "physical")
        idx = NormIndex(0.5, -0.25, "X_minus")
        direct = norms.weighted_norm(norms.transform(u), idx)
        assert norms.product_norm(u, ones, idx) == pytest.approx(direct, rel=1e-13)

    def test_matches_convolution_route(self):
        # F(u conj v) = (2 pi)^-2 corr(Fu, conj Fv) when supports fit.
        g = Grid2D(64, 64, 20.0, 20.0)
        u = gaussian_gf(g)
        X, T = np.meshgrid(g.x, g.t, indexing="xy")
        vvals = np.exp(-((T.T - 0.3) ** 2 + (X.T + 0.5) ** 2) / 2) * (1 + 0.5j)
        v = GridFunction2D(g, vvals, "physical")
        idx = NormIndex(0.3, 0.4, "H")
        via_product = norms.product_norm(u, v, idx)
        conv = norms.bilinear_convolution(
            norms.transform(u),
            GridFunction2D(g, np.conj(norms.transform(v).values), "fourier"),
        )
        w_hat = GridFunction2D(g, conv.values / (2 * np.pi) ** 2, "fourier")
        via_conv = norms.weighted_norm(w_hat, idx)
        assert via_product == pytest.approx(via_conv, rel=1e-8)


_G = Grid2D(8, 8, 1.0, 1.0)
_PHYSICAL = GridFunction2D(_G, np.ones((8, 8), complex), "physical")
_FOURIER = GridFunction2D(_G, np.ones((8, 8), complex), "fourier")


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda: GridFunction2D(_G, np.ones((8, 8)), "spectral"), "unknown side 'spectral'", id="side"),
        pytest.param(lambda: norms.spatial_inverse(np.ones(5), 1.0), "spatial_inverse needs an even number of samples", id="odd-length"),
        pytest.param(lambda: NormIndex(0.0, 0.0, "X"), "unknown flavor 'X'", id="flavor"),
        pytest.param(
            lambda: norms.weighted_norm(_PHYSICAL, NormIndex(0.0, 0.0, "H")),
            "weighted_norm expects a fourier-side function",
            id="weighted-norm-side",
        ),
        pytest.param(
            lambda: norms.bilinear_convolution(_PHYSICAL, _FOURIER),
            "bilinear_convolution expects fourier-side functions",
            id="convolution-side",
        ),
        pytest.param(lambda: norms.bilinear_convolution(_FOURIER, _FOURIER, "fast"), "unknown method 'fast'", id="method"),
        pytest.param(
            lambda: norms.product_norm(_PHYSICAL, _FOURIER, NormIndex(0.0, 0.0, "H")),
            "product_norm expects physical-side functions",
            id="product-side",
        ),
        pytest.param(
            lambda: norms.product_norm(
                _PHYSICAL, GridFunction2D(Grid2D(8, 8, 2.0, 1.0), _PHYSICAL.values, "physical"), NormIndex(0.0, 0.0, "H")
            ),
            "product_norm: grid mismatch",
            id="product-grids",
        ),
    ],
)
def test_refusals(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


# Deterministic and bounded, so that the suite stays reproducible and fast.
FUZZ = settings(derandomize=True, database=None, max_examples=300, deadline=None)


class TestGridFuzz:
    """``Grid2D`` constructs a grid that meets its invariants, or raises ValueError."""

    # Arbitrary integers and floats, NaN and +-inf included, with even sizes
    # and positive extents mixed in so that valid grids are drawn often.
    SIZES = st.one_of(st.integers(), st.integers(1, 2**64).map(lambda k: 2 * k))
    EXTENTS = st.one_of(st.floats(), st.floats(min_value=0.0, exclude_min=True))

    @FUZZ
    @given(n_t=SIZES, n_x=SIZES, t_extent=EXTENTS, x_extent=EXTENTS)
    def test_grid(self, n_t, n_x, t_extent, x_extent):
        try:
            g = Grid2D(n_t, n_x, t_extent, x_extent)
        except ValueError:
            return
        for n in (g.n_t, g.n_x):
            assert 2 <= n < 2**63 and n % 2 == 0
        for spacing in (g.t_extent, g.x_extent, g.dt, g.dx, g.dtau, g.dxi):
            assert 0 < spacing < np.inf
