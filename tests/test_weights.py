import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from dkg1d import weights

coord = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)
quadruple = st.tuples(coord, coord, coord, coord)


class TestWeights:
    def test_origin(self):
        assert weights.weights(0, 0, 0, 0) == (0, 0, 0)

    def test_direct_evaluation(self):
        assert weights.weights(1, 1, 2, 3) == (0.0, 5.0, -1.0)
        assert weights.weights(-2, 1, 0, 0) == (1.0, 0.0, 3.0)

    def test_vectorized(self):
        tau = np.array([1.0, -2.0])
        xi = np.array([1.0, 1.0])
        lam = np.array([2.0, 0.0])
        eta = np.array([3.0, 0.0])
        g, tp, sm = weights.weights(tau, xi, lam, eta)
        assert_allclose(g, [0.0, 1.0])
        assert_allclose(tp, [5.0, 0.0])
        assert_allclose(sm, [-1.0, 3.0])


class TestDominanceMargin:
    def test_single_eta(self):
        # Gamma=0, Theta+=1, Sigma-=-1, min(|eta|,|eta-xi|)=1: 3/2 - 1
        assert weights.dominance_margin(0, 0, 0, 1) == 0.5

    def test_origin(self):
        assert weights.dominance_margin(0, 0, 0, 0) == 0.0

    @given(quadruple)
    @settings(max_examples=500, deadline=None)
    def test_nonnegative(self, q):
        tau, xi, lam, eta = q
        scale = 1.0 + max(abs(v) for v in q)
        assert weights.dominance_margin(tau, xi, lam, eta) >= -1e-9 * scale

    @given(quadruple)
    @settings(max_examples=500, deadline=None)
    def test_sum_bound(self, q):
        tau, xi, lam, eta = q
        scale = 1.0 + max(abs(v) for v in q)
        assert weights.sum_bound_margin(tau, xi, lam, eta) >= -1e-9 * scale


class TestSignSplitIdentity:
    def test_examples(self):
        assert weights.sign_split_residual(1, 1, 2, 3) == 0.0
        assert weights.sign_split_residual(-2, 1, 0, 0) == 0.0

    def test_both_branches_at_zero_tau(self):
        # At tau = 0 the residual of both branch identities must vanish.
        rng = np.random.default_rng(1)
        pts = rng.uniform(-50, 50, size=(1000, 3))
        res = weights.sign_split_residual(0.0, pts[:, 0], pts[:, 1], pts[:, 2])
        assert res.max() <= 1e-12 * 51

    @given(quadruple)
    @settings(max_examples=500, deadline=None)
    def test_residual_is_roundoff(self, q):
        tau, xi, lam, eta = q
        scale = 1.0 + max(abs(v) for v in q)
        assert weights.sign_split_residual(tau, xi, lam, eta) <= 1e-12 * scale


class TestSampleMargins:
    def test_bulk_and_corners(self):
        stats = weights.sample_margins(100_000, seed=3)
        assert stats["samples"] == 100_000
        assert stats["min_relative_margin"] >= -1e-9
        assert stats["max_relative_residual"] <= 1e-12
        assert stats["min_sum_bound_margin"] >= -1e-9 * 1001

    def test_relative_sum_bound_margin_is_scale_free(self):
        # The summed bound is attained on the corner manifolds and is
        # homogeneous of degree 1, so its absolute roundoff grows with the
        # box (about -2e-7 at box = 1e9) while the relative margin stays at
        # the level of machine epsilon.
        for box in (1e3, 1e9):
            stats = weights.sample_margins(20_000, seed=0, box=box)
            assert abs(stats["min_relative_sum_bound_margin"]) <= 1e-12

    def test_deterministic(self):
        a = weights.sample_margins(10_000, seed=5)
        b = weights.sample_margins(10_000, seed=5)
        assert a == b

    def test_tightness_reached_on_corners(self):
        # The 3/2 constant is attained up to sampling resolution near the
        # corner manifolds, so the minimum relative margin should be small.
        stats = weights.sample_margins(200_000, seed=11)
        assert stats["min_relative_margin"] < 0.05
