import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from dkg1d import spinor

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


def spinors():
    return st.tuples(finite, finite, finite, finite).map(
        lambda v: np.array([v[0] + 1j * v[1], v[2] + 1j * v[3]])
    )


class TestDecompose:
    def test_unit_first_component(self):
        plus, minus = spinor.decompose([1, 0])
        assert_allclose(plus, [0.5, 0.5])
        assert_allclose(minus, [0.5, -0.5])

    def test_plus_range_vector(self):
        plus, minus = spinor.decompose([1, 1])
        assert_allclose(plus, [1, 1])
        assert_allclose(minus, [0, 0])

    def test_zero(self):
        plus, minus = spinor.decompose([0, 0])
        assert_allclose(plus, [0, 0])
        assert_allclose(minus, [0, 0])

    def test_broadcasts_over_fields(self):
        rng = np.random.default_rng(0)
        field = rng.standard_normal((7, 5, 2)) + 1j * rng.standard_normal((7, 5, 2))
        plus, minus = spinor.decompose(field)
        assert plus.shape == field.shape
        assert_allclose(plus + minus, field, atol=1e-15)


class TestNullForm:
    def test_transversal_pair(self):
        assert spinor.null_form([1, 1], [1, -1]) == pytest.approx(2)

    def test_same_range_vanishes(self):
        assert spinor.null_form([1, 1], [1, 1]) == pytest.approx(0)

    def test_first_component_sign(self):
        assert spinor.null_form([1j, 0], [1, 0]) == pytest.approx(1j)

    @given(spinors(), spinors())
    @settings(max_examples=200, deadline=None)
    def test_vanishes_on_equal_projections(self, psi, psi_p):
        scale = np.linalg.norm(psi) * np.linalg.norm(psi_p)
        plus, minus = spinor.decompose(psi)
        plus_p, minus_p = spinor.decompose(psi_p)
        assert abs(spinor.null_form(plus, plus_p)) <= 1e-12 * max(scale, 1e-30)
        assert abs(spinor.null_form(minus, minus_p)) <= 1e-12 * max(scale, 1e-30)

    @given(spinors())
    @settings(max_examples=200, deadline=None)
    def test_diagonal_is_real(self, psi):
        # Roundoff in the imaginary part scales with |psi|^2, not with the
        # (possibly cancelling) real value.
        value = spinor.null_form(psi, psi)
        scale = float(np.sum(np.abs(psi) ** 2))
        assert abs(np.imag(value)) <= 1e-12 * max(scale, 1.0)


class TestPecherProjection:
    def test_positive_frequency_matches_p_plus(self):
        assert_allclose(spinor.pecher_projection(1.0, +1, [1, 0]), [0.5, 0.5])

    def test_negative_frequency_swaps(self):
        assert_allclose(spinor.pecher_projection(-1.0, +1, [1, 0]), [0.5, -0.5])

    def test_eigenvector_fixed(self):
        assert_allclose(spinor.pecher_projection(5.0, +1, [1, 1]), [1, 1])

    def test_zero_frequency_tie_break(self):
        # Row k of the result is pi(0) e_k, column k of pi(0); P+- are symmetric.
        assert_allclose(spinor.pecher_projection(0.0, +1, np.eye(2)), spinor.P_PLUS)
        assert_allclose(spinor.pecher_projection(0.0, -1, np.eye(2)), spinor.P_MINUS)

    def test_rejects_bad_sign(self):
        with pytest.raises(ValueError):
            spinor.pecher_projection(1.0, 0, [1, 0])

    @given(spinors(), st.floats(min_value=-100, max_value=100, allow_nan=False))
    @settings(max_examples=200, deadline=None)
    def test_idempotent_and_eigenrelation(self, psi, xi):
        for sign in (+1, -1):
            proj = spinor.pecher_projection(xi, sign, psi)
            again = spinor.pecher_projection(xi, sign, proj)
            assert_allclose(again, proj, atol=1e-12 * max(1.0, np.abs(psi).max()))
            lhs = xi * spinor.apply_matrix(spinor.ALPHA, proj)
            rhs = sign * abs(xi) * proj
            assert_allclose(lhs, rhs, atol=1e-9 * max(1.0, abs(xi) * np.abs(psi).max()))


class TestIdentities:
    @given(spinors())
    @settings(max_examples=200, deadline=None)
    def test_projection_algebra(self, psi):
        scale = max(np.abs(psi).max(), 1.0)
        plus, minus = spinor.decompose(psi)
        assert_allclose(plus + minus, psi, atol=1e-14 * scale)
        assert_allclose(spinor.apply_matrix(spinor.P_PLUS, plus), plus, atol=1e-14 * scale)
        assert_allclose(spinor.apply_matrix(spinor.P_MINUS, plus), 0 * plus, atol=1e-14 * scale)
        assert_allclose(spinor.apply_matrix(spinor.ALPHA, plus), plus, atol=1e-14 * scale)
        assert_allclose(spinor.apply_matrix(spinor.ALPHA, minus), -minus, atol=1e-14 * scale)
        # P+- beta = beta P-+
        beta_psi = spinor.apply_matrix(spinor.BETA, psi)
        assert_allclose(
            spinor.apply_matrix(spinor.P_PLUS, beta_psi),
            spinor.apply_matrix(spinor.BETA, minus),
            atol=1e-14 * scale,
        )

    def test_matrix_algebra(self):
        residuals = spinor._matrix_residuals()
        assert max(residuals.values()) == 0.0

    def test_verify_identities_all_small(self):
        residuals = spinor.verify_identities(5000, seed=7)
        for key, value in residuals.items():
            tol = 1e-12 if key == "null_form_vanishing" else 1e-14
            assert value <= tol, (key, value)

    @pytest.mark.parametrize("n", [0, -1, 1.5, True, np.True_])
    def test_verify_identities_rejects_bad_sample_count(self, n):
        with pytest.raises(ValueError, match="n_samples"):
            spinor.verify_identities(n)
