import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from dkg1d import spinor

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


def concatenated_draws(n, seed):
    """The chunk draws of ``verify_identities`` joined: psi, psi', xi."""
    rng = np.random.default_rng(seed)
    draws = []
    for start in range(0, n, spinor._CHUNK):
        k = min(spinor._CHUNK, n - start)
        psi = rng.standard_normal((k, 2)) + 1j * rng.standard_normal((k, 2))
        psi_p = rng.standard_normal((k, 2)) + 1j * rng.standard_normal((k, 2))
        draws.append((psi, psi_p, rng.uniform(-100.0, 100.0, size=k)))
    psi, psi_p, xi = (np.concatenate(parts) for parts in zip(*draws))
    xi[0] = 0.0
    return psi, psi_p, xi


def whole_array_identities(n, seed):
    """``verify_identities`` evaluated at once on the concatenated chunk draws."""
    return {**spinor._chunk_residuals(*concatenated_draws(n, seed)), **spinor._matrix_residuals()}


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

    @pytest.mark.parametrize("sign", [True, np.True_, 1.0])
    def test_sign_is_the_integer_one_or_minus_one(self, sign):
        # True == 1, but a bool is not a sign.
        with pytest.raises(ValueError, match="sign"):
            spinor.pecher_projection(1.0, sign, [1, 0])

    def test_each_frequency_takes_its_own_sign(self):
        # pi_sign(xi) = P_(sign sgn xi) sample by sample, with sgn(0) = sgn(-0.0) = +1
        # and the sign of the smallest subnormals kept.
        xi = np.array([0.0, -0.0, 5e-324, -5e-324, 100.0, -100.0])
        sgn = [1, 1, 1, -1, 1, -1]
        rng = np.random.default_rng(11)
        psi = rng.standard_normal((xi.size, 2)) + 1j * rng.standard_normal((xi.size, 2))
        for sign in (+1, -1):
            want = [(spinor.P_PLUS if sign * g > 0 else spinor.P_MINUS) @ p for g, p in zip(sgn, psi)]
            assert np.array_equal(spinor.pecher_projection(xi, sign, psi), want)

    def test_infinite_frequency_takes_its_sign(self):
        xi = np.array([np.inf, -np.inf])
        projection = {+1: spinor.P_PLUS, -1: spinor.P_MINUS}
        for sign in (+1, -1):
            want = [projection[sign] @ [1, 0], projection[-sign] @ [1, 0]]
            assert np.array_equal(spinor.pecher_projection(xi, sign, [[1, 0], [1, 0]]), want)

    @pytest.mark.parametrize("xi", [np.nan, np.array([1.0, np.nan, -1.0])])
    def test_rejects_nan_frequency(self, xi):
        # NaN has no sign; read as xi >= 0 it would silently pick P-.
        with pytest.raises(ValueError, match="xi"):
            spinor.pecher_projection(xi, +1, [1, 0])

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

    @pytest.mark.parametrize(
        "n",
        [0, -1, 1.5, True, np.True_, pytest.param(2**63, id="2**63"), pytest.param(spinor._MAX_SAMPLES + 1, id="cap+1")],
    )
    def test_verify_identities_rejects_bad_sample_count(self, n):
        with pytest.raises(ValueError, match="n_samples"):
            spinor.verify_identities(n)


class TestStreamedIdentities:
    C = spinor._CHUNK

    # Below, at and above one chunk (up to one chunk the draws are one
    # whole-array draw), and several chunks with a ragged tail.
    @pytest.mark.parametrize("n", [1, 7, C - 1, C, C + 1, 100_003])
    @pytest.mark.parametrize("seed", [0, 2024])
    def test_equals_whole_array_evaluation(self, n, seed):
        assert spinor.verify_identities(n, seed=seed) == whole_array_identities(n, seed)

    @pytest.mark.parametrize("n", [C + 1, 100_003])
    def test_chunks_cover_the_draws(self, monkeypatch, n):
        # Every sample is evaluated once, in order: the chunks passed to the
        # evaluation join into the draws, with one ragged tail.
        seen = []
        evaluate = spinor._chunk_residuals
        monkeypatch.setattr(spinor, "_chunk_residuals", lambda *chunk: seen.append(chunk) or evaluate(*chunk))
        spinor.verify_identities(n, seed=5)
        assert [len(chunk[2]) for chunk in seen] == [self.C] * (n // self.C) + [n % self.C]
        for got, want in zip(zip(*seen), concatenated_draws(n, 5), strict=True):
            assert np.array_equal(np.concatenate(got), want)

    def test_pecher_residual_relative_per_sample(self, monkeypatch):
        # A defect eps in alpha gives (alpha xi) pi psi - |xi| pi psi = eps xi
        # pi psi: 0.5 eps at xi = 1 with psi = (1, 0), relative to max(1, |xi|)
        # of that sample, not of the sample at xi = 100 (psi = 0, no defect).
        eps = 1e-6
        monkeypatch.setattr(spinor, "ALPHA", spinor.ALPHA + eps * spinor.IDENTITY)
        psi = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
        got = spinor._chunk_residuals(psi, psi, np.array([1.0, 100.0]))["pecher_relations"]
        assert got == pytest.approx(0.5 * eps, rel=1e-9)

    def test_memory_is_one_chunk(self):
        # One whole-array evaluation of 10**6 samples would peak near 290 MiB.
        tracemalloc.start()
        try:
            spinor.verify_identities(1_000_000, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
