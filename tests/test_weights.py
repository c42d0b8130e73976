import concurrent.futures
import sys
import threading
import tracemalloc

import numpy as np
import pytest
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


def reference_stats(pts):
    """The six chunk statistics of an (n, 4) array from the three public functions."""
    tau, xi, lam, eta = pts.T
    margin = weights.dominance_margin(tau, xi, lam, eta)
    residual = weights.sign_split_residual(tau, xi, lam, eta)
    scale = np.abs(pts).max(axis=1) + 1.0
    sum_margin = weights.sum_bound_margin(tau, xi, lam, eta)
    return {
        "min_margin": float(margin.min()),
        "max_margin": float(margin.max()),
        "min_relative_margin": float((margin / scale).min()),
        "max_relative_residual": float((residual / scale).max()),
        "min_sum_bound_margin": float(sum_margin.min()),
        "min_relative_sum_bound_margin": float((sum_margin / scale).min()),
    }


def whole_array_sweep(n_samples, seed, box):
    """The sweep as one (n, 4) array: the bulk draw, five corner blocks, then
    the three public functions on the concatenation."""
    rng = np.random.default_rng(seed)
    n_corner = int(n_samples * weights.CORNER_FRACTION)
    samples = [rng.uniform(-box, box, size=(n_samples - 5 * n_corner, 4))]
    for kind in range(5):
        block = rng.uniform(-box, box, size=(n_corner, 4))
        if kind == 0:
            block[:, 0] = block[:, 1]
        elif kind == 1:
            block[:, 0] = -block[:, 1]
        elif kind == 2:
            block[:, 3] = 0.0
        elif kind == 3:
            block[:, 3] = block[:, 1]
        else:
            block[:, 1] = 0.0
        samples.append(block)
    pts = np.concatenate(samples, axis=0)
    return {"samples": int(pts.shape[0]), **reference_stats(pts)}


class TestChunkStats:
    @staticmethod
    def hand_built(magnitude):
        """Rows the uniform sweep never draws: tau = +0.0 and -0.0, tau = +-xi,
        xi = 0 and eta in {0, xi}, each alone and combined, on seeded bases.
        On about one tau = 0 row in ten the two sign-split branches round
        differently, so a kernel that keeps one branch there fails."""
        rows = []
        for tau, xi, lam, eta in np.random.default_rng(7).uniform(-magnitude, magnitude, size=(32, 4)):
            for x in (xi, 0.0):
                for e in (eta, 0.0, x):
                    for t in (tau, 0.0, -0.0, x, -x):
                        rows.append((t, x, lam, e))
        return np.array(rows)

    @pytest.mark.parametrize("magnitude", [1e-3, 1.0, 1e9])
    def test_equals_public_functions(self, magnitude):
        pts = self.hand_built(magnitude)
        cols = pts.T.copy()
        assert weights._chunk_stats(cols) == reference_stats(pts)
        # One column at a time, so that no other column hides a statistic.
        for k in range(pts.shape[0]):
            assert weights._chunk_stats(cols[:, k : k + 1]) == reference_stats(pts[k : k + 1]), pts[k]
        assert np.array_equal(cols, pts.T)


class TestStreamedSweep:
    # Sizes below, at and above one chunk (2**14) and n_corner = 0 (n < 10);
    # where the two halves meet is pinned by test_split_points.
    SPLITS = {9: "one chunk", 163_840: "between manifolds", 250_000: "inside a manifold"}

    @pytest.mark.parametrize("n", [1, 7, 10, 16_383, 16_384, 16_385, 100_003, *SPLITS])
    @pytest.mark.parametrize("seed", [0, 5, 2024])
    @pytest.mark.parametrize("box", [1.0, 1e3, 1e9])
    def test_equals_whole_array_sweep(self, n, seed, box, monkeypatch):
        pools = []

        class SpyPool(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", SpyPool)
        assert weights.sample_margins(n, seed=seed, box=box) == whole_array_sweep(n, seed, box)
        # A sweep of one chunk (n < 10) runs inline; any other opens one pool.
        assert len(pools) == (0 if n < 10 else 1)

    @pytest.mark.parametrize("n", SPLITS)
    def test_split_points(self, n):
        first, second = weights._halves(n)
        if not second:
            where = "one chunk"
        elif first[-1][0] == second[0][0]:
            where = "inside a manifold"
        else:
            where = "between manifolds"
        assert where == self.SPLITS[n]

    @pytest.mark.parametrize("failing", ["caller", "worker"])
    def test_error_in_one_half_stops_the_other(self, failing, monkeypatch):
        """The half that raises sets the shared stop event; the other half,
        held in its first chunk until then, stops at its next one; the error
        reaches the caller and no thread of the call is left running."""
        caller = threading.current_thread()
        sweep, chunk_stats = weights._sweep, weights._chunk_stats
        stops = {}
        calls = {"caller": 0, "worker": 0}

        def spy_sweep(chunks, rng, box, stop):
            stops[threading.current_thread()] = stop
            return sweep(chunks, rng, box, stop)

        def spy_chunk_stats(cols):
            half = "caller" if threading.current_thread() is caller else "worker"
            calls[half] += 1
            if half == failing:
                raise RuntimeError(f"{half} half failed")
            assert stops[threading.current_thread()].wait(timeout=30)
            return chunk_stats(cols)

        monkeypatch.setattr(weights, "_sweep", spy_sweep)
        monkeypatch.setattr(weights, "_chunk_stats", spy_chunk_stats)
        with pytest.raises(RuntimeError, match=f"{failing} half failed"):
            weights.sample_margins(250_000, seed=1)
        (worker,) = set(stops) - {caller}
        worker.join(timeout=30)
        assert not worker.is_alive()
        (stop,) = set(stops.values())
        assert stop.is_set()
        assert calls[failing] == 1
        # Each half has 9 chunks; the worker may find the event set before its first.
        if failing == "worker":
            assert calls["caller"] == 1
        else:
            assert calls["worker"] <= 1

    def test_rapid_thread_switching(self):
        """Twenty sweeps of 7 chunks from four concurrent callers, eight
        sweeping threads on the cores, under a switch interval of 1 us.  Each
        caller is joined with a timeout, so that a hang fails rather than
        stalls.  A lost update, or a generator shared by two halves or two
        calls, would differ from the serial whole-array sweep."""
        seeds = range(20)
        expected = {seed: whole_array_sweep(40_000, seed, 1e3) for seed in seeds}
        got = {}

        def sweep(seeds):
            for seed in seeds:
                got[seed] = weights.sample_margins(40_000, seed=seed)

        callers = [threading.Thread(target=sweep, args=(seeds[k::4],)) for k in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        assert got == expected

    def test_memory_is_one_chunk(self):
        # The whole-array sweep peaks at about 131 MiB for 10**6 samples.
        tracemalloc.start()
        try:
            weights.sample_margins(1_000_000, seed=2024)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    @pytest.mark.parametrize(
        "n",
        [
            0, -1, 1.5, True, np.True_, "10",
            pytest.param(2**63, id="2**63"),
            pytest.param(10**400, id="10**400"),
            pytest.param(weights._MAX_SAMPLES + 1, id="cap+1"),
        ],
    )
    def test_rejects_bad_sample_count(self, n):
        with pytest.raises(ValueError, match="n_samples"):
            weights.sample_margins(n)

    @pytest.mark.parametrize(
        "box", [0.0, -1.0, np.nan, np.inf, 5e307, 1e308, "1", None, True, 1j, pytest.param(10**400, id="10**400")]
    )
    def test_rejects_bad_box(self, box):
        with pytest.raises(ValueError, match="box"):
            weights.sample_margins(100, box=box)
