import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

from dkg1d import counterexamples as cx
from dkg1d import norms, regions
from dkg1d.counterexamples import ExponentTuple
from dkg1d.norms import NormIndex

ZEROS = ExponentTuple()
_HALF = Fraction(1, 2)
# The endpoints of A, B and C as rational pairs (p, q) meaning xi = p L + q,
# that is FAMILIES' columns (P, Q) / 4: the reference of the interval tests.
RATIONAL_ENDPOINTS = {
    "cond1_ab": ((1, -_HALF), (1, _HALF), (1, -1), (1, 1), (0, -_HALF), (0, _HALF)),
    "cond2": ((Fraction(1, 4), 0), (_HALF, 0), (_HALF, 0), (Fraction(3, 2), 0), (-1, 0), (-_HALF, 0)),
    "cond3": ((1, -_HALF), (1, _HALF), (0, -1), (0, 1), (1, -_HALF), (1, _HALF)),
    "cond1_gamma": ((1, -1), (1, 1), (1, -2), (1, 2), (0, -1), (0, 1)),
    "cond4": ((1, -1), (1, 1), (2, -2), (2, 2), (-1, -1), (-1, 1)),
}


def fitted_slope(family, e, L=cx.DEFAULT_L_LADDER):
    """Log-log slope and r^2 of one family's ratio ladder at tuple ``e``."""
    rows = cx.ratio_ladder(family, L, [e])
    return cx.loglog_fit(np.array(L), np.array([row.ratio for row in rows]))


def two_point_slope(family, e, L0=64.0):
    r0, r1 = cx.ratio_ladder(family, [L0, 2 * L0], [e])
    return np.log(r1.ratio / r0.ratio) / np.log(2.0)


def point_pair_counts(u, v):
    """Brute-force pair count: every point pair's offset, binned.

    Returns the distinct offsets p_u - p_v, shape (2, m), in lexicographic
    order and how many pairs give each.  The key (di - lo_i) span +
    (dj - lo_j) is linear in the points, so the keys of all pairs are
    differences of per-point keys.
    """
    lo = u.min(axis=1) - v.max(axis=1)
    span = int(u[1].max() - v[1].min() - lo[1]) + 1
    keys = (u[0] * span + u[1])[:, None] - (v[0] * span + v[1])[None, :]
    counts = np.bincount((keys - (lo[0] * span + lo[1])).ravel())
    nonzero = np.flatnonzero(counts)
    return np.stack([nonzero // span, nonzero % span]) + lo[:, None], counts[nonzero]


def one_scale_counts(A, B, line):
    """The blocks of ``_ladder_counts`` for the one scale with strips over A and B."""
    return cx._ladder_counts([cx._columns(A) + cx._columns(B)], line)


def joined_counts(A, B, line):
    """The blocks of ``one_scale_counts`` joined, zero cells dropped: the
    offsets (di, dj), shape (2, m), in lexicographic order, and their counts."""
    offsets, counts = [], []
    for di, dj, n, _ in one_scale_counts(A, B, line):
        di, dj = np.broadcast_arrays(di, dj)
        nonzero = n > 0
        offsets.append(np.stack([di[nonzero], dj[nonzero]]))
        counts.append(n[nonzero])
    return np.concatenate(offsets, axis=1), np.concatenate(counts)


def strip_tau_xi(interval, line):
    i, j = cx.strip_points(interval, line)
    return i * cx.DTAU, j * cx.DXI


def dense_ratio(family, L, e):
    """Numerator and denominators of one ratio row, on a dense grid via FFTs.

    The strips are scattered onto a Grid2D with the lattice spacings, large
    enough that u, v and the product transform fit without periodic wrap.
    """
    A, B, _ = cx.FAMILIES[family].intervals(L)
    u = cx.strip_points(A, "plus")
    v = cx.strip_points(B, cx.FAMILIES[family].v_line)
    offsets = u[:, :, None] - v[:, None, :]
    half = [
        int(max(np.abs(u[k]).max(), np.abs(v[k]).max(), np.abs(offsets[k]).max())) + 1
        for k in (0, 1)
    ]
    grid = norms.Grid2D(2 * half[0], 2 * half[1], 2 * np.pi / cx.DTAU, 2 * np.pi / cx.DXI)
    hats = []
    for points in (u, v):
        values = np.zeros((grid.n_t, grid.n_x), complex)
        values[points[0] + half[0], points[1] + half[1]] = 1.0
        hats.append(norms.GridFunction2D(grid, values, "fourier"))
    u_hat, v_hat = hats
    assert grid.tau[u[0, 0] + half[0]] == u[0, 0] * cx.DTAU
    assert grid.xi[u[1, 0] + half[1]] == u[1, 0] * cx.DXI
    num = norms.product_norm(
        norms.inverse_transform(u_hat),
        norms.inverse_transform(v_hat),
        NormIndex(-e.c, -e.gamma, "H"),
    )
    du = norms.weighted_norm(u_hat, NormIndex(e.a, e.alpha, "X_plus"))
    dv = norms.weighted_norm(v_hat, NormIndex(e.b, e.beta, "X_minus"))
    return num, du, dv


class TestIntervals:
    def test_cond2_at_64(self):
        A, B, C = cx.FAMILIES["cond2"].intervals(64.0)
        assert A == (16.0, 32.0)
        assert B == (32.0, 96.0)
        assert C == (-64.0, -32.0)

    def test_cond3_at_64(self):
        A, B, C = cx.FAMILIES["cond3"].intervals(64.0)
        assert A == (63.5, 64.5)
        assert C == (63.5, 64.5)
        assert B == (-1.0, 1.0)

    @pytest.mark.parametrize("family", sorted(cx.FAMILIES))
    @pytest.mark.parametrize("L", [33.0, 64.0, 100.0, 512.0])
    def test_abc_closure_exact(self, family, L):
        # Interval arithmetic: eta in A and xi in C put eta - xi in
        # [lo(A) - hi(C), hi(A) - lo(C)], which must lie inside B.
        A, B, C = cx.FAMILIES[family].intervals(L)
        assert B[0] <= A[0] - C[1] and A[1] - C[0] <= B[1]

    @pytest.mark.parametrize("family", sorted(cx.FAMILIES))
    def test_abc_closure_every_scale(self, family):
        # The endpoints p L + q make both closure margins affine in L, so a
        # nonnegative slope and a nonnegative value at L = 4, exact in
        # Fraction, hold them for every L > 4.
        def margins(L):
            A, B, C = cx.FAMILIES[family].intervals(Fraction(L))
            return A[0] - C[1] - B[0], B[1] - A[1] + C[0]

        for at_4, at_5 in zip(margins(4), margins(5)):
            assert isinstance(at_4, Fraction) and isinstance(at_5, Fraction)
            assert at_4 >= 0 and at_5 - at_4 >= 0

    @pytest.mark.parametrize("family", sorted(cx.FAMILIES))
    def test_exact_at_a_rational_scale(self, family):
        # L = 129/2 and its endpoints are exact in float64: both paths agree.
        exact = cx.FAMILIES[family].intervals(Fraction(129, 2))
        assert all(isinstance(end, Fraction) for interval in exact for end in interval)
        assert exact == cx.FAMILIES[family].intervals(64.5)

    @pytest.mark.parametrize("family", sorted(cx.FAMILIES))
    def test_float_scale_has_the_bits_of_exact_endpoints(self, family):
        # A float L takes the bits of the rational endpoints in Fraction
        # arithmetic, which on a float falls back to float(p) L + float(q).
        rng = np.random.default_rng(17)
        for L in np.exp(rng.uniform(math.log(4), 48 * math.log(2), 200)):
            for scale in (float(L), np.float64(L)):
                got = [end for interval in cx.FAMILIES[family].intervals(scale) for end in interval]
                want = [p * scale + q for p, q in RATIONAL_ENDPOINTS[family]]
                assert list(map(float.hex, got)) == list(map(float.hex, want)), scale

    @pytest.mark.parametrize("family", sorted(cx.FAMILIES))
    def test_int_and_fraction_scales_stay_exact(self, family):
        # 2^60 + 1 is not a float: only exact arithmetic gets its endpoints.
        for L in (97, Fraction(129, 2), 2**60 + 1):
            got = [end for interval in cx.FAMILIES[family].intervals(L) for end in interval]
            assert not any(isinstance(end, float) for end in got), L
            assert got == [Fraction(p) * L + q for p, q in RATIONAL_ENDPOINTS[family]]

    @pytest.mark.parametrize("family", sorted(cx.FAMILIES))
    def test_abc_closure_sampled(self, family):
        A, B, C = cx.FAMILIES[family].intervals(96.0)
        rng = np.random.default_rng(0)
        eta = rng.uniform(A[0], A[1], 10_000)
        xi = rng.uniform(C[0], C[1], 10_000)
        diff = eta - xi
        assert np.all((diff >= B[0]) & (diff <= B[1]))


class TestBuildFamily:
    """Lattice points of the strips, and the family checks of ``ratio_ladder``."""

    def test_supports_lie_on_strips(self):
        A, B, _ = cx.FAMILIES["cond2"].intervals(64.0)
        tau, xi = strip_tau_xi(A, "plus")
        assert np.all(np.abs(tau + xi) <= 0.5)
        assert np.all((xi >= 16.0) & (xi <= 32.0))
        assert xi.min() == 16.0 and xi.max() == 32.0
        tau, xi = strip_tau_xi(B, cx.FAMILIES["cond2"].v_line)
        assert np.all(np.abs(tau + xi) <= 0.5)
        assert np.all((xi >= 32.0) & (xi <= 96.0))
        assert xi.min() == 32.0 and xi.max() == 96.0

    def test_minus_line_strip(self):
        _, B, _ = cx.FAMILIES["cond1_gamma"].intervals(64.0)
        tau, xi = strip_tau_xi(B, cx.FAMILIES["cond1_gamma"].v_line)
        assert np.all(np.abs(tau - xi) <= 0.5)
        assert np.all((xi >= 62.0) & (xi <= 66.0))
        # Every lattice point of the window is caught, and none twice.
        taus = np.arange(-4, 200) * cx.DTAU
        xis = np.arange(62 * 4, 66 * 4 + 1) * cx.DXI
        TAU, XI = np.meshgrid(taus, xis, indexing="ij")
        expected = {(t, x) for t, x in zip(TAU.ravel(), XI.ravel()) if abs(t - x) <= 0.5}
        got = list(zip(tau, xi))
        assert len(got) == len(set(got)) and set(got) == expected

    def test_strip_column_counts_uniform(self):
        # dtau = 1/2 across a thickness-1 window gives 2 or 3 points per
        # column in a fixed alternating pattern, identically at every L.
        for L in (64.0, 128.0):
            A, _, _ = cx.FAMILIES["cond1_ab"].intervals(L)
            i, j = cx.strip_points(A, "plus")
            columns, counts = np.unique(j, return_counts=True)
            assert list(counts) == [3, 2, 3, 2, 3]
            assert np.all(counts[columns % 2 == 0] == 3)
            assert counts.sum() == 13

    def test_rejects_tiny_scale(self):
        with pytest.raises(ValueError, match="exceed 4"):
            cx.ratio_ladder("cond1_ab", [64.0, 2.0], [ZEROS])

    @pytest.mark.parametrize("L", [np.inf, np.nan, 4.0, "64"])
    def test_rejects_non_finite_or_small_scale(self, L):
        with pytest.raises(ValueError, match="finite and exceed 4"):
            cx.ratio_ladder("cond2", [64.0, L], [ZEROS])

    # The four families with O(1) strip columns; cond2's arrays grow like L.
    @pytest.mark.parametrize("family", ["cond1_ab", "cond3", "cond1_gamma", "cond4"])
    def test_largest_scale_exact(self, family):
        # At zero exponents these rows do not depend on L, so the largest
        # accepted scale must reproduce the row at L = 64.
        small, large = cx.ratio_ladder(family, [64.0, 2.0**48], [ZEROS])
        sizes = lambda row: (row.points_u, row.points_v, row.offsets, row.pairs)
        assert sizes(large) == sizes(small)
        assert large.ratio == pytest.approx(small.ratio, rel=1e-12)

    @pytest.mark.parametrize("family", ["cond1_ab", "cond3", "cond1_gamma", "cond4"])
    @pytest.mark.parametrize("L", [np.nextafter(2.0**48, np.inf), 2.0**52, 2.0**60, 1e20, 1e30])
    def test_rejects_scale_beyond_exact_range(self, family, L):
        # Above 2^48 the lattice columns lose exactness, then overflow int64.
        with pytest.raises(ValueError, match=r"at most 2\^48"):
            cx.ratio_ladder(family, [64.0, L], [ZEROS])

    def test_cond2_budget_refuses_a_fraction_scale(self):
        # The message prints L as a float: format "g" of a Fraction raised
        # TypeError before Python 3.12.
        with pytest.raises(ValueError, match=r"at L = 1\.40737e\+14 would count"):
            cx.check_scales("cond2", [Fraction(2**62 + 1, 2**15)])

    def test_cond2_scale_budget(self):
        # cond2's offset grid has about 22.5 L cells.  The ladder streams it,
        # so the cap of 2^26 cells bounds time (a few seconds), not memory;
        # a scale past it is refused before any array is made.
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"more than 2\^26 offset cells; .* time"):
                cx.ratio_ladder("cond2", [64.0, 2.0**30], [ZEROS])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert cx.check_scales("cond2", cx.DEFAULT_L_LADDER) == list(cx.DEFAULT_L_LADDER)
        assert cx.check_scales("cond2", [2.98e6]) == [2.98e6]
        with pytest.raises(ValueError, match="offset cells"):
            cx.check_scales("cond2", [2.99e6])
        # Inside the budget the rows are those counted before it existed.
        (row,) = cx.ratio_ladder("cond2", [2.0**17], [ZEROS])
        assert (row.points_u, row.points_v, row.offsets, row.pairs) == (327683, 1310723, 2949125, 429501644809)
        want = [float.fromhex(x) for x in ("0x1.43cc5d8cd5398p+18", "0x1.94c5fd1c07cbfp+7", "0x1.94c5a20941a52p+8")]
        assert [row.numerator, row.denom_u, row.denom_v] == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, "1", True])
    @pytest.mark.parametrize("slot", range(6))
    def test_rejects_non_finite_exponents(self, bad, slot):
        e = [0.0] * 6
        e[slot] = bad
        with pytest.raises(ValueError, match="finite"):
            cx.ratio_ladder("cond2", [64.0, 128.0], [ZEROS, ExponentTuple(*e)])
        # The same check keeps a string out of delta's sum, and a NaN margin,
        # which would still carry a verdict, out of the necessary conditions.
        with pytest.raises(ValueError, match="finite"):
            cx.predicted_delta("cond1_ab", e)
        with pytest.raises(ValueError, match="finite"):
            regions.bilinear_necessary_conditions(e)

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown family"):
            cx.ratio_ladder("cond5", [64.0], [ZEROS])
        with pytest.raises(ValueError, match="unknown family 'cond5'"):
            cx.predicted_delta("cond5", ZEROS)

    @pytest.mark.parametrize("e", [(), (1.0, 0.5), (0.0,) * 5, (0.0,) * 7])
    def test_rejects_tuples_not_of_six(self, e):
        # A short tuple is not padded with zeros, nor is a long one cut.
        with pytest.raises(ValueError, match=f"six numbers .*, not {len(e)}"):
            cx.ratio_ladder("cond3", [64.0, 128.0], [ZEROS, e])
        with pytest.raises(ValueError, match=f"six numbers .*, not {len(e)}"):
            cx.predicted_delta("cond3", e)


class TestPairCounts:
    """The closed-form counts of ``_ladder_counts`` against every point pair."""

    @pytest.mark.parametrize(
        "family, L",
        [(f, L) for f in sorted(cx.FAMILIES) for L in (32.0, 33.0, 64.0, 100.0, 256.0)]
        + [("cond2", 512.0)],
    )
    def test_matches_point_pairs(self, family, L):
        A, B, _ = cx.FAMILIES[family].intervals(L)
        line = cx.FAMILIES[family].v_line
        want_offsets, want_counts = point_pair_counts(
            cx.strip_points(A, "plus"), cx.strip_points(B, line)
        )
        offsets, counts = joined_counts(A, B, line)
        assert np.array_equal(offsets, want_offsets)
        assert np.array_equal(counts, want_counts)

    def test_ladder_memory_is_linear(self):
        # Forming every point pair of cond2 at L = 512 peaked at 125.5 MiB.
        tracemalloc.start()
        try:
            cx.ratio_ladder("cond2", [512.0], [ZEROS])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_long_ladder(self):
        L = 2.0 ** np.arange(6, 15)
        rows = cx.ratio_ladder("cond2", L, [ZEROS, ExponentTuple(0.5, 0, 0, 0, 0.5, 0)])
        assert len(rows) == 2 * L.size
        assert all(np.isfinite([r.numerator, r.denom_u, r.denom_v, r.ratio]).all() for r in rows)
        assert all(r.ratio > 0 for r in rows)

    def test_rows_report_offsets_and_pairs(self):
        for family, spec in cx.FAMILIES.items():
            A, B, _ = spec.intervals(100.0)
            offsets, counts = joined_counts(A, B, spec.v_line)
            (row,) = cx.ratio_ladder(family, [100.0], [ZEROS])
            assert row.offsets == offsets.shape[1]
            assert row.pairs == counts.sum()
            assert row.points_u == cx.strip_points(A, "plus").shape[1]
            assert row.points_v == cx.strip_points(B, spec.v_line).shape[1]
            assert row.pairs == row.points_u * row.points_v

    @pytest.mark.parametrize("family", sorted(cx.FAMILIES))
    def test_ladder_columns_are_exact(self, family):
        # The ladder's columns are the exact ceil and floor of 4 x the interval
        # ends.  At 100 + 2^-60 and (2^62 + 1) / 2^15 an end just above a
        # column loses its excess when divided by DXI in floats, and the strip
        # gains that column; cond2's strips at the largest L exceed its work cap.
        spec = cx.FAMILIES[family]
        scales = [100.3, np.float64(100.3), 97, Fraction(129, 2), 100 + Fraction(1, 2**60)]
        for L in scales + ([] if family == "cond2" else [Fraction(2**62 + 1, 2**15)]):
            A, B, _ = spec.intervals(L)
            (columns,) = cx._checked_columns(family, [L])[2]
            ends = [4 * Fraction(end) for end in A + B]
            assert columns == (math.ceil(ends[0]), math.floor(ends[1]), math.ceil(ends[2]), math.floor(ends[3])), L
            (row,) = cx.ratio_ladder(family, [L], [ZEROS])
            assert row.points_u == cx.strip_points(A, "plus").shape[1], L
            assert row.points_v == cx.strip_points(B, spec.v_line).shape[1], L


THREE = [ZEROS, ExponentTuple(0.5, 0, 0, 0, 0.5, 0), ExponentTuple(0, 0, 1, 1, 1, -0.5)]


def row_values(rows):
    return [(r.numerator, r.denom_u, r.denom_v) for r in rows], [
        (r.points_u, r.points_v, r.offsets, r.pairs) for r in rows
    ]


class TestStreamedLadder:
    """``ratio_ladder`` adds per-block sums; the blocks must change nothing but roundoff."""

    def test_rows_match_one_block(self, monkeypatch):
        # With one block per norm the sums are the whole-array sums.  Up to
        # L = 256 the default blocks are one block too, and bit-equal.
        assert cx.DEFAULT_L_LADDER[:3] == (64.0, 128.0, 256.0)
        rng = np.random.default_rng(1)
        tuples = THREE + [ExponentTuple(*rng.uniform(-2, 2, 6)) for _ in range(3)]
        for family in cx.FAMILIES:
            got, got_sizes = row_values(cx.ratio_ladder(family, cx.DEFAULT_L_LADDER, tuples))
            with monkeypatch.context() as m:
                m.setattr(cx, "_BLOCK", 2**62)
                want, want_sizes = row_values(cx.ratio_ladder(family, cx.DEFAULT_L_LADDER, tuples))
            assert got_sizes == want_sizes
            assert_allclose(got, want, rtol=1e-13, atol=0, err_msg=family)
            assert got[: 3 * len(tuples)] == want[: 3 * len(tuples)]

    def test_rows_match_unstreamed_at_2_17(self):
        # Rows of the whole-array ladder, which peaked at 318 MiB here.
        want = [
            ("0x1.43cc5d8cd5398p+18", "0x1.94c5fd1c07cbfp+7", "0x1.94c5a20941a52p+8"),
            ("0x1.43cc5d8cd5398p+18", "0x1.5e8c2ffee448bp+15", "0x1.94c5d4a1f2bccp+17"),
            ("0x1.ff927337265a5p+2", "0x1.09d031994b01fp+8", "0x1.a54d36bda3558p+26"),
        ]
        got, sizes = row_values(cx.ratio_ladder("cond2", [2.0**17], THREE))
        assert sizes == [(327683, 1310723, 2949125, 429501644809)] * 3
        assert_allclose(got, [[float.fromhex(x) for x in row] for row in want], rtol=1e-13, atol=0)

    # 24 packs two 11-row scales of cond1_ab and cond3 into one block; 1000
    # packs every small family's ladder into one and splits cond2 at L = 512
    # midway, its rows and its v columns both.
    @pytest.mark.parametrize("block", [1, 7, 24, 1000])
    def test_small_blocks(self, monkeypatch, block):
        L_values = [33.0, 100.0, 512.0]
        want = {}
        for family, spec in cx.FAMILIES.items():
            for L in L_values:
                A, B, _ = spec.intervals(L)
                want[family, L] = joined_counts(A, B, spec.v_line)
            want[family] = row_values(cx.ratio_ladder(family, L_values, THREE))
        monkeypatch.setattr(cx, "_BLOCK", block)
        for family, spec in cx.FAMILIES.items():
            for L in L_values:
                A, B, _ = spec.intervals(L)
                assert all(di.size <= block for di, *_ in one_scale_counts(A, B, spec.v_line))
                offsets, counts = joined_counts(A, B, spec.v_line)
                assert np.array_equal(offsets, want[family, L][0])
                assert np.array_equal(counts, want[family, L][1])
            got, got_sizes = row_values(cx.ratio_ladder(family, L_values, THREE))
            assert got_sizes == want[family][1]
            assert_allclose(got, want[family][0], rtol=1e-13, atol=0, err_msg=family)

    def test_blocks_span_scales(self, monkeypatch):
        # Blocks are consecutive cuts of the ladder's rows: a scale that does
        # not fit the room left is split at the block's end.
        monkeypatch.setattr(cx, "_BLOCK", 24)
        blocks = [(rows.tolist(), segments) for rows, segments in cx._blocks([0, 100, -5], [11, 11, 11])]
        assert blocks == [
            ([*range(11), *range(100, 111), -5, -4], [(0, 0, 11), (1, 11, 22), (2, 22, 24)]),
            ([*range(-3, 6)], [(2, 0, 9)]),
        ]
        monkeypatch.setattr(cx, "_BLOCK", 1000)
        blocks = [(rows.tolist(), segments) for rows, segments in cx._blocks([0, 0, 0], [87, 255, 1285])]
        assert blocks == [
            ([*range(87), *range(255), *range(658)], [(0, 0, 87), (1, 87, 342), (2, 342, 1000)]),
            ([*range(658, 1285)], [(2, 0, 627)]),
        ]

    @pytest.mark.parametrize("L_values", [(32.0, 64.0, 128.0, 256.0), cx.DEFAULT_L_LADDER])
    def test_rows_match_one_scale_ladders(self, L_values):
        # Scales share blocks; each row must be the row of its scale alone.
        for family in cx.FAMILIES:
            got, got_sizes = row_values(cx.ratio_ladder(family, L_values, THREE))
            want, want_sizes = row_values(
                [row for L in L_values for row in cx.ratio_ladder(family, [L], THREE)]
            )
            assert got_sizes == want_sizes
            assert_allclose(got, want, rtol=1e-13, atol=0, err_msg=family)

    def test_float_list_and_float64_array_give_equal_rows(self):
        # A list of floats and an np.float64 array of the same ladder take the
        # same float endpoints, so every row is equal field for field.
        L_values = [33.0, 64.5, 100.3, 256.0]
        for family in cx.FAMILIES:
            from_list = cx.ratio_ladder(family, L_values, THREE)
            from_array = cx.ratio_ladder(family, np.array(L_values), THREE)
            assert from_list == from_array, family

    def test_cond2_memory_does_not_grow(self):
        # The whole-array ladder peaked at 451 MiB here.
        tracemalloc.start()
        try:
            cx.ratio_ladder("cond2", [1.86e5], THREE)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20


class TestRatio:
    def test_cond2_growth_rate(self):
        assert two_point_slope("cond2", ZEROS) == pytest.approx(0.5, abs=0.15)

    def test_cond3_flat(self):
        assert two_point_slope("cond3", ZEROS) == pytest.approx(0.0, abs=0.15)

    def test_cond1_ab_decay(self):
        slope = two_point_slope("cond1_ab", ExponentTuple(1, 0, 0, 1, 1, 1))
        assert slope == pytest.approx(-2.0, abs=0.15)

    def test_ladder_matches_single_shot(self):
        # Each ladder row against a dense grid built here from norms
        # primitives: scattered indicators, inverse transforms, the product
        # norm and the weighted norms.
        tuples = [ZEROS, ExponentTuple(0.5, 0, 0, 0, 0.5, 0), ExponentTuple(0, 0, 1, 1, 1, -0.5)]
        rng = np.random.default_rng(0)
        tuples += [ExponentTuple(*rng.uniform(-1, 1, 6)) for _ in range(2)]
        for family in cx.FAMILIES:
            for row in cx.ratio_ladder(family, [32.0, 64.0], tuples):
                dense = dense_ratio(family, row.L, row.exponents)
                got = (row.numerator, row.denom_u, row.denom_v)
                assert_allclose(got, dense, rtol=1e-12, err_msg=f"{family} L={row.L}")

    def test_norm_scaling_slopes(self):
        # ||u|| ~ L^a |A|^(1/2) and ||v|| ~ L^(b+beta) |B|^(1/2); for cond2
        # both interval lengths are ~ L, so the log-slopes gain 1/2.
        e = ExponentTuple(a=1.0, b=0.5, beta=0.25)
        r0, r1 = cx.ratio_ladder("cond2", [64.0, 128.0], [e])
        slope_u = np.log(r1.denom_u / r0.denom_u) / np.log(2.0)
        slope_v = np.log(r1.denom_v / r0.denom_v) / np.log(2.0)
        assert slope_u == pytest.approx(e.a + 0.5, abs=0.15)
        assert slope_v == pytest.approx(e.b + e.beta + 0.5, abs=0.15)


class TestFitExponent:
    def test_fit_on_reduced_ladder(self):
        slope, r_squared = fitted_slope("cond3", ExponentTuple(1, 0, 1, 0, 0, 0), [32, 64, 128, 256])
        assert slope == pytest.approx(-2.0, abs=0.15)
        assert r_squared > 0.999

    def test_unit_box_slopes_within_tolerance(self):
        # The ratio_ladder docstring's promise: entries in [-1, 1] keep every
        # family's slope within 0.15 of -delta on the default ladder.  The
        # corners of the box hold the worst case found (cond2, all ones).
        # The X+ x X- -> L2 embedding tuples (0, 0, 0, alpha, alpha, 0) ride
        # along: cond2's delta = alpha - 1/2 puts their threshold at 1/2.
        corners = itertools.product((-1.0, 1.0), repeat=6)
        seeded = np.random.default_rng(2024).uniform(-1, 1, (120, 6))
        embedding = [ExponentTuple(alpha=a, beta=a) for a in (0.4, 0.5, 0.6)]
        tuples = [ExponentTuple(*e) for e in (*corners, *seeded, *embedding)]
        L = np.array(cx.DEFAULT_L_LADDER)
        for family in cx.FAMILIES:
            rows = cx.ratio_ladder(family, L, tuples)
            for k, e in enumerate(tuples):
                ratios = np.array([row.ratio for row in rows[k :: len(tuples)]])
                slope, _ = cx.loglog_fit(L, ratios)
                assert abs(slope + cx.predicted_delta(family, e)) <= 0.15, (family, e, slope)
        grows, decays = (fitted_slope("cond2", e)[0] for e in (embedding[0], embedding[2]))
        assert grows > 0 > decays

    @pytest.mark.parametrize(
        "L, ratios",
        [
            ([64.0, 128.0], [1.0, np.nan]),
            ([64.0, 128.0], [1.0, 0.0]),
            ([64.0, 128.0], [-1.0, 2.0]),
            ([64.0, np.inf], [1.0, 2.0]),
            ([0.0, 128.0], [1.0, 2.0]),
            ([64.0, 64.0], [1.0, 2.0]),
            ([64.0], [1.0]),
            ([], []),
            ([64.0, 128.0, 256.0], [1.0, 2.0]),
            ([[64.0, 128.0], [64.0, 128.0]], [[1.0, 2.0], [1.0, 2.0]]),
            (64.0, 1.0),
        ],
    )
    def test_loglog_fit_rejects_bad_input(self, L, ratios):
        with pytest.raises(ValueError, match="log-log fit"):
            cx.loglog_fit(np.array(L), np.array(ratios))

    def test_loglog_fit_matches_polyfit(self):
        # The closed form against numpy's least-squares line through the same
        # logs: the (family, tuple) ladders of acceptance criteria 4 and 6,
        # then seeded tuples on every family.
        ladders = {
            "cond1_ab": [(1, 0, 0, 1, 1, 1)],
            "cond2": [(0.5, 0, 0, 0, 0.5, 0), (0, 0, 0, 0.6, 0, 0.6)],
            "cond3": [(1, 0, 1, 0, 0, 0), (-0.5, 0.5, 0, 0.5, 0.5, 0.5)],
            "cond1_gamma": [(0.5, 0.5, 0, 1, 1, 0), (0, 0, 1, 1, 1, -0.5)],
            "cond4": [(0.5, 0.5, -0.5, 0, 0, 0.5), (1, 1, -1, 1, 1, -1.5)],
        }
        seeded = np.random.default_rng(11).uniform(-2, 2, (20, 6))
        L = np.array(cx.DEFAULT_L_LADDER)
        x = np.log(L)
        for family, tuples in ladders.items():
            tuples = [ExponentTuple(*e) for e in (ZEROS, *tuples, *seeded)]
            rows = cx.ratio_ladder(family, L, tuples)
            for k, e in enumerate(tuples):
                ratios = np.array([row.ratio for row in rows[k :: len(tuples)]])
                y = np.log(ratios)
                ref_slope, intercept = np.polyfit(x, y, 1)
                ss_res = np.sum((y - (ref_slope * x + intercept)) ** 2)
                ss_tot = np.sum((y - y.mean()) ** 2)
                ref_r_squared = 1.0 if ss_tot < 1e-18 else 1 - ss_res / ss_tot
                slope, r_squared = cx.loglog_fit(L, ratios)
                assert slope == pytest.approx(ref_slope, abs=1e-12), (family, e)
                assert r_squared == pytest.approx(ref_r_squared, abs=1e-12), (family, e)

    def test_loglog_fit_constant_ladder(self):
        assert cx.loglog_fit(np.array(cx.DEFAULT_L_LADDER), np.full(4, 0.3)) == (0.0, 1.0)

    def test_loglog_fit_roundoff_ladder_explains_all(self):
        # Ratios constant to roundoff (syy = 1e-24) read r^2 = 1; taken at face
        # value, their zigzag against log L would give r^2 = 0.2.
        ratios = 1 + 1e-12 * np.array([0.0, 1.0, 0.0, 1.0])
        assert cx.loglog_fit(2.0 ** np.arange(5, 9), ratios)[1] == 1.0

    def test_predicted_delta_formulas(self):
        e = ExponentTuple(0.1, 0.2, 0.3, 0.4, 0.5, 0.6)
        assert cx.predicted_delta("cond1_ab", e) == pytest.approx(0.8)
        assert cx.predicted_delta("cond2", e) == pytest.approx(0.6)
        assert cx.predicted_delta("cond3", e) == pytest.approx(0.4)
        assert cx.predicted_delta("cond1_gamma", e) == pytest.approx(0.9)
        assert cx.predicted_delta("cond4", e) == pytest.approx(1.2)
        exact = {f: cx.predicted_delta(f, [Fraction(k, 10) for k in range(1, 7)]) for f in cx.FAMILIES}
        assert exact == {
            "cond1_ab": Fraction(4, 5),
            "cond2": Fraction(3, 5),
            "cond3": Fraction(2, 5),
            "cond1_gamma": Fraction(9, 10),
            "cond4": Fraction(6, 5),
        }
        assert all(isinstance(delta, Fraction) for delta in exact.values())
        assert cx.predicted_delta("cond3", (1, 0, 1, 0, 0, 0)) == 2
        # No zero is added to a sum, so -0.0 keeps its sign.
        for family in cx.FAMILIES:
            delta = cx.predicted_delta(family, (-0.0,) * 6)
            assert delta == (-0.5 if family == "cond2" else 0.0)
            assert math.copysign(1.0, delta) == -1.0


def gaussian_spectrum(grid, width=1.0, shift=0.0):
    # Spatial transform of exp(-(x - shift)^2 / (2 width^2)).
    return (
        width
        * np.sqrt(2 * np.pi)
        * np.exp(-(grid.xi**2) * width**2 / 2)
        * np.exp(-1j * shift * grid.xi)
    )


class TestWaveProductConstant:
    """The transversal free-wave product ratio.

    Direct quadrature oracle (frozen): for f = g = exp(-x^2/2),
    ||u v||^2 = integral exp(-2(x^2+t^2)) = pi/2 and ||f||^2 ||g||^2 = pi,
    so the ratio is exactly 1/sqrt(2) = 0.7071067811865476 -- the change of
    variables (x-t, x+t) with Jacobian 1/2 makes this an identity for every
    profile pair, and sqrt(2) is only an upper bound, off by a factor 2.
    """

    def test_gaussian_ratio(self):
        g = cx.default_wave_grid(512)
        f_hat = gaussian_spectrum(g)
        assert cx.wave_product_constant(f_hat, f_hat, g) == pytest.approx(
            0.7071067811865476, abs=1e-9
        )

    def test_shifted_profile_invariance(self):
        g = cx.default_wave_grid(512)
        f_hat = gaussian_spectrum(g)
        g_hat = gaussian_spectrum(g, width=1.5, shift=2.5)
        assert cx.wave_product_constant(f_hat, g_hat, g) == pytest.approx(
            0.7071067811865476, abs=1e-9
        )

    def test_rescaling_invariance_exact(self):
        g = cx.default_wave_grid(256)
        f_hat = gaussian_spectrum(g)
        base = cx.wave_product_constant(f_hat, f_hat, g)
        assert cx.wave_product_constant(2.0 * f_hat, f_hat, g) == base
        assert cx.wave_product_constant(f_hat, 0.5 * f_hat, g) == base

    def test_zero_profile_rejected(self):
        g = cx.default_wave_grid(256)
        f_hat = gaussian_spectrum(g)
        with pytest.raises(ValueError, match="zero profile"):
            cx.wave_product_constant(0.0 * f_hat, f_hat, g)
        for bad in (np.nan, np.inf):
            broken = f_hat.copy()
            broken[3] = bad
            with pytest.raises(ValueError, match="spectra must be finite"):
                cx.wave_product_constant(broken, f_hat, g)
            with pytest.raises(ValueError, match="spectra must be finite"):
                cx.wave_product_constant(f_hat, broken, g)

    def test_non_decaying_profile_rejected(self):
        g = cx.default_wave_grid(256)
        single_mode = np.zeros(g.n_x, dtype=complex)
        single_mode[g.n_x // 2] = 1.0  # constant profile in x
        with pytest.raises(ValueError, match="decay"):
            cx.wave_product_constant(single_mode, single_mode, g)

    @pytest.mark.parametrize(
        "shapes",
        [pytest.param(((255,), (256,)), id="short-f"), pytest.param(((256,), (2, 256)), id="2d-g")],
    )
    def test_wrong_spectrum_shape_rejected(self, shapes):
        g = cx.default_wave_grid(256)
        f_hat, g_hat = (np.ones(shape, complex) for shape in shapes)
        with pytest.raises(ValueError) as err:
            cx.wave_product_constant(f_hat, g_hat, g)
        assert str(err.value) == "spatial spectra must be 1d arrays on the grid's xi axis"

    def test_wide_time_box_rejected(self):
        # The guard's slack scales with the box: a tiny box that holds two crossings is refused too.
        for g in (norms.Grid2D(256, 256, 32.0, 32.0), norms.Grid2D(64, 64, 1e-13, 1e-13)):
            f_hat = gaussian_spectrum(g)
            with pytest.raises(ValueError, match="transversal crossing"):
                cx.wave_product_constant(f_hat, f_hat, g)

