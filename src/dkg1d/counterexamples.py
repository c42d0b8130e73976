"""Explicit frequency-strip constructions that bound bilinear product estimates.

Each family builds a pair (u, v) on the Fourier side as indicators of
thickness-1 strips along characteristic lines,

    Fu(lam, eta) = 1[|lam + eta| <= 1/2] 1[eta in A],
    Fv(mu,  zeta) = 1[|mu +- zeta| <= 1/2] 1[zeta in B],

with intervals A, B, C depending on a large scale parameter L and chosen so
that eta in A, xi in C implies eta - xi in B.  The measured quantity is

    ratio = ||u conj(v)||_{H^{-c,-gamma}} /
            (||u||_{X+^{a,alpha}} ||v||_{X-^{b,beta}}),

which for these constructions scales like L^(-delta) with a per-family
exponent delta(a, b, c, alpha, beta, gamma) that is linear in the inputs.
A negative delta therefore certifies unboundedness of the corresponding
product estimate; nonnegativity of delta over all families, on the tuple
and on its mirror (b, a, c, beta, alpha, gamma), yields the necessary
conditions checked in ``regions.bilinear_necessary_conditions``.  Each
family is one row of exact rational data in ``FAMILIES``.

The strips are sampled on the fixed frequency lattice tau = i/2, xi = j/4,
the same at every L, so the strip discretization cancels out of fitted
log-log slopes.  On that lattice the strip condition |tau +- xi| <= 1/2 is
the integer test |2i +- j| <= 2, and since Fu and Fv are 0/1 indicators the
product transform is exactly a pair count,

    F(u conj v)(k) = (2 pi)^{-2} cell #{p in S_u : p - k in S_v},

with cell = dtau dxi (``norms.indicator_product``).  The pairs are counted
without forming them (``_ladder_counts``).  Write a strip point as (j, s),
with s = 2i +- j one of -2, 0, 2 for even j and -1, 1 for odd j.  Then an
offset has 2 di = D - j_u +- j_v and dj = j_u - j_v, where D = s_u - s_v
lies in [-4, 4] and a fixed table gives how many position pairs fall on
each D.  When v's strip is on the plus line the offset depends on the
columns only through dj, so each count is a closed-form count of columns
and the work is O(L), one step per distinct offset (about 22.5 L of them
for cond2, against about 25 L^2 point pairs); minus-line strips have
O(1) columns at every L.  Every ratio therefore follows from column
ranges and the strips' lattice points, with no grid, no FFT and no
periodic wrap to guard against.  A ladder streams all of its scales through
one sequence of blocks: the di rows (L, di) of every scale's offset grid,
and the columns (L, j) of every scale's strips, are taken in ladder order
and cut into consecutive blocks of ``_BLOCK``, and each norm adds, per
scale, the sum of squares over that scale's stretch of a block.  So a short
ladder costs one pass per norm, not one per L, and memory stays
O(block x tuples) at every L.

The X+ x X- -> L2 embedding is the tuple (0, 0, 0, alpha, alpha, 0), where
cond2's delta = alpha - 1/2 shows it fails below alpha = 1/2.  Also here:
the exact transversal free-wave product identity (``wave_product_constant``).
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, NamedTuple

import numpy as np

from ._checks import finite_real
from .norms import Grid2D, NormIndex, indicator_product, spatial_inverse, weight

Interval = tuple[float, float]

# Frequency lattice spacings of the strips; the strips have thickness 1.
DTAU = 0.5
DXI = 0.25
CELL = DTAU * DXI
DEFAULT_L_LADDER = (64.0, 128.0, 256.0, 512.0)
# Largest scale L: strip endpoints such as L - 1/2 and lattice coordinates
# up to about 2L must be exact in float64.  At zero exponents the counts hold
# up to 2^51; at 2^52 cond1_ab keeps 8 of its 13 u-points, near 2^60 cond1_gamma
# and cond4 count no pairs, near 1e20 the columns overflow int64.
_MAX_L = 2.0**48
# Work budget of a ladder scale, in cells of the offset grid that
# ``_ladder_counts`` visits: it bounds time, since memory is O(_BLOCK).  Only
# cond2's grid grows with L, as about 22.5 L cells, so this admits cond2 up
# to L of about 2.98e6, which takes about 5 s with three tuples on a 2-core
# x86 host; the other four families stay below 4000 cells at every L.
_MAX_WORK_CELLS = 2**26
# di rows of the offset grids, or columns of the strips, per streamed block.
# Blocks are consecutive cuts of the ladder's rows, so they span scales, and
# a ladder up to L = 256 is one block per norm (cond2 on L = 32, ..., 256
# has 1220 rows and 1924 v-strip columns).
_BLOCK = 2**11


class ExponentTuple(NamedTuple):
    """Exponents (a, b, c, alpha, beta, gamma) indexing a bilinear estimate."""

    a: float = 0.0
    b: float = 0.0
    c: float = 0.0
    alpha: float = 0.0
    beta: float = 0.0
    gamma: float = 0.0


def _exponent_tuple(e) -> ExponentTuple:
    """``e`` as an ``ExponentTuple``, Fractions kept exact; ValueError unless it
    holds exactly six finite real numbers.  The one check of an exponent tuple."""
    e = tuple(e)
    if len(e) != len(ExponentTuple._fields):
        raise ValueError(f"an exponent tuple takes six numbers (a, b, c, alpha, beta, gamma), not {len(e)}")
    if not all(map(finite_real, e)):
        raise ValueError("exponents must all be finite real numbers")
    return ExponentTuple(*e)


_HALF = Fraction(1, 2)


@dataclass(frozen=True)
class CounterexampleFamily:
    """One construction as exact data: v's strip line, the endpoints of A, B and C
    (lo, hi each) as pairs (p, q) meaning p L + q, and delta as the sum of the
    named exponents plus ``delta_constant``.  A float L takes float endpoints,
    held once, with the bits of Fraction arithmetic; an int or Fraction L is exact."""

    v_line: str
    endpoints: tuple[tuple[int | Fraction, int | Fraction], ...]
    delta_sum: tuple[str, ...]
    delta_constant: Fraction | None = None

    @functools.cached_property
    def _float_endpoints(self) -> tuple[tuple[float, float], ...]:
        return tuple((float(p), float(q)) for p, q in self.endpoints)

    def intervals(self, L) -> tuple[Interval, Interval, Interval]:
        x = [p * L + q for p, q in (self._float_endpoints if isinstance(L, float) else self.endpoints)]
        return (x[0], x[1]), (x[2], x[3]), (x[4], x[5])


FAMILIES: dict[str, CounterexampleFamily] = {
    "cond1_ab": CounterexampleFamily(
        "plus", ((1, -_HALF), (1, _HALF), (1, -1), (1, 1), (0, -_HALF), (0, _HALF)), ("a", "b", "beta")
    ),
    "cond2": CounterexampleFamily(
        "plus",
        ((Fraction(1, 4), 0), (_HALF, 0), (_HALF, 0), (Fraction(3, 2), 0), (-1, 0), (-_HALF, 0)),
        ("a", "b", "c", "beta"),
        -_HALF,
    ),
    "cond3": CounterexampleFamily(
        "plus", ((1, -_HALF), (1, _HALF), (0, -1), (0, 1), (1, -_HALF), (1, _HALF)), ("a", "c")
    ),
    "cond1_gamma": CounterexampleFamily(
        "minus", ((1, -1), (1, 1), (1, -2), (1, 2), (0, -1), (0, 1)), ("a", "b", "gamma")
    ),
    "cond4": CounterexampleFamily(
        "minus", ((1, -1), (1, 1), (2, -2), (2, 2), (-1, -1), (-1, 1)), ("a", "b", "c", "gamma")
    ),
}


def _family(family_id: str) -> CounterexampleFamily:
    """``FAMILIES[family_id]``; ValueError for a name not in it."""
    try:
        return FAMILIES[family_id]
    except KeyError:
        raise ValueError(f"unknown family {family_id!r}") from None


def predicted_delta(family_id: str, e) -> float:
    """delta of the family at ``e``: exact for Fractions, and for floats the bits
    of the written-out sum, -0.0 included, as no zero is added.  An unknown
    family, or an ``e`` refused by ``_exponent_tuple``, raises ValueError."""
    family, e = _family(family_id), _exponent_tuple(e)
    delta = functools.reduce(operator.add, [getattr(e, name) for name in family.delta_sum])
    return delta if family.delta_constant is None else delta + family.delta_constant


def _columns(interval: Interval) -> tuple[int, int]:
    """First and last lattice column j (xi = j/4) of a strip over ``interval``."""
    return math.ceil(interval[0] / DXI), math.floor(interval[1] / DXI)


def strip_points(interval: Interval, line: str) -> np.ndarray:
    """Lattice indices (i, j), shape (2, n), of a thickness-1 strip, column by column.

    The strip is {xi in interval, |tau + xi| <= 1/2} for ``line = "plus"``
    and {xi in interval, |tau - xi| <= 1/2} for ``"minus"``.  With tau = i/2
    and xi = j/4 the strip condition reads |2i +- j| <= 2, exact in integers;
    each column j holds 3 points when j is even and 2 when it is odd.
    """
    lo, hi = _columns(interval)
    i, j, on = _strip_columns(np.arange(lo, hi + 1), line)
    return np.stack(np.broadcast_arrays(i, j))[:, on]


def _strip_columns(j: np.ndarray, line: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Three candidate rows i of each column in ``j``, shape (columns, 3), the
    columns as a (columns, 1) column, and which candidates lie on the strip."""
    sign = {"plus": 1, "minus": -1}[line]
    # The window |2i + sign j| <= 2 is centred on -sign j / 2; these three
    # candidates cover it for either parity of j.
    j = j[:, None]
    i = (-sign * j) // 2 + np.arange(-1, 2)
    return i, j, np.abs(2 * i + sign * j) <= 2


def _position_pairs() -> np.ndarray:
    """Table [p, D + 4] of position pairs (s_u, s_v) with s_u - s_v = D.

    A strip point (i, j) sits at position s = 2i +- j across its strip:
    s is one of -2, 0, 2 when j is even and -1, 1 when j is odd.  Row p is
    the parity of j_u; the parity of j_v is that of p + D.
    """
    positions = ((-2, 0, 2), (-1, 1))
    table = np.zeros((2, 9), dtype=np.int64)
    for p_u, p_v in itertools.product((0, 1), repeat=2):
        for s_u, s_v in itertools.product(positions[p_u], positions[p_v]):
            table[p_u, s_u - s_v + 4] += 1
    return table


_POSITION_PAIRS = _position_pairs()
# The same table as [p, e + 2, q] for D = 2e + q, q = 0 or 1 (D = 5 counts 0).
_POSITION_PAIRS_BY_PARITY = np.hstack([_POSITION_PAIRS, np.zeros((2, 1), dtype=np.int64)]).reshape(2, 5, 2)


def _offset_grid(columns: tuple[int, int, int, int], v_line: str) -> tuple[int, int, int]:
    """Least and greatest di, and the number of dj, of the offset grid that
    ``_ladder_counts`` fills for strips with columns (u_lo, u_hi, v_lo, v_hi).
    A plus-line v's grid is (di, D), since dj = D - 2 di; a minus-line v's
    is (D, di, dj)."""
    u_lo, u_hi, v_lo, v_hi = columns
    if v_line == "plus":
        return -((4 + u_hi - v_lo) // 2), (4 - u_lo + v_hi) // 2, 1
    return -((4 + u_hi + v_hi) // 2), (4 - u_lo - v_lo) // 2, u_hi - v_lo - (u_lo - v_hi) + 1


def _blocks(firsts, sizes) -> Iterator[tuple[np.ndarray, list[tuple[int, int, int]]]]:
    """Rows firsts[k], ..., firsts[k] + sizes[k] - 1 of each scale k, in
    ladder order, cut into consecutive blocks of ``_BLOCK`` rows, the last
    of them possibly shorter.  Yields each block's rows and its segments
    (k, start, stop): the block's rows start to stop - 1 are scale k's."""
    rows, segments, room = [], [], _BLOCK
    for k, (first, size) in enumerate(zip(firsts, sizes)):
        done = 0
        while done < size:
            take, at = min(room, size - done), _BLOCK - room
            rows.append(np.arange(first + done, first + done + take))
            segments.append((k, at, at + take))
            done, room = done + take, room - take
            if room == 0:
                yield np.concatenate(rows), segments
                rows, segments, room = [], [], _BLOCK
    if segments:
        yield np.concatenate(rows), segments


def _ladder_counts(columns, v_line: str) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, list]]:
    """Offsets p_u - p_v between u's plus-line strip and v's strip on
    ``v_line``, and how many point pairs give each, for every scale of a
    ladder in shared blocks.

    ``columns[k]`` is (u_lo, u_hi, v_lo, v_hi), the strip columns of scale k.
    The di rows of all offset grids fill blocks as ``_blocks`` cuts them.
    Each block yields the grid of ``_count_rows`` over its rows, zero counts
    included, and its segments; a scale's rows over its blocks are in
    lexicographic order.  The counts follow from column ranges and the
    position-pair table without forming any point pair.
    """
    grids = [_offset_grid(c, v_line) for c in columns]
    for di, segments in _blocks([lo for lo, _, _ in grids], [hi - lo + 1 for lo, hi, _ in grids]):
        bounds = np.repeat([columns[k] for k, _, _ in segments], [stop - start for _, start, stop in segments], 0)
        yield *_count_rows(*bounds.T[:, :, None], v_line, di[:, None]), segments


def _ladder_strips(columns, line: str) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, list]]:
    """The strips of a ladder over columns[k] = (lo, hi) at scale k, in shared
    blocks of columns: each block's ``_strip_columns`` grid, the indicator
    as 0/1 counts, and its segments, as ``_ladder_counts`` gives them."""
    for j, segments in _blocks([lo for lo, _ in columns], [hi - lo + 1 for lo, hi in columns]):
        yield *_strip_columns(j, line), segments


def _count_rows(u_lo, u_hi, v_lo, v_hi, v_line: str, di: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The offsets (di, dj) and pair counts of ``_ladder_counts`` on the rows ``di``,
    as a grid (rows, 1), (rows, n), (rows, n) in lexicographic order, zero
    counts included.  ``di`` and the strip columns are (rows, 1) columns,
    so the rows may come from the offset grids of several scales.  A pair
    has j_u in [lo, hi] exactly when j_u is in A and j_u - dj in B."""
    if v_line == "plus":
        # 2 di = D - dj: the offset fixes D, and the columns enter only
        # through how many even and odd j_u lie in [lo, hi].
        dj = np.arange(-4, 5) - 2 * di
        lo = np.maximum(u_lo, v_lo + dj)
        hi = np.minimum(u_hi, v_hi + dj)
        even = np.maximum((hi >> 1) - ((lo + 1) >> 1) + 1, 0)
        odd = np.maximum(((hi - 1) >> 1) - (lo >> 1) + 1, 0)
        return di, dj, _POSITION_PAIRS[0] * even + _POSITION_PAIRS[1] * odd
    # 2 di = D - j_u - j_v: the offset and D fix both columns, and D has the
    # parity q of dj, D = 2e + q, so j_u = e - di + (dj + q) / 2 for each e.
    # Both strips have O(1) columns; each row's dj range is padded to the
    # block's widest, and the padding holds no pair.
    dj = (u_lo - v_hi) + np.arange(int((u_hi - v_lo - (u_lo - v_hi)).max()) + 1)
    lo = np.maximum(u_lo, v_lo + dj)
    hi = np.minimum(u_hi, v_hi + dj)
    q = dj & 1
    e = np.arange(-2, 3)[:, None, None]
    j_u = e + (((dj + q) >> 1) - di)
    on = (lo <= j_u) & (j_u <= hi)
    return di, dj, (_POSITION_PAIRS_BY_PARITY[j_u & 1, e + 2, q] * on).sum(axis=0)


class RatioResult(NamedTuple):
    """One ratio row, with the strip points, offsets and point pairs it was counted from."""

    family: str
    L: float
    exponents: ExponentTuple
    numerator: float
    denom_u: float
    denom_v: float
    points_u: int
    points_v: int
    offsets: int
    pairs: int

    @property
    def ratio(self) -> float:
        return self.numerator / (self.denom_u * self.denom_v)


def check_scales(family_id: str, L_values) -> list:
    """``L_values`` as a list, if ``family_id`` names a family and every L is
    a real number with 4 < L <= 2^48 whose offset grid in ``_ladder_counts``
    has at most 2^26 cells; a ValueError otherwise, before any array is made.

    The cell cap is a budget of time (a few seconds of counting), not of
    memory: the ladder streams its counts, so memory does not grow with L.
    """
    return _checked_columns(family_id, L_values)[0]


def _checked_columns(family_id: str, L_values) -> tuple[list, list[tuple[int, int, int, int]]]:
    """``check_scales``'s list, and each scale's strip columns (u_lo, u_hi, v_lo, v_hi)."""
    family = _family(family_id)
    L_values = list(L_values)
    if not all(finite_real(L) and 4 < L <= _MAX_L for L in L_values):
        raise ValueError("family scale L must be finite and exceed 4, and be at most 2^48")
    columns = [_columns(A) + _columns(B) for A, B, _ in map(family.intervals, L_values)]
    for L, (di_lo, di_hi, n_dj) in zip(L_values, (_offset_grid(c, family.v_line) for c in columns)):
        if 9 * (di_hi - di_lo + 1) * n_dj > _MAX_WORK_CELLS:
            raise ValueError(
                f"{family_id} at L = {L:g} would count pairs on more than 2^26 offset cells; "
                "this cap bounds the time of a ladder, not its memory"
            )
    return L_values, columns


def ratio_ladder(family_id: str, L_values, tuples) -> list[RatioResult]:
    """Ratios ||u conj(v)||_{H^{-c,-gamma}} / (X+ norm * X- norm) over L and tuples.
    Each tuple holds exactly six finite real numbers; otherwise ValueError.

    The pair counts of the product transform are independent of the
    exponents, so they are computed once per L, and the three norms of all
    tuples are weighed in one pass over the lattice points of the whole
    ladder.  That pass is streamed in blocks that span scales: the offset
    rows (L, di) of every scale, or the strip columns (L, j), are cut in
    ladder order into blocks, and each block adds, per tuple and per L, the
    sum of squared weighted values over that L's stretch of it.  Memory is
    O(block x tuples) whatever L is, and a ladder up to L = 256 is one
    block per norm.

    On ``DEFAULT_L_LADDER`` the ``loglog_fit`` slope of every family is
    within 0.15 of -delta(family, e) for entries of e in [-1, 1]; over the
    box's 64 corners and 3000 random tuples the worst error is 0.06, cond2's
    at (1, 1, 1, 1, 1, 1), and under 0.02 for the other families.  Beyond
    the box cond2's error reaches about 0.5 for entries in [-2, 2] and does
    not shrink with L: at (2, 2, 2, 2, 1, -1) the local slopes over
    L = 64, ..., 1024 read -5.88, -5.94, -5.97, -5.98, tending to -6, not
    -delta = -6.5.  The numerator spans the product's whole xi-support
    A - B = [-5L/4, 0], where for c > 1 a few pairs near xi = 0, at weight
    O(1), dominate; the construction pairs the product with a strip over C only.
    """
    L_values, columns = _checked_columns(family_id, L_values)
    family = FAMILIES[family_id]
    tuples = [_exponent_tuple(t) for t in tuples]
    # Six (k, 1, 1) columns, one row per tuple, broadcast against the grids.
    a, b, c, alpha, beta, gamma = np.array(tuples, dtype=float).reshape(-1, 6).T[:, :, None, None]
    # Per norm (product, u, v): sums of squares per scale and tuple, and the
    # points with nonzero values per scale; then, as a fourth row, the pairs.
    squares = np.zeros((3, len(L_values), len(tuples)))
    sizes = np.zeros((4, len(L_values)), dtype=np.int64)
    streams = (
        (NormIndex(-c, -gamma, "H"), _ladder_counts(columns, family.v_line)),
        (NormIndex(a, alpha, "X_plus"), _ladder_strips([c[:2] for c in columns], "plus")),
        (NormIndex(b, beta, "X_minus"), _ladder_strips([c[2:] for c in columns], family.v_line)),
    )
    for norm, (idx, blocks) in enumerate(streams):
        for i, j, counts, segments in blocks:
            # u and v are 0/1 indicators, so their counts are their values.
            values = indicator_product(counts, CELL) if norm == 0 else counts
            terms = (weight(idx, i * DTAU, j * DXI) * values) ** 2
            for k, start, stop in segments:
                squares[norm, k] += terms[:, start:stop].sum(axis=(1, 2))
                sizes[norm, k] += np.count_nonzero(counts[start:stop])
                if norm == 0:
                    sizes[3, k] += counts[start:stop].sum()
    scales = zip(L_values, sizes.T.tolist(), *np.sqrt(squares * CELL).tolist())
    return [
        RatioResult(family_id, L, e, n, u, v, n_u, n_v, n_offsets, n_pairs)
        for L, (n_offsets, n_u, n_v, n_pairs), nums, dus, dvs in scales
        for e, n, u, v in zip(tuples, nums, dus, dvs)
    ]


def loglog_fit(L_values: np.ndarray, ratios: np.ndarray) -> tuple[float, float]:
    """Least-squares slope of log(ratio) against log(L), with r^2.

    Both come in closed form from the centred logs: slope = sxy / sxx and
    r^2 = sxy^2 / (sxx syy).  Raises ``ValueError`` unless L and ratio are 1-D
    arrays of one length, finite and positive, with two distinct L.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        x, y = np.log(L_values), np.log(ratios)
    if x.ndim != 1 or x.shape != y.shape:
        raise ValueError("log-log fit needs L and ratio as 1-D arrays of equal length")
    # log is finite exactly on finite positive input, and then lies in
    # [-745, 710], so a sum of logs is finite exactly when every log is.
    sx, sy = x.sum(), y.sum()
    for name, total in (("L", sx), ("ratio", sy)):
        if not math.isfinite(total):
            raise ValueError(f"log-log fit needs finite, positive {name} values")
    if x.size < 2 or not x.max() > x.min():
        raise ValueError("log-log fit needs at least two distinct L")
    x, y = x - sx / x.size, y - sy / y.size
    sxx, sxy, syy = float(x @ x), float(x @ y), float(y @ y)
    # A ladder that is constant to roundoff carries no variance to explain.
    r_squared = 1.0 if syy < 1e-18 else sxy**2 / (sxx * syy)
    return sxy / sxx, r_squared


def default_wave_grid(n: int = 1024) -> Grid2D:
    return Grid2D(n_t=n, n_x=n, t_extent=16.0, x_extent=32.0)


def wave_product_constant(f_hat: np.ndarray, g_hat: np.ndarray, grid: Grid2D) -> float:
    """||u v||_L2 / (||f|| ||g||) for the transversal free waves u, v.

    Synthesizes ``u(t, x) = f(x - t)`` and ``v(t, x) = g(x + t)`` from the
    spatial spectra by spectral translation and integrates the product over
    the box.  The change of variables (x - t, x + t) turns the squared
    product integral into (1/2) ||f||^2 ||g||^2 exactly, so the ratio equals
    1/sqrt(2) for every pair of profiles; the value is invariant under
    rescaling and translation of f and g.

    The profiles must decay below 1e-12 (relative) at the spatial
    boundary for the periodic box to stand in for the line.  On the
    spatially periodic box the two waves realign every half spatial period,
    so the time extent must not exceed half the spatial extent; otherwise
    the box would integrate the transversal crossing more than once.
    """
    f_hat, g_hat = np.asarray(f_hat, dtype=complex), np.asarray(g_hat, dtype=complex)
    if f_hat.shape != (grid.n_x,) or g_hat.shape != (grid.n_x,):
        raise ValueError("spatial spectra must be 1d arrays on the grid's xi axis")
    if not (np.isfinite(f_hat).all() and np.isfinite(g_hat).all()):
        raise ValueError("spatial spectra must be finite")
    if grid.t_extent > grid.x_extent / 2 + 4 * math.ulp(grid.x_extent / 2):
        raise ValueError(
            "time extent must be at most half the spatial extent so that the box "
            "contains exactly one transversal crossing"
        )
    f = spatial_inverse(f_hat, grid.x_extent)
    g = spatial_inverse(g_hat, grid.x_extent)
    norm_f, norm_g = (float(np.sqrt(np.sum(np.abs(p) ** 2) * grid.dx)) for p in (f, g))
    if norm_f == 0.0 or norm_g == 0.0:
        raise ValueError("wave_product_constant: zero profile")
    for name, prof in (("f", f), ("g", g)):
        edge = max(abs(prof[0]), abs(prof[-1])) / np.abs(prof).max()
        if edge > 1e-12:
            raise ValueError(
                f"profile {name} does not decay at the spatial boundary "
                f"(relative edge magnitude {edge:.3e})"
            )
    t = grid.t
    xi = grid.xi
    u = spatial_inverse(f_hat[None, :] * np.exp(-1j * t[:, None] * xi[None, :]), grid.x_extent)
    v = spatial_inverse(g_hat[None, :] * np.exp(+1j * t[:, None] * xi[None, :]), grid.x_extent)
    norm_uv = float(np.sqrt(np.sum(np.abs(u * v) ** 2) * grid.cell_physical))
    return norm_uv / (norm_f * norm_g)

