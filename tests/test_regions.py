from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dkg1d import counterexamples as cx
from dkg1d import norms, regions
from dkg1d.counterexamples import ExponentTuple
from dkg1d.regions import ParameterChoice


def fitted_slope(family, e):
    """Log-log slope of one family's ratio ladder at tuple ``e`` on the default ladder."""
    rows = cx.ratio_ladder(family, cx.DEFAULT_L_LADDER, [e])
    return cx.loglog_fit(np.array(cx.DEFAULT_L_LADDER), np.array([row.ratio for row in rows]))[0]


def region_grid(ns=60, nr=60):
    s_values = np.linspace(-0.3, 0.5, ns)
    r_values = 1.5 * (np.arange(nr) + 1) / nr  # half-open (0, 1.5]
    return s_values, r_values


def in_region_points():
    # The bounding box of the open region, filtered to the region itself.
    return (
        st.tuples(
            st.floats(min_value=-0.25, max_value=0.5, exclude_min=True),
            st.floats(min_value=0.0, max_value=1.5, exclude_min=True),
        )
        .filter(lambda p: regions.in_wellposed_region(*p))
    )


def edge_points():
    # Points at distance 10^-k from the open edges s = -1/4 and r = 0,
    # including the corners they make with |s| <= r and r <= 1+s.
    points = []
    for k in range(1, 16):
        d = 10.0**-k
        s = -0.25 + d
        points += [(s, 0.3), (s, abs(s)), (s, 1 + s), (0.0, d), (d, d), (-d, d)]
    return points


class TestRegionMembership:
    def test_wellposed_examples(self):
        assert regions.in_wellposed_region(0.0, 0.5)
        assert not regions.in_wellposed_region(-0.25, 0.25)  # s bound is strict
        assert not regions.in_wellposed_region(-0.1, 0.95)  # r <= 1+s fails

    def test_pecher_examples(self):
        assert regions.in_pecher_region(0.5, 1.2)
        assert not regions.in_pecher_region(-0.2, 0.7)  # r < 1+2s fails

    def test_pecher_edge_is_open(self):
        # (0, 1) lies on r = 1+2s: certified and Machihara's, not Pecher's.
        assert regions.in_wellposed_region(0.0, 1.0)
        assert regions.in_machihara_region(0.0, 1.0)
        assert not regions.in_pecher_region(0.0, 1.0)

    def test_machihara_examples(self):
        assert regions.in_machihara_region(-0.2, 0.5)
        assert not regions.in_machihara_region(0.1, 0.5)  # s <= 0 fails

    def test_violation_names(self):
        assert regions.region_violations(-0.2, 0.85) == ("r <= 1+s",)
        assert regions.region_violations(-0.3, -1.0) == ("s > -1/4", "r > 0", "|s| <= r")
        assert regions.region_violations(0.0, 0.5) == ()

    @pytest.mark.parametrize(
        "s, r, names",
        [
            # s > -1/4 and r > 0 are strict: their edges fail them.
            (-0.25, 0.5, ("s > -1/4",)),
            (-0.25, 0.25, ("s > -1/4",)),
            (-0.25, 0.75, ("s > -1/4",)),
            (0.0, 0.0, ("r > 0",)),
            # |s| <= r and r <= 1+s are not: their edges hold, and a step past fails.
            (0.3, 0.3, ()),
            (-0.2, 0.2, ()),
            (0.3, 0.25, ("|s| <= r",)),
            (0.5, 1.5, ()),
            (0.5, 1.625, ("r <= 1+s",)),
        ],
    )
    def test_violation_names_on_each_edge(self, s, r, names):
        assert regions.region_violations(s, r) == names
        assert regions.in_wellposed_region(s, r) == (names == ())

    @pytest.mark.parametrize(
        "predicate", [regions.in_wellposed_region, regions.in_pecher_region, regions.in_machihara_region]
    )
    def test_numpy_scalars_give_python_bools(self, predicate):
        # region-grid passes np.linspace values.  Points on and just off each
        # edge: s = -1/4, r = 0, r = |s|, r = 1+s, r = 1+2s, s = 0, r = 2|s|.
        points = [
            (-0.25, 0.5), (-0.125, 0.5), (0.0, 0.0), (0.0, 0.25), (0.25, 0.25), (0.25, 0.125),
            (0.5, 1.5), (0.5, 1.625), (-0.125, 0.75), (-0.125, 0.625), (0.0, 1.0), (0.125, 0.5),
            (-0.125, 0.25), (-0.125, 0.125),
        ]
        for s, r in points:
            got = predicate(np.float64(s), np.float64(r))
            assert type(got) is bool and got == predicate(s, r)

    def test_prior_regions_contained(self):
        s_values, r_values = region_grid()
        for s in s_values:
            for r in r_values:
                if regions.in_pecher_region(s, r) or regions.in_machihara_region(s, r):
                    assert regions.in_wellposed_region(s, r)
        # A closed grid that holds s = 0 and r = 0 (steps 0.001 and 0.0025):
        # the endpoint (0, 0) is Machihara's and outside the certified
        # region, and it is the only such point.
        exceptions = [
            (s, r)
            for s in (np.arange(801) - 300) / 1000
            for r in np.arange(601) / 400
            if (regions.in_pecher_region(s, r) or regions.in_machihara_region(s, r))
            and not regions.in_wellposed_region(s, r)
        ]
        assert exceptions == [(0.0, 0.0)]

    def test_containment_strict(self):
        s_values, r_values = region_grid()
        found = any(
            regions.in_wellposed_region(s, r)
            and not regions.in_pecher_region(s, r)
            and not regions.in_machihara_region(s, r)
            for s in s_values
            for r in r_values
        )
        assert found

    def test_gain_strip(self):
        # In the strip -1/4 < s <= 0 the band 1+2s < r <= 1+s is newly covered.
        s, r = -0.1, 0.85
        assert regions.in_wellposed_region(s, r)
        assert not regions.in_pecher_region(s, r)
        assert not regions.in_machihara_region(s, r)

    @given(in_region_points())
    @settings(max_examples=300, deadline=None)
    def test_region_implies_slope_bound(self, point):
        # Every certified point satisfies r < 3/2 + 2s.
        s, r = point
        assert r < 1.5 + 2 * s


class TestCheckConstraints:
    def test_reference_choice_passes(self):
        report = regions.check_constraints(0.0, 0.5, ParameterChoice(0.75, 9 / 16, 1 / 16))
        assert regions.all_constraints_hold(report)
        assert set(report) == {
            "r1", "r2", "sigma1", "rho_sigma", "r6", "s2", "s3", "r7", "r3", "r4", "s1", "rho1",
        }

    def test_sigma_cap(self):
        report = regions.check_constraints(0.0, 0.5, ParameterChoice(1.0, 9 / 16, 1 / 16))
        assert not report["sigma1"]

    def test_r7_counts_eps(self):
        # r <= 2 + 2s - rho - eps: 1.2 <= 1.15 fails, while without eps 1.2 <= 1.25 would hold.
        assert regions.check_constraints(0, 1.2, ParameterChoice(0.75, 0.75, 0.1))["r7"] is False

    def test_r3_is_strict(self):
        # r < 1/2 + sigma + 2s on its edge: 1.25 < 0.5 + 0.75 + 0 fails.
        assert regions.check_constraints(0.0, 1.25, ParameterChoice(0.75, 0.75, 0.1))["r3"] is False

    def test_s3_edge_holds(self):
        # s >= -1 + rho + eps on its edge: -0.125 >= -1 + 0.75 + 0.125 holds.
        assert regions.check_constraints(-0.125, 0.5, ParameterChoice(0.75, 0.75, 0.125))["s3"] is True

    def test_s2_unreachable_below_quarter(self):
        # For s < -1/4 the spinor constraint fails for every rho > 1/2, eps > 0.
        for rho in np.linspace(0.5 + 1e-9, 1.0, 25):
            for eps in np.geomspace(1e-9, 0.25, 25):
                report = regions.check_constraints(-0.3, 0.3, ParameterChoice(0.75, rho, eps))
                assert not report["s2"]

    @given(
        in_region_points(),
        st.floats(min_value=0.51, max_value=1.0),
        st.floats(min_value=0.51, max_value=1.0),
        st.floats(min_value=1e-6, max_value=0.2),
    )
    @settings(max_examples=300, deadline=None)
    def test_r4_equals_r6(self, point, sigma, rho, eps):
        s, r = point
        report = regions.check_constraints(s, r, ParameterChoice(sigma, rho, eps))
        assert report["r4"] == report["r6"]


class TestChooseParameters:
    def test_feasible_roundtrip(self):
        choice = regions.choose_parameters(0.0, 0.5)
        assert isinstance(choice, ParameterChoice)
        assert choice.rho == 0.5 + choice.eps
        assert regions.all_constraints_hold(regions.check_constraints(0.0, 0.5, choice))

    def test_infeasible_reason(self):
        result = regions.choose_parameters(-0.2, 0.85)
        assert isinstance(result, regions.Infeasible)
        assert result.violated == ("r <= 1+s",)
        assert "r <= 1+s violated" in result.reason

    def test_near_corner_needs_small_eps(self):
        # Close to s = -1/4 the halving search must go below its start value.
        choice = regions.choose_parameters(-0.24, 0.25)
        assert isinstance(choice, ParameterChoice)
        assert choice.eps < 0.125
        assert regions.all_constraints_hold(regions.check_constraints(-0.24, 0.25, choice))

    @given(in_region_points())
    @settings(max_examples=500, deadline=None)
    def test_always_feasible_in_region(self, point):
        # Within about 1e-16 of the open edges 1/2 + eps rounds to 1/2, and
        # the choice is reported infeasible with the constraints that fail.
        s, r = point
        choice = regions.choose_parameters(s, r)
        if isinstance(choice, regions.Infeasible):
            assert min(s + 0.25, r) < 1e-15
            keys = regions.check_constraints(s, r, ParameterChoice(0.75, 9 / 16, 1 / 16))
            assert choice.violated and set(choice.violated) <= set(keys)
            return
        assert choice.rho == 0.5 + choice.eps
        assert regions.all_constraints_hold(regions.check_constraints(s, r, choice))

    @pytest.mark.parametrize("s, r", edge_points())
    def test_feasible_near_open_edges(self, s, r):
        assert regions.in_wellposed_region(s, r)
        choice = regions.choose_parameters(s, r)
        assert isinstance(choice, ParameterChoice)
        assert regions.all_constraints_hold(regions.check_constraints(s, r, choice))

    def test_eps_is_half_the_exact_bound(self):
        for s, r in [(0.0, 0.5), (-0.24, 0.25), (0.3, 0.3), (-0.05, 0.1)]:
            choice = regions.choose_parameters(s, r)
            assert choice.eps == min(0.25, s + 0.25, r) / 2

    def test_bound_is_tight(self):
        # Just above the bound, no sigma makes the rho = 1/2 + eps recipe work.
        for s, r in [(0.0, 0.5), (-0.24, 0.25), (0.3, 0.3), (-0.05, 0.1), (0.4, 1.3)]:
            assert regions.in_wellposed_region(s, r)
            eps = 1.01 * min(0.25, s + 0.25, r)
            for sigma in np.linspace(0.5, 1.0, 2001):
                report = regions.check_constraints(s, r, ParameterChoice(sigma, 0.5 + eps, eps))
                assert not regions.all_constraints_hold(report)

    def test_rounding_at_the_edge_reported(self):
        # s + 1/4 = 2^-55: eps < 2^-55 makes 1/2 + eps round to 1/2.
        result = regions.choose_parameters(-0.25 + 2.0**-55, 0.3)
        assert isinstance(result, regions.Infeasible)
        assert result.violated == ("rho_sigma",)


class TestNecessaryConditions:
    def test_boundary_case_holds(self):
        report = regions.bilinear_necessary_conditions(ExponentTuple(1, 2, -1, 0, 0, 0))
        assert report["cond3"]["holds"]
        assert report["cond3"]["margin"] == 0.0
        # Any six finite real numbers are accepted, and rationals give exact margins.
        plain = regions.bilinear_necessary_conditions((1, 0, 1, 0, 0, 0))
        assert plain == regions.bilinear_necessary_conditions(ExponentTuple(1, 0, 1, 0, 0, 0))
        assert plain["cond3"]["margin"] == 1 and plain["cond3"]["exponents"] == (0, 1, 1, 0, 0, 0)
        exact = regions.bilinear_necessary_conditions([Fraction(k, 10) for k in range(1, 7)])
        assert {name: entry["margin"] for name, entry in exact.items()} == {
            "cond1": Fraction(7, 10),
            "cond2": Fraction(1, 2),
            "cond3": Fraction(2, 5),
            "cond4": Fraction(6, 5),
        }
        assert all(isinstance(entry["margin"], Fraction) for entry in exact.values())

    @pytest.mark.parametrize("e", [(), (1.0,), (0.0,) * 5, (0.0,) * 7])
    def test_rejects_tuples_not_of_six(self, e):
        with pytest.raises(ValueError, match=f"six numbers .*, not {len(e)}"):
            regions.bilinear_necessary_conditions(e)

    def test_cond3_fails(self):
        report = regions.bilinear_necessary_conditions(ExponentTuple(0, 0, -1, 1, 1, 1))
        assert not report["cond3"]["holds"]
        assert report["cond3"]["family"] == "cond3"

    def test_dirac_side_mapping(self):
        # Exponents (s, s, 1-r; sigma, sigma, 1-rho-eps) at s = -0.3: the
        # spinor bound s >= -1/2 + (rho+eps)/2 fails, and so must cond1.
        s, r, sigma, rho, eps = -0.3, 0.5, 0.75, 0.6, 0.01
        e = ExponentTuple(s, s, 1 - r, sigma, sigma, 1 - rho - eps)
        report = regions.bilinear_necessary_conditions(e)
        assert not report["cond1"]["holds"]
        assert s < -0.5 + (rho + eps) / 2

    def test_wave_side_mapping(self):
        # Exponents (s, -s, r; ...): cond3 fails exactly when r < |s|.
        for s in (-0.6, -0.2, 0.0, 0.3, 0.8):
            for r in (0.0, 0.1, 0.5, 1.0):
                e = ExponentTuple(s, -s, r, 0.7, 0.3, 0.6)
                report = regions.bilinear_necessary_conditions(e)
                assert report["cond3"]["holds"] == (r >= abs(s))

    def test_cond1_family_selection(self):
        gamma_min = regions.bilinear_necessary_conditions(ExponentTuple(0, 0, 0, 1, 1, 0.2))
        assert gamma_min["cond1"]["family"] == "cond1_gamma"
        beta_min = regions.bilinear_necessary_conditions(ExponentTuple(0, 0, 0, 1, 0.2, 1))
        assert beta_min["cond1"]["family"] == "cond1_ab"


def kg_tuple(s, r, sigma, rho):
    """The Klein-Gordon estimate's tuple at eps = 0."""
    return ExponentTuple(s, s, 1 - r, sigma, sigma, 1 - rho)


def dirac_tuple(s, r, sigma, rho):
    """The Dirac estimate's tuple at eps = 0, by duality."""
    return ExponentTuple(-s, s, r, 1 - sigma, sigma, rho)


def dirac_mirror(s, r, sigma, rho):
    return mirror(dirac_tuple(s, r, sigma, rho))


HALF = Fraction(1, 2)
# (constraint keys, family, estimate tuple, the constraints' form in
# (s, r, sigma, rho) at eps = 0): r1 and r3 hold where the form is positive,
# the others where it is nonnegative.  r2 is the pair r - s, r + s.
FAMILY_CONSTRAINTS = [
    (("s1",), "cond1_ab", kg_tuple, lambda s, r, sigma, rho: 2 * s + sigma),
    (("s2",), "cond1_gamma", kg_tuple, lambda s, r, sigma, rho: 2 * s + 1 - rho),
    (("r3",), "cond2", kg_tuple, lambda s, r, sigma, rho: 2 * s + sigma - r + HALF),
    (("r4", "r6"), "cond3", kg_tuple, lambda s, r, sigma, rho: 1 + s - r),
    (("r7",), "cond4", kg_tuple, lambda s, r, sigma, rho: 2 * s + 2 - r - rho),
    (("r2",), "cond3", dirac_tuple, lambda s, r, sigma, rho: r - s),
    (("r2",), "cond3", dirac_mirror, lambda s, r, sigma, rho: r + s),
    (("r1",), "cond2", dirac_mirror, lambda s, r, sigma, rho: r - sigma + HALF),
    (("sigma1",), "cond1_ab", dirac_mirror, lambda s, r, sigma, rho: 1 - sigma),
]


class TestFamiliesGiveTheConstraints:
    """Each family's delta at an estimate's tuple is the form of an iteration constraint."""

    @pytest.mark.parametrize("keys, family, estimate, form", FAMILY_CONSTRAINTS)
    def test_delta_is_the_form_over_the_rationals(self, keys, family, estimate, form):
        # Both sides are affine in (s, r, sigma, rho), so agreeing at the
        # origin and the four unit points makes them one form; seeded
        # rational points check the same.
        points = [[Fraction(int(i == k)) for i in range(4)] for k in range(-1, 4)]
        rng = np.random.default_rng(40)
        points += [[Fraction(int(n), 8) for n in row] for row in rng.integers(-24, 25, (20, 4))]
        for point in points:
            delta = cx.predicted_delta(family, estimate(*point))
            assert isinstance(delta, Fraction) and delta == form(*point), (keys, point)

    def test_constraints_follow_the_sign_of_delta(self):
        # At eps = 0 and away from each constraint's edge, check_constraints
        # holds exactly where the family's delta is positive.  s3, rho1 and
        # rho_sigma have no family: s3 follows from s2 and rho1, and the
        # others bound the iteration space itself.
        keys = {key for row in FAMILY_CONSTRAINTS for key in row[0]}
        every_key = regions.check_constraints(0.0, 0.5, ParameterChoice(0.75, 0.75, 0.0)).keys()
        assert keys == every_key - {"s3", "rho1", "rho_sigma"}
        seen = {key: set() for key in keys}
        rng = np.random.default_rng(41)
        for point in rng.uniform((-1, -0.5, 0, 0), (1, 2, 1.5, 1.5), (2000, 4)):
            s, r, sigma, rho = map(float, point)
            report = regions.check_constraints(s, r, ParameterChoice(sigma, rho, 0.0))
            deltas = {key: [] for key in keys}
            for row_keys, family, estimate, _ in FAMILY_CONSTRAINTS:
                for key in row_keys:
                    deltas[key].append(cx.predicted_delta(family, estimate(s, r, sigma, rho)))
            for key, values in deltas.items():
                if min(map(abs, values)) > 1e-9:
                    assert report[key] == all(v > 0 for v in values), (key, point)
                    seen[key].add(report[key])
        assert all(outcomes == {True, False} for outcomes in seen.values()), seen


def stated_margins(e):
    # The condition margins written out as formulas: the minima over alpha,
    # beta (and gamma) and over a, b are what the mirrored tuple supplies.
    return {
        "cond1": e.a + e.b + min(e.alpha, e.beta, e.gamma),
        "cond2": e.a + e.b + e.c + min(e.alpha, e.beta) - 0.5,
        "cond3": min(e.a, e.b) + e.c,
        "cond4": e.a + e.b + e.c + e.gamma,
    }


def mirror(e):
    return ExponentTuple(e.b, e.a, e.c, e.beta, e.alpha, e.gamma)


class TestConditionsFromFamilies:
    def test_margins_bit_equal_to_formulas(self):
        for e in np.random.default_rng(31).uniform(-2, 2, (2000, 6)):
            e = ExponentTuple(*e)
            report = regions.bilinear_necessary_conditions(e)
            for name, margin in stated_margins(e).items():
                entry = report[name]
                assert entry["margin"] == margin, (name, e)
                assert cx.predicted_delta(entry["family"], entry["exponents"]) == margin
                assert entry["exponents"] in (e, mirror(e))
                assert entry["holds"] == (margin >= 0)

    def test_ties_prefer_tuple_then_first_family(self):
        e = ExponentTuple(0.2, 0.2, 0, 0.5, 0.5, 0.5)
        report = regions.bilinear_necessary_conditions(e)
        assert all(entry["exponents"] == e for entry in report.values())
        assert report["cond1"]["family"] == "cond1_gamma"

    @pytest.mark.parametrize(
        "e, condition, violation",
        [
            (ExponentTuple(0, 0, 0.1, 0.25, 0.75, 0.6), "cond2", 0.15),
            (ExponentTuple(0, 0, 0, -1, 1, 1), "cond1", 1.0),
            (ExponentTuple(0.3, -0.3, 0.1, 0.7, 0.3, 0.6), "cond3", 0.2),
        ],
    )
    def test_mirror_named_when_it_decays_least(self, e, condition, violation):
        entry = regions.bilinear_necessary_conditions(e)[condition]
        assert entry["margin"] == pytest.approx(-violation)
        assert entry["exponents"] == mirror(e)
        assert fitted_slope(entry["family"], entry["exponents"]) >= violation - 0.15
        # The unmirrored ladder of the same family decays instead.
        assert fitted_slope(entry["family"], e) < 0

    def test_named_family_is_a_witness(self):
        # Violators with alpha < beta or b < a, where the mirror matters.
        rng = np.random.default_rng(32)
        checked = 0
        while checked < 60:
            e = ExponentTuple(*rng.uniform(-2, 2, 6))
            if not (e.alpha < e.beta or e.b < e.a):
                continue
            for name, entry in regions.bilinear_necessary_conditions(e).items():
                if not entry["holds"]:
                    slope = fitted_slope(entry["family"], entry["exponents"])
                    assert slope >= -entry["margin"] - 0.15, (name, e, slope)
                    checked += 1

    def test_acceptance_violators_keep_family_and_tuple(self):
        violators = {
            "cond1": (ExponentTuple(0, 0, 1, 1, 1, -0.5), "cond1_gamma"),
            "cond2": (ExponentTuple(0, 0, 0, 0.6, 0, 0.6), "cond2"),
            "cond3": (ExponentTuple(-0.5, 0.5, 0, 0.5, 0.5, 0.5), "cond3"),
            "cond4": (ExponentTuple(1, 1, -1, 1, 1, -1.5), "cond4"),
        }
        for name, (e, family) in violators.items():
            entry = regions.bilinear_necessary_conditions(e)[name]
            assert (entry["family"], entry["exponents"]) == (family, e)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_mirror_symmetry_of_the_ratio(self, seed):
        # (u, v) -> (Rv, Ru), Ru(t, x) = u(t, -x), maps the ratio of e onto
        # the ratio of its mirror.  The data are band-limited and vanish on
        # the Nyquist row and column, whose frequencies have no reflection.
        grid = norms.Grid2D(n_t=16, n_x=16, t_extent=8.0, x_extent=8.0)
        rng = np.random.default_rng(seed)
        band = np.zeros((16, 16), dtype=bool)
        band[4:13, 4:13] = True

        def random_function():
            z = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
            spectrum = norms.GridFunction2D(grid, np.where(band, z, 0), "fourier")
            return norms.inverse_transform(spectrum)

        def reflect(u):
            return norms.GridFunction2D(grid, np.roll(u.values[:, ::-1], 1, axis=1), "physical")

        def ratio(u, v, e):
            num = norms.product_norm(u, v, norms.NormIndex(-e.c, -e.gamma, "H"))
            du = norms.weighted_norm(norms.transform(u), norms.NormIndex(e.a, e.alpha, "X_plus"))
            dv = norms.weighted_norm(norms.transform(v), norms.NormIndex(e.b, e.beta, "X_minus"))
            return num / (du * dv)

        u, v = random_function(), random_function()
        for e in rng.uniform(-1, 1, (5, 6)):
            e = ExponentTuple(*e)
            expected = ratio(u, v, e)
            assert ratio(reflect(v), reflect(u), mirror(e)) == pytest.approx(expected, rel=1e-12)
            # Swapping the roles without the reflection changes the ratio.
            assert ratio(v, u, mirror(e)) != pytest.approx(expected, rel=1e-3)
