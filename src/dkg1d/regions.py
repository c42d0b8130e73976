"""Well-posedness regions in the (s, r) regularity plane and the constraint system.

``s`` is the Sobolev regularity of the spinor data, ``r`` that of the scalar
field.  Three regions are encoded: the region certified by this package
(``in_wellposed_region``), and the earlier Pecher and Machihara regions.
The certified region strictly contains Pecher's, which is written as its
cut by r < 1+2s, and contains all of Machihara's but the endpoint
(s, r) = (0, 0): Machihara's closed inequalities admit it, while the
certified region needs r > 0 (constraint r1, r > sigma - 1/2 + eps with
sigma > 1/2, keeps the iteration from reaching it).  Iterating the system
in the weighted space-time spaces X_+-^{s,sigma} x H^{r,rho} works
precisely when the twelve inequalities of ``check_constraints`` admit a
parameter choice (sigma, rho, eps);
``choose_parameters`` produces one for every point of the region, following
the recipe rho = 1/2 + eps with eps half the exact bound
min(1/4, s + 1/4, r) below which that recipe is feasible.

Also here: the necessary conditions of a bilinear estimate, each derived
from the decay exponents of its counterexample families in
``counterexamples`` (``CONDITION_FAMILIES``) on the tuple and its mirror.
"""

from __future__ import annotations

from dataclasses import dataclass

from .counterexamples import ExponentTuple, _exponent_tuple, predicted_delta

WELLPOSED_INEQUALITIES = ("s > -1/4", "r > 0", "|s| <= r", "r <= 1+s")

# The strip families that bound each necessary condition.  cond1 has two:
# the transversal pair probes alpha and beta, the parallel pair gamma.
CONDITION_FAMILIES = {
    "cond1": ("cond1_gamma", "cond1_ab"),
    "cond2": ("cond2",),
    "cond3": ("cond3",),
    "cond4": ("cond4",),
}


@dataclass(frozen=True)
class ParameterChoice:
    sigma: float
    rho: float
    eps: float


@dataclass(frozen=True)
class Infeasible:
    """Marker returned when (s, r) lies outside the certified region."""

    violated: tuple[str, ...]

    @property
    def reason(self) -> str:
        return ", ".join(f"{name} violated" for name in self.violated)


def region_violations(s: float, r: float) -> tuple[str, ...]:
    """Names of the certified-region inequalities failed by (s, r)."""
    holds = (s > -0.25, r > 0, abs(s) <= r, r <= 1 + s)
    return tuple(name for name, ok in zip(WELLPOSED_INEQUALITIES, holds) if not ok)


def in_wellposed_region(s: float, r: float) -> bool:
    """s > -1/4, r > 0, |s| <= r <= 1+s (strict/non-strict exactly as written)."""
    return bool(s > -0.25 and r > 0 and abs(s) <= r <= 1 + s)


def in_pecher_region(s: float, r: float) -> bool:
    """s > -1/4, r > 0, |s| <= r, r < 1+2s, r <= 1+s: the certified region cut by r < 1+2s."""
    return bool(in_wellposed_region(s, r) and r < 1 + 2 * s)


def in_machihara_region(s: float, r: float) -> bool:
    """-1/4 < s <= 0, 2|s| <= r, r <= 1+2s."""
    return bool(-0.25 < s <= 0 and 2 * abs(s) <= r and r <= 1 + 2 * s)


def check_constraints(s: float, r: float, choice: ParameterChoice) -> dict[str, bool]:
    """Truth value of each iteration constraint at (s, r) with (sigma, rho, eps).

    All comparisons are exact double-precision evaluations of the stated
    strict/non-strict inequalities; no tolerances.  Keys r4 and r6 encode
    the same inequality and always agree.
    """
    sigma, rho, eps = choice.sigma, choice.rho, choice.eps
    return {
        "r1": r > sigma - 0.5 + eps,
        "r2": r >= abs(s),
        "sigma1": sigma <= 1 - eps,
        "rho_sigma": 0.5 < rho <= 1 and 0.5 < sigma <= 1,
        "r6": r <= 1 + s,
        "s2": s >= -0.5 + (rho + eps) / 2,
        "s3": s >= -1 + rho + eps,
        "r7": r <= 1 + 2 * s + 1 - rho - eps,
        "r3": r < 0.5 + sigma + 2 * s,
        "r4": r <= 1 + s,
        "s1": s >= -sigma / 2,
        "rho1": rho <= 1 - eps,
    }


def all_constraints_hold(report: dict[str, bool]) -> bool:
    return all(report.values())


def choose_parameters(s: float, r: float) -> ParameterChoice | Infeasible:
    """Produce (sigma, rho, eps) satisfying every constraint, or Infeasible.

    Sets rho = 1/2 + eps and sigma at the midpoint of the interval
    (max(1/2, r - 1/2 - 2s), min(1 - eps, r + 1/2 - eps)).  Inside the
    region this choice is feasible exactly when eps < E = min(1/4, s + 1/4,
    r): the three bounds come from rho1, s2 and the sigma interval being
    nonempty, and the other constraints follow from the region's
    inequalities.  Returns eps = E/2.  Within about 1e-16 of an edge,
    rounding can make 1/2 + eps equal 1/2; the constraint keys that then
    fail are reported as Infeasible.
    """
    violated = region_violations(s, r)
    if violated:
        return Infeasible(violated)
    eps = min(0.25, s + 0.25, r) / 2
    lo = max(0.5, r - 0.5 - 2 * s)
    hi = min(1 - eps, r + 0.5 - eps)
    choice = ParameterChoice(sigma=(lo + hi) / 2, rho=0.5 + eps, eps=eps)
    report = check_constraints(s, r, choice)
    failed = tuple(key for key, holds in report.items() if not holds)
    return Infeasible(failed) if failed else choice


def bilinear_necessary_conditions(e: ExponentTuple) -> dict[str, dict]:
    """Necessary conditions for the two-sided null-form estimate, with margins.

    The estimate for e = (a, b, c, alpha, beta, gamma) holds iff it holds
    for the mirror e* = (b, a, c, beta, alpha, gamma): with Ru(t, x) =
    u(t, -x), the pair (Rv, Ru) has e*'s ratio equal to (u, v)'s ratio for
    e, since reflection swaps X+ and X- and the H norm is even and
    conjugation-invariant.  Each margin (negative means violated) is the
    least ``delta`` of the condition's families over e and e*, and
    ``family`` and ``exponents`` name where it is attained (ties go to e,
    then to the family listed first), so that
    ``ratio_ladder(family, L, [exponents])`` grows at rate -margin.  An
    ``e`` of other than six finite real numbers raises ValueError, and
    Fractions give exact margins.
    """
    e = _exponent_tuple(e)
    mirror = e._replace(a=e.b, b=e.a, alpha=e.beta, beta=e.alpha)
    report = {}
    for condition, family_ids in CONDITION_FAMILIES.items():
        candidates = [(predicted_delta(f, t), f, t) for f in family_ids for t in (e, mirror)]
        margin, family, exponents = min(candidates, key=lambda candidate: candidate[0])
        report[condition] = {"margin": margin, "family": family, "exponents": exponents}
        report[condition]["holds"] = margin >= 0
    return report
