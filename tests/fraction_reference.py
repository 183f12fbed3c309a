"""The `Fraction` route: each quantity that `analyze` derives, written as the
chain of exact `Fraction` operations that drglab computed it by before its
kernels carried integers over one denominator, and `validate_basic`'s
cross condition as the double loop it ran before it read the prefix maxima
of c.  Tests check the kernels against these functions, value for value and
type for type."""

import math
from fractions import Fraction

from drglab.arrays import CheckResult, DistanceDistribution, IntersectionArray, _vertex_count
from drglab.potentials import CLOSED_FORM, RECURSIVE, PotentialSequence
from drglab.resistance import ResistanceProfile
from drglab.analysis import WalkBoundsReport


def distance_distribution(arr: IntersectionArray) -> DistanceDistribution:
    sizes = [Fraction(1)]
    for i in range(arr.D):
        sizes.append(sizes[-1] * arr.b[i] / arr.c[i])
    n = sum(sizes)
    e = tuple(sizes[i] * arr.b[i] for i in range(arr.D))
    m = n * arr.k / 2
    shells_integral = all(size.denominator == 1 for size in sizes)
    return DistanceDistribution(tuple(sizes), n, e, m, shells_integral and m.denominator == 1, shells_integral)


def cross_condition(arr: IntersectionArray) -> CheckResult:
    bad = None
    for i in range(0, arr.D):
        for j in range(1, arr.D - i + 1):
            if arr.b_at(i) < arr.c_at(j):
                bad = (i, j)
                break
        if bad:
            break
    return CheckResult(
        "cross_condition",
        bad is None,
        "b_i >= c_j for i+j <= D" if bad is None else f"b{bad[0]} = {arr.b_at(bad[0])} < c{bad[1]} = {arr.c_at(bad[1])}",
    )


def potentials_recursive(arr: IntersectionArray) -> PotentialSequence:
    phi = [_vertex_count(arr) - 1]
    for i in range(1, arr.D):
        phi.append((arr.c[i - 1] * phi[-1] - arr.k) / arr.b[i])
    phi.append(Fraction(0))
    return PotentialSequence(arr, tuple(phi), RECURSIVE)


def potentials_closed_form(arr: IntersectionArray, dist: DistanceDistribution) -> PotentialSequence:
    suffix = Fraction(0)
    reversed_phi = [Fraction(0)]
    for i in range(arr.D - 1, -1, -1):
        suffix += dist.k_sizes[i + 1]
        reversed_phi.append(arr.k * suffix / dist.e[i])
    return PotentialSequence(arr, tuple(reversed(reversed_phi)), CLOSED_FORM)


def ratio(p: PotentialSequence) -> Fraction:
    return sum(p.phi[1:-1], Fraction(0)) / p.phi[0]


def resistance_profile(arr: IntersectionArray) -> ResistanceProfile:
    """Needs whole shells."""
    dist = distance_distribution(arr)
    assert dist.shells_integral
    p = potentials_closed_form(arr, dist)
    current = dist.n * arr.k
    d = []
    prefix = Fraction(0)
    for j in range(1, arr.D + 1):
        prefix += p.phi[j - 1]
        d.append(2 * prefix / current)
    r = ratio(p)
    return ResistanceProfile(d=tuple(d), ratio=r, K_factor=1 + r, n=int(dist.n), m=dist.m, k=arr.k)


def walk_bounds(arr: IntersectionArray) -> WalkBoundsReport:
    """Needs whole shells and k >= 3."""
    profile = resistance_profile(arr)
    n, m = profile.n, profile.m
    commutes = tuple(2 * m * d for d in profile.d)
    commute_cap = 4 * (n - 1)
    gap_bound, spectral_floor = 1 / (n * profile.d[-1]), Fraction(profile.k, 4 * (n - 1))
    return WalkBoundsReport(
        array=arr,
        n=n,
        m=m,
        commute_times=commutes,
        hitting_bound=2 * (n - 1),
        commute_bound=commute_cap,
        cover_bound_dominant=4 * (n - 1) * math.log(n),
        spectral_lower_bound=spectral_floor,
        resistance_gap_bound=gap_bound,
        middle_inequality_holds=gap_bound >= spectral_floor,
        over_commute_bound=tuple(j + 1 for j, c in enumerate(commutes) if c > commute_cap),
    )
