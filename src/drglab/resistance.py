"""Per-distance resistances, the head-to-tail resistance ratio, and the
classification of arrays against the sharp two-terminal bound.

The classification threshold 87/100 is an exact rational on purpose: a
VIOLATION verdict asserts that no distance-regular graph of valency >= 3
realizes the array, and such a statement must not hinge on rounding.
"""

from __future__ import annotations

import enum
import itertools
from fractions import Fraction
from typing import NamedTuple, Optional

from .arrays import (
    DistanceDistribution,
    IntersectionArray,
    _Record,
    compute_distance_distribution,
    parse_intersection_array,
)
from .potentials import _over_one_denominator, potentials_closed_form, potentials_recursive

#: Ratios at or above this are impossible outside the four extremal graphs.
BIGGS_THRESHOLD = Fraction(87, 100)

#: The extremal ratio; d_D/d_1 <= 1 + SHARP_RATIO with equality only for Biggs-Smith.
SHARP_RATIO = Fraction(94, 101)


class BiggsClass(enum.Enum):
    PASS_STRICT = "PASS_STRICT"
    EXTREMAL = "EXTREMAL"
    VIOLATION = "VIOLATION"


class ExtremalEntry(NamedTuple):
    name: str
    array: IntersectionArray
    ratio: Fraction


_EXTREMAL = (
    ExtremalEntry("Biggs-Smith Graph", parse_intersection_array("(3,2,2,2,1,1,1;1,1,1,1,1,1,3)"), Fraction(94, 101)),
    ExtremalEntry("Foster Graph", parse_intersection_array("(3,2,2,2,2,1,1,1;1,1,1,1,2,2,2,3)"), Fraction(319, 356)),
    ExtremalEntry("Flag graph of GH(2,2)", parse_intersection_array("(4,2,2,2,2,2;1,1,1,1,1,2)"), Fraction(166, 188)),
    ExtremalEntry("Tutte's 12-Cage", parse_intersection_array("(3,2,2,2,2,2;1,1,1,1,1,3)"), Fraction(109, 125)),
)


def extremal_set() -> tuple[ExtremalEntry, ...]:
    """The four graphs whose ratio lands in [87/100, 94/101]."""
    return _EXTREMAL


class ResistanceProfile(_Record):
    """Resistances d_1 < ... < d_D between vertices at each distance.

    m stays an exact rational: parity-violating candidates with whole
    shells have a half-integral edge count, and their formal resistances
    are still worth reporting.
    """

    def __init__(self, d: tuple[Fraction, ...], ratio: Fraction, K_factor: Fraction, n: int, m: Fraction, k: int) -> None:
        self.__dict__.update(d=d, ratio=ratio, K_factor=K_factor, n=n, m=m, k=k)

    def at(self, j: int) -> Fraction:
        if not 1 <= j <= len(self.d):
            raise IndexError(f"distance {j} outside 1..{len(self.d)}")
        return self.d[j - 1]


def resistance_profile(arr: IntersectionArray) -> ResistanceProfile:
    """d_j = 2 (phi_0 + ... + phi_{j-1}) / (n k), exactly.

    Requires whole shell sizes; d_1 always simplifies to (n-1)/m.  A caller
    already holding the distance distribution passes it to
    `profile_from_distribution` instead.
    """
    return profile_from_distribution(arr, compute_distance_distribution(arr))


def profile_from_distribution(arr: IntersectionArray, dist: DistanceDistribution) -> ResistanceProfile:
    """`resistance_profile` from the array's precomputed distance distribution:
    the closed-form potentials over their one denominator q, and
    d_j = 2 (q phi_0 + ... + q phi_{j-1}) / (n k q) from the integer prefixes."""
    if not dist.shells_integral:
        raise ValueError(f"{arr} has a non-integral distance distribution")
    den, scaled = _over_one_denominator(potentials_closed_form(arr, dist).phi)
    n = dist.n.numerator
    current = n * arr.k * den
    prefixes = list(itertools.accumulate(scaled[:-1]))
    # (phi_1 + ... + phi_{D-1}) / phi_0, as `PotentialSequence.ratio` gives it
    ratio = Fraction(prefixes[-1] - prefixes[0], prefixes[0])
    return ResistanceProfile(
        d=tuple(Fraction(2 * prefix, current) for prefix in prefixes),
        ratio=ratio,
        K_factor=1 + ratio,
        n=n,
        m=dist.m,
        k=arr.k,
    )


class BiggsVerdict(NamedTuple):
    array: IntersectionArray
    category: BiggsClass
    ratio: Fraction
    matched_extremal: Optional[str] = None


def classify_biggs(arr: IntersectionArray) -> BiggsVerdict:
    """Classify an array by its ratio from the recursion; see `classify_ratio`."""
    return classify_ratio(arr, potentials_recursive(arr).ratio())


def classify_ratio(arr: IntersectionArray, ratio: Fraction) -> BiggsVerdict:
    """Place an array with the given head-to-tail ratio strictly below the
    87/100 threshold, in the extremal set, or beyond realizability.

    `ratio` must be the array's own (phi_1 + ... + phi_{D-1}) / phi_0, by
    either potential route.  Membership in the extremal set is by verbatim
    array equality: a distinct array whose ratio merely coincides with an
    extremal value is still a VIOLATION.
    """
    if arr.k <= 2:
        raise ValueError(f"classification needs valency >= 3, got k = {arr.k}")
    # ratio < BIGGS_THRESHOLD, cross-multiplied over the positive denominators
    if ratio.numerator * BIGGS_THRESHOLD.denominator < BIGGS_THRESHOLD.numerator * ratio.denominator:
        return BiggsVerdict(arr, BiggsClass.PASS_STRICT, ratio)
    for entry in _EXTREMAL:
        if arr == entry.array:
            return BiggsVerdict(arr, BiggsClass.EXTREMAL, ratio, entry.name)
    return BiggsVerdict(arr, BiggsClass.VIOLATION, ratio)
