"""Per-distance resistances, the head-to-tail resistance ratio, the
classification of arrays against the sharp two-terminal bound, and the
feasibility stages after `basic`, in PIPELINE_ORDER (`_stages`), which the
scan, `evaluate_array` and analyze's kernel all run.

The classification threshold 87/100 is an exact rational on purpose: a
VIOLATION verdict asserts that no distance-regular graph of valency >= 3
realizes the array, and such a statement must not hinge on rounding.
`_closed_form_ratio` is the one closed-form ratio of drglab; the
recursion's (`potentials._ratio_terms`) is separate code, its check.

The potentials are imported by the two functions that read them,
`profile_from_distribution` and `classify_biggs`, not at import: the
catalog and the scan, which need only the ratio and the stages, load this
module without compiling `potentials`.
"""

from __future__ import annotations

import enum
import itertools
import math
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .arrays import (
    DistanceDistribution,
    IntersectionArray,
    _divisibility_holds,
    _head_bound_holds,
    _Record,
    _vertex_terms,
    compute_distance_distribution,
    parse_intersection_array,
)
from .rational import _common_terms, _fractions, _over_one_denominator, _reduced

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
    """`resistance_profile` from the array's precomputed distance
    distribution, each value one `Fraction` of the int helpers."""
    from .potentials import _closed_form_terms

    if not dist.shells_integral:
        raise ValueError(f"{arr} has a non-integral distance distribution")
    weights = _over_one_denominator(dist.k_sizes)[1]
    d = _profile_terms(arr.k, dist.n.numerator, _closed_form_terms(arr, weights))
    return _profile(arr, dist, d, _closed_form_ratio(arr.b, weights))


def _profile_terms(k: int, n: int, phi: Sequence[tuple[int, int]]) -> list[tuple[int, int]]:
    """The reduced pairs d_j = 2 (q phi_0 + ... + q phi_{j-1}) / (n k q) of
    the closed-form potentials as pairs, over their one denominator q."""
    den, scaled = _common_terms(phi)
    current = n * k * den
    return [_reduced(2 * prefix, current) for prefix in itertools.accumulate(scaled[:-1])]


def _profile(arr: IntersectionArray, dist: DistanceDistribution, d: Sequence[tuple[int, int]], ratio: tuple[int, int]) -> ResistanceProfile:
    """The `ResistanceProfile` of the d_j and the ratio as reduced pairs,
    K = 1 + ratio, n and m from the array's distance distribution."""
    p, q = ratio
    return ResistanceProfile(d=_fractions(d), ratio=Fraction(p, q), K_factor=Fraction(p + q, q), n=dist.n.numerator, m=dist.m, k=arr.k)


def _closed_form_ratio(b: Sequence[int], weights: Sequence[int]) -> tuple[int, int]:
    """(phi_1 + ... + phi_{D-1}) / phi_0 as a reduced pair, from the b half
    and the shells W_0 ... W_D over any one denominator W_0, whole or not:
    k W_0 sum_{i=1}^{D-1} S_i / (W_i b_i) over S_0, S_i the shells beyond i,
    summed over one integer denominator and reduced once."""
    num, den, beyond = 0, 1, 0
    for i in range(len(b) - 1, 0, -1):
        beyond += weights[i + 1]
        edges = weights[i] * b[i]
        num, den = num * edges + beyond * den, den * edges
    p, q = b[0] * weights[0] * num, den * (beyond + weights[1])
    g = math.gcd(p, q)
    return p // g, q // g


class BiggsVerdict(NamedTuple):
    array: IntersectionArray
    category: BiggsClass
    ratio: Fraction
    matched_extremal: Optional[str] = None


def classify_biggs(arr: IntersectionArray) -> BiggsVerdict:
    """Classify an array by its ratio from the recursion; see `classify_ratio`."""
    from .potentials import potentials_recursive

    return classify_ratio(arr, potentials_recursive(arr).ratio())


def classify_ratio(arr: IntersectionArray, ratio: Fraction) -> BiggsVerdict:
    """Place an array with the given head-to-tail ratio strictly below the
    87/100 threshold, in the extremal set, or beyond realizability.

    `ratio` must be the array's own (phi_1 + ... + phi_{D-1}) / phi_0, by
    either potential route.  Membership in the extremal set is by verbatim
    array equality: a distinct array whose ratio merely coincides with an
    extremal value is still a VIOLATION.
    """
    _check_valency(arr)
    category, matched = _classify(arr, ratio.numerator, ratio.denominator)
    return BiggsVerdict(arr, category, ratio, matched)


def _check_valency(arr: IntersectionArray) -> None:
    if arr.k <= 2:
        raise ValueError(f"classification needs valency >= 3, got k = {arr.k}")


_THRESHOLD_P, _THRESHOLD_Q = BIGGS_THRESHOLD.numerator, BIGGS_THRESHOLD.denominator


def _classify(arr: IntersectionArray, p: int, q: int) -> tuple[BiggsClass, Optional[str]]:
    """`classify_ratio`'s rule on the ratio p/q, q > 0, of an array of
    valency >= 3: its category and matched extremal name.  Below the
    threshold is decided by one cross-multiplication; only a ratio at or
    above it is looked up in the extremal set."""
    if p * _THRESHOLD_Q < _THRESHOLD_P * q:
        return BiggsClass.PASS_STRICT, None
    for entry in _EXTREMAL:
        if arr == entry.array:
            return BiggsClass.EXTREMAL, entry.name
    return BiggsClass.VIOLATION, None


PIPELINE_ORDER = ("basic", "integrality", "n_max", "divisibility", "head_bound", "biggs")

# the stages' outcome of an array: (array, (n's numerator, n's denominator),
# p, q, first_failing_check, category, matched_extremal), p/q the reduced
# ratio; the last four but the check are None unless the biggs stage ran
_Outcome = tuple[IntersectionArray, tuple[int, int], Optional[int], Optional[int], str, Optional[BiggsClass], Optional[str]]


def _screened_out(arr: IntersectionArray, stage: str) -> _Outcome:
    """The outcome of an array that `stage` screens out, n from its halves."""
    return arr, _vertex_terms(arr), None, None, stage, None, None


def _stages(n_max: Optional[int], arr: IntersectionArray, weights: Optional[Sequence[int]]) -> _Outcome:
    """The stages after `basic`, up to the first failure, of an array of
    valency >= 3 that passes it, from its shells W_0 ... W_D over W_0, each
    a multiple of it, or None if one is not whole; n_max applies if given.
    Integrality screens shells only: a half-integral m (odd n times odd k)
    still reaches the classification, by `classify_ratio`'s integer rule."""
    if weights is None:
        return _screened_out(arr, "integrality")
    n = sum(weights) // weights[0]
    if n_max is not None and n > n_max:
        return arr, (n, 1), None, None, "n_max", None, None
    b, c = arr.b, arr.c
    if not _divisibility_holds(b, c):
        return arr, (n, 1), None, None, "divisibility", None, None
    if not _head_bound_holds(b, c):
        return arr, (n, 1), None, None, "head_bound", None, None
    p, q = _closed_form_ratio(b, weights)
    category, matched = _classify(arr, p, q)
    return arr, (n, 1), p, q, "biggs_violation" if category is BiggsClass.VIOLATION else "pass", category, matched
