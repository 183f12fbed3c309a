"""The `analyze` command's library: `_analysis`, the integer kernel of every
screen, formula and verdict of one array, which the CLI renders and
`analyze_array` builds its `AnalyzeReport` from, and the exact commute times
and walk bounds the report prints.  It loads no graph code.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Optional, Sequence

from .arrays import (
    CheckResult,
    DistanceDistribution,
    FeasibilityReport,
    HeadBound,
    IntersectionArray,
    _Counts,
    _distribution,
    _distribution_terms,
    _Record,
    check_divisibility,
    diameter_head_bound,
    validate_basic,
)
from .potentials import RECURSIVE, PotentialSequence, _closed_form_terms, _ratio_terms, _recursive_terms
from .rational import _fractions, _reduced, _terms
from .resistance import (
    BiggsClass,
    BiggsVerdict,
    ResistanceProfile,
    _check_valency,
    _classify,
    _closed_form_ratio,
    _profile,
    _profile_terms,
    _stages,
    resistance_profile,
)


class WalkBoundsReport(_Record):
    """Exact commute times and the universal bounds they must respect."""

    def __init__(
        self,
        array: IntersectionArray,
        n: int,
        m: Fraction,
        commute_times: tuple[Fraction, ...],
        hitting_bound: int,  # 2(n-1)
        commute_bound: int,  # 4(n-1)
        cover_bound_dominant: float,  # 4(n-1) ln n, asymptotic dominant term
        spectral_lower_bound: Fraction,  # k / (4(n-1))
        resistance_gap_bound: Fraction,  # 1 / (n d_D)
        middle_inequality_holds: bool,  # 1/(n d_D) >= k/(4(n-1)), exact
        over_commute_bound: tuple[int, ...],  # distances j with C_j > 4(n-1)
    ) -> None:
        self.__dict__.update(
            array=array,
            n=n,
            m=m,
            commute_times=commute_times,
            hitting_bound=hitting_bound,
            commute_bound=commute_bound,
            cover_bound_dominant=cover_bound_dominant,
            spectral_lower_bound=spectral_lower_bound,
            resistance_gap_bound=resistance_gap_bound,
            middle_inequality_holds=middle_inequality_holds,
            over_commute_bound=over_commute_bound,
        )


def commute_time(arr: IntersectionArray, j: int) -> Fraction:
    """Expected round-trip steps between vertices at distance j: 2 m d_j."""
    profile = resistance_profile(arr)
    if not 1 <= j <= arr.D:
        raise ValueError(f"distance {j} outside 1..{arr.D}")
    return Fraction(*_commute_terms(*_terms((profile.m, profile.at(j)))))


def _commute_terms(m: tuple[int, int], d: tuple[int, int]) -> tuple[int, int]:
    """2 m d for m and d as reduced (numerator, denominator) pairs, reduced."""
    return _reduced(2 * m[0] * d[0], m[1] * d[1])


def _gap_terms(k: int, n: int, d: tuple[int, int]) -> tuple[tuple[int, int], tuple[int, int]]:
    """1/(n d_D) and k/(4(n-1)) as reduced pairs, from d_D; for every valency."""
    return _reduced(d[1], n * d[0]), _reduced(k, 4 * (n - 1))


def walk_bounds(arr: IntersectionArray) -> WalkBoundsReport:
    """Commute times and walk bounds of an array from its resistance profile."""
    profile = resistance_profile(arr)
    if arr.k <= 2:
        raise ValueError(f"walk bounds need valency >= 3, got k = {arr.k}")
    m = profile.m
    return _bounds(arr, profile.n, m, _bounds_terms(arr.k, profile.n, (m.numerator, m.denominator), _terms(profile.d)))


# the walk bounds in ints, each rational a reduced (numerator, denominator)
# pair: (commute_times, hitting_bound, commute_bound, cover_bound_dominant,
# spectral_lower_bound, resistance_gap_bound, middle_inequality_holds,
# over_commute_bound), in `WalkBoundsReport`'s order
_Bounds = tuple[list[tuple[int, int]], int, int, float, tuple[int, int], tuple[int, int], bool, tuple[int, ...]]


def _bounds_terms(k: int, n: int, m: tuple[int, int], d: Sequence[tuple[int, int]]) -> _Bounds:
    """`walk_bounds` in ints, from n, m and the d_j."""
    commutes = [_commute_terms(m, d_j) for d_j in d]
    commute_cap = 4 * (n - 1)
    gap_bound, spectral_floor = _gap_terms(k, n, d[-1])
    return (
        commutes,
        2 * (n - 1),
        commute_cap,
        commute_cap * math.log(n),
        spectral_floor,
        gap_bound,
        gap_bound[0] * spectral_floor[1] >= spectral_floor[0] * gap_bound[1],
        tuple(j + 1 for j, (p, q) in enumerate(commutes) if p > commute_cap * q),
    )


def _bounds(arr: IntersectionArray, n: int, m: Fraction, terms: _Bounds) -> WalkBoundsReport:
    """The `WalkBoundsReport` of `_bounds_terms`' values."""
    commutes, hitting, commute_cap, cover, spectral_floor, gap_bound, middle, over = terms
    return WalkBoundsReport(
        array=arr,
        n=n,
        m=m,
        commute_times=_fractions(commutes),
        hitting_bound=hitting,
        commute_bound=commute_cap,
        cover_bound_dominant=cover,
        spectral_lower_bound=Fraction(*spectral_floor),
        resistance_gap_bound=Fraction(*gap_bound),
        middle_inequality_holds=middle,
        over_commute_bound=over,
    )


class AnalyzeReport(_Record):
    """Every screen of one intersection array and, when it is realizable,
    its potentials, resistances, verdict and walk bounds."""

    def __init__(
        self,
        feasibility: FeasibilityReport,
        distribution: DistanceDistribution,
        divisibility: CheckResult,  # reported, not gating
        head: HeadBound,  # reported, not gating
        potentials: PotentialSequence | None = None,
        profile: ResistanceProfile | None = None,
        verdict: BiggsVerdict | None = None,
        bounds: WalkBoundsReport | None = None,
    ) -> None:
        self.__dict__.update(
            feasibility=feasibility,
            distribution=distribution,
            divisibility=divisibility,
            head=head,
            potentials=potentials,
            profile=profile,
            verdict=verdict,
            bounds=bounds,
        )

    @property
    def realizable(self) -> bool:
        return self.feasibility.overall and self.distribution.shells_integral

    @functools.cached_property
    def _recursion_ratio(self) -> Fraction:
        """The ratio of the recursion's potentials, computed once per report."""
        return self.potentials.ratio()

    @property
    def routes_agree(self) -> bool:
        """Whether the recursion's potentials give the ratio the closed form
        classified by; true when nothing was derived."""
        return self.potentials is None or self._recursion_ratio == self.profile.ratio

    @property
    def passed(self) -> bool:
        return self.realizable and self.routes_agree and self.verdict.category is not BiggsClass.VIOLATION


def analyze_array(arr: IntersectionArray) -> AnalyzeReport:
    """The `AnalyzeReport` of an array, the library's form of `_analysis`;
    raises `ValueError` for a realizable array of valency k <= 2, which the
    classification excludes."""
    return _report(arr, _analysis(arr))


# analyze's kernel result, rationals as reduced (numerator, denominator) pairs:
# (feasibility, counts, divisibility, head, derived, stages), counts as
# `arrays._distribution_terms` gives them, derived None unless the array is
# realizable, else (phi, d, ratio, K, recursion_ratio, category, matched,
# bounds), phi the recursion's potentials, ratio the closed form's; stages,
# not printed or gated on, is the scan's (first_failing_check, class, matched)
_Analysis = tuple[FeasibilityReport, _Counts, CheckResult, HeadBound, Optional[tuple], tuple[str, Optional[BiggsClass], Optional[str]]]


def _analysis(arr: IntersectionArray) -> _Analysis:
    """Every screen of an array, its stages and, when it is realizable,
    every value its report prints, in ints, with no `Fraction` built.
    Raises `ValueError` for a realizable array of valency k <= 2."""
    feasibility, counts = validate_basic(arr), _distribution_terms(arr)
    if feasibility.overall and counts[5]:  # whole shells: the report's `realizable`
        outcome = _stages(None, arr, counts[6])
        derived, stages = _derived(arr, counts, outcome), outcome[4:]
    else:  # screened out, with no stage after the failing one run
        derived, stages = None, ("integrality" if feasibility.overall else "basic", None, None)
    return feasibility, counts, check_divisibility(arr), diameter_head_bound(arr), derived, stages


def _derived(arr: IntersectionArray, counts: _Counts, outcome: tuple) -> tuple:
    """The derived part of `_analysis` for an array of whole shells with
    these counts and stages.  The verdict reads the closed form's ratio, the
    stages' unless a screen stopped them short of it; the recursion's ratio,
    summed from its own potentials, is the cross-check."""
    _check_valency(arr)
    _, (n, _), _, m, _, _, weights = counts
    _, _, p, q, _, category, matched = outcome
    if p is None:
        p, q = _closed_form_ratio(arr.b, weights)
        category, matched = _classify(arr, p, q)
    d = _profile_terms(arr.k, n, _closed_form_terms(arr, weights))
    phi = _recursive_terms(arr)
    reduced_phi = [_reduced(num, den) for num, den in phi]
    return reduced_phi, d, (p, q), (p + q, q), _ratio_terms(phi), category, matched, _bounds_terms(arr.k, n, m, d)


def _report(arr: IntersectionArray, analysis: _Analysis) -> AnalyzeReport:
    """The `AnalyzeReport` of a kernel result."""
    feasibility, counts, divisibility, head, derived, _ = analysis
    dist = _distribution(counts)
    if derived is None:
        return AnalyzeReport(feasibility, dist, divisibility, head)
    # the report sums the recursion's ratio from its own potentials when asked
    phi, d, ratio, _, _, category, matched, bounds = derived
    profile = _profile(arr, dist, d, ratio)
    return AnalyzeReport(
        feasibility,
        dist,
        divisibility,
        head,
        PotentialSequence(arr, _fractions(phi), RECURSIVE),
        profile,
        BiggsVerdict(arr, category, profile.ratio, matched),
        _bounds(arr, profile.n, dist.m, bounds),
    )
