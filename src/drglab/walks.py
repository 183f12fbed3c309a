"""Random-walk consequences of the resistance formulas: exact commute times,
the hitting/commute/cover bounds, the spectral-gap chain, seeded Monte Carlo
estimation of hitting times on explicit graphs, and the three reports the
CLI renders: `analyze_array`, every screen and formula of one array with its
verdict, `verify_graph`, which grounds every formula of a graph's verified
array on the graph itself: the harmonic function, the exact oracle and the
spectral chain, with the verdict, and `walk_graph`, a seeded hitting time
against the exact m d_j.

Seeded contract: every walk step picks the `c`-th entry of the current
vertex's sorted adjacency list, where `c` runs through the stream that
`random.Random(seed).randrange(degree)` returns call after call.  That
stream is drawn in bulk: one `getrandbits(32 * size)` call gives the next
`size` Mersenne Twister words, lowest word first; each word is shifted right
to `degree.bit_length()` bits and kept only if it is below `degree`, the
same shift and rejection as CPython's `Random._randbelow_with_getrandbits`.
So a (seed, trials) pair pins the estimate exactly, and the seed must be a
non-negative int (`random.Random` folds a negative seed onto its absolute
value).  One stream serves every vertex, so the simulators take regular
graphs only, as every distance-regular graph is.  Step counts accumulate as
exact integers before any division, keeping results independent of
summation order.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import chain
from typing import TYPE_CHECKING, Callable, Iterator, NamedTuple

from .arrays import (
    CheckResult,
    DistanceDistribution,
    FeasibilityReport,
    HeadBound,
    IntersectionArray,
    check_divisibility,
    compute_distance_distribution,
    diameter_head_bound,
    validate_basic,
)
from .potentials import PotentialSequence, potentials_recursive
from .resistance import BiggsClass, BiggsVerdict, ResistanceProfile, classify_ratio, profile_from_distribution, resistance_profile

# the graph side imports circuits and graphs when it is called, so that the
# array side (analyze) does not load them
if TYPE_CHECKING:
    from .circuits import PotentialAssignment
    from .graphs import ExplicitGraph, RegularityFailure

SIGMA_TOL = 1e-8  # slack for the eigensolver's sigma against the exact 1/(n d_D)


@dataclass(frozen=True)
class WalkBoundsReport:
    """Exact commute times and the universal bounds they must respect."""

    array: IntersectionArray
    n: int
    m: Fraction
    commute_times: tuple[Fraction, ...]
    hitting_bound: int  # 2(n-1)
    commute_bound: int  # 4(n-1)
    cover_bound_dominant: float  # 4(n-1) ln n, asymptotic dominant term
    spectral_lower_bound: Fraction  # k / (4(n-1))
    resistance_gap_bound: Fraction  # 1 / (n d_D)
    middle_inequality_holds: bool  # 1/(n d_D) >= k/(4(n-1)), exact
    over_commute_bound: tuple[int, ...]  # distances j with C_j > 4(n-1)


def commute_time(arr: IntersectionArray, j: int) -> Fraction:
    """Expected round-trip steps between vertices at distance j: 2 m d_j."""
    profile = resistance_profile(arr)
    if not 1 <= j <= arr.D:
        raise ValueError(f"distance {j} outside 1..{arr.D}")
    return _commute(profile.m, profile.at(j))


def _commute(m: Fraction, d: Fraction) -> Fraction:
    """2 m d as one `Fraction` of integers."""
    return Fraction(2 * m.numerator * d.numerator, m.denominator * d.denominator)


def _gap_bounds(profile: ResistanceProfile) -> tuple[Fraction, Fraction]:
    """1/(n d_D) and k/(4(n-1)); unlike `walk_bounds`, defined for every valency."""
    d = profile.d[-1]
    return Fraction(d.denominator, profile.n * d.numerator), Fraction(profile.k, 4 * (profile.n - 1))


def walk_bounds(arr: IntersectionArray) -> WalkBoundsReport:
    """`walk_bounds_from_profile` on the array's own resistance profile."""
    return walk_bounds_from_profile(arr, resistance_profile(arr))


def walk_bounds_from_profile(arr: IntersectionArray, profile: ResistanceProfile) -> WalkBoundsReport:
    """Commute times and walk bounds of an array from its resistance profile."""
    if arr.k <= 2:
        raise ValueError(f"walk bounds need valency >= 3, got k = {arr.k}")
    n, m = profile.n, profile.m
    commutes = tuple(_commute(m, d) for d in profile.d)
    commute_cap = 4 * (n - 1)
    gap_bound, spectral_floor = _gap_bounds(profile)
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


@dataclass(frozen=True)
class MonteCarloEstimate:
    mean: float
    stderr: float
    trials: int
    seed: int


def _estimate(total: int, total_sq: int, trials: int, seed: int) -> MonteCarloEstimate:
    """Sample mean and its standard error from exact integer step sums."""
    mean = total / trials
    if trials > 1:
        variance = (total_sq - total * total / trials) / (trials - 1)
        stderr = math.sqrt(max(variance, 0.0) / trials)
    else:
        stderr = 0.0
    return MonteCarloEstimate(mean, stderr, trials, seed)


def _choices(seed: int, degree: int) -> Iterator[int]:
    """The `random.Random(seed).randrange(degree)` stream, drawn in bulk; degree >= 1."""
    import numpy as np

    rng = random.Random(seed)
    shift = 32 - degree.bit_length()

    def chunks() -> Iterator[list[int]]:
        size = 1024
        while True:
            words = np.frombuffer(rng.getrandbits(32 * size).to_bytes(4 * size, "little"), dtype="<u4") >> shift
            yield words[words < degree].tolist()
            size = min(2 * size, 16384)

    return chain.from_iterable(chunks())


def _walk_degree(g: ExplicitGraph, vertices: tuple[int, ...], trials: int, seed: int) -> int:
    """Check a simulation's arguments; return the graph's common degree."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    for x in vertices:
        if not 0 <= x < g.n:
            raise ValueError(f"vertex {x} outside 0..{g.n - 1}")
    degree = len(g.adjacency[0])
    if any(len(neighbors) != degree for neighbors in g.adjacency):
        raise ValueError("Monte Carlo walks need a regular graph")
    return degree


def simulate_hitting_time(
    g: ExplicitGraph, u: int, v: int, trials: int, seed: int
) -> MonteCarloEstimate:
    """Average steps of independent simple random walks from u until v."""
    if u == v:
        raise ValueError("hitting time needs distinct endpoints")
    choices = _choices(seed, _walk_degree(g, (u, v), trials, seed))
    adjacency = g.adjacency
    total = 0
    total_sq = 0
    for _ in range(trials):
        cur = u
        steps = 0
        for c in choices:  # resumes the one stream where the last trial stopped
            cur = adjacency[cur][c]
            steps += 1
            if cur == v:
                break
        total += steps
        total_sq += steps * steps
    return _estimate(total, total_sq, trials, seed)


def simulate_cover_time(
    g: ExplicitGraph, start: int, trials: int, seed: int
) -> MonteCarloEstimate:
    """Sanity harness for the cover bound; no acceptance threshold attached."""
    degree = _walk_degree(g, (start,), trials, seed)
    if g.n == 1:  # covered before any step; degree 0 has no choice stream
        return _estimate(0, 0, trials, seed)
    choices = _choices(seed, degree)
    adjacency = g.adjacency
    total = 0
    total_sq = 0
    for _ in range(trials):
        seen = bytearray(g.n)
        seen[start] = 1
        remaining = g.n - 1
        cur = start
        steps = 0
        for c in choices:
            cur = adjacency[cur][c]
            steps += 1
            if not seen[cur]:
                seen[cur] = 1
                remaining -= 1
                if not remaining:
                    break
        total += steps
        total_sq += steps * steps
    return _estimate(total, total_sq, trials, seed)


@dataclass(frozen=True)
class WalkReport:
    """A seeded hitting-time estimate between vertices at distance j against
    the exact m d_j, half the commute time 2 m d_j."""

    array: IntersectionArray
    distance: int
    pair: tuple[int, int]
    expected: Fraction
    estimate: MonteCarloEstimate

    @property
    def within_3_stderr(self) -> bool:
        return abs(self.estimate.mean - float(self.expected)) <= 3 * self.estimate.stderr


def walk_graph(g: ExplicitGraph, from_distance: int, trials: int, seed: int) -> Callable[[], WalkReport] | RegularityFailure:
    """The graph's `RegularityFailure`, or a run that simulates the walks
    from 0 to the first vertex at `from_distance` when called and returns
    their `WalkReport`.  Every refusal comes at the call: a `ValueError` for
    a distance outside 1..D, trials < 1 or seed < 0."""
    from .circuits import representative_pairs
    from .graphs import verify_distance_regular

    verified = verify_distance_regular(g)
    if not isinstance(verified, IntersectionArray):
        return verified
    if not 1 <= from_distance <= verified.D:
        raise ValueError(f"--from-distance must lie in 1..{verified.D}")
    pair = representative_pairs(g)[from_distance]
    _walk_degree(g, pair, trials, seed)
    profile = resistance_profile(verified)
    expected = profile.m * profile.at(from_distance)
    return lambda: WalkReport(verified, from_distance, pair, expected, simulate_hitting_time(g, *pair, trials, seed))


@dataclass(frozen=True)
class SpectralCheckReport:
    """The chain sigma >= 1/(n d_D) >= k/(4(n-1)) on one graph."""

    sigma: float
    resistance_gap_bound: Fraction
    spectral_lower_bound: Fraction
    sigma_holds: bool  # sigma >= 1/(n d_D) within SIGMA_TOL
    middle_holds: bool  # exact rational comparison


def spectral_check(g: ExplicitGraph, arr: IntersectionArray) -> SpectralCheckReport:
    """Verify the spectral-gap chain on an explicit graph.

    The graph must verify as distance-regular with exactly `arr`; the two
    rational bounds are compared exactly, the eigensolver side within
    `SIGMA_TOL`.
    """
    from .graphs import verify_distance_regular

    verified = verify_distance_regular(g)
    if not isinstance(verified, IntersectionArray) or verified != arr:
        raise ValueError(f"graph verifies as {verified}, expected {arr}")
    return _spectral_report(g, resistance_profile(arr))


def _spectral_report(g: ExplicitGraph, profile: ResistanceProfile) -> SpectralCheckReport:
    """`spectral_check` on a graph already verified with the profile's array."""
    from .circuits import laplacian_spectral_gap

    gap_bound, spectral_floor = _gap_bounds(profile)
    sigma = laplacian_spectral_gap(g)
    return SpectralCheckReport(
        sigma=sigma,
        resistance_gap_bound=gap_bound,
        spectral_lower_bound=spectral_floor,
        sigma_holds=sigma >= float(gap_bound) - SIGMA_TOL,
        middle_holds=gap_bound >= spectral_floor,
    )


class OracleRow(NamedTuple):
    """One checked pair: the exact Laplacian resistance against the formula d_j."""

    distance: int
    pair: tuple[int, int]
    oracle: Fraction
    formula: Fraction
    equal: bool


@dataclass(frozen=True)
class VerifyReport:
    """Every formula of the verified array, grounded on one explicit graph."""

    array: IntersectionArray
    harmonic: PotentialAssignment  # terminals 0 and its first neighbor
    residual: Fraction  # largest neighbor-sum residual off the terminals
    current: Fraction  # measured current out of harmonic.u
    oracle: tuple[OracleRow, ...]
    spectral: SpectralCheckReport

    @property
    def residual_zero(self) -> bool:
        return self.residual == 0

    @property
    def current_matches(self) -> bool:
        return self.current == self.harmonic.expected_current

    @property
    def middle_decides(self) -> bool:
        # the paper claims the middle inequality 1/(n d_D) >= k/(4(n-1)) only for k >= 3
        return self.array.k >= 3

    @property
    def spectral_ok(self) -> bool:
        return self.spectral.sigma_holds and (self.spectral.middle_holds or not self.middle_decides)

    @property
    def overall(self) -> bool:
        return self.residual_zero and self.current_matches and all(row.equal for row in self.oracle) and self.spectral_ok


def verify_graph(g: ExplicitGraph, exhaustive: bool = False) -> VerifyReport | RegularityFailure:
    """The graph's `RegularityFailure`, or its `VerifyReport` at one pair per
    distance (every pair if `exhaustive`); raises `NotConverged` if the
    eigensolver does."""
    from .circuits import (
        _harmonic_function,
        all_pairs_by_distance,
        check_harmonicity,
        effective_resistances,
        measure_current,
        representative_pairs,
    )
    from .graphs import verify_distance_regular

    verified = verify_distance_regular(g)
    if not isinstance(verified, IntersectionArray):
        return verified
    harmonic = _harmonic_function(g, 0, g.adjacency[0][0], potentials_recursive(verified))
    residual, current = check_harmonicity(g, harmonic), measure_current(g, harmonic)
    profile = resistance_profile(verified)
    if exhaustive:
        checked = [(j, pair) for j, pairs in all_pairs_by_distance(g).items() for pair in pairs]
    else:
        checked = list(representative_pairs(g).items())
    measured = effective_resistances(g, [pair for _, pair in checked])
    oracle = tuple(OracleRow(j, pair, r, profile.at(j), r == profile.at(j)) for (j, pair), r in zip(checked, measured))
    return VerifyReport(verified, harmonic, residual, current, oracle, _spectral_report(g, profile))


@dataclass(frozen=True)
class AnalyzeReport:
    """Every screen of one intersection array and, when it is realizable,
    its potentials, resistances, verdict and walk bounds."""

    feasibility: FeasibilityReport
    distribution: DistanceDistribution
    divisibility: CheckResult  # reported, not gating
    head: HeadBound  # reported, not gating
    potentials: PotentialSequence | None = None
    profile: ResistanceProfile | None = None
    verdict: BiggsVerdict | None = None
    bounds: WalkBoundsReport | None = None

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
    """The `AnalyzeReport` of an array; raises `ValueError` for a
    realizable array of valency k <= 2, which the classification excludes."""
    dist = compute_distance_distribution(arr)
    report = AnalyzeReport(validate_basic(arr), dist, check_divisibility(arr), diameter_head_bound(arr))
    if not report.realizable:
        return report
    profile = profile_from_distribution(arr, dist)
    verdict = classify_ratio(arr, profile.ratio)
    return replace(report, potentials=potentials_recursive(arr), profile=profile, verdict=verdict, bounds=walk_bounds_from_profile(arr, profile))
