"""The `verify` command's library: `verify_graph` grounds every formula of a
graph's verified array on the graph itself, through the harmonic function,
the exact resistance oracle and the spectral chain, with the verdict.

The oracle proves its rows in integers: the array's d_j predict the
hitting time m d_j between vertices at distance j, and by the commute-time
identity H(s->t) + H(t->s) = 2 m R(s, t) (Chandra, Raghavan, Ruzzo,
Smolensky and Tiwari 1989) an exact check of those hitting times at both
ends of a pair proves R(s, t) = d_j.  Only a pair with an end that fails
the check is solved, by `effective_resistances`, whose value it prints.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .analysis import _gap_terms
from .arrays import IntersectionArray, _Record
from .circuits import (
    PotentialAssignment,
    _harmonic_function,
    _hitting_times_hold,
    check_harmonicity,
    effective_resistances,
    laplacian_spectral_gap,
    measure_current,
)
from .graphs import ExplicitGraph, RegularityFailure, bfs_distances, verify_distance_regular
from .potentials import potentials_recursive
from .rational import _fractions, _over_one_denominator
from .resistance import ResistanceProfile, resistance_profile

SIGMA_TOL = 1e-8  # slack for the eigensolver's sigma against the exact 1/(n d_D)


class SpectralCheckReport(_Record):
    """The chain sigma >= 1/(n d_D) >= k/(4(n-1)) on one graph."""

    def __init__(
        self,
        sigma: float,
        resistance_gap_bound: Fraction,
        spectral_lower_bound: Fraction,
        sigma_holds: bool,  # sigma >= 1/(n d_D) within SIGMA_TOL
        middle_holds: bool,  # exact rational comparison
    ) -> None:
        self.__dict__.update(
            sigma=sigma,
            resistance_gap_bound=resistance_gap_bound,
            spectral_lower_bound=spectral_lower_bound,
            sigma_holds=sigma_holds,
            middle_holds=middle_holds,
        )


def spectral_check(g: ExplicitGraph, arr: IntersectionArray) -> SpectralCheckReport:
    """Verify the spectral-gap chain on an explicit graph.

    The graph must verify as distance-regular with exactly `arr`; the two
    rational bounds are compared exactly, the eigensolver side within
    `SIGMA_TOL`.
    """
    verified = verify_distance_regular(g)
    if not isinstance(verified, IntersectionArray) or verified != arr:
        raise ValueError(f"graph verifies as {verified}, expected {arr}")
    return _spectral_report(g, resistance_profile(arr))


def _spectral_report(g: ExplicitGraph, profile: ResistanceProfile) -> SpectralCheckReport:
    """`spectral_check` on a graph already verified with the profile's array."""
    d = profile.d[-1]
    gap_bound, spectral_floor = _fractions(_gap_terms(profile.k, profile.n, (d.numerator, d.denominator)))
    sigma = laplacian_spectral_gap(g)
    return SpectralCheckReport(
        sigma=sigma,
        resistance_gap_bound=gap_bound,
        spectral_lower_bound=spectral_floor,
        sigma_holds=sigma >= float(gap_bound) - SIGMA_TOL,
        middle_holds=gap_bound >= spectral_floor,
    )


class OracleRow(NamedTuple):
    """One checked pair: its exact resistance against the formula d_j, the
    formula's own value when the hitting-time check proves them equal, the
    Laplacian solve's otherwise."""

    distance: int
    pair: tuple[int, int]
    oracle: Fraction
    formula: Fraction
    equal: bool


class VerifyReport(_Record):
    """Every formula of the verified array, grounded on one explicit graph."""

    def __init__(
        self,
        array: IntersectionArray,
        harmonic: PotentialAssignment,  # terminals 0 and its first neighbor
        residual: Fraction,  # largest neighbor-sum residual off the terminals
        current: Fraction,  # measured current out of harmonic.u
        oracle: tuple[OracleRow, ...],
        spectral: SpectralCheckReport,
    ) -> None:
        self.__dict__.update(array=array, harmonic=harmonic, residual=residual, current=current, oracle=oracle, spectral=spectral)

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
    verified = verify_distance_regular(g)
    if not isinstance(verified, IntersectionArray):
        return verified
    harmonic = _harmonic_function(g, 0, g.adjacency[0][0], potentials_recursive(verified))
    residual, current = check_harmonicity(g, harmonic), measure_current(g, harmonic)
    profile = resistance_profile(verified)
    return VerifyReport(verified, harmonic, residual, current, _oracle_rows(g, profile, exhaustive), _spectral_report(g, profile))


def _oracle_rows(g: ExplicitGraph, profile: ResistanceProfile, exhaustive: bool) -> tuple[OracleRow, ...]:
    """The oracle's rows at 0 and the first vertex at each distance from it,
    or at every pair, by distance, if `exhaustive`.

    The hitting times H_j = m d_j of the profile's d_j, over one denominator
    q, are checked at every end of a checked pair, with the BFS row from it
    that also gives the pairs; a pair whose two ends pass has R = d_j, and
    the others are measured by `effective_resistances`.
    """
    q, scaled = _over_one_denominator([0, *profile.d])
    H = [g.m * s for s in scaled]
    held: dict[int, bool] = {}
    if exhaustive:
        pairs_at: dict[int, list[tuple[int, int]]] = {}
        for t in range(g.n):
            row = bfs_distances(g, t)
            held[t] = _hitting_times_hold(g, t, row, H, q)
            for y in range(t + 1, g.n):
                pairs_at.setdefault(row[y], []).append((t, y))
        checked = [(j, pair) for j in sorted(pairs_at) for pair in pairs_at[j]]
    else:
        row = bfs_distances(g, 0)
        checked = [(j, (0, row.index(j))) for j in range(1, max(row) + 1)]
        held[0] = _hitting_times_hold(g, 0, row, H, q)
        for _, (_, v) in checked:
            held[v] = _hitting_times_hold(g, v, bfs_distances(g, v), H, q)
    failing = [pair for _, pair in checked if not (held[pair[0]] and held[pair[1]])]
    measured = dict(zip(failing, effective_resistances(g, failing))) if failing else {}
    rows = []
    for j, pair in checked:
        d = profile.at(j)
        r = measured.get(pair, d)
        rows.append(OracleRow(j, pair, r, d, r == d))
    return tuple(rows)
