"""The `verify` command's library: `verify_graph` grounds every formula of a
graph's verified array on the graph itself, through the harmonic function,
the exact resistance oracle and the spectral chain, with the verdict.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .analysis import _gap_terms
from .arrays import IntersectionArray, _Record
from .circuits import (
    PotentialAssignment,
    _harmonic_function,
    all_pairs_by_distance,
    check_harmonicity,
    effective_resistances,
    laplacian_spectral_gap,
    measure_current,
    representative_pairs,
)
from .graphs import ExplicitGraph, RegularityFailure, verify_distance_regular
from .potentials import potentials_recursive
from .rational import _fractions
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
    """One checked pair: the exact Laplacian resistance against the formula d_j."""

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
    if exhaustive:
        checked = [(j, pair) for j, pairs in all_pairs_by_distance(g).items() for pair in pairs]
    else:
        checked = list(representative_pairs(g).items())
    measured = effective_resistances(g, [pair for _, pair in checked])
    oracle = tuple(OracleRow(j, pair, r, profile.at(j), r == profile.at(j)) for (j, pair), r in zip(checked, measured))
    return VerifyReport(verified, harmonic, residual, current, oracle, _spectral_report(g, profile))
