"""Voltage sequences for the adjacent-terminal circuit on a candidate array.

Two independent routes to the same numbers: the downward recursion
phi_0 = n - 1, phi_i = (c_i phi_{i-1} - k) / b_i, and the closed form
phi_i = k * (sum of shell sizes beyond i) / e_i.  They must agree exactly;
keeping both alive is a permanent self-check.  The closed form reuses the
distance distribution its caller already holds (`resistance_profile`,
analyze); the recursion reads n from the array alone and builds no
distribution, so the two routes share nothing.  The recursion is the
reference behind `classify_biggs`; `drglab analyze` prints it and `drglab
verify` builds its harmonic function from it.

Both routes run in ints, as (numerator, denominator) pairs that `drglab
analyze` reduces and renders and the `PotentialSequence` functions wrap in
one `Fraction` each.  The closed form reads the shells over one common
denominator as integers W_j, so phi_i = k * sum_{j>i} W_j / (W_i b_i); the
recursion carries the numerator of phi_i over den * b_1 ... b_i.  `ratio`
sums a sequence's potentials over their lcm; the recursion's ratio checks
the one closed-form ratio, `resistance._closed_form_ratio`, of the shells.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .arrays import CheckResult, DistanceDistribution, IntersectionArray, _Record, _vertex_count, _vertex_terms
from .rational import _common_terms, _fractions, _over_one_denominator, _reduced, _terms

RECURSIVE = "recursive"
CLOSED_FORM = "closed-form"


class PropertyViolation(Exception):
    """A potential sequence breaking one of its structural guarantees."""

    def __init__(self, index: int, message: str):
        super().__init__(message)
        self.index = index


class PotentialSequence(_Record):
    """Exact voltages phi_0 ... phi_D.

    The boundary value phi_D = 0 is stored as the last entry so consumers
    never special-case the end of the sequence.
    """

    def __init__(self, array: IntersectionArray, phi: tuple[Fraction, ...], source: str) -> None:
        self.__dict__.update(array=array, phi=phi, source=source)

    def ratio(self) -> Fraction:
        """(phi_1 + ... + phi_{D-1}) / phi_0, the head-to-tail resistance ratio."""
        return Fraction(*_ratio_terms(_terms(self.phi)))


def _ratio_terms(terms: Sequence[tuple[int, int]]) -> tuple[int, int]:
    """`PotentialSequence.ratio` of potentials given as (numerator,
    denominator) pairs, reduced or not, as a reduced pair."""
    scaled = _common_terms(terms)[1]
    return _reduced(sum(scaled[1:-1]), scaled[0])


def potentials_recursive(arr: IntersectionArray) -> PotentialSequence:
    """Evaluate the recursion phi_i = (c_i phi_{i-1} - k) / b_i."""
    return PotentialSequence(arr, _fractions(_recursive_terms(arr)), RECURSIVE)


def _recursive_terms(arr: IntersectionArray) -> list[tuple[int, int]]:
    """`potentials_recursive` as (numerator, denominator) pairs, not reduced:
    phi_i over n's denominator times b_1 ... b_i."""
    num, den = _vertex_terms(arr)
    num -= den
    k, phi = arr.k, [(num, den)]
    for c, b in zip(arr.c, arr.b[1:]):
        num, den = c * num - k * den, den * b
        phi.append((num, den))
    phi.append((0, 1))
    return phi


def potentials_closed_form(arr: IntersectionArray, dist: DistanceDistribution) -> PotentialSequence:
    """Evaluate phi_i = k * sum_{j>i} k_j / e_i from precomputed counts."""
    weights = _over_one_denominator(dist.k_sizes)[1]
    return PotentialSequence(arr, _fractions(_closed_form_terms(arr, weights)), CLOSED_FORM)


def _closed_form_terms(arr: IntersectionArray, weights: Sequence[int]) -> list[tuple[int, int]]:
    """`potentials_closed_form` as (numerator, denominator) pairs, not
    reduced, from the shells W_j over any one denominator:
    phi_i = k * sum_{j>i} W_j / (W_i b_i)."""
    suffix = 0
    reversed_phi = [(0, 1)]
    for i in range(arr.D - 1, -1, -1):
        suffix += weights[i + 1]
        reversed_phi.append((arr.k * suffix, weights[i] * arr.b[i]))
    reversed_phi.reverse()
    return reversed_phi


def check_potential_properties(p: PotentialSequence, arr: IntersectionArray) -> tuple[CheckResult, ...]:
    """Verify phi_0 = n - 1, strict decrease, positivity, phi_{D-1} = k/c_D.

    All comparisons exact.  Raises PropertyViolation at the first failure;
    returns the passing check list otherwise.
    """
    if p.array != arr:
        raise PropertyViolation(-1, f"sequence was computed for {p.array}, not {arr}")
    D = arr.D
    if len(p.phi) != D + 1 or p.phi[-1] != 0:
        raise PropertyViolation(D, "sequence must end with phi_D = 0")

    n = _vertex_count(arr)
    if p.phi[0] != n - 1:
        raise PropertyViolation(0, f"phi_0 = {p.phi[0]} but n - 1 = {n - 1}")
    for i in range(D):
        if p.phi[i] <= p.phi[i + 1]:
            raise PropertyViolation(i, f"phi_{i} = {p.phi[i]} not above phi_{i + 1} = {p.phi[i + 1]}")
    # the strict decrease down to phi_D = 0 leaves phi_{D-1} positive
    boundary = Fraction(arr.k, arr.c[-1])
    if p.phi[D - 1] != boundary:
        raise PropertyViolation(D - 1, f"phi_{D - 1} = {p.phi[D - 1]} but k/c_D = {boundary}")

    return (
        CheckResult("phi0_equals_n_minus_1", True, f"phi_0 = {p.phi[0]}"),
        CheckResult("strictly_decreasing", True, "phi_0 > phi_1 > ... > phi_D = 0"),
        CheckResult("positive_before_boundary", True, f"phi_{D - 1} = {p.phi[D - 1]} > 0"),
        CheckResult("boundary_value", True, f"phi_{D - 1} = k/c_D = {boundary}"),
    )
