"""Voltage sequences for the adjacent-terminal circuit on a candidate array.

Two independent routes to the same numbers: the downward recursion
phi_0 = n - 1, phi_i = (c_i phi_{i-1} - k) / b_i, and the closed form
phi_i = k * (sum of shell sizes beyond i) / e_i.  They must agree exactly;
keeping both alive is a permanent self-check.  The closed form reuses the
distance distribution its caller already holds (`resistance_profile`, the
catalog recomputation); the recursion reads n from the array alone and
builds no distribution, so the two routes share nothing.  The recursion is
the reference behind `classify_biggs`; `drglab analyze` prints it and
`drglab verify` builds its harmonic function from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .arrays import CheckResult, DistanceDistribution, IntersectionArray, _vertex_count

RECURSIVE = "recursive"
CLOSED_FORM = "closed-form"


class PropertyViolation(Exception):
    """A potential sequence breaking one of its structural guarantees."""

    def __init__(self, index: int, message: str):
        super().__init__(message)
        self.index = index


@dataclass(frozen=True)
class PotentialSequence:
    """Exact voltages phi_0 ... phi_D.

    The boundary value phi_D = 0 is stored as the last entry so consumers
    never special-case the end of the sequence.
    """

    array: IntersectionArray
    phi: tuple[Fraction, ...]
    source: str

    def ratio(self) -> Fraction:
        """(phi_1 + ... + phi_{D-1}) / phi_0, the head-to-tail resistance ratio."""
        return sum(self.phi[1:-1], Fraction(0)) / self.phi[0]


def potentials_recursive(arr: IntersectionArray) -> PotentialSequence:
    """Evaluate the recursion phi_i = (c_i phi_{i-1} - k) / b_i."""
    phi = [_vertex_count(arr) - 1]
    for i in range(1, arr.D):
        phi.append((arr.c[i - 1] * phi[-1] - arr.k) / arr.b[i])
    phi.append(Fraction(0))
    return PotentialSequence(arr, tuple(phi), RECURSIVE)


def potentials_closed_form(arr: IntersectionArray, dist: DistanceDistribution) -> PotentialSequence:
    """Evaluate phi_i = k * sum_{j>i} k_j / e_i from precomputed counts."""
    suffix = Fraction(0)
    reversed_phi = [Fraction(0)]
    for i in range(arr.D - 1, -1, -1):
        suffix += dist.k_sizes[i + 1]
        reversed_phi.append(arr.k * suffix / dist.e[i])
    return PotentialSequence(arr, tuple(reversed(reversed_phi)), CLOSED_FORM)


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
