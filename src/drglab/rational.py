"""Shared exact-arithmetic helpers: half-even decimal rendering, rationals
as reduced (numerator, denominator) pairs of ints, and a fraction-free
(Bareiss) integer linear solver for several right-hand sides at once."""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Iterable, Sequence


def decimal_string(value: Fraction, places: int = 6) -> str:
    """Fixed-point decimal rendering of an exact rational, half-even.

    One integer division of |p| * 10^places by q; the remainder decides the
    rounding (ties to the even last digit).  A negative value keeps its
    sign even when it rounds to zero.
    """
    if places < 0:
        raise ValueError("places must be >= 0")
    return _decimal(value.numerator, value.denominator, places)


def _decimal(p: int, q: int, places: int = 6) -> str:
    """`decimal_string` of p/q, for q > 0 and places >= 0."""
    scale = 10**places
    whole, rem = divmod(abs(p) * scale, q)
    if 2 * rem > q or (2 * rem == q and whole & 1):
        whole += 1
    sign = "-" if p < 0 else ""
    if places == 0:
        return f"{sign}{whole}"
    return "%s%d.%0*d" % (sign, whole // scale, places, whole % scale)


def _reduced(p: int, q: int) -> tuple[int, int]:
    """p/q in lowest terms as (numerator, denominator), for q > 0: the pair
    that `Fraction(p, q)` holds, without building it."""
    g = math.gcd(p, q)
    return p // g, q // g


def _fractions(terms: Iterable[tuple[int, int]]) -> tuple[Fraction, ...]:
    """The `Fraction` of each (numerator, denominator) pair."""
    return tuple(Fraction(p, q) for p, q in terms)


def _terms(values: Iterable[Fraction]) -> list[tuple[int, int]]:
    """The (numerator, denominator) pair of each `Fraction`."""
    return [(value.numerator, value.denominator) for value in values]


def _over_one_denominator(values: Sequence[Fraction]) -> tuple[int, list[int]]:
    """The least common denominator of the values and their numerators over it."""
    return _common_terms(_terms(values))


def _common_terms(terms: Sequence[tuple[int, int]]) -> tuple[int, list[int]]:
    """The least common denominator of (numerator, denominator) pairs, each
    denominator positive, and their numerators over it."""
    den = math.lcm(*(q for _, q in terms))
    return den, [p * (den // q) for p, q in terms]


def solve_exact(
    matrix: Sequence[Sequence[int]], columns: Sequence[Sequence[int]]
) -> tuple[int, list[list[int]]]:
    """Solve A x = b for several integer right-hand sides at once.

    Fraction-free Bareiss elimination (Bareiss 1968): every intermediate
    entry is a minor of the augmented matrix, so each division is exact and
    nothing leaves the integers.  Returns det(A) and, for each column b,
    the integer vector det(A) * x; with no columns it is a determinant.
    A zero pivot is replaced by swapping in the first row below it with a
    nonzero entry in that column.
    """
    n = len(matrix)
    if any(len(row) != n for row in matrix) or any(len(b) != n for b in columns):
        raise ValueError("matrix must be square and match rhs length")
    # row r holds A[r] followed by every column's entry r
    rows = [list(row) + [b[r] for b in columns] for r, row in enumerate(matrix)]
    upper = []  # upper[k]: row k of the eliminated system, from column k on
    sign, prev = 1, 1
    for _ in range(n):
        pivot_row = next((r for r, row in enumerate(rows) if row[0]), None)
        if pivot_row is None:
            raise ValueError("singular matrix")
        if pivot_row:
            rows[0], rows[pivot_row] = rows[pivot_row], rows[0]
            sign = -sign
        head = rows.pop(0)
        upper.append(head)
        pivot, tail = head[0], head[1:]
        for r, row in enumerate(rows):
            lead = row[0]
            if lead:
                rows[r] = [(pivot * x - lead * y) // prev for x, y in zip(row[1:], tail)]
            else:
                rows[r] = [pivot * x // prev for x in row[1:]]
        prev = pivot
    det = sign * prev

    solutions = []
    for c in range(len(columns)):
        y = [0] * n
        for k in range(n - 1, -1, -1):
            row = upper[k]
            acc = det * row[n - k + c] - sum(map(operator.mul, row[1 : n - k], y[k + 1 :]))
            y[k] = acc // row[0]
        solutions.append(y)
    return det, solutions
