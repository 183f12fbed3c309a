"""Intersection arrays: parsing, structural validation, and the counting
data (shell sizes, edge counts, feasibility screens) derived from them."""

from __future__ import annotations

import math
import re
from bisect import bisect_right
from fractions import Fraction
from itertools import accumulate
from operator import attrgetter
from typing import NamedTuple, Optional, Sequence

from .rational import _fractions, _reduced


class _Record:
    """The base of drglab's immutable records: each behaves as a frozen
    dataclass would, without the import of that module, which loads
    `inspect` and was the largest part of a command's start-up.

    A record's fields are the parameters of its class's own `__init__`, in
    order, which stores each in the instance `__dict__`.  A record equals a
    record of its class with equal fields, hashes by its fields, prints as
    ``Class(field=value, ...)`` and refuses assignment.
    """

    def __init_subclass__(cls) -> None:
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1 : code.co_argcount]
        # the fields' values as a tuple, or the one field's value
        cls._key = attrgetter(*cls._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == other._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class IntersectionArray(_Record):
    """The parameter pair (b0,...,b_{D-1}; c1,...,cD) of a candidate graph.

    Construction only enforces shape (equal-length halves of positive
    integers, `bool` excluded).  Whether the entries satisfy the
    monotonicity and cross conditions of an actual distance-regular graph
    is a separate question, answered by `validate_basic`, so that bad
    candidates can be inspected instead of rejected at the door.
    """

    def __init__(self, b: tuple[int, ...], c: tuple[int, ...]) -> None:
        if len(b) != len(c):
            raise ValueError(f"b has {len(b)} entries, c has {len(c)}")
        if not b:
            raise ValueError("empty array")
        for seq, label in ((b, "b"), (c, "c")):
            for i, value in enumerate(seq):
                if not isinstance(value, int) or isinstance(value, bool) or value < 1:
                    raise ValueError(f"{label}[{i}] = {value!r} is not a positive integer")
        self.__dict__.update(b=b, c=c)

    @property
    def D(self) -> int:
        return len(self.b)

    @property
    def k(self) -> int:
        return self.b[0]

    def b_at(self, i: int) -> int:
        """b_i, with the boundary convention b_D = 0."""
        if not 0 <= i <= self.D:
            raise IndexError(f"b_{i} undefined for diameter {self.D}")
        return 0 if i == self.D else self.b[i]

    def c_at(self, i: int) -> int:
        """c_i, with the boundary convention c_0 = 0."""
        if not 0 <= i <= self.D:
            raise IndexError(f"c_{i} undefined for diameter {self.D}")
        return 0 if i == 0 else self.c[i - 1]

    def a_at(self, i: int) -> int:
        """a_i = k - b_i - c_i (same-shell neighbor count)."""
        return self.k - self.b_at(i) - self.c_at(i)

    def __str__(self) -> str:
        return _b_half(self.b) + _c_half(self.c)


def _unchecked_array(b: tuple[int, ...], c: tuple[int, ...]) -> IntersectionArray:
    """An `IntersectionArray` from halves the caller guarantees are
    equal-length tuples of positive ints, without the constructor's checks: the
    enumerator builds only such halves, and the checks would be most of
    the cost of each candidate; the parser reads only such halves."""
    arr = object.__new__(IntersectionArray)
    fields = arr.__dict__
    fields["b"] = b
    fields["c"] = c
    return arr


# the canonical text in two halves, "(b0,...,b_{D-1};" and "c1,...,cD)", so a
# writer can render each distinct half once; ASCII digits and punctuation only
def _b_half(b: tuple[int, ...]) -> str:
    return "(" + ",".join(map(str, b)) + ";"


def _c_half(c: tuple[int, ...]) -> str:
    return ",".join(map(str, c)) + ")"


# ASCII digits only: `\d` and `int` also read other scripts' digits
_INTEGER = re.compile(r"[+-]?[0-9]+")


def integer(text: str) -> int:
    """An optional sign, then ASCII decimal digits, read as an int; raises
    ValueError on anything else.  `int` alone also reads `_` separators,
    surrounding blanks and the digits of other scripts."""
    if not _INTEGER.fullmatch(text):
        raise ValueError(f"{text!r} is not a decimal integer")
    return int(text)


# the most digits the entries of one array may have in all: it keeps n below
# 10^300, so the walk bounds stay in float range and every count renders
# within the interpreter's int-to-str digit limit
MAX_ARRAY_DIGITS = 300


def parse_intersection_array(text: str) -> IntersectionArray:
    """Read array text like ``(3,2,1;1,2,3)``; outer parentheses optional.

    Lenient about whitespace, strict about everything else; entries of more
    than `MAX_ARRAY_DIGITS` digits in all are refused.  Structural
    invariants are not checked here.  The halves are read as equal-length
    tuples of positive ASCII ints, so the array is built without the
    constructor's checks of them.
    """
    s = text.strip()
    if s.startswith("(") and s.endswith(")"):
        s = s[1:-1]
    elif s.startswith("(") or s.endswith(")"):
        raise ValueError(f"unbalanced parentheses in {text!r}")
    halves = s.split(";")
    if len(halves) != 2:
        raise ValueError(f"expected exactly one ';' in {text!r}")

    digits = 0

    def read_half(half: str, label: str) -> tuple[int, ...]:
        nonlocal digits
        tokens = [t.strip() for t in half.split(",")]
        if tokens == [""]:
            raise ValueError(f"empty {label} half in {text!r}")
        values = []
        for t in tokens:
            # ASCII digits only, as `integer` reads them; of the ASCII
            # characters, `isdigit` admits just 0-9
            if not (t.isascii() and t.isdigit()):
                raise ValueError(f"bad token {t!r} in {text!r}")
            digits += len(t)
            if digits > MAX_ARRAY_DIGITS:
                raise ValueError(f"the entries reach {digits} digits, past the limit of {MAX_ARRAY_DIGITS} in all")
            value = int(t)
            if value < 1:
                raise ValueError(f"non-positive entry {t!r} in {text!r}")
            values.append(value)
        return tuple(values)

    b = read_half(halves[0], "b")
    c = read_half(halves[1], "c")
    if len(b) != len(c):
        raise ValueError(f"halves of {text!r} have lengths {len(b)} and {len(c)}")
    return _unchecked_array(b, c)


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str


class FeasibilityReport(_Record):
    def __init__(self, checks: tuple[CheckResult, ...]) -> None:
        self.__dict__.update(checks=checks)

    @property
    def overall(self) -> bool:
        return all(check.passed for check in self.checks)

    def failed(self) -> tuple[CheckResult, ...]:
        return tuple(check for check in self.checks if not check.passed)


def validate_basic(arr: IntersectionArray) -> FeasibilityReport:
    """Run the structural battery in fixed order, recording every outcome.

    Checks: c1 = 1; b strictly drops then never increases; c never
    decreases; b_i >= c_j whenever i + j <= D; every a_i >= 0.
    """
    checks: list[CheckResult] = []
    D, k = arr.D, arr.k

    ok = arr.c[0] == 1
    checks.append(CheckResult("c1_is_one", ok, "c1 = 1" if ok else f"c1 = {arr.c[0]}"))

    bad = None
    if D >= 2 and arr.b[1] >= k:
        bad = (1, "b1 must be strictly below b0")
    else:
        for i in range(2, D):
            if arr.b[i] > arr.b[i - 1]:
                bad = (i, f"b{i} = {arr.b[i]} exceeds b{i - 1} = {arr.b[i - 1]}")
                break
    checks.append(
        CheckResult("b_monotone", bad is None, "b0 > b1 >= ... >= b_{D-1}" if bad is None else f"index {bad[0]}: {bad[1]}")
    )

    bad = None
    for i in range(1, D):
        if arr.c[i] < arr.c[i - 1]:
            bad = (i + 1, f"c{i + 1} = {arr.c[i]} below c{i} = {arr.c[i - 1]}")
            break
    checks.append(
        CheckResult("c_monotone", bad is None, "c1 <= ... <= cD" if bad is None else f"index {bad[0]}: {bad[1]}")
    )

    # the first (i, j) with b_i < c_j and i + j <= D, monotone c or not: the
    # first j with c_j > b_i is the first whose prefix maximum of c exceeds b_i
    bad = None
    tops = list(accumulate(arr.c, max))
    for i, b in enumerate(arr.b):
        j = bisect_right(tops, b) + 1
        if j <= D - i:
            bad = (i, j)
            break
    checks.append(
        CheckResult(
            "cross_condition",
            bad is None,
            "b_i >= c_j for i+j <= D" if bad is None else f"b{bad[0]} = {arr.b[bad[0]]} < c{bad[1]} = {arr.c[bad[1] - 1]}",
        )
    )

    # a_i = k - b_i - c_i, with b_D = 0 and c_0 = 0
    bad = None
    for i, (b, c) in enumerate(zip(arr.b + (0,), (0,) + arr.c)):
        if b + c > k:
            bad = i
            break
    checks.append(
        CheckResult("a_nonnegative", bad is None, "a_i >= 0 for all i" if bad is None else f"a{bad} = {arr.a_at(bad)} < 0")
    )

    return FeasibilityReport(tuple(checks))


class DistanceDistribution(_Record):
    """Shell sizes and edge counts implied by the recurrence
    c_{i+1} k_{i+1} = b_i k_i, kept as exact rationals.

    `integral` is a verdict, not a guard: a fractional value simply means
    no graph can realize the array.  `shells_integral` ignores the edge
    count m, which can be half-integral on parity-violating candidates
    whose shells are all whole; the scan pipeline screens on shells alone
    so that such candidates still reach the resistance classification.
    """

    def __init__(
        self, k_sizes: tuple[Fraction, ...], n: Fraction, e: tuple[Fraction, ...], m: Fraction, integral: bool, shells_integral: bool
    ) -> None:
        self.__dict__.update(k_sizes=k_sizes, n=n, e=e, m=m, integral=integral, shells_integral=shells_integral)


def compute_distance_distribution(arr: IntersectionArray) -> DistanceDistribution:
    """The shells k_j, n, the edge counts e_i = k_i b_i and m = n k / 2,
    each one `Fraction` of `_distribution_terms`."""
    return _distribution(_distribution_terms(arr))


# the distance distribution in ints, each rational a reduced (numerator,
# denominator) pair: (shells, n, edge counts, m, integral, shells_integral,
# weights), the weights being the shells W_j over their one denominator
_Counts = tuple[list[tuple[int, int]], tuple[int, int], list[tuple[int, int]], tuple[int, int], bool, bool, list[int]]


def _distribution_terms(arr: IntersectionArray) -> _Counts:
    """`compute_distance_distribution` in ints, over the one denominator
    C = c_1...c_D.

    W_j = k_j C = b_0...b_{j-1} c_{j+1}...c_D is an integer, and
    W_{j+1} = W_j b_j / c_{j+1} divides exactly, so the recurrence runs in
    ints and each reported value is one reduced pair of them.
    """
    den = math.prod(arr.c)
    weights = [den]
    for b, c in zip(arr.b, arr.c):
        weights.append(weights[-1] * b // c)
    total = sum(weights)
    m = _reduced(arr.k * total, 2 * den)
    shells_integral = not any(w % den for w in weights)
    return (
        [_reduced(w, den) for w in weights],
        _reduced(total, den),
        [_reduced(w * b, den) for w, b in zip(weights, arr.b)],
        m,
        shells_integral and m[1] == 1,
        shells_integral,
        weights,
    )


def _distribution(counts: _Counts) -> DistanceDistribution:
    """The `DistanceDistribution` of `_distribution_terms`' counts."""
    shells, n, edges, m, integral, shells_integral, _ = counts
    return DistanceDistribution(_fractions(shells), Fraction(*n), _fractions(edges), Fraction(*m), integral, shells_integral)


def _vertex_count(arr: IntersectionArray) -> Fraction:
    """n, the number of vertices, as a rational; see `_vertex_terms`."""
    return Fraction(*_vertex_terms(arr))


def _vertex_terms(arr: IntersectionArray) -> tuple[int, int]:
    """n = 1 + (b0/c1)(1 + (b1/c2)(1 + ...)) as its numerator and
    denominator, summed over the one denominator c1...cD and reduced once."""
    num = den = 1
    for b, c in zip(reversed(arr.b), reversed(arr.c)):
        num, den = c * den + b * num, c * den
    g = math.gcd(num, den)
    return num // g, den // g


def _clique_order(b: Sequence[int], c: Sequence[int]) -> Optional[int]:
    """a1 + 1, the order of the neighborhood cliques, for the halves
    b = (b0, ..., b_{D-1}) and c = (c1, ..., cD) when the divisibility screen
    applies (c2 = 1 and b1 in {3, 4}, so D >= 2); None when it does not."""
    if len(b) < 2 or c[1] != 1 or b[1] not in (3, 4):
        return None
    return b[0] - b[1] - c[0] + 1


def _divisibility_holds(b: Sequence[int], c: Sequence[int]) -> bool:
    """The divisibility screen on the halves: not applicable, or (a1 + 1) | k.
    An order of 0 (a1 = -1, which validate_basic rejects) divides nothing."""
    order = _clique_order(b, c)
    return order is None or (order != 0 and b[0] % order == 0)


def check_divisibility(arr: IntersectionArray) -> CheckResult:
    """Neighborhood-clique divisibility screen.

    When c2 = 1 the neighborhood of any vertex splits into disjoint cliques
    of size a1 + 1, forcing (a1 + 1) | k.  The screen is applied in the
    b1 in {3, 4} range where the valency classification leans on it, and
    passes as not-applicable otherwise.
    """
    order = _clique_order(arr.b, arr.c)
    if order is None:
        return CheckResult("divisibility", True, "not applicable (needs c2 = 1 and b1 in {3,4})")
    if _divisibility_holds(arr.b, arr.c):
        return CheckResult("divisibility", True, f"(a1+1) = {order} divides k = {arr.k}")
    return CheckResult("divisibility", False, f"(a1+1) = {order} does not divide k = {arr.k}")


class HeadBound(NamedTuple):
    j: int
    bound: int
    passed: bool


def _crossing(b: Sequence[int], c: Sequence[int]) -> tuple[int, int]:
    """(j, cap) for the halves: the first crossing index j = min{i : c_i >= b_i}
    and the diameter cap it sets, 2j - 1 for a strict crossing, 3j - 1 for a
    tie.  The convention b_D = 0 makes j = D a strict crossing, cap 2D - 1."""
    D = len(b)
    for j in range(1, D):
        c_j, b_j = c[j - 1], b[j]
        if c_j >= b_j:
            return j, 2 * j - 1 if c_j > b_j else 3 * j - 1
    return D, 2 * D - 1


def _head_bound_holds(b: Sequence[int], c: Sequence[int]) -> bool:
    """The diameter head bound on the halves: D at most the crossing cap."""
    return len(b) <= _crossing(b, c)[1]


def diameter_head_bound(arr: IntersectionArray) -> HeadBound:
    """Diameter cap from the first crossing index j = min{i : c_i >= b_i}.

    A strict crossing caps D at 2j - 1, a tie at 3j - 1.  The convention
    b_D = 0 guarantees the index exists; when j = D the cap is vacuous.
    """
    j, bound = _crossing(arr.b, arr.c)
    return HeadBound(j, bound, _head_bound_holds(arr.b, arr.c))
