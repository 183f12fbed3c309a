"""Candidate-array enumeration and the stacked feasibility pipeline.

Stage order is fixed (PIPELINE_ORDER): basic -> integrality -> n_max ->
divisibility -> head_bound -> biggs, cheap structural screens ahead of
rational computations, so "ruled out by the resistance bound alone" always
means every earlier screen passed; n_max applies only under a vertex cap.
Enumeration is a deterministic generator in lexicographic (k, D, b, c)
order that only yields arrays passing the structural battery, so `scan`
runs the stages after `basic` alone; it builds those arrays without the
constructor's entry checks, since their halves are positive ints by
construction.  Those stages are an integer kernel fused into the
enumerator: the recursion carries the whole shell sizes
k_{j+1} = k_j b_j / c_{j+1} down as it fills each c slot, the kernel reads
divisibility and the head bound through the integer predicates that
`check_divisibility` and `diameter_head_bound` report from, and the
resistance ratio stays in exact ints until one `Fraction` is reduced.
`evaluate_array` computes the sizes of a single array for the same kernel.
Tests check every record against the `Fraction` route (distance
distribution, closed-form potentials, `classify_ratio`, each a chain of
`Fraction` operations) that they keep as their reference.  Records stream:
`_records` yields them one at a time in canonical order, which the CLI
writes as it goes, and `scan` is its list form.  A record (`ScanRecord`,
with its `BiggsVerdict`) is a named tuple, the cheapest immutable record to
build once per candidate.
The scan runs in one process: shipping an array to a worker and its record
back costs the parent more than evaluating it.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from operator import itemgetter
from typing import Iterator, NamedTuple, Optional, Sequence

from .arrays import IntersectionArray, _divisibility_holds, _head_bound_holds, _Record, _unchecked_array, _vertex_count, validate_basic
from .resistance import BiggsClass, BiggsVerdict, classify_ratio

PIPELINE_ORDER = ("basic", "integrality", "n_max", "divisibility", "head_bound", "biggs")

# the most raw candidates one scan may enumerate, fixed like MAX_VERTICES: a
# mistyped box (D 1..80) is refused at once, not streamed for hours; k 3..8,
# D 1..8 holds 10,333,695, but one cell can pass it alone (k = D = 10: ~1.2e9)
MAX_RAW_CANDIDATES = 10**8


class ScanQuery(_Record):
    def __init__(self, k_min: int, k_max: int, d_min: int, d_max: int, n_max: Optional[int] = None) -> None:
        if k_min < 3:
            raise ValueError("valency range must start at 3 or above")
        if k_max < k_min or d_max < d_min or d_min < 1:
            raise ValueError("empty or invalid query ranges")
        if n_max is not None and n_max < 1:
            raise ValueError(f"n_max must be >= 1, got {n_max}")
        self.__dict__.update(k_min=k_min, k_max=k_max, d_min=d_min, d_max=d_max, n_max=n_max)


def _multichoose(values: int, length: int) -> int:
    # monotone sequences of `length` entries drawn from `values` symbols
    return math.comb(values + length - 1, length) if length >= 0 else 0


def _cell_estimates(query: ScanQuery) -> Iterator[int]:
    # raw monotone (b, c) pairs of each (k, D) cell, at least 1 for k >= 3: an
    # upper bound on the cell's candidates before the cross condition prunes
    for k in range(query.k_min, query.k_max + 1):
        for D in range(query.d_min, query.d_max + 1):
            yield _multichoose(k - 1, D - 1) * _multichoose(k, D - 1)


def _exceeds_budget(query: ScanQuery) -> bool:
    """Whether sum(_cell_estimates(query)) > MAX_RAW_CANDIDATES, summing only
    until the limit is passed; a box of more cells than the limit is refused
    without a sum, since every cell holds a raw candidate."""
    cells = (query.k_max - query.k_min + 1) * (query.d_max - query.d_min + 1)
    return cells > MAX_RAW_CANDIDATES or any(total > MAX_RAW_CANDIDATES for total in itertools.accumulate(_cell_estimates(query)))


def enumerate_arrays(query: ScanQuery) -> Iterator[IntersectionArray]:
    """Yield every structurally valid candidate in the query box.

    Candidates satisfy the full structural battery (monotone b and c, the
    cross condition, a_i >= 0 which forces c_D <= k), applied incrementally
    while extending the c sequence.  Raises ValueError at the call,
    before yielding anything, if the raw search space is too large.
    """
    return map(itemgetter(0), _candidates(query))


_Leaf = tuple[IntersectionArray, Optional[tuple[int, ...]]]


def _candidates(query: ScanQuery) -> Iterator[_Leaf]:
    """`enumerate_arrays` with each array's whole shell sizes beside it."""
    if _exceeds_budget(query):
        raise ValueError(f"the query box exceeds the raw candidate budget of {MAX_RAW_CANDIDATES}")
    return itertools.chain.from_iterable(
        _arrays_for(k, D) for k in range(query.k_min, query.k_max + 1) for D in range(query.d_min, query.d_max + 1)
    )


def _arrays_for(k: int, D: int) -> Iterator[_Leaf]:
    """The candidates of one (k, D) cell in (b, c) order, each with its
    shell sizes (k_0, ..., k_D) when all are whole, else None.

    The sizes k_{j+1} = k_j b_j / c_{j+1} are carried down the recursion as
    each c slot is filled, so a prefix that does not divide is found once
    for all the arrays below it.
    """
    b = [k] + [0] * (D - 1)
    c = [1] + [0] * (D - 1)
    sizes = [1, k] + [0] * (D - 1)  # k_0 = 1 and k_1 = k b_0 / c_1 = k

    def extend_c(j: int, whole: bool) -> Iterator[_Leaf]:
        # slot j holds c_{j+1}: at least the previous entry, at most
        # b_{D-j-1} (cross condition, binding at the largest b index) and
        # k - b_{j+1} (a_{j+1} >= 0); the final slot is capped at k alone
        # (a_D = k - c_D >= 0).  `whole`: k_0 ... k_j are ints in `sizes`.
        last = j == D - 1
        high = k if last else min(b[D - j - 1], k - b[j + 1])
        edges = sizes[j] * b[j]
        for value in range(c[j - 1], high + 1):
            c[j] = value
            divides = False
            if whole:
                size, rem = divmod(edges, value)
                if not rem:
                    sizes[j + 1] = size
                    divides = True
            if last:
                yield _unchecked_array(tuple(b), tuple(c)), tuple(sizes) if divides else None
            else:
                yield from extend_c(j + 1, divides)

    def extend_b(i: int) -> Iterator[_Leaf]:
        if i == D:
            if D >= 2:
                yield from extend_c(1, True)
            else:
                yield _unchecked_array(tuple(b), tuple(c)), tuple(sizes)
            return
        top = (k - 1) if i == 1 else b[i - 1]
        for value in range(1, top + 1):
            b[i] = value
            yield from extend_b(i + 1)

    yield from extend_b(1)


class ScanRecord(NamedTuple):
    array: IntersectionArray
    n: Fraction
    ratio: Optional[Fraction]
    first_failing_check: str  # pipeline stage name, "biggs_violation", or "pass"
    verdict: Optional[BiggsVerdict]

    @property
    def ruled_out_by_biggs_alone(self) -> bool:
        return self.first_failing_check == "biggs_violation"


def evaluate_array(arr: IntersectionArray, n_max: Optional[int] = None) -> ScanRecord:
    """Run one candidate through the pipeline, stopping at the first failure:
    the structural battery, then its shell sizes and the integer kernel."""
    if not validate_basic(arr).overall:
        return ScanRecord(arr, _vertex_count(arr), None, "basic", None)
    sizes = [1]
    for b_i, c_next in zip(arr.b, arr.c):
        size, rem = divmod(sizes[-1] * b_i, c_next)
        if rem:
            return _evaluate_leaf(n_max, arr, None)
        sizes.append(size)
    return _evaluate_leaf(n_max, arr, sizes)


def _evaluate_leaf(n_max: Optional[int], arr: IntersectionArray, sizes: Optional[Sequence[int]]) -> ScanRecord:
    """The stages after `basic`, in exact integers, from the array's shell
    sizes k_0 ... k_D, or None if one of them is not whole.

    Integrality screens shell sizes only: a half-integral edge count (odd n
    times odd k) still reaches the resistance classification, mirroring how
    the known non-realizable examples are presented.  The ratio
    (phi_1 + ... + phi_{D-1}) / phi_0 is k * sum_{i=1}^{D-1} S_i / (k_i b_i)
    over n - 1, with S_i the shell total beyond i, summed over one integer
    denominator and reduced once.  The tests' `Fraction` route (the
    distance distribution, then the closed-form potentials) is the
    reference it is checked against.
    """
    if sizes is None:
        return ScanRecord(arr, _vertex_count(arr), None, "integrality", None)
    n = sum(sizes)
    if n_max is not None and n > n_max:
        return ScanRecord(arr, Fraction(n), None, "n_max", None)
    b, c = arr.b, arr.c
    if not _divisibility_holds(b, c):
        return ScanRecord(arr, Fraction(n), None, "divisibility", None)
    if not _head_bound_holds(b, c):
        return ScanRecord(arr, Fraction(n), None, "head_bound", None)
    num, den, beyond = 0, 1, 0
    for i in range(len(b) - 1, 0, -1):
        beyond += sizes[i + 1]
        edges = sizes[i] * b[i]
        num, den = num * edges + beyond * den, den * edges
    verdict = classify_ratio(arr, Fraction(b[0] * num, den * (n - 1)))
    failing = "biggs_violation" if verdict.category is BiggsClass.VIOLATION else "pass"
    return ScanRecord(arr, Fraction(n), verdict.ratio, failing, verdict)


def _records(query: ScanQuery, jobs: int = 1) -> Iterator[ScanRecord]:
    """The records of every candidate in the query box, one at a time, in
    enumeration order, which is canonical.  `jobs` must be at least 1 and
    selects nothing: the scan always runs in one process.  A bad `jobs` and
    an over-budget box raise here, at the call, before any record is
    produced."""
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    # the enumerator enforces the structural battery, so the `basic` stage
    # is skipped, and each leaf is evaluated from the shell sizes the
    # enumerator carried down to it
    return itertools.starmap(functools.partial(_evaluate_leaf, query.n_max), _candidates(query))


def scan(query: ScanQuery, jobs: int = 1) -> list[ScanRecord]:
    """The list form of `_records`: every record of the query box, in
    enumeration order."""
    return list(_records(query, jobs))
