"""Candidate-array enumeration and the stacked feasibility pipeline.

Stage order is fixed (PIPELINE_ORDER): basic -> integrality -> n_max ->
divisibility -> head_bound -> biggs, cheap structural screens ahead of
rational computations, so "ruled out by the resistance bound alone" always
means every earlier screen passed; n_max applies only under a vertex cap.
Enumeration is a deterministic generator in lexicographic (k, D, b, c)
order that only yields arrays passing the structural battery, so `scan`
runs the stages after `basic` alone.  Those stages are an integer kernel:
shell sizes and the resistance ratio stay in exact ints until one
`Fraction` is reduced, and tests check every record of it against the
`Fraction` route (distance distribution, closed-form potentials,
`classify_ratio`) that `analyze`, `resistance_profile` and the catalog use.
Records stream: `_records` yields them one at a time in canonical order,
which the CLI writes as it goes, and `scan` is its list form.  Parallel
scans fan the pure per-array evaluation out over at most os.cpu_count()
workers and hand results back in input order, so job count never changes
output.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from multiprocessing import Pool
from typing import Iterator, Optional

from .arrays import IntersectionArray, check_divisibility, diameter_head_bound, validate_basic
from .resistance import BiggsClass, BiggsVerdict, classify_ratio

PIPELINE_ORDER = ("basic", "integrality", "n_max", "divisibility", "head_bound", "biggs")


class QueryTooLarge(ValueError):
    """Search-space estimate beyond the query budget; narrow the ranges."""


@dataclass(frozen=True)
class ScanQuery:
    k_min: int
    k_max: int
    d_min: int
    d_max: int
    n_max: Optional[int] = None
    budget: int = 10**8

    def __post_init__(self) -> None:
        if self.k_min < 3:
            raise ValueError("valency range must start at 3 or above")
        if self.k_max < self.k_min or self.d_max < self.d_min or self.d_min < 1:
            raise ValueError("empty or invalid query ranges")
        if self.n_max is not None and self.n_max < 1:
            raise ValueError(f"n_max must be >= 1, got {self.n_max}")


def _multichoose(values: int, length: int) -> int:
    # monotone sequences of `length` entries drawn from `values` symbols
    return math.comb(values + length - 1, length) if length >= 0 else 0


def _cell_estimates(query: ScanQuery) -> Iterator[int]:
    # raw monotone (b, c) pairs of each (k, D) cell, at least 1 for k >= 3
    for k in range(query.k_min, query.k_max + 1):
        for D in range(query.d_min, query.d_max + 1):
            yield _multichoose(k - 1, D - 1) * _multichoose(k, D - 1)


def estimate_candidates(query: ScanQuery) -> int:
    """Upper bound on raw monotone (b, c) pairs before cross-condition pruning."""
    return sum(_cell_estimates(query))


def _exceeds_budget(query: ScanQuery) -> bool:
    """Whether estimate_candidates(query) > query.budget, summing only until
    the budget is passed; a box of more cells than the budget is refused
    without a sum, since every cell holds a raw candidate."""
    cells = (query.k_max - query.k_min + 1) * (query.d_max - query.d_min + 1)
    return cells > query.budget or any(
        total > query.budget for total in itertools.accumulate(_cell_estimates(query))
    )


def enumerate_arrays(query: ScanQuery) -> Iterator[IntersectionArray]:
    """Yield every structurally valid candidate in the query box.

    Candidates satisfy the full structural battery (monotone b and c, the
    cross condition, a_i >= 0 which forces c_D <= k), applied incrementally
    while extending the c sequence.  Raises QueryTooLarge at the call,
    before yielding anything, if the raw search space exceeds the budget.
    """
    if _exceeds_budget(query):
        raise QueryTooLarge(f"the query box exceeds the raw candidate budget of {query.budget}")
    return _generate(query)


def _generate(query: ScanQuery) -> Iterator[IntersectionArray]:
    for k in range(query.k_min, query.k_max + 1):
        for D in range(query.d_min, query.d_max + 1):
            yield from _arrays_for(k, D)


def _arrays_for(k: int, D: int) -> Iterator[IntersectionArray]:
    b = [k] + [0] * (D - 1)
    c = [1] + [0] * (D - 1)

    def extend_c(j: int) -> Iterator[IntersectionArray]:
        # slot j holds c_{j+1}: at least the previous entry, at most
        # b_{D-j-1} (cross condition, binding at the largest b index) and
        # k - b_{j+1} (a_{j+1} >= 0); the final slot is capped at k alone
        # (a_D = k - c_D >= 0).
        if j == D:
            yield IntersectionArray(tuple(b), tuple(c))
            return
        if j < D - 1:
            high = min(b[D - j - 1], k - b[j + 1])
        else:
            high = k
        for value in range(c[j - 1], high + 1):
            c[j] = value
            yield from extend_c(j + 1)

    def extend_b(i: int) -> Iterator[IntersectionArray]:
        if i == D:
            if D >= 2:
                yield from extend_c(1)
            else:
                yield IntersectionArray(tuple(b), tuple(c))
            return
        top = (k - 1) if i == 1 else b[i - 1]
        for value in range(1, top + 1):
            b[i] = value
            yield from extend_b(i + 1)

    yield from extend_b(1)


@dataclass(frozen=True)
class ScanRecord:
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
    the structural battery, then the integer kernel."""
    if not validate_basic(arr).overall:
        return ScanRecord(arr, _vertex_count(arr), None, "basic", None)
    return _evaluate_valid(arr, n_max)


def _vertex_count(arr: IntersectionArray) -> Fraction:
    """n = 1 + (b0/c1)(1 + (b1/c2)(1 + ...)), over the one denominator c1...cD."""
    num = den = 1
    for b, c in zip(reversed(arr.b), reversed(arr.c)):
        num, den = c * den + b * num, c * den
    return Fraction(num, den)


def _evaluate_valid(arr: IntersectionArray, n_max: Optional[int]) -> ScanRecord:
    """The stages after `basic`, in exact integers, for an array that passes
    `validate_basic` (every array `enumerate_arrays` yields does).

    Shell sizes k_{i+1} = k_i b_i / c_{i+1} stay whole ints until the first
    one that does not divide.  The ratio (phi_1 + ... + phi_{D-1}) / phi_0
    is k * sum_{i=1}^{D-1} S_i / (k_i b_i) over n - 1, with S_i the shell
    total beyond i, summed over one integer denominator and reduced once.
    The `Fraction` route (compute_distance_distribution, then
    potentials_closed_form) is the reference it is tested against.
    """
    b, c = arr.b, arr.c
    sizes = [1]
    for b_i, c_next in zip(b, c):
        size, rem = divmod(sizes[-1] * b_i, c_next)
        if rem:
            # shells only: a half-integral edge count (odd n times odd k)
            # still reaches the resistance classification, mirroring how
            # the known non-realizable examples are presented
            return ScanRecord(arr, _vertex_count(arr), None, "integrality", None)
        sizes.append(size)
    n = sum(sizes)
    if n_max is not None and n > n_max:
        return ScanRecord(arr, Fraction(n), None, "n_max", None)
    if not check_divisibility(arr).passed:
        return ScanRecord(arr, Fraction(n), None, "divisibility", None)
    if not diameter_head_bound(arr).passed:
        return ScanRecord(arr, Fraction(n), None, "head_bound", None)
    num, den, beyond = 0, 1, 0
    for i in range(arr.D - 1, 0, -1):
        beyond += sizes[i + 1]
        edges = sizes[i] * b[i]
        num, den = num * edges + beyond * den, den * edges
    verdict = classify_ratio(arr, Fraction(arr.k * num, den * (n - 1)))
    failing = "biggs_violation" if verdict.category is BiggsClass.VIOLATION else "pass"
    return ScanRecord(arr, Fraction(n), verdict.ratio, failing, verdict)


def _records(query: ScanQuery, jobs: int = 1) -> Iterator[ScanRecord]:
    """The records of every candidate in the query box, one at a time, in
    enumeration order, which is canonical and which `Pool.imap` keeps, so
    worker count never changes the output.  `jobs` must be at least 1 and
    is capped at os.cpu_count().  A bad `jobs` and an over-budget box raise
    here, at the call, before any record is produced."""
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    jobs = min(jobs, os.cpu_count() or 1)
    # the enumerator enforces the structural battery, so the `basic`
    # stage is skipped
    candidates = enumerate_arrays(query)
    evaluate = functools.partial(_evaluate_valid, n_max=query.n_max)
    if jobs == 1:
        return map(evaluate, candidates)
    return _pooled(evaluate, candidates, jobs)


def _pooled(evaluate, candidates: Iterator[IntersectionArray], jobs: int) -> Iterator[ScanRecord]:
    with Pool(jobs) as pool:
        yield from pool.imap(evaluate, candidates, chunksize=64)


def scan(query: ScanQuery, jobs: int = 1) -> list[ScanRecord]:
    """The list form of `_records`: every record of the query box, in
    enumeration order."""
    return list(_records(query, jobs))
