"""Candidate-array enumeration and the stacked feasibility pipeline.

Stage order is fixed (PIPELINE_ORDER): basic -> integrality -> n_max ->
divisibility -> head_bound -> biggs, cheap structural screens ahead of
rational computations, so "ruled out by the resistance bound alone" always
means every earlier screen passed; n_max applies only under a vertex cap.
Enumeration is a deterministic generator in lexicographic (k, D, b, c)
order; parallel scans fan the pure per-array evaluation out over at most
os.cpu_count() workers and re-sort, so job count never changes output.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from multiprocessing import Pool
from typing import Iterator, Optional

from .arrays import (
    IntersectionArray,
    check_divisibility,
    compute_distance_distribution,
    diameter_head_bound,
    validate_basic,
)
from .potentials import potentials_closed_form
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


def _multichoose(values: int, length: int) -> int:
    # monotone sequences of `length` entries drawn from `values` symbols
    return math.comb(values + length - 1, length) if length >= 0 else 0


def estimate_candidates(query: ScanQuery) -> int:
    """Upper bound on raw monotone (b, c) pairs before cross-condition pruning."""
    total = 0
    for k in range(query.k_min, query.k_max + 1):
        for D in range(query.d_min, query.d_max + 1):
            total += _multichoose(k - 1, D - 1) * _multichoose(k, D - 1)
    return total


def enumerate_arrays(query: ScanQuery) -> Iterator[IntersectionArray]:
    """Yield every structurally valid candidate in the query box.

    Candidates satisfy the full structural battery (monotone b and c, the
    cross condition, a_i >= 0 which forces c_D <= k), applied incrementally
    while extending the c sequence.  Raises QueryTooLarge before yielding
    anything if the raw search space exceeds the budget.
    """
    if estimate_candidates(query) > query.budget:
        raise QueryTooLarge(
            f"estimated {estimate_candidates(query)} raw candidates exceeds budget {query.budget}"
        )
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
    """Run one candidate through the pipeline, stopping at the first failure."""
    dist = compute_distance_distribution(arr)
    if not validate_basic(arr).overall:
        return ScanRecord(arr, dist.n, None, "basic", None)
    # shells only: a half-integral edge count (odd n times odd k) still
    # reaches the resistance classification, mirroring how the known
    # non-realizable examples are presented
    if not dist.shells_integral:
        return ScanRecord(arr, dist.n, None, "integrality", None)
    if n_max is not None and dist.n > n_max:
        return ScanRecord(arr, dist.n, None, "n_max", None)
    if not check_divisibility(arr).passed:
        return ScanRecord(arr, dist.n, None, "divisibility", None)
    if not diameter_head_bound(arr).passed:
        return ScanRecord(arr, dist.n, None, "head_bound", None)
    verdict = classify_ratio(arr, potentials_closed_form(arr, dist).ratio())
    failing = "biggs_violation" if verdict.category is BiggsClass.VIOLATION else "pass"
    return ScanRecord(arr, dist.n, verdict.ratio, failing, verdict)


def _record_key(record: ScanRecord) -> tuple:
    return (record.array.k, record.array.D, record.array.b, record.array.c)


def scan(query: ScanQuery, jobs: int = 1) -> list[ScanRecord]:
    """Evaluate the whole query box; output order is canonical regardless
    of worker count.  `jobs` must be at least 1 and is capped at
    os.cpu_count()."""
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    jobs = min(jobs, os.cpu_count() or 1)
    candidates = list(enumerate_arrays(query))
    evaluate = functools.partial(evaluate_array, n_max=query.n_max)
    if jobs == 1:
        records = [evaluate(arr) for arr in candidates]
    else:
        with Pool(jobs) as pool:
            records = pool.map(evaluate, candidates, chunksize=64)
    records.sort(key=_record_key)
    return records
