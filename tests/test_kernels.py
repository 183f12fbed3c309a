"""The integer kernels behind `analyze` against the `Fraction` route in
`fraction_reference`: the distance distribution, both potential routes and
their ratio, the resistance profile and the walk bounds, value for value
and type for type (the reprs must be equal); the ints of `analyze`'s own
kernel, `analysis._analysis`, pair for pair; and `validate_basic`'s cross
condition against the double loop over i + j <= D."""

from fractions import Fraction

import fraction_reference as ref
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from drglab import (
    IntersectionArray,
    compute_distance_distribution,
    parse_intersection_array,
    potentials_closed_form,
    potentials_recursive,
    resistance_profile,
    validate_basic,
    walk_bounds,
)
from drglab.analysis import _analysis, _derived
from drglab.arrays import MAX_ARRAY_DIGITS, _distribution_terms
from drglab.resistance import _screened_out, _stages, classify_ratio

# m = 55/2 on whole shells; n = 28/3 on fractional ones
HALF_M = parse_intersection_array("(5,4;1,4)")
THIRD_N = parse_intersection_array("(5,2;1,3)")


@st.composite
def small_arrays(draw) -> IntersectionArray:
    """Any equal-length halves of entries 1..12: most shells are not whole."""
    D = draw(st.integers(1, 8))
    entries = st.lists(st.integers(1, 12), min_size=D, max_size=D)
    return IntersectionArray(tuple(draw(entries)), tuple(draw(entries)))


@st.composite
def whole_shell_arrays(draw) -> IntersectionArray:
    """k >= 3 and each c_{i+1} a divisor of k_i b_i, so every shell is whole;
    m is half-integral whenever n and k are odd."""
    D = draw(st.integers(1, 8))
    b, c, size = [draw(st.integers(3, 12))], [], 1
    for i in range(D):
        if i:
            b.append(draw(st.integers(1, 12)))
        c.append(draw(st.sampled_from([d for d in range(1, 25) if size * b[i] % d == 0])))
        size = size * b[i] // c[-1]
    return IntersectionArray(tuple(b), tuple(c))


@st.composite
def huge_arrays(draw, whole_shells: bool) -> IntersectionArray:
    """Entries of MAX_ARRAY_DIGITS / (2D) digits each, so the array text has
    close to MAX_ARRAY_DIGITS digits in all.  With whole shells, each b_i is
    c_{i+1} times a cofactor, which keeps k_{i+1} = k_i * cofactor whole."""
    D = draw(st.integers(1, 5))
    width = MAX_ARRAY_DIGITS // (2 * D)
    if whole_shells:
        half = width // 2
        c = draw(st.lists(st.integers(1, 10**half - 1), min_size=D, max_size=D))
        cofactors = draw(st.lists(st.integers(3, 10 ** (width - half) - 1), min_size=D, max_size=D))
        b = [c_next * t for c_next, t in zip(c, cofactors)]
    else:
        entries = st.lists(st.integers(10 ** (width - 1), 10**width - 1), min_size=D, max_size=D)
        b, c = draw(entries), draw(entries)
    arr = IntersectionArray(tuple(b), tuple(c))
    # within the limit that `analyze` reads arrays under
    assert parse_intersection_array(str(arr)) == arr
    return arr


any_arrays = st.one_of(small_arrays(), whole_shell_arrays(), huge_arrays(False), huge_arrays(True))
whole_arrays = st.one_of(whole_shell_arrays(), huge_arrays(True))


@given(any_arrays)
@example(HALF_M)
@example(THIRD_N)
@settings(max_examples=300, deadline=None)
def test_distribution_and_potentials(arr):
    dist = compute_distance_distribution(arr)
    reference = ref.distance_distribution(arr)
    assert repr(dist) == repr(reference)
    recursive, closed = potentials_recursive(arr), potentials_closed_form(arr, dist)
    assert repr(recursive) == repr(ref.potentials_recursive(arr))
    assert repr(closed) == repr(ref.potentials_closed_form(arr, reference))
    for p in (recursive, closed):
        assert repr(p.ratio()) == repr(ref.ratio(p))


@given(whole_arrays)
@example(HALF_M)
@settings(max_examples=300, deadline=None)
def test_profile_and_walk_bounds(arr):
    assert repr(resistance_profile(arr)) == repr(ref.resistance_profile(arr))
    assert repr(walk_bounds(arr)) == repr(ref.walk_bounds(arr))


def pairs(values) -> list[tuple[int, int]]:
    return [(value.numerator, value.denominator) for value in values]


@given(any_arrays)
@example(HALF_M)
@example(THIRD_N)
@settings(max_examples=300, deadline=None)
def test_analysis_counts(arr):
    # the screens and counts of every array, and the derived values exactly
    # when the array is realizable (refused at valency k <= 2)
    dist = ref.distance_distribution(arr)
    realizable = validate_basic(arr).overall and dist.shells_integral
    if realizable and arr.k <= 2:
        with pytest.raises(ValueError, match="valency"):
            _analysis(arr)
        return
    screens, counts, _, _, derived, _ = _analysis(arr)
    shells, n, edges, m, integral, shells_integral, weights = counts
    assert screens == validate_basic(arr)
    assert (shells, edges) == (pairs(dist.k_sizes), pairs(dist.e))
    assert [n, m] == pairs((dist.n, dist.m))
    assert (integral, shells_integral) == (dist.integral, dist.shells_integral)
    # the shells over their one denominator, k_0 = 1
    assert [Fraction(w, weights[0]) for w in weights] == list(dist.k_sizes)
    assert derived == (_derived(arr, counts, _stages(None, arr, weights)) if realizable else None)


@given(whole_arrays.filter(lambda arr: arr.k >= 3))
@example(HALF_M)
@example(parse_intersection_array("(3,2,2,2,1,1,1;1,1,1,1,1,1,3)"))  # EXTREMAL, Biggs-Smith
@example(parse_intersection_array("(5,2,2,1,1,1,1;1,1,1,1,1,1,4)"))  # VIOLATION
@settings(max_examples=300, deadline=None)
def test_analysis_derived(arr):
    # every array of whole shells and valency >= 3, realizable or not
    dist = ref.distance_distribution(arr)
    counts = _distribution_terms(arr)
    # the ratio and class of the stages, or its own where a screen stopped them
    derived = _derived(arr, counts, _stages(None, arr, counts[6]))
    assert _derived(arr, counts, _screened_out(arr, "head_bound")) == derived
    phi, d, ratio, K, recursion_ratio, category, matched, bounds = derived
    recursive, profile, expected = ref.potentials_recursive(arr), ref.resistance_profile(arr), ref.walk_bounds(arr)
    assert phi == pairs(recursive.phi)
    assert [recursion_ratio] == pairs([ref.ratio(recursive)])
    assert d == pairs(profile.d)
    assert [ratio, K] == pairs((profile.ratio, profile.K_factor)) == pairs((ref.ratio(ref.potentials_closed_form(arr, dist)), profile.K_factor))
    verdict = classify_ratio(arr, profile.ratio)
    assert (category, matched) == (verdict.category, verdict.matched_extremal)
    commutes, hitting, commute_cap, cover, spectral_floor, gap_bound, middle, over = bounds
    assert commutes == pairs(expected.commute_times)
    assert [spectral_floor, gap_bound] == pairs((expected.spectral_lower_bound, expected.resistance_gap_bound))
    assert (hitting, commute_cap, cover, middle, over) == (
        expected.hitting_bound,
        expected.commute_bound,
        expected.cover_bound_dominant,
        expected.middle_inequality_holds,
        expected.over_commute_bound,
    )


def monotone(arr: IntersectionArray) -> IntersectionArray:
    """The same entries with b non-increasing and c non-decreasing, as in
    every array that passes the monotonicity screens."""
    return IntersectionArray(tuple(sorted(arr.b, reverse=True)), tuple(sorted(arr.c)))


@given(st.one_of(small_arrays(), small_arrays().map(monotone), whole_shell_arrays(), huge_arrays(False)))
@example(IntersectionArray((4, 3, 1, 1), (1, 3, 3, 4)))  # b_2 = 1 < c_2 = 3, after i = 0 and 1 pass on ties
@example(IntersectionArray((3, 3, 1), (1, 5, 2)))  # non-monotone c: the first failure is (0, 2)
@example(IntersectionArray((5, 4, 4), (1, 4, 4)))  # ties b_i = c_j everywhere pass
@settings(max_examples=500, deadline=None)
def test_cross_condition(arr):
    (check,) = [c for c in validate_basic(arr).checks if c.name == "cross_condition"]
    assert check == ref.cross_condition(arr)
