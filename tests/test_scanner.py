"""Enumeration against a brute-force reference, and the feasibility pipeline."""

import importlib
import itertools
import pickle
from fractions import Fraction

import fraction_reference as ref
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import drglab.arrays as arrays
import drglab.scanner as scanner
from drglab import (
    BiggsClass,
    BiggsVerdict,
    IntersectionArray,
    ScanQuery,
    ScanRecord,
    catalog,
    check_divisibility,
    classify_biggs,
    compute_distance_distribution,
    diameter_head_bound,
    enumerate_arrays,
    evaluate_array,
    parse_intersection_array,
    recompute_entry,
    resistance_profile,
    scan,
    validate_basic,
)
from drglab.arrays import _distribution_terms
from drglab.cli import main
from drglab.resistance import classify_ratio


def brute_force_box(k: int, D: int) -> list[IntersectionArray]:
    """Filter the full monotone product space; deliberately naive."""
    found = []
    for b_tail in itertools.product(range(1, k), repeat=D - 1):
        b = (k,) + b_tail
        if any(b[i] < b[i + 1] for i in range(D - 1)):
            continue
        for c_tail in itertools.product(range(1, k + 1), repeat=D - 1):
            c = (1,) + c_tail
            arr = IntersectionArray(b, c)
            if validate_basic(arr).overall:
                found.append(arr)
    return found


def reference_record(arr: IntersectionArray, n_max=None) -> ScanRecord:
    """The pipeline over the `Fraction` route of `fraction_reference`:
    distance distribution, the closed-form potentials, then `classify_ratio`."""
    dist = ref.distance_distribution(arr)
    if not validate_basic(arr).overall:
        return ScanRecord(arr, dist.n, None, "basic", None)
    if not dist.shells_integral:
        return ScanRecord(arr, dist.n, None, "integrality", None)
    if n_max is not None and dist.n > n_max:
        return ScanRecord(arr, dist.n, None, "n_max", None)
    if not check_divisibility(arr).passed:
        return ScanRecord(arr, dist.n, None, "divisibility", None)
    if not diameter_head_bound(arr).passed:
        return ScanRecord(arr, dist.n, None, "head_bound", None)
    verdict = classify_ratio(arr, ref.ratio(ref.potentials_closed_form(arr, dist)))
    failing = "biggs_violation" if verdict.category is BiggsClass.VIOLATION else "pass"
    return ScanRecord(arr, dist.n, verdict.ratio, failing, verdict)


class TestEnumeration:
    @pytest.mark.parametrize("k,D", [(3, 2), (3, 3), (3, 5), (4, 2), (4, 3), (5, 3), (5, 4), (6, 3)])
    def test_matches_brute_force(self, k, D):
        produced = list(enumerate_arrays(ScanQuery(k, k, D, D)))
        assert produced == sorted(brute_force_box(k, D), key=lambda a: (a.b, a.c))
        assert len(produced) == len(set(produced))

    def test_k3_d2_count_and_order(self):
        arrays = [str(a) for a in enumerate_arrays(ScanQuery(3, 3, 2, 2))]
        assert arrays == [
            "(3,1;1,1)",
            "(3,1;1,2)",
            "(3,1;1,3)",
            "(3,2;1,1)",
            "(3,2;1,2)",
            "(3,2;1,3)",
        ]

    def test_diameter_one(self):
        assert [str(a) for a in enumerate_arrays(ScanQuery(3, 3, 1, 1))] == ["(3;1)"]

    def test_known_counts(self):
        # frozen from the naive reference enumeration
        for (k, D), count in {(3, 3): 11, (4, 3): 38, (5, 4): 292, (4, 7): 451}.items():
            assert sum(1 for _ in enumerate_arrays(ScanQuery(k, k, D, D))) == count

    def test_lexicographic_over_k_and_d(self):
        arrays = list(enumerate_arrays(ScanQuery(3, 4, 1, 2)))
        keys = [(a.k, a.D, a.b, a.c) for a in arrays]
        assert keys == sorted(keys)

    def test_everything_validates(self):
        # the scan skips the basic stage on the strength of this
        for arr in enumerate_arrays(ScanQuery(3, 6, 1, 6)):
            assert validate_basic(arr).overall


class TestQueryLimits:
    def test_query_too_large(self):
        with pytest.raises(ValueError, match="^the query box exceeds the raw candidate budget of 100000000$"):
            enumerate_arrays(ScanQuery(3, 12, 2, 12))

    def test_custom_budget(self, monkeypatch):
        monkeypatch.setattr(scanner, "MAX_RAW_CANDIDATES", 5)
        with pytest.raises(ValueError, match="^the query box exceeds the raw candidate budget of 5$"):
            enumerate_arrays(ScanQuery(3, 3, 2, 2))

    def test_estimate_dominates_actual(self):
        q = ScanQuery(3, 4, 2, 4)
        assert sum(scanner._cell_estimates(q)) >= sum(1 for _ in enumerate_arrays(q))

    @pytest.mark.parametrize("box", [(3, 3, 1, 1), (3, 4, 2, 4), (3, 8, 1, 8), (5, 9, 3, 6), (3, 40, 1, 2)])
    def test_refusal_matches_estimate(self, box, monkeypatch):
        # the refusal stops summing once past the limit; it must agree with
        # the full estimate on either side of the limit
        query = ScanQuery(*box)
        total = sum(scanner._cell_estimates(query))
        for budget in (total - 1, total, total + 1, 1, 0):
            monkeypatch.setattr(scanner, "MAX_RAW_CANDIDATES", budget)
            if total > budget:
                with pytest.raises(ValueError, match="^the query box exceeds the raw candidate budget"):
                    enumerate_arrays(query)
            else:
                enumerate_arrays(query)

    def test_low_valency_rejected(self):
        with pytest.raises(ValueError):
            ScanQuery(2, 3, 1, 2)

    def test_empty_ranges_rejected(self):
        with pytest.raises(ValueError):
            ScanQuery(4, 3, 1, 2)
        with pytest.raises(ValueError):
            ScanQuery(3, 3, 3, 2)

    @pytest.mark.parametrize("n_max", [0, -4])
    def test_n_max_below_one_rejected(self, n_max):
        with pytest.raises(ValueError, match=f"n_max must be >= 1, got {n_max}"):
            ScanQuery(3, 3, 2, 2, n_max=n_max)


class TestPipeline:
    def test_petersen_passes(self):
        record = evaluate_array(parse_intersection_array("(3,2;1,1)"))
        assert record.first_failing_check == "pass"
        assert record.verdict.category is BiggsClass.PASS_STRICT
        assert record.n == 10

    def test_integrality_failure(self):
        # k_2 = 3/2 is not a shell size
        record = evaluate_array(parse_intersection_array("(3,1;1,2)"))
        assert record.first_failing_check == "integrality"
        assert record.ratio is None

    def test_half_integral_edge_count_is_not_an_integrality_failure(self):
        # whole shells with odd n*k: the screen lets it through to the
        # resistance stage on purpose
        record = evaluate_array(parse_intersection_array("(3,1;1,1)"))
        assert record.first_failing_check != "integrality"

    def test_basic_failure(self):
        record = evaluate_array(parse_intersection_array("(3,2,3;1,1,3)"))
        assert record.first_failing_check == "basic"

    def test_n_max_failure_sits_after_integrality(self):
        record = evaluate_array(parse_intersection_array("(3,2;1,3)"), n_max=5)
        assert record.first_failing_check == "n_max"
        assert record.n == 6

    def test_divisibility_failure(self):
        # whole shells (1,7,28,16), c2 = 1, b1 = 4, and 3 does not divide 7
        record = evaluate_array(parse_intersection_array("(7,4,4;1,1,7)"))
        assert record.first_failing_check == "divisibility"

    def test_head_bound_failure(self):
        record = evaluate_array(parse_intersection_array("(4,1,1,1;1,1,1,1)"))
        assert record.first_failing_check == "head_bound"

    def test_extremal_array_passes(self):
        record = evaluate_array(parse_intersection_array("(3,2,2,2,1,1,1;1,1,1,1,1,1,3)"))
        assert record.first_failing_check == "pass"
        assert record.verdict.category is BiggsClass.EXTREMAL

    @pytest.mark.parametrize(
        "text,ratio",
        [
            ("(3,2,2,1,1,1,1;1,1,1,1,1,1,3)", Fraction(64, 61)),
            ("(5,2,2,1,1,1,1;1,1,1,1,1,1,4)", Fraction(83, 80)),
            ("(8,3,3,3,3,3,3,3,2,2,1;1,2,2,3,3,3,3,3,3,3,8)", Fraction(1259, 1341)),
        ],
    )
    def test_ruled_out_only_by_resistance(self, text, ratio):
        record = evaluate_array(parse_intersection_array(text))
        assert record.first_failing_check == "biggs_violation"
        assert record.ruled_out_by_biggs_alone
        assert record.ratio == ratio

    def test_closed_form_verdicts_match_recursion(self):
        # the scanner classifies the closed-form ratio; classify_biggs takes
        # the recursion, so the two potential routes check each other here
        reached = 0
        for record in scan(ScanQuery(3, 5, 1, 6)):
            if record.verdict is None:
                continue
            reference = classify_biggs(record.array)
            assert record.verdict == reference
            assert record.ratio == reference.ratio
            reached += 1
        assert reached == 1645


class TestIntegerKernel:
    # the scan's integer kernel against the Fraction route, record for record
    @pytest.mark.parametrize("n_max", [None, 200])
    def test_scan_matches_fraction_reference(self, n_max):
        query = ScanQuery(3, 6, 1, 6, n_max=n_max)
        records = scan(query)
        reference = [reference_record(arr, n_max) for arr in enumerate_arrays(query)]
        assert len(records) == 14651
        # repr-equal also pins the types, e.g. n stays a Fraction
        assert [repr(r) for r in records] == [repr(r) for r in reference]

    @pytest.mark.parametrize(
        "text",
        ["(3,2,3;1,1,3)", "(3,4,1;2,1,3)", "(5,5;3,1)", "(4,3,3;2,1,4)", "(3,2,2,2,1,1,1;1,1,1,1,1,1,3)"],
    )
    def test_evaluate_array_matches_fraction_reference(self, text):
        # includes arrays failing the basic stage, with and without whole n
        arr = parse_intersection_array(text)
        for n_max in (None, 20):
            assert repr(evaluate_array(arr, n_max)) == repr(reference_record(arr, n_max))

    def test_n_max_is_inclusive(self):
        petersen = parse_intersection_array("(3,2;1,1)")
        assert evaluate_array(petersen, n_max=10).first_failing_check == "pass"
        assert evaluate_array(petersen, n_max=9).first_failing_check == "n_max"

    def test_scan_skips_basic_stage(self, monkeypatch):
        def refuse(arr):
            raise AssertionError("scan re-ran validate_basic")

        monkeypatch.setattr(scanner, "validate_basic", refuse)
        records = scan(ScanQuery(3, 4, 1, 4))
        assert len(records) == sum(1 for _ in enumerate_arrays(ScanQuery(3, 4, 1, 4)))


@st.composite
def scan_queries(draw):
    """A sub-box of k 3..6, D 1..7, with no vertex cap or one in 1..500."""
    k_min = draw(st.integers(3, 6))
    d_min = draw(st.integers(1, 7))
    return ScanQuery(
        k_min,
        draw(st.integers(k_min, 6)),
        d_min,
        draw(st.integers(d_min, 7)),
        n_max=draw(st.none() | st.integers(1, 500)),
    )


def reference_divisibility(arr: IntersectionArray) -> bool:
    """The clique screen from the accessors: (a1 + 1) | k when c2 = 1 and b1 in {3, 4}."""
    c2 = arr.c_at(2) if arr.D >= 2 else 1
    if c2 != 1 or arr.b_at(1) not in (3, 4):
        return True
    return arr.a_at(1) + 1 != 0 and arr.k % (arr.a_at(1) + 1) == 0


def reference_head_bound(arr: IntersectionArray) -> bool:
    """D <= 2j - 1 (strict crossing) or 3j - 1 (tie), j the first i with c_i >= b_i."""
    j = next(i for i in range(1, arr.D + 1) if arr.c_at(i) >= arr.b_at(i))
    return arr.D <= (2 * j - 1 if arr.c_at(j) > arr.b_at(j) else 3 * j - 1)


class TestFusedKernel:
    # the enumerator carries whole shell sizes down to each leaf, and the
    # kernel reads the screens through the integer predicates of `arrays`;
    # `evaluate_array` recomputes the sizes per array and is the check
    # (enumerated arrays pass `validate_basic`, so its first stage holds)
    @given(scan_queries())
    @settings(max_examples=10, deadline=None)
    def test_scan_matches_per_array_route(self, query):
        records = scan(query)
        expected = [evaluate_array(arr, query.n_max) for arr in enumerate_arrays(query)]
        assert [repr(r) for r in records] == [repr(r) for r in expected]

    @pytest.mark.parametrize("n_max", [None, 300])
    def test_diameter_eight_matches_fraction_reference(self, n_max):
        query = ScanQuery(3, 4, 1, 8, n_max=n_max)
        records = scan(query)
        reference = [reference_record(arr, n_max) for arr in enumerate_arrays(query)]
        assert len(records) == 1888
        assert [repr(r) for r in records] == [repr(r) for r in reference]

    def test_parallel_matches_serial_on_deep_integrality_failures(self):
        query = ScanQuery(3, 4, 6, 8)
        serial = scan(query)
        # some arrays have whole shells up to k_5 and a fractional k_6 or later
        depths = [
            next(i for i, size in enumerate(compute_distance_distribution(r.array).k_sizes) if size.denominator != 1)
            for r in serial
            if r.first_failing_check == "integrality"
        ]
        assert max(depths) >= 6
        assert [evaluate_array(r.array) for r in serial] == serial
        assert scan(query, jobs=2) == serial

    def test_predicates_match_reports(self):
        hand_built = [
            "(3;1)",  # D = 1
            "(5;2)",
            "(7,4,4;1,2,7)",  # c2 != 1
            "(7,4,4;1,1,7)",  # b1 = 4, 3 does not divide 7
            "(6,4,4;1,1,3)",  # b1 = 4, 3 divides 6
            "(5,3;1,1)",  # b1 = 3, 2 does not divide 5
            "(4,3;1,1)",  # b1 = 3, a1 = 0
            "(4,4;1,1)",  # a1 = -1: clique order 0
            "(4,4;2,1)",  # a1 = -2: clique order -1
            "(4,2,2;1,2,4)",  # tie c2 = b2 at the crossing, cap 5
            "(4,2,2,2,2;1,2,4,4,4)",  # the same tie at D = 5 = 3j - 1
            "(4,2,2,2,2,2;1,2,4,4,4,4)",  # one past the tie's cap
            "(4,1,1,1;1,1,1,1)",  # tie at j = 1, cap 2
            "(3,2,1;1,2,3)",  # strict crossing at j = 2
        ]
        candidates = itertools.chain(
            enumerate_arrays(ScanQuery(3, 6, 1, 6)), map(parse_intersection_array, hand_built)
        )
        outcomes = set()
        for arr in candidates:
            divisible = arrays._divisibility_holds(arr.b, arr.c)
            headed = arrays._head_bound_holds(arr.b, arr.c)
            assert divisible == check_divisibility(arr).passed == reference_divisibility(arr), arr
            assert headed == diameter_head_bound(arr).passed == reference_head_bound(arr), arr
            outcomes.add((divisible, headed))
        assert outcomes == {(True, True), (True, False), (False, True), (False, False)}

    def test_scan_builds_no_report_objects(self, monkeypatch):
        def refuse(arr):
            raise AssertionError("the scan built a report object")

        for module in (scanner, arrays):
            for name in ("check_divisibility", "diameter_head_bound", "validate_basic"):
                monkeypatch.setattr(module, name, refuse, raising=False)
        records = scan(ScanQuery(3, 5, 1, 6))
        assert len(records) == 3434
        assert {r.first_failing_check for r in records} >= {"integrality", "divisibility", "head_bound", "pass"}


class TestLeanRecords:
    # the enumerator builds its arrays without the constructor's checks, and
    # records are named tuples: the same values and repr text, built cheaper

    def test_unchecked_arrays_equal_checked_ones(self):
        seen = 0
        for k in range(3, 7):
            for D in range(1, 7):
                for arr, _ in scanner._arrays_for(k, D):
                    assert arr == IntersectionArray(arr.b, arr.c)
                    assert type(arr.b) is tuple and type(arr.c) is tuple
                    assert all(type(x) is int for x in arr.b + arr.c), arr
                    seen += 1
        assert seen == 14651

    def test_repr_text(self):
        record = evaluate_array(parse_intersection_array("(3,2,1;1,1,2)"))
        assert repr(record) == (
            "ScanRecord(array=IntersectionArray(b=(3, 2, 1), c=(1, 1, 2)), n=Fraction(13, 1), "
            "ratio=Fraction(1, 2), first_failing_check='pass', "
            "verdict=BiggsVerdict(array=IntersectionArray(b=(3, 2, 1), c=(1, 1, 2)), "
            "category=<BiggsClass.PASS_STRICT: 'PASS_STRICT'>, ratio=Fraction(1, 2), matched_extremal=None))"
        )

    def test_records_are_tuples_of_their_fields(self):
        record = evaluate_array(parse_intersection_array("(3,2,1;1,1,2)"))
        array, n, ratio, failing, verdict = record
        assert record == (array, n, ratio, failing, verdict)
        assert verdict == BiggsVerdict(array, BiggsClass.PASS_STRICT, ratio) == (array, BiggsClass.PASS_STRICT, ratio, None)
        assert not record.ruled_out_by_biggs_alone

    def test_records_survive_pickle(self):
        records = scan(ScanQuery(3, 4, 1, 7))
        assert "Biggs-Smith Graph" in {r.verdict.matched_extremal for r in records if r.verdict}
        back = pickle.loads(pickle.dumps(records))
        assert back == records
        assert [repr(r) for r in back] == [repr(r) for r in records]
        assert all(type(r) is ScanRecord for r in back)
        assert all(type(r.verdict) is BiggsVerdict for r in back if r.verdict is not None)


class TestScan:
    def test_scan_finds_section5_arrays(self):
        records = scan(ScanQuery(3, 3, 7, 7))
        by_text = {str(r.array): r for r in records}
        target = by_text["(3,2,2,1,1,1,1;1,1,1,1,1,1,3)"]
        assert target.first_failing_check == "biggs_violation"
        assert target.n == 62

        records5 = scan(ScanQuery(5, 5, 7, 7))
        target5 = {str(r.array): r for r in records5}["(5,2,2,1,1,1,1;1,1,1,1,1,1,4)"]
        assert target5.first_failing_check == "biggs_violation"
        assert target5.n == 101

    def test_records_in_canonical_order(self):
        records = scan(ScanQuery(3, 4, 2, 4))
        keys = [(r.array.k, r.array.D, r.array.b, r.array.c) for r in records]
        assert keys == sorted(keys)

    def test_identical_across_runs(self):
        q = ScanQuery(3, 4, 2, 5, n_max=100)
        assert scan(q) == scan(q)

    def test_parallel_scan_matches_serial(self):
        q = ScanQuery(3, 4, 2, 4)
        assert scan(q, jobs=2) == scan(q, jobs=1)

    @pytest.mark.parametrize("jobs", [0, -1])
    def test_jobs_below_one_rejected(self, jobs):
        with pytest.raises(ValueError, match="jobs must be >= 1"):
            scan(ScanQuery(3, 3, 2, 2), jobs=jobs)

    def test_biggs_alone_records(self):
        records = scan(ScanQuery(3, 3, 6, 6))
        flagged = [r for r in records if r.ruled_out_by_biggs_alone]
        for record in flagged:
            assert record.ratio >= Fraction(87, 100)
            assert record.verdict.category is BiggsClass.VIOLATION

    def test_capped_degree3_scan(self):
        records = scan(ScanQuery(3, 3, 2, 7, n_max=110))
        by_text = {str(r.array): r for r in records}
        target = by_text["(3,2,2,1,1,1,1;1,1,1,1,1,1,3)"]
        assert target.first_failing_check == "biggs_violation"
        assert target.ratio == Fraction(64, 61)
        big = by_text["(3,2,2,2,2,2;1,1,1,1,1,3)"]  # 126 vertices
        assert big.first_failing_check == "n_max"


class TestBulkInvariants:
    def test_profile_identities_over_enumeration(self):
        # d_D/d_1 = 1 + ratio and strict monotonicity wherever shells are whole
        checked = 0
        for arr in enumerate_arrays(ScanQuery(3, 5, 2, 5)):
            if not compute_distance_distribution(arr).shells_integral:
                continue
            profile = resistance_profile(arr)
            assert profile.d[-1] / profile.d[0] == 1 + profile.ratio
            assert all(a < b for a, b in zip(profile.d, profile.d[1:]))
            checked += 1
        assert checked > 300


class TestOneDerivation:
    # each layer derives one distance distribution per array and reuses it:
    # the integer one, which `compute_distance_distribution` wraps
    MODULES = ("arrays", "potentials", "resistance", "scanner", "catalog", "walks", "cli")

    @pytest.fixture
    def distribution_calls(self, monkeypatch):
        calls = []
        original = _distribution_terms

        def counted(arr):
            calls.append(arr)
            return original(arr)

        for name in self.MODULES:
            # raising=False: potentials and resistance import no distribution
            # today, and a later import of one would still be counted
            monkeypatch.setattr(importlib.import_module(f"drglab.{name}"), "_distribution_terms", counted, raising=False)
        return calls

    @pytest.mark.parametrize(
        "text",
        ["(3,2;1,1)", "(3,2,2,2,1,1,1;1,1,1,1,1,1,3)", "(3,2,2,1,1,1,1;1,1,1,1,1,1,3)"],
    )
    def test_evaluate_array(self, distribution_calls, text):
        # one integer distribution, whose shells the stages read, as analyze's
        record = evaluate_array(parse_intersection_array(text))
        assert record.verdict is not None
        assert len(distribution_calls) == 1

    def test_analyze(self, distribution_calls, capsys):
        # its own; the profile and the walk bounds reuse it, and the
        # recursion reads n without one
        assert main(["analyze", "(3,2,2,2,1,1,1;1,1,1,1,1,1,3)", "--format", "json"]) == 0
        assert len(distribution_calls) == 1

    def test_resistance_profile(self, distribution_calls):
        resistance_profile(parse_intersection_array("(3,2,2,2,1,1,1;1,1,1,1,1,1,3)"))
        assert len(distribution_calls) == 1

    def test_recompute_entry(self, distribution_calls):
        entries = catalog()
        for entry in entries:
            assert recompute_entry(entry).matches
        assert len(distribution_calls) == len(entries)
