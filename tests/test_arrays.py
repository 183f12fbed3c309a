"""Parsing, validation, and counting on intersection arrays."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drglab import (
    IntersectionArray,
    check_divisibility,
    compute_distance_distribution,
    diameter_head_bound,
    parse_intersection_array,
    validate_basic,
)

BIGGS_SMITH = "(3,2,2,2,1,1,1;1,1,1,1,1,1,3)"

# (text, the start of its refusal)
MALFORMED = [
    ("3,2,1", "^expected exactly one ';'"),  # no semicolon
    ("(3,2,1;1,2;3)", "^expected exactly one ';'"),  # two semicolons
    ("(3,x,1;1,2,3)", "^bad token 'x'"),  # non-integer token
    ("(;1)", "^empty b half"),  # empty half
    ("(3,2,1;)", "^empty c half"),
    ("(3,-2,1;1,2,3)", "^bad token '-2'"),  # negative
    ("(3,0,1;1,2,3)", "^non-positive entry '0'"),  # zero entry
    ("(3,2,1;1,2,3", "^unbalanced parentheses"),  # unbalanced parens
    ("", "^expected exactly one ';'"),
]


class TestParsing:
    def test_cube_text(self):
        arr = parse_intersection_array("(3,2,1;1,2,3)")
        assert arr.D == 3
        assert arr.b == (3, 2, 1)
        assert arr.c == (1, 2, 3)
        assert arr.k == 3

    def test_minimal_array(self):
        arr = parse_intersection_array("(3;1)")
        assert arr.D == 1
        assert arr.b == (3,)
        assert arr.c == (1,)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match=r"^halves of '\(3,2,1;1,2\)' have lengths 3 and 2$"):
            parse_intersection_array("(3,2,1;1,2)")

    def test_constructor_checks_shape(self):
        # parsing refuses both before construction; direct callers meet these
        with pytest.raises(ValueError, match="^b has 2 entries, c has 1$"):
            IntersectionArray((3, 2), (1,))
        with pytest.raises(ValueError, match="^empty array$"):
            IntersectionArray((), ())

    @pytest.mark.parametrize("text, message", MALFORMED, ids=[text for text, _ in MALFORMED])
    def test_malformed(self, text, message):
        with pytest.raises(ValueError, match=message):
            parse_intersection_array(text)

    def test_entry_past_the_digit_limit_is_malformed(self):
        # int() would refuse a string over 4300 digits with its own message
        with pytest.raises(ValueError, match="^the entries reach 5000 digits"):
            parse_intersection_array("(" + "9" * 5000 + ";1)")

    def test_digit_limit_counts_every_entry(self):
        nines = "9" * 149
        assert parse_intersection_array(f"({nines},1;1,{nines})").k == 10**149 - 1
        with pytest.raises(ValueError, match="^the entries reach 301 digits, past the limit of 300 in all$"):
            parse_intersection_array(f"({nines},1;1,{nines}9)")

    @pytest.mark.parametrize(
        "text",
        [
            "(\u0663,\u0662,\u0661;\u0661,\u0662,\u0663)",  # Arabic-Indic digits
            "(\uff13,2,1;1,2,3)",  # a fullwidth 3
            "(3,2,1;1,2,\u00b3)",  # a superscript 3
            "(3_0;1)",  # an int() digit separator
        ],
    )
    def test_only_ascii_digits_are_read(self, text):
        with pytest.raises(ValueError, match="^bad token"):
            parse_intersection_array(text)

    @pytest.mark.parametrize("b, c", [((True,), (True,)), ((3, True), (1, 1)), ((3, 2), (True, 2))])
    def test_bool_entries_rejected(self, b, c):
        # bool is an int subclass; True would print as "True" and pass validate_basic
        with pytest.raises(ValueError, match="is not a positive integer$"):
            IntersectionArray(b, c)

    def test_whitespace_tolerated_parens_optional(self):
        assert parse_intersection_array(" 3 ,2, 1 ; 1,2 ,3 ") == parse_intersection_array("(3,2,1;1,2,3)")

    def test_format_is_canonical(self):
        arr = parse_intersection_array("( 3,2 ; 1,1 )")
        assert str(arr) == "(3,2;1,1)"

    @given(
        st.lists(st.integers(min_value=1, max_value=30), min_size=1, max_size=8),
        st.lists(st.integers(min_value=1, max_value=30), min_size=1, max_size=8),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_parse_inverts_format(self, b, c, rng):
        size = min(len(b), len(c))
        arr = IntersectionArray(tuple(b[:size]), tuple(c[:size]))
        canonical = str(arr)
        # sprinkle whitespace and optionally drop the parentheses
        loose = canonical.replace(",", rng.choice([",", " , ", ", "]))
        if rng.random() < 0.5:
            loose = loose[1:-1]
        assert str(parse_intersection_array(loose)) == canonical


class TestAccessors:
    def test_boundary_conventions(self):
        arr = parse_intersection_array("(3,2,1;1,2,3)")
        assert arr.b_at(3) == 0
        assert arr.c_at(0) == 0
        assert arr.a_at(0) == 0
        assert arr.a_at(1) == 0
        assert arr.a_at(3) == 0  # k - c_D = 3 - 3

    def test_out_of_range(self):
        arr = parse_intersection_array("(3;1)")
        with pytest.raises(IndexError):
            arr.b_at(2)
        with pytest.raises(IndexError):
            arr.c_at(-1)


class TestValidateBasic:
    def test_biggs_smith_passes(self):
        report = validate_basic(parse_intersection_array(BIGGS_SMITH))
        assert report.overall
        assert [c.name for c in report.checks] == [
            "c1_is_one",
            "b_monotone",
            "c_monotone",
            "cross_condition",
            "a_nonnegative",
        ]

    def test_b_not_monotone(self):
        report = validate_basic(parse_intersection_array("(3,2,3;1,1,3)"))
        assert not report.overall
        failed = report.failed()
        assert failed[0].name == "b_monotone"
        assert "index 2" in failed[0].detail

    def test_negative_a_detected(self):
        # cross condition holds here but a_2 = 5 - 4 - 4 < 0
        report = validate_basic(parse_intersection_array("(5,4,4;1,4,4)"))
        results = {c.name: c.passed for c in report.checks}
        assert results["cross_condition"]
        assert not results["a_nonnegative"]
        assert not report.overall

    def test_c1_must_be_one(self):
        report = validate_basic(IntersectionArray((3, 2), (2, 3)))
        assert not report.checks[0].passed

    def test_cross_condition_violation(self):
        # c_2 = 3 > b_2 = 1 with D = 4: needs b_2 >= c_2 since 2 + 2 <= 4
        report = validate_basic(IntersectionArray((4, 3, 1, 1), (1, 3, 3, 4)))
        results = {c.name: c.passed for c in report.checks}
        assert not results["cross_condition"]


class TestDistanceDistribution:
    def test_biggs_smith_shells(self):
        dist = compute_distance_distribution(parse_intersection_array(BIGGS_SMITH))
        assert dist.k_sizes == (1, 3, 6, 12, 24, 24, 24, 8)
        assert dist.n == 102
        assert dist.m == 153
        assert dist.integral

    def test_tetrahedron(self):
        dist = compute_distance_distribution(parse_intersection_array("(3;1)"))
        assert dist.k_sizes == (1, 3)
        assert dist.n == 4
        assert dist.m == 6

    def test_flag_gh22_count(self):
        dist = compute_distance_distribution(parse_intersection_array("(4,2,2,2,2,2;1,1,1,1,1,2)"))
        assert dist.n == 189

    def test_non_integral_flagged(self):
        dist = compute_distance_distribution(parse_intersection_array("(3,1;1,2)"))
        assert dist.k_sizes[2] == Fraction(3, 2)
        assert not dist.integral

    def test_odd_product_flagged_via_m(self):
        # shells whole but n*k odd, so m is not
        dist = compute_distance_distribution(parse_intersection_array("(3,1;1,1)"))
        assert all(x.denominator == 1 for x in dist.k_sizes)
        assert dist.m == Fraction(21, 2)
        assert not dist.integral

    def test_edge_count_identity(self):
        # e_i = b_i k_i = c_{i+1} k_{i+1}, both sides computed independently
        arr = parse_intersection_array(BIGGS_SMITH)
        dist = compute_distance_distribution(arr)
        for i in range(arr.D):
            assert dist.e[i] == arr.b[i] * dist.k_sizes[i]
            assert dist.e[i] == arr.c[i] * dist.k_sizes[i + 1]

    def test_nk_even_when_integral(self):
        for text in ["(3,2,1;1,2,3)", "(3,2;1,1)", "(4,2,2,2,2,2;1,1,1,1,1,2)", "(6,4,2;1,2,3)"]:
            dist = compute_distance_distribution(parse_intersection_array(text))
            assert dist.integral
            assert (dist.n * parse_intersection_array(text).k) % 2 == 0


class TestDivisibility:
    def test_a1_zero_passes(self):
        assert check_divisibility(parse_intersection_array("(3,2,2;1,1,3)")).passed

    def test_hamming_row_passes(self):
        assert check_divisibility(parse_intersection_array("(6,4,4;1,1,3)")).passed

    def test_indivisible_fails(self):
        result = check_divisibility(parse_intersection_array("(7,4,4;1,1,3)"))
        assert not result.passed
        assert "3" in result.detail

    def test_outside_screen_range_passes(self):
        # a1 = 2 with k = 5, but b1 = 2 keeps the clique screen out of play
        assert check_divisibility(parse_intersection_array("(5,2,2,1,1,1,1;1,1,1,1,1,1,4)")).passed

    def test_c2_above_one_passes(self):
        # b1 = 3 but c2 = 2: neighborhoods need not split into cliques
        assert check_divisibility(
            parse_intersection_array("(8,3,3,3,3,3,3,3,2,2,1;1,2,2,3,3,3,3,3,3,3,8)")
        ).passed


class TestHeadBound:
    def test_cube(self):
        j, bound, passed = diameter_head_bound(parse_intersection_array("(3,2,1;1,2,3)"))
        assert (j, bound, passed) == (2, 3, True)

    def test_biggs_smith(self):
        j, bound, passed = diameter_head_bound(parse_intersection_array(BIGGS_SMITH))
        assert (j, bound, passed) == (4, 11, True)

    def test_long_head_is_vacuous(self):
        arr = parse_intersection_array("(3,2,2,2,2,2,2,2,2,2,2,2;1,1,1,1,1,1,1,1,1,1,1,3)")
        j, bound, passed = diameter_head_bound(arr)
        assert j == 12  # only the b_D = 0 convention stops the scan
        assert passed

    def test_diameter_one(self):
        j, bound, passed = diameter_head_bound(parse_intersection_array("(3;1)"))
        assert (j, bound, passed) == (1, 1, True)

    def test_tie_case_can_fail(self):
        # first crossing is a tie at j = 1, capping D at 2
        j, bound, passed = diameter_head_bound(parse_intersection_array("(4,1,1,1;1,1,1,1)"))
        assert (j, bound, passed) == (1, 2, False)
