"""Resistance profiles, the head-to-tail ratio, and classification."""

from fractions import Fraction

import pytest

from drglab import (
    BIGGS_THRESHOLD,
    SHARP_RATIO,
    BiggsClass,
    ScanQuery,
    classify_biggs,
    extremal_set,
    parse_intersection_array,
    potentials_recursive,
    resistance_profile,
    scan,
)
from drglab.rational import decimal_string
from drglab.resistance import _classify, classify_ratio

CUBE = parse_intersection_array("(3,2,1;1,2,3)")
PETERSEN = parse_intersection_array("(3,2;1,1)")
K4 = parse_intersection_array("(3;1)")
BIGGS_SMITH = parse_intersection_array("(3,2,2,2,1,1,1;1,1,1,1,1,1,3)")
FOSTER = parse_intersection_array("(3,2,2,2,2,1,1,1;1,1,1,1,2,2,2,3)")
TWELVE_CAGE = parse_intersection_array("(3,2,2,2,2,2;1,1,1,1,1,3)")


class TestProfile:
    def test_cube(self):
        profile = resistance_profile(CUBE)
        assert profile.d == (Fraction(7, 12), Fraction(3, 4), Fraction(5, 6))
        assert profile.n == 8 and profile.m == 12
        assert profile.at(3) == Fraction(5, 6)
        with pytest.raises(IndexError):
            profile.at(0)

    def test_adjacent_simplifies(self):
        for arr in (CUBE, PETERSEN, K4, BIGGS_SMITH):
            profile = resistance_profile(arr)
            assert profile.d[0] == Fraction(profile.n - 1, profile.m)

    def test_complete_graph(self):
        assert resistance_profile(K4).d == (Fraction(1, 2),)

    def test_petersen(self):
        assert resistance_profile(PETERSEN).d == (Fraction(3, 5), Fraction(4, 5))

    def test_strictly_increasing(self):
        for arr in (CUBE, BIGGS_SMITH, FOSTER, TWELVE_CAGE):
            d = resistance_profile(arr).d
            assert all(d[i] < d[i + 1] for i in range(len(d) - 1))

    def test_k_factor_identity(self):
        # d_D / d_1 = 1 + ratio, both sides via separate arithmetic
        for arr in (CUBE, PETERSEN, BIGGS_SMITH, FOSTER):
            profile = resistance_profile(arr)
            assert profile.d[-1] / profile.d[0] == 1 + potentials_recursive(arr).ratio()
            assert profile.K_factor == 1 + profile.ratio

    def test_non_integral_rejected(self):
        with pytest.raises(ValueError):
            resistance_profile(parse_intersection_array("(3,1;1,2)"))


class TestRatio:
    def test_known_values(self):
        assert potentials_recursive(BIGGS_SMITH).ratio() == Fraction(94, 101)
        assert potentials_recursive(TWELVE_CAGE).ratio() == Fraction(109, 125)
        assert potentials_recursive(parse_intersection_array("(3,2,2,1,1,1,1;1,1,1,1,1,1,3)")).ratio() == Fraction(64, 61)

    def test_decimals(self):
        assert decimal_string(Fraction(94, 101)) == "0.930693"
        assert decimal_string(Fraction(109, 125), 3) == "0.872"
        assert decimal_string(Fraction(64, 61), 5) == "1.04918"

    def test_diameter_one_is_zero(self):
        assert potentials_recursive(K4).ratio() == 0


class TestClassification:
    def test_cube_strict(self):
        verdict = classify_biggs(CUBE)
        assert verdict.category is BiggsClass.PASS_STRICT
        assert verdict.ratio == Fraction(3, 7)
        assert verdict.matched_extremal is None

    def test_foster_extremal(self):
        verdict = classify_biggs(FOSTER)
        assert verdict.category is BiggsClass.EXTREMAL
        assert verdict.matched_extremal == "Foster Graph"

    def test_violation(self):
        verdict = classify_biggs(parse_intersection_array("(5,2,2,1,1,1,1;1,1,1,1,1,1,4)"))
        assert verdict.category is BiggsClass.VIOLATION
        assert verdict.ratio == Fraction(83, 80)
        assert decimal_string(verdict.ratio, 4) == "1.0375"

    def test_membership_is_by_array_not_ratio(self):
        # above threshold but not one of the four arrays -> VIOLATION
        verdict = classify_biggs(parse_intersection_array("(3,2,2,1,1,1,1;1,1,1,1,1,1,3)"))
        assert verdict.category is BiggsClass.VIOLATION

    def test_low_valency_refused(self):
        with pytest.raises(ValueError, match="^classification needs valency >= 3, got k = 2$"):
            classify_biggs(parse_intersection_array("(2,1,1;1,1,2)"))

    def test_threshold_is_exact(self):
        assert BIGGS_THRESHOLD == Fraction(87, 100)
        assert SHARP_RATIO == Fraction(94, 101)


class TestIntegerThreshold:
    # classify_ratio cross-multiplies against 87/100 instead of comparing
    # Fractions; these pin it to the Fraction comparison

    def test_at_threshold_is_not_strict(self):
        assert classify_ratio(CUBE, BIGGS_THRESHOLD).category is BiggsClass.VIOLATION
        assert classify_ratio(TWELVE_CAGE, BIGGS_THRESHOLD).category is BiggsClass.EXTREMAL

    @pytest.mark.parametrize("offset", [-1, 1])
    def test_one_trillionth_either_side(self, offset):
        ratio = BIGGS_THRESHOLD + Fraction(offset, 10**12)
        strict = classify_ratio(CUBE, ratio).category is BiggsClass.PASS_STRICT
        assert strict == (ratio < BIGGS_THRESHOLD) == (offset < 0)

    # the scanner classifies by the integer rule on the reduced p/q alone,
    # which classify_ratio wraps; each case must give the same verdict
    @pytest.mark.parametrize("arr", [CUBE, TWELVE_CAGE], ids=["cube", "12-cage"])
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_integer_rule_at_the_threshold(self, arr, offset):
        ratio = BIGGS_THRESHOLD + Fraction(offset, 10**12)
        verdict = classify_ratio(arr, ratio)
        assert _classify(arr, ratio.numerator, ratio.denominator) == (verdict.category, verdict.matched_extremal)
        assert (verdict.category is BiggsClass.PASS_STRICT) == (offset < 0)

    @pytest.mark.parametrize("entry", extremal_set(), ids=lambda entry: entry.name)
    def test_integer_rule_on_the_extremal_arrays(self, entry):
        verdict = classify_ratio(entry.array, entry.ratio)
        expected = (BiggsClass.EXTREMAL, entry.name)
        assert _classify(entry.array, entry.ratio.numerator, entry.ratio.denominator) == (verdict.category, verdict.matched_extremal) == expected

    @pytest.mark.parametrize("entry", extremal_set(), ids=lambda entry: entry.name)
    def test_integer_rule_on_a_cube_at_an_extremal_ratio(self, entry):
        verdict = classify_ratio(CUBE, entry.ratio)
        expected = (BiggsClass.VIOLATION, None)
        assert _classify(CUBE, entry.ratio.numerator, entry.ratio.denominator) == (verdict.category, verdict.matched_extremal) == expected

    def test_agrees_with_fraction_comparison_over_a_scan(self):
        sides = set()
        for record in scan(ScanQuery(3, 6, 1, 6)):
            if record.ratio is None:
                continue
            strict = classify_ratio(record.array, record.ratio).category is BiggsClass.PASS_STRICT
            assert strict == (record.ratio < BIGGS_THRESHOLD), record.array
            sides.add(strict)
        assert sides == {True, False}


class TestExtremalSet:
    def test_exactly_four(self):
        entries = extremal_set()
        assert [e.name for e in entries] == [
            "Biggs-Smith Graph",
            "Foster Graph",
            "Flag graph of GH(2,2)",
            "Tutte's 12-Cage",
        ]

    def test_exact_ratios(self):
        ratios = [e.ratio for e in extremal_set()]
        assert ratios == [Fraction(94, 101), Fraction(319, 356), Fraction(166, 188), Fraction(109, 125)]

    def test_printed_decimals(self):
        rendered = [decimal_string(e.ratio) for e in extremal_set()]
        assert rendered == ["0.930693", "0.896067", "0.882979", "0.872000"]

    def test_ratios_recomputable(self):
        for entry in extremal_set():
            assert potentials_recursive(entry.array).ratio() == entry.ratio

    def test_all_in_threshold_window(self):
        for entry in extremal_set():
            assert BIGGS_THRESHOLD <= entry.ratio <= SHARP_RATIO
