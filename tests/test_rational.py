"""Exact rounding and the fraction-free (Bareiss) linear solver."""

import random
from fractions import Fraction

import numpy as np
import pytest

from drglab import ScanQuery, scan
from drglab.rational import decimal_string, solve_exact


def round_half_even(value: Fraction, places: int) -> Fraction:
    """Reference: round an exact rational to `places` decimal digits, ties to even."""
    scaled = value * 10**places
    whole, rem = divmod(scaled.numerator, scaled.denominator)
    double = 2 * rem
    if double > scaled.denominator or (double == scaled.denominator and whole % 2):
        whole += 1
    return Fraction(whole, 10**places)


def reference_decimal_string(value: Fraction, places: int = 6) -> str:
    """Reference: the `Fraction` route, round the magnitude then quantize."""
    sign = "-" if value < 0 else ""
    quantized = round_half_even(abs(Fraction(value)), places)
    scaled = quantized * 10**places
    if places == 0:
        return sign + str(scaled.numerator)
    digits = f"{scaled.numerator:0{places + 1}d}"
    return f"{sign}{digits[:-places]}.{digits[-places:]}"


class TestRounding:
    @pytest.mark.parametrize(
        "value,places,expected",
        [
            (Fraction(1, 2), 0, "0"),  # tie to even: 0
            (Fraction(3, 2), 0, "2"),  # tie to even: 2
            (Fraction(1, 8), 2, "0.12"),  # 0.125 -> even neighbor 0.12
            (Fraction(3, 8), 2, "0.38"),  # 0.375 -> even neighbor 0.38
            (Fraction(7, 8), 2, "0.88"),
            (Fraction(1, 3), 6, "0.333333"),
            (Fraction(2, 3), 6, "0.666667"),
            (Fraction(-2, 3), 4, "-0.6667"),
            (Fraction(0), 3, "0.000"),
            (Fraction(94, 101), 6, "0.930693"),
            (Fraction(64, 61), 5, "1.04918"),
            (Fraction(83, 80), 4, "1.0375"),
            (Fraction(1259, 1341), 6, "0.938852"),
            (Fraction(109, 125), 3, "0.872"),
            (Fraction(5), 2, "5.00"),
        ],
    )
    def test_decimal_string(self, value, places, expected):
        assert decimal_string(value, places) == expected

    def test_negative_places_rejected(self):
        with pytest.raises(ValueError):
            decimal_string(Fraction(1), -1)

    def test_matches_python_bankers_rounding(self):
        for numerator in range(-50, 50):
            value = Fraction(numerator, 4)
            assert int(decimal_string(value, 0)) == round(float(value))


class TestIntegerRounding:
    # the integer decimal_string against the Fraction reference above
    def test_random_fractions(self):
        rng = random.Random(20240809)
        for _ in range(200_000):
            numerator = rng.randrange(-(10 ** rng.randrange(1, 30)), 10 ** rng.randrange(1, 30))
            value = Fraction(numerator, rng.randrange(1, 10 ** rng.randrange(1, 25)))
            places = rng.randrange(9)
            assert decimal_string(value, places) == reference_decimal_string(value, places), (value, places)

    @pytest.mark.parametrize(
        "value,places,expected",
        [
            (Fraction(1, 2000000), 6, "0.000000"),  # 0.0000005 -> even 0
            (Fraction(3, 2000000), 6, "0.000002"),  # 0.0000015 -> even 2
            (Fraction(5, 2), 0, "2"),
            (Fraction(7, 2), 0, "4"),
            (Fraction(-3, 2000000), 6, "-0.000002"),
        ],
    )
    def test_exact_ties(self, value, places, expected):
        assert decimal_string(value, places) == reference_decimal_string(value, places) == expected

    @pytest.mark.parametrize("value", [Fraction(-1, 2000000), Fraction(-1, 3000000), Fraction(-1, 10**9)])
    def test_negative_rounding_to_zero_keeps_sign(self, value):
        assert decimal_string(value) == reference_decimal_string(value) == "-0.000000"

    @pytest.mark.parametrize("places", range(9))
    def test_places(self, places):
        values = [Fraction(94, 101), Fraction(-64, 61), Fraction(5), Fraction(0), Fraction(1, 8), Fraction(10**12 + 1, 3)]
        values += [Fraction(n, 2 * 10**places) for n in range(-25, 26)]  # ties at the last place
        for value in values:
            assert decimal_string(value, places) == reference_decimal_string(value, places)

    def test_scan_ratios(self):
        ratios = [r.ratio for r in scan(ScanQuery(3, 6, 1, 6)) if r.ratio is not None]
        assert len(ratios) == 8050
        assert [decimal_string(x) for x in ratios] == [reference_decimal_string(x) for x in ratios]


def solve(matrix, rhs):
    """One right-hand side, solution as exact fractions."""
    det, (scaled,) = solve_exact(matrix, [rhs])
    return [Fraction(y, det) for y in scaled]


class TestSolver:
    def test_identity(self):
        eye = [[int(i == j) for j in range(4)] for i in range(4)]
        rhs = list(range(4))
        assert solve(eye, rhs) == rhs

    def test_requires_square(self):
        with pytest.raises(ValueError):
            solve_exact([[1, 2]], [[1]])
        with pytest.raises(ValueError):
            solve_exact([[1, 0], [0, 1]], [[1]])

    def test_pivoting_past_zero(self):
        assert solve([[0, 1], [1, 0]], [5, 7]) == [7, 5]
        det, (scaled,) = solve_exact([[0, 1], [1, 0]], [[5, 7]])
        assert det == -1  # the row swap flips the determinant's sign
        assert scaled == [-7, -5]

    def test_against_numpy_on_random_systems(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            size = int(rng.integers(2, 7))
            dense = rng.integers(-5, 6, size=(size, size))
            if abs(np.linalg.det(dense)) < 0.5:
                continue
            rhs = rng.integers(-5, 6, size=size)
            exact = solve([[int(x) for x in row] for row in dense], [int(x) for x in rhs])
            assert np.allclose([float(x) for x in exact], np.linalg.solve(dense, rhs), atol=1e-9)

    def test_residuals_with_several_right_hand_sides(self):
        rng = np.random.default_rng(2024)
        solved = 0
        for _ in range(40):
            size = int(rng.integers(1, 9))
            matrix = [[int(x) for x in row] for row in rng.integers(-6, 7, size=(size, size))]
            columns = [[int(x) for x in col] for col in rng.integers(-6, 7, size=(int(rng.integers(1, 5)), size))]
            float_det = round(np.linalg.det(np.array(matrix, dtype=float)))
            if float_det == 0:
                with pytest.raises(ValueError):
                    solve_exact(matrix, columns)
                continue
            solved += 1
            det, scaled = solve_exact(matrix, columns)
            assert det == float_det
            assert len(scaled) == len(columns)
            for b, y in zip(columns, scaled):
                x = [Fraction(v, det) for v in y]
                assert [sum(a * v for a, v in zip(row, x)) for row in matrix] == b
        assert solved >= 20

    def test_determinant_only(self):
        assert solve_exact([[2, 1], [1, 3]], []) == (5, [])
