"""Exact rounding and the fraction-free (Bareiss) linear solver."""

from fractions import Fraction

import numpy as np
import pytest

from drglab.rational import decimal_string, round_half_even, solve_exact


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

    def test_round_half_even_returns_fraction(self):
        assert round_half_even(Fraction(7, 3), 1) == Fraction(23, 10)
        assert round_half_even(Fraction(1, 2), 0) == 0
        assert round_half_even(Fraction(5, 2), 0) == 2

    def test_negative_places_rejected(self):
        with pytest.raises(ValueError):
            round_half_even(Fraction(1), -1)

    def test_matches_python_bankers_rounding(self):
        for numerator in range(-50, 50):
            value = Fraction(numerator, 4)
            assert round_half_even(value, 0) == round(float(value))


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
