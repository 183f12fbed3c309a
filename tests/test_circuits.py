"""The harmonic assignment and both numeric oracles."""

from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drglab import (
    ArrayMismatch,
    NotAdjacent,
    PotentialAssignment,
    build_harmonic_function,
    check_harmonicity,
    construct_named_graph,
    effective_resistance_oracle,
    laplacian_spectral_gap,
    measure_current,
    parse_intersection_array,
    potentials_recursive,
    representative_pairs,
    resistance_profile,
    verify_distance_regular,
)
from drglab.circuits import (
    JACOBI_MAX_SWEEPS,
    JACOBI_OFF_TOL,
    NotConverged,
    all_pairs_by_distance,
    effective_resistances,
    jacobi_eigenvalues,
    laplacian_matrix,
)
from drglab.rational import solve_exact

CUBE = construct_named_graph("hypercube", (3,))
PETERSEN = construct_named_graph("petersen")
K4 = construct_named_graph("complete", (4,))


def harmonic_setup(g):
    arr = verify_distance_regular(g)
    p = potentials_recursive(arr)
    u, v = 0, g.adjacency[0][0]
    return arr, build_harmonic_function(g, u, v, p)


class TestHarmonicFunction:
    def test_cube_value_multiset(self):
        _, f = harmonic_setup(CUBE)
        assert Counter(f.values) == Counter({7: 1, 2: 2, 1: 1, -1: 1, -2: 2, -7: 1})

    def test_k4_values(self):
        _, f = harmonic_setup(K4)
        assert Counter(f.values) == Counter({3: 1, -3: 1, 0: 2})

    def test_petersen_values(self):
        _, f = harmonic_setup(PETERSEN)
        assert Counter(f.values) == Counter({9: 1, 3: 2, 0: 4, -3: 2, -9: 1})

    def test_residual_exactly_zero(self):
        for g in (CUBE, PETERSEN, K4, construct_named_graph("heawood")):
            _, f = harmonic_setup(g)
            assert check_harmonicity(g, f) == 0

    def test_every_terminal_edge_works(self):
        # the assignment must be harmonic whichever edge carries the battery
        for g in (CUBE, PETERSEN):
            arr = verify_distance_regular(g)
            p = potentials_recursive(arr)
            for u, v in sorted(g.edges):
                f = build_harmonic_function(g, u, v, p)
                assert check_harmonicity(g, f) == 0
                assert measure_current(g, f) == g.n * arr.k

    def test_corrupted_assignment_detected(self):
        _, f = harmonic_setup(CUBE)
        bumped = list(f.values)
        bumped[5] += 1
        broken = PotentialAssignment(tuple(bumped), f.u, f.v, f.expected_current)
        assert check_harmonicity(CUBE, broken) >= 1

    def test_array_mismatch(self):
        wrong = potentials_recursive(parse_intersection_array("(3,2;1,1)"))
        with pytest.raises(ArrayMismatch):
            build_harmonic_function(CUBE, 0, 1, wrong)
        # the array is checked before adjacency
        with pytest.raises(ArrayMismatch):
            build_harmonic_function(CUBE, 0, 7, wrong)

    def test_requires_adjacent(self):
        p = potentials_recursive(verify_distance_regular(CUBE))
        with pytest.raises(NotAdjacent):
            build_harmonic_function(CUBE, 0, 7, p)


class TestCurrent:
    @pytest.mark.parametrize(
        "g,expected",
        [(CUBE, 24), (K4, 12), (PETERSEN, 30)],
        ids=["cube", "K4", "petersen"],
    )
    def test_source_current_is_nk(self, g, expected):
        _, f = harmonic_setup(g)
        assert measure_current(g, f) == expected
        assert f.expected_current == expected

    def test_sink_current_is_negative(self):
        _, f = harmonic_setup(CUBE)
        assert measure_current(CUBE, f, at=f.v) == -24


class TestResistanceOracle:
    def test_cube_adjacent_and_antipodal(self):
        assert effective_resistance_oracle(CUBE, 0, 1) == Fraction(7, 12)
        assert effective_resistance_oracle(CUBE, 0, 7) == Fraction(5, 6)

    def test_k4(self):
        assert effective_resistance_oracle(K4, 0, 1) == Fraction(1, 2)

    def test_symmetric_in_endpoints(self):
        assert effective_resistance_oracle(PETERSEN, 0, 2) == effective_resistance_oracle(PETERSEN, 2, 0)

    def test_matches_formula_per_distance(self):
        for g in (CUBE, PETERSEN, construct_named_graph("johnson", (5, 2))):
            arr = verify_distance_regular(g)
            profile = resistance_profile(arr)
            for j, pair in representative_pairs(g).items():
                assert effective_resistance_oracle(g, *pair) == profile.at(j)

    def test_matches_numpy_pseudoinverse(self):
        # cross-check the exact solver against an unrelated float route
        for g in (CUBE, PETERSEN):
            lap = laplacian_matrix(g)
            pinv = np.linalg.pinv(lap)
            for u, v in [(0, 1), (0, g.n - 1)]:
                expected = pinv[u, u] + pinv[v, v] - 2 * pinv[u, v]
                assert abs(float(effective_resistance_oracle(g, u, v)) - expected) < 1e-9

    def test_exhaustive_pairs_agree(self):
        arr = verify_distance_regular(PETERSEN)
        profile = resistance_profile(arr)
        for j, pairs in all_pairs_by_distance(PETERSEN).items():
            for pair in pairs:
                assert effective_resistance_oracle(PETERSEN, *pair) == profile.at(j)

    def test_same_vertex_rejected(self):
        with pytest.raises(ValueError):
            effective_resistance_oracle(CUBE, 3, 3)

    def test_series_law_on_path(self):
        # three unit resistors in series; no distance-regularity involved
        from drglab import ExplicitGraph

        path = ExplicitGraph(4, [(0, 1), (1, 2), (2, 3)])
        assert effective_resistance_oracle(path, 0, 3) == 3
        assert effective_resistance_oracle(path, 0, 2) == 2

    def test_parallel_law_on_cycle(self):
        # antipodes of C6: two arms of 3 in parallel -> 3*3/(3+3)
        cycle = construct_named_graph("cycle", (6,))
        assert effective_resistance_oracle(cycle, 0, 3) == Fraction(3, 2)
        assert effective_resistance_oracle(cycle, 0, 1) == Fraction(5, 6)


class TestBatchedOracle:
    def test_agrees_with_one_pair_oracle_on_every_petersen_pair(self):
        pairs = [(a, b) for a in range(PETERSEN.n) for b in range(PETERSEN.n) if a != b]
        batched = effective_resistances(PETERSEN, pairs)
        assert batched == [effective_resistance_oracle(PETERSEN, a, b) for a, b in pairs]

    def test_keeps_pair_order_and_repeats(self):
        pairs = [(7, 0), (0, 1), (0, 7), (0, 1)]
        assert effective_resistances(CUBE, pairs) == [Fraction(5, 6), Fraction(7, 12), Fraction(5, 6), Fraction(7, 12)]

    def test_bad_pairs_rejected(self):
        with pytest.raises(ValueError):
            effective_resistances(CUBE, [(0, 1), (2, 2)])
        with pytest.raises(ValueError):
            effective_resistances(CUBE, [(0, 8)])

    def test_no_pairs(self):
        assert effective_resistances(CUBE, []) == []


class TestMatrixTree:
    """Kirchhoff: the grounded Laplacian's determinant counts spanning trees."""

    @staticmethod
    def grounded_determinant(g):
        lap = laplacian_matrix(g)
        det, _ = solve_exact([[int(x) for x in row[1:]] for row in lap[1:]], [])
        return det

    @pytest.mark.parametrize("n", range(4, 9))
    def test_complete_graphs(self, n):
        assert self.grounded_determinant(construct_named_graph("complete", (n,))) == n ** (n - 2)

    def test_cube(self):
        assert self.grounded_determinant(CUBE) == 384

    def test_petersen(self):
        assert self.grounded_determinant(PETERSEN) == 2000


class TestExactSolver:
    def test_known_system(self):
        # det 5, x = (4/5, 7/5)
        assert solve_exact([[2, 1], [1, 3]], [[3, 5]]) == (5, [[4, 7]])

    def test_singular_detected(self):
        with pytest.raises(ValueError):
            solve_exact([[1, 2], [2, 4]], [[1, 1]])


class TestEigensolver:
    def test_cube_spectrum(self):
        eigenvalues = jacobi_eigenvalues(laplacian_matrix(CUBE))
        assert np.allclose(eigenvalues, [0, 2, 2, 2, 4, 4, 4, 6], atol=1e-8)

    def test_agrees_with_lapack(self):
        for g in (PETERSEN, construct_named_graph("hamming", (3, 3))):
            lap = laplacian_matrix(g)
            assert np.allclose(jacobi_eigenvalues(lap), np.linalg.eigvalsh(lap), atol=1e-8)

    @pytest.mark.parametrize(
        "g,gap",
        [(K4, 4.0), (CUBE, 2.0), (PETERSEN, 2.0), (construct_named_graph("johnson", (5, 2)), 5.0)],
        ids=["K4", "cube", "petersen", "J52"],
    )
    def test_spectral_gap(self, g, gap):
        assert abs(laplacian_spectral_gap(g) - gap) < 1e-8


def reference_jacobi(matrix):
    """`jacobi_eigenvalues` as it rotated before the stacked update: the rows
    p, q, then the columns p, q, each from copies, in numpy scalars."""
    a = np.array(matrix, dtype=float)
    n = a.shape[0]
    with np.errstate(over="ignore"):
        for _ in range(JACOBI_MAX_SWEEPS):
            off = np.sqrt(max(np.sum(a * a) - np.sum(np.diag(a) ** 2), 0.0))
            if off <= JACOBI_OFF_TOL:
                return np.sort(np.diag(a))
            for p in range(n - 1):
                for q in range(p + 1, n):
                    apq = a[p, q]
                    if apq == 0.0:
                        continue
                    theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                    t = np.sign(theta) if theta != 0 else 1.0
                    t /= abs(theta) + np.hypot(theta, 1.0)
                    c = 1.0 / np.sqrt(t * t + 1.0)
                    s = t * c
                    row_p, row_q = a[p, :].copy(), a[q, :].copy()
                    a[p, :] = c * row_p - s * row_q
                    a[q, :] = s * row_p + c * row_q
                    col_p, col_q = a[:, p].copy(), a[:, q].copy()
                    a[:, p] = c * col_p - s * col_q
                    a[:, q] = s * col_p + c * col_q
    if np.linalg.norm(a - np.diag(np.diag(a))) <= JACOBI_OFF_TOL:
        return np.sort(np.diag(a))
    raise NotConverged(f"Jacobi sweep did not converge in {JACOBI_MAX_SWEEPS} sweeps")


def eigenvalue_bytes(solver, matrix):
    """The eigenvalues' bytes, or the name of the exception the solver raised."""
    try:
        return solver(matrix).tobytes()
    except NotConverged as exc:
        return type(exc).__name__


# every family spec the benchmark verifies or walks on, aliases included, and
# C5 and C14, whose sweeps stall and end in the entries' own norm
BENCH_SPECS = [
    ("petersen", ()),
    ("heawood", ()),
    ("pappus", ()),
    ("desargues", ()),
    ("dodecahedron", ()),
    ("hypercube", (3,)),
    ("hamming", (3, 2)),
    ("hypercube", (4,)),
    ("hamming", (4, 2)),
    ("hypercube", (6,)),
    ("hamming", (6, 2)),
    ("complete", (8,)),
    ("hamming", (1, 8)),
    ("johnson", (8, 1)),
    ("johnson", (8, 7)),
    ("complete", (9,)),
    ("hamming", (1, 9)),
    ("johnson", (9, 1)),
    ("johnson", (9, 8)),
    ("complete", (16,)),
    ("hamming", (1, 16)),
    ("johnson", (16, 1)),
    ("johnson", (16, 15)),
    ("complete", (20,)),
    ("hamming", (1, 20)),
    ("johnson", (20, 1)),
    ("johnson", (20, 19)),
    ("complete_bipartite", (5,)),
    ("complete_bipartite", (6,)),
    ("complete_bipartite", (10,)),
    ("complete_bipartite", (16,)),
    ("complete_bipartite_minus_matching", (6,)),
    ("complete_bipartite_minus_matching", (7,)),
    ("complete_bipartite_minus_matching", (10,)),
    ("complete_bipartite_minus_matching", (12,)),
    ("complete_bipartite_minus_matching", (16,)),
    ("cocktail_party", (5,)),
    ("cocktail_party", (9,)),
    ("cocktail_party", (10,)),
    ("hamming", (2, 3)),
    ("hamming", (2, 4)),
    ("hamming", (2, 5)),
    ("hamming", (3, 3)),
    ("hamming", (3, 4)),
    ("johnson", (5, 2)),
    ("johnson", (5, 3)),
    ("johnson", (6, 2)),
    ("johnson", (6, 3)),
    ("johnson", (6, 4)),
    ("johnson", (7, 2)),
    ("johnson", (7, 3)),
    ("johnson", (7, 4)),
    ("johnson", (7, 5)),
    ("johnson", (8, 2)),
    ("johnson", (8, 3)),
    ("johnson", (8, 5)),
    ("johnson", (8, 6)),
    ("cycle", (5,)),
    ("cycle", (14,)),
]


@st.composite
def symmetric_integer_matrices(draw):
    n = draw(st.integers(1, 12))
    entries = st.one_of(st.just(0), st.integers(-9, 9))
    a = np.zeros((n, n))
    for i in range(n):
        for j in range(i, n):
            a[i, j] = a[j, i] = draw(entries)
    return a


class TestEigensolverBits:
    """The stacked rotation gives every bit the row-then-column form gives."""

    @pytest.mark.parametrize("family,params", BENCH_SPECS, ids=[f"{f}{list(p)}" for f, p in BENCH_SPECS])
    def test_bench_graphs(self, family, params):
        lap = laplacian_matrix(construct_named_graph(family, params))
        assert eigenvalue_bytes(jacobi_eigenvalues, lap) == eigenvalue_bytes(reference_jacobi, lap)

    @given(symmetric_integer_matrices())
    @settings(max_examples=150, deadline=None)
    def test_symmetric_integer_matrices(self, matrix):
        assert eigenvalue_bytes(jacobi_eigenvalues, matrix) == eigenvalue_bytes(reference_jacobi, matrix)

    def test_theta_overflow_skips_the_rotation(self):
        # (2 - 1) / (2 * 1e-320) overflows to inf, so t = 0: c = 1, s = 0
        matrix = np.array([[1.0, 1e-320], [1e-320, 2.0]])
        eigenvalues = jacobi_eigenvalues(matrix)
        assert eigenvalues.tobytes() == reference_jacobi(matrix).tobytes()
        assert eigenvalues.tolist() == [1.0, 2.0]
