"""The harmonic assignment and both numeric oracles."""

from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drglab import (
    ArrayMismatch,
    ExplicitGraph,
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
from drglab import circuits
from drglab.circuits import (
    JACOBI_MAX_SWEEPS,
    JACOBI_OFF_TOL,
    NotConverged,
    _certified_solve,
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
        with pytest.raises(ValueError, match="^0 and 7 are not adjacent$"):
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

    def test_no_pairs(self, eliminations):
        assert effective_resistances(CUBE, []) == []
        assert eliminations == []


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


def reference_residual(g, assignment):
    """`check_harmonicity` summed in `Fraction`s."""
    worst = Fraction(0)
    f = assignment.values
    for z in range(g.n):
        if z not in (assignment.u, assignment.v):
            worst = max(worst, abs(sum((f[x] - f[z] for x in g.adjacency[z]), Fraction(0))))
    return worst


def reference_current(g, assignment):
    """`measure_current` summed in `Fraction`s."""
    f = assignment.values
    return sum((f[assignment.u] - f[x] for x in g.adjacency[assignment.u]), Fraction(0))


HARMONIC_GRAPHS = [CUBE, PETERSEN, K4, construct_named_graph("heawood"), ExplicitGraph(4, [(0, 1), (1, 2), (2, 3)])]


@st.composite
def assignments(draw):
    """A graph and an arbitrary rational assignment: any terminals, adjacent
    or not, and values of any sign and denominator."""
    g = draw(st.sampled_from(HARMONIC_GRAPHS))
    values = tuple(draw(st.lists(st.fractions(), min_size=g.n, max_size=g.n)))
    u, v = draw(st.integers(0, g.n - 1)), draw(st.integers(0, g.n - 1))
    return g, PotentialAssignment(values, u, v, draw(st.integers(-100, 100)))


@st.composite
def broken_harmonic(draw):
    """A true voltage function with one value moved by a nonzero rational."""
    g = draw(st.sampled_from(HARMONIC_GRAPHS[:4]))
    _, f = harmonic_setup(g)
    bumped = list(f.values)
    bumped[draw(st.integers(0, g.n - 1))] += draw(st.fractions().filter(bool))
    return g, PotentialAssignment(tuple(bumped), f.u, f.v, f.expected_current)


class TestIntegerHarmonicSums:
    """The integer sums give the `Fraction` reference's value exactly."""

    @given(assignments())
    @settings(max_examples=200, deadline=None)
    def test_arbitrary_assignments(self, drawn):
        g, f = drawn
        assert check_harmonicity(g, f) == reference_residual(g, f)
        assert measure_current(g, f) == reference_current(g, f)
        assert type(check_harmonicity(g, f)) is Fraction and type(measure_current(g, f)) is Fraction

    @given(broken_harmonic())
    @settings(max_examples=100, deadline=None)
    def test_broken_assignments(self, drawn):
        g, f = drawn
        assert check_harmonicity(g, f) == reference_residual(g, f)
        assert measure_current(g, f) == reference_current(g, f)

    def test_true_voltages_stay_exact(self):
        for g in HARMONIC_GRAPHS[:4]:
            _, f = harmonic_setup(g)
            assert check_harmonicity(g, f) == reference_residual(g, f) == 0
            assert measure_current(g, f) == reference_current(g, f) == f.expected_current


def bareiss_resistances(g, pairs):
    """The oracle as one fraction-free elimination, with no float solve."""
    size = g.n - 1
    matrix = [[0] * size for _ in range(size)]
    for z in range(1, g.n):
        matrix[z - 1][z - 1] = len(g.adjacency[z])
        for x in g.adjacency[z]:
            if x:
                matrix[z - 1][x - 1] -= 1
    sources = sorted({z for pair in pairs for z in pair if z})
    det, solved = solve_exact(matrix, [[int(i == z - 1) for i in range(size)] for z in sources])
    column = dict(zip(sources, solved))

    def y(a, b):
        return column[b][a - 1] if a and b else 0

    return [Fraction(y(a, a) + y(b, b) - 2 * y(a, b), det) for a, b in pairs]


def every_pair(g):
    return [pair for pairs in all_pairs_by_distance(g).values() for pair in pairs]


@pytest.fixture
def no_fallback(monkeypatch):
    def refuse(*_):
        raise AssertionError("the certified route fell back to elimination")

    monkeypatch.setattr(circuits, "solve_exact", refuse)


@pytest.fixture
def eliminations(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return solve_exact(*args)

    monkeypatch.setattr(circuits, "solve_exact", counted)
    return calls


# the benchmark's graphs above, the other constructions the suite verifies,
# and a path and a prism, which are not distance-regular
CERTIFIED_SPECS = BENCH_SPECS + [
    ("complete", (4,)),
    ("complete", (5,)),
    ("cocktail_party", (3,)),
    ("complete_bipartite_minus_matching", (5,)),
    ("cycle", (6,)),
    ("hamming", (4, 3)),
]
EDGE_LIST_GRAPHS = {
    "path": ExplicitGraph(4, [(0, 1), (1, 2), (2, 3)]),
    "prism": ExplicitGraph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3), (1, 4), (2, 5)]),
}


class TestCertifiedOracle:
    """The float route's values are elimination's, and only the exact
    integer check lets them through."""

    @pytest.mark.parametrize("family,params", CERTIFIED_SPECS, ids=[f"{f}{list(p)}" for f, p in CERTIFIED_SPECS])
    def test_every_pair_equals_elimination(self, family, params, no_fallback):
        g = construct_named_graph(family, params)
        pairs = every_pair(g)
        assert effective_resistances(g, pairs) == bareiss_resistances(g, pairs)

    @pytest.mark.parametrize("name", sorted(EDGE_LIST_GRAPHS))
    def test_edge_list_graphs(self, name, no_fallback):
        g = EDGE_LIST_GRAPHS[name]
        assert effective_resistances(g, every_pair(g)) == bareiss_resistances(g, every_pair(g))

    @pytest.mark.parametrize("family,params", [("johnson", (8, 3)), ("hypercube", (6,)), ("hypercube", (7,))], ids=["J83", "Q6", "Q7"])
    def test_larger_graphs(self, family, params, no_fallback):
        g = construct_named_graph(family, params)
        pairs = list(representative_pairs(g).values())
        if g.n <= 64:
            pairs = every_pair(g)
        assert effective_resistances(g, pairs) == bareiss_resistances(g, pairs)

    def test_forced_fallback_is_elimination(self, monkeypatch, eliminations):
        # no denominator fits under 1, so every read-back gives up
        monkeypatch.setattr(circuits, "DENOMINATOR_BOUND", 1)
        pairs = every_pair(PETERSEN)
        assert effective_resistances(PETERSEN, pairs) == bareiss_resistances(PETERSEN, pairs)
        assert len(eliminations) == 1

    def test_default_route_runs_no_elimination(self, eliminations):
        effective_resistances(PETERSEN, every_pair(PETERSEN))
        assert eliminations == []

    @staticmethod
    def petersen_system():
        lap = laplacian_matrix(PETERSEN)[1:, 1:].astype(np.int64)
        units = np.eye(9, dtype=np.int64)[:, [0, 3, 8]]
        return lap, units, np.linalg.solve(lap, units)

    def test_float_noise_is_rounded_away(self):
        lap, units, x = self.petersen_system()
        q, columns = _certified_solve(lap, units, x)
        assert _certified_solve(lap, units, x + 1e-9) == (q, columns)
        # the columns are q * inv(L0), checked here in Fractions
        for c, column in enumerate(columns):
            assert [sum(int(lap[r, i]) * column[i] for i in range(9)) for r in range(9)] == [q * int(e) for e in units[:, c]]

    @pytest.mark.parametrize("shift", [Fraction(1, 3), Fraction(-2, 7), Fraction(1, 1000)])
    def test_perturbed_solution_is_rejected(self, shift):
        lap, units, x = self.petersen_system()
        x[4, 1] += float(shift)
        assert _certified_solve(lap, units, x) is None

    def test_perturbation_that_reads_back_is_still_rejected(self):
        # a consistent wrong rational: the denominator is found, the check refuses it
        lap, units, x = self.petersen_system()
        q, _ = _certified_solve(lap, units, x)
        x[2, 0] += 1 / q
        assert _certified_solve(lap, units, x) is None

    def test_non_finite_and_oversized_solutions_are_refused(self):
        lap, units, x = self.petersen_system()
        assert _certified_solve(lap, units, np.full_like(x, np.nan)) is None
        # integers whose product with lap would leave int64
        assert _certified_solve(lap, units, np.full_like(x, 2.0**60)) is None
