"""Commute times, walk bounds, Monte Carlo estimation, spectral chain."""

import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import chain, islice
from pathlib import Path

import pytest
import walk_reference
from families import SMALL_FAMILY_PARAMS, small_family_graph
from hypothesis import example, given, settings
from hypothesis import strategies as st

import drglab
from drglab import (
    AnalyzeReport,
    BiggsClass,
    ExplicitGraph,
    RegularityFailure,
    ResistanceProfile,
    VerifyReport,
    WalkReport,
    analyze_array,
    bfs_distances,
    circuits,
    commute_time,
    construct_named_graph,
    from_edge_list,
    parse_intersection_array,
    potentials_recursive,
    resistance_profile,
    simulate_cover_time,
    simulate_hitting_time,
    spectral_check,
    validate_basic,
    verify_distance_regular,
    verify_graph,
    walk_bounds,
    walk_graph,
    walks,
)

CUBE_ARR = parse_intersection_array("(3,2,1;1,2,3)")
PETERSEN_ARR = parse_intersection_array("(3,2;1,1)")
K4_ARR = parse_intersection_array("(3;1)")
BIGGS_SMITH = parse_intersection_array("(3,2,2,2,1,1,1;1,1,1,1,1,1,3)")

CUBE = construct_named_graph("hypercube", (3,))
PETERSEN = construct_named_graph("petersen")
K4 = construct_named_graph("complete", (4,))
# 3-regular, not distance-regular
PRISM = from_edge_list("6 9\n0 1\n1 2\n2 0\n3 4\n4 5\n5 3\n0 3\n1 4\n2 5\n")


class TestCommuteTime:
    def test_cube(self):
        assert commute_time(CUBE_ARR, 1) == 14
        assert commute_time(CUBE_ARR, 3) == 20

    def test_petersen(self):
        assert commute_time(PETERSEN_ARR, 2) == 24

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            commute_time(CUBE_ARR, 4)


class TestWalkBounds:
    def test_cube_report(self):
        report = walk_bounds(CUBE_ARR)
        assert report.hitting_bound == 14
        assert report.commute_bound == 28
        assert report.spectral_lower_bound == Fraction(3, 28)
        assert report.commute_times == (14, 18, 20)
        assert report.over_commute_bound == ()
        assert math.isclose(report.cover_bound_dominant, 28 * math.log(8))

    def test_k4_cover_term(self):
        report = walk_bounds(K4_ARR)
        assert math.isclose(report.cover_bound_dominant, 12 * math.log(4))
        assert round(report.cover_bound_dominant, 2) == 16.64

    def test_biggs_smith_is_inside_cap(self):
        report = walk_bounds(BIGGS_SMITH)
        assert report.commute_bound == 404
        assert report.commute_times[-1] == 390
        assert report.over_commute_bound == ()

    def test_violating_array_is_flagged(self):
        report = walk_bounds(parse_intersection_array("(3,2,2,1,1,1,1;1,1,1,1,1,1,3)"))
        # ratio 64/61 > 1 pushes the round trip past 4(n-1)
        assert report.commute_times[-1] > report.commute_bound
        assert report.over_commute_bound != ()
        assert not report.middle_inequality_holds

    def test_middle_inequality_exact(self):
        for arr in (CUBE_ARR, PETERSEN_ARR, K4_ARR, BIGGS_SMITH):
            report = walk_bounds(arr)
            assert report.resistance_gap_bound >= report.spectral_lower_bound
            assert report.middle_inequality_holds

    def test_commute_increasing(self):
        report = walk_bounds(BIGGS_SMITH)
        assert all(a < b for a, b in zip(report.commute_times, report.commute_times[1:]))

    def test_refuses_low_valency(self):
        with pytest.raises(ValueError, match="^walk bounds need valency >= 3, got k = 2$"):
            walk_bounds(parse_intersection_array("(2,1,1;1,1,2)"))


class TestMonteCarlo:
    def test_deterministic_given_seed(self):
        a = simulate_hitting_time(CUBE, 0, 1, 2000, seed=7)
        b = simulate_hitting_time(CUBE, 0, 1, 2000, seed=7)
        assert (a.mean, a.stderr) == (b.mean, b.stderr)
        c = simulate_hitting_time(CUBE, 0, 1, 2000, seed=8)
        assert a.mean != c.mean

    def test_cube_adjacent_matches_formula(self):
        estimate = simulate_hitting_time(CUBE, 0, 1, 20000, seed=20240809)
        expected = float(commute_time(CUBE_ARR, 1)) / 2
        assert abs(estimate.mean - expected) <= 3 * estimate.stderr

    def test_k4_matches_formula(self):
        estimate = simulate_hitting_time(K4, 0, 1, 20000, seed=20240809)
        assert abs(estimate.mean - 3.0) <= 3 * estimate.stderr

    def test_stderr_definition(self):
        estimate = simulate_hitting_time(K4, 0, 1, 5000, seed=1)
        assert estimate.trials == 5000
        assert estimate.stderr > 0

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            simulate_hitting_time(CUBE, 0, 1, 0, seed=1)
        with pytest.raises(ValueError):
            simulate_hitting_time(CUBE, 2, 2, 10, seed=1)

    def test_cover_time_sanity(self):
        estimate = simulate_cover_time(K4, 0, 2000, seed=3)
        # must at least touch every other vertex once
        assert estimate.mean >= K4.n - 1
        bound = 4 * (K4.n - 1) * math.log(K4.n)
        assert estimate.mean < 3 * bound

    def test_cover_time_size_guard(self):
        # graphs.MAX_VERTICES is the one size rule: H(4,3), n = 81, runs
        h43 = construct_named_graph("hamming", (4, 3))
        assert h43.n == 81
        estimate = simulate_cover_time(h43, 0, 1, seed=0)
        assert estimate.trials == 1 and estimate.mean >= h43.n - 1


class TestSpectralCheck:
    def test_cube_chain(self):
        report = spectral_check(CUBE, CUBE_ARR)
        assert abs(report.sigma - 2.0) < 1e-8
        assert report.resistance_gap_bound == Fraction(3, 20)
        assert report.spectral_lower_bound == Fraction(3, 28)
        assert report.sigma_holds and report.middle_holds

    def test_k4_chain(self):
        report = spectral_check(K4, K4_ARR)
        assert abs(report.sigma - 4.0) < 1e-8
        assert report.resistance_gap_bound == Fraction(1, 2)
        assert report.spectral_lower_bound == Fraction(1, 4)
        assert report.sigma_holds and report.middle_holds

    def test_petersen_chain(self):
        report = spectral_check(PETERSEN, PETERSEN_ARR)
        assert abs(report.sigma - 2.0) < 1e-8
        assert report.resistance_gap_bound == Fraction(1, 8)
        assert report.spectral_lower_bound == Fraction(1, 12)
        assert report.sigma_holds and report.middle_holds

    def test_wrong_array_rejected(self):
        with pytest.raises(ValueError):
            spectral_check(CUBE, PETERSEN_ARR)


def d1_off_by_a_seventh(arr):
    """The array's resistance profile with d_1 raised by 1/7."""
    profile = resistance_profile(arr)
    return ResistanceProfile((profile.d[0] + Fraction(1, 7), *profile.d[1:]), profile.ratio, profile.K_factor, profile.n, profile.m, profile.k)


class TestVerifyGraph:
    def test_petersen_passes(self):
        report = verify_graph(PETERSEN)
        assert isinstance(report, VerifyReport) and report.array == PETERSEN_ARR
        assert (report.harmonic.u, report.harmonic.v) == (0, PETERSEN.adjacency[0][0])
        assert report.residual == 0 and report.current == report.harmonic.expected_current == 30
        assert [(row.distance, row.oracle, row.equal) for row in report.oracle] == [
            (1, Fraction(3, 5), True),
            (2, Fraction(4, 5), True),
        ]
        assert report.spectral_ok and report.overall

    def test_formula_off_the_oracle_fails(self, monkeypatch):
        monkeypatch.setattr(walks, "resistance_profile", d1_off_by_a_seventh)
        report = verify_graph(PETERSEN)
        assert report.oracle[0] == (1, (0, 1), Fraction(3, 5), Fraction(26, 35), False)
        assert report.oracle[1].equal
        assert report.residual_zero and report.current_matches and report.spectral_ok
        assert not report.overall

    def test_sigma_below_the_bound_fails(self, monkeypatch):
        monkeypatch.setattr(circuits, "laplacian_spectral_gap", lambda g: 0.0)
        report = verify_graph(PETERSEN)
        assert not report.spectral.sigma_holds and report.spectral.middle_holds
        assert all(row.equal for row in report.oracle)
        assert not report.spectral_ok and not report.overall

    def test_prism_returns_its_regularity_failure(self):
        failure = verify_graph(PRISM)
        assert isinstance(failure, RegularityFailure)
        assert failure == verify_distance_regular(PRISM)

    def test_middle_link_decides_only_for_k_at_least_three(self):
        # C14's 1/(n d_D) = 1/49 is below k/(4(n-1)) = 1/26, a claim the paper
        # makes only for k >= 3
        report = verify_graph(construct_named_graph("cycle", (14,)))
        assert not report.spectral.middle_holds and not report.middle_decides
        assert report.spectral_ok and report.overall


class TestWalkGraph:
    # the walk command's JSON payloads before the command rendered this report
    @pytest.mark.parametrize(
        "graph, distance, trials, seed, payload",
        [
            (CUBE, 3, 2000, 1, ("(3,2,1;1,2,3)", (0, 7), 10.337, 0.18600675997763813, Fraction(10), True)),
            (PETERSEN, 2, 1000, 107, ("(3,2;1,1)", (0, 2), 10.976, 0.30771433523986513, Fraction(12), False)),
        ],
    )
    def test_report_is_the_command_payload(self, graph, distance, trials, seed, payload):
        report = walk_graph(graph, distance, trials, seed)()
        assert isinstance(report, WalkReport) and report.distance == distance
        assert (report.estimate.trials, report.estimate.seed) == (trials, seed)
        estimate = report.estimate
        assert (str(report.array), report.pair, estimate.mean, estimate.stderr, report.expected, report.within_3_stderr) == payload

    def test_expected_is_half_the_commute_time(self):
        for j in (1, 2, 3):
            assert walk_graph(CUBE, j, 10, 0)().expected == commute_time(CUBE_ARR, j) / 2

    def test_formula_off_the_estimate_fails(self, monkeypatch):
        monkeypatch.setattr(walks, "resistance_profile", d1_off_by_a_seventh)
        report = walk_graph(PETERSEN, 1, 2000, 1)()
        assert report.expected == Fraction(78, 7)
        assert not report.within_3_stderr

    @pytest.fixture
    def no_simulation(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("simulated before every refusal was made")

        monkeypatch.setattr(walks, "simulate_hitting_time", refuse)

    @pytest.mark.parametrize(
        "distance, trials, seed, message",
        [
            (0, 10, 1, "^--from-distance must lie in 1..3$"),
            (4, 10, 1, "^--from-distance must lie in 1..3$"),
            (1, 0, 1, "^trials must be >= 1$"),
            (1, 10, -1, "^seed must be >= 0, got -1$"),
        ],
    )
    def test_refusals_raise_before_the_simulation(self, no_simulation, distance, trials, seed, message):
        with pytest.raises(ValueError, match=message):
            walk_graph(CUBE, distance, trials, seed)

    def test_prism_returns_its_regularity_failure_unsimulated(self, no_simulation):
        failure = walk_graph(PRISM, 1, 10, 1)
        assert isinstance(failure, RegularityFailure)
        assert failure == verify_distance_regular(PRISM)

    def test_simulates_only_when_run(self, no_simulation):
        run = walk_graph(CUBE, 1, 10, 1)
        with pytest.raises(AssertionError, match="simulated before"):
            run()


class TestAnalyzeArray:
    def test_cube_passes_strictly(self):
        report = analyze_array(CUBE_ARR)
        assert isinstance(report, AnalyzeReport) and report.feasibility == validate_basic(CUBE_ARR)
        assert report.distribution.n == 8 and report.divisibility.passed and report.head.passed
        assert report.potentials == potentials_recursive(CUBE_ARR)
        assert report.profile == resistance_profile(CUBE_ARR)
        assert report.bounds == walk_bounds(CUBE_ARR)
        assert report.verdict == (CUBE_ARR, BiggsClass.PASS_STRICT, Fraction(3, 7), None)
        assert report.realizable and report.passed

    def test_biggs_smith_is_extremal(self):
        report = analyze_array(BIGGS_SMITH)
        assert report.verdict == (BIGGS_SMITH, BiggsClass.EXTREMAL, Fraction(94, 101), "Biggs-Smith Graph")
        assert report.realizable and report.passed

    def test_violation_fails(self):
        arr = parse_intersection_array("(3,2,2,1,1,1,1;1,1,1,1,1,1,3)")
        report = analyze_array(arr)
        assert report.verdict.category is BiggsClass.VIOLATION and report.verdict.ratio == Fraction(64, 61)
        assert report.feasibility.overall and report.divisibility.passed and report.head.passed
        assert report.realizable and not report.passed

    @pytest.mark.parametrize("text", ["(3,2,3;1,1,3)", "(4,4;1,1)"])
    def test_infeasible_stops_after_the_screens(self, text):
        report = analyze_array(parse_intersection_array(text))
        assert not report.feasibility.overall and report.distribution.shells_integral
        assert report.potentials is report.profile is report.verdict is report.bounds is None
        assert not report.realizable and not report.passed

    def test_head_bound_failure_reported_but_not_gating(self):
        # scan records this array as head_bound; analyze classifies it
        arr = parse_intersection_array("(4,1,1;1,1,4)")
        report = analyze_array(arr)
        assert report.head == (1, 2, False)
        assert report.verdict.category is BiggsClass.PASS_STRICT
        assert report.realizable and report.passed

    def test_valency_two_raises(self):
        with pytest.raises(ValueError, match="^classification needs valency >= 3, got k = 2$"):
            analyze_array(parse_intersection_array("(2,1;1,1)"))


class TestVertexTransitiveIdentity:
    def test_hitting_is_half_commute_on_symmetric_graphs(self):
        # checked only where vertex-transitivity makes the identity safe
        for g, arr, j in ((CUBE, CUBE_ARR, 2), (PETERSEN, PETERSEN_ARR, 1)):
            verified = verify_distance_regular(g)
            assert verified == arr
            target = bfs_distances(g, 0).index(j)
            estimate = simulate_hitting_time(g, 0, target, 20000, seed=99)
            assert abs(estimate.mean - float(commute_time(arr, j)) / 2) <= 4 * estimate.stderr


def _reference_estimate(total, total_sq, trials):
    mean = total / trials
    if trials > 1:
        variance = (total_sq - total * total / trials) / (trials - 1)
        return mean, math.sqrt(max(variance, 0.0) / trials)
    return mean, 0.0


def reference_hitting_time(g, u, v, trials, seed):
    """One `randrange` call per step, the simulator's stream by definition."""
    randrange = random.Random(seed).randrange
    total = total_sq = 0
    for _ in range(trials):
        cur, steps = u, 0
        while cur != v:
            neighbors = g.adjacency[cur]
            cur = neighbors[randrange(len(neighbors))]
            steps += 1
        total += steps
        total_sq += steps * steps
    return _reference_estimate(total, total_sq, trials)


def reference_cover_time(g, start, trials, seed):
    randrange = random.Random(seed).randrange
    total = total_sq = 0
    for _ in range(trials):
        seen = {start}
        cur, steps = start, 0
        while len(seen) < g.n:
            neighbors = g.adjacency[cur]
            cur = neighbors[randrange(len(neighbors))]
            steps += 1
            seen.add(cur)
        total += steps
        total_sq += steps * steps
    return _reference_estimate(total, total_sq, trials)


DIFFERENTIAL_GRAPHS = {
    "petersen": PETERSEN,
    "hypercube 4": construct_named_graph("hypercube", (4,)),
    "hypercube 6": construct_named_graph("hypercube", (6,)),
    "complete 20": construct_named_graph("complete", (20,)),
    "cocktail_party 10": construct_named_graph("cocktail_party", (10,)),
}
SEEDS = (0, 1, 7, 20240809, 2**31 - 1)


class TestBulkDrawnStream:
    # past 64: both sides of the one-byte boundary and the largest degree a
    # graph within MAX_VERTICES can have; 2**40 + 3 is a two-word seed key
    @pytest.mark.parametrize("degree", [*range(1, 65), 127, 128, 130, 255, 256, 257, 1023])
    def test_choices_equal_randrange(self, degree):
        for seed in (0, 1, 20240809, 2**40 + 3):
            reference = random.Random(seed)
            expected = [reference.randrange(degree) for _ in range(2500)]
            assert list(islice(walks._choices(seed, degree), 2500)) == expected

    @pytest.mark.parametrize("degree", (3, 20, 64, 127, 128, 130, 255, 256, 257, 1023))
    def test_choices_equal_randrange_across_refills(self, degree):
        # 70k choices need more than the 1k + 2k + 4k + 8k + 16k + 16k words of the first six chunks
        reference = random.Random(5)
        expected = [reference.randrange(degree) for _ in range(70_000)]
        assert list(islice(walks._choices(5, degree), 70_000)) == expected

    @given(
        st.sampled_from([1, 2, 3, 7, 127, 128, 130, 255, 256, 257, 1023]),
        st.one_of(st.just(0), st.integers(1, 2**70)),
        st.lists(st.one_of(st.none(), st.integers(1, 5000)), max_size=6),
    )
    @settings(max_examples=50, deadline=None)
    def test_sent_sizes_keep_the_stream(self, degree, seed, wanted):
        # the hitting walk sends the choices it still expects to need, which
        # size the next chunk; whatever it sends, the stream is the same
        chunks = walks._choice_chunks(seed, degree)
        drawn = [*next(chunks)]
        for choices in wanted:
            drawn += chunks.send(choices)
        reference = random.Random(seed)
        assert drawn == [reference.randrange(degree) for _ in drawn]

    @pytest.mark.parametrize("name", DIFFERENTIAL_GRAPHS)
    def test_hitting_time_equals_reference(self, name):
        g = DIFFERENTIAL_GRAPHS[name]
        dist = bfs_distances(g, 0)
        for j in range(1, max(dist) + 1):
            v = dist.index(j)
            for seed in SEEDS:
                estimate = simulate_hitting_time(g, 0, v, 60, seed)
                assert (estimate.mean, estimate.stderr) == reference_hitting_time(g, 0, v, 60, seed)

    @pytest.mark.parametrize("name", ["petersen", "hypercube 4", "complete 20", "cocktail_party 10"])
    def test_cover_time_equals_reference(self, name):
        g = DIFFERENTIAL_GRAPHS[name]
        for seed in SEEDS:
            estimate = simulate_cover_time(g, 3, 40, seed)
            assert (estimate.mean, estimate.stderr) == reference_cover_time(g, 3, 40, seed)

    def test_long_run_crosses_chunk_refills(self):
        g = DIFFERENTIAL_GRAPHS["hypercube 6"]
        estimate = simulate_hitting_time(g, 0, 63, 1000, 3)
        assert estimate.mean * estimate.trials > 2**16
        assert (estimate.mean, estimate.stderr) == reference_hitting_time(g, 0, 63, 1000, 3)

    def test_single_vertex_cover_time_is_zero(self):
        estimate = simulate_cover_time(ExplicitGraph(1, []), 0, 5, seed=0)
        assert (estimate.mean, estimate.stderr) == (0.0, 0.0)


@st.composite
def hitting_runs(draw):
    """A registered graph on at most 64 vertices, distinct endpoints, a
    trial count and a seed of each size class."""
    name, params = draw(st.sampled_from(SMALL_FAMILY_PARAMS))
    n = small_family_graph(name, params).n
    u = draw(st.integers(0, n - 1))
    v = draw(st.integers(0, n - 2))
    trials = draw(st.one_of(st.integers(1, 20), st.integers(1, 2000)))
    seed = draw(st.one_of(st.just(0), st.integers(1, 2**32 - 1), st.integers(2**32, 2**70)))
    return name, params, u, v + (v >= u), trials, seed


class TestBlockWalk:
    # the walk advances one block of choices per table lookup; the per-step
    # loop it replaced, on the same stream, is the reference

    @given(hitting_runs())
    @example(("complete", (2,), 0, 1, 1, 0))  # degree 1: every step hits v
    @example(("complete", (2,), 1, 0, 5000, 2**32))
    @example(("petersen", (), 0, 7, 1, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_equals_the_per_step_loop(self, run):
        name, params, u, v, trials, seed = run
        g = small_family_graph(name, params)
        assert simulate_hitting_time(g, u, v, trials, seed) == walk_reference.hitting_time(g, u, v, trials, seed)

    @pytest.mark.parametrize(
        "name,params,trials",
        [
            ("complete", (2,), 300_000),
            ("petersen", (), 30_000),
            ("hypercube", (6,), 4_000),
            ("hamming", (2, 5), 12_000),
            ("complete", (20,), 15_000),
            ("cycle", (64,), 300),
        ],
    )
    @pytest.mark.parametrize("seed", (0, 12345, 2**40 + 3))
    def test_runs_across_many_chunks(self, name, params, trials, seed):
        # past the 31k words of the first five chunks, then 16k words a chunk
        g = small_family_graph(name, params)
        v = bfs_distances(g, 0).index(max(bfs_distances(g, 0)))
        estimate = simulate_hitting_time(g, 0, v, trials, seed)
        assert estimate.mean * trials > 250_000
        assert estimate == walk_reference.hitting_time(g, 0, v, trials, seed)

    @pytest.mark.parametrize("degree,length", [(1, 8), (2, 8), (3, 5), (4, 4), (6, 3), (16, 2), (19, 1), (128, 1), (255, 1), (256, 1), (257, 1), (1023, 1)])
    def test_blocks_spell_the_choice_stream(self, degree, length):
        # 100k choices cross many chunks, whose leftover choices lead the next
        # chunk's first block; a degree-257 index does not fit a byte
        blocks = chain.from_iterable(walks._blocks(11, degree, length))
        digits = [b // degree ** (length - 1 - t) % degree for b in islice(blocks, 100_000 // length) for t in range(length)]
        assert digits == list(islice(walks._choices(11, degree), len(digits)))

    @pytest.mark.parametrize(
        "name,params",
        [("cocktail_party", (66,)), ("complete", (257,)), ("complete_bipartite_minus_matching", (258,))],
        ids=["degree 130", "degree 256", "degree 257"],
    )
    def test_degrees_at_and_past_one_byte(self, name, params):
        g = construct_named_graph(name, params)
        for seed in (0, 7):
            assert simulate_hitting_time(g, 0, 1, 100, seed) == walk_reference.hitting_time(g, 0, 1, 100, seed)


PATH = from_edge_list("4 3\n0 1\n1 2\n2 3\n")


class TestWalkArguments:
    def test_irregular_graph_rejected(self):
        with pytest.raises(ValueError, match="regular graph"):
            simulate_hitting_time(PATH, 0, 3, 10, seed=1)
        with pytest.raises(ValueError, match="regular graph"):
            simulate_cover_time(PATH, 0, 10, seed=1)

    @pytest.mark.parametrize("u,v", [(0, 10), (10, 0), (-1, 3), (3, -1), (0, 99)])
    def test_hitting_vertex_out_of_range(self, u, v):
        with pytest.raises(ValueError, match=r"outside 0\.\.9"):
            simulate_hitting_time(PETERSEN, u, v, 1, seed=1)

    @pytest.mark.parametrize("start", [10, -1])
    def test_cover_start_out_of_range(self, start):
        with pytest.raises(ValueError, match=r"outside 0\.\.9"):
            simulate_cover_time(PETERSEN, start, 1, seed=1)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="^seed must be >= 0, got -7$"):
            simulate_hitting_time(PETERSEN, 0, 1, 10, seed=-7)
        with pytest.raises(ValueError, match="^seed must be >= 0, got -7$"):
            simulate_cover_time(PETERSEN, 0, 10, seed=-7)


def test_walk_command_leaves_numpy_random_unimported():
    # the walk draws, blocks and tables its stream with the standard library:
    # numpy costs ~12 MB of resident memory, numpy.random ~6 MB more
    code = (
        "import sys\n"
        "from drglab.cli import main\n"
        "main(['walk', 'petersen', '--from-distance', '2', '--trials', '500', '--format', 'json'])\n"
        "from drglab.graphs import construct_named_graph\n"
        "from drglab.walks import simulate_cover_time\n"
        "simulate_cover_time(construct_named_graph('petersen', ()), 0, 20, 1)\n"
        "print('numpy' in sys.modules, 'numpy.random' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(drglab.__file__).parents[1])}
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    assert '"command": "walk"' in result.stdout
    assert result.stdout.splitlines()[-1] == "False False"
