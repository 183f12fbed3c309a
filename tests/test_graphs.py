"""Constructions, distance-regularity verification, and edge-list IO."""

import itertools
import math
import tracemalloc

import pytest
from families import SMALL_FAMILY_PARAMS, SOURCE_COUNTS, small_family_graph
from hypothesis import example, given, settings
from hypothesis import strategies as st

import drglab.graphs as graphs
from drglab import (
    ExplicitGraph,
    IntersectionArray,
    RegularityFailure,
    bfs_distances,
    construct_named_graph,
    family_names,
    from_edge_list,
    parse_intersection_array,
    to_edge_list,
    verify_distance_regular,
)
from drglab.catalog import catalog
from drglab.circuits import _harmonic_function, build_harmonic_function
from drglab.potentials import potentials_recursive
from drglab.resistance import resistance_profile
from drglab.verification import _spectral_report, spectral_check

# (family, params, n, m, array text)
KNOWN = [
    ("complete", (4,), 4, 6, "(3;1)"),
    ("complete", (5,), 5, 10, "(4;1)"),
    ("cocktail_party", (3,), 6, 12, "(4,1;1,4)"),
    ("complete_bipartite", (3,), 6, 9, "(3,2;1,3)"),
    ("complete_bipartite_minus_matching", (5,), 10, 20, "(4,3,1;1,3,4)"),
    ("hypercube", (3,), 8, 12, "(3,2,1;1,2,3)"),
    ("hypercube", (4,), 16, 32, "(4,3,2,1;1,2,3,4)"),
    ("petersen", (), 10, 15, "(3,2;1,1)"),
    ("heawood", (), 14, 21, "(3,2,2;1,1,3)"),
    ("pappus", (), 18, 27, "(3,2,2,1;1,1,2,3)"),
    ("desargues", (), 20, 30, "(3,2,2,1,1;1,1,2,2,3)"),
    ("dodecahedron", (), 20, 30, "(3,2,1,1,1;1,1,1,2,3)"),
    ("hamming", (3, 3), 27, 81, "(6,4,2;1,2,3)"),
    ("johnson", (5, 2), 10, 30, "(6,2;1,4)"),
    ("cycle", (6,), 6, 6, "(2,1,1;1,1,2)"),
    ("cycle", (5,), 5, 5, "(2,1;1,1)"),
]


class TestConstructions:
    @pytest.mark.parametrize("family,params,n,m,array_text", KNOWN)
    def test_sizes_and_arrays(self, family, params, n, m, array_text):
        g = construct_named_graph(family, params)
        assert (g.n, g.m) == (n, m)
        assert verify_distance_regular(g) == parse_intersection_array(array_text)

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="^unknown family 'moebius_kantor'; known: cocktail_party, complete, "):
            construct_named_graph("moebius_kantor")

    @pytest.mark.parametrize(
        "family,params",
        [
            ("complete", (1,)),
            ("cycle", (2,)),
            ("hypercube", (0,)),
            ("hamming", (3, 1)),
            ("johnson", (5, 5)),
            ("complete_bipartite_minus_matching", (2,)),
            ("hypercube", ()),  # wrong arity
            ("petersen", (5,)),
        ],
    )
    def test_bad_params(self, family, params):
        # "cycle(n) needs n >= 3", or "hypercube takes 1 parameter(s), got 0"
        with pytest.raises(ValueError, match=rf"^{family}(\(\w+(,\w+)?\) needs | takes \d parameter\(s\), got {len(params)}$)"):
            construct_named_graph(family, params)

    @pytest.mark.parametrize("family,params,n,m,array_text", [row for row in KNOWN if row[1]])
    def test_edge_cap_counts_each_family_exactly(self, family, params, n, m, array_text, monkeypatch):
        # the one size rule is the vertex cap: a cap of exactly n vertices
        # builds each family, one less refuses it before building
        monkeypatch.setattr(graphs, "MAX_VERTICES", n)
        assert construct_named_graph(family, params).n == n
        monkeypatch.setattr(graphs, "MAX_VERTICES", n - 1)
        with pytest.raises(ValueError, match=f"is too large to check: more than {n - 1} vertices"):
            construct_named_graph(family, params)

    def test_vertex_cap_admits_c1024_and_refuses_c1025(self):
        assert construct_named_graph("cycle", (1024,)).n == 1024
        with pytest.raises(ValueError, match="^graph on 1025 vertices is too large to check: more than 1024 vertices$"):
            construct_named_graph("cycle", (1025,))
        path = "1025 1024\n" + "".join(f"{i} {i + 1}\n" for i in range(1024))
        with pytest.raises(ValueError, match="^graph on 1025 vertices is too large to check: more than 1024 vertices$"):
            from_edge_list(path)

    def test_oversized_graph_refused_before_its_edges_are_read(self):
        def edges():
            raise AssertionError("edges read")
            yield

        with pytest.raises(ValueError, match="^graph on 1025 vertices is too large"):
            ExplicitGraph(1025, edges())
        # an edge line that does not parse comes after the header's refusal
        with pytest.raises(ValueError, match="^graph on 1025 vertices is too large"):
            from_edge_list("1025 1\n0 x\n")

    def test_registry_is_complete(self):
        assert set(family_names()) == {
            "complete",
            "cycle",
            "hypercube",
            "complete_bipartite",
            "complete_bipartite_minus_matching",
            "cocktail_party",
            "hamming",
            "johnson",
            "petersen",
            "heawood",
            "pappus",
            "desargues",
            "dodecahedron",
        }


class TestExplicitGraph:
    def test_rejects_loops(self):
        with pytest.raises(ValueError):
            ExplicitGraph(3, [(0, 0), (0, 1), (1, 2)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            ExplicitGraph(3, [(0, 3)])

    def test_rejects_disconnected(self):
        with pytest.raises(ValueError, match="^graph on 4 vertices is not connected$"):
            ExplicitGraph(4, [(0, 1), (2, 3)])
        # n - 1 edges, but a triangle and a separate edge
        with pytest.raises(ValueError, match="^graph on 5 vertices is not connected$"):
            ExplicitGraph(5, [(0, 1), (1, 2), (2, 0), (3, 4)])

    def test_too_few_edges_refused(self):
        # fewer than n - 1 distinct edges cannot connect n vertices
        with pytest.raises(ValueError, match="^graph on 5 vertices is not connected$"):
            from_edge_list("5 1\n0 1\n")

    def test_parallel_edges_rejected(self):
        with pytest.raises(ValueError, match="parallel edge"):
            ExplicitGraph(2, [(0, 1), (1, 0)])
        with pytest.raises(ValueError, match="parallel edge"):
            from_edge_list("3 4\n0 1\n1 2\n2 0\n1 0\n")

    def test_adjacency_sorted(self):
        g = construct_named_graph("petersen")
        assert all(list(nb) == sorted(nb) for nb in g.adjacency)


class TestVerification:
    def test_path_graph_fails(self):
        failure = verify_distance_regular(ExplicitGraph(4, [(0, 1), (1, 2), (2, 3)]))
        assert isinstance(failure, RegularityFailure)
        assert failure.kind == "b"
        assert failure.distance == 1  # endpoint and midpoint pairs disagree
        assert "not constant" in str(failure)

    def test_near_regular_fails(self):
        # 3-regular and vertex-transitive, but the prism K3 x K2 is not
        # distance-regular: distance-1 pairs disagree on common neighbors
        prism = ExplicitGraph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3), (1, 4), (2, 5)])
        failure = verify_distance_regular(prism)
        assert isinstance(failure, RegularityFailure)

    def test_returns_intersection_array_type(self):
        assert isinstance(verify_distance_regular(construct_named_graph("petersen")), IntersectionArray)

    def test_counts_in_flat_memory(self):
        # one breadth-first row at a time: an n x n table of distances on
        # Q9 (n = 512) would take about 2 MiB
        g = construct_named_graph("hypercube", (9,))
        tracemalloc.start()
        try:
            verified = verify_distance_regular(g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert verified == parse_intersection_array("(9,8,7,6,5,4,3,2,1;1,2,3,4,5,6,7,8,9)")
        assert peak < 64 * 1024

    def test_full_count_in_flat_memory(self):
        # the same bound on the count from every vertex: Q9's edge-list copy
        # declares no automorphisms
        g = from_edge_list(to_edge_list(construct_named_graph("hypercube", (9,))))
        assert not g.automorphisms
        tracemalloc.start()
        try:
            verified = verify_distance_regular(g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert verified == parse_intersection_array("(9,8,7,6,5,4,3,2,1;1,2,3,4,5,6,7,8,9)")
        assert peak < 64 * 1024


def two_pass_regularity(g):
    """The two-pass regularity count, the reference for the one inside the
    BFS: one BFS row from x, then every y's neighbors looked up in it."""
    b_counts = {}
    c_counts = {}
    for x in range(g.n):
        row = bfs_distances(g, x)
        for y in range(g.n):
            i = row[y]
            forward = 0
            backward = 0
            for z in g.adjacency[y]:
                if row[z] == i + 1:
                    forward += 1
                elif row[z] == i - 1:
                    backward += 1
            if i not in b_counts:
                b_counts[i] = forward
                c_counts[i] = backward
            elif b_counts[i] != forward:
                return RegularityFailure((x, y), i, "b", b_counts[i], forward)
            elif c_counts[i] != backward:
                return RegularityFailure((x, y), i, "c", c_counts[i], backward)
    D = len(b_counts) - 1
    return IntersectionArray(tuple(b_counts[i] for i in range(D)), tuple(c_counts[i] for i in range(1, D + 1)))


PRISM_EDGES = "6 9\n0 1\n1 2\n2 0\n3 4\n4 5\n5 3\n0 3\n1 4\n2 5\n"
# GP(8,3): cubic, arc-transitive and not distance-regular
MOBIUS_KANTOR_EDGES = "16 24\n" + "".join(f"{i} {(i + 1) % 8}\n{8 + i} {8 + (i + 3) % 8}\n{i} {8 + i}\n" for i in range(8))


@st.composite
def connected_edge_lists(draw):
    """A random spanning tree on 2..12 vertices plus random extra edges."""
    n = draw(st.integers(2, 12))
    edges = {(draw(st.integers(0, y - 1)), y) for y in range(1, n)}
    pairs = [(a, b) for b in range(n) for a in range(b)]
    edges |= set(draw(st.lists(st.sampled_from(pairs), max_size=len(pairs))))
    return f"{n} {len(edges)}\n" + "".join(f"{a} {b}\n" for a, b in sorted(edges))


class TestRegularityWitness:
    # the BFS that counts as it goes returns the two-pass count's array, or
    # its first failure: the same pair, distance, kind, expected and found

    def test_every_small_family(self):
        assert {name for name, _ in SMALL_FAMILY_PARAMS} == set(family_names())
        for name, params in SMALL_FAMILY_PARAMS:
            g = small_family_graph(name, params)
            verified = verify_distance_regular(g)
            assert isinstance(verified, IntersectionArray)
            assert verified == two_pass_regularity(g)

    @pytest.mark.parametrize("text", [PRISM_EDGES, MOBIUS_KANTOR_EDGES], ids=["prism", "mobius_kantor"])
    def test_named_failures(self, text):
        g = from_edge_list(text)
        failure = verify_distance_regular(g)
        assert isinstance(failure, RegularityFailure)
        assert failure == two_pass_regularity(g)

    @given(connected_edge_lists())
    @example("2 1\n0 1\n")
    @example("4 3\n0 1\n1 2\n2 3\n")
    @settings(max_examples=300, deadline=None)
    def test_drawn_graphs(self, text):
        g = from_edge_list(text)
        assert verify_distance_regular(g) == two_pass_regularity(g)


@st.composite
def rotated_generalized_petersen(draw):
    """GP(n,step) on 3..12 vertices per ring, declaring a drawn power of its
    ring rotation: a true automorphism whose group has 2*gcd(power, n)
    orbits, every vertex its own at power 0."""
    n = draw(st.integers(3, 12))
    step = draw(st.integers(1, (n - 1) // 2))
    power = draw(st.integers(0, n - 1))
    rotation = tuple(start + (i + power) % n for start in (0, n) for i in range(n))
    return ExplicitGraph(2 * n, graphs._generalized_petersen(n, step).edges, automorphisms=[rotation])


# Tutte's 12-cage: the LCF chords of a Hamiltonian 126-cycle, period 18
TUTTE_12_CAGE_LCF = [17, 27, -13, -59, -35, 35, -11, 13, -53, 53, -27, 21, 57, 11, -21, -57, 59, -17]


class TestCertifiedCount:
    # the count runs from the least vertex of each orbit of the declared
    # automorphisms once they are checked, and from every vertex when a
    # check fails; either way the answer is the full count's

    @pytest.mark.parametrize(
        "family,params,array_text",
        [
            ("hypercube", (9,), "(9,8,7,6,5,4,3,2,1;1,2,3,4,5,6,7,8,9)"),
            ("johnson", (10, 4), "(24,15,8,3;1,4,9,16)"),
            ("hamming", (5, 4), "(15,12,9,6,3;1,2,3,4,5)"),
            ("hypercube", (10,), "(10,9,8,7,6,5,4,3,2,1;1,2,3,4,5,6,7,8,9,10)"),
        ],
    )
    def test_larger_families(self, family, params, array_text):
        # Q10 has MAX_VERTICES vertices: the two coordinate generators of
        # the hypercube and the Hamming graphs certify it too
        g = construct_named_graph(family, params)
        assert len(graphs._count_sources(g)) == SOURCE_COUNTS.get(family, 1)
        assert verify_distance_regular(g) == parse_intersection_array(array_text)

    def test_every_small_family(self):
        # every family counts from its declared number of sources: a
        # mistyped generator fails here instead of falling back to the full
        # count unseen
        for name, params in SMALL_FAMILY_PARAMS:
            g = small_family_graph(name, params)
            assert len(graphs._count_sources(g)) == SOURCE_COUNTS.get(name, 1), (name, params)

    @pytest.mark.parametrize("n,step", [(5, 1), (8, 3)], ids=["prism_c5_k2", "mobius_kantor"])
    def test_named_failures(self, n, step):
        # GP(5,1) and GP(8,3) are vertex-transitive and not distance-regular
        g = graphs._generalized_petersen(n, step)
        assert graphs._count_sources(g) == [0]
        failure = verify_distance_regular(g)
        assert isinstance(failure, RegularityFailure)
        assert failure == two_pass_regularity(g)

    def test_rotation_alone_on_the_prism(self):
        # the rotation keeps each ring: one source on each
        rotation = (1, 2, 3, 4, 0, 6, 7, 8, 9, 5)
        g = ExplicitGraph(10, graphs._generalized_petersen(5, 1).edges, automorphisms=[rotation])
        assert graphs._count_sources(g) == [0, 5]
        assert verify_distance_regular(g) == two_pass_regularity(g)

    def test_rotation_alone_on_every_generalized_petersen(self):
        # two orbits, the rings, on GP(n,step) for n < 40; all but four of
        # these 361 graphs fail, and each at the full count's pair
        regular = []
        for n in range(3, 40):
            for step in range(1, (n + 1) // 2):
                g = ExplicitGraph(2 * n, graphs._generalized_petersen(n, step).edges, automorphisms=[graphs._rotation(n, 2)])
                assert graphs._count_sources(g) == [0, n]
                verified = verify_distance_regular(g)
                assert verified == two_pass_regularity(g), (n, step)
                if isinstance(verified, IntersectionArray):
                    regular.append((n, step))
        # Q3, Petersen, the dodecahedron and Desargues
        assert regular == [(4, 1), (5, 2), (10, 2), (10, 3)]

    def test_rotation_alone_on_tutte_12_cage(self):
        # semisymmetric, so no group is transitive on its vertices; the
        # rotation by 18 leaves 18 orbits of 7 vertices
        n = 126
        chords = [(i, (i + TUTTE_12_CAGE_LCF[i % 18]) % n) for i in range(n)]
        edges = [(i, (i + 1) % n) for i in range(n)] + [(a, b) for a, b in chords if a < b]
        g = ExplicitGraph(n, edges, automorphisms=[[(i + 18) % n for i in range(n)]])
        assert graphs._count_sources(g) == list(range(18))
        (entry,) = [entry for entry in catalog() if entry.name == "Tutte's 12-cage"]
        assert g.n == entry.vertices
        verified = verify_distance_regular(g)
        assert verified == entry.array
        assert verified == verify_distance_regular(from_edge_list(to_edge_list(g)))

    def test_reflection_of_the_path(self):
        # a true automorphism with two orbits, {0, 3} and {1, 2}: the count
        # from 0 and 1 fails where the full count does
        g = ExplicitGraph(4, [(0, 1), (1, 2), (2, 3)], automorphisms=[(3, 2, 1, 0)])
        assert graphs._count_sources(g) == [0, 1]
        failure = verify_distance_regular(g)
        assert isinstance(failure, RegularityFailure)
        assert failure == two_pass_regularity(g)

    @pytest.mark.parametrize(
        "automorphisms",
        [
            [(1, 2, 3, 0)],  # moves 0 everywhere, but sends the edge 2-3 to 3-0
            [(1, 0, 1, 0), (2, 3, 2, 3)],  # edges onto edges, not bijections
            [(1, 2, 3)],
            [(1, 2, 3, 4)],
        ],
        ids=["not_an_automorphism", "not_bijections", "too_short", "out_of_range"],
    )
    def test_false_claims_get_the_full_count(self, automorphisms):
        # on the path P4 the counts from vertex 0 alone agree with each other
        # and would read the array (1,1,1;1,1,1)
        g = ExplicitGraph(4, [(0, 1), (1, 2), (2, 3)], automorphisms=automorphisms)
        assert graphs._count_sources(g) == [0, 1, 2, 3]
        failure = verify_distance_regular(g)
        assert isinstance(failure, RegularityFailure)
        assert failure == two_pass_regularity(g)

    @given(st.one_of(connected_edge_lists().map(from_edge_list), rotated_generalized_petersen()), st.data())
    @settings(max_examples=300, deadline=None)
    def test_drawn_claims(self, g, data):
        # drawn permutations, true automorphisms or not, never change the
        # answer; a rotated GP graph drawn with no more claims has a true
        # group with many orbits
        claims = data.draw(st.lists(st.permutations(range(g.n)), max_size=3))
        claimed = ExplicitGraph(g.n, g.edges, automorphisms=[*g.automorphisms, *claims])
        assert verify_distance_regular(claimed) == two_pass_regularity(g)


def johnson_by_tuples(n, k):
    """The vertex count and edge set of J(n,k) built from sorted tuples,
    the reference for the bitmask construction's labels and edges."""
    subsets = list(itertools.combinations(range(n), k))
    index = {s: i for i, s in enumerate(subsets)}
    edges = []
    for s, a in index.items():
        members = set(s)
        for out in s:
            for into in range(n):
                if into not in members:
                    b = index[tuple(sorted(members - {out} | {into}))]
                    if a < b:
                        edges.append((a, b))
    return len(subsets), frozenset(edges)


def test_johnson_labels_and_edges():
    built = 0
    for n in range(2, 65):
        for k in range(1, n):
            if math.comb(n, k) <= graphs.MAX_VERTICES:
                g = construct_named_graph("johnson", (n, k))
                assert (g.n, g.edges) == johnson_by_tuples(n, k), (n, k)
                built += 1
    assert built == 254


class TestVerifiedForms:
    # the CLI verifies once and calls the unguarded bodies; the public
    # functions verify first and then run the same bodies
    @pytest.mark.parametrize("family,params,n,m,array_text", KNOWN)
    def test_private_forms_equal_public_ones(self, family, params, n, m, array_text):
        g = construct_named_graph(family, params)
        arr = verify_distance_regular(g)
        p = potentials_recursive(arr)
        u, v = 0, g.adjacency[0][0]
        assert _harmonic_function(g, u, v, p) == build_harmonic_function(g, u, v, p)
        # C5 included: its Jacobi sweep settles on the off-diagonal entries'
        # own norm, on both routes
        assert _spectral_report(g, resistance_profile(arr)) == spectral_check(g, arr)


class TestDistances:
    def test_bfs_on_cube(self):
        g = construct_named_graph("hypercube", (3,))
        dist = bfs_distances(g, 0)
        assert dist[0] == 0
        assert dist[7] == 3
        assert sorted(dist) == [0, 1, 1, 1, 2, 2, 2, 3]


class TestEdgeListIO:
    def test_round_trip(self):
        g = construct_named_graph("petersen")
        back = from_edge_list(to_edge_list(g))
        assert back.n == g.n
        assert back.edges == g.edges

    def test_header_line(self):
        text = to_edge_list(construct_named_graph("complete", (4,)))
        assert text.splitlines()[0] == "4 6"

    def test_bad_edge_count(self):
        with pytest.raises(ValueError):
            from_edge_list("2 2\n0 1\n")

    def test_bad_tokens(self):
        with pytest.raises(ValueError):
            from_edge_list("2 1\n0 x\n")

    @pytest.mark.parametrize("header", ["3 2 7", "3"])
    def test_header_must_be_n_m(self, header):
        with pytest.raises(ValueError, match=f"^edge-list header must be 'n m', got '{header}'$"):
            from_edge_list(f"{header}\n0 1\n1 2\n")

    def test_empty(self):
        with pytest.raises(ValueError):
            from_edge_list("   \n")

    @pytest.mark.parametrize("line", ["3 0_0", "\u0663 0", "3 \uff10"])
    def test_only_ascii_digits_are_read(self, line):
        # int() alone would read each of these as the edge (3, 0) of the 4-cycle
        with pytest.raises(ValueError, match="is not a decimal integer"):
            from_edge_list(f"4 4\n0 1\n1 2\n2 3\n{line}\n")

    @pytest.mark.parametrize("text, value", [("7", 7), ("+3", 3), ("-12", -12), ("007", 7)])
    def test_integer_reads_signed_ascii_decimals(self, text, value):
        assert graphs.integer(text) == value

    @pytest.mark.parametrize("text", ["", "+", "1_0", " 3", "3\n", "\u0663", "\uff13", "3.0", "x"])
    def test_integer_refuses_everything_else(self, text):
        with pytest.raises(ValueError, match="is not a decimal integer"):
            graphs.integer(text)

    def test_negative_vertex_is_out_of_range(self):
        with pytest.raises(ValueError, match=r"edge \(-1,0\) outside vertex range 0\.\.3"):
            from_edge_list("4 4\n0 1\n1 2\n2 3\n-1 0\n")
