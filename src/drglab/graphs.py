"""Explicit small graphs: standard constructions, breadth-first distances,
and intersection-array verification by direct counting from one vertex per
orbit of the graph's checked automorphisms (every vertex of an edge list)."""

from __future__ import annotations

import itertools
import math
from collections import deque
from typing import Iterable, Optional, Sequence

from .arrays import IntersectionArray, _Record, integer


# the most vertices an explicit graph may have: every check on one grows as
# n^2 or faster (the dense oracle, the spectrum, and the all-pairs
# regularity count on a graph without certified automorphisms), so a graph
# past this size is refused before anything is built
MAX_VERTICES = 1024


def _refuse_oversized(label: str, n: int) -> None:
    """Raise ValueError when a graph of n vertices has more than MAX_VERTICES."""
    if n > MAX_VERTICES:
        raise ValueError(f"{label} is too large to check: more than {MAX_VERTICES} vertices")


class ExplicitGraph:
    """A simple connected undirected graph on vertices 0..n-1.

    Immutable after construction; over MAX_VERTICES vertices, loops, parallel
    edges, out-of-range endpoints and disconnected edge sets are rejected.

    `automorphisms` are vertex permutations (sequences p with vertex v sent
    to p[v]) that the family constructors declare; edge-list graphs have
    none.  They are stored unchecked: `verify_distance_regular` checks them
    on every call, and then counts from one vertex per orbit of the group
    they generate.
    """

    __slots__ = ("n", "edges", "adjacency", "automorphisms")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]], *, automorphisms: Iterable[Sequence[int]] = ()):
        if n < 1:
            raise ValueError("graph needs at least one vertex")
        _refuse_oversized(f"graph on {n} vertices", n)
        normalized = set()
        for a, b in edges:
            if not (0 <= a < n and 0 <= b < n):
                raise ValueError(f"edge ({a},{b}) outside vertex range 0..{n - 1}")
            if a == b:
                raise ValueError(f"loop at vertex {a}")
            edge = (a, b) if a < b else (b, a)
            if edge in normalized:
                raise ValueError(f"parallel edge ({a},{b})")
            normalized.add(edge)
        self.n = n
        self.edges = frozenset(normalized)
        neighbors: list[list[int]] = [[] for _ in range(n)]
        for a, b in normalized:
            neighbors[a].append(b)
            neighbors[b].append(a)
        self.adjacency = tuple(tuple(sorted(nb)) for nb in neighbors)
        self.automorphisms = tuple(map(tuple, automorphisms))
        if -1 in bfs_distances(self, 0):
            raise ValueError(f"graph on {n} vertices is not connected")

    @property
    def m(self) -> int:
        return len(self.edges)

    def __repr__(self) -> str:
        return f"ExplicitGraph(n={self.n}, m={self.m})"


def bfs_distances(g: ExplicitGraph, source: int) -> tuple[int, ...]:
    dist = [-1] * g.n
    dist[source] = 0
    queue = deque([source])
    while queue:
        x = queue.popleft()
        for y in g.adjacency[x]:
            if dist[y] < 0:
                dist[y] = dist[x] + 1
                queue.append(y)
    return tuple(dist)


class RegularityFailure(_Record):
    """First witness that neighbor counts do not depend on distance alone."""

    def __init__(self, pair: tuple[int, int], distance: int, kind: str, expected: int, found: int) -> None:
        # kind is "b" or "c"
        self.__dict__.update(pair=pair, distance=distance, kind=kind, expected=expected, found=found)

    def __str__(self) -> str:
        return (
            f"{self.kind}-count at distance {self.distance} is not constant: "
            f"pair {self.pair} has {self.found}, earlier pairs had {self.expected}"
        )


def _count_sources(g: ExplicitGraph) -> list[int]:
    """The sources of g's regularity count: the least vertex of each orbit
    of the group that g's declared automorphisms generate, in increasing
    order, or every vertex when none is declared or a check fails.

    Each must be a bijection of 0..n-1 that maps every adjacency row onto
    the row of its image.
    """
    n, perms = g.n, g.automorphisms
    vertices = list(range(n))
    if not perms or any(sorted(p) != vertices for p in perms):
        return vertices
    # a bijection maps the m edges onto m distinct pairs: all of them edges
    # means every adjacency row goes onto the row of its image
    edges = g.edges
    for p in perms:
        for a, b in edges:
            x, y = p[a], p[b]
            if ((x, y) if x < y else (y, x)) not in edges:
                return vertices
    seen = bytearray(n)
    sources = []
    for s in vertices:
        if not seen[s]:
            sources.append(s)
            seen[s] = 1
            orbit = [s]
            for x in orbit:  # grows while it is read
                for p in perms:
                    y = p[x]
                    if not seen[y]:
                        seen[y] = 1
                        orbit.append(y)
    return sources


def verify_distance_regular(g: ExplicitGraph):
    """Check distance-regularity by counting each vertex's b and c neighbors
    from a source, one BFS row at a time.

    The sources are one vertex per orbit of g's checked automorphisms, the
    least of each (`_count_sources`), and every vertex of an edge list.
    The answer is the count from every vertex: an automorphism sigma with
    sigma(s) = x gives the pair (x, sigma(y)) the (distance, b, c) counts
    of (s, y), so a vertex x that is not the least s of its orbit can
    neither fail nor add a new distance once s has counted.  The full
    count's first failure is therefore at a source, after the same counts,
    and both return the same IntersectionArray on success, or the same
    RegularityFailure naming the first offending pair.
    """
    if g.n < 2:
        raise ValueError("a single vertex has no intersection array")
    adjacency = g.adjacency
    b_counts: dict[int, int] = {}
    c_counts: dict[int, int] = {}
    for x in _count_sources(g):
        # the BFS from x counts each y's neighbors one step farther from x
        # (forward) and one step nearer (backward) as it goes: an edge joins
        # consecutive distances exactly when it reaches the farther end
        # already at, or just set to, the distance past its nearer end
        dist = [-1] * g.n
        forward = [0] * g.n
        backward = [0] * g.n
        dist[x] = 0
        queue = [x]
        for y in queue:  # grows while it is read
            farther = dist[y] + 1
            count = 0
            for z in adjacency[y]:
                if dist[z] < 0:
                    dist[z] = farther
                    queue.append(z)
                if dist[z] == farther:
                    count += 1
                    backward[z] += 1
            forward[y] = count
        for y, (i, b, c) in enumerate(zip(dist, forward, backward)):
            if i not in b_counts:
                b_counts[i] = b
                c_counts[i] = c
            elif b_counts[i] != b:
                return RegularityFailure((x, y), i, "b", b_counts[i], b)
            elif c_counts[i] != c:
                return RegularityFailure((x, y), i, "c", c_counts[i], c)
    # a connected graph has every distance 0..D, so D + 1 classes were counted
    D = len(b_counts) - 1
    return IntersectionArray(
        tuple(b_counts[i] for i in range(D)),
        tuple(c_counts[i] for i in range(1, D + 1)),
    )


# ---------------------------------------------------------------------------
# edge-list text format: first line "n m", then one "a b" line per edge


def to_edge_list(g: ExplicitGraph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{a} {b}" for a, b in sorted(g.edges))
    return "\n".join(lines) + "\n"


def _integers(line: str) -> tuple[int, ...]:
    try:
        return tuple(map(integer, line.split()))
    except ValueError as exc:
        raise ValueError(f"bad edge-list line: {exc}") from exc


def from_edge_list(text: str) -> ExplicitGraph:
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ValueError("empty edge-list text")
    header = _integers(lines[0])
    if len(header) != 2:
        raise ValueError(f"edge-list header must be 'n m', got {lines[0].strip()!r}")
    n, m = header
    _refuse_oversized(f"graph on {n} vertices", n)
    edges = [_integers(line) for line in lines[1:]]
    if len(edges) != m:
        raise ValueError(f"header promises {m} edges, found {len(edges)}")
    if any(len(e) != 2 for e in edges):
        raise ValueError("each edge line must hold exactly two vertex indices")
    return ExplicitGraph(n, edges)  # type: ignore[arg-type]


# ---------------------------------------------------------------------------
# named families; each docstring states the vertex labeling

# q**e > MAX_VERTICES for every base q >= 2: families whose vertex count is
# costly to compute cut exponents here, so a huge parameter is cheap to refuse
_EXPONENT_CUT = MAX_VERTICES.bit_length()


def _rotation(n: int, blocks: int = 1) -> tuple[int, ...]:
    """The permutation i -> i+1 mod n within each block of n vertices:
    0..n-1, then n..2n-1, and so on."""
    return tuple(start + (i + 1) % n for start in range(0, blocks * n, n) for i in range(n))


def _complete(n: int) -> ExplicitGraph:
    """K_n on vertices 0..n-1."""
    if n < 2:
        raise ValueError("complete(n) needs n >= 2")
    return ExplicitGraph(n, itertools.combinations(range(n), 2), automorphisms=[_rotation(n)])


def _cycle(n: int) -> ExplicitGraph:
    """C_n with vertex i adjacent to i+1 mod n."""
    if n < 3:
        raise ValueError("cycle(n) needs n >= 3")
    return ExplicitGraph(n, ((i, (i + 1) % n) for i in range(n)), automorphisms=[_rotation(n)])


def _hypercube(d: int) -> ExplicitGraph:
    """Q_d on bitstrings; vertex label is the integer value of the string."""
    if d < 1:
        raise ValueError("hypercube(d) needs d >= 1")
    _refuse_oversized(f"hypercube({d})", 2 ** min(d, _EXPONENT_CUT))
    n = 1 << d
    edges = ((x, x ^ (1 << i)) for x in range(n) for i in range(d) if x < x ^ (1 << i))
    return ExplicitGraph(n, edges, automorphisms=_coordinate_symmetries(d, 2))


def _coordinate_symmetries(d: int, q: int) -> list[list[int]]:
    """On words w in [0,q)^d labelled sum of w_i * q^i: +1 mod q in
    coordinate 0, and the cyclic shift of coordinates i -> i+1 mod d.
    Together they move the zero word onto every word."""
    n, top = q**d, q ** (d - 1)
    step = [x - (q - 1) if x % q == q - 1 else x + 1 for x in range(n)]
    shift = [x % top * q + x // top for x in range(n)]
    return [step, shift]


def _part_symmetries(k: int) -> list[tuple[int, ...]]:
    """On parts 0..k-1 and k..2k-1: i -> i+1 mod k within each part, and
    the swap i <-> k+i."""
    return [_rotation(k, 2), (*range(k, 2 * k), *range(k))]


def _complete_bipartite(k: int) -> ExplicitGraph:
    """K_{k,k} with parts 0..k-1 and k..2k-1."""
    if k < 1:
        raise ValueError("complete_bipartite(k) needs k >= 1")
    return ExplicitGraph(2 * k, ((i, k + j) for i in range(k) for j in range(k)), automorphisms=_part_symmetries(k))


def _complete_bipartite_minus_matching(k: int) -> ExplicitGraph:
    """K_{k,k} minus the perfect matching i -- k+i (the crown graph)."""
    if k < 3:
        raise ValueError("complete_bipartite_minus_matching(k) needs k >= 3 to stay connected")
    edges = ((i, k + j) for i in range(k) for j in range(k) if i != j)
    return ExplicitGraph(2 * k, edges, automorphisms=_part_symmetries(k))


def _cocktail_party(parts: int) -> ExplicitGraph:
    """K_{parts x 2}: vertices 2p and 2p+1 form part p; parts are fully joined."""
    if parts < 2:
        raise ValueError("cocktail_party(parts) needs parts >= 2")
    n = 2 * parts
    edges = ((a, b) for a, b in itertools.combinations(range(n), 2) if a // 2 != b // 2)
    return ExplicitGraph(n, edges, automorphisms=[[v ^ 1 for v in range(n)], (*range(2, n), 0, 1)])


def _hamming(d: int, q: int) -> ExplicitGraph:
    """H(d,q) on words w in [0,q)^d; label = sum of w_i * q^i."""
    if d < 1 or q < 2:
        raise ValueError("hamming(d,q) needs d >= 1 and q >= 2")
    _refuse_oversized(f"hamming({d},{q})", q ** min(d, _EXPONENT_CUT))
    n = q**d
    edges = []
    for x in range(n):
        digits = []
        rest = x
        for _ in range(d):
            digits.append(rest % q)
            rest //= q
        for pos in range(d):
            for value in range(digits[pos] + 1, q):
                edges.append((x, x + (value - digits[pos]) * q**pos))
    return ExplicitGraph(n, edges, automorphisms=_coordinate_symmetries(d, q))


def _johnson(n: int, k: int) -> ExplicitGraph:
    """J(n,k) on k-subsets of 0..n-1 in lexicographic order of sorted tuples."""
    if n < 2 or not 1 <= k <= n - 1:
        raise ValueError("johnson(n,k) needs n >= 2 and 1 <= k <= n-1")
    # C(n, j) grows with j up to n/2, and C(n, j) >= 2**j there
    _refuse_oversized(f"johnson({n},{k})", math.comb(n, min(k, n - k, _EXPONENT_CUT)))
    # subset s as the bitmask sum of 2**i over i in s, labelled in the
    # lexicographic order of the sorted tuples
    bits = [1 << i for i in range(n)]
    masks = [sum(bits[i] for i in s) for s in itertools.combinations(range(n), k)]
    index = {mask: a for a, mask in enumerate(masks)}
    edges = []
    for a, mask in enumerate(masks):
        for i, out in enumerate(bits):
            if mask & out:
                # swapping out for a larger element gives a later subset
                rest = mask ^ out
                edges.extend([(a, index[rest | into]) for into in bits[i + 1 :] if not mask & into])
    # the n-cycle i -> i+1 mod n and the transposition (0 1) on the ground set
    full = (1 << n) - 1
    rotation = [index[(mask << 1 & full) | mask >> (n - 1)] for mask in masks]
    transposition = [index[mask ^ 3] if (mask & 3) in (1, 2) else a for a, mask in enumerate(masks)]
    return ExplicitGraph(len(masks), edges, automorphisms=[rotation, transposition])


def _generalized_petersen(n: int, step: int) -> ExplicitGraph:
    """GP(n,step): outer cycle 0..n-1, inner vertices n..2n-1 with step chords.

    The rotation of both rings is declared as an automorphism, and so is
    the ring swap i <-> n + step*i mod n where step^2 = +-1 mod n."""
    edges = []
    for i in range(n):
        edges.append((i, (i + 1) % n))
        edges.append((n + i, n + (i + step) % n))
        edges.append((i, n + i))
    automorphisms = [_rotation(n, 2)]
    if step * step % n in (1, n - 1):
        swap = [step * i % n for i in range(n)]
        automorphisms.append((*(n + j for j in swap), *swap))
    return ExplicitGraph(2 * n, edges, automorphisms=automorphisms)


def _petersen() -> ExplicitGraph:
    """The Petersen graph as GP(5,2)."""
    return _generalized_petersen(5, 2)


def _desargues() -> ExplicitGraph:
    """The Desargues graph as GP(10,3)."""
    return _generalized_petersen(10, 3)


def _dodecahedron() -> ExplicitGraph:
    """The dodecahedron skeleton as GP(10,2)."""
    return _generalized_petersen(10, 2)


def _heawood() -> ExplicitGraph:
    """Incidence graph of the Fano plane: points 0..6, line j = vertex 7+j
    containing points {j, j+1, j+3} mod 7."""
    edges = []
    for j in range(7):
        for p in (j, (j + 1) % 7, (j + 3) % 7):
            edges.append((p, 7 + j))
    # the rotation mod 7 of points and lines, and the duality point p <->
    # line -p: p lies on line j exactly when -j lies on line -p
    duality = (*(7 + -p % 7 for p in range(7)), *(-j % 7 for j in range(7)))
    return ExplicitGraph(14, edges, automorphisms=[_rotation(7, 2), duality])


def _pappus() -> ExplicitGraph:
    """Incidence graph of the Pappus configuration, realized as AG(2,3)
    minus one parallel class: point (x,y) = vertex 3x+y, line y = mx+b
    over GF(3) = vertex 9+3m+b."""
    edges = []
    for m in range(3):
        for b in range(3):
            for x in range(3):
                y = (m * x + b) % 3
                edges.append((3 * x + y, 9 + 3 * m + b))
    # the translations x -> x+1, taking line (m,b) to (m,b-m), and y -> y+1,
    # taking (m,b) to (m,b+1); and the duality point (x,y) <-> line (x,-y):
    # y = mx + b exactly when -b = xm - y
    cells = list(itertools.product(range(3), repeat=2))
    along_x = [3 * (x + 1) % 9 + y for x, y in cells] + [9 + 3 * m + (b - m) % 3 for m, b in cells]
    along_y = [3 * x + (y + 1) % 3 for x, y in cells] + [9 + 3 * m + (b + 1) % 3 for m, b in cells]
    duality = [9 + 3 * x + -y % 3 for x, y in cells] + [3 * m + -b % 3 for m, b in cells]
    return ExplicitGraph(18, edges, automorphisms=[along_x, along_y, duality])


_FAMILIES = {
    "complete": (_complete, 1),
    "cycle": (_cycle, 1),
    "hypercube": (_hypercube, 1),
    "complete_bipartite": (_complete_bipartite, 1),
    "complete_bipartite_minus_matching": (_complete_bipartite_minus_matching, 1),
    "cocktail_party": (_cocktail_party, 1),
    "hamming": (_hamming, 2),
    "johnson": (_johnson, 2),
    "petersen": (_petersen, 0),
    "heawood": (_heawood, 0),
    "pappus": (_pappus, 0),
    "desargues": (_desargues, 0),
    "dodecahedron": (_dodecahedron, 0),
}


def family_names() -> tuple[str, ...]:
    return tuple(sorted(_FAMILIES))


def construct_named_graph(name: str, params: Optional[Sequence[int]] = None) -> ExplicitGraph:
    """Build a registry family; raises ValueError for an unknown name or
    parameters outside the family's range."""
    if name not in _FAMILIES:
        raise ValueError(f"unknown family {name!r}; known: {', '.join(family_names())}")
    builder, arity = _FAMILIES[name]
    args = tuple(params or ())
    if len(args) != arity:
        raise ValueError(f"{name} takes {arity} parameter(s), got {len(args)}")
    return builder(*args)
