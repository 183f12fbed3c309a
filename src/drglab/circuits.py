"""Circuit checks on explicit graphs: the piecewise-constant voltage function
built from a potential sequence, the integer hitting-time check, and two
independent numerical routes (exact Laplacian solve, Jacobi spectrum).

For an adjacent terminal pair u ~ v the voltage at z depends only on the
distance pair (d(u,z), d(v,z)), read from two breadth-first rows;
`verification.verify_graph` verifies the graph once and builds it with the
unguarded `_harmonic_function`.  The harmonic residual and the current are
summed in integers, over the voltages scaled by one common denominator.
`_hitting_times_hold` checks predicted hitting times to one target in the
same way, and verify proves its oracle rows with it.  The resistance oracle
`effective_resistances`, which verify runs only for a row whose check
fails, grounds the Laplacian at vertex 0 and solves it once per graph for
all requested pairs: a float64 solve proposes the rationals, and an exact
integer product with the Laplacian accepts them or hands the system to
fraction-free integer elimination, so agreement with the array formulas is
literal equality.  The float solve decides nothing; the Jacobi spectral
gap, with the fixed thresholds below, is the one floating-point value this
module reports.  numpy is imported inside the functions that use it, so
commands that never build a Laplacian never load it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import TYPE_CHECKING, Optional, Sequence

from .arrays import IntersectionArray, _Record
from .graphs import ExplicitGraph, bfs_distances, verify_distance_regular
from .potentials import PotentialSequence
from .rational import _over_one_denominator, solve_exact

if TYPE_CHECKING:
    import numpy as np

JACOBI_OFF_TOL = 1e-10  # stop once the off-diagonal Frobenius norm is this small
JACOBI_MAX_SWEEPS = 100
ZERO_EIGENVALUE_TOL = 1e-8  # |eigenvalue| at most this counts as zero
CERTIFY_TOL = 1e-6  # an entry of q * x this close to an integer rounds to it
DENOMINATOR_BOUND = 10**7  # largest common denominator q the float solve is read back with


class ArrayMismatch(ValueError):
    """Graph and potential sequence disagree about the intersection array."""


class NotConverged(RuntimeError):
    """The Jacobi eigensolver ran out of sweeps above its threshold."""


class PotentialAssignment(_Record):
    """A full vertex-to-voltage map for the adjacent terminal pair."""

    def __init__(self, values: tuple[Fraction, ...], u: int, v: int, expected_current: int) -> None:
        self.__dict__.update(values=values, u=u, v=v, expected_current=expected_current)


def build_harmonic_function(
    g: ExplicitGraph, u: int, v: int, p: PotentialSequence
) -> PotentialAssignment:
    """Assign +phi_i on the u side at level i, -phi_i on the v side, 0 on
    equidistant vertices.

    The graph must verify as distance-regular with exactly the array the
    potential sequence was computed from; otherwise the piecewise-constant
    function has no reason to be harmonic.
    """
    verified = verify_distance_regular(g)
    if not isinstance(verified, IntersectionArray) or verified != p.array:
        raise ArrayMismatch(
            f"graph verifies as {verified}, potential sequence belongs to {p.array}"
        )
    if v not in g.adjacency[u]:
        raise ValueError(f"{u} and {v} are not adjacent")
    return _harmonic_function(g, u, v, p, bfs_distances(g, u), bfs_distances(g, v))


def _harmonic_function(
    g: ExplicitGraph, u: int, v: int, p: PotentialSequence, du: Sequence[int], dv: Sequence[int]
) -> PotentialAssignment:
    """`build_harmonic_function` on a graph already verified with `p.array`,
    for adjacent u and v, with the BFS rows `du` and `dv` from them."""
    # u ~ v puts every |d(u,z) - d(v,z)| <= 1, so a < b means b = a + 1
    values = tuple(p.phi[a] if a < b else -p.phi[b] if b < a else Fraction(0) for a, b in zip(du, dv))
    return PotentialAssignment(values, u, v, g.n * p.array.k)


def check_harmonicity(g: ExplicitGraph, assignment: PotentialAssignment) -> Fraction:
    """Largest absolute neighbor-sum residual away from the terminals.

    A true voltage function returns exactly 0.
    """
    den, f = _over_one_denominator(assignment.values)
    terminals = (assignment.u, assignment.v)
    worst = max(
        (abs(sum(f[x] for x in near) - len(near) * f[z]) for z, near in enumerate(g.adjacency) if z not in terminals),
        default=0,
    )
    return Fraction(worst, den)


def measure_current(g: ExplicitGraph, assignment: PotentialAssignment) -> Fraction:
    """Net current leaving the source terminal u; the circuit predicts n*k."""
    near = g.adjacency[assignment.u]
    den, f = _over_one_denominator([assignment.values[x] for x in (assignment.u, *near)])
    return Fraction(len(near) * f[0] - sum(f[1:]), den)


def _hitting_times_hold(g: ExplicitGraph, t: int, dist: Sequence[int], H: Sequence[int], q: int) -> bool:
    """Whether H[j] / q is the expected number of steps a simple random walk
    takes to reach t from every vertex at distance j of it, `dist` the BFS
    row from t.

    Those times are the one solution of h(t) = 0 and
    deg(x) (h(x) - 1) = sum_{y ~ x} h(y) at every x != t, so the prediction
    holds exactly when H[0] = 0 and q times those equations hold in ints.
    """
    if H[0] or len(H) <= max(dist):
        return False
    h = [H[j] for j in dist]
    return all(len(near) * (h[x] - q) == sum(map(h.__getitem__, near)) for x, near in enumerate(g.adjacency) if x != t)


def effective_resistances(g: ExplicitGraph, pairs: Sequence[tuple[int, int]]) -> list[Fraction]:
    """Two-point resistances of many pairs by direct circuit solution,
    independent of any intersection-array formula.

    Grounds vertex 0 and solves the reduced Laplacian L0 once for a unit
    current injected at each distinct endpoint other than 0, as integer
    columns Y = q * inv(L0) E over one denominator q, whose row and column
    for the ground are 0; R(a, b) = (Y_aa + Y_bb - 2 Y_ab) / q.  Y is read
    from a float64 solve and kept only if L0 Y == q E holds exactly
    (`_certified_solve`); otherwise one fraction-free elimination gives it,
    with q = det(L0).
    """
    for a, b in pairs:
        if a == b:
            raise ValueError("resistance needs two distinct vertices")
        if not (0 <= a < g.n and 0 <= b < g.n):
            raise ValueError(f"pair ({a},{b}) outside vertex range 0..{g.n - 1}")
    if not pairs:
        return []
    import numpy as np

    # vertex z >= 1 sits at row z - 1 of the grounded Laplacian
    lap = laplacian_matrix(g)[1:, 1:].astype(np.int64)
    sources = sorted({z for pair in pairs for z in pair if z})
    units = np.zeros((g.n - 1, len(sources)), dtype=np.int64)
    units[np.array(sources) - 1, np.arange(len(sources))] = 1
    den, solved = _certified_solve(lap, units, np.linalg.solve(lap, units)) or solve_exact(lap.tolist(), units.T.tolist())
    column = dict(zip(sources, solved))

    def y(a: int, b: int) -> int:
        return column[b][a - 1] if a and b else 0

    return [Fraction(y(a, a) + y(b, b) - 2 * y(a, b), den) for a, b in pairs]


def _certified_solve(lap: np.ndarray, units: np.ndarray, x: np.ndarray) -> Optional[tuple[int, list[list[int]]]]:
    """A common denominator q and the integer columns of q * x rounded, if
    they satisfy lap @ (q x) == q * units exactly; None otherwise.

    x is only a hint (Wan 2006): q starts at 1 and takes in the denominator
    `limit_denominator(DENOMINATOR_BOUND)` finds for the entry of q * x
    farthest from an integer, until every entry lies within `CERTIFY_TOL`
    of one.  lap is nonsingular, so columns that pass the integer check are
    q * inv(lap) * units, whatever the float's error.
    """
    import numpy as np

    if not np.isfinite(x).all():
        return None
    q = 1
    while True:
        scaled = q * x
        off = np.abs(scaled - np.rint(scaled))
        worst = int(off.argmax())
        if off.flat[worst] <= CERTIFY_TOL:
            break
        d = Fraction(float(scaled.flat[worst])).limit_denominator(DENOMINATOR_BOUND).denominator
        if d == 1 or q * d > DENOMINATOR_BOUND:
            return None
        q *= d
    rounded = np.rint(scaled)
    # an entry of lap @ rounded is at most 2 * max degree * max|rounded|: int64 only below overflow
    if 2.0 * float(lap.diagonal().max()) * float(np.abs(rounded).max()) >= 2.0**62:
        return None
    rounded = rounded.astype(np.int64)
    if not np.array_equal(lap @ rounded, q * units):
        return None
    return q, rounded.T.tolist()


def effective_resistance_oracle(g: ExplicitGraph, u: int, v: int) -> Fraction:
    """Two-point resistance between u and v; see `effective_resistances`."""
    return effective_resistances(g, [(u, v)])[0]


def laplacian_matrix(g: ExplicitGraph) -> np.ndarray:
    import numpy as np

    lap = np.zeros((g.n, g.n))
    for a, b in g.edges:
        lap[a, a] += 1.0
        lap[b, b] += 1.0
        lap[a, b] -= 1.0
        lap[b, a] -= 1.0
    return lap


def jacobi_eigenvalues(matrix: np.ndarray) -> np.ndarray:
    """Eigenvalues of a symmetric matrix by cyclic Jacobi rotations.

    Sweeps until the off-diagonal Frobenius norm drops below `JACOBI_OFF_TOL`.
    Each rotation updates rows p, q and columns p, q as one stacked block and
    then sets the four entries where they cross, so every entry gets the IEEE
    operations of rotating the rows first and the columns after.
    """
    import numpy as np

    a = np.array(matrix, dtype=float)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError("matrix must be square")
    for _ in range(JACOBI_MAX_SWEEPS):
        # cancellation can push the difference a hair below zero
        off = np.sqrt(max(np.sum(a * a) - np.sum(np.diag(a) ** 2), 0.0))
        if off <= JACOBI_OFF_TOL:
            return np.sort(np.diag(a))
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a.item(p, q)
                if apq == 0.0:
                    continue
                app, aqp, aqq = a.item(p, p), a.item(q, p), a.item(q, q)
                # a vanishing apq overflows theta to inf, which gives t = 0:
                # no rotation.  np.hypot, because math.hypot rounds some
                # arguments differently
                theta = (aqq - app) / (2.0 * apq)
                t = (1.0 if theta >= 0 else -1.0) / (abs(theta) + float(np.hypot(theta, 1.0)))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                # rows p, q beside columns p, q: one 2 x 2n block
                rows = a[p : q + 1 : q - p]
                cols = a[:, p : q + 1 : q - p]
                block = np.concatenate((rows, cols.T), axis=1)
                cb = c * block
                sb = s * block
                np.subtract(cb[0], sb[1], out=block[0])
                np.add(sb[0], cb[1], out=block[1])
                rows[...] = block[:, :n]
                cols[...] = block[:, n:].T
                # the crossing entries: the row rotation, then the column one
                rpp, rpq = c * app - s * aqp, c * apq - s * aqq
                rqp, rqq = s * app + c * aqp, s * apq + c * aqq
                a[p, p] = c * rpp - s * rpq
                a[p, q] = s * rpp + c * rpq
                a[q, p] = c * rqp - s * rqq
                a[q, q] = s * rqp + c * rqq
    # the difference above loses ~sqrt(eps) * |A| to cancellation and can
    # stall over the tolerance (C5, C14); the off-diagonal entries' own norm
    # decides before giving up
    if np.linalg.norm(a - np.diag(np.diag(a))) <= JACOBI_OFF_TOL:
        return np.sort(np.diag(a))
    raise NotConverged(f"Jacobi sweep did not converge in {JACOBI_MAX_SWEEPS} sweeps")


def laplacian_spectral_gap(g: ExplicitGraph) -> float:
    """Smallest nonzero Laplacian eigenvalue.

    Exactly one eigenvalue may lie within `ZERO_EIGENVALUE_TOL` of zero;
    more would mean a disconnected graph, which the graph type excludes.
    """
    import numpy as np

    eigenvalues = jacobi_eigenvalues(laplacian_matrix(g))
    near_zero = int(np.sum(np.abs(eigenvalues) <= ZERO_EIGENVALUE_TOL))
    if near_zero != 1:
        raise RuntimeError(f"expected exactly one zero eigenvalue, found {near_zero}")
    return float(eigenvalues[1])


def representative_pairs(g: ExplicitGraph) -> dict[int, tuple[int, int]]:
    """One vertex pair per distance class: 0 and the first vertex at each distance."""
    dist = bfs_distances(g, 0)
    return {j: (0, dist.index(j)) for j in range(1, max(dist) + 1)}


def all_pairs_by_distance(g: ExplicitGraph) -> dict[int, list[tuple[int, int]]]:
    """Every unordered pair grouped by distance."""
    out: dict[int, list[tuple[int, int]]] = {}
    for x in range(g.n):
        dist = bfs_distances(g, x)
        for y in range(x + 1, g.n):
            out.setdefault(dist[y], []).append((x, y))
    return dict(sorted(out.items()))
