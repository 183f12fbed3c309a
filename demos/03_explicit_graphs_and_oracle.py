"""Grounding the formulas on explicit graphs.

Build a real graph and verify it: `verify_graph` checks distance-regularity
by direct counting (from one vertex per orbit of the family's declared
automorphisms, once they are checked), lays the predicted
voltage function onto the vertices, and checks the two facts the formulas
promise: the function is harmonic off the terminals with source current
exactly n*k, and the resistance at every distance is the array formula's,
proved by an integer check of the hitting times m*d_j on the graph.
"""

from drglab import bfs_distances, construct_named_graph, laplacian_spectral_gap, verify_graph

cube = construct_named_graph("hypercube", (3,))
report = verify_graph(cube)
print("cube:", cube, "verifies as", report.array)

# The distance partition for the adjacent terminals u, v: vertex z sits in
# the block of its distance pair (d(u,z), d(v,z)), read from two BFS rows.
f = report.harmonic
du, dv = bfs_distances(cube, f.u), bfs_distances(cube, f.v)


def block(a, b):
    return [z for z in range(cube.n) if (du[z], dv[z]) == (a, b)]


print(f"\npartition blocks for ({f.u}, {f.v}) (u side / equidistant / v side):")
for i in range(max(du)):
    print(f"  level {i}: closer to u {block(i, i + 1)}, tied {block(i, i)}, closer to v {block(i + 1, i)}")

# The harmonic voltage function, one value per block.
print("\nvoltages:", [str(x) for x in f.values])
print("max residual off terminals:", report.residual)
print("current out of u:", report.current, "(predicted n*k =", f.expected_current, ")")

# The oracle vs the formula, one representative pair per distance: a row
# whose hitting-time check passes at both ends is equal by proof; an exact
# Laplacian solve (effective_resistances) measures any other.
print("\nresistance, oracle vs formula:")
for row in report.oracle:
    print(f"  distance {row.distance}: pair {row.pair}  oracle {row.oracle}  formula {row.formula}  equal {row.equal}")
print("every check passes:", report.overall)

# A floating-point result: the Laplacian spectral gap, by cyclic Jacobi.
# (The Laplacian solve also runs in float64, but only as a hint that an exact
# integer check accepts or rejects.)
for name, params in [("complete", (4,)), ("hypercube", (3,)), ("petersen", ())]:
    g = construct_named_graph(name, params)
    print(f"\nspectral gap of {name}{params}: {laplacian_spectral_gap(g):.10f}")
