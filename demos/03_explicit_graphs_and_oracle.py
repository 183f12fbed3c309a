"""Grounding the formulas on explicit graphs.

Build a real graph, verify distance-regularity by brute-force counting,
lay the predicted voltage function onto the vertices, and check the two
facts the formulas promise: the function is harmonic off the terminals
with source current exactly n*k, and an exact Laplacian solve returns the
same resistance as the array formula, at every distance.
"""

from drglab import (
    bfs_distances,
    build_harmonic_function,
    check_harmonicity,
    construct_named_graph,
    effective_resistance_oracle,
    laplacian_spectral_gap,
    measure_current,
    potentials_recursive,
    representative_pairs,
    resistance_profile,
    verify_distance_regular,
)

cube = construct_named_graph("hypercube", (3,))
arr = verify_distance_regular(cube)
print("cube:", cube, "verifies as", arr)

# The distance partition for the adjacent pair (0, 1): vertex z sits in the
# block of its distance pair (d(0,z), d(1,z)), read from two BFS rows.
du, dv = bfs_distances(cube, 0), bfs_distances(cube, 1)


def block(a, b):
    return [z for z in range(cube.n) if (du[z], dv[z]) == (a, b)]


print("\npartition blocks (u side / equidistant / v side):")
for i in range(max(du)):
    print(f"  level {i}: closer to u {block(i, i + 1)}, tied {block(i, i)}, closer to v {block(i + 1, i)}")

# The harmonic voltage function, one value per block.
p = potentials_recursive(arr)
f = build_harmonic_function(cube, 0, 1, p)
print("\nvoltages:", [str(x) for x in f.values])
print("max residual off terminals:", check_harmonicity(cube, f))
print("current out of u:", measure_current(cube, f), "(predicted n*k =", f.expected_current, ")")

# Exact circuit solve vs the formula, one representative pair per distance.
profile = resistance_profile(arr)
print("\nresistance, oracle vs formula:")
for j, pair in representative_pairs(cube).items():
    oracle = effective_resistance_oracle(cube, *pair)
    print(f"  distance {j}: pair {pair}  oracle {oracle}  formula {profile.at(j)}  equal {oracle == profile.at(j)}")

# The lone floating-point computation: the Laplacian spectral gap.
for name, params in [("complete", (4,)), ("hypercube", (3,)), ("petersen", ())]:
    g = construct_named_graph(name, params)
    print(f"\nspectral gap of {name}{params}: {laplacian_spectral_gap(g):.10f}")
