"""Random-walk consequences: exact commute times against simulation.

The commute time between vertices at distance j is 2m d_j, so the
resistance bound caps every round trip at 4(n-1).  Monte Carlo walks
(seeded, hence reproducible) land on the predicted means.
"""

from drglab import (
    analyze_array,
    construct_named_graph,
    simulate_cover_time,
    verify_distance_regular,
    verify_graph,
    walk_graph,
)

cube = construct_named_graph("hypercube", (3,))
arr = verify_distance_regular(cube)

# The bounds `drglab analyze` prints, from the array alone.
report = analyze_array(arr).bounds
print("cube commute times by distance:", [str(c) for c in report.commute_times])
print("hitting bound 2(n-1) =", report.hitting_bound, "  commute bound 4(n-1) =", report.commute_bound)
print(f"cover-time dominant term 4(n-1)ln n = {report.cover_bound_dominant:.2f}")
print("spectral floor k/(4(n-1)) =", report.spectral_lower_bound)

# Hitting times: `walk_graph` walks from 0 to the first vertex at distance j,
# here an adjacent vertex, then the antipode, against the exact m d_j, half
# the commute time.
for j in (1, 3):
    walk = walk_graph(cube, j, trials=100_000, seed=20240809)()
    estimate = walk.estimate
    print(
        f"\nhit vertex {walk.pair[1]} (distance {j}): mean {estimate.mean:.3f} "
        f"+- {estimate.stderr:.3f}, exact {walk.expected}, within 3 stderr: {walk.within_3_stderr}"
    )

# The spectral chain sigma >= 1/(n d_D) >= k/(4(n-1)) on the graph itself,
# as `drglab verify` checks it.
chain = verify_graph(cube).spectral
print(
    f"\nspectral chain: {chain.sigma:.6f} >= {chain.resistance_gap_bound} >= {chain.spectral_lower_bound}"
    f"  (holds: {chain.sigma_holds and chain.middle_holds})"
)

# Cover time has no exact route here, but simulation sits under the bound.
cover = simulate_cover_time(cube, 0, trials=20_000, seed=7)
print(f"\ncover time: simulated {cover.mean:.2f} +- {cover.stderr:.2f}, bound term {report.cover_bound_dominant:.2f}")
