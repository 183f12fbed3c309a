"""Every registered family's graphs on at most 64 vertices, as the
(name, params) pairs `construct_named_graph` takes; `family_params` lists
them under any other vertex cap."""

import functools
import math

from drglab import construct_named_graph

SMALL = 64

# the parameterless families and their vertex counts
SPORADIC = (("petersen", 10), ("heawood", 14), ("pappus", 18), ("desargues", 20), ("dodecahedron", 20))


def family_params(cap):
    """Every (name, params) pair whose graph has at most `cap` vertices."""
    return (
        [("complete", (n,)) for n in range(2, cap + 1)]
        + [("cycle", (n,)) for n in range(3, cap + 1)]
        + [("hypercube", (d,)) for d in range(1, cap.bit_length())]
        + [("complete_bipartite", (k,)) for k in range(1, cap // 2 + 1)]
        + [("complete_bipartite_minus_matching", (k,)) for k in range(3, cap // 2 + 1)]
        + [("cocktail_party", (parts,)) for parts in range(2, cap // 2 + 1)]
        + [("hamming", (d, q)) for d in range(1, cap.bit_length()) for q in range(2, cap + 1) if q**d <= cap]
        + [("johnson", (n, k)) for n in range(2, cap + 1) for k in range(1, n) if math.comb(n, k) <= cap]
        + [(name, ()) for name, n in SPORADIC if n <= cap]
    )


SMALL_FAMILY_PARAMS = family_params(SMALL)


@functools.cache
def small_family_graph(name, params):
    return construct_named_graph(name, params)
