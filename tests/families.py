"""Every registered family's graphs on at most 64 vertices, as the
(name, params) pairs `construct_named_graph` takes."""

import functools
import math

from drglab import construct_named_graph

SMALL = 64

SMALL_FAMILY_PARAMS = (
    [("complete", (n,)) for n in range(2, SMALL + 1)]
    + [("cycle", (n,)) for n in range(3, SMALL + 1)]
    + [("hypercube", (d,)) for d in range(1, SMALL.bit_length())]
    + [("complete_bipartite", (k,)) for k in range(1, SMALL // 2 + 1)]
    + [("complete_bipartite_minus_matching", (k,)) for k in range(3, SMALL // 2 + 1)]
    + [("cocktail_party", (parts,)) for parts in range(2, SMALL // 2 + 1)]
    + [("hamming", (d, q)) for d in range(1, SMALL.bit_length()) for q in range(2, SMALL + 1) if q**d <= SMALL]
    + [("johnson", (n, k)) for n in range(2, SMALL + 1) for k in range(1, n) if math.comb(n, k) <= SMALL]
    + [(name, ()) for name in ("petersen", "heawood", "pappus", "desargues", "dodecahedron")]
)


@functools.cache
def small_family_graph(name, params):
    return construct_named_graph(name, params)
