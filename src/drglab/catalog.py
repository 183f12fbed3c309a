"""The embedded catalog of known arrays for degrees 3, 4, and the k=6/a1=1
family, with the published vertex counts and resistance ratios kept verbatim
as golden values.

Ratios in the data file are printed decimal strings of varying precision;
`recompute_entry` re-derives both numbers from the array and compares at
exactly the printed precision (half-even).
"""

from __future__ import annotations

import functools
import os
from fractions import Fraction
from typing import Optional

from .arrays import IntersectionArray, _Record, compute_distance_distribution, parse_intersection_array
from .potentials import potentials_closed_form
from .rational import decimal_string
from .resistance import extremal_set


class CatalogEntry(_Record):
    def __init__(
        self,
        name: str,
        aliases: tuple[str, ...],
        array: IntersectionArray,
        vertices: int,
        printed_ratio: str,
        table: str,
        construction: Optional[tuple[str, tuple[int, ...]]],
    ) -> None:
        self.__dict__.update(
            name=name, aliases=aliases, array=array, vertices=vertices, printed_ratio=printed_ratio, table=table, construction=construction
        )

    @property
    def has_explicit_construction(self) -> bool:
        return self.construction is not None

    @property
    def extremal(self) -> bool:
        return any(self.array == entry.array for entry in extremal_set())


@functools.cache
def catalog() -> tuple[CatalogEntry, ...]:
    """All catalog rows, in data-file order."""
    # a plain open: importing importlib.resources costs more than the rest of drglab
    with open(os.path.join(os.path.dirname(__file__), "data", "catalog.tsv"), encoding="utf-8") as f:
        text = f.read()
    entries = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        table, name, aliases, array_text, vertices, ratio, construction = line.split("\t")
        if construction == "-":
            built = None
        else:
            family, *params = construction.split()
            built = (family, tuple(int(p) for p in params))
        entries.append(
            CatalogEntry(
                name=name,
                aliases=() if aliases == "-" else tuple(aliases.split("|")),
                array=parse_intersection_array(array_text),
                vertices=int(vertices),
                printed_ratio=ratio,
                table=table,
                construction=built,
            )
        )
    return tuple(entries)


class RecomputedEntry(_Record):
    def __init__(self, n: int, ratio: Fraction, ratio_rendered: str, n_matches: bool, ratio_matches: bool) -> None:
        self.__dict__.update(n=n, ratio=ratio, ratio_rendered=ratio_rendered, n_matches=n_matches, ratio_matches=ratio_matches)

    @property
    def matches(self) -> bool:
        return self.n_matches and self.ratio_matches


def recompute_entry(entry: CatalogEntry) -> RecomputedEntry:
    dist = compute_distance_distribution(entry.array)
    ratio = potentials_closed_form(entry.array, dist).ratio()
    places = len(entry.printed_ratio.split(".")[1]) if "." in entry.printed_ratio else 0
    rendered = decimal_string(ratio, places)
    return RecomputedEntry(
        n=int(dist.n),
        ratio=ratio,
        ratio_rendered=rendered,
        n_matches=dist.integral and dist.n == entry.vertices,
        ratio_matches=rendered == entry.printed_ratio,
    )
