"""The `analyze` command: one intersection array's screens and, when it is
realizable, its potentials, resistances, verdict and walk bounds, rendered
from the ints of its kernel (`walks._analysis`) with no `Fraction` built.
The JSON is one template filled from those ints, in the bytes that
`json.dumps` gives with `indent=2`.
"""

from __future__ import annotations

import sys

# the C string escaper that `json.encoder` itself imports: importing the json
# package for it would load its decoder and scanner as well
from _json import encode_basestring_ascii
from typing import Iterable

from .arrays import parse_intersection_array
from .cli import SCHEMA, _float_text, _output
from .rational import _decimal
from .resistance import BiggsClass
from .walks import _analysis


# the analyze payload up to its head bound, then _ANALYZE_INFEASIBLE or, for a
# realizable array, _ANALYZE_REALIZABLE; each list's items fill one %s
_ANALYZE_HEAD = """{
  "schema": %d,
  "command": "analyze",
  "array": "%s",
  "validation": {
    "overall": %s,
    "checks": [%s
    ]
  },
  "distribution": {
    "shells": [%s
    ],
    "n": %s,
    "m": %s,
    "edge_counts": [%s
    ],
    "integral": %s
  },
  "divisibility": {
    "passed": %s,
    "detail": %s
  },
  "head_bound": {
    "j": %d,
    "bound": %d,
    "passed": %s
  },
"""
_ANALYZE_CHECK = """{
        "name": %s,
        "passed": %s,
        "detail": %s
      }"""
_ANALYZE_INFEASIBLE = """  "verdict": null,
  "realizable": false
}"""
_ANALYZE_REALIZABLE = """  "potentials": {
    "fractions": [%s
    ],
    "decimals": [%s
    ],
    "source": "recursive"
  },
  "resistance": {
    "d": [%s
    ],
    "d_decimals": [%s
    ],
    "ratio": "%s",
    "ratio_decimal": "%s",
    "K_factor": "%s"
  },
  "verdict": {
    "array": "%s",
    "ratio_fraction": "%s",
    "ratio_decimal": "%s",
    "class": %s,
    "matched_extremal": %s
  },
  "walk_bounds": {
    "array": "%s",
    "n": %d,
    "m": %s,
    "commute_times": [%s
    ],
    "hitting_bound": %d,
    "commute_bound": %d,
    "cover_bound_dominant": %s,
    "spectral_lower_bound": "%s"
  }
}"""
# JSON's text of a bool, indexed by it
_BOOL = ("false", "true")
_ITEM = "\n      "
_ITEMS = "," + _ITEM
_QUOTED_ITEMS = '"' + _ITEMS + '"'


def _items(texts: Iterable[str]) -> str:
    """The items of a list in a payload's second level, each on its own line."""
    return _ITEM + _ITEMS.join(texts)


def _quoted(texts: Iterable[str]) -> str:
    """`_items` of texts that need no escaping, rationals and decimals, as strings."""
    return _ITEM + '"' + _QUOTED_ITEMS.join(texts) + '"'


def _fraction_text(p: int, q: int) -> str:
    """The text of the rational p/q, reduced with q > 0, as `str` gives it
    for its `Fraction`."""
    return str(p) if q == 1 else f"{p}/{q}"


def _fraction_texts(terms: Iterable[tuple[int, int]]) -> list[str]:
    """`_fraction_text` of each reduced (numerator, denominator) pair."""
    return [_fraction_text(p, q) for p, q in terms]


def _decimal_texts(terms: Iterable[tuple[int, int]]) -> list[str]:
    """The six-place half-even decimal of each (numerator, denominator) pair."""
    return [_decimal(p, q) for p, q in terms]


def _number(term: tuple[int, int]) -> str:
    """A reduced (numerator, denominator) pair: a whole rational as a JSON
    number, any other as a 'p/q' string."""
    p, q = term
    return str(p) if q == 1 else f'"{p}/{q}"'


def _analyze_json(arr, analysis) -> str:
    """The analyze payload, in the bytes `json.dumps` gives with `indent=2`,
    from the templates, filled from the kernel's ints (`walks._analysis`).
    No list in it is empty: an array has D >= 1 and five structural
    screens.  The verdict and the walk bounds are those of `arr` itself,
    and the verdict's ratio is the profile's, so the texts of the array and
    the ratio are rendered once."""
    screens, (shells, n, edges, m, integral, _, _), divisibility, head, derived, _ = analysis
    array = str(arr)
    checks = (_ANALYZE_CHECK % (encode_basestring_ascii(c.name), _BOOL[c.passed], encode_basestring_ascii(c.detail)) for c in screens.checks)
    # one line of arguments per object of the payload
    text = _ANALYZE_HEAD % (
        SCHEMA, array, _BOOL[screens.overall], _items(checks),
        _items(map(_number, shells)), _number(n), _number(m), _items(map(_number, edges)), _BOOL[integral],
        _BOOL[divisibility.passed], encode_basestring_ascii(divisibility.detail),
        head.j, head.bound, _BOOL[head.passed],
    )
    if derived is None:
        return text + _ANALYZE_INFEASIBLE
    phi, d, ratio, K, _, category, matched, (commutes, hitting, commute_cap, cover, spectral_floor, *_) = derived
    ratio_text, ratio_decimal = _fraction_text(*ratio), _decimal(*ratio)
    matched = "null" if matched is None else encode_basestring_ascii(matched)
    return text + _ANALYZE_REALIZABLE % (
        _quoted(_fraction_texts(phi)), _quoted(_decimal_texts(phi)),
        _quoted(_fraction_texts(d)), _quoted(_decimal_texts(d)), ratio_text, ratio_decimal, _fraction_text(*K),
        array, ratio_text, ratio_decimal, encode_basestring_ascii(category.value), matched,
        array, n[0], _number(m), _quoted(_fraction_texts(commutes)), hitting, commute_cap, _float_text(cover), _fraction_text(*spectral_floor),
    )


def _analyze_table(arr, analysis) -> str:
    """The analyze table, one line a field, from the kernel's ints."""
    screens, (shells, n, _, m, integral, _, _), divisibility, head, derived, _ = analysis
    lines = [
        f"array            {arr}",
        f"validation       {'pass' if screens.overall else 'FAIL: ' + '; '.join(c.detail for c in screens.failed())}",
        f"shells           {_fraction_texts(shells)}  n={_fraction_text(*n)}  m={_fraction_text(*m)}  integral={integral}",
        f"divisibility     {'pass' if divisibility.passed else 'FAIL'} ({divisibility.detail})",
        f"head bound       j={head.j} D<={head.bound} {'pass' if head.passed else 'FAIL'}",
    ]
    if derived is None:
        lines.append("verdict          INFEASIBLE (fails structural or shell-integrality screens)")
    else:
        phi, d, ratio, _, _, category, matched, (commutes, _, commute_cap, *_) = derived
        lines += [
            f"potentials       {_fraction_texts(phi)}",
            f"resistances      {_fraction_texts(d)}",
            f"ratio            {_fraction_text(*ratio)} = {_decimal(*ratio)}",
            f"verdict          {category.value}" + (f" ({matched})" if matched else ""),
            f"commute times    {_fraction_texts(commutes)}  cap {commute_cap}",
        ]
    return "\n".join(lines)


def _cmd_analyze(args) -> int:
    try:
        arr = parse_intersection_array(args.array)
    except ValueError as exc:
        print(f"analyze: {exc}", file=sys.stderr)
        return 1
    if arr.k <= 2:
        print("analyze: the resistance classification covers valency >= 3 only", file=sys.stderr)
        return 1

    with _output(args) as out:
        analysis = _analysis(arr)
        out.write((_analyze_json if args.format == "json" else _analyze_table)(arr, analysis) + "\n")
        derived = analysis[4]
        if derived is None:  # not realizable
            return 2
        _, _, ratio, _, recursion_ratio, category, _, _ = derived
        if recursion_ratio != ratio:
            print(f"analyze: the recursion's ratio {_fraction_text(*recursion_ratio)} differs from the closed form's {_fraction_text(*ratio)}", file=sys.stderr)
            return 2
        return 2 if category is BiggsClass.VIOLATION else 0

