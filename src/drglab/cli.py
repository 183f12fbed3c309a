"""Command-line front end.

Subcommands: analyze, scan, catalog, verify, walk.  Exit codes: 0 success,
1 usage or unreadable input, 2 a verdict failure (non-realizable array,
potential routes that disagree, catalog mismatch, graph not
distance-regular, verification mismatch, walk estimate off target).

JSON output carries a top-level  "schema": 1  and is byte-stable: fixed key
order, fixed enumeration order, exact fractions as strings, decimals
rendered half-even to six places.  Every payload has the bytes that
`json.dumps` gives with `indent=2`, without the standard library's
pure-Python indenting encoder: `analyze` fills one template from the ints
of its kernel (`walks._analysis`), with no `Fraction` built, `scan` fills
one per record, and every other payload, with the scan's head
and foot, is written by `_json_text`.  `scan` streams: the scanner's kernel
yields one tuple per candidate in canonical order, and each is written from
its ints as soon as it is rendered, with no `ScanRecord` built, so memory
stays flat however large the box.

`main` hands a command named first straight to that command's parser, which
is the parser the top-level parse would hand it to; every other argv goes
through the top-level parse.

Each handler imports the modules it runs when it is called, so a command
loads only those: `catalog` loads the catalog path that `import drglab`
already holds, `scan` adds the scanner, `analyze` the array side of
`walks`, and only `verify` and `walk` load the graph modules.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import sys

# the C string escaper that `json.encoder` itself imports: importing the json
# package for it would load its decoder and scanner as well
from _json import encode_basestring_ascii
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Optional, TextIO

from .arrays import _b_half, _c_half, integer, parse_intersection_array
from .catalog import catalog, recompute_entry
from .rational import _decimal, decimal_string
from .resistance import BiggsClass

if TYPE_CHECKING:
    from .graphs import ExplicitGraph

SCHEMA = 1
INFINITY = float("inf")


class _Parser(argparse.ArgumentParser):
    # usage problems must exit 1, not argparse's default 2
    def error(self, message: str):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _float_text(value: float) -> str:
    """json's text of a float: its repr, or NaN and the infinities."""
    if value != value:
        return "NaN"
    if value == INFINITY or value == -INFINITY:
        return "Infinity" if value > 0 else "-Infinity"
    return float.__repr__(value)


def _json_text(value) -> str:
    """The text `json.dumps` gives for `value` with `indent=2`, from the C
    string escaper and json's float rule instead of the pure-Python encoder
    that `indent` selects."""
    chunks: list[str] = []
    _json_chunks(value, "\n", chunks)
    return "".join(chunks)


def _json_chunks(value, indent: str, chunks: list[str]) -> None:
    """Append the text of `value`, nested at the newline-led `indent`, to
    `chunks`.  A module function, not a closure over itself: such a closure
    is a reference cycle that keeps every chunk alive until the garbage
    collector runs."""
    if isinstance(value, str):
        chunks.append(encode_basestring_ascii(value))
    elif value is None:
        chunks.append("null")
    elif value is True:
        chunks.append("true")
    elif value is False:
        chunks.append("false")
    elif isinstance(value, int):
        chunks.append(int.__repr__(value))
    elif isinstance(value, float):
        chunks.append(_float_text(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            chunks.append("[]")
            return
        inner = indent + "  "
        opener = "[" + inner
        for item in value:
            chunks.append(opener)
            _json_chunks(item, inner, chunks)
            opener = "," + inner
        chunks.append(indent + "]")
    elif isinstance(value, dict):
        if not value:
            chunks.append("{}")
            return
        inner = indent + "  "
        opener = "{" + inner
        for key, item in value.items():
            chunks.append(opener + encode_basestring_ascii(key) + ": ")
            _json_chunks(item, inner, chunks)
            opener = "," + inner
        chunks.append(indent + "}")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _range(text: str) -> tuple[int, int]:
    parts = text.split("..")
    if len(parts) == 1:
        lo = hi = integer(parts[0])
    elif len(parts) == 2:
        lo, hi = integer(parts[0]), integer(parts[1])
    else:
        raise ValueError(text)
    return lo, hi


class _CannotWrite(Exception):
    """The output could not be opened or written; no message when a stdout
    reader went away, which ends the command quietly."""


@contextlib.contextmanager
def _output(args) -> Iterator[TextIO]:
    """The file --output names, opened for writing, or stdout, flushed when
    the command is done.  An OS error while opening, writing or flushing
    becomes `_CannotWrite`, which `main` reports in one line, and so does a
    closed stdout, which Python leaves as None."""
    if not args.output and sys.stdout is None:
        raise _CannotWrite("cannot write stdout: stdout is closed")
    try:
        with open(args.output, "w", encoding="utf-8") if args.output else contextlib.nullcontext(sys.stdout) as out:
            yield out
            out.flush()
    except OSError as exc:
        if args.output:
            raise _CannotWrite(f"cannot write {args.output}: {exc.strerror}") from exc
        # what is still buffered goes to /dev/null at the interpreter's exit flush
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise _CannotWrite("" if isinstance(exc, BrokenPipeError) else f"cannot write stdout: {exc.strerror}") from exc


def _emit(out: TextIO, args, payload: Callable[[], dict], table: Callable[[], list[str]]) -> None:
    """Write the output in the format asked for, calling only that format's function."""
    if args.format == "json":
        out.write(_json_text(payload()) + "\n")
    else:
        out.write("\n".join(table()) + "\n")


# ---------------------------------------------------------------------- analyze


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
    from .walks import _analysis

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


# ------------------------------------------------------------------------- scan


# a record up to its ratio_decimal, with a ratio or without one, then the
# tail from _SCAN_TAIL
_SCAN_RATED = """
    {
      "array": "%s%s",
      "n": %s,
      "ratio": "%s",
      "ratio_decimal": "%s",%s"""
_SCAN_SCREENED = """
    {
      "array": "%s%s",
      "n": %s,
      "ratio": null,
      "ratio_decimal": null,%s"""
_SCAN_TAIL = """
      "first_failing_check": %s,
      "class": %s,
      "matched_extremal": %s
    }"""
_TABLE_ROW = "%-42s %6s %-14s %10s %s\n"


class _Texts(dict):
    """The text of each key, made by `render` at the key's first lookup and
    kept for the lookups after it."""

    def __init__(self, render: Callable[[tuple], str]):
        super().__init__()
        self.render = render

    def __missing__(self, key: tuple) -> str:
        text = self[key] = self.render(key)
        return text


def _scan_tail(outcome: tuple) -> str:
    """The lines of a JSON record after its ratio_decimal, from
    (first_failing_check, category, matched_extremal)."""
    failing, category, matched = outcome
    return _SCAN_TAIL % (
        encode_basestring_ascii(failing),
        "null" if category is None else encode_basestring_ascii(category.value),
        "null" if matched is None else encode_basestring_ascii(matched),
    )


def _write_scan_json(out: TextIO, query: dict, outcomes: Iterator[tuple]) -> None:
    """The scan payload, one write per record, straight from the tuples of
    the scanner's kernel (`scanner._outcomes`): a whole n prints as a
    number, any other n or ratio as a "p/q" string, and no `ScanRecord`,
    the library's form of a record, is built.  The bytes are those
    `json.dumps` gives for the whole payload with `indent=2`: the head and
    the ruled-out list come from `_json_text`, each record from the
    templates.

    A box repeats few `b` halves, `c` halves and outcomes across its
    records, so the text of each distinct one is rendered once per call and
    looked up for every record after; nothing is kept between calls.
    """
    head = _json_text({"schema": SCHEMA, "command": "scan", "query": query, "records": []})
    out.write(head[: head.rindex("]")])
    b_texts, c_texts, tails = _Texts(_b_half), _Texts(_c_half), _Texts(_scan_tail)
    ruled_out = []
    sep = ""
    for array, (n, n_den), p, q, failing, category, matched in outcomes:
        b_text, c_text = b_texts[array.b], c_texts[array.c]
        n_text = n if n_den == 1 else f'"{n}/{n_den}"'
        tail = tails[failing, category, matched]
        if p is None:
            text = _SCAN_SCREENED % (b_text, c_text, n_text, tail)
        else:
            if failing == "biggs_violation":
                ruled_out.append(b_text + c_text)
            text = _SCAN_RATED % (b_text, c_text, n_text, p if q == 1 else f"{p}/{q}", _decimal(p, q), tail)
        out.write(sep + text)
        sep = ","
    # the foot's own "{" is already open in the head
    foot = _json_text({"ruled_out_by_biggs_alone": ruled_out})
    out.write(("\n  ]," if sep else "],") + foot[1:] + "\n")


def _write_scan_table(out: TextIO, outcomes: Iterator[tuple]) -> None:
    """The table: a header row, one row per record, then the totals line,
    each row straight from a kernel tuple as in `_write_scan_json`.  The
    array column is joined from its halves' texts, each rendered once per
    call."""
    b_texts, c_texts = _Texts(_b_half), _Texts(_c_half)
    out.write(_TABLE_ROW % ("array", "n", "first_failing", "ratio", "class"))
    shown = ruled_out = 0
    for array, (n, n_den), p, q, failing, category, _ in outcomes:
        shown += 1
        if p is None:
            ratio_text = category_text = "-"
        else:
            ruled_out += failing == "biggs_violation"
            ratio_text, category_text = _decimal(p, q), category.value
        n_text = n if n_den == 1 else f"{n}/{n_den}"
        out.write(_TABLE_ROW % (b_texts[array.b] + c_texts[array.c], n_text, failing, ratio_text, category_text))
    out.write(f"total {shown} record(s); {ruled_out} ruled out by the resistance bound alone\n")


def _cmd_scan(args) -> int:
    from .scanner import ScanQuery, _outcomes

    try:
        k_lo, k_hi = _range(args.k)
        d_lo, d_hi = _range(args.diameter)
    except ValueError:
        print("scan: ranges look like A..B or a single integer", file=sys.stderr)
        return 1
    # every refusal (ranges, jobs, box size) is raised here, before --output is opened
    try:
        query = ScanQuery(k_lo, k_hi, d_lo, d_hi, n_max=args.n_max)
        outcomes = _outcomes(query, jobs=args.jobs)
    except ValueError as exc:
        print(f"scan: {exc}", file=sys.stderr)
        return 1
    if args.only_biggs:
        outcomes = (outcome for outcome in outcomes if outcome[4] == "biggs_violation")

    with _output(args) as out:
        if args.format == "json":
            box = {"k": [k_lo, k_hi], "diameter": [d_lo, d_hi], "n_max": args.n_max, "only_biggs": args.only_biggs}
            _write_scan_json(out, box, outcomes)
        else:
            _write_scan_table(out, outcomes)
    return 0


# ---------------------------------------------------------------------- catalog


def _cmd_catalog(args) -> int:
    entries = catalog()
    with _output(args) as out:
        rows = [(entry, recompute_entry(entry) if args.recompute else None) for entry in entries]

        def payload() -> dict:
            entries = []
            for entry, recomputed in rows:
                item = {
                    "table": entry.table,
                    "name": entry.name,
                    "aliases": list(entry.aliases),
                    "array": str(entry.array),
                    "vertices": entry.vertices,
                    "ratio": entry.printed_ratio,
                    "extremal": entry.extremal,
                    "has_explicit_construction": entry.has_explicit_construction,
                }
                if recomputed is not None:
                    item["recomputed_n"] = recomputed.n
                    item["recomputed_ratio"] = str(recomputed.ratio)
                    item["recomputed_ratio_rendered"] = recomputed.ratio_rendered
                    item["matches"] = recomputed.matches
                entries.append(item)
            return {"schema": SCHEMA, "command": "catalog", "recompute": bool(args.recompute), "entries": entries}

        def table() -> list[str]:
            lines = [f"{'name':34s} {'array':42s} {'n':>5s} {'ratio':>9s}  table"]
            for entry, recomputed in rows:
                mark = "  MISMATCH" if recomputed is not None and not recomputed.matches else ""
                lines.append(
                    f"{entry.name:34s} {str(entry.array):42s} {entry.vertices:>5d} {entry.printed_ratio:>9s}  {entry.table}{mark}"
                )
            return lines

        _emit(out, args, payload, table)
        return 2 if any(recomputed is not None and not recomputed.matches for _, recomputed in rows) else 0


# ----------------------------------------------------------------------- verify


def _load_graph(args) -> tuple[ExplicitGraph, dict]:
    from .graphs import construct_named_graph, from_edge_list

    if args.edges and args.family:
        raise ValueError("give a family name or --edges FILE, not both")
    if args.edges:
        with open(args.edges, encoding="utf-8") as handle:
            graph = from_edge_list(handle.read())
        origin = {"source": "edges", "path": args.edges}
    elif args.family:
        graph = construct_named_graph(args.family, args.params)
        origin = {"source": "family", "family": args.family, "params": list(args.params)}
    else:
        raise ValueError("give a family name or --edges FILE")
    if graph.n < 2:
        raise ValueError("need at least two vertices")
    return graph, origin


def _cmd_verify(args) -> int:
    from .circuits import NotConverged
    from .walks import VerifyReport, verify_graph

    try:
        graph, origin = _load_graph(args)
    except (OSError, ValueError) as exc:
        print(f"verify: {exc}", file=sys.stderr)
        return 1

    with _output(args) as out:
        try:
            report = verify_graph(graph, args.exhaustive)
        except NotConverged as exc:
            print(f"verify: spectral check failed: {exc}", file=sys.stderr)
            return 1
        head = {"schema": SCHEMA, "command": "verify", "graph": origin, "n": graph.n, "m": graph.m}
        graph_line = f"graph            n={graph.n} m={graph.m}"
        if not isinstance(report, VerifyReport):
            _emit(
                out,
                args,
                lambda: {**head, "distance_regular": False, "failure": str(report)},
                lambda: [graph_line, f"distance-regular NO: {report}"],
            )
            return 2
        harmonic, spectral = report.harmonic, report.spectral

        def payload() -> dict:
            return {
                **head,
                "distance_regular": True,
                "array": str(report.array),
                "harmonic": {
                    "pair": [harmonic.u, harmonic.v],
                    "max_residual": str(report.residual),
                    "residual_zero": report.residual_zero,
                    "current": str(report.current),
                    "expected_current": harmonic.expected_current,
                    "current_matches": report.current_matches,
                },
                "oracle": [
                    {"distance": j, "pair": list(pair), "oracle": str(oracle), "formula": str(formula), "equal": equal}
                    for j, pair, oracle, formula, equal in report.oracle
                ],
                "spectral": {
                    "sigma": spectral.sigma,
                    "resistance_gap_bound": str(spectral.resistance_gap_bound),
                    "spectral_lower_bound": str(spectral.spectral_lower_bound),
                    "sigma_holds": spectral.sigma_holds,
                    "middle_holds": spectral.middle_holds,
                },
                "overall": report.overall,
            }

        def table() -> list[str]:
            lower = spectral.spectral_lower_bound
            middle = f">= {lower}" if report.middle_decides else f"(the middle bound {lower} applies only for k >= 3)"
            return [
                graph_line,
                f"array            {report.array}",
                f"harmonic         residual={report.residual} current={report.current}/{harmonic.expected_current}",
                *(
                    f"resistance d_{j}   pair {pair} oracle={oracle} formula={formula} {'ok' if equal else 'MISMATCH'}"
                    for j, pair, oracle, formula, equal in report.oracle
                ),
                f"spectral         sigma={spectral.sigma:.8f} >= {spectral.resistance_gap_bound} {middle}"
                f" {'ok' if report.spectral_ok else 'MISMATCH'}",
                f"overall          {'pass' if report.overall else 'FAIL'}",
            ]

        _emit(out, args, payload, table)
        return 0 if report.overall else 2


# ------------------------------------------------------------------------- walk


def _cmd_walk(args) -> int:
    from .graphs import RegularityFailure
    from .walks import walk_graph

    try:
        graph, origin = _load_graph(args)
        run = walk_graph(graph, args.from_distance, args.trials, args.seed)
    except (OSError, ValueError) as exc:
        print(f"walk: {exc}", file=sys.stderr)
        return 1
    if isinstance(run, RegularityFailure):
        print(f"walk: graph is not distance-regular: {run}", file=sys.stderr)
        return 2

    with _output(args) as out:
        report = run()
        estimate, expected = report.estimate, report.expected

        def payload() -> dict:
            return {
                "schema": SCHEMA,
                "command": "walk",
                "graph": origin,
                "array": str(report.array),
                "from_distance": report.distance,
                "pair": list(report.pair),
                "trials": estimate.trials,
                "seed": estimate.seed,
                "mean": estimate.mean,
                "stderr": estimate.stderr,
                "expected": str(expected),
                "expected_decimal": decimal_string(expected),
                "within_3_stderr": report.within_3_stderr,
            }

        def table() -> list[str]:
            return [
                f"graph            {origin}",
                f"pair             {report.pair} at distance {report.distance}",
                f"estimate         mean={estimate.mean:.4f} stderr={estimate.stderr:.4f} ({estimate.trials} trials, seed {estimate.seed})",
                f"expected         {expected} = {decimal_string(expected)}",
                f"within 3 stderr  {'yes' if report.within_3_stderr else 'NO'}",
            ]

        _emit(out, args, payload, table)
        return 0 if report.within_3_stderr else 2


# ------------------------------------------------------------------------ parser


@functools.cache
def _build_parser() -> _Parser:
    # built once per process: parse_args keeps no state between calls
    parser = _Parser(prog="drglab", description="Exact resistance analysis of distance-regular graph parameters.")
    common = _Parser(add_help=False)
    common.add_argument("--format", choices=("table", "json"), default="table")
    common.add_argument("--output", metavar="PATH", default=None)

    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", parents=[common], help="full report for one intersection array")
    p_analyze.add_argument("array", help='array text, e.g. "(3,2,1;1,2,3)"')
    p_analyze.set_defaults(func=_cmd_analyze)

    p_scan = sub.add_parser("scan", parents=[common], help="enumerate candidates and run the feasibility pipeline")
    p_scan.add_argument("--k", required=True, metavar="A..B", help="valency range (lower bound >= 3)")
    p_scan.add_argument("--diameter", required=True, metavar="C..E", help="diameter range")
    p_scan.add_argument("--n-max", type=integer, default=None, help="drop candidates above this vertex count, at least 1")
    p_scan.add_argument("--only-biggs", action="store_true", help="print only arrays ruled out by the resistance bound alone")
    p_scan.add_argument("--jobs", type=integer, default=1, help="accepted for compatibility, at least 1; the scan always runs in one process")
    p_scan.set_defaults(func=_cmd_scan)

    p_catalog = sub.add_parser("catalog", parents=[common], help="print the embedded catalog")
    p_catalog.add_argument("--recompute", action="store_true", help="recompute counts and ratios; exit 2 on mismatch")
    p_catalog.set_defaults(func=_cmd_catalog)

    graph_source = _Parser(add_help=False)
    graph_source.add_argument("family", nargs="?", default=None)
    graph_source.add_argument("params", nargs="*", type=integer)
    graph_source.add_argument("--edges", metavar="FILE", default=None, help="edge-list file: 'n m' then one 'a b' line per edge")

    p_verify = sub.add_parser("verify", parents=[common, graph_source], help="construct or load a graph and ground every formula on it")
    p_verify.add_argument("--exhaustive", action="store_true", help="check every pair, not one per distance")
    p_verify.set_defaults(func=_cmd_verify)

    p_walk = sub.add_parser("walk", parents=[common, graph_source], help="Monte Carlo hitting time against the exact formula")
    p_walk.add_argument("--from-distance", type=integer, required=True, metavar="J")
    p_walk.add_argument("--trials", type=integer, default=100000)
    p_walk.add_argument("--seed", type=integer, default=0, help="seed of the walks' random.Random stream, at least 0")
    p_walk.set_defaults(func=_cmd_walk)

    parser.commands = sub.choices  # each command's parser by its name
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    # one BLAS thread unless the user chose otherwise: numpy is imported on
    # first use, after this, and extra threads cost up to 25x at n = 210
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    parser = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    command = parser.commands.get(argv[0]) if argv else None
    try:
        if command is None:
            args = parser.parse_args(argv)
        else:
            # what parse_args does for a command named first, without its
            # pass over the arguments that the command's parser reads again
            args, extra = command.parse_known_args(argv[1:])
            if extra:
                parser.error(f"unrecognized arguments: {' '.join(extra)}")
            args.command = argv[0]
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except _CannotWrite as exc:
        if str(exc):
            print(f"{args.command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
