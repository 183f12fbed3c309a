"""The `scan` command: every candidate array of a (k, D) box through the
feasibility stages, streamed.  The scanner's kernel yields one tuple per
candidate in canonical order, and each is written from its ints as soon as
it is rendered, with no `ScanRecord` built, so memory stays flat however
large the box.  A JSON record is one template filled from those ints; the
payload's head and foot come from `cli._json_text`.
"""

from __future__ import annotations

import sys
from _json import encode_basestring_ascii
from typing import Callable, Iterator, TextIO

from .arrays import _b_half, _c_half, integer
from .cli import SCHEMA, _json_text, _output
from .rational import _decimal
from .scanner import ScanQuery, _outcomes


def _range(text: str) -> tuple[int, int]:
    parts = text.split("..")
    if len(parts) == 1:
        lo = hi = integer(parts[0])
    elif len(parts) == 2:
        lo, hi = integer(parts[0]), integer(parts[1])
    else:
        raise ValueError(text)
    return lo, hi


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

