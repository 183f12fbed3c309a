"""`scan`'s JSON and table writers as drglab had them when the CLI wrote each
`ScanRecord` of the scan, before it wrote the scanner's kernel tuples
straight.  They are kept verbatim, except that the JSON head and foot come
from `json.dumps(value, indent=2)`, which `cli._json_text` equals byte for
byte.  Tests check that `main`'s stdout is the text these writers give for
the records of `scan`."""

import io
import json
from _json import encode_basestring_ascii
from fractions import Fraction
from typing import Callable, Iterator, Optional, TextIO

from drglab.arrays import _b_half, _c_half
from drglab.rational import decimal_string
from drglab.scanner import ScanQuery, ScanRecord, scan

SCHEMA = 1


def _json_text(value) -> str:
    return json.dumps(value, indent=2)


def _number(value: Fraction) -> str:
    """A whole rational as a JSON number, any other as a 'p/q' string."""
    return str(value) if value.denominator == 1 else f'"{value}"'


# a record up to its ratio_decimal, then the tail from _SCAN_TAIL
_SCAN_RECORD = """
    {
      "array": "%s%s",
      "n": %s,
      "ratio": %s,
      "ratio_decimal": %s,%s"""
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


def _write_scan_json(out: TextIO, query: dict, records: Iterator[ScanRecord]) -> None:
    """The scan payload, one write per record, in the bytes `json.dumps`
    gives for the whole of it with `indent=2`: the head and the
    ruled-out list come from `_json_text`, each record from the templates.

    A box repeats few `b` halves, `c` halves and outcomes across its
    records, so the text of each distinct one is rendered once per call and
    looked up for every record after; nothing is kept between calls.
    """
    head = _json_text({"schema": SCHEMA, "command": "scan", "query": query, "records": []})
    out.write(head[: head.rindex("]")])
    b_texts, c_texts, tails = _Texts(_b_half), _Texts(_c_half), _Texts(_scan_tail)
    ruled_out = []
    sep = ""
    for record in records:
        array, n, ratio, failing, verdict = record
        b_text, c_text = b_texts[array.b], c_texts[array.c]
        if record.ruled_out_by_biggs_alone:
            ruled_out.append(b_text + c_text)
        if ratio is None:
            ratio_text = decimal = "null"
        else:
            ratio_text = f'"{ratio}"'
            decimal = f'"{decimal_string(ratio)}"'
        if verdict is None:
            tail = tails[failing, None, None]
        else:
            tail = tails[failing, verdict.category, verdict.matched_extremal]
        out.write(sep + _SCAN_RECORD % (b_text, c_text, _number(n), ratio_text, decimal, tail))
        sep = ","
    # the foot's own "{" is already open in the head
    foot = _json_text({"ruled_out_by_biggs_alone": ruled_out})
    out.write(("\n  ]," if sep else "],") + foot[1:] + "\n")


def _write_scan_table(out: TextIO, records: Iterator[ScanRecord]) -> None:
    """The table: a header row, one row per record, then the totals line.
    The array column is joined from its halves' texts, each rendered once
    per call as in `_write_scan_json`."""
    b_texts, c_texts = _Texts(_b_half), _Texts(_c_half)
    out.write(_TABLE_ROW % ("array", "n", "first_failing", "ratio", "class"))
    shown = ruled_out = 0
    for record in records:
        shown += 1
        ruled_out += record.ruled_out_by_biggs_alone
        array, n, ratio, failing, verdict = record
        ratio_text = "-" if ratio is None else decimal_string(ratio)
        category = "-" if verdict is None else verdict.category.value
        out.write(_TABLE_ROW % (b_texts[array.b] + c_texts[array.c], n, failing, ratio_text, category))
    out.write(f"total {shown} record(s); {ruled_out} ruled out by the resistance bound alone\n")


def scan_text(box: tuple[int, int, int, int], n_max: Optional[int], only_biggs: bool, fmt: str) -> str:
    """What `scan --k K1..K2 --diameter D1..D2` wrote for the box
    (K1, K2, D1, D2), with its --n-max, --only-biggs and --format."""
    k_lo, k_hi, d_lo, d_hi = box
    records = iter(scan(ScanQuery(k_lo, k_hi, d_lo, d_hi, n_max=n_max)))
    if only_biggs:
        records = (record for record in records if record.ruled_out_by_biggs_alone)
    out = io.StringIO()
    if fmt == "json":
        query = {"k": [k_lo, k_hi], "diameter": [d_lo, d_hi], "n_max": n_max, "only_biggs": only_biggs}
        _write_scan_json(out, query, records)
    else:
        _write_scan_table(out, records)
    return out.getvalue()
