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
of its kernel, `scan` one per streamed record, and every other payload,
with the scan's head and foot, is written by `_json_text`.

This module holds `main`, the argument declarations, the JSON writer, the
output guard and `catalog`.  The other commands live in one module per
command group, `cli_analyze`, `cli_scan` and `cli_graph` (verify and
walk), which `main` imports only to run that command.  Each command
declares its arguments once, in `_ARGUMENTS`, and two readers read that
table.  `_read_direct` reads a command line that names its command first
and is surely well formed straight into the namespace argparse would give;
any other argv, help and every usage error go to argparse, which is
imported only then: a command named first to a parser of its own, with
the prog that the top-level parser would give it, and the rest to the
top-level parser.  So a command compiles, imports and builds only its own
code: `catalog` loads the catalog path that `import drglab` already
holds, `scan` adds the scanner, `analyze` its `analysis` module, and only
`verify` and `walk` load the graph modules.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import sys

# the C string escaper that `json.encoder` itself imports: importing the json
# package for it would load its decoder and scanner as well
from _json import encode_basestring_ascii
from types import SimpleNamespace
from typing import TYPE_CHECKING, Callable, Iterator, Optional, TextIO

from .arrays import integer
from .catalog import catalog, recompute_entry

if TYPE_CHECKING:
    import argparse

SCHEMA = 1
INFINITY = float("inf")

# each command's help line and the module whose `_cmd_<command>` runs it
_COMMANDS = {
    "analyze": ("full report for one intersection array", "cli_analyze"),
    "scan": ("enumerate candidates and run the feasibility pipeline", "cli_scan"),
    "catalog": ("print the embedded catalog", "cli"),
    "verify": ("construct or load a graph and ground every formula on it", "cli_graph"),
    "walk": ("Monte Carlo hitting time against the exact formula", "cli_graph"),
}


# the arguments that every command takes, and that verify and walk share
_FORMAT_OUTPUT = (
    ("--format", {"choices": ("table", "json"), "default": "table"}),
    ("--output", {"metavar": "PATH", "default": None}),
)
_GRAPH = (
    ("family", {"nargs": "?", "default": None}),
    ("params", {"nargs": "*", "type": integer}),
    ("--edges", {"metavar": "FILE", "default": None, "help": "edge-list file: 'n m' then one 'a b' line per edge"}),
)

# each command's arguments, declared once: the name or flag and the keywords
# that `add_argument` takes, in the order its parser declares them.  The
# argparse parsers and `_read_direct` both read this table, which holds no
# keyword but those `_reading` knows (action="store_true", type, choices,
# default, required and nargs "?" or "*", besides help and metavar).
_ARGUMENTS = {
    "analyze": (*_FORMAT_OUTPUT, ("array", {"help": 'array text, e.g. "(3,2,1;1,2,3)"'})),
    "scan": (
        *_FORMAT_OUTPUT,
        ("--k", {"required": True, "metavar": "A..B", "help": "valency range (lower bound >= 3)"}),
        ("--diameter", {"required": True, "metavar": "C..E", "help": "diameter range"}),
        ("--n-max", {"type": integer, "default": None, "help": "drop candidates above this vertex count, at least 1"}),
        ("--only-biggs", {"action": "store_true", "help": "print only arrays ruled out by the resistance bound alone"}),
        ("--jobs", {"type": integer, "default": 1, "help": "accepted for compatibility, at least 1; the scan always runs in one process"}),
    ),
    "catalog": (
        *_FORMAT_OUTPUT,
        ("--recompute", {"action": "store_true", "help": "recompute counts and ratios; exit 2 on mismatch"}),
    ),
    "verify": (
        *_FORMAT_OUTPUT,
        *_GRAPH,
        ("--exhaustive", {"action": "store_true", "help": "check every pair, not one per distance"}),
    ),
    "walk": (
        *_FORMAT_OUTPUT,
        *_GRAPH,
        ("--from-distance", {"type": integer, "required": True, "metavar": "J"}),
        ("--trials", {"type": integer, "default": 100000}),
        ("--seed", {"type": integer, "default": 0, "help": "seed of the walks' random.Random stream, at least 0"}),
    ),
}


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


# ------------------------------------------------------------------------ parser


def _declare(parser: argparse.ArgumentParser, command: str) -> None:
    """Declare the arguments of `command` on its parser, from `_ARGUMENTS`."""
    for name, keywords in _ARGUMENTS[command]:
        parser.add_argument(name, **keywords)


@functools.cache
def _parser_class() -> type[argparse.ArgumentParser]:
    """argparse's parser with usage errors ending in exit 1, not its default
    2.  argparse, and the gettext it imports, load only here: a well-formed
    command line is read by `_read_direct` without them."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        def error(self, message: str):
            self.exit(1, f"{self.prog}: error: {message}\n")

    return _Parser


@functools.cache
def _command_parser(command: str) -> argparse.ArgumentParser:
    """The parser of one command alone: the one the top-level parser hands
    the command to, without the other four.  Each parser is built once per
    process: parse_args keeps no state between calls."""
    parser = _parser_class()(prog=f"drglab {command}")
    _declare(parser, command)
    return parser


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The top-level parser, with every command's parser under it."""
    parser = _parser_class()(prog="drglab", description="Exact resistance analysis of distance-regular graph parameters.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (summary, _) in _COMMANDS.items():
        _declare(sub.add_parser(command, help=summary), command)
    return parser


@functools.cache
def _reading(command: str) -> tuple[dict, dict, tuple, tuple]:
    """What `_read_direct` needs of `command`'s declarations: its options,
    flag -> (dest, takes a value, type, choices); the defaults argparse
    sets, by dest; the dests of its required options; and its
    positionals, (dest, nargs, type)."""
    options, defaults, required, positionals = {}, {}, [], []
    for name, keywords in _ARGUMENTS[command]:
        convert = keywords.get("type")
        if name.startswith("--"):
            dest = name[2:].replace("-", "_")
            flag = keywords.get("action") == "store_true"
            options[name] = (dest, not flag, convert, keywords.get("choices"))
            defaults[dest] = False if flag else keywords.get("default")
            if keywords.get("required"):
                required.append(dest)
        else:
            positionals.append((name, keywords.get("nargs"), convert))
            defaults[name] = keywords.get("default")
    return options, defaults, tuple(required), tuple(positionals)


def _read_direct(command: str, tokens: list[str]) -> Optional[SimpleNamespace]:
    """The namespace `_command_parser(command)` gives for `tokens`, with
    `command` set, when the tokens are surely well formed; else None, and
    argparse reads them, with its help, usage errors and exit codes.

    Sure means: every token that starts with "-" is exactly a declared
    option (no -h, abbreviation, "=" form, "--" or negative number); each
    option's value is there, does not start with "-", passes its type and
    lies in its choices; every required option is given; and the
    positionals are one run of tokens that the declared positionals take
    up exactly, as argparse fills them from its first run.  A repeated
    option keeps its last value, as in argparse.
    """
    options, defaults, required, positionals = _reading(command)
    values = dict(defaults)
    loose: list[str] = []
    loose_end = -1  # the index just past the positional run so far
    i, count = 0, len(tokens)
    while i < count:
        token = tokens[i]
        i += 1
        if token[:1] != "-":
            if loose and loose_end != i - 1:
                return None  # a second run, which argparse refuses
            loose.append(token)
            loose_end = i
            continue
        option = options.get(token)
        if option is None:
            return None
        dest, takes_value, convert, choices = option
        if not takes_value:
            values[dest] = True
            continue
        if i == count or tokens[i][:1] == "-":
            return None
        try:
            value = tokens[i] if convert is None else convert(tokens[i])
        except ValueError:  # a value its type refuses
            return None
        i += 1
        if choices is not None and value not in choices:
            return None
        values[dest] = value
    for dest in required:
        if values[dest] is None:
            return None
    for dest, nargs, convert in positionals:
        if nargs == "*":
            taken, loose = loose, []
        elif loose:
            taken, loose = loose[:1], loose[1:]
        elif nargs == "?":
            continue
        else:
            return None
        if convert is not None:
            try:
                taken = [convert(text) for text in taken]
            except ValueError:
                return None
        values[dest] = taken if nargs == "*" else taken[0]
    if loose:
        return None
    values["command"] = command
    return SimpleNamespace(**values)


@functools.cache
def _handler(command: str) -> Callable[..., int]:
    """The function that runs `command`, from its module, imported at the
    command's first run in a process."""
    return getattr(importlib.import_module(f"{__package__}.{_COMMANDS[command][1]}"), f"_cmd_{command}")


def _parse(argv: list[str]) -> argparse.Namespace:
    """argparse's reading of `argv`, or its SystemExit after help or a
    usage error."""
    if argv and argv[0] in _COMMANDS:
        # what parse_args of the top-level parser does for a command named
        # first, without building the other commands' parsers
        parser = _command_parser(argv[0])
        args, extra = parser.parse_known_args(argv[1:])
        if extra:
            parser.exit(1, f"drglab: error: unrecognized arguments: {' '.join(extra)}\n")
        args.command = argv[0]
        return args
    return _build_parser().parse_args(argv)


def main(argv: Optional[list[str]] = None) -> int:
    # one BLAS thread unless the user chose otherwise: numpy is imported on
    # first use, after this, and extra threads cost the oracle's float solve,
    # which verify runs only for a row its hitting-time check fails, up to
    # 25x at n = 210
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    if argv is None:
        argv = sys.argv[1:]
    args = _read_direct(argv[0], argv[1:]) if argv and argv[0] in _COMMANDS else None
    if args is None:
        try:
            args = _parse(argv)
        except SystemExit as exc:
            return int(exc.code or 0)
    try:
        return _handler(args.command)(args)
    except _CannotWrite as exc:
        if str(exc):
            print(f"{args.command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    # the command modules import this file as drglab.cli: run that copy
    raise SystemExit(importlib.import_module("drglab.cli").main())
