"""The graph commands, `verify` and `walk`: each loads one graph, from a
named family or an edge-list file, and renders the report the library
gives for it (`walks.verify_graph`, `walks.walk_graph`).
"""

from __future__ import annotations

import sys

from .circuits import NotConverged
from .cli import SCHEMA, _emit, _output
from .graphs import ExplicitGraph, RegularityFailure, construct_named_graph, from_edge_list
from .rational import decimal_string
from .walks import VerifyReport, verify_graph, walk_graph


def _load_graph(args) -> tuple[ExplicitGraph, dict]:
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


def _cmd_walk(args) -> int:
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

