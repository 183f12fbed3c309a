"""Seeded workloads for the drglab benchmark, and running and checking ops.

A workload yields *rounds*: lists of CLI operations (argv lists for
``drglab.cli.main``) generated from the benchmark seed and the round index
alone.  A measured run takes the first ``set_rounds`` rounds as its op set
and repeats that set in passes.  The seed varies what each op asks for
(--n-max caps, sampled arrays, graph aliases, walk distances and seeds,
order), while each workload fixes the inputs that set its cost: scan-box
scans every sub-box of a fixed candidate band, analyze-mix samples the
same number of arrays from every cell, verify-graphs and walk-mc run one
op per fixed graph slot.  So the figures of two seeds compare, and a run's
op set is small enough to repeat in many passes.

Graph workloads use valency >= 3 only: the paper's resistance bounds, and
``drglab analyze``, cover valency >= 3.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
import sys
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from drglab.arrays import compute_distance_distribution, parse_intersection_array, validate_basic
from drglab.catalog import catalog
from drglab.graphs import construct_named_graph, verify_distance_regular
from drglab.potentials import potentials_closed_form
from drglab.resistance import BIGGS_THRESHOLD, extremal_set
from drglab.scanner import ScanQuery, enumerate_arrays
from drglab.walks import commute_time

# A graph slot lists interchangeable names for one labelled graph (the
# aliases build identical edge sets), so the seed can vary the argv without
# varying the work.
Slot = tuple[tuple[str, tuple[int, ...]], ...]


def _slot(*names: tuple) -> Slot:
    return tuple((name[0], tuple(name[1:])) for name in names)


@dataclass(frozen=True)
class Profile:
    """Sizes of everything the benchmark generates.

    ``FULL`` is the benchmark; ``TINY`` keeps every code path and metric
    name but shrinks each input so the harness can be smoke-tested in a
    couple of seconds.
    """

    # scan-box ops are the sub-boxes of scan_box = (k_min, k_max, D_min,
    # D_max) holding scan_band candidates, every one in every round
    scan_box: tuple[int, int, int, int]
    scan_band: tuple[int, int]
    # analyze-mix samples analyze_per_cell arrays from each (k, D) cell of
    # the scan box holding at most analyze_cell_cap candidates
    analyze_per_cell: int
    analyze_cell_cap: int
    verify_slots: tuple  # (slot, exhaustive) per verify op of a round
    walk_slots: tuple  # one walk op per slot and round
    walk_target_steps: int
    setup_reps: int  # fresh interpreters per measured run
    set_rounds: dict  # workload -> rounds in a measured run's op set
    # traced run
    slice_rounds: dict  # workload -> rounds in the traced slice
    probes: dict  # oracle / verify probe label -> (family, params)
    jobs_box: tuple[int, int, int, int]  # the box scanned at jobs 1 and 2
    micro_seconds: float  # least time per direct layer timing


FULL = Profile(
    scan_box=(3, 7, 1, 7),
    scan_band=(100, 300),
    analyze_per_cell=4,
    analyze_cell_cap=600,
    verify_slots=(
        # n <= 20
        (_slot(("petersen",)), False),
        (_slot(("heawood",)), False),
        (_slot(("pappus",)), False),
        (_slot(("desargues",)), False),
        (_slot(("dodecahedron",)), False),
        (_slot(("hypercube", 3), ("hamming", 3, 2)), False),
        (_slot(("hypercube", 4), ("hamming", 4, 2)), False),
        (_slot(("complete", 8), ("hamming", 1, 8), ("johnson", 8, 1), ("johnson", 8, 7)), False),
        (_slot(("complete", 16), ("hamming", 1, 16), ("johnson", 16, 1), ("johnson", 16, 15)), False),
        (_slot(("complete_bipartite", 6)), False),
        (_slot(("complete_bipartite", 10)), False),
        (_slot(("complete_bipartite_minus_matching", 7)), False),
        (_slot(("complete_bipartite_minus_matching", 10)), False),
        (_slot(("cocktail_party", 5)), False),
        (_slot(("cocktail_party", 9)), False),
        (_slot(("hamming", 2, 3)), False),
        (_slot(("hamming", 2, 4)), False),
        (_slot(("johnson", 5, 2), ("johnson", 5, 3)), False),
        (_slot(("johnson", 6, 2), ("johnson", 6, 4)), False),
        (_slot(("johnson", 6, 3)), False),
        # 21 <= n <= 32
        (_slot(("johnson", 7, 2), ("johnson", 7, 5)), False),
        (_slot(("hamming", 3, 3)), False),
        (_slot(("complete_bipartite", 16)), False),
        (_slot(("complete_bipartite_minus_matching", 16)), False),
        (_slot(("johnson", 8, 2), ("johnson", 8, 6)), False),
        # every pair, n <= 20
        (_slot(("petersen",)), True),
        (_slot(("hypercube", 3), ("hamming", 3, 2)), True),
        (_slot(("johnson", 5, 2), ("johnson", 5, 3)), True),
        (_slot(("complete_bipartite", 5)), True),
        (_slot(("complete_bipartite_minus_matching", 6)), True),
        (_slot(("cocktail_party", 5)), True),
        (_slot(("hamming", 2, 3)), True),
        (_slot(("complete", 9), ("hamming", 1, 9), ("johnson", 9, 1), ("johnson", 9, 8)), True),
    ),
    walk_slots=(
        _slot(("petersen",)),
        _slot(("heawood",)),
        _slot(("pappus",)),
        _slot(("desargues",)),
        _slot(("dodecahedron",)),
        _slot(("hypercube", 4), ("hamming", 4, 2)),
        _slot(("hypercube", 6), ("hamming", 6, 2)),
        _slot(("johnson", 8, 3), ("johnson", 8, 5)),
        _slot(("johnson", 7, 3), ("johnson", 7, 4)),
        _slot(("hamming", 3, 4)),
        _slot(("hamming", 2, 5)),
        _slot(("complete_bipartite_minus_matching", 12)),
        _slot(("cocktail_party", 10)),
        _slot(("complete", 20), ("hamming", 1, 20), ("johnson", 20, 1), ("johnson", 20, 19)),
    ),
    walk_target_steps=100_000,
    probes={"n56": ("johnson", (8, 3)), "n64": ("hypercube", (6,)), "n128": ("hypercube", (7,))},
    jobs_box=(3, 6, 1, 5),
    micro_seconds=0.05,
    setup_reps=11,
    set_rounds={"scan-box": 1, "analyze-mix": 1, "verify-graphs": 1, "walk-mc": 1},
    slice_rounds={"scan-box": 1, "analyze-mix": 1, "verify-graphs": 1, "walk-mc": 1},
)

TINY = Profile(
    scan_box=(3, 4, 1, 3),
    scan_band=(20, 60),
    analyze_per_cell=1,
    analyze_cell_cap=60,
    verify_slots=((_slot(("petersen",)), False), (_slot(("complete", 4)), False), (_slot(("hypercube", 3)), True)),
    walk_slots=(_slot(("petersen",)), _slot(("hypercube", 3), ("hamming", 3, 2))),
    walk_target_steps=500,
    probes={"n56": ("petersen", ()), "n64": ("hypercube", (3,)), "n128": ("heawood", ())},
    jobs_box=(3, 3, 1, 3),
    micro_seconds=0.001,
    setup_reps=1,
    set_rounds={"scan-box": 1, "analyze-mix": 1, "verify-graphs": 1, "walk-mc": 1},
    slice_rounds={"scan-box": 1, "analyze-mix": 1, "verify-graphs": 1, "walk-mc": 1},
)


@dataclass(frozen=True)
class Op:
    """One CLI invocation and what its checker needs to know."""

    kind: str  # scan | analyze | catalog | verify | walk
    argv: tuple[str, ...]
    expect: object = None


def _graph_argv(name: str, params: tuple[int, ...]) -> list[str]:
    return [name, *map(str, params)]


# ---------------------------------------------------------------- generators


class Workload:
    """A named op generator plus the unit its work is counted in."""

    name = ""
    unit = ""

    def __init__(self, profile: Profile):
        self.profile = profile

    def round(self, seed: int, index: int) -> list[Op]:
        return self.make_round(random.Random(f"{self.name}/{seed}/{index}"))

    def make_round(self, rng: random.Random) -> list[Op]:
        raise NotImplementedError


def _cell(k: int, D: int):
    return enumerate_arrays(ScanQuery(k, k, D, D))


def _cell_counts(profile: Profile, cap: int) -> dict[tuple[int, int], int]:
    """Candidates per (k, D) cell of the scan box, counted up to ``cap``."""
    k_lo, k_hi, d_lo, d_hi = profile.scan_box
    return {
        (k, D): sum(1 for _ in itertools.islice(_cell(k, D), cap))
        for k in range(k_lo, k_hi + 1)
        for D in range(d_lo, d_hi + 1)
    }


class ScanBox(Workload):
    """Enumeration plus per-array Fraction screens; no graph code.

    Every round scans every sub-box of the scan box that holds scan_band
    candidates.  The seed picks, in each group of four boxes of like cost,
    the one capped by --n-max and its cap, and the order of the ops.
    """

    name = "scan-box"
    unit = "candidates"

    N_MAX = (100, 200, 300, 500)

    def __init__(self, profile: Profile):
        super().__init__(profile)
        low, high = profile.scan_band
        counts = _cell_counts(profile, high + 1)
        # a cell's cost in Fraction steps: each candidate builds its shells
        # (D steps), and whole-shell candidates go on to the potentials
        cost = {
            cell: sum(arr.D * (1 + compute_distance_distribution(arr).shells_integral) + 1 for arr in _cell(*cell))
            for cell, count in counts.items()
            if count <= high
        }
        k_lo, k_hi, d_lo, d_hi = profile.scan_box
        boxes = []
        for k1, k2 in itertools.combinations_with_replacement(range(k_lo, k_hi + 1), 2):
            for d1, d2 in itertools.combinations_with_replacement(range(d_lo, d_hi + 1), 2):
                cells = [(k, D) for k in range(k1, k2 + 1) for D in range(d1, d2 + 1)]
                count = sum(counts[cell] for cell in cells)
                if low <= count <= high:
                    boxes.append((sum(cost[cell] for cell in cells), count, k1, k2, d1, d2))
        boxes.sort()
        self.groups = [boxes[i : i + 4] for i in range(0, len(boxes), 4)]

    def make_round(self, rng: random.Random) -> list[Op]:
        ops = []
        for group in self.groups:
            capped = rng.randrange(len(group))
            for i, (_, count, k1, k2, d1, d2) in enumerate(group):
                argv = ["scan", "--k", f"{k1}..{k2}", "--diameter", f"{d1}..{d2}"]
                if i == capped:
                    argv += ["--n-max", str(rng.choice(self.N_MAX))]
                ops.append(Op("scan", tuple(argv + ["--jobs", "1", "--format", "json"]), count))
        rng.shuffle(ops)
        return ops


class AnalyzeMix(Workload):
    """Every per-array derivation: arrays sampled from each cell of the
    scan box (shells integral or not), the catalog rows, the extremal
    arrays, and a catalog recompute."""

    name = "analyze-mix"
    unit = "arrays"

    def __init__(self, profile: Profile):
        super().__init__(profile)
        cap = profile.analyze_cell_cap
        self.cells = [
            [str(arr) for arr in _cell(k, D)] for (k, D), count in _cell_counts(profile, cap + 1).items() if count <= cap
        ]
        self.fixed = [str(e.array) for e in catalog()] + [str(e.array) for e in extremal_set()]

    def make_round(self, rng: random.Random) -> list[Op]:
        arrays = list(self.fixed)
        for cell in self.cells:
            arrays += rng.sample(cell, min(len(cell), self.profile.analyze_per_cell))
        ops = [Op("analyze", ("analyze", text, "--format", "json")) for text in arrays]
        ops.append(Op("catalog", ("catalog", "--recompute", "--format", "json"), len(catalog())))
        rng.shuffle(ops)
        return ops


class VerifyGraphs(Workload):
    """Construction, BFS, verify_distance_regular, the harmonic check, the
    exact Laplacian oracle and Jacobi on a fixed mix of graphs, n <= 32."""

    name = "verify-graphs"
    unit = "graphs"

    def make_round(self, rng: random.Random) -> list[Op]:
        ops = []
        for slot, exhaustive in self.profile.verify_slots:
            name, params = rng.choice(slot)
            argv = ["verify", *_graph_argv(name, params)] + (["--exhaustive"] if exhaustive else [])
            ops.append(Op("verify", tuple(argv + ["--format", "json"])))
        rng.shuffle(ops)
        return ops


class WalkMC(Workload):
    """The pure-Python Monte Carlo loop, ~100k steps per op, over seeded
    (graph, distance, seed); trials are sized from the exact hitting time."""

    name = "walk-mc"
    unit = "steps"

    def __init__(self, profile: Profile):
        super().__init__(profile)
        self.arrays = []
        for slot in profile.walk_slots:
            name, params = slot[0]
            self.arrays.append(verify_distance_regular(construct_named_graph(name, params)))

    def make_round(self, rng: random.Random) -> list[Op]:
        ops = []
        for slot, arr in zip(self.profile.walk_slots, self.arrays):
            name, params = rng.choice(slot)
            j = rng.randint(1, arr.D)
            hitting = commute_time(arr, j) / 2
            trials = max(1, round(self.profile.walk_target_steps / hitting))
            argv = ["walk", *_graph_argv(name, params), "--from-distance", str(j), "--trials", str(trials)]
            argv += ["--seed", str(rng.randrange(2**31)), "--format", "json"]
            ops.append(Op("walk", tuple(argv), (str(arr), j, trials)))
        rng.shuffle(ops)
        return ops


WORKLOADS: dict[str, type[Workload]] = {w.name: w for w in (ScanBox, AnalyzeMix, VerifyGraphs, WalkMC)}


# -------------------------------------------------------------------- checks


@dataclass(frozen=True)
class Outcome:
    ok: bool
    work: int
    detail: str = ""


def _analyze(op: Op, rc: int, payload: dict) -> Outcome:
    arr = parse_intersection_array(op.argv[1])
    dist = compute_distance_distribution(arr)
    feasible = validate_basic(arr).overall and dist.shells_integral
    if not feasible:
        # infeasible arrays are an expected exit-2 result
        ok = rc == 2 and payload["verdict"] is None and payload["realizable"] is False
        return Outcome(ok, 1, "" if ok else "infeasible array not reported as such")
    p = potentials_closed_form(arr, dist)
    ratio = sum(p.phi[1:-1], Fraction(0)) / p.phi[0]
    verdict = payload["verdict"]
    if ratio < BIGGS_THRESHOLD:
        expected = "PASS_STRICT"
    elif any(arr == e.array for e in extremal_set()):
        expected = "EXTREMAL"
    else:
        expected = "VIOLATION"
    checks = (
        [Fraction(x) for x in payload["potentials"]["fractions"]] == list(p.phi),
        Fraction(payload["resistance"]["ratio"]) == ratio,
        Fraction(verdict["ratio_fraction"]) == ratio,
        verdict["class"] == expected,
        rc == (2 if expected == "VIOLATION" else 0),
    )
    return Outcome(all(checks), 1, "" if all(checks) else f"analyze mismatch {checks}")


def _catalog(op: Op, rc: int, payload: dict) -> Outcome:
    entries = payload["entries"]
    ok = rc == 0 and len(entries) == op.expect and all(e["matches"] for e in entries)
    return Outcome(ok, len(entries), "" if ok else "catalog recompute mismatch")


def _scan(op: Op, rc: int, payload: dict) -> Outcome:
    records = payload["records"]
    violations = [r["array"] for r in records if r["first_failing_check"] == "biggs_violation"]
    ok = rc == 0 and len(records) == op.expect and violations == payload["ruled_out_by_biggs_alone"]
    return Outcome(ok, len(records), "" if ok else f"{len(records)} records for {op.expect} candidates")


def _verify(op: Op, rc: int, payload: dict) -> Outcome:
    ok = rc == 0 and payload.get("overall") is True and all(row["equal"] for row in payload["oracle"])
    return Outcome(ok, 1, "" if ok else "verify did not pass")


def _walk(op: Op, rc: int, payload: dict) -> Outcome:
    array_text, j, trials = op.expect
    expected = commute_time(parse_intersection_array(array_text), j) / 2
    steps = round(payload["mean"] * payload["trials"])
    within = abs(payload["mean"] - float(expected)) <= 3 * payload["stderr"]
    # a 3-sigma miss is a legitimate Monte Carlo outcome (exit 2), not an error
    checks = (
        payload["array"] == array_text,
        Fraction(payload["expected"]) == expected,
        payload["trials"] == trials,
        payload["within_3_stderr"] == within,
        rc == (0 if within else 2),
    )
    return Outcome(all(checks), steps, "" if all(checks) else f"walk mismatch {checks}")


CHECKS: dict[str, Callable[[Op, int, dict], Outcome]] = {
    "analyze": _analyze,
    "catalog": _catalog,
    "scan": _scan,
    "verify": _verify,
    "walk": _walk,
}


def check(op: Op, rc: int, stdout: str, stderr: str = "") -> Outcome:
    """Judge one op from its exit code and JSON output (exit -1: it raised)."""
    if rc == -1:
        return Outcome(False, 0, stderr.strip().splitlines()[-1] if stderr.strip() else "raised")
    try:
        payload = json.loads(stdout)
    except json.JSONDecodeError:
        return Outcome(False, 0, f"exit {rc}, no JSON output")
    if payload.get("schema") != 1 or payload.get("command") != op.argv[0]:
        return Outcome(False, 0, "unexpected payload header")
    return CHECKS[op.kind](op, rc, payload)


def flag(op: Op, name: str) -> Optional[str]:
    """The value an op's argv gives for ``name``, or None."""
    return op.argv[op.argv.index(name) + 1] if name in op.argv else None


def graph_spec(op: Op) -> tuple[str, tuple[int, ...]]:
    """The (family, params) a verify or walk op names."""
    return op.argv[1], tuple(int(p) for p in itertools.takewhile(str.isdigit, op.argv[2:]))


def parse_box(op: Op) -> tuple[ScanQuery, Optional[int]]:
    """The ScanQuery a scan op asks for, and its --n-max."""
    k_lo, k_hi = map(int, flag(op, "--k").split(".."))
    d_lo, d_hi = map(int, flag(op, "--diameter").split(".."))
    n_max = int(flag(op, "--n-max")) if flag(op, "--n-max") else None
    return ScanQuery(k_lo, k_hi, d_lo, d_hi, n_max=n_max), n_max


# ------------------------------------------------------------------- running


def run_op(main, argv) -> tuple[int, str, float, str]:
    """Call ``main(argv)`` with stdout and stderr captured.

    Returns (exit code, stdout, seconds, stderr).  An exception from the
    program is a failed op with exit code -1 and the traceback as stderr,
    never a crash of the harness.
    """
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(list(argv))
    except Exception:
        elapsed = time.perf_counter() - start
        return -1, out.getvalue(), elapsed, traceback.format_exc(limit=3)
    return rc, out.getvalue(), time.perf_counter() - start, err.getvalue()


class Result:
    """What one run reports: op counts, metrics and readable lines."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.metrics: dict[str, dict] = {}
        self.lines: list[str] = []

    def add(self, name: str, value: float, unit: str, note: str = "") -> None:
        self.metrics[name] = {"value": value, "unit": unit}
        self.lines.append(f"  {name:44s} {value:>16.6g} {unit:8s} {note}")

    def record(self, op: Op, outcome: Outcome) -> None:
        self.attempted += 1
        if not outcome.ok:
            self.failed += 1
            if self.failed <= 5:
                print(f"drgbench: FAILED {' '.join(op.argv)}: {outcome.detail}", file=sys.stderr)

    def payload(self) -> dict:
        return {
            "correct": self.correct and self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": self.metrics,
        }
