"""The traced layer profile of the drglab benchmark (``--trace 1``).

Layers are the ``drglab`` modules.  The profile is the same whatever
workload is named, because every traced run reports every per-layer
metric; all of it is generated from the seed.  It has three parts:

1. Traced slices.  Each op of the first rounds of each workload runs once
   untraced and once with a span around every public function of every
   layer module (installed from here, by patching module namespaces; the
   program is not edited), alternating which goes first.  Spans give
   per-layer self time per op, call counts, and the tracing overhead
   against the untraced runs.  The scan and analyze slices run once more
   under cProfile to count distance-distribution calls.
2. Counts from the slices' outputs: the scan funnel and walk steps.
3. Direct timings of each layer's public functions on the slices' inputs
   and on three fixed probe graphs (n = 56, 64, 128).

Count metrics depend only on the seed, so they repeat exactly.
"""

from __future__ import annotations

import cProfile
import functools
import importlib
import json
import math
import os
import pstats
import random
import statistics
import sys
import time
from array import array
from collections import Counter, defaultdict
from pathlib import Path

from drglab.arrays import (
    check_divisibility,
    compute_distance_distribution,
    diameter_head_bound,
    parse_intersection_array,
    validate_basic,
)
from drglab.catalog import catalog, recompute_entry
from drglab.circuits import (
    build_harmonic_function,
    check_harmonicity,
    effective_resistance_oracle,
    laplacian_spectral_gap,
    measure_current,
    representative_pairs,
)
from drglab.graphs import bfs_distances, construct_named_graph, verify_distance_regular
from drglab.potentials import check_potential_properties, potentials_closed_form, potentials_recursive
from drglab.rational import decimal_string
from drglab.resistance import classify_biggs, resistance_profile
from drglab.scanner import PIPELINE_ORDER, ScanQuery, enumerate_arrays, evaluate_array, scan
from drglab.walks import simulate_hitting_time, spectral_check, walk_bounds

from drgbench_ops import FULL, WORKLOADS, Result, check, flag, graph_spec, parse_box, run_op

LAYERS = ("scanner", "arrays", "potentials", "resistance", "rational", "graphs", "circuits", "walks", "catalog", "cli")

# (workload, layer) pairs whose self time the profile reports: the layers
# each workload's ops reach at the seed commit
SELF_TIME = {
    "scan-box": ("cli", "scanner", "arrays", "potentials", "resistance", "rational"),
    "analyze-mix": ("cli", "arrays", "potentials", "resistance", "rational", "walks", "catalog"),
    "verify-graphs": ("cli", "graphs", "circuits", "arrays", "potentials", "resistance", "rational", "walks"),
    "walk-mc": ("cli", "graphs", "walks", "arrays", "potentials", "resistance", "rational"),
}

OUTCOMES = PIPELINE_ORDER[:-1] + ("biggs_violation", "pass")


class Tracer:
    """Spans around every public function of the layer modules.

    A span is (name, start, end, parent span, op id), kept in flat arrays
    and written out by ``dump``.  ``attach`` rebinds every module-level
    name that refers to a public layer function (including ``from .x
    import f`` copies and the package's re-exports) to a recording
    wrapper; ``detach`` restores the originals, so untraced ops and the
    harness's own checks run the unmodified program.
    """

    def __init__(self):
        self.names: list[str] = []
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.op_id = -1
        self._stack = [-1]
        self._patches = self._find_patches()

    def _wrap(self, qualname: str, fn):
        name_id = len(self.names)
        self.names.append(qualname)
        name, start, end, parent, op, stack = self.name, self.start, self.end, self.parent, self.op, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            index = len(start)
            name.append(name_id)
            parent.append(stack[-1])
            op.append(self.op_id)
            end.append(0.0)
            stack.append(index)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[index] = clock()
                stack.pop()

        return span

    def _find_patches(self) -> list[tuple]:
        wrapped = {}
        for layer in LAYERS:
            module = importlib.import_module(f"drglab.{layer}")
            for attr, value in vars(module).items():
                if (
                    not attr.startswith("_")
                    and callable(value)
                    and not isinstance(value, type)
                    and getattr(value, "__module__", None) == module.__name__
                ):
                    wrapped[id(value)] = self._wrap(f"{layer}.{attr}", value)
        return [
            (module, attr, value, wrapped[id(value)])
            for module_name, module in list(sys.modules.items())
            if module_name == "drglab" or module_name.startswith("drglab.")
            for attr, value in vars(module).items()
            if id(value) in wrapped
        ]

    def attach(self, op_id: int) -> None:
        self.op_id = op_id
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)

    def detach(self) -> None:
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        own = [e - s for s, e in zip(self.start, self.end)]
        for index, parent in enumerate(self.parent):
            if parent >= 0:
                own[parent] -= self.end[index] - self.start[index]
        return own

    def count(self, qualname: str, ops: set[int]) -> int:
        name_id = self.names.index(qualname)
        return sum(1 for n, o in zip(self.name, self.op) if n == name_id and o in ops)

    def dump(self, path: Path, op_meta: list) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.start[0] if self.start else 0.0
        payload = {
            "names": self.names,
            "ops": op_meta,
            "spans": {
                "name": list(self.name),
                "start_us": [round((t - origin) * 1e6, 3) for t in self.start],
                "end_us": [round((t - origin) * 1e6, 3) for t in self.end],
                "parent": list(self.parent),
                "op": list(self.op),
            },
        }
        path.write_text(json.dumps(payload), encoding="utf-8")


def _timed(fn, *args) -> float:
    start = time.perf_counter()
    fn(*args)
    return time.perf_counter() - start


def _per_call_us(fn, calls: list[tuple], min_seconds: float) -> float:
    """Microseconds per call in the fastest of at least three passes over
    ``calls``, passing repeatedly until ``min_seconds`` have gone by."""
    best = math.inf
    passes = 0
    start = time.perf_counter()
    while passes < 3 or time.perf_counter() - start < min_seconds:
        best = min(best, _timed(lambda: [fn(*args) for args in calls]))
        passes += 1
    return 1e6 * best / len(calls)


def _best_ms(fn, *args, reps: int = 3) -> float:
    return 1000 * min(_timed(fn, *args) for _ in range(reps))


def _run_slice(cli, name: str, ops, result: Result, tracer: Tracer, op_meta: list) -> tuple[list, float]:
    """Run each op untraced and traced, alternating which goes first, and
    check both outputs.  Returns the untraced (op, exit code, stdout,
    seconds) runs and the traced seconds."""
    runs = []
    traced_seconds = 0.0
    for i, op in enumerate(ops):
        for traced in (False, True) if i % 2 == 0 else (True, False):
            if traced:
                tracer.attach(len(op_meta))
                op_meta.append([name, " ".join(op.argv)])
            rc, out, elapsed, err = run_op(cli.main, op.argv)
            if traced:
                tracer.detach()
                traced_seconds += elapsed
            else:
                runs.append((op, rc, out, elapsed))
            result.record(op, check(op, rc, out, err))
    return runs, traced_seconds


def _render_frac(cli, ops, direct) -> tuple[float, float]:
    """Seconds of the CLI ops and of ``direct(op)``, the layer calls the
    same op makes, run alternately so that drift hits both alike."""
    via_cli = layer = 0.0
    for i, op in enumerate(ops):
        for use_cli in (True, False) if i % 2 == 0 else (False, True):
            if use_cli:
                via_cli += run_op(cli.main, op.argv)[2]
            else:
                layer += _timed(direct, op)
    return via_cli, layer


def _distribution_calls(cli, ops) -> int:
    profiler = cProfile.Profile()
    for op in ops:
        profiler.enable()
        run_op(cli.main, op.argv)
        profiler.disable()
    stats = pstats.Stats(profiler).stats
    return sum(
        calls[1]
        for (filename, _, function), calls in stats.items()
        if function == "compute_distance_distribution" and filename.endswith("arrays.py")
    )


def _arrays_in(ops) -> int:
    """Arrays an op list derives: one per analyze op, the catalog per
    catalog op, every candidate per scan op."""
    return sum(1 if op.kind == "analyze" else op.expect for op in ops)


def layer_profile(seed: int, out_dir: Path, profile=FULL) -> Result:
    import drglab.cli as cli

    result = Result()
    add = result.add
    workloads = {name: cls(profile) for name, cls in WORKLOADS.items()}
    slices = {
        name: [op for r in range(profile.slice_rounds[name]) for op in w.round(seed, r)]
        for name, w in workloads.items()
    }

    # 1. traced slices --------------------------------------------------
    tracer = Tracer()
    op_meta: list = []
    untraced = {}
    plain = with_spans = 0.0
    for name, ops in slices.items():
        untraced[name], traced_seconds = _run_slice(cli, name, ops, result, tracer, op_meta)
        plain += sum(run[3] for run in untraced[name])
        with_spans += traced_seconds
    tracer.dump(out_dir / f"spans-seed{seed}.json", op_meta)
    result.lines.append(f"traced slices: {len(op_meta)} ops, {len(tracer.start)} spans")
    add("trace.overhead_frac", with_spans / plain - 1, "frac", f"{with_spans:.3f} s traced vs {plain:.3f} s untraced")

    own = tracer.self_times()
    self_ms: dict = defaultdict(float)
    for n, o, t in zip(tracer.name, tracer.op, own):
        self_ms[(op_meta[o][0], tracer.names[n].split(".")[0])] += 1000 * t
    for name, layers in SELF_TIME.items():
        for layer in layers:
            add(f"self_ms.{name}.{layer}", self_ms[(name, layer)] / len(slices[name]), "ms", "self time per op")

    verify_ops = {i for i, meta in enumerate(op_meta) if meta[0] == "verify-graphs"}
    add("graphs.verify_calls_per_op", tracer.count("graphs.verify_distance_regular", verify_ops) / len(slices["verify-graphs"]), "count")
    add("circuits.oracle_solves", tracer.count("circuits.effective_resistance_oracle", verify_ops), "count", "verify-graphs slice")

    for name in ("scan-box", "analyze-mix"):
        calls = _distribution_calls(cli, slices[name])
        arrays = _arrays_in(slices[name])
        add(f"arrays.distribution_calls_per_array.{name}", calls / arrays, "count", f"{calls} calls / {arrays} arrays (cProfile)")

    # 2. counts from outputs --------------------------------------------
    funnel = Counter()
    for op, rc, out, _ in untraced["scan-box"]:
        funnel.update(record["first_failing_check"] for record in json.loads(out)["records"])
    candidates = _arrays_in(slices["scan-box"])
    if sum(funnel.values()) != candidates:
        result.correct = False
        print(f"drgbench: funnel sums to {sum(funnel.values())}, not {candidates}", file=sys.stderr)
    for outcome in OUTCOMES:
        add(f"scanner.funnel.{outcome}", funnel[outcome], "count")
    walked = [json.loads(out) for _, _, out, _ in untraced["walk-mc"]]
    steps = sum(round(p["mean"] * p["trials"]) for p in walked)
    add("walks.steps", steps, "count", "walk-mc slice")

    # 3. direct layer timings ----------------------------------------------
    micro = profile.micro_seconds
    _scanner_layer(result, cli, slices["scan-box"], seed, profile)
    _array_layers(result, cli, slices["analyze-mix"], micro)

    catalog_module = importlib.import_module("drglab.catalog")
    loads = []
    for _ in range(21):
        catalog_module.catalog.cache_clear()
        loads.append(_timed(catalog_module.catalog))
    add("catalog.load_ms", 1000 * statistics.median(loads), "ms", "cold load, median of 21")
    entries = catalog()
    add("catalog.recompute_ms", _per_call_us(lambda: [recompute_entry(e) for e in entries], [()], micro) / 1000, "ms", "all rows")

    _graph_layers(result, slices, profile)
    return result


def _scanner_layer(result: Result, cli, ops, seed: int, profile) -> None:
    add = result.add
    boxes = [parse_box(op) for op in ops]
    enumerated = sum(op.expect for op in ops)
    best = _per_call_us(lambda query: sum(1 for _ in enumerate_arrays(query)), [(q,) for q, _ in boxes], profile.micro_seconds)
    add("scanner.enumerate_per_s", 1e6 * enumerated / (best * len(boxes)), "1/s", f"{enumerated} candidates")

    # a seeded sample of the slice's candidates, each with its op's n_max
    candidates = [(arr, n_max) for query, n_max in boxes for arr in enumerate_arrays(query)]
    sample = random.Random(f"layers/{seed}").sample(candidates, min(2000, len(candidates)))
    add("scanner.evaluate_us", _per_call_us(lambda arr, n_max: evaluate_array(arr, n_max=n_max), sample, profile.micro_seconds), "us", f"{len(sample)} candidates")
    records = [evaluate_array(arr, n_max=n_max) for arr, n_max in sample]

    # each stage's function on the arrays that reach it
    rank = {stage: i for i, stage in enumerate(PIPELINE_ORDER)}
    rank["biggs_violation"] = rank["pass"] = len(PIPELINE_ORDER) - 1

    def reaching(stage):
        return [(arr, n_max) for (arr, n_max), rec in zip(sample, records) if rank[rec.first_failing_check] >= rank[stage]]

    def stage_us(stage, fn, calls):
        add(f"scanner.stage.{stage}_us", _per_call_us(fn, calls, profile.micro_seconds) if calls else 0.0, "us", f"{len(calls)} arrays reach it")

    stage_us("basic", validate_basic, [(arr,) for arr, _ in reaching("basic")])
    stage_us("integrality", compute_distance_distribution, [(arr,) for arr, _ in reaching("integrality")])
    capped = [(compute_distance_distribution(arr).n, n_max) for arr, n_max in reaching("n_max") if n_max is not None]
    stage_us("n_max", lambda n, cap: n > cap, capped)
    stage_us("divisibility", check_divisibility, [(arr,) for arr, _ in reaching("divisibility")])
    stage_us("head_bound", diameter_head_bound, [(arr,) for arr, _ in reaching("head_bound")])
    stage_us("biggs", classify_biggs, [(arr,) for arr, _ in reaching("biggs")])

    # share of a scan op spent outside the scan() call itself
    via_cli, direct = _render_frac(cli, ops, lambda op: scan(parse_box(op)[0]))
    add("cli.render_frac.scan-box", 1 - direct / via_cli, "frac", f"scan() {direct:.3f} s of {via_cli:.3f} s")

    jobs = min(2, os.cpu_count() or 1)
    box = ScanQuery(*profile.jobs_box)
    one = two = math.inf
    for _ in range(2):
        one = min(one, _timed(scan, box))
        two = min(two, _timed(functools.partial(scan, jobs=jobs), box))
    add("scanner.jobs2_speedup", one / two, "ratio", f"k {box.k_min}..{box.k_max}, D {box.d_min}..{box.d_max}, jobs={jobs}")


def _array_layers(result: Result, cli, ops, micro: float) -> None:
    add = result.add
    texts = [op.argv[1] for op in ops if op.kind == "analyze"]
    arrays = [parse_intersection_array(t) for t in texts]
    add("arrays.parse_us", _per_call_us(parse_intersection_array, [(t,) for t in texts], micro), "us")
    add("arrays.validate_basic_us", _per_call_us(validate_basic, [(a,) for a in arrays], micro), "us")
    add("arrays.distribution_us", _per_call_us(compute_distance_distribution, [(a,) for a in arrays], micro), "us")

    feasible = [a for a in arrays if validate_basic(a).overall and compute_distance_distribution(a).shells_integral]
    one = [(a,) for a in feasible]
    add("potentials.recursive_us", _per_call_us(potentials_recursive, one, micro), "us", f"{len(feasible)} feasible arrays")
    add("potentials.closed_form_us", _per_call_us(potentials_closed_form, [(a, compute_distance_distribution(a)) for a in feasible], micro), "us")
    add("potentials.check_us", _per_call_us(check_potential_properties, [(potentials_recursive(a), a) for a in feasible], micro), "us")
    add("resistance.profile_us", _per_call_us(resistance_profile, one, micro), "us")
    add("resistance.classify_us", _per_call_us(classify_biggs, one, micro), "us")
    add("walks.bounds_us", _per_call_us(walk_bounds, one, micro), "us")
    values = [(x,) for a in feasible for x in resistance_profile(a).d]
    add("rational.decimal_string_us", _per_call_us(decimal_string, values, micro), "us", f"{len(values)} resistances")

    # share of an analyze op spent outside the layer calls it makes
    def derive(op):
        arr = parse_intersection_array(op.argv[1])
        report = validate_basic(arr)
        dist = compute_distance_distribution(arr)
        check_divisibility(arr)
        diameter_head_bound(arr)
        if report.overall and dist.shells_integral:
            potentials_recursive(arr)
            resistance_profile(arr)
            classify_biggs(arr)
            walk_bounds(arr)

    via_cli, direct = _render_frac(cli, [op for op in ops if op.kind == "analyze"], derive)
    add("cli.render_frac.analyze-mix", 1 - direct / via_cli, "frac", f"layer calls {direct:.3f} s of {via_cli:.3f} s")


def _graph_layers(result: Result, slices, profile) -> None:
    add = result.add
    micro = profile.micro_seconds
    specs = sorted({graph_spec(op) for op in slices["verify-graphs"]})
    add("graphs.construct_ms", _per_call_us(construct_named_graph, specs, micro) / 1000, "ms", f"{len(specs)} graphs")

    def harmonic(g, p):
        assignment = build_harmonic_function(g, 0, g.adjacency[0][0], p)
        check_harmonicity(g, assignment)
        measure_current(g, assignment)

    graphs = [construct_named_graph(*spec) for spec in specs]
    calls = [(g, potentials_recursive(verify_distance_regular(g))) for g in graphs]
    add("circuits.harmonic_ms", _per_call_us(harmonic, calls, micro) / 1000, "ms", "build + residual + current, per graph")

    probes = {label: construct_named_graph(family, params) for label, (family, params) in profile.probes.items()}
    for label in ("n64", "n128"):
        add(f"graphs.verify_drg_ms.{label}", _best_ms(verify_distance_regular, probes[label]), "ms", str(profile.probes[label]))
    for label, reps in (("n56", 3), ("n64", 3), ("n128", 1)):
        g = probes[label]
        u, v = representative_pairs(g)[max(representative_pairs(g))]
        add(f"circuits.oracle_ms.{label}", _best_ms(effective_resistance_oracle, g, u, v, reps=reps), "ms", f"one solve, {profile.probes[label]}")
    g64 = probes["n64"]
    add("circuits.spectral_gap_ms.n64", _best_ms(laplacian_spectral_gap, g64), "ms")
    add("walks.spectral_check_ms", _best_ms(spectral_check, g64, verify_distance_regular(g64)), "ms", "n64 probe")

    walks = []
    for op in slices["walk-mc"]:
        g = construct_named_graph(*graph_spec(op))
        target = bfs_distances(g, 0).index(int(flag(op, "--from-distance")))
        walks.append((g, target, int(flag(op, "--trials")), int(flag(op, "--seed"))))
    start = time.perf_counter()
    steps = sum(round(est.mean * est.trials) for est in (simulate_hitting_time(g, 0, t, n, s) for g, t, n, s in walks))
    add("walks.steps_per_s", steps / (time.perf_counter() - start), "1/s")
