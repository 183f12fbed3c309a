"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with  pytest tests/test_acceptance.py -v -s  to see the lines.
"""

import json
import random
import time
from fractions import Fraction

from drglab import (
    ScanQuery,
    catalog,
    check_divisibility,
    check_potential_properties,
    commute_time,
    compute_distance_distribution,
    construct_named_graph,
    diameter_head_bound,
    effective_resistance_oracle,
    enumerate_arrays,
    evaluate_array,
    parse_intersection_array,
    potentials_closed_form,
    potentials_recursive,
    representative_pairs,
    resistance_profile,
    simulate_hitting_time,
    spectral_check,
    validate_basic,
    verify_distance_regular,
    walk_bounds,
)
from drglab.circuits import build_harmonic_function, check_harmonicity, measure_current
from drglab.cli import main as cli_main
from drglab.rational import decimal_string
from drglab.resistance import SHARP_RATIO, BiggsClass, classify_biggs

SEED = 20240809

CONSTRUCTED = [
    ("complete", (4,)),  # K4
    ("complete", (5,)),  # K5
    ("cocktail_party", (3,)),  # K_{3x2}
    ("complete_bipartite_minus_matching", (5,)),  # K_{5,5} minus matching
    ("hypercube", (3,)),  # cube
    ("hypercube", (4,)),
    ("petersen", ()),
    ("heawood", ()),
    ("pappus", ()),
    ("desargues", ()),
    ("dodecahedron", ()),
    ("hamming", (3, 3)),
    ("johnson", (5, 2)),
]


def test_criterion_1_table_reproduction():
    started = time.monotonic()
    entries = catalog()
    assert len(entries) == 27
    for entry in entries:
        dist = compute_distance_distribution(entry.array)
        assert dist.integral and dist.n == entry.vertices, entry.name
        ratio = resistance_profile(entry.array).ratio
        rounded_6 = Fraction(decimal_string(ratio, 6))
        assert rounded_6 == Fraction(entry.printed_ratio), entry.name
        # and at exactly the printed precision
        places = len(entry.printed_ratio.split(".")[1])
        assert decimal_string(ratio, places) == entry.printed_ratio, entry.name
    spot = {e.name: e.printed_ratio for e in entries}
    assert spot["Biggs-Smith graph"] == "0.930693"
    assert spot["Foster graph"] == "0.896067"
    assert spot["Flag graph of GH(2,2)"] == "0.882979"
    assert spot["Tutte's 12-cage"] == "0.872"
    assert spot["Dodecahedron"] == "0.842105"
    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 1 table reproduction (27 arrays, {elapsed:.3f}s): PASS")


def test_criterion_2_sharp_constant():
    sharp = 1 + SHARP_RATIO
    for entry in catalog():
        profile = resistance_profile(entry.array)
        quotient = profile.d[-1] / profile.d[0]
        if entry.name == "Biggs-Smith graph":
            assert quotient == sharp
        else:
            assert quotient < sharp, entry.name
    print("ACCEPTANCE 2 sharp constant 1 + 94/101, equality only at Biggs-Smith: PASS")


def test_criterion_3_nonrealizable_arrays():
    started = time.monotonic()
    expected = [
        ("(3,2,2,1,1,1,1;1,1,1,1,1,1,3)", "1.04918"),
        ("(5,2,2,1,1,1,1;1,1,1,1,1,1,4)", "1.0375"),
        ("(8,3,3,3,3,3,3,3,2,2,1;1,2,2,3,3,3,3,3,3,3,8)", "0.938852"),
    ]
    for text, printed in expected:
        arr = parse_intersection_array(text)
        assert validate_basic(arr).overall, text
        assert compute_distance_distribution(arr).shells_integral, text
        assert check_divisibility(arr).passed, text
        assert diameter_head_bound(arr).passed, text
        record = evaluate_array(arr)
        assert record.first_failing_check == "biggs_violation", text
        assert record.verdict.category is BiggsClass.VIOLATION
        places = len(printed.split(".")[1])
        assert decimal_string(record.ratio, places) == printed, text
    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    print(f"ACCEPTANCE 3 known non-realizable arrays ({elapsed:.3f}s): PASS")


def test_criterion_4_oracle_equivalence():
    started = time.monotonic()
    checked = 0
    for family, params in CONSTRUCTED:
        graph = construct_named_graph(family, params)
        arr = verify_distance_regular(graph)
        profile = resistance_profile(arr)
        for j, pair in representative_pairs(graph).items():
            assert effective_resistance_oracle(graph, *pair) == profile.at(j), (family, params, j)
            checked += 1
    elapsed = time.monotonic() - started
    assert elapsed < 30.0
    print(f"ACCEPTANCE 4 oracle equivalence (13 graphs, {checked} distance classes, {elapsed:.1f}s): PASS")


def test_criterion_5_harmonicity():
    for family, params in CONSTRUCTED:
        graph = construct_named_graph(family, params)
        arr = verify_distance_regular(graph)
        p = potentials_recursive(arr)
        u, v = 0, graph.adjacency[0][0]
        assignment = build_harmonic_function(graph, u, v, p)
        assert check_harmonicity(graph, assignment) == 0, (family, params)
        assert measure_current(graph, assignment) == graph.n * arr.k, (family, params)
    print("ACCEPTANCE 5 harmonicity and source current on all constructions: PASS")


def test_criterion_6_potential_properties():
    arrays = [entry.array for entry in catalog()]
    pool = list(enumerate_arrays(ScanQuery(3, 6, 2, 6)))
    rng = random.Random(SEED)
    rng.shuffle(pool)
    sample = pool[:10_000]
    assert len(sample) == 10_000
    for arr in arrays + sample:
        dist = compute_distance_distribution(arr)
        recursive = potentials_recursive(arr)
        closed = potentials_closed_form(arr, dist)
        assert recursive.phi == closed.phi, str(arr)
        checks = check_potential_properties(recursive, arr)
        assert all(c.passed for c in checks), str(arr)
    print(f"ACCEPTANCE 6 potential properties on catalog + {len(sample)} enumerated arrays: PASS")


def test_criterion_7_random_walk_bounds():
    started = time.monotonic()
    cube = construct_named_graph("hypercube", (3,))
    petersen = construct_named_graph("petersen")
    k4 = construct_named_graph("complete", (4,))
    cases = [
        (cube, 1, 1, Fraction(7)),  # adjacent vertex of 0
        (cube, 7, 3, Fraction(10)),  # antipodal corner
        (petersen, 2, 2, Fraction(12)),
        (k4, 1, 1, Fraction(3)),
    ]
    for graph, target, j, expected in cases:
        arr = verify_distance_regular(graph)
        assert commute_time(arr, j) / 2 == expected
        estimate = simulate_hitting_time(graph, 0, target, 100_000, seed=SEED)
        assert abs(estimate.mean - float(expected)) <= 3 * estimate.stderr, (graph, target)
    for entry in catalog():
        report = walk_bounds(entry.array)
        assert all(c <= report.commute_bound for c in report.commute_times), entry.name
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    print(f"ACCEPTANCE 7 walk estimates and commute caps ({elapsed:.1f}s): PASS")


def test_criterion_8_spectral_chain():
    for family, params in CONSTRUCTED:
        graph = construct_named_graph(family, params)
        arr = verify_distance_regular(graph)
        report = spectral_check(graph, arr)
        assert report.sigma_holds, (family, params)
        assert report.middle_holds, (family, params)
    for entry in catalog():
        bounds = walk_bounds(entry.array)
        assert bounds.resistance_gap_bound >= bounds.spectral_lower_bound, entry.name
    print("ACCEPTANCE 8 spectral chain on constructions and catalog: PASS")


def test_criterion_9_scan_determinism(tmp_path):
    argv = ["scan", "--k", "3..4", "--diameter", "2..7", "--n-max", "200", "--format", "json"]
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    assert cli_main(argv + ["--output", str(first)]) == 0
    assert cli_main(argv + ["--output", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    payload = json.loads(first.read_text(encoding="utf-8"))
    assert payload["schema"] == 1
    assert payload["records"]
    # and as two separate processes
    import subprocess
    import sys

    runs = [
        subprocess.run([sys.executable, "-m", "drglab"] + argv, capture_output=True, check=True)
        for _ in range(2)
    ]
    assert runs[0].stdout == runs[1].stdout
    assert runs[0].stdout.decode() == first.read_text(encoding="utf-8")
    print("ACCEPTANCE 9 byte-identical scan output across runs: PASS")
