"""Command-line behavior: exit codes, JSON shape, determinism."""

import contextlib
import errno
import functools
import gc
import hashlib
import importlib
import io
import itertools
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import analyze_payload_reference
import scan_payload_reference
from drglab import (
    FeasibilityReport,
    IntersectionArray,
    ResistanceProfile,
    circuits,
    cli,
    cli_analyze,
    cli_graph,
    construct_named_graph,
    parse_intersection_array,
    resistance,
    resistance_profile,
    scanner,
    to_edge_list,
    verify_distance_regular,
    walks,
)
from drglab.cli import _build_parser, _command_parser, _handler, main
from drglab.cli_graph import _load_graph
from drglab.potentials import _recursive_terms
from drglab.scanner import ScanQuery, scan


MEMORY_CAP = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from drglab.cli import main
sys.exit(main(sys.argv[1:]))
"""


def run_json(tmp_path, argv):
    out = tmp_path / "out.json"
    code = main(argv + ["--format", "json", "--output", str(out)])
    return code, json.loads(out.read_text(encoding="utf-8"))


class TestAnalyze:
    def test_extremal_exits_zero(self, tmp_path):
        code, payload = run_json(tmp_path, ["analyze", "(3,2,2,2,1,1,1;1,1,1,1,1,1,3)"])
        assert code == 0
        assert payload["schema"] == 1
        assert payload["verdict"]["class"] == "EXTREMAL"
        assert payload["verdict"]["matched_extremal"] == "Biggs-Smith Graph"
        assert payload["resistance"]["ratio"] == "94/101"
        assert payload["verdict"]["ratio_decimal"] == "0.930693"

    def test_pass_strict_exits_zero(self, tmp_path):
        code, payload = run_json(tmp_path, ["analyze", "(3,2,1;1,2,3)"])
        assert code == 0
        assert payload["verdict"]["class"] == "PASS_STRICT"
        assert payload["potentials"]["fractions"] == ["7", "2", "1", "0"]
        assert payload["resistance"]["d"] == ["7/12", "3/4", "5/6"]

    def test_violation_exits_two(self, tmp_path):
        code, payload = run_json(tmp_path, ["analyze", "(5,2,2,1,1,1,1;1,1,1,1,1,1,4)"])
        assert code == 2
        assert payload["verdict"]["class"] == "VIOLATION"
        assert payload["verdict"]["ratio_decimal"] == "1.037500"
        # every earlier screen passes for this array
        assert payload["validation"]["overall"]
        assert payload["divisibility"]["passed"]
        assert payload["head_bound"]["passed"]

    def test_malformed_exits_one(self, capsys):
        assert main(["analyze", "(3,2,1;1,2)"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["analyze: halves of '(3,2,1;1,2)' have lengths 3 and 2"]

    def test_huge_entry_exits_one(self, capsys):
        assert main(["analyze", "(" + "9" * 5000 + ";1)"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("analyze: ")

    @pytest.mark.parametrize("fmt", ["table", "json"])
    @pytest.mark.parametrize("text, reach", [(f"({'9' * 310},1;1,{'9' * 310})", 310), (f"({'9' * 4000},1;1,5)", 4000)])
    def test_past_the_digit_limit_is_one_line(self, text, reach, fmt, tmp_path, capsys):
        # once a traceback: the first overflowed the float in the walk bounds'
        # 4(n-1) ln n, the second's shells passed the int-to-str digit limit
        path = tmp_path / "never.json"
        assert main(["analyze", text, "--format", fmt, "--output", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"analyze: the entries reach {reach} digits, past the limit of 300 in all\n"
        assert not path.exists()

    @pytest.mark.parametrize("fmt", ["table", "json"])
    def test_largest_admitted_arrays_render(self, fmt, tmp_path, capsys):
        # 300 digits in all, one realizable array and one with a fractional shell
        nines = 10**149 - 1
        assert main(["analyze", f"({nines},1;1,{nines})", "--format", fmt]) == 0
        nines = 10**297 - 1
        assert main(["analyze", f"({nines},1;1,5)", "--format", fmt]) == 2
        assert capsys.readouterr().err == ""
        _, payload = run_json(tmp_path, ["analyze", f"({nines},1;1,5)"])
        assert payload["distribution"]["n"] == str(1 + nines + Fraction(nines, 5))

    def test_non_ascii_digits_exit_one(self, capsys):
        # int() would read the Arabic-Indic digits as the cube (3,2,1;1,2,3)
        text = "(\u0663,\u0662,\u0661;\u0661,\u0662,\u0663)"
        assert main(["analyze", text]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"analyze: bad token '\u0663' in '{text}'\n"

    def test_clique_order_zero_reports_infeasible(self, tmp_path):
        # a1 = -1 makes the clique order a1 + 1 = 0, which divides nothing
        code, payload = run_json(tmp_path, ["analyze", "(4,4;1,1)"])
        assert code == 2
        assert payload["divisibility"] == {"passed": False, "detail": "(a1+1) = 0 does not divide k = 4"}
        assert payload["verdict"] is None

    def test_low_valency_exits_one(self):
        assert main(["analyze", "(2,1,1;1,1,2)"]) == 1

    def test_invalid_array_reports_infeasible(self, tmp_path):
        code, payload = run_json(tmp_path, ["analyze", "(3,2,3;1,1,3)"])
        assert code == 2
        assert payload["verdict"] is None
        assert payload["realizable"] is False

    def test_table_output_default(self, capsys):
        assert main(["analyze", "(3,2,1;1,2,3)"]) == 0
        out = capsys.readouterr().out
        assert "PASS_STRICT" in out
        assert "7/12" in out

    def test_recursion_off_the_closed_form_fails(self, monkeypatch, capsys):
        # the verdict reads the closed form's ratio; the recursion's printed
        # potentials must give the same one.  The kernel reads the recursion's
        # potentials as (numerator, denominator) pairs: put phi_1 off there
        def phi1_off_by_a_seventh(arr):
            phi = _recursive_terms(arr)
            num, den = phi[1]
            return [phi[0], (7 * num + den, 7 * den), *phi[2:]]

        assert main(["analyze", "(3,2,1;1,2,3)"]) == 0
        unpatched = capsys.readouterr().out
        monkeypatch.setattr(walks, "_recursive_terms", phi1_off_by_a_seventh)
        assert main(["analyze", "(3,2,1;1,2,3)"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "analyze: the recursion's ratio 22/49 differs from the closed form's 3/7\n"
        assert captured.out == unpatched.replace("['7', '2', '1', '0']", "['7', '15/7', '1', '0']")


class TestScan:
    def test_violations_found(self, tmp_path):
        code, payload = run_json(
            tmp_path, ["scan", "--k", "3", "--diameter", "7", "--n-max", "110", "--only-biggs"]
        )
        assert code == 0
        arrays = [record["array"] for record in payload["records"]]
        assert "(3,2,2,1,1,1,1;1,1,1,1,1,1,3)" in arrays
        target = next(r for r in payload["records"] if r["array"] == "(3,2,2,1,1,1,1;1,1,1,1,1,1,3)")
        assert target["first_failing_check"] == "biggs_violation"
        assert target["ratio"] == "64/61"
        assert target["ratio_decimal"] == "1.049180"

    def test_only_biggs_filters_records(self, tmp_path):
        _, full = run_json(tmp_path, ["scan", "--k", "3", "--diameter", "2"])
        _, only = run_json(tmp_path, ["scan", "--k", "3", "--diameter", "2", "--only-biggs"])
        assert len(full["records"]) == 6
        assert all(r["first_failing_check"] == "biggs_violation" for r in only["records"])

    def test_byte_identical_runs(self, tmp_path):
        argv = ["scan", "--k", "3..4", "--diameter", "2..7", "--n-max", "200", "--format", "json"]
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        assert main(argv + ["--output", str(first)]) == 0
        assert main(argv + ["--output", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_jobs_flag_does_not_change_output(self, tmp_path):
        base = ["scan", "--k", "3", "--diameter", "2..4", "--format", "json"]
        one = tmp_path / "one.json"
        two = tmp_path / "two.json"
        assert main(base + ["--jobs", "1", "--output", str(one)]) == 0
        assert main(base + ["--jobs", "2", "--output", str(two)]) == 0
        assert one.read_bytes() == two.read_bytes()

    def test_bad_range_exits_one(self):
        assert main(["scan", "--k", "3..x", "--diameter", "2"]) == 1

    def test_low_valency_exits_one(self):
        assert main(["scan", "--k", "2..3", "--diameter", "2"]) == 1

    def test_budget_exits_one(self, monkeypatch, capsys):
        # k 3, D 2 has 6 raw candidates
        monkeypatch.setattr(scanner, "MAX_RAW_CANDIDATES", 5)
        assert main(["scan", "--k", "3", "--diameter", "2"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "scan: the query box exceeds the raw candidate budget of 5\n"

    def test_budget_is_no_option(self, tmp_path, capsys):
        path = tmp_path / "never.json"
        assert main(["scan", "--k", "3", "--diameter", "2", "--budget", "5", "--output", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "drglab: error: unrecognized arguments: --budget 5\n"
        assert not path.exists()

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_below_one_exits_one(self, jobs, capsys):
        assert main(["scan", "--k", "3", "--diameter", "2", "--jobs", jobs]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"scan: jobs must be >= 1, got {jobs}\n"

    @pytest.mark.parametrize(
        "argv, err",
        [
            (["--k", "\u0663", "--diameter", "2"], "scan: ranges look like A..B or a single integer\n"),
            (["--k", "3", "--diameter", "1_0"], "scan: ranges look like A..B or a single integer\n"),
            (["--k", "3", "--diameter", "2", "--n-max", "\u0661\u0660"], "drglab scan: error: argument --n-max: invalid integer value: '\u0661\u0660'\n"),
            (["--k", "3", "--diameter", "2", "--jobs", " 2"], "drglab scan: error: argument --jobs: invalid integer value: ' 2'\n"),
        ],
    )
    def test_integer_arguments_read_ascii_decimals_only(self, argv, err, capsys):
        # int() would read each of these as a number
        assert main(["scan", *argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == err

    def test_n_max_below_one_exits_one(self, capsys):
        assert main(["scan", "--k", "3", "--diameter", "2", "--n-max", "-4"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "scan: n_max must be >= 1, got -4\n"


class TestCatalog:
    def test_recompute_green(self, tmp_path):
        code, payload = run_json(tmp_path, ["catalog", "--recompute"])
        assert code == 0
        assert len(payload["entries"]) == 27
        assert all(entry["matches"] for entry in payload["entries"])

    def test_plain_listing(self, tmp_path):
        code, payload = run_json(tmp_path, ["catalog"])
        assert code == 0
        assert payload["entries"][0]["name"] == "Cube"
        assert "matches" not in payload["entries"][0]


class TestVerify:
    def test_hypercube(self, tmp_path):
        code, payload = run_json(tmp_path, ["verify", "hypercube", "3"])
        assert code == 0
        assert payload["array"] == "(3,2,1;1,2,3)"
        assert payload["harmonic"]["residual_zero"]
        assert payload["harmonic"]["current"] == "24"
        oracle = {row["distance"]: row for row in payload["oracle"]}
        assert oracle[1]["oracle"] == "7/12" and oracle[1]["equal"]
        assert oracle[3]["oracle"] == "5/6" and oracle[3]["equal"]
        assert payload["spectral"]["sigma_holds"] and payload["spectral"]["middle_holds"]
        assert payload["overall"]

    def test_exhaustive_petersen(self, tmp_path):
        code, payload = run_json(tmp_path, ["verify", "petersen", "--exhaustive"])
        assert code == 0
        assert len(payload["oracle"]) == 45  # every pair of the 10 vertices

    def test_exhaustive_beyond_32_vertices(self, tmp_path):
        code, payload = run_json(tmp_path, ["verify", "hypercube", "6", "--exhaustive"])
        assert code == 0
        assert len(payload["oracle"]) == 2016  # every pair of the 64 vertices
        assert all(row["equal"] for row in payload["oracle"])

    def test_parallel_edge_file_exits_one(self, tmp_path, capsys):
        path = tmp_path / "triangle.txt"
        path.write_text("3 4\n0 1\n1 2\n2 0\n1 0\n", encoding="utf-8")
        assert main(["verify", "--edges", str(path)]) == 1
        assert "parallel edge" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line, err",
        [
            ("3 0_0", "verify: bad edge-list line: '0_0' is not a decimal integer\n"),
            ("\u0663 0", "verify: bad edge-list line: '\u0663' is not a decimal integer\n"),
            ("-1 0", "verify: edge (-1,0) outside vertex range 0..3\n"),
        ],
    )
    def test_unreadable_edge_entry_exits_one(self, line, err, tmp_path, capsys):
        # the first two would otherwise read as the last edge of the 4-cycle
        path = tmp_path / "square.txt"
        path.write_text(f"4 4\n0 1\n1 2\n2 3\n{line}\n", encoding="utf-8")
        assert main(["verify", "--edges", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == err

    @pytest.mark.parametrize("command", [["verify"], ["walk", "--from-distance", "1"]])
    @pytest.mark.parametrize(
        "text, err",
        [
            ("1 0\n", "need at least two vertices"),
            ("0 0\n", "graph needs at least one vertex"),
            ("3 2\n0 1 2\n1 2\n", "each edge line must hold exactly two vertex indices"),
            ("6 6\n0 1\n1 2\n2 0\n3 4\n4 5\n5 3\n", "graph on 6 vertices is not connected"),  # two triangles
        ],
    )
    def test_degenerate_edge_list_exits_one(self, command, text, err, tmp_path, capsys):
        path = tmp_path / "graph.txt"
        path.write_text(text, encoding="utf-8")
        assert main([command[0], "--edges", str(path), *command[1:]]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"{command[0]}: {err}\n"

    def test_c_count_failure_exits_two(self, tmp_path, capsys):
        # the Wagner graph C_8(1,4): every b-count is constant, but the pairs
        # at distance 2 share one or two neighbors
        path = tmp_path / "wagner.txt"
        edges = [(i, (i + 1) % 8) for i in range(8)] + [(i, i + 4) for i in range(4)]
        path.write_text("8 12\n" + "".join(f"{a} {b}\n" for a, b in edges), encoding="utf-8")
        failure = "c-count at distance 2 is not constant: pair (0, 3) has 2, earlier pairs had 1"
        code, payload = run_json(tmp_path, ["verify", "--edges", str(path)])
        assert code == 2
        assert payload["distance_regular"] is False
        assert payload["failure"] == failure
        assert main(["walk", "--edges", str(path), "--from-distance", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"walk: graph is not distance-regular: {failure}\n"

    @pytest.mark.parametrize("header", ["3 2 7", "3"])
    def test_edge_list_header_must_be_n_m(self, header, tmp_path, capsys):
        path = tmp_path / "path.txt"
        path.write_text(f"{header}\n0 1\n1 2\n", encoding="utf-8")
        assert main(["walk", "--edges", str(path), "--from-distance", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"walk: edge-list header must be 'n m', got '{header}'\n"

    def test_cycle_fourteen_passes(self, tmp_path, capsys):
        # the paper claims the middle inequality 1/(n d_D) >= k/(4(n-1)) only
        # for k >= 3; C14's fails and is reported, but it decides nothing
        code, payload = run_json(tmp_path, ["verify", "cycle", "14"])
        assert code == 0
        assert payload["overall"]
        assert all(row["equal"] for row in payload["oracle"])
        assert payload["spectral"]["sigma_holds"] and not payload["spectral"]["middle_holds"]
        assert main(["verify", "cycle", "14"]) == 0
        assert capsys.readouterr().out.splitlines()[-2:] == [
            "spectral         sigma=0.19806226 >= 1/49 (the middle bound 1/26 applies only for k >= 3) ok",
            "overall          pass",
        ]

    def test_cycle_five_passes(self, capsys):
        # C5's off-diagonal norm, read as a difference of squares, stalls
        # above the Jacobi tolerance; the entries' own norm settles it
        assert main(["verify", "cycle", "5"]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "overall          pass"

    def test_formula_off_the_oracle_fails(self, monkeypatch, tmp_path, capsys):
        def d1_off_by_a_seventh(arr):
            profile = resistance_profile(arr)
            return ResistanceProfile((profile.d[0] + Fraction(1, 7), *profile.d[1:]), profile.ratio, profile.K_factor, profile.n, profile.m, profile.k)

        monkeypatch.setattr(walks, "resistance_profile", d1_off_by_a_seventh)
        assert main(["verify", "petersen"]) == 2
        lines = capsys.readouterr().out.splitlines()
        assert lines[3] == "resistance d_1   pair (0, 1) oracle=3/5 formula=26/35 MISMATCH"
        assert lines[4] == "resistance d_2   pair (0, 2) oracle=4/5 formula=4/5 ok"
        assert lines[-1] == "overall          FAIL"
        code, payload = run_json(tmp_path, ["verify", "petersen"])
        assert code == 2
        assert [row["equal"] for row in payload["oracle"]] == [False, True]
        assert payload["overall"] is False

    def test_sigma_below_the_bound_fails(self, monkeypatch, capsys):
        monkeypatch.setattr(circuits, "laplacian_spectral_gap", lambda g: 0.0)
        assert main(["verify", "petersen"]) == 2
        assert capsys.readouterr().out.splitlines()[-2:] == [
            "spectral         sigma=0.00000000 >= 1/8 >= 1/12 MISMATCH",
            "overall          FAIL",
        ]

    def test_eigensolver_failure_exits_one(self, monkeypatch, capsys):
        monkeypatch.setattr(circuits, "JACOBI_MAX_SWEEPS", 0)
        assert main(["verify", "petersen"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("verify: spectral check failed: ")

    def test_huge_vertex_count_refused_under_memory_cap(self, tmp_path):
        # a 13-byte file naming 10^9 vertices and no edges must be refused
        # before any per-vertex storage exists; the cap turns a regression
        # into a MemoryError here instead of exhausting the host
        path = tmp_path / "huge.txt"
        path.write_text("1000000000 0\n", encoding="utf-8")
        result = subprocess.run(
            [sys.executable, "-c", MEMORY_CAP, "verify", "--edges", str(path)],
            capture_output=True,
            text=True,
            timeout=60,
            # OpenBLAS reserves address space per thread; one keeps the cap clear of it
            env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
        )
        assert result.returncode == 1
        assert result.stdout == ""
        assert result.stderr == "verify: graph on 1000000000 vertices is too large to check: more than 1024 vertices\n"

    def test_edge_list_import(self, tmp_path):
        path = tmp_path / "petersen.txt"
        path.write_text(to_edge_list(construct_named_graph("petersen")), encoding="utf-8")
        code, payload = run_json(tmp_path, ["verify", "--edges", str(path)])
        assert code == 0
        assert payload["array"] == "(3,2;1,1)"

    def test_non_regular_graph_exits_two(self, tmp_path):
        path = tmp_path / "path.txt"
        path.write_text("4 3\n0 1\n1 2\n2 3\n", encoding="utf-8")
        code, payload = run_json(tmp_path, ["verify", "--edges", str(path)])
        assert code == 2
        assert payload["distance_regular"] is False

    def test_degree_two_graph_still_verifies(self, tmp_path):
        code, payload = run_json(tmp_path, ["verify", "cycle", "6"])
        assert code == 0
        assert payload["array"] == "(2,1,1;1,1,2)"

    def test_unknown_family_exits_one(self):
        assert main(["verify", "tutte_coxeter"]) == 1

    @pytest.mark.parametrize(
        "argv, err",
        [
            (["complete_bipartite", "0"], "verify: complete_bipartite(k) needs k >= 1\n"),
            (["cocktail_party", "1"], "verify: cocktail_party(parts) needs parts >= 2\n"),
            (["petersen", "3"], "verify: petersen takes 0 parameter(s), got 1\n"),
        ],
    )
    def test_family_parameters_below_range_exit_one(self, argv, err, capsys):
        assert main(["verify", *argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == err

    def test_non_ascii_family_parameter_exits_one(self, capsys):
        # int() would read it as 3 and verify the cube
        assert main(["verify", "hypercube", "\u0663"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "drglab verify: error: argument params: invalid integer value: '\u0663'\n"

    @pytest.mark.parametrize(
        "argv, err",
        [
            (["verify", "hypercube", "40"], "verify: hypercube(40) is too large to check: more than 1024 vertices\n"),
            (["walk", "johnson", "60", "30", "--from-distance", "1"], "walk: johnson(60,30) is too large to check: more than 1024 vertices\n"),
            (["verify", "hamming", "1000000000000", "2"], "verify: hamming(1000000000000,2) is too large to check: more than 1024 vertices\n"),
            (["verify", "johnson", "1000000000000", "500000000000"], "verify: johnson(1000000000000,500000000000) is too large to check: more than 1024 vertices\n"),
            (["walk", "johnson", "40", "3", "--from-distance", "1"], "walk: johnson(40,3) is too large to check: more than 1024 vertices\n"),
            (["walk", "hypercube", "16", "--from-distance", "1"], "walk: hypercube(16) is too large to check: more than 1024 vertices\n"),
        ],
    )
    def test_oversized_family_refused_under_memory_cap(self, argv, err):
        # ~10^12 vertices for the 40-cube, ~10^17 for J(60,30), counts too
        # large to compute for the next two, and 9,880 for J(40,3) and 65,536
        # for Q16: the refusal comes before anything is built, and the cap
        # turns a regression into a MemoryError here instead of exhausting
        # the host
        result = subprocess.run(
            [sys.executable, "-c", MEMORY_CAP, *argv],
            capture_output=True,
            text=True,
            timeout=60,
            env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
        )
        assert result.returncode == 1
        assert result.stdout == ""
        assert result.stderr == err

    def test_missing_graph_exits_one(self):
        assert main(["verify"]) == 1

    @pytest.mark.parametrize("command", [["verify"], ["walk", "--from-distance", "1"]])
    def test_family_and_edges_together_exit_one(self, command, tmp_path, capsys):
        # either source alone would be checked; together one would be dropped
        path = tmp_path / "c4.txt"
        path.write_text("4 4\n0 1\n1 2\n2 3\n3 0\n", encoding="utf-8")
        assert main([command[0], "petersen", "--edges", str(path), *command[1:]]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"{command[0]}: give a family name or --edges FILE, not both\n"

    @pytest.mark.parametrize(
        "argv, err",
        [
            (["verify", "cycle", "1000000"], "verify: graph on 1000000 vertices is too large to check: more than 1024 vertices\n"),
            (["walk", "cycle", "1000000", "--from-distance", "1"], "walk: graph on 1000000 vertices is too large to check: more than 1024 vertices\n"),
        ],
    )
    def test_graph_too_large_to_check_refused_under_memory_cap(self, argv, err):
        # a million-vertex cycle has only a million edges, but the all-pairs
        # count and the dense n x n matrices grow as n^2; the graph is
        # refused before its first edge is read
        result = subprocess.run(
            [sys.executable, "-c", MEMORY_CAP, *argv],
            capture_output=True,
            text=True,
            timeout=60,
            env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
        )
        assert result.returncode == 1
        assert result.stdout == ""
        assert result.stderr == err

    def test_check_size_limit_is_max_vertices(self, capsys):
        # C1024 loads, C1025 is refused
        args = _build_parser().parse_args(["walk", "cycle", "1024", "--from-distance", "1"])
        assert _load_graph(args)[0].n == 1024
        assert main(["walk", "cycle", "1025", "--from-distance", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "walk: graph on 1025 vertices is too large to check: more than 1024 vertices\n"


class TestOneCheckPerOp:
    # verify_graph and walk_graph check distance-regularity once; verify_graph
    # hands the verified graph to the unguarded harmonic and spectral bodies;
    # walks imports the function from graphs when it is called
    MODULES = ("graphs", "circuits")

    @pytest.fixture
    def verify_calls(self, monkeypatch):
        calls = []
        original = verify_distance_regular

        def counted(g):
            calls.append(g)
            return original(g)

        for name in self.MODULES:
            monkeypatch.setattr(importlib.import_module(f"drglab.{name}"), "verify_distance_regular", counted)
        return calls

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "petersen"],
            ["verify", "hypercube", "3", "--exhaustive"],
            ["walk", "petersen", "--from-distance", "2", "--trials", "100"],
        ],
    )
    def test_one_count_per_op(self, verify_calls, argv, capsys):
        assert main(argv) == 0
        assert len(verify_calls) == 1


class TestWalk:
    def test_cube_antipodal(self, tmp_path):
        code, payload = run_json(
            tmp_path,
            ["walk", "hypercube", "3", "--from-distance", "3", "--trials", "20000", "--seed", "20240809"],
        )
        assert code == 0
        assert payload["expected"] == "10"
        assert payload["within_3_stderr"]
        assert payload["pair"] == [0, 7]

    def test_bad_distance_exits_one(self):
        assert main(["walk", "complete", "4", "--from-distance", "2", "--trials", "10", "--seed", "1"]) == 1

    def test_estimate_off_target_exits_two(self, tmp_path, capsys):
        # a correct graph the 3-standard-error test fails by chance
        argv = ["walk", "petersen", "--from-distance", "2", "--trials", "1000", "--seed", "107"]
        code, payload = run_json(tmp_path, argv)
        assert code == 2
        assert payload["expected"] == "12"
        assert payload["within_3_stderr"] is False
        assert main(argv) == 2
        assert capsys.readouterr().out.splitlines()[-1] == "within 3 stderr  NO"

    def test_formula_off_the_estimate_fails(self, monkeypatch, tmp_path):
        def d1_off_by_a_seventh(arr):
            profile = resistance_profile(arr)
            return ResistanceProfile((profile.d[0] + Fraction(1, 7), *profile.d[1:]), profile.ratio, profile.K_factor, profile.n, profile.m, profile.k)

        monkeypatch.setattr(walks, "resistance_profile", d1_off_by_a_seventh)
        code, payload = run_json(tmp_path, ["walk", "petersen", "--from-distance", "1", "--trials", "2000", "--seed", "1"])
        assert code == 2
        assert payload["expected"] == "78/7"
        assert payload["within_3_stderr"] is False

    @pytest.mark.parametrize("trials", ["0", "-5"])
    def test_trials_below_one_exits_one(self, trials, capsys):
        assert main(["walk", "hypercube", "3", "--from-distance", "1", "--trials", trials]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "walk: trials must be >= 1\n"

    @pytest.mark.parametrize(
        "argv, err",
        [
            (["hypercube", "\u0663", "--from-distance", "1"], "drglab walk: error: argument params: invalid integer value: '\u0663'\n"),
            (["petersen", "--from-distance", "1", "--trials", "1_000"], "drglab walk: error: argument --trials: invalid integer value: '1_000'\n"),
            (["petersen", "--from-distance", "\u0661"], "drglab walk: error: argument --from-distance: invalid integer value: '\u0661'\n"),
            (["petersen", "--from-distance", "1", "--seed", "7_0"], "drglab walk: error: argument --seed: invalid integer value: '7_0'\n"),
        ],
    )
    def test_integer_arguments_read_ascii_decimals_only(self, argv, err, capsys):
        assert main(["walk", *argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == err

    def test_negative_seed_exits_one(self, capsys):
        # random.Random(-7) would silently replay the seed-7 stream
        argv = ["walk", "petersen", "--from-distance", "1", "--trials", "200", "--seed", "-7"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "walk: seed must be >= 0, got -7\n"


PRISM_EDGES = "6 9\n0 1\n1 2\n2 0\n3 4\n4 5\n5 3\n0 3\n1 4\n2 5\n"

# every pinned output: argv, the sha256 of stdout and the exit code; each
# output is ASCII, so these are the bytes a real stdout receives.  The first
# were recorded before the scan moved to an integer kernel and each command
# started rendering only the format it writes
GOLDEN = [
    (["scan", "--k", "3..4", "--diameter", "1..5", "--n-max", "200", "--format", "json"], "779f9c0c3e2211ab373de4e8d1b57d1bdad7db6b2067fd86968e30e02e95d73c", 0),
    (["scan", "--k", "3..4", "--diameter", "1..5", "--n-max", "200"], "0cb2201f16544bea5c2b7863c62d1a8ed3943d065b09f11dbcf183ba842ea81a", 0),
    (["analyze", "(3,2,2,2,1,1,1;1,1,1,1,1,1,3)"], "8d6504c3ef3e03d76cb72efe9ea65f8a65d9b45eed4b5d7377162a43ae2bc0e9", 0),
    (["analyze", "(3,2,2,2,2,1,1,1;1,1,1,1,2,2,2,3)"], "a9e0ac4c872e55ba4873e7e0ebd08e00e1b33b3d4336b4143464384841c370c7", 0),
    (["analyze", "(4,2,2,2,2,2;1,1,1,1,1,2)"], "855286c41758a919a77d1f36bc4d4a3af0677190e130058af6f40c53b85dd9b7", 0),
    (["analyze", "(3,2,2,2,2,2;1,1,1,1,1,3)"], "4b17e26a21537cf316a8af9a87e2b5f4c81644b0d14e4517e8a8f3f3e20ff309", 0),
    (["analyze", "(3,2,3;1,1,3)"], "85440076a9789a89fe8a60294b3cd5288f156e948063ad43e0871f81f587d193", 2),
    (["analyze", "(3,2,3;1,1,3)", "--format", "json"], "9a5b754563b55bf575ca72da198f02e3e81a8ac982005f5602d7aa3eed3e0dae", 2),
    (["analyze", "(5,2,2,1,1,1,1;1,1,1,1,1,1,4)"], "3ff96737e5d78f215b7d69750b396f94824d929bca6322005517882b282de167", 2),
    (["analyze", "(5,2,2,1,1,1,1;1,1,1,1,1,1,4)", "--format", "json"], "376ef89d93036f5972b42c9efeba6cebfe591c22f1e7392a34576029144a510f", 2),
    (["catalog", "--recompute"], "696f790ec07ba26687b4ffd35987b59450bb38f9d57c46c6168c757d0cf83373", 0),
    (["catalog", "--recompute", "--format", "json"], "c87715bf678c9c466c32204ab9ce840501789922dab849ea937d7521212cfc31", 0),
    (["verify", "petersen"], "72ba8d2318304117778fb40842f69c76c6034339a20680738f50f4d5877a7f7b", 0),
    (["verify", "hypercube", "3", "--exhaustive"], "88e593d672251df307022b445c806bbc8686e2e6dda4cfa26d4e162f541ecb00", 0),
    (["verify", "hypercube", "3", "--exhaustive", "--format", "json"], "303d0f8b51191ed14419ad0470197c222c37589e2e0ef4eee69b918ddec36e5b", 0),
    (["verify", "--edges", "{prism}"], "3d423fadaaed01c82b9c77cc03d2b1486a79b6d7375e45ff32a44080c6232487", 2),
    (["walk", "hypercube", "3", "--from-distance", "3", "--trials", "2000", "--seed", "1"], "bd51a17ce8abd17d02b259cc631ee7512db5cab6b8f401ef2f793032f388d721", 0),
    (["walk", "hypercube", "3", "--from-distance", "3", "--trials", "2000", "--seed", "1", "--format", "json"], "b804a88cc5bbbbc782395950d81a95665706b13867789c35e37572bc4f132f63", 0),
    # recorded before the scan output started streaming through a fixed
    # template: --only-biggs, both lists empty, and every record n_max
    (["scan", "--k", "3..6", "--diameter", "1..6", "--only-biggs", "--format", "json"], "ced7afe1d81b4cf0c3b58106effc4b64775b26fd9eb4b312ba62c1c2f15f7f62", 0),
    (["scan", "--k", "3..6", "--diameter", "1..6", "--only-biggs"], "815fd95679026b8d2bebe6bae3dfd7a3db22f3d4d2ce7a568ae948ed0f78f8b5", 0),
    (["scan", "--k", "3", "--diameter", "1..2", "--only-biggs", "--format", "json"], "113c92f7e7cdd85597b176c4eb68f4cc866fbb2e0333086b63107cff0c3a74e7", 0),
    (["scan", "--k", "3", "--diameter", "1..2", "--only-biggs"], "1622180613845ec6a49dd55c3b311655b1aa9b8948025cdc9f2c3f39852bb4c5", 0),
    (["scan", "--k", "3..8", "--diameter", "1", "--n-max", "3", "--format", "json"], "27c2f80e779c1bfdeceb95a5b0ba4bd93ba22b470f2c61c23f5aed9b01516316", 0),
    # recorded before the writers cached array halves and record tails:
    # 12,299 records with all six outcomes, all four extremal names and 342
    # arrays ruled out by the resistance bound alone
    (["scan", "--k", "3..5", "--diameter", "6..8", "--n-max", "2000", "--format", "json"], "d19ed67c8e8579c9b9f9013e484fbbab887d6729d0211be4b1202c7067cc3def", 0),
    (["scan", "--k", "3..5", "--diameter", "6..8", "--n-max", "2000"], "e38a7054fde7aa64c81065d558bd7324c21b1d5fb4dae41be4d1db08d9791470", 0),
    # recorded before --only-biggs became one filter ahead of both writers
    # and the JSON head and foot came from json.dumps: 72 records, all
    # ruled out by the resistance bound alone
    (["scan", "--k", "3", "--diameter", "6..8", "--only-biggs", "--format", "json"], "82f4c21dd35bd2819c056c7936ff95ee67ac8e7d308ed00c484e56da1281db5b", 0),
    (["scan", "--k", "3", "--diameter", "6..8", "--only-biggs"], "e6da4bffb55a10f01118c8f54ce7e9fa75ab3772c52b491c1172b05901bc52af", 0),
    # recorded before each Jacobi rotation became one stacked update: graphs
    # above the benchmark's n <= 32, and C14, whose sweep ends in the
    # off-diagonal entries' own norm (re-recorded when its failed middle
    # inequality, claimed only for k >= 3, stopped deciding "overall")
    (["verify", "johnson", "8", "3", "--format", "json"], "25f3f34c4229a344f9754117dd611669baa9d4fc23d2d20b36224338c66f174f", 0),
    (["verify", "hypercube", "6", "--format", "json"], "8c611c90df42411bf09754fb1c69f5ac2fce5ad5c8da2b84851a1816b47b33b4", 0),
    (["verify", "cycle", "14", "--format", "json"], "40699eaa619a4feb634a5b8ed77eb46eaf7e8ddae4492ce591f41af25092afcc", 0),
    # recorded before analyze derived its rationals in integers over one
    # denominator and wrote JSON without json.dumps: a half-integral m on
    # whole shells that passes every screen, and a non-integral n
    (["analyze", "(5,4;1,4)"], "f3b314d7f7b28e8aff91717df43564b5d93e0e7e6ca685ccb7257e542d7db0a4", 0),
    (["analyze", "(5,4;1,4)", "--format", "json"], "74fc414053fb47e03ff18744dc757e64955530ebfac7a9e3dcc1a8d9ce46aee1", 0),
    (["analyze", "(5,2;1,3)"], "7e409577c57e720002a000be26e43769fce66403a79fcd79b3c8cddff7bdf70c", 2),
    (["analyze", "(5,2;1,3)", "--format", "json"], "9929ce11f6c17b7080e5278a4a5a94f5fbdb3d251969c208bce5bb16fcbf130f", 2),
    # recorded before analyze wrote its JSON from one template over its
    # report: the four extremal arrays, the only EXTREMAL verdicts, one
    # matched name with an apostrophe ("Tutte's 12-Cage")
    (["analyze", "(3,2,2,2,1,1,1;1,1,1,1,1,1,3)", "--format", "json"], "3eb755356c10d21ba2a7c864814e684125adad3d36eac453016da646c6a2be9b", 0),
    (["analyze", "(3,2,2,2,2,1,1,1;1,1,1,1,2,2,2,3)", "--format", "json"], "6fe9a27ed6656ded86fb8a29284e80d751d88ff3ee320c9d79091fdd408c7e78", 0),
    (["analyze", "(4,2,2,2,2,2;1,1,1,1,1,2)", "--format", "json"], "e2b9c04d380ecd80c8e796837eaed35aff0ac282e171f3dbe2452ffd3528e271", 0),
    (["analyze", "(3,2,2,2,2,2;1,1,1,1,1,3)", "--format", "json"], "ee12f36fb01cb8c13706131cac3d297f47e30d67a1457f89fee4a64e17af4dfe", 0),
    # recorded before analyze ran the scan's stage sequence: a c_monotone
    # failure, whose detail reads "index 3: c3 = 1 below c2 = 2"
    (["analyze", "(3,2,1;1,2,1)"], "bee3583e705645e202d9aab7316082637539ccb3c727f1cf49ac11c629b280fa", 2),
    (["analyze", "(3,2,1;1,2,1)", "--format", "json"], "63d92155d18fb00cb3c276481ac74845e24ae080b21e6530e059007dc1a0f709", 2),
    # Q7 (n = 128) in both formats: the JSON recorded before each Jacobi
    # rotation became one stacked update (its sigma is the eigensolver's
    # float), the table before the command started rendering the library's
    # verify report; and J(10,4) (n = 210), recorded before the oracle took
    # the certified float route, which it passes at n >= 200
    (["verify", "hypercube", "7", "--format", "json"], "15dbecce0d42af1e7e6dc64864145b80d82e0f7cc7fb76cdb01d61d678ffbf37", 0),
    (["verify", "hypercube", "7", "--format", "table"], "9a551916297303f596a16b39e1dcd0eae8eb41f95f4968af62c429eb476c4c4c", 0),
    (["verify", "johnson", "10", "4", "--format", "json"], "0dac3f29bef746c5fcadabcc4b49e29bc1c1de4c1392a9e40bee7c1c4cbdd76a", 0),
    # recorded before the command started rendering the library's walk
    # report: Q7 from its antipode in both formats, and the Petersen walk
    # whose seed-107 estimate falls outside 3 standard errors
    (["walk", "hypercube", "7", "--from-distance", "7", "--trials", "2000", "--seed", "1", "--format", "json"], "3c573fc2957cc2438d303b82cb1025b23fc92c85e6e993020a9f7c5d4099ce12", 0),
    (["walk", "hypercube", "7", "--from-distance", "7", "--trials", "2000", "--seed", "1", "--format", "table"], "86ff89ae99b542c0938df51c4f26c4a24e8fee4666f351bfedd93df149e8f236", 0),
    (["walk", "petersen", "--from-distance", "2", "--trials", "1000", "--seed", "107", "--format", "json"], "7347ddad05d0deddbf1ea25f4edf0f9f10164c2d66c2f0fd6edb1fc2cc649dcf", 2),
    # recorded before the walk advanced a block of choices per table lookup:
    # K20 (degree 19, where 13 of 32 words are rejected, ~380k steps across
    # many chunks) and K2 (degree 1, where every step hits)
    (["walk", "complete", "20", "--from-distance", "1", "--trials", "20000", "--seed", "5", "--format", "json"], "494e4b2eb73d8b09be11a0e4a9575d13b0a5e7af700c91267882c08a21423332", 0),
    (["walk", "complete", "2", "--from-distance", "1", "--trials", "10", "--seed", "3", "--format", "json"], "58582bba83d64dce691bc07f51d25690670846009403c9aebf2e925c744c2cf1", 0),
]

ANALYZE_PINS = [pin for pin in GOLDEN if pin[0][0] == "analyze"]
ANALYZE_JSON_PINS = [pin for pin in ANALYZE_PINS if "json" in pin[0]]
SCAN_PINS = [pin for pin in GOLDEN if pin[0][0] == "scan"]

# the verify pins at n = 128 and n = 210 spend 1.3-3.8 s each in Jacobi
REPEATED_PINS = [pin for pin in GOLDEN if pin[0][:3] not in (["verify", "hypercube", "7"], ["verify", "johnson", "10"])]


def stdout_digest(argv, prism, capsys) -> tuple[str, int]:
    code = main([arg.format(prism=prism) for arg in argv])
    return hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest(), code


class TestGoldenBytes:
    @pytest.fixture
    def prism(self, tmp_path):
        # the prism is 3-regular but not distance-regular; its path is part
        # of the JSON payload, so only its table output is pinned
        path = tmp_path / "prism.txt"
        path.write_text(PRISM_EDGES, encoding="utf-8")
        return path

    @pytest.mark.parametrize("argv,digest,code", GOLDEN, ids=[" ".join(pin[0]) for pin in GOLDEN])
    def test_stdout_digest(self, argv, digest, code, prism, capsys):
        assert stdout_digest(argv, prism, capsys) == (digest, code)

    @pytest.mark.parametrize("argv,digest,code", ANALYZE_JSON_PINS, ids=[pin[0][1] for pin in ANALYZE_JSON_PINS])
    def test_analyze_json_needs_no_general_writer(self, argv, digest, code, monkeypatch, capsys):
        def refuse(value):
            raise AssertionError("analyze called the general JSON writer")

        monkeypatch.setattr(cli, "_json_text", refuse)
        assert stdout_digest(argv, None, capsys) == (digest, code)

    @pytest.mark.parametrize("argv,digest,code", SCAN_PINS, ids=[" ".join(pin[0][1:]) for pin in SCAN_PINS])
    def test_scan_builds_no_record(self, argv, digest, code, monkeypatch, capsys):
        # the CLI writes the scanner's kernel tuples: no ScanRecord,
        # BiggsVerdict or scanner Fraction per candidate; the library's
        # scan() builds them
        def refuse(*args, **kwargs):
            raise AssertionError("the scan built a record")

        for module, name in [(scanner, "ScanRecord"), (scanner, "BiggsVerdict"), (resistance, "BiggsVerdict"), (scanner, "Fraction")]:
            monkeypatch.setattr(module, name, refuse)
        assert stdout_digest(argv, None, capsys) == (digest, code)
        with pytest.raises(AssertionError, match="^the scan built a record$"):
            scan(ScanQuery(3, 3, 1, 2))

    @pytest.mark.parametrize("argv,digest,code", ANALYZE_PINS, ids=[" ".join(pin[0][1:]) for pin in ANALYZE_PINS])
    def test_analyze_builds_no_fraction(self, argv, digest, code, monkeypatch, capsys):
        # the command renders the kernel's ints: no module that analyze loads
        # builds a Fraction on its way; the library's analyze_array builds them
        def refuse(*args, **kwargs):
            raise AssertionError("analyze built a Fraction")

        for name in CATALOG_PATH + ("cli", "cli_analyze", "potentials", "walks"):
            monkeypatch.setattr(importlib.import_module(f"drglab.{name}"), "Fraction", refuse, raising=False)
        assert stdout_digest(argv, None, capsys) == (digest, code)
        with pytest.raises(AssertionError, match="^analyze built a Fraction$"):
            walks.analyze_array(parse_intersection_array(argv[1]))

    def test_repeated_calls_in_one_process(self, prism, capsys):
        # the parser is built once per process; no state may leak from one
        # call to the next, through a usage error or --help either
        for _ in range(2):
            for argv, digest, code in REPEATED_PINS:
                assert stdout_digest(argv, prism, capsys) == (digest, code), argv
                assert main(["scan", "--k", "3"]) == 1
                assert main(["scan", "--help"]) == 0
                capsys.readouterr()


class TestScanWriters:
    # D = 1 and D = 8 are the shortest and longest halves the writers join;
    # the second box has 72 arrays ruled out by the resistance bound alone
    @pytest.mark.parametrize("box", [(3, 5, 1, 4), (3, 3, 6, 8)])
    def test_array_text_is_the_canonical_form(self, box, tmp_path, capsys):
        k_lo, k_hi, d_lo, d_hi = box
        argv = ["scan", "--k", f"{k_lo}..{k_hi}", "--diameter", f"{d_lo}..{d_hi}"]
        records = scan(ScanQuery(*box))
        expected = [str(record.array) for record in records]
        violations = [str(record.array) for record in records if record.ruled_out_by_biggs_alone]
        assert {record.array.D for record in records} == set(range(d_lo, d_hi + 1))

        code, payload = run_json(tmp_path, argv)
        assert code == 0
        assert [record["array"] for record in payload["records"]] == expected
        assert payload["ruled_out_by_biggs_alone"] == violations

        assert main(argv) == 0
        rows = capsys.readouterr().out.splitlines()
        assert [row.split()[0] for row in rows[1:-1]] == expected
        assert rows[-1] == f"total {len(records)} record(s); {len(violations)} ruled out by the resistance bound alone"


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: st.lists(children) | st.dictionaries(st.text(), children),
    max_leaves=40,
)


class TestJsonWriter:
    @given(json_values)
    @example({"empty": [], "none": {}, "nested": [[], {}, [[]], {"": {}}]})
    @example(["\u00e9\u4e2d\U0001f600", "\x00\x1f\x7f\"\\/\n\t", "\ud800"])
    @example([10**400, -(10**400), 0, True, False, None])
    @example([-0.0, 0.0, 1e16, 5e-324, 1.7976931348623157e308, float("inf"), float("-inf"), float("nan")])
    @settings(max_examples=300, deadline=None)
    def test_matches_json_dumps_indent_2(self, value):
        assert cli._json_text(value) == json.dumps(value, indent=2)

    def test_writes_no_reference_cycle(self, capsys):
        # a cycle would keep each output's chunks alive until a collection
        payload = {"outer": [{"inner": ["1/2", 3, 0.5, None, True]}, [], {}], "text": "\u00e9"}
        # the parsers, built once per process, leave argparse's own garbage
        for command in ("analyze", "catalog"):
            _command_parser(command)
        gc.collect()
        gc.disable()
        try:
            cli._json_text(payload)
            assert main(["analyze", "(5,4;1,4)", "--format", "json"]) == 0
            assert main(["catalog", "--format", "json"]) == 0
            assert gc.collect() == 0
        finally:
            gc.enable()
        capsys.readouterr()


def _array(b, c) -> IntersectionArray:
    return IntersectionArray(tuple(b), tuple(c))


# 12 entries of at most 25 digits: 300 digits in all, the most analyze admits
_big_entries = st.integers(1, 25).flatmap(lambda digits: st.integers(10 ** (digits - 1), 10**digits - 1))


@st.composite
def analyze_arrays(draw):
    """Arrays of valency >= 3 and D <= 6, from three mixes: any halves, most
    of which fail a structural screen; halves in the monotone shape a
    distance-regular graph has, whose shells are often fractional, often
    whole and sometimes whole with a half-integral m; and halves with
    entries of up to 25 digits."""
    D = draw(st.integers(1, 6))
    mix = draw(st.sampled_from(["any", "shaped", "big"]))
    if mix == "shaped":
        k = draw(st.integers(3, 8))
        b = [k] + sorted(draw(st.lists(st.integers(1, k - 1), min_size=D - 1, max_size=D - 1)), reverse=True)
        c = [1] + sorted(draw(st.lists(st.integers(1, k), min_size=D - 1, max_size=D - 1)))
        return _array(b, c)
    entries = st.integers(1, 9) if mix == "any" else _big_entries
    b = [draw(st.integers(3, 9) if mix == "any" else _big_entries.filter(lambda k: k >= 3))]
    b += draw(st.lists(entries, min_size=D - 1, max_size=D - 1))
    return _array(b, draw(st.lists(entries, min_size=D, max_size=D)))


# each case the writer must cover, with the array that shows it
ANALYZE_EXAMPLES = {
    "structural screen fails": "(3,3;1,1)",
    "fractional shells": "(5,2;1,3)",
    "whole shells, half-integral m": "(5,4;1,4)",
    "PASS_STRICT": "(3,2,1;1,2,3)",
    "VIOLATION": "(5,2,2,1,1,1,1;1,1,1,1,1,1,4)",
    "EXTREMAL Tutte's 12-Cage": "(3,2,2,2,2,2;1,1,1,1,1,3)",
    "EXTREMAL Foster Graph": "(3,2,2,2,2,1,1,1;1,1,1,1,2,2,2,3)",
    "EXTREMAL Biggs-Smith Graph": "(3,2,2,2,1,1,1;1,1,1,1,1,1,3)",
    "EXTREMAL Flag graph of GH(2,2)": "(4,2,2,2,2,2;1,1,1,1,1,2)",
    "300 digits, realizable": f"({10**149 - 1},1;1,{10**149 - 1})",
    "300 digits, fractional shell": f"({10**297 - 1},1;1,5)",
}


def _with_examples(test):
    for text in ANALYZE_EXAMPLES.values():
        test = example(parse_intersection_array(text))(test)
    return test


class TestAnalyzeJson:
    @_with_examples
    @given(analyze_arrays())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_payload_dict(self, arr):
        report = walks.analyze_array(arr)
        assert cli_analyze._analyze_json(arr, walks._analysis(arr)) == json.dumps(analyze_payload_reference.payload(arr, report), indent=2)

    def test_free_text_is_escaped(self, monkeypatch, capsys):
        # no text drglab writes today needs escaping, so put some in the
        # kernel's result by hand: the check names and details, the
        # divisibility detail and the matched name; the command and the
        # library's report both read the patched kernel
        odd = 'a "quoted" \\ téxt\n\U0001f600'
        kernel = walks._analysis

        def odd_texts(arr):
            screens, counts, divisibility, head, derived, stages = kernel(arr)
            screens = FeasibilityReport(tuple(check._replace(name=odd, detail=odd) for check in screens.checks))
            return screens, counts, divisibility._replace(detail=odd), head, (*derived[:6], odd, *derived[7:]), stages

        monkeypatch.setattr(walks, "_analysis", odd_texts)
        monkeypatch.setattr(cli_analyze, "_analysis", odd_texts)
        arr = parse_intersection_array("(3,2,2,2,2,2;1,1,1,1,1,3)")
        report = walks.analyze_array(arr)
        assert report.verdict.matched_extremal == report.divisibility.detail == odd
        references = {"json": json.dumps(analyze_payload_reference.payload(arr, report), indent=2), "table": analyze_payload_reference.table(arr, report)}
        for fmt, reference in references.items():
            assert main(["analyze", str(arr), "--format", fmt]) == 0
            assert capsys.readouterr() == (reference + "\n", ""), fmt

    def test_examples_cover_every_case(self):
        reports = {case: walks.analyze_array(parse_intersection_array(text)) for case, text in ANALYZE_EXAMPLES.items()}
        failed = reports["structural screen fails"]
        assert not failed.feasibility.overall and failed.feasibility.failed()[0].detail
        assert reports["fractional shells"].distribution.n.denominator == 3
        half = reports["whole shells, half-integral m"]
        assert half.distribution.shells_integral and half.distribution.m.denominator == 2 and half.realizable
        for case in ("PASS_STRICT", "VIOLATION"):
            assert reports[case].verdict.category.value == case
        extremal = {case: report for case, report in reports.items() if case.startswith("EXTREMAL")}
        assert {report.verdict.category.value for report in extremal.values()} == {"EXTREMAL"}
        assert reports["EXTREMAL Tutte's 12-Cage"].verdict.matched_extremal == "Tutte's 12-Cage"
        assert len({report.verdict.matched_extremal for report in extremal.values()}) == 4
        assert reports["300 digits, realizable"].realizable
        assert reports["300 digits, fractional shell"].distribution.n.denominator == 5


class TestAnalyzeBytes:
    # the command renders the kernel's ints; the references render the
    # library's report, as the command did before
    @_with_examples
    @given(analyze_arrays())
    @settings(max_examples=200, deadline=None)
    def test_main_writes_the_reference_bytes(self, arr):
        report = walks.analyze_array(arr)
        references = {"json": json.dumps(analyze_payload_reference.payload(arr, report), indent=2), "table": analyze_payload_reference.table(arr, report)}
        for fmt, reference in references.items():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(["analyze", str(arr), "--format", fmt])
            assert out.getvalue() == reference + "\n", fmt
            assert code == (0 if report.passed else 2)
            assert (err.getvalue() != "") == (not report.routes_agree)


# the scan boxes of k 3..6, D 1..8 that hold at most this many candidates
SCAN_BOX_CAP = 3000


@functools.cache
def small_scan_boxes() -> list[tuple[int, int, int, int]]:
    counts = {
        (k, D): sum(1 for _ in itertools.islice(scanner._arrays_for(k, D), SCAN_BOX_CAP + 1))
        for k in range(3, 7)
        for D in range(1, 9)
    }
    boxes = []
    for k_lo, k_hi in itertools.combinations_with_replacement(range(3, 7), 2):
        for d_lo, d_hi in itertools.combinations_with_replacement(range(1, 9), 2):
            if sum(counts[k, D] for k in range(k_lo, k_hi + 1) for D in range(d_lo, d_hi + 1)) <= SCAN_BOX_CAP:
                boxes.append((k_lo, k_hi, d_lo, d_hi))
    return boxes


@st.composite
def scan_cases(draw):
    """(box, n_max, only_biggs): a small box, with or without a vertex cap,
    with or without --only-biggs."""
    box = draw(st.sampled_from(small_scan_boxes()))
    return box, draw(st.none() | st.integers(1, 500)), draw(st.booleans())


# each case the writers must cover, with the scan that shows it
SCAN_EXAMPLES = {
    "fractional n": ((3, 3, 2, 2), None, False),
    "half-integral m": ((5, 5, 2, 2), None, False),
    "EXTREMAL Biggs-Smith Graph": ((3, 3, 7, 7), None, False),
    "VIOLATION": ((3, 3, 7, 7), 200, True),
    "D = 1": ((3, 6, 1, 1), None, False),
    "empty --only-biggs": ((3, 4, 1, 2), None, True),
}


def _with_scan_examples(test):
    for case in SCAN_EXAMPLES.values():
        test = example(case)(test)
    return test


class TestScanBytes:
    # the CLI writes the kernel's tuples; the reference writes the records
    # of scan(), as the CLI did before
    @_with_scan_examples
    @given(scan_cases())
    @settings(max_examples=60, deadline=None)
    def test_main_writes_the_reference_bytes(self, case):
        (k_lo, k_hi, d_lo, d_hi), n_max, only_biggs = case
        argv = ["scan", "--k", f"{k_lo}..{k_hi}", "--diameter", f"{d_lo}..{d_hi}"]
        argv += [] if n_max is None else ["--n-max", str(n_max)]
        argv += ["--only-biggs"] if only_biggs else []
        for fmt in ("json", "table"):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert main(argv + ["--format", fmt]) == 0
            assert out.getvalue() == scan_payload_reference.scan_text(*case, fmt), fmt

    def test_examples_cover_every_case(self):
        def records(case):
            box, n_max, only_biggs = case
            found = scan(ScanQuery(*box, n_max=n_max))
            return [r for r in found if r.ruled_out_by_biggs_alone] if only_biggs else found

        cases = {name: records(case) for name, case in SCAN_EXAMPLES.items()}
        assert any(r.n.denominator > 1 for r in cases["fractional n"])
        assert any(r.verdict and r.n % 2 == 1 and r.array.k % 2 == 1 for r in cases["half-integral m"])
        assert "Biggs-Smith Graph" in {r.verdict.matched_extremal for r in cases["EXTREMAL Biggs-Smith Graph"] if r.verdict}
        assert cases["VIOLATION"] and all(r.verdict.category.value == "VIOLATION" for r in cases["VIOLATION"])
        assert {r.array.D for r in cases["D = 1"]} == {1} and len(cases["D = 1"]) == 4
        assert cases["empty --only-biggs"] == []
        assert all(box in small_scan_boxes() for box, _, _ in SCAN_EXAMPLES.values())


def reference_main(argv):
    """`main` as it parsed before it handed a command named first to that
    command's own parser: every argv through the top-level `parse_args`."""
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    return _handler(args.command)(args)


class TestRouting:
    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "(3,2,1;1,2,3)"],
            ["analyze", "(5,4;1,4)", "--format", "json"],
            ["scan", "--k", "3", "--diameter", "1..3", "--format", "json"],
            ["catalog", "--recompute"],
            ["verify", "petersen", "--format", "json"],
            ["walk", "hypercube", "3", "--from-distance", "3", "--trials", "200", "--seed", "1"],
            [],
            ["-h"],
            ["analyze", "-h"],
            ["frobnicate"],
            ["scan", "--k", "3", "--diameter", "2", "--budget", "5"],
            ["scan", "--k", "3"],
            ["analyze", "(3,2,1;1,2,3)", "--form", "json"],
            ["analyze", "--", "(3,2,1;1,2,3)"],
            ["walk", "petersen", "--from-distance", "1", "--seed", "-7"],
        ],
        ids=lambda argv: " ".join(argv) or "no arguments",
    )
    def test_same_as_the_top_level_parse(self, argv, capsys):
        code = main(list(argv))
        routed = capsys.readouterr()
        assert (code, routed.out, routed.err) == (reference_main(list(argv)), *capsys.readouterr())
        assert routed.out or routed.err


GRAPH_HELP = """
positional arguments:
  family
  params

options:
  -h, --help            show this help message and exit
  --format {table,json}
  --output PATH
  --edges FILE          edge-list file: 'n m' then one 'a b' line per edge
"""

# (argv, exit code, stdout, stderr) of the help and usage errors, in
# argparse's text of Python 3.11 at 80 columns
USAGE_PINS = [
    (
        ["--help"],
        0,
        """usage: drglab [-h] {analyze,scan,catalog,verify,walk} ...

Exact resistance analysis of distance-regular graph parameters.

positional arguments:
  {analyze,scan,catalog,verify,walk}
    analyze             full report for one intersection array
    scan                enumerate candidates and run the feasibility pipeline
    catalog             print the embedded catalog
    verify              construct or load a graph and ground every formula on
                        it
    walk                Monte Carlo hitting time against the exact formula

options:
  -h, --help            show this help message and exit
""",
        "",
    ),
    ([], 1, "", "drglab: error: the following arguments are required: command\n"),
    (
        ["frobnicate"],
        1,
        "",
        "drglab: error: argument command: invalid choice: 'frobnicate' (choose from 'analyze', 'scan', 'catalog', 'verify', 'walk')\n",
    ),
    (
        ["analyze", "--help"],
        0,
        """usage: drglab analyze [-h] [--format {table,json}] [--output PATH] array

positional arguments:
  array                 array text, e.g. "(3,2,1;1,2,3)"

options:
  -h, --help            show this help message and exit
  --format {table,json}
  --output PATH
""",
        "",
    ),
    (
        ["scan", "--help"],
        0,
        """usage: drglab scan [-h] [--format {table,json}] [--output PATH] --k A..B
                   --diameter C..E [--n-max N_MAX] [--only-biggs]
                   [--jobs JOBS]

options:
  -h, --help            show this help message and exit
  --format {table,json}
  --output PATH
  --k A..B              valency range (lower bound >= 3)
  --diameter C..E       diameter range
  --n-max N_MAX         drop candidates above this vertex count, at least 1
  --only-biggs          print only arrays ruled out by the resistance bound
                        alone
  --jobs JOBS           accepted for compatibility, at least 1; the scan
                        always runs in one process
""",
        "",
    ),
    (
        ["catalog", "--help"],
        0,
        """usage: drglab catalog [-h] [--format {table,json}] [--output PATH]
                      [--recompute]

options:
  -h, --help            show this help message and exit
  --format {table,json}
  --output PATH
  --recompute           recompute counts and ratios; exit 2 on mismatch
""",
        "",
    ),
    (
        ["verify", "--help"],
        0,
        """usage: drglab verify [-h] [--format {table,json}] [--output PATH]
                     [--edges FILE] [--exhaustive]
                     [family] [params ...]
"""
        + GRAPH_HELP
        + "  --exhaustive          check every pair, not one per distance\n",
        "",
    ),
    (
        ["walk", "--help"],
        0,
        """usage: drglab walk [-h] [--format {table,json}] [--output PATH] [--edges FILE]
                   --from-distance J [--trials TRIALS] [--seed SEED]
                   [family] [params ...]
"""
        + GRAPH_HELP
        + """  --from-distance J
  --trials TRIALS
  --seed SEED           seed of the walks' random.Random stream, at least 0
""",
        "",
    ),
    (["analyze"], 1, "", "drglab analyze: error: the following arguments are required: array\n"),
    (["scan", "--k", "3"], 1, "", "drglab scan: error: the following arguments are required: --diameter\n"),
    (["catalog", "--format"], 1, "", "drglab catalog: error: argument --format: expected one argument\n"),
    (["verify", "--edges"], 1, "", "drglab verify: error: argument --edges: expected one argument\n"),
    (["walk", "petersen"], 1, "", "drglab walk: error: the following arguments are required: --from-distance\n"),
    (["catalog", "--recompute", "x"], 1, "", "drglab: error: unrecognized arguments: x\n"),
]


@pytest.mark.parametrize("argv, code, out, err", USAGE_PINS, ids=[" ".join(pin[0]) or "no arguments" for pin in USAGE_PINS])
def test_usage_text(argv, code, out, err, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    assert main(argv) == code
    assert capsys.readouterr() == (out, err)


class TestUnwritableOutput:
    COMMANDS = {
        "analyze": ["analyze", "(3,2;1,3)"],
        "scan": ["scan", "--k", "3", "--diameter", "2", "--format", "json"],
        "catalog": ["catalog"],
        "verify": ["verify", "petersen"],
        "walk": ["walk", "hypercube", "3", "--from-distance", "1", "--trials", "10"],
    }

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_missing_directory_exits_one(self, command, tmp_path, capsys):
        path = tmp_path / "no" / "such" / "x.json"
        assert main([*self.COMMANDS[command], "--output", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"{command}: cannot write {path}: {os.strerror(errno.ENOENT)}\n"

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_directory_exits_one(self, command, tmp_path, capsys):
        assert main([*self.COMMANDS[command], "--output", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"{command}: cannot write {tmp_path}: {os.strerror(errno.EISDIR)}\n"
        assert list(tmp_path.iterdir()) == []

    # each command's work, which must not start before --output is open,
    # named in the module the handler looks it up in
    WORK = {
        "analyze": (["analyze", "(3,2;1,3)"], cli_analyze, ["_analysis"]),
        "catalog": (["catalog", "--recompute"], cli, ["recompute_entry"]),
        "verify": (["verify", "johnson", "8", "3", "--exhaustive"], cli_graph, ["verify_graph"]),
        "walk": (["walk", "hypercube", "3", "--from-distance", "1", "--trials", "10"], walks, ["simulate_hitting_time"]),
    }

    @pytest.mark.parametrize("command", sorted(WORK))
    def test_refused_before_the_work(self, command, monkeypatch, tmp_path, capsys):
        argv, module, work = self.WORK[command]

        def refuse(*args, **kwargs):
            raise AssertionError(f"{command} worked before opening --output")

        for name in work:
            monkeypatch.setattr(module, name, refuse)
        assert main([*argv, "--output", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"{command}: cannot write {tmp_path}: {os.strerror(errno.EISDIR)}\n"

    # (graph and options, exit code, stderr): the prism is 3-regular but not
    # distance-regular
    @pytest.mark.parametrize(
        "option",
        [
            (["hypercube", "3", "--from-distance", "1", "--trials", "0"], 1, "walk: trials must be >= 1\n"),
            (["hypercube", "3", "--from-distance", "1", "--seed", "-1"], 1, "walk: seed must be >= 0, got -1\n"),
            (["hypercube", "3", "--from-distance", "9"], 1, "walk: --from-distance must lie in 1..3\n"),
            (
                ["--edges", "{prism}", "--from-distance", "1"],
                2,
                "walk: graph is not distance-regular: b-count at distance 1 is not constant: pair (0, 3) has 2, earlier pairs had 1\n",
            ),
        ],
    )
    def test_walk_refusal_leaves_output_alone(self, option, tmp_path, capsys):
        argv, code, err = option
        prism = tmp_path / "prism.txt"
        prism.write_text(PRISM_EDGES, encoding="utf-8")
        path = tmp_path / "walk.json"
        path.write_text("kept\n", encoding="utf-8")
        assert main(["walk", *(arg.format(prism=prism) for arg in argv), "--output", str(path)]) == code
        assert capsys.readouterr() == ("", err)
        assert path.read_text(encoding="utf-8") == "kept\n"


class TestUnwritableStdout:
    def test_closed_pipe_ends_quietly(self):
        # the reader takes one line of the ~1 MB table and goes away, as
        # `| head -1` does
        child = subprocess.Popen(
            [sys.executable, "-m", "drglab", "scan", "--k", "3..6", "--diameter", "1..6"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        assert child.stdout.readline().startswith(b"array")
        child.stdout.close()
        err = child.stderr.read()
        child.stderr.close()
        assert child.wait(timeout=60) == 1
        assert err == b""  # no traceback, and no exit-flush message either

    # catalog in both formats, then each other command in its default table
    RUNS = {
        "table": ["catalog", "--format", "table"],
        "json": ["catalog", "--format", "json"],
        "analyze": ["analyze", "(3,2,1;1,2,3)"],
        "scan": ["scan", "--k", "3", "--diameter", "2"],
        "verify": ["verify", "petersen"],
        "walk": ["walk", "petersen", "--from-distance", "1", "--trials", "10"],
    }

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("run", list(RUNS))
    def test_full_device_is_one_line(self, run):
        argv = self.RUNS[run]
        with open("/dev/full", "w", encoding="utf-8") as full:
            result = subprocess.run(
                [sys.executable, "-m", "drglab", *argv],
                stdout=full,
                stderr=subprocess.PIPE,
                text=True,
                timeout=60,
            )
        assert result.returncode == 1
        assert result.stderr == f"{argv[0]}: cannot write stdout: {os.strerror(errno.ENOSPC)}\n"

    @pytest.mark.parametrize("run", list(RUNS))
    def test_closed_stdout_is_one_line(self, run):
        # as `>&-` runs it: fd 1 is closed, so sys.stdout is None
        argv = self.RUNS[run]
        result = subprocess.run(
            [sys.executable, "-m", "drglab", *argv],
            preexec_fn=lambda: os.close(1),
            stderr=subprocess.PIPE,
            text=True,
            timeout=60,
        )
        assert result.returncode == 1
        assert result.stderr == f"{argv[0]}: cannot write stdout: stdout is closed\n"

    def test_closed_stdout_still_writes_output_file(self, tmp_path, monkeypatch):
        monkeypatch.setattr(sys, "stdout", None)
        out = tmp_path / "catalog.json"
        assert main(["catalog", "--format", "json", "--output", str(out)]) == 0
        assert json.loads(out.read_text(encoding="utf-8"))["command"] == "catalog"


# VmHWM is the peak RSS of this process image alone: ru_maxrss after exec
# also carries the peak of the process that spawned it, here the test runner
MEMORY_GUARD = """
import sys
from drglab.cli import main
code = main(["scan", "--k", "3..7", "--diameter", "1..6", "--format", "json", "--output", sys.argv[1]])
with open("/proc/self/status", encoding="ascii") as status:
    print(code, next(line.split()[1] for line in status if line.startswith("VmHWM:")))
"""


class TestScanStreaming:
    @pytest.mark.parametrize("fmt", ["json", "table"])
    def test_output_file_equals_stdout(self, fmt, tmp_path, capsys):
        argv = ["scan", "--k", "3..5", "--diameter", "1..6", "--n-max", "300", "--format", fmt]
        assert main(argv) == 0
        stdout = capsys.readouterr().out
        path = tmp_path / "out"
        assert main(argv + ["--output", str(path)]) == 0
        assert path.read_bytes() == stdout.encode("utf-8")

    def test_memory_stays_flat(self, tmp_path):
        # over 150 MB of peak RSS before the scan streamed; the digest was
        # recorded then
        path = tmp_path / "box.json"
        result = subprocess.run(
            [sys.executable, "-c", MEMORY_GUARD, str(path)], capture_output=True, text=True, timeout=120
        )
        code, max_rss_kb = result.stdout.split()
        assert code == "0"
        assert hashlib.sha256(path.read_bytes()).hexdigest() == "0dfdfd94ab97163150255969764b5e5b8387f54925ae1d75cbc819db67cc6163"
        assert int(max_rss_kb) < 80 * 1024

    def test_over_budget_box_refused_fast(self):
        result = subprocess.run(
            [sys.executable, "-m", "drglab", "scan", "--k", "3..100000", "--diameter", "1..100000"],
            capture_output=True,
            text=True,
            timeout=10,
        )
        assert result.returncode == 1
        assert result.stdout == ""
        assert result.stderr == "scan: the query box exceeds the raw candidate budget of 100000000\n"

    @pytest.mark.parametrize(
        "argv,err",
        [
            (["--k", "3", "--diameter", "2", "--jobs", "0"], "scan: jobs must be >= 1, got 0\n"),
            (["--k", "7..3", "--diameter", "1..2"], "scan: empty or invalid query ranges\n"),
            (["--k", "3..x", "--diameter", "2"], "scan: ranges look like A..B or a single integer\n"),
            (["--k", "3..8", "--diameter", "1..8"], "scan: the query box exceeds the raw candidate budget of 1000\n"),
            (["--k", "3..4..5", "--diameter", "1"], "scan: ranges look like A..B or a single integer\n"),
        ],
    )
    def test_refused_before_output_opened(self, argv, err, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(scanner, "MAX_RAW_CANDIDATES", 1000)
        path = tmp_path / "never.json"
        assert main(["scan", *argv, "--format", "json", "--output", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == err
        assert not path.exists()


NUMPY_PROBE = """
import contextlib, io, sys
import drglab
print("numpy" in sys.modules)
from drglab.cli import main
for argv in (
    ["scan", "--k", "3..4", "--diameter", "1..4", "--n-max", "50"],
    ["analyze", "(3,2,2,2,1,1,1;1,1,1,1,1,1,3)"],
    ["catalog", "--recompute"],
    ["walk", "petersen", "--from-distance", "2", "--trials", "500"],
    ["verify", "petersen"],
):
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv + ["--format", "json"])
    print(argv[0], code, "numpy" in sys.modules)
"""


def test_numpy_loads_only_for_graph_commands():
    # numpy is over half of the start-up of a command that loads it (~190 ms
    # for verify against ~63 ms for catalog, sources compiled cold) and
    # ~12 MB of resident memory; only verify's oracle (its float solve) and
    # Jacobi spectrum use it
    result = subprocess.run([sys.executable, "-c", NUMPY_PROBE], capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == [
        "False",
        "scan 0 False",
        "analyze 0 False",
        "catalog 0 False",
        "walk 0 False",
        "verify 0 True",
    ]


# the drglab modules a fresh process holds after `import drglab` (no
# arguments) or after one command run as `python -m drglab` runs it, then
# which of the slow standard modules below it loaded that the interpreter's
# `site` had not (`.pth` files differ between hosts)
MODULES_PROBE = """
import sys
at_start = set(sys.modules)
import contextlib, io
if sys.argv[1:]:
    # a module that ends in SystemExit leaves no entry in sys.modules, but
    # everything it imported stays
    sys.argv += ["--format", "json"]
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            import drglab.__main__
        except SystemExit as exc:
            assert exc.code == 0, exc.code
else:
    import drglab
print(*sorted(name for name in sys.modules if name.startswith("drglab.")))
print(*sorted(name for name in ("dataclasses", "inspect", "json") if name in sys.modules and name not in at_start))
"""

CATALOG_PATH = ("arrays", "catalog", "rational", "resistance")


@pytest.mark.parametrize(
    "argv, extra",
    [
        ([], ()),
        (["--help"], ("cli",)),
        (["catalog", "--recompute"], ("cli",)),
        (["scan", "--k", "3..4", "--diameter", "1..4", "--n-max", "50"], ("cli", "cli_scan", "scanner")),
        (["analyze", "(3,2,2,2,1,1,1;1,1,1,1,1,1,3)"], ("cli", "cli_analyze", "potentials", "walks")),
        (["verify", "petersen"], ("circuits", "cli", "cli_graph", "graphs", "potentials", "walks")),
        (["walk", "petersen", "--from-distance", "2", "--trials", "100"], ("circuits", "cli", "cli_graph", "graphs", "potentials", "walks")),
    ],
    ids=["import", "help", "catalog", "scan", "analyze", "verify", "walk"],
)
def test_each_command_imports_only_the_modules_it_runs(argv, extra):
    # importing and compiling a module is most of a short command's time; one
    # fresh process per command, so that the sets do not accumulate
    result = subprocess.run([sys.executable, "-c", MODULES_PROBE, *argv], capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    drglab_modules, slow_modules = result.stdout.splitlines()
    assert drglab_modules.split() == sorted(f"drglab.{name}" for name in CATALOG_PATH + extra)
    # `dataclasses` loads `inspect`; numpy, which only verify loads, does too
    if argv[:1] != ["verify"]:
        assert slow_modules == ""


BLAS_PROBE = """
import contextlib, io, os
from drglab.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(["verify", "petersen"])
with open("/proc/self/status", encoding="ascii") as status:
    threads = next(line.split()[1] for line in status if line.startswith("Threads:"))
print(code, os.environ["OPENBLAS_NUM_THREADS"], threads)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_blas_runs_one_thread_unless_the_user_chose():
    # in-process main calls set the variable in this process, and children
    # inherit it, so each probe gets an environment of its own
    env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_NUM_THREADS"}
    result = subprocess.run([sys.executable, "-c", BLAS_PROBE], capture_output=True, text=True, timeout=120, env=env)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["0", "1", "1"]
    env["OPENBLAS_NUM_THREADS"] = "2"
    result = subprocess.run([sys.executable, "-c", BLAS_PROBE], capture_output=True, text=True, timeout=120, env=env)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split()[:2] == ["0", "2"]


MULTIPROCESSING_PROBE = """
import contextlib, io, sys
import drglab
print("multiprocessing" in sys.modules)
from drglab.cli import main
for argv in (
    ["scan", "--k", "3..4", "--diameter", "1..4", "--n-max", "50"],
    ["scan", "--k", "3..4", "--diameter", "1..4", "--jobs", "2"],
    ["analyze", "(3,2,2,2,1,1,1;1,1,1,1,1,1,3)"],
    ["catalog", "--recompute"],
):
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv + ["--format", "json"])
    print(argv[0], code, "multiprocessing" in sys.modules)
"""


def test_no_command_loads_multiprocessing():
    # every scan runs in one process, whatever --jobs says, and the import
    # slows every start-up
    result = subprocess.run([sys.executable, "-c", MULTIPROCESSING_PROBE], capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == [
        "False",
        "scan 0 False",
        "scan 0 False",
        "analyze 0 False",
        "catalog 0 False",
    ]


class TestEntryPoints:
    def test_module_invocation(self):
        result = subprocess.run(
            [sys.executable, "-m", "drglab", "analyze", "(3,2,1;1,2,3)", "--format", "json"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert json.loads(result.stdout)["verdict"]["class"] == "PASS_STRICT"

    def test_usage_error_exit_code(self):
        result = subprocess.run(
            [sys.executable, "-m", "drglab", "scan", "--k", "3"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 1  # --diameter missing

    @pytest.mark.parametrize("command", [["analyze", "--help"], ["scan", "--help"], ["--help"]])
    def test_help_exits_zero(self, command, capsys):
        assert main(command) == 0
        assert "usage" in capsys.readouterr().out
