"""The embedded catalog: golden values, names, constructions."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import drglab
from drglab import (
    catalog,
    check_divisibility,
    classify_biggs,
    compute_distance_distribution,
    construct_named_graph,
    diameter_head_bound,
    extremal_set,
    recompute_entry,
    validate_basic,
    verify_distance_regular,
)
from drglab.resistance import BiggsClass


class TestContents:
    def test_row_counts(self):
        entries = catalog()
        assert len(entries) == 27
        by_table = {}
        for entry in entries:
            by_table.setdefault(entry.table, []).append(entry)
        assert len(by_table["degree3"]) == 10
        assert len(by_table["degree4"]) == 13
        assert len(by_table["k6"]) == 4

    def test_arrays_distinct(self):
        arrays = [entry.array for entry in catalog()]
        assert len(set(arrays)) == 27

    def test_extremal_rows(self):
        names = {entry.name for entry in catalog() if entry.extremal}
        assert names == {"Biggs-Smith graph", "Foster graph", "Flag graph of GH(2,2)", "Tutte's 12-cage"}
        for entry in extremal_set():
            assert any(row.array == entry.array for row in catalog())

    def test_spec_rows(self):
        rows = {entry.name: entry for entry in catalog()}
        dodeca = rows["Dodecahedron"]
        assert str(dodeca.array) == "(3,2,1,1,1;1,1,1,2,3)"
        assert dodeca.printed_ratio == "0.842105"
        assert rows["Tutte's 12-cage"].aliases == ("Benson's graph",)
        odd = rows["Odd graph O_4"]
        assert str(odd.array) == "(4,3,3;1,1,2)"
        assert odd.printed_ratio == "0.352941"
        halved = rows["Halved Foster graph"]
        assert str(halved.array) == "(6,4,2,1;1,1,4,6)"
        assert halved.vertices == 45
        assert halved.printed_ratio == "0.278409"


class TestGoldenValues:
    def test_every_row_recomputes(self):
        for entry in catalog():
            recomputed = recompute_entry(entry)
            assert recomputed.n_matches, entry.name
            assert recomputed.ratio_matches, entry.name

    def test_every_row_passes_feasibility_screens(self):
        for entry in catalog():
            assert validate_basic(entry.array).overall, entry.name
            assert check_divisibility(entry.array).passed, entry.name
            assert diameter_head_bound(entry.array).passed, entry.name
            assert compute_distance_distribution(entry.array).integral, entry.name

    def test_classification_split(self):
        for entry in catalog():
            verdict = classify_biggs(entry.array)
            if entry.extremal:
                assert verdict.category is BiggsClass.EXTREMAL, entry.name
            else:
                assert verdict.category is BiggsClass.PASS_STRICT, entry.name

    def test_sharp_constant_attained_only_by_biggs_smith(self):
        ratios = {entry.name: recompute_entry(entry).ratio for entry in catalog()}
        assert ratios["Biggs-Smith graph"] == Fraction(94, 101)
        for name, ratio in ratios.items():
            if name != "Biggs-Smith graph":
                assert ratio < Fraction(94, 101), name


class TestConstructions:
    def test_constructible_rows(self):
        names = {entry.name for entry in catalog() if entry.has_explicit_construction}
        assert names == {
            "Cube",
            "Heawood graph",
            "Pappus graph",
            "Dodecahedron",
            "Desargues graph",
            "K_{5,5} minus a matching",
            "4-cube",
            "Colinearity graph of GH(2,2)",
        }

    def test_constructions_realize_their_rows(self):
        for entry in catalog():
            if entry.has_explicit_construction:
                family, params = entry.construction
                graph = construct_named_graph(family, params)
                assert graph.n == entry.vertices, entry.name
                assert verify_distance_regular(graph) == entry.array, entry.name


def test_catalog_loads_without_importlib_resources():
    # -S skips site, whose .pth files may import importlib.resources on
    # their own; the module costs more start-up than the rest of drglab
    code = "import sys, drglab\nprint(len(drglab.catalog()), 'importlib.resources' in sys.modules)\n"
    env = {**os.environ, "PYTHONPATH": str(Path(drglab.__file__).parents[1])}
    result = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "27 False\n"
