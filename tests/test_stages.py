"""One stage sequence for every command: analyze's kernel, `walks._analysis`,
carries the scan's first failing check, class and matched extremal name,
and where the stages reach the biggs stage, analyze prints the scan's
ratio.  Scan records are checked against analyze as they come out of
`scan`, every other array against `evaluate_array`."""

import json

import pytest
from hypothesis import example, given, settings
from test_kernels import HALF_M, THIRD_N, any_arrays

from drglab import ScanQuery, catalog, evaluate_array, extremal_set, parse_intersection_array, scan
from drglab.cli_analyze import _analyze_json
from drglab.walks import _analysis


def assert_agrees(arr, record) -> None:
    analysis = _analysis(arr)
    derived, stages = analysis[4], analysis[5]
    verdict = record.verdict
    expected = (record.first_failing_check, None, None) if verdict is None else (record.first_failing_check, verdict.category, verdict.matched_extremal)
    assert stages == expected
    if record.ratio is not None:
        assert derived[2] == (record.ratio.numerator, record.ratio.denominator)
        printed = json.loads(_analyze_json(arr, analysis))
        assert printed["resistance"]["ratio"] == printed["verdict"]["ratio_fraction"] == str(record.ratio)
        assert printed["verdict"]["class"] == verdict.category.value


def test_scan_box():
    records = scan(ScanQuery(3, 5, 1, 5))
    checks = {record.first_failing_check for record in records}
    assert checks == {"integrality", "divisibility", "head_bound", "biggs_violation", "pass"}
    for record in records:
        assert_agrees(record.array, record)


NAMED = {entry.name: entry.array for entry in catalog()} | {entry.name: entry.array for entry in extremal_set()}


@pytest.mark.parametrize("arr", NAMED.values(), ids=NAMED.keys())
def test_named_arrays(arr):
    assert_agrees(arr, evaluate_array(arr))


def test_named_arrays_cover_the_catalog_and_the_extremal_set():
    assert len({str(arr) for arr in NAMED.values()}) == len(catalog()) == 27


@given(any_arrays.filter(lambda arr: arr.k >= 3))
@example(HALF_M)
@example(THIRD_N)
@example(parse_intersection_array("(3,2,1;1,2,1)"))  # basic fails
@example(parse_intersection_array("(5,3;1,1)"))  # divisibility fails, whole shells
@example(parse_intersection_array("(4,1,1;1,1,4)"))  # the head bound fails, whole shells
@settings(max_examples=300, deadline=None)
def test_drawn_arrays(arr):
    assert_agrees(arr, evaluate_array(arr))
