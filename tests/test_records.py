"""The record classes' contract: every record drglab defines takes its
fields in one order, positionally or by keyword, prints them in that order,
equals and hashes alike a record of its class with equal fields, and
refuses assignment."""

import pickle
from fractions import Fraction

import pytest

from drglab.arrays import CheckResult, DistanceDistribution, FeasibilityReport, HeadBound, IntersectionArray, _unchecked_array
from drglab.catalog import CatalogEntry, RecomputedEntry
from drglab.circuits import PotentialAssignment
from drglab.graphs import RegularityFailure
from drglab.potentials import PotentialSequence
from drglab.resistance import BiggsClass, BiggsVerdict, ResistanceProfile
from drglab.scanner import ScanQuery
from drglab.analysis import AnalyzeReport, WalkBoundsReport, analyze_array
from drglab.verification import OracleRow, SpectralCheckReport, VerifyReport
from drglab.walks import MonteCarloEstimate, WalkReport

K4 = IntersectionArray((3,), (1,))
K4_REPR = "IntersectionArray(b=(3,), c=(1,))"
CHECK = CheckResult("c1_is_one", True, "c1 = 1")
CHECK_REPR = "CheckResult(name='c1_is_one', passed=True, detail='c1 = 1')"

# (class, its fields in order with one value each, the repr of that record);
# a record that holds another is built from the entry above it
RECORDS = [
    (IntersectionArray, {"b": (3,), "c": (1,)}, K4_REPR),
    (FeasibilityReport, {"checks": (CHECK,)}, f"FeasibilityReport(checks=({CHECK_REPR},))"),
    (
        DistanceDistribution,
        {"k_sizes": (Fraction(1), Fraction(3)), "n": Fraction(4), "e": (Fraction(3),), "m": Fraction(6), "integral": True, "shells_integral": True},
        "DistanceDistribution(k_sizes=(Fraction(1, 1), Fraction(3, 1)), n=Fraction(4, 1), e=(Fraction(3, 1),), "
        "m=Fraction(6, 1), integral=True, shells_integral=True)",
    ),
    (
        CatalogEntry,
        {"name": "K4", "aliases": ("tetrahedron",), "array": K4, "vertices": 4, "printed_ratio": "0", "table": "degree3", "construction": ("complete", (4,))},
        f"CatalogEntry(name='K4', aliases=('tetrahedron',), array={K4_REPR}, vertices=4, printed_ratio='0', table='degree3', "
        "construction=('complete', (4,)))",
    ),
    (
        RecomputedEntry,
        {"n": 4, "ratio": Fraction(0), "ratio_rendered": "0", "n_matches": True, "ratio_matches": False},
        "RecomputedEntry(n=4, ratio=Fraction(0, 1), ratio_rendered='0', n_matches=True, ratio_matches=False)",
    ),
    (
        PotentialSequence,
        {"array": K4, "phi": (Fraction(3), Fraction(0)), "source": "recursive"},
        f"PotentialSequence(array={K4_REPR}, phi=(Fraction(3, 1), Fraction(0, 1)), source='recursive')",
    ),
    (
        ResistanceProfile,
        {"d": (Fraction(1, 2),), "ratio": Fraction(0), "K_factor": Fraction(1), "n": 4, "m": Fraction(6), "k": 3},
        "ResistanceProfile(d=(Fraction(1, 2),), ratio=Fraction(0, 1), K_factor=Fraction(1, 1), n=4, m=Fraction(6, 1), k=3)",
    ),
    (
        ScanQuery,
        {"k_min": 3, "k_max": 4, "d_min": 1, "d_max": 2, "n_max": 50},
        "ScanQuery(k_min=3, k_max=4, d_min=1, d_max=2, n_max=50)",
    ),
    (
        RegularityFailure,
        {"pair": (0, 5), "distance": 2, "kind": "c", "expected": 1, "found": 2},
        "RegularityFailure(pair=(0, 5), distance=2, kind='c', expected=1, found=2)",
    ),
    (
        PotentialAssignment,
        {"values": (Fraction(3), Fraction(-3), Fraction(0), Fraction(0)), "u": 0, "v": 1, "expected_current": 3},
        "PotentialAssignment(values=(Fraction(3, 1), Fraction(-3, 1), Fraction(0, 1), Fraction(0, 1)), u=0, v=1, expected_current=3)",
    ),
    (
        WalkBoundsReport,
        {
            "array": K4,
            "n": 4,
            "m": Fraction(6),
            "commute_times": (Fraction(6),),
            "hitting_bound": 6,
            "commute_bound": 12,
            "cover_bound_dominant": 16.5,
            "spectral_lower_bound": Fraction(1, 4),
            "resistance_gap_bound": Fraction(1, 2),
            "middle_inequality_holds": True,
            "over_commute_bound": (),
        },
        f"WalkBoundsReport(array={K4_REPR}, n=4, m=Fraction(6, 1), commute_times=(Fraction(6, 1),), hitting_bound=6, "
        "commute_bound=12, cover_bound_dominant=16.5, spectral_lower_bound=Fraction(1, 4), "
        "resistance_gap_bound=Fraction(1, 2), middle_inequality_holds=True, over_commute_bound=())",
    ),
    (
        MonteCarloEstimate,
        {"mean": 3.25, "stderr": 0.5, "trials": 100, "seed": 7},
        "MonteCarloEstimate(mean=3.25, stderr=0.5, trials=100, seed=7)",
    ),
]
RECORDS += [
    (
        WalkReport,
        {"array": K4, "distance": 1, "pair": (0, 1), "expected": Fraction(3), "estimate": MonteCarloEstimate(*RECORDS[11][1].values())},
        f"WalkReport(array={K4_REPR}, distance=1, pair=(0, 1), expected=Fraction(3, 1), estimate={RECORDS[11][2]})",
    ),
    (
        SpectralCheckReport,
        {"sigma": 4.0, "resistance_gap_bound": Fraction(1, 2), "spectral_lower_bound": Fraction(1, 4), "sigma_holds": True, "middle_holds": False},
        "SpectralCheckReport(sigma=4.0, resistance_gap_bound=Fraction(1, 2), spectral_lower_bound=Fraction(1, 4), "
        "sigma_holds=True, middle_holds=False)",
    ),
]
RECORDS += [
    (
        VerifyReport,
        {
            "array": K4,
            "harmonic": PotentialAssignment(*RECORDS[9][1].values()),
            "residual": Fraction(0),
            "current": Fraction(3),
            "oracle": (OracleRow(1, (0, 1), Fraction(1, 2), Fraction(1, 2), True),),
            "spectral": SpectralCheckReport(*RECORDS[13][1].values()),
        },
        f"VerifyReport(array={K4_REPR}, harmonic={RECORDS[9][2]}, residual=Fraction(0, 1), current=Fraction(3, 1), "
        "oracle=(OracleRow(distance=1, pair=(0, 1), oracle=Fraction(1, 2), formula=Fraction(1, 2), equal=True),), "
        f"spectral={RECORDS[13][2]})",
    ),
    (
        AnalyzeReport,
        {
            "feasibility": FeasibilityReport((CHECK,)),
            "distribution": DistanceDistribution(*RECORDS[2][1].values()),
            "divisibility": CHECK,
            "head": HeadBound(1, 1, True),
            "potentials": PotentialSequence(*RECORDS[5][1].values()),
            "profile": ResistanceProfile(*RECORDS[6][1].values()),
            "verdict": BiggsVerdict(K4, BiggsClass.PASS_STRICT, Fraction(0)),
            "bounds": WalkBoundsReport(*RECORDS[10][1].values()),
        },
        f"AnalyzeReport(feasibility={RECORDS[1][2]}, distribution={RECORDS[2][2]}, divisibility={CHECK_REPR}, "
        f"head=HeadBound(j=1, bound=1, passed=True), potentials={RECORDS[5][2]}, profile={RECORDS[6][2]}, "
        f"verdict=BiggsVerdict(array={K4_REPR}, category=<BiggsClass.PASS_STRICT: 'PASS_STRICT'>, ratio=Fraction(0, 1), "
        f"matched_extremal=None), bounds={RECORDS[10][2]})",
    ),
]


def test_every_record_class_is_listed():
    assert len({cls for cls, _, _ in RECORDS}) == len(RECORDS) == 16


@pytest.mark.parametrize("cls, fields, text", RECORDS, ids=[cls.__name__ for cls, _, _ in RECORDS])
def test_record_contract(cls, fields, text):
    values = list(fields.values())
    record = cls(*values)
    assert repr(record) == text
    assert [getattr(record, name) for name in fields] == values
    for copy in (cls(*values), cls(**fields), pickle.loads(pickle.dumps(record))):
        assert copy == record and not copy != record
        assert hash(copy) == hash(record)
    # a record equals only a record of its own class
    assert record != tuple(values)
    for name in (*fields, "not_a_field"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert [getattr(record, name) for name in fields] == values


def test_records_differing_in_any_field_differ():
    fields = {"mean": 3.25, "stderr": 0.5, "trials": 100, "seed": 7}
    for name in fields:
        other = MonteCarloEstimate(**{**fields, name: 1})
        assert other != MonteCarloEstimate(**fields)


def test_analyze_report_defaults_and_cached_ratio():
    head = AnalyzeReport(FeasibilityReport((CHECK,)), DistanceDistribution(*RECORDS[2][1].values()), CHECK, HeadBound(1, 1, True))
    assert (head.potentials, head.profile, head.verdict, head.bounds) == (None, None, None, None)
    assert head.routes_agree and "_recursion_ratio" not in vars(head)
    report = analyze_array(K4)
    assert "_recursion_ratio" not in vars(report)
    assert report.routes_agree
    assert vars(report)["_recursion_ratio"] == report.potentials.ratio() == 0
    assert report._recursion_ratio is vars(report)["_recursion_ratio"]


def test_scan_query_defaults_to_no_vertex_cap():
    assert ScanQuery(3, 4, 1, 2) == ScanQuery(k_min=3, k_max=4, d_min=1, d_max=2, n_max=None)


def test_unchecked_array_is_the_checked_one():
    for b, c in [((3,), (1,)), ((3, 2, 1), (1, 2, 3)), ((7, 6, 4, 4), (1, 1, 1, 6))]:
        fast = _unchecked_array(b, c)
        assert fast == IntersectionArray(b, c) and hash(fast) == hash(IntersectionArray(b, c))
        assert repr(fast) == repr(IntersectionArray(b, c)) and str(fast) == str(IntersectionArray(b, c))
