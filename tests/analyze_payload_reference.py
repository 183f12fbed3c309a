"""`analyze`'s output as drglab rendered it from the library's
`AnalyzeReport`: the JSON payload as the dict that it handed to its JSON
writer before the command wrote its output from one template over the
report, and the table as the command wrote it before it rendered the
integer kernel's values.  Tests check that the command writes
`json.dumps(payload(arr, report), indent=2)` and `table(arr, report)`, byte
for byte."""

from fractions import Fraction

from drglab.arrays import IntersectionArray
from drglab.rational import decimal_string
from drglab.walks import AnalyzeReport

SCHEMA = 1


def _num(value: Fraction):
    """Whole rationals as JSON numbers, everything else as 'p/q' strings."""
    return value.numerator if value.denominator == 1 else str(value)


def payload(arr: IntersectionArray, report: AnalyzeReport) -> dict:
    screens, dist, divisibility, head = report.feasibility, report.distribution, report.divisibility, report.head
    p, profile, verdict, bounds = report.potentials, report.profile, report.verdict, report.bounds
    base = {
        "schema": SCHEMA,
        "command": "analyze",
        "array": str(arr),
        "validation": {
            "overall": screens.overall,
            "checks": [{"name": c.name, "passed": c.passed, "detail": c.detail} for c in screens.checks],
        },
        "distribution": {
            "shells": [_num(x) for x in dist.k_sizes],
            "n": _num(dist.n),
            "m": _num(dist.m),
            "edge_counts": [_num(x) for x in dist.e],
            "integral": dist.integral,
        },
        "divisibility": {"passed": divisibility.passed, "detail": divisibility.detail},
        "head_bound": {"j": head.j, "bound": head.bound, "passed": head.passed},
    }
    if not report.realizable:
        return {**base, "verdict": None, "realizable": False}
    return {
        **base,
        "potentials": {
            "fractions": [str(x) for x in p.phi],
            "decimals": [decimal_string(x) for x in p.phi],
            "source": p.source,
        },
        "resistance": {
            "d": [str(x) for x in profile.d],
            "d_decimals": [decimal_string(x) for x in profile.d],
            "ratio": str(profile.ratio),
            "ratio_decimal": decimal_string(profile.ratio),
            "K_factor": str(profile.K_factor),
        },
        "verdict": {
            "array": str(verdict.array),
            "ratio_fraction": str(verdict.ratio),
            "ratio_decimal": decimal_string(verdict.ratio),
            "class": verdict.category.value,
            "matched_extremal": verdict.matched_extremal,
        },
        "walk_bounds": {
            "array": str(arr),
            "n": bounds.n,
            "m": _num(bounds.m),
            "commute_times": [str(x) for x in bounds.commute_times],
            "hitting_bound": bounds.hitting_bound,
            "commute_bound": bounds.commute_bound,
            "cover_bound_dominant": bounds.cover_bound_dominant,
            "spectral_lower_bound": str(bounds.spectral_lower_bound),
        },
    }


def table(arr: IntersectionArray, report: AnalyzeReport) -> str:
    """The analyze table, one line a field."""
    screens, dist, divisibility, head = report.feasibility, report.distribution, report.divisibility, report.head
    p, profile, verdict, bounds = report.potentials, report.profile, report.verdict, report.bounds
    lines = [
        f"array            {arr}",
        f"validation       {'pass' if screens.overall else 'FAIL: ' + '; '.join(c.detail for c in screens.failed())}",
        f"shells           {[str(x) for x in dist.k_sizes]}  n={dist.n}  m={dist.m}  integral={dist.integral}",
        f"divisibility     {'pass' if divisibility.passed else 'FAIL'} ({divisibility.detail})",
        f"head bound       j={head.j} D<={head.bound} {'pass' if head.passed else 'FAIL'}",
    ]
    if not report.realizable:
        lines.append("verdict          INFEASIBLE (fails structural or shell-integrality screens)")
    else:
        lines += [
            f"potentials       {[str(x) for x in p.phi]}",
            f"resistances      {[str(x) for x in profile.d]}",
            f"ratio            {profile.ratio} = {decimal_string(profile.ratio)}",
            f"verdict          {verdict.category.value}" + (f" ({verdict.matched_extremal})" if verdict.matched_extremal else ""),
            f"commute times    {[str(x) for x in bounds.commute_times]}  cap {bounds.commute_bound}",
        ]
    return "\n".join(lines)
