"""drglab: exact electric-resistance analysis of distance-regular graphs.

Everything an intersection array determines is computed in exact rational
arithmetic: shell sizes, the voltage sequence of the adjacent-terminal
circuit, per-distance resistances, the resistance-ratio classification with
its sharp constant 1 + 94/101, and random-walk bounds.  Explicit small
graphs ground the formulas through an independent Laplacian oracle, and a
scanner sieves candidate arrays through stacked feasibility screens.

Importing the package loads only the catalog path (arrays, catalog,
rational, resistance); every other public name is imported from its
module on first use (PEP 562), so a command loads only what it runs.  The catalog's names are bound here at once: `catalog` is also the
name of their submodule, whose import would otherwise rebind
`drglab.catalog` to the module.
"""

import importlib

from .catalog import CatalogEntry, catalog, recompute_entry

_HOMES = {
    "analysis": (
        "AnalyzeReport",
        "WalkBoundsReport",
        "analyze_array",
        "commute_time",
        "walk_bounds",
    ),
    "arrays": (
        "CheckResult",
        "DistanceDistribution",
        "FeasibilityReport",
        "HeadBound",
        "IntersectionArray",
        "check_divisibility",
        "compute_distance_distribution",
        "diameter_head_bound",
        "parse_intersection_array",
        "validate_basic",
    ),
    "circuits": (
        "ArrayMismatch",
        "PotentialAssignment",
        "build_harmonic_function",
        "check_harmonicity",
        "effective_resistance_oracle",
        "effective_resistances",
        "laplacian_spectral_gap",
        "measure_current",
        "representative_pairs",
    ),
    "graphs": (
        "ExplicitGraph",
        "RegularityFailure",
        "bfs_distances",
        "construct_named_graph",
        "family_names",
        "from_edge_list",
        "to_edge_list",
        "verify_distance_regular",
    ),
    "potentials": (
        "PotentialSequence",
        "PropertyViolation",
        "check_potential_properties",
        "potentials_closed_form",
        "potentials_recursive",
    ),
    "resistance": (
        "BIGGS_THRESHOLD",
        "SHARP_RATIO",
        "BiggsClass",
        "BiggsVerdict",
        "ResistanceProfile",
        "classify_biggs",
        "extremal_set",
        "resistance_profile",
    ),
    "scanner": (
        "ScanQuery",
        "ScanRecord",
        "enumerate_arrays",
        "evaluate_array",
        "scan",
    ),
    "verification": (
        "OracleRow",
        "SpectralCheckReport",
        "VerifyReport",
        "spectral_check",
        "verify_graph",
    ),
    "walks": (
        "MonteCarloEstimate",
        "WalkReport",
        "simulate_cover_time",
        "simulate_hitting_time",
        "walk_graph",
    ),
}
# each lazily exported name -> the submodule that defines it
_LAZY = {name: module for module, names in _HOMES.items() for name in names}

__all__ = ["CatalogEntry", "catalog", "recompute_entry", *_LAZY]

__version__ = "0.1.0"


def __getattr__(name: str):
    # any other name raises, so `from drglab import walks` still imports the submodule
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_LAZY[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
