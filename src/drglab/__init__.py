"""drglab: exact electric-resistance analysis of distance-regular graphs.

Everything an intersection array determines is computed in exact rational
arithmetic: shell sizes, the voltage sequence of the adjacent-terminal
circuit, per-distance resistances, the resistance-ratio classification with
its sharp constant 1 + 94/101, and random-walk bounds.  Explicit small
graphs ground the formulas through an independent Laplacian oracle, and a
scanner sieves candidate arrays through stacked feasibility screens.
"""

from .arrays import (
    CheckResult,
    DistanceDistribution,
    FeasibilityReport,
    HeadBound,
    IntersectionArray,
    LengthMismatch,
    MalformedInput,
    check_divisibility,
    compute_distance_distribution,
    diameter_head_bound,
    format_intersection_array,
    parse_intersection_array,
    validate_basic,
)
from .catalog import CatalogEntry, catalog, entry_by_name, recompute_entry
from .circuits import (
    ArrayMismatch,
    NotAdjacent,
    PotentialAssignment,
    build_harmonic_function,
    check_harmonicity,
    effective_resistance_oracle,
    effective_resistances,
    laplacian_spectral_gap,
    measure_current,
    representative_pairs,
)
from .graphs import (
    BadParams,
    ExplicitGraph,
    NotConnected,
    RegularityFailure,
    UnknownFamily,
    bfs_distances,
    construct_named_graph,
    family_names,
    from_edge_list,
    to_edge_list,
    verify_distance_regular,
)
from .potentials import (
    PotentialSequence,
    PropertyViolation,
    check_potential_properties,
    potentials_closed_form,
    potentials_recursive,
)
from .resistance import (
    BIGGS_THRESHOLD,
    SHARP_RATIO,
    BiggsClass,
    BiggsVerdict,
    ResistanceProfile,
    ValencyError,
    biggs_ratio,
    classify_biggs,
    extremal_set,
    profile_from_distribution,
    resistance_profile,
)
from .scanner import (
    QueryTooLarge,
    ScanQuery,
    ScanRecord,
    enumerate_arrays,
    estimate_candidates,
    evaluate_array,
    scan,
)
from .walks import (
    AnalyzeReport,
    MonteCarloEstimate,
    OracleRow,
    SpectralCheckReport,
    VerifyReport,
    WalkBoundsReport,
    WalkReport,
    analyze_array,
    commute_time,
    simulate_cover_time,
    simulate_hitting_time,
    spectral_check,
    verify_graph,
    walk_bounds,
    walk_bounds_from_profile,
    walk_graph,
)

__version__ = "0.1.0"
