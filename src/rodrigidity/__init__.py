"""Infinitesimal rigidity of planar rod configurations.

A rod configuration realizes a rank-two incidence geometry as straight rigid
segments pinned together at shared points.  This package decides whether such
a configuration is infinitesimally rigid two ways: combinatorially, by
playing the (2,3)-pebble game on a cone graph of the geometry, and
algebraically, by computing the exact rank of the concurrence matrix of a
randomly sampled exact realization.  The two verdicts certify each other.
"""

from .geometry import (
    GeometryError,
    GeometryParseError,
    IncidenceGeometry,
    geometry_from_json,
    geometry_to_json,
    is_connected,
    load_geometry,
    parse_geometry,
    remove_line,
    serialize_geometry,
    shared_rod_pair,
)
from .cone import (
    ConeGraph,
    ConeIncidenceGeometry,
    build_cone_graph,
    build_cone_incidence,
    cone_graph_to_dot,
)
from .pebble import (
    PebbleState,
    PebbleVerdict,
    independent_after,
    play,
    remaining_without_each,
    try_edge,
)
from .oracle import (
    ALTERNATE_PRIME,
    DEFAULT_FIELD,
    Infeasible,
    LinearRealization,
    MERSENNE_PRIME,
    OracleError,
    PrimeField,
    RATIONALS,
    RationalField,
    VerticalLineError,
    build_concurrence_matrix,
    is_string_config_rigid,
    matrix_kernel,
    rank_of,
    realization_from_coords,
    realization_from_json,
    realization_to_json,
    realize_cone,
    sample_realization,
    string_config_rank,
)
from .analysis import (
    CampaignError,
    CampaignReport,
    CanonicalSubgraph,
    DEFAULT_SEED,
    MinimalRigidityReport,
    OracleDisagreementError,
    RigidityVerdict,
    canonical_edge_order,
    canonical_subgraph,
    decide_minimal_rigidity,
    decide_rod_rigidity,
    random_geometry,
    run_agreement_campaign,
    verdict_to_json,
)

__version__ = "0.1.0"
