"""Exact toolkit for perfect generalized-triangle tilings in k-graphs.

Construct the tight examples, decide integral and fractional tiling
questions with exact arithmetic, produce and validate infeasibility
certificates, and probe the lattice-based absorption primitives at finite n.
"""

__version__ = "0.1.0"

from .core import (
    KGraph,
    complete_kgraph,
    density,
    format_kgraph,
    induced,
    is_gamma_extremal,
    load_kgraph,
    min_codegree,
    parse_kgraph,
    save_kgraph,
)
from .constructions import (
    ExtremalInstance,
    augmented_blowup,
    dominates,
    extremal_construction,
    random_with_codegree,
)
from .patterns import (
    Tiling,
    TriangleCopy,
    blowup,
    count_tight_2paths,
    enumerate_copies,
    generalized_triangle,
    supporting_sets,
    supports_triangle,
)
from .exact import (
    build_auxiliary_graph,
    classify_good_bad,
    corollary_check,
    corollary_thresholds,
    dh_condition,
    extremal_pipeline,
    kpartite_perfect_matching,
    max_tiling,
    perfect_tiling,
)
from .fractional import (
    FarkasCertificate,
    FractionalTiling,
    b_avoiding_fractional_tiling,
    min_max_pair_weight,
    packing_lp_value,
    perfect_fractional_tiling,
    verify_certificate,
)
from .lattice import (
    IntegerLattice,
    VertexPartition,
    find_absorber,
    find_connector,
    has_transferral,
    index_vector,
    is_closed,
    is_complete,
    is_zeta_monochromatic,
    monochromatic_fraction,
    reachable,
    robust_vectors,
    x_density,
)
from .rainbow import (
    CoverEmbedding,
    GraphFamily,
    RainbowTiling,
    color_covering_homomorphism,
    rainbow_perfect_tiling,
)
