"""Exact optimal transport between the diagrams of integer partitions.

Partitions of any dimension become point-mass measures on their diagram
cells; transport between a partition and its coordinate-permuted image is
solved exactly in rational arithmetic, and two matching facts are checked
mechanically over exhaustive small-instance sweeps.
"""

from .errors import (
    DimensionMismatchError,
    EnumerationTooLargeError,
    InstanceTooLargeError,
    NonIntegerCostsError,
    NotDownSetError,
    NotMonotoneError,
    NonPositiveEntryError,
    NotSquareError,
    PartitionOTError,
    ShapeMismatchError,
    SizeMismatchError,
)
from .measures import SupportDecomposition, decompose, measure_of
from .partitions import (
    MAX_DIMENSION,
    MultiPartition,
    Permutation,
    all_permutations,
    apply_permutation,
    count_partitions,
    default_max_cells,
    enumerate_partitions,
    from_cells,
    from_json,
    involutions,
    is_self_symmetric,
    symmetrize,
    to_json,
    validate_array,
)
from .render import (
    ASCII,
    FORMATS,
    SVG,
    TIKZ,
    UnsupportedRenderError,
    render,
)
from .theorems import (
    SWEEP_MAX_M,
    HybridPlanResult,
    SweepReport,
    format_summary,
    hybrid_plan,
    verify_theorem_cor,
    verify_theorem_main,
)
from .transport import (
    ASSIGNMENT_MAX_N,
    BRUTE_FORCE_MAX,
    COST_KINDS,
    EUCLIDEAN,
    L1,
    POINT_COSTS,
    SQUARED_EUCLIDEAN,
    AssignmentResult,
    CostMatrix,
    check_certificate,
    cost_matrix,
    distance_of_total,
    is_c_cyclically_monotone,
    l1_distance,
    optimal_total,
    plan_cost,
    plan_to_json,
    solve_assignment,
    solve_bruteforce,
    solve_transport,
    squared_distance,
    wasserstein,
)

__version__ = "0.1.0"
