"""Exact optimal transport between the diagrams of integer partitions.

Partitions of any dimension become point-mass measures on their diagram
cells; transport between a partition and its coordinate-permuted image is
solved exactly in rational arithmetic, and two matching facts are checked
mechanically over exhaustive small-instance sweeps.
"""

from .errors import (
    DimensionMismatchError,
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
    CellSet,
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
    to_cells,
    to_json,
    validate_array,
)
from .render import (
    ASCII,
    FORMATS,
    SVG,
    TIKZ,
    RenderSpec,
    UnsupportedRenderError,
    render,
    render_ascii,
)
from .theorems import (
    HybridPlanResult,
    SweepReport,
    format_summary,
    hybrid_plan,
    verify_theorem_cor,
    verify_theorem_main,
)
from .transport import (
    BRUTE_FORCE_MAX,
    COST_KINDS,
    EUCLIDEAN,
    L1,
    SQUARED_EUCLIDEAN,
    AssignmentResult,
    CostMatrix,
    cost_matrix,
    integer_cost_matrix,
    is_c_cyclically_monotone,
    l1_distance,
    plan_cost,
    plan_to_json,
    solve_assignment,
    solve_bruteforce,
    solve_transport,
    squared_distance,
    wasserstein,
    wasserstein_is_zero,
)

__version__ = "0.1.0"
