"""Toll allocation for one-way linear highways.

The package computes per-segment shares of collected highway tolls with
three methods (equal, proportional, and compensated sharing), verifies them
against brute-force cooperative-game solutions (Shapley, compromise value,
average-tree), tests core stability, runs an executable axiom catalogue, and
summarizes allocations with standard equity statistics.
"""

from .axioms import (
    ANCHORED_AXIOMS,
    AXIOMS,
    PreconditionNotMet,
    axiom_matrix,
    blocked_matrix,
    check_additivity,
    check_covariance,
    check_efficiency,
    check_indifference_to_extensions,
    check_inessential_segment,
    check_linearity,
    check_segment_symmetry,
    check_subhighway_efficiency,
    check_toll_component_fairness,
    check_toll_fairness,
    check_weak_segment_symmetry,
    check_weighted_segment_symmetry,
    covariance_transform,
    independence_harness,
    replay,
)
from .datasets import ap68, ap68_path
from .equity import gini, lorenz, rank_correlations, ranking
from .errors import (
    BlocksNotPartitionError,
    ConstantVectorError,
    DuplicateTripError,
    HarnessMismatchError,
    InvalidAllocationError,
    InvalidDensityError,
    LengthMismatchError,
    LowerTriangularNonzeroError,
    NegativeTollError,
    NegativeWeightError,
    NoWitnessError,
    NonFiniteError,
    NonNumericTollError,
    OracleSizeError,
    SegmentIndexError,
    TauUndefinedError,
    TollShareError,
    TollValidationError,
    UnknownMethodError,
    UnknownSchemeError,
    VectorShapeError,
    ZeroTotalError,
)
from .game import (
    SegmentsGame,
    average_tree_value,
    compromise_bounds,
    core_check,
    core_check_exhaustive,
    core_scheme_check,
    shapley_value,
    sps_core_criterion,
    tau_value,
)
from .methods import (
    SpsDecomposition,
    WeightScheme,
    allocation_method,
    builtin_scheme,
    counterexample_method,
    family_allocate,
    scs,
    ses,
    share_percentages,
    sps,
    sps_decomposition,
)
from .model import (
    DEFAULT_TOL,
    TollMatrix,
    block_structured_matrix,
    coverage,
    inessential_segments,
    is_unit_matrix,
    random_matrix,
    read_dense_csv,
    read_json,
    read_triplet_csv,
    sample_matrix,
    write_dense_csv,
    write_json,
    write_triplet_csv,
)

__version__ = "0.1.0"
