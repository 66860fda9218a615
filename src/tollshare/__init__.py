"""Toll allocation for one-way linear highways.

The package computes per-segment shares of collected highway tolls with
three methods (equal, proportional, and compensated sharing), verifies them
against brute-force cooperative-game solutions (Shapley, compromise value,
average-tree), tests core stability, runs an executable axiom catalogue, and
summarizes allocations with standard equity statistics.

``axioms``, ``game`` and ``equity`` load lazily.  ``allocate`` and
``generate`` use none of them, ``core`` and ``game`` use only ``game``, and
``equity`` only ``equity``; only ``axioms`` needs the axiom catalogue and its
forked runner (with its ``pickle``, ``threading`` and ``gc`` imports).  A
start without cached bytecode compiles what it imports, so loading them
eagerly cost each command the others' compile.  Each of the three is in
``sys.modules`` and bound here from the start, and its code runs at the
first attribute read.  Its public names are served here by
:func:`__getattr__`, so ``tollshare.axiom_matrix`` still works.
"""

from .datasets import ap68, ap68_path
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

#: The modules that load on first use -> the public names served from each
_LAZY = {
    "axioms": (
        "ANCHORED_AXIOMS", "AXIOMS", "PreconditionNotMet", "axiom_matrix", "blocked_matrix",
        "check_additivity", "check_covariance", "check_efficiency",
        "check_indifference_to_extensions", "check_inessential_segment", "check_linearity",
        "check_segment_symmetry", "check_subhighway_efficiency",
        "check_toll_component_fairness", "check_toll_fairness", "check_weak_segment_symmetry",
        "check_weighted_segment_symmetry", "covariance_transform", "independence_harness",
        "replay",
    ),
    "equity": ("gini", "lorenz", "rank_correlations", "ranking"),
    "game": (
        "SegmentsGame", "average_tree_value", "compromise_bounds", "core_check",
        "core_check_exhaustive", "core_scheme_check", "shapley_value", "sps_core_criterion",
        "tau_value",
    ),
}
_OWNER = {name: module for module, names in _LAZY.items() for name in names}


def _lazy(module: str):
    import importlib.util
    import sys

    spec = importlib.util.find_spec(f"{__name__}.{module}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    sys.modules[spec.name] = lazy = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(lazy)
    return lazy


axioms, equity, game = map(_lazy, _LAZY)


def __getattr__(name: str):
    if name in _OWNER:
        return getattr(globals()[_OWNER[name]], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_OWNER})


#: What ``from tollshare import *`` binds: the served names too, which loads
#: their modules
__all__ = [name for name in __dir__() if not name.startswith("_")]
