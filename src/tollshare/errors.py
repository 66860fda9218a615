"""Exception types raised by the tollshare package."""

from __future__ import annotations


class TollShareError(Exception):
    """Base class for all tollshare-specific errors."""


class TollValidationError(TollShareError, ValueError):
    """A toll matrix or its raw input violates the data model."""


def clipped(text: str) -> str:
    """``text`` cut to at most 200 characters, the cut marked with ``...``,
    so that an error echoing a huge input cell stays readable."""
    return text if len(text) <= 200 else text[:197] + "..."


class _TollFault(TollValidationError):
    """The toll ``value`` given for trip ``[entry, exit]`` is ``fault``."""

    fault = ""

    def __init__(self, entry: int, exit: int, value: object):
        super().__init__(f"toll for trip [{entry},{exit}] is {self.fault}: {clipped(repr(value))}")
        self.entry, self.exit, self.value = entry, exit, value


class NegativeTollError(_TollFault):
    fault = "negative"


class NegativeFactorError(NegativeTollError):
    def __init__(self, factor: float):
        TollValidationError.__init__(self, f"scale factor is negative: {factor!r}")
        self.entry, self.exit, self.value = None, None, factor


class NonFiniteError(_TollFault):
    fault = "not finite"


class NonNumericTollError(_TollFault):
    fault = "not a number"


class LowerTriangularNonzeroError(TollValidationError):
    def __init__(self, entry: int, exit: int, value: float):
        super().__init__(
            f"entry ({entry},{exit}) below the diagonal is nonzero ({value!r}); "
            "one-way matrices must be upper triangular"
        )
        self.entry, self.exit, self.value = entry, exit, value


class DuplicateTripError(TollValidationError):
    def __init__(self, entry: int, exit: int):
        super().__init__(f"trip [{entry},{exit}] appears more than once")
        self.entry, self.exit = entry, exit


class SegmentIndexError(TollValidationError):
    """A segment or trip index falls outside 1..n or is not ordered, or a
    count of segments is out of range.

    ``entry`` and ``exit`` name the offending trip when one was checked.
    """

    def __init__(self, message: str, entry: int | None = None, exit: int | None = None):
        super().__init__(message)
        self.entry, self.exit = entry, exit


class InvalidDensityError(TollValidationError):
    def __init__(self, density: float):
        super().__init__(f"density must lie in (0, 1], got {density!r}")
        self.density = density


class InvalidSeedError(TollValidationError):
    def __init__(self, seed: object):
        super().__init__(f"seed must be a non-negative integer, got {seed!r}")
        self.seed = seed


class BlocksNotPartitionError(TollValidationError):
    def __init__(self, reason: str):
        super().__init__(f"blocks do not partition the segment range: {reason}")


class InvalidToleranceError(TollShareError, ValueError):
    def __init__(self, tol: float):
        super().__init__(f"tolerance must be finite and non-negative, got {tol!r}")
        self.tol = tol


class InvalidTrialsError(TollShareError, ValueError):
    def __init__(self, trials: int, least: int = 0, most: int | None = None):
        below = most is None or trials < least
        bounds = f"at least {least}" if below else f"from {least} to {most}"
        super().__init__(f"trials must be {bounds}, got {trials!r}")
        self.trials, self.least, self.most = trials, least, most


class UnknownSchemeError(TollShareError, ValueError):
    def __init__(self, name: str):
        super().__init__(f"unknown weight scheme {name!r}")
        self.name = name


class UnknownMethodError(TollShareError, ValueError):
    def __init__(self, name: str):
        super().__init__(f"unknown allocation method {name!r}")
        self.name = name


class NegativeWeightError(TollShareError, ValueError):
    def __init__(self, entry: int, exit: int, segment: int, weight: float):
        super().__init__(
            f"weight for trip [{entry},{exit}] at segment {segment} "
            f"is not admissible: {weight!r}"
        )
        self.entry, self.exit, self.segment, self.weight = entry, exit, segment, weight


class OracleSizeError(TollShareError, ValueError):
    """The interval sweep or an exhaustive enumeration was requested beyond its size limit."""

    def __init__(self, n: int, limit: int, table: str = "exhaustive"):
        super().__init__(f"game has {n} segments; {table} limit is {limit}")
        self.n, self.limit = n, limit


class InvalidAllocationError(TollShareError, ValueError):
    """An allocation vector has a negative or non-finite component, or its
    sum times its length (or, for percentages, a component times 100 or its
    percent) passes the largest float."""


class VectorShapeError(TollShareError, ValueError):
    """A vector argument is not one-dimensional or has too few components."""


class TauUndefinedError(TollShareError, ArithmeticError):
    """The compromise value does not exist for this game."""


class LengthMismatchError(TollShareError, ValueError):
    def __init__(self, expected: int, got: int):
        super().__init__(f"allocation has {got} components, expected {expected}")
        self.expected, self.got = expected, got


class ZeroTotalError(TollShareError, ValueError):
    """An operation requiring a positive total was given an all-zero vector."""


class ConstantVectorError(TollShareError, ValueError):
    """Correlation is undefined for a constant vector."""


class PreconditionNotMet(TollShareError, ValueError):
    """The supplied objects do not satisfy the axiom's hypothesis."""


class NoWitnessError(TollShareError, ValueError):
    """Only a failed verdict carries a witness that can be replayed."""


class HarnessMismatchError(TollShareError):
    """A counterexample method did not fail exactly its designated axiom."""

    def __init__(self, method: str, axiom: str, detail: str):
        super().__init__(f"independence harness mismatch at ({method}, {axiom}): {detail}")
        self.method, self.axiom = method, axiom
