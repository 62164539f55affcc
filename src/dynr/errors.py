"""Exception types shared across the package.

Numeric evaluation refuses to operate near poles or with divergent series
instead of returning garbage; callers (samplers, the CLI) catch the refusal
and resample or report a numeric failure.
"""


class DynrError(Exception):
    """Base class for all package errors."""


class UnsupportedType(DynrError):
    """Root system series/rank outside the supported finite types."""


class ConstructionFailure(DynrError):
    """Internal consistency check failed while building an algebra."""


class AlgebraMismatch(DynrError):
    """Tensors over different algebras were combined."""


class SpecInvalid(DynrError):
    """An r-matrix description violates its family's constraints."""


class NumericFailure(DynrError):
    """Base of the numeric refusals (CLI exit 3): no trustworthy value at a valid input."""


class PoleProximity(NumericFailure):
    """Evaluation point too close to a pole of a meromorphic coefficient."""


class NonFiniteValue(NumericFailure):
    """A computed result overflowed to inf or nan."""


class ConvergenceFailure(NumericFailure):
    """A series cannot reach the requested accuracy within its cutoff."""


class TooLarge(DynrError):
    """Exhaustive enumeration refused for oversized input."""


class PropertyViolated(DynrError):
    """A root subset fails a stated precondition (closure / no opposite pairs)."""


class SearchExhausted(DynrError):
    """A feasibility search ran out of budget (indicates a bug, not math)."""


class SubalgebraInvalid(DynrError):
    """Root subset does not define a reductive subalgebra containing h."""


class SamplingExhausted(NumericFailure):
    """Could not find pole-free sample points within the resample budget."""
