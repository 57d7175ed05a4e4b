"""Error types shared across the package.

Each public operation raises one of these instead of a bare ValueError so
the CLI can map failures to a stable exit code and name.
"""


class ApproxRateError(Exception):
    """Base class for all package errors."""


class InputShapeError(ApproxRateError):
    """Input vector/array has the wrong dimension or resolution."""


class EvalOverflowError(ApproxRateError):
    """A non-finite value appeared while evaluating a network."""


class CompositionError(ApproxRateError):
    """Networks cannot be combined (activation mismatch, ragged depths...)."""


class BuilderError(ApproxRateError):
    """A constructor cannot emit the requested network."""


class PrecisionError(BuilderError):
    """An internal accuracy budget underflowed; a larger eps is needed."""


class ConditioningError(BuilderError):
    """A linear system is too ill-conditioned at the requested size."""


class QuantizerError(ApproxRateError):
    """Weight out of the representable range, or search exhausted."""


class SearchExhaustedError(QuantizerError):
    """No quantization exponent up to the cap met the error target."""


class DomainError(ApproxRateError):
    """Argument outside the operation's mathematical domain."""


class RangeError(ApproxRateError):
    """A computed quantity left its admissible range."""


class FormatError(ApproxRateError):
    """Malformed size, header field, or serialized document."""


class CorruptionError(FormatError):
    """A binary stream failed its magic/length validation."""


class DegenerateWedgeError(ApproxRateError):
    """An edgelet split produced a zero-area or zero-norm side."""


class ResolutionMismatchError(ApproxRateError):
    """Two gridded objects do not share a resolution."""


class SizeError(ApproxRateError):
    """Instance too large for the exact algorithm."""
