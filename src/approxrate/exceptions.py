"""Error types shared across the package.

Each public operation raises one of these instead of a bare ValueError so
the CLI can map failures to a stable exit code and name.  The helpers at
the end are the one argument check of every public entry.
"""

import math
import numbers
import operator

import numpy as np


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


# The argument contract.  Every public entry states its domain through
# these checks.  ``error`` is the class raised, or a pair (class for an
# argument of the wrong kind, class for a value outside the domain).


def _errors(error):
    return error if isinstance(error, tuple) else (error, error)


def integer(x, lo, hi, error, name):
    """x as an int in lo..hi (None: no bound on that side): an int or a
    numpy integer, never a bool."""
    if type(x) is not int:
        try:
            if isinstance(x, bool):
                raise TypeError
            x = operator.index(x)
        except TypeError:
            raise _errors(error)[0](f"expected an integer {name}, got {x!r}") from None
    if lo is not None and x < lo:
        raise _errors(error)[1](f"{name} must be >= {lo}, got {x}")
    if hi is not None and x > hi:
        raise _errors(error)[1](f"{name} must be <= {hi}, got {x}")
    return x


def real(x, lo, hi, error, name, open_lo=False, open_hi=False):
    """x as a finite float in the interval from lo to hi, each end closed
    unless ``open_lo`` / ``open_hi``: an int, float or numpy number, never
    a bool."""
    if type(x) is not float:
        if isinstance(x, bool) or not isinstance(x, numbers.Real):
            raise _errors(error)[0](f"expected a number {name}, got {x!r}")
        try:
            x = float(x)
        except OverflowError:
            raise _errors(error)[1](f"{name} {x!r} is beyond the float range") from None
    if not (math.isfinite(x) and (lo < x if open_lo else lo <= x)
            and (x < hi if open_hi else x <= hi)):
        span = f"{'(' if open_lo else '['}{lo:g}, {hi:g}{')' if open_hi else ']'}"
        raise _errors(error)[1](f"{name} must be a finite number in {span}, got {x!r}")
    return x


def instance(x, cls, error, name):
    """x itself, which must be an instance of ``cls``."""
    if not isinstance(x, cls):
        kinds = " or ".join(c.__name__ for c in (cls if isinstance(cls, tuple) else (cls,)))
        raise error(f"expected a {kinds} as {name}, got {type(x).__name__}")
    return x


def array(x, shape, error, name):
    """x as a float ndarray with only finite entries, of ``shape`` (None:
    any shape; a None entry: any length on that axis).  ``name`` may hold
    ``{}`` fields, which the messages fill with the shape's entries."""
    try:
        a = np.asarray(x, dtype=float)
    except (TypeError, ValueError):
        a = None
    if a is None or shape is not None and (a.ndim != len(shape) or any(
            want is not None and want != got for want, got in zip(shape, a.shape))):
        got = type(x).__name__ if a is None else a.shape
        raise _errors(error)[0](f"expected {_fill(name, shape)}, got {got}")
    if not np.all(np.isfinite(a)):
        raise _errors(error)[1](f"{_fill(name, shape)} contains non-finite entries")
    return a


def _fill(name, shape):
    return name.format(*("n" if w is None else w for w in shape or ()))


def sequence(x, error, name):
    """x as a tuple: any iterable but a str or bytes."""
    if not isinstance(x, (str, bytes)):
        try:
            return tuple(x)
        except TypeError:
            pass
    raise error(f"expected a sequence as {name}, got {type(x).__name__}")
