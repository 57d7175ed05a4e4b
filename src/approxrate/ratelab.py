"""Error measurement, log-log rate fitting, and the Hamming covering oracle.

Rate exponents here are empirical: a finite (size, error) sample and an
ordinary least-squares slope stand in for suprema that cannot be computed.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .exceptions import (
    DomainError,
    InputShapeError,
    ResolutionMismatchError,
    SizeError,
    array,
    integer,
    real,
    sequence,
)
from .nnet import Network, evaluate_batch

__all__ = [
    "RateReport",
    "sup_error_on_grid",
    "l2_error_quad",
    "l2_error_pixels",
    "fit_rate",
    "covering_distortion_exact",
    "covering_distortion_greedy",
]


def _as_callable(obj):
    """Values on a 1-d grid; a network gives one row per output."""
    if isinstance(obj, Network):
        return lambda xs: evaluate_batch(obj, np.asarray(xs)[None, :])
    if callable(obj):
        return lambda xs: np.array([obj(x) for x in np.asarray(xs).ravel()])
    raise InputShapeError("expected a Network or a callable target")


_SUP_GRID = 10_000  # sup-grid points, for the build certificates and quantize
_L2_PANELS = 2048  # Simpson panels of l2_error_quad


def sup_error_on_grid(candidate, target, lo, hi) -> float:
    """Max abs difference on a uniform grid of ``_SUP_GRID`` points over
    [lo, hi], over every output of a network.  Bounds that are not finite,
    or lo > hi, are a ``DomainError``."""
    lo = real(lo, -math.inf, math.inf, DomainError, "lo")
    hi = real(hi, lo, math.inf, DomainError, "hi")
    xs = np.linspace(lo, hi, _SUP_GRID)
    return float(np.max(np.abs(_as_callable(candidate)(xs) - _as_callable(target)(xs))))


def _simpson_weights(panels: int):
    w = np.ones(2 * panels + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w


def l2_error_quad(candidate, target, lo, hi) -> float:
    """L2 distance on [lo, hi] by composite Simpson quadrature; the squared
    differences of a network's outputs are summed.  Bounds that are not
    finite, or lo > hi, are a ``DomainError``."""
    lo = real(lo, -math.inf, math.inf, DomainError, "lo")
    hi = real(hi, lo, math.inf, DomainError, "hi")
    xs = np.linspace(lo, hi, 2 * _L2_PANELS + 1)
    diff = _as_callable(candidate)(xs) - _as_callable(target)(xs)
    squares = (diff * diff).reshape(-1, xs.size).sum(axis=0)
    h = (hi - lo) / _L2_PANELS
    val = h / 6.0 * float(np.dot(_simpson_weights(_L2_PANELS), squares))
    return math.sqrt(max(val, 0.0))


def l2_error_pixels(a, b) -> float:
    """L2 distance of two pixel arrays viewed as functions on [0,1]^2; an
    entry that is not finite is a ``DomainError``."""
    a = array(a, None, (InputShapeError, DomainError), "pixel array")
    b = array(b, None, (InputShapeError, DomainError), "pixel array")
    if a.shape != b.shape:
        raise ResolutionMismatchError(f"shapes {a.shape} and {b.shape} differ")
    return float(np.sqrt(np.mean((a - b) ** 2)))


@dataclass(frozen=True)
class RateReport:
    """Log-log regression of error against size: error ~ size^slope."""

    samples: tuple
    fitted_slope: float
    intercept: float
    r_squared: float


def fit_rate(samples) -> RateReport:
    """OLS on (log size, log error): the fitted slope and its R^2.

    Fewer than 3 samples, sizes not strictly increasing, or a size or
    error that is not finite and positive is a ``DomainError``.
    """
    samples = [(real(s, 0.0, math.inf, DomainError, "size", open_lo=True),
                real(e, 0.0, math.inf, DomainError, "error", open_lo=True))
               for s, e in (sequence(pair, DomainError, "sample")
                            for pair in sequence(samples, DomainError, "samples"))]
    if len(samples) < 3:
        raise DomainError("need at least 3 samples to fit a rate")
    sizes = np.array([s for s, _ in samples])
    errors = np.array([e for _, e in samples])
    if np.any(sizes[1:] <= sizes[:-1]):
        raise DomainError("sizes must be strictly increasing")
    lx, ly = np.log(sizes), np.log(errors)
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    total = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid ** 2)) / total if total > 0 else 1.0
    return RateReport(tuple(samples), float(slope), float(intercept), r2)


def _popcount_matrix(words, codebook):
    x = np.bitwise_xor(words[:, None], codebook[None, :])
    return np.bitwise_count(x)


# Largest cube dimension of the greedy, most codebook bits R (2^R slots,
# each scoring a pool of up to 1024 words on up to 2^14 samples) and most
# restarts
MAX_GREEDY_M = 24
MAX_GREEDY_R = 16
MAX_RESTARTS = 1024


def covering_distortion_exact(m: int, R: int) -> float:
    """Exact min over all 2^R-point codebooks of the mean Hamming distance.

    Exhaustive over all C(2^m, 2^R) codebooks; guarded to m <= 4, R <= 3.
    An m or R that is not an integer, m < 1 or R outside 0..m is a
    ``DomainError``; m > 4 or R > 3 a ``SizeError``.
    """
    m = integer(m, 1, None, DomainError, "m")
    R = integer(R, 0, m, DomainError, "R")
    integer(m, 1, 4, SizeError, "m of the exact search (use greedy)")
    integer(R, 0, 3, SizeError, "R of the exact search (use greedy)")
    words = np.arange(1 << m, dtype=np.uint32)
    size = 1 << R
    best = math.inf
    for combo in itertools.combinations(range(1 << m), size):
        dist = _popcount_matrix(words, np.array(combo, dtype=np.uint32))
        best = min(best, float(dist.min(axis=1).mean()))
    return best


_BLOCK = 256  # sample rows scored at once: 256 * 24 < 2**16 keeps uint16 sums exact


def _nearest_sums(sample, near, pool):
    """For every candidate p in ``pool``, the int64 sum over rows s of
    min(near[s], |sample[s] xor p|).

    Rows go ``_BLOCK`` at a time through buffers every block reuses, so no
    sample-by-pool array is built.
    """
    total = np.zeros(len(pool), dtype=np.int64)
    xor = np.empty((_BLOCK, len(pool)), dtype=np.uint32)
    dist = np.empty((_BLOCK, len(pool)), dtype=np.uint8)
    col = np.empty(len(pool), dtype=np.uint16)
    for lo in range(0, len(sample), _BLOCK):
        block = sample[lo:lo + _BLOCK]
        x, d = xor[:len(block)], dist[:len(block)]
        np.bitwise_xor(block[:, None], pool[None, :], out=x)
        np.bitwise_count(x, out=d)
        np.minimum(d, near[lo:lo + _BLOCK, None], out=d)
        total += d.sum(axis=0, dtype=np.uint16, out=col)
    return total


def covering_distortion_greedy(m: int, R: int, restarts: int = 8,
                               seed: int = 0) -> float:
    """Greedy upper bound on the covering distortion, best of restarts.

    Forward selection: each slot adds the candidate that minimizes the
    running mean nearest-codeword distance.  On large cubes both the
    candidate pool and the scoring words are seeded subsamples, but the
    reported distortion is always the exact mean over the whole cube for
    the codebook actually built, so the value is a true upper bound.

    A slot scores its sample in blocks of ``_BLOCK`` rows whose column sums
    are exact in uint16 (``_BLOCK * m < 2**16``); the candidates' integer
    totals, and so the codebook and the result, are independent of the
    block size.  An m that is not an integer in 1..MAX_GREEDY_M, an R not
    one in 0..min(m, MAX_GREEDY_R), ``restarts`` not one in
    1..MAX_RESTARTS, or a seed that is not an integer >= 0, is a
    ``DomainError``.
    """
    m = integer(m, 1, MAX_GREEDY_M, DomainError, "m")
    R = integer(R, 0, min(m, MAX_GREEDY_R), DomainError, "R")
    restarts = integer(restarts, 1, MAX_RESTARTS, DomainError, "restarts")
    seed = integer(seed, 0, None, DomainError, "seed")
    words = np.arange(1 << m, dtype=np.uint32)
    size = 1 << R
    pool_cap, sample_cap = 1024, 1 << 14
    rng = np.random.default_rng(seed)
    best = math.inf
    for _ in range(restarts):
        current = np.full(len(words), m, dtype=np.uint8)
        for slot in range(size):
            pool = words if len(words) <= pool_cap else \
                rng.choice(words, size=pool_cap, replace=False)
            sample = words if len(words) <= sample_cap else \
                rng.choice(words, size=sample_cap, replace=False)
            if slot == 0 and len(words) > pool_cap:
                pool = rng.choice(words, size=1)
            # integer sums rank candidates as the means would: exact, and
            # the sample size is the same for every candidate
            sums = _nearest_sums(sample, current[sample], pool)
            pick = int(pool[int(np.argmin(sums))])
            current = np.minimum(
                current, np.bitwise_count(np.bitwise_xor(words, np.uint32(pick))))
        best = min(best, float(current.mean()))
    return best
