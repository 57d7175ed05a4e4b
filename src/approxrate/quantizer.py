"""Weight discretization onto eta^m Z clamped to [-eta^-k, eta^-k].

The grid exponent m trades accuracy for bits; find_min_m searches for the
smallest exponent whose quantized network stays within eta of the original
on a dense grid.  Ties round toward zero everywhere.
"""

from __future__ import annotations

import math

import numpy as np

from .exceptions import QuantizerError, SearchExhaustedError, instance, integer, real
from .nnet import _UP, AffineStep, Network, _evaluate_bounded, evaluate_batch
from .ratelab import _SUP_GRID
from .wedgelet import _round_half_toward_zero

__all__ = [
    "quantize_weights",
    "find_min_m",
    "bits_per_weight",
    "weight_range_exponent",
    "measured_sup_error",
]


# Largest exponents k and m: the clamp range and step are eta^-k and
# eta^m, past the float range long before this at any eta <= 1/2
MAX_EXPONENT = 1 << 20
# Most sup-grid points per input dimension, and most exponents searched
MAX_GRID = 1 << 20
MAX_M_CAP = 1024


def _power(eta: float, e: int) -> float:
    """eta^e; past the float range, with the clamp tests' slack 1 + 1e-12,
    a ``QuantizerError`` where ``**`` raises an untyped OverflowError."""
    try:
        value = eta ** e
    except OverflowError:
        value = math.inf
    if math.isinf(value * (1.0 + 1e-12)):
        raise QuantizerError(f"eta^{e} is past the float range")
    return value


def _quantize_values(ws, eta: float, k: int, m: int) -> list:
    """Each weight in ``ws`` rounded to the nearest point of eta^m Z within
    the clamp range, ties toward zero, all at once.

    The cap keeps |q| <= eta^-(m+k) and representable in the declared bit
    budget; when the budget is exactly tight (eta an inverse power of two)
    the single extreme grid point is shaved off.
    """
    # checked first: while eta^-(m+k) is a float, eta^m is not 0
    q_cap = min(int(math.floor(_power(eta, -(m + k)) * (1.0 + 1e-12))),
                (1 << (bits_per_weight(eta, k, m) - 1)) - 1)
    step = eta ** m
    qs = _round_half_toward_zero(np.array(ws, dtype=float) / step).tolist()
    return [max(-q_cap, min(q_cap, int(q))) * step for q in qs]


def quantize_weights(net: Network, eta: float, k: int, m: int) -> Network:
    """Round every weight to the nearest grid point; structure preserved.

    Requires every |weight| <= eta^-k (the grid's clamp range).  A weight
    may round to exactly zero and is then dropped, so connectivity never
    increases.
    """
    instance(net, Network, QuantizerError, "net")
    eta, k, m = (real(eta, 0.0, 0.5, QuantizerError, "eta", open_lo=True),
                 integer(k, 1, MAX_EXPONENT, QuantizerError, "k and m"),
                 integer(m, 1, MAX_EXPONENT, QuantizerError, "k and m"))
    cap = _power(eta, -k)
    worst = net.max_abs_weight()
    if worst > cap * (1.0 + 1e-12):
        raise QuantizerError(
            f"max |weight| {worst:.6g} exceeds eta^-k = {cap:.6g}")
    steps = []
    for step in net.steps:
        edge_q = _quantize_values([v for _, _, v in step.edge_weights], eta, k, m)
        node_q = _quantize_values([v for _, v in step.node_weights], eta, k, m)
        edges = tuple((r, c, q) for (r, c, _), q in zip(step.edge_weights, edge_q))
        nodes = tuple((r, q) for (r, _), q in zip(step.node_weights, node_q))
        steps.append(AffineStep(step.in_dim, step.out_dim, edges, nodes))
    return Network(tuple(steps), net.activation)


def bits_per_weight(eta: float, k: int, m: int) -> int:
    """ceil((k + m) log2(1/eta)) + 1; the extra bit carries the sign.
    k < 1 or m < 1 is a ``QuantizerError``."""
    # 1/2 itself is admitted: the bit formula is exercised there
    eta, k, m = (real(eta, 0.0, 0.5, QuantizerError, "eta", open_lo=True),
                 integer(k, 1, MAX_EXPONENT, QuantizerError, "k and m"),
                 integer(m, 1, MAX_EXPONENT, QuantizerError, "k and m"))
    return int(math.ceil((k + m) * math.log2(1.0 / eta) - 1e-12)) + 1


def weight_range_exponent(net: Network, eta: float) -> int:
    """Smallest k >= 1 with max |weight| <= eta^-k."""
    instance(net, Network, QuantizerError, "net")
    eta = real(eta, 0.0, 0.5, QuantizerError, "eta", open_lo=True)
    worst = net.max_abs_weight()
    k = 1
    while _power(eta, -k) * (1.0 + 1e-12) < worst:
        k += 1
        if k > 64:
            raise QuantizerError("weights too large for any reasonable range")
    return k


def _quantization_grid(d: int, D: float, grid: int):
    """About ``grid`` points per input dimension over [-D, D]^d (d <= 2); a
    D that is not finite and positive, or a grid that is not an integer in
    1..MAX_GRID, is a ``QuantizerError``."""
    D = real(D, 0.0, math.inf, QuantizerError, "the sup grid's D", open_lo=True)
    grid = integer(grid, 1, MAX_GRID, QuantizerError, "sup grid points")
    if d == 1:
        return np.linspace(-D, D, grid)[None, :]
    if d == 2:
        side = max(2, math.isqrt(grid))
        axis = np.linspace(-D, D, side)
        xg, yg = np.meshgrid(axis, axis)
        return np.stack([xg.ravel(), yg.ravel()])
    raise QuantizerError("sup grids are provided for input dimension <= 2")


# 625 screen points at the default grid: a small share of a candidate's
# cost, and nearly every rejected m already fails there
_SCREEN_STRIDE = 16


class _Grid:
    """Points of a sup grid and one network's values there.

    The float64 values and their error bounds (``_evaluate_bounded``) are
    computed for every point at once; the double-double values
    (``evaluate_batch``) only for the columns asked for, once each.  Each
    column depends only on its own input, so a subset's values are those a
    full pass gives.
    """

    def __init__(self, net: Network, xs):
        self.net, self.xs = net, xs
        self.value, self.bound = _evaluate_bounded(net, xs)
        self.bounded = bool(np.all(np.isfinite(self.value))
                            and np.all(np.isfinite(self.bound)))
        self._dd = np.empty(self.value.shape)
        self.known = np.zeros(xs.shape[1], dtype=bool)

    def dd(self, cols):
        """Double-double values at the columns of the boolean mask ``cols``."""
        todo = cols & ~self.known
        if todo.any():
            self._dd[:, todo] = evaluate_batch(self.net, self.xs[:, todo])
            self.known |= todo
        return self._dd[:, cols]


def _dd_error(q: _Grid, ref: _Grid, cols) -> float:
    """max |q - ref| in double-double over the columns ``cols`` (NaN if any
    difference is NaN); the reference is evaluated first."""
    r = ref.dd(cols)
    return float(np.max(np.abs(q.dd(cols) - r), initial=0.0))


def _error_bounds(q: _Grid, ref: _Grid):
    """(lo, hi) per column with lo <= |q - ref| <= hi in double-double,
    exactly, at the column's worst output.

    Where either grid is not bounded every column gets (0, inf), so the
    whole grid is evaluated in double-double.
    """
    if not (q.bounded and ref.bounded):
        n = q.xs.shape[1]
        return np.zeros(n), np.full(n, np.inf)
    diff = np.abs(q.value - ref.value)
    slack = q.bound + ref.bound
    # rounded outward: _UP dwarfs the rounding of these few operations
    lo = (diff * (2.0 - _UP) - slack * _UP) * (2.0 - _UP)
    hi = (diff + slack) * _UP
    return lo.max(axis=0), hi.max(axis=0)


def _within(q: _Grid, ref: _Grid, eta: float) -> bool:
    """Whether every double-double error |q - ref| is at most eta (false on
    NaN), evaluated in double-double only where the bounds leave it open:
    false if some lower bound is above eta, true if every upper bound is
    at most eta, and otherwise read at the points whose upper bound is not."""
    lo, hi = _error_bounds(q, ref)
    # an error above the float after eta rounds to more than eta
    if np.any(lo > np.nextafter(eta, 1.0) * _UP):
        return False
    doubt = hi > eta
    return not doubt.any() or _dd_error(q, ref, doubt) <= eta


def _sup_error(q: _Grid, ref: _Grid) -> float:
    """max |q - ref| over the grid in double-double, the float a full pass
    gives, evaluated where the bounds leave the maximum open.

    Its floor is the largest lower bound or double-double error already
    known; a point whose upper bound is below that floor has a smaller
    error, so only the points whose upper bound reaches it are read.
    """
    lo, hi = _error_bounds(q, ref)
    floor = max(np.max(lo, initial=0.0), _dd_error(q, ref, q.known))
    return _dd_error(q, ref, hi >= floor)


def measured_sup_error(qnet: Network, net: Network, D: float) -> float:
    """max |qnet - net| on the grid find_min_m searches by default; D must
    be finite and > 0 (``QuantizerError``)."""
    instance(qnet, Network, QuantizerError, "qnet")
    instance(net, Network, QuantizerError, "net")
    xs = _quantization_grid(net.input_dim, D, _SUP_GRID)
    return _sup_error(_Grid(qnet, xs), _Grid(net, xs))


def find_min_m(net: Network, eta: float, k: int, D: float, grid: int = _SUP_GRID,
               m_cap: int = 64) -> int:
    """Smallest m in [1, m_cap] with sup-grid quantization error <= eta.

    The theory guarantees some m works for acceptable activations; the
    sharp value is network-specific, so we search instead of trusting the
    proof's constants.  The grid covers [-D, D]^d with about ``grid``
    points per input dimension (d <= 2); D must be finite and > 0
    (``QuantizerError``).  The error is that of the double-double
    evaluator, ``evaluate_batch``.

    Each m is screened on every 16th grid point first and rejected there
    if the screen alone exceeds eta; only an m that passes is evaluated on
    the remaining points.  On each part the quantized net and the original
    are first evaluated in float64 with a rigorous bound on their distance
    from the double-double values (``nnet._evaluate_bounded``): an m is
    rejected if some point's error is provably above eta, passed if every
    point's is provably at most eta, and otherwise evaluated in
    double-double at the points still in doubt.  The evaluator works point
    by point, so every error read is that of a full-grid pass and the
    returned m is the one a full-grid search returns.  The accepted m's
    error (``quantize --auto`` reports it) is still the double-double grid
    maximum: it is read in double-double at every point whose upper bound
    reaches a known lower bound on that maximum, and no other point can
    exceed it.  A part on which the bound cannot be given (see
    ``nnet._evaluate_bounded``) is evaluated in double-double whole.
    """
    return _search_min_m(net, eta, k, D, grid, m_cap)[0]


def _search_min_m(net: Network, eta: float, k: int, D: float, grid: int = _SUP_GRID,
                  m_cap: int = 64):
    """``find_min_m``'s search: (m, its sup-grid quantization error).

    The error is the larger of the screen's and the rest's, each read by
    the routine ``measured_sup_error`` uses, so it is the full grid's
    double-double maximum, and at the default grid equals
    ``measured_sup_error`` of the quantized net.
    """
    instance(net, Network, QuantizerError, "net")
    eta = real(eta, 0.0, 0.5, QuantizerError, "eta", open_lo=True)
    k = integer(k, 1, MAX_EXPONENT, QuantizerError, "k")
    m_cap = integer(m_cap, 1, MAX_M_CAP, QuantizerError, "m_cap")
    xs = _quantization_grid(net.input_dim, D, grid)
    on_screen = np.arange(xs.shape[1]) % _SCREEN_STRIDE == 0
    refs = [_Grid(net, xs[:, on_screen]), _Grid(net, xs[:, ~on_screen])]
    for ref in refs:
        if not ref.bounded:  # read whole later; up front, as a full pass would
            ref.dd(np.ones(ref.xs.shape[1], dtype=bool))
    for m in range(1, m_cap + 1):
        qnet = quantize_weights(net, eta, k, m)
        # the rest is evaluated only when the screen passes; NaN errors reject
        qs = []
        for ref in refs:
            qs.append(_Grid(qnet, ref.xs))
            if not _within(qs[-1], ref, eta):
                break
        else:
            return m, max(map(_sup_error, qs, refs))
    raise SearchExhaustedError(
        f"no m <= {m_cap} met the target (net likely ill-conditioned)")
