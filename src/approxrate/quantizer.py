"""Weight discretization onto eta^m Z clamped to [-eta^-k, eta^-k].

The grid exponent m trades accuracy for bits; find_min_m searches for the
smallest exponent whose quantized network stays within eta of the original
on a dense grid.  Ties round toward zero everywhere.
"""

from __future__ import annotations

import math

import numpy as np

from .exceptions import QuantizerError, SearchExhaustedError
from .nnet import AffineStep, Network, evaluate_batch
from .wedgelet import _round_half_toward_zero

__all__ = [
    "quantize_weights",
    "find_min_m",
    "bits_per_weight",
    "weight_range_exponent",
    "measured_sup_error",
]


def _check_eta(eta):
    # 1/2 itself is admitted: the bit formula is exercised there
    if not (0.0 < eta <= 0.5):
        raise QuantizerError("eta must lie in (0, 1/2]")


def quantize_value(w: float, eta: float, k: int, m: int) -> float:
    """Nearest point of eta^m Z within the clamp range, ties toward zero.

    The cap keeps |q| <= eta^-(m+k) and representable in the declared bit
    budget; when the budget is exactly tight (eta an inverse power of two)
    the single extreme grid point is shaved off.
    """
    return _quantize_values([w], eta, k, m)[0]


def _quantize_values(ws, eta: float, k: int, m: int) -> list:
    """``quantize_value`` of each weight in ``ws``, rounded all at once."""
    step = eta ** m
    qs = _round_half_toward_zero(np.array(ws, dtype=float) / step).tolist()
    q_cap = min(int(math.floor(eta ** (-(m + k)) * (1.0 + 1e-12))),
                (1 << (bits_per_weight(eta, k, m) - 1)) - 1)
    return [max(-q_cap, min(q_cap, int(q))) * step for q in qs]


def quantize_weights(net: Network, eta: float, k: int, m: int) -> Network:
    """Round every weight to the nearest grid point; structure preserved.

    Requires every |weight| <= eta^-k (the grid's clamp range).  A weight
    may round to exactly zero and is then dropped, so connectivity never
    increases.
    """
    _check_eta(eta)
    if k < 1 or m < 1:
        raise QuantizerError("k and m must be >= 1")
    cap = eta ** (-k)
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
    """ceil((k + m) log2(1/eta)) + 1; the extra bit carries the sign."""
    _check_eta(eta)
    return int(math.ceil((k + m) * math.log2(1.0 / eta) - 1e-12)) + 1


def weight_range_exponent(net: Network, eta: float) -> int:
    """Smallest k >= 1 with max |weight| <= eta^-k."""
    _check_eta(eta)
    worst = net.max_abs_weight()
    k = 1
    while eta ** (-k) * (1.0 + 1e-12) < worst:
        k += 1
        if k > 64:
            raise QuantizerError("weights too large for any reasonable range")
    return k


def _quantization_grid(d: int, D: float, grid: int):
    if int(grid) < 1:
        raise QuantizerError("the sup grid needs at least one point")
    if d == 1:
        return np.linspace(-float(D), float(D), int(grid))[None, :]
    if d == 2:
        side = max(2, int(math.isqrt(int(grid))))
        axis = np.linspace(-float(D), float(D), side)
        xg, yg = np.meshgrid(axis, axis)
        return np.stack([xg.ravel(), yg.ravel()])
    raise QuantizerError("sup grids are provided for input dimension <= 2")


_SUP_GRID = 10_000  # find_min_m's default, and the grid quantize reports on

# 625 screen points at the default grid: a small share of a candidate's
# cost, and nearly every rejected m already fails there
_SCREEN_STRIDE = 16


def _sup_error(net: Network, xs, ref) -> float:
    return float(np.max(np.abs(evaluate_batch(net, xs) - ref), initial=0.0))


def measured_sup_error(qnet: Network, net: Network, D: float) -> float:
    """max |qnet - net| on the grid find_min_m searches by default."""
    xs = _quantization_grid(net.input_dim, D, _SUP_GRID)
    return _sup_error(qnet, xs, evaluate_batch(net, xs))


def find_min_m(net: Network, eta: float, k: int, D: float, grid: int = _SUP_GRID,
               m_cap: int = 64) -> int:
    """Smallest m in [1, m_cap] with sup-grid quantization error <= eta.

    The theory guarantees some m works for acceptable activations; the
    sharp value is network-specific, so we search instead of trusting the
    proof's constants.  The grid covers [-D, D]^d with about ``grid``
    points per input dimension (d <= 2).

    Each m is screened on every 16th grid point first and rejected there
    if the screen alone exceeds eta; only an m that passes is evaluated on
    the remaining points.  The evaluator works point by point, so the
    screen's errors are those of a full-grid pass and the returned m is
    the one a full-grid search returns.
    """
    return _search_min_m(net, eta, k, D, grid, m_cap)[0]


def _search_min_m(net: Network, eta: float, k: int, D: float, grid: int = _SUP_GRID,
                  m_cap: int = 64):
    """``find_min_m``'s search: (m, its sup-grid quantization error).

    The error is the larger of the screen's and the rest's, so it is the
    full grid's, and at the default grid equals ``measured_sup_error`` of
    the quantized net.
    """
    _check_eta(eta)
    xs = _quantization_grid(net.input_dim, D, grid)
    on_screen = np.arange(xs.shape[1]) % _SCREEN_STRIDE == 0
    screen, rest = [(part, evaluate_batch(net, part))
                    for part in (xs[:, on_screen], xs[:, ~on_screen])]
    for m in range(1, m_cap + 1):
        qnet = quantize_weights(net, eta, k, m)
        # the rest is evaluated only when the screen passes; NaN errors reject
        screen_error = _sup_error(qnet, *screen)
        if screen_error <= eta:
            rest_error = _sup_error(qnet, *rest)
            if rest_error <= eta:
                return m, max(screen_error, rest_error)
    raise SearchExhaustedError(
        f"no m <= {m_cap} met the target (net likely ill-conditioned)")
