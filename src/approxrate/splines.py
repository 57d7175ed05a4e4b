"""Cardinal B-splines: exact closed form plus an independent quadrature oracle.

N_1 is the unit indicator (value 1 at both endpoints); N_m is defined by
the convolution recursion N_m = N_{m-1} * N_1.  The closed form is a
piecewise polynomial evaluated by Horner with exact-integer coefficients;
the oracle re-derives values purely from the recursion with composite
Simpson steps and never touches the closed form.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, floor, inf

import numpy as np

from .exceptions import DomainError, SizeError, array, integer, real

__all__ = [
    "bspline_closed",
    "bspline_closed_many",
    "bspline_convolve_oracle",
    "bspline_oracle_on_grid",
    "partition_of_unity_residual",
]

# Largest order m: the exact coefficients of N_m take O(m^2) rationals a
# piece, and float Horner loses the values long before this order
MAX_ORDER = 32
# Most nodes of one level of the oracle's lattice (8 MiB of floats)
_MAX_LATTICE = 1 << 20
_MAX_QUAD = 1 << 12


@lru_cache(maxsize=None)
def _piece_coeffs(m: int, piece: int) -> tuple:
    """Exact coefficients of N_m(piece + t) in powers of t on [0, 1]."""
    coeffs = [Fraction(0)] * m
    fact = Fraction(1, factorial(m - 1))
    for j in range(piece + 1):
        sign = -1 if j % 2 else 1
        base = piece - j  # (x - j) = t + base on this piece
        for p in range(m):
            coeffs[p] += fact * sign * comb(m, j) * comb(m - 1, p) * base ** (m - 1 - p)
    return tuple(float(c) for c in coeffs)


def bspline_closed(m: int, x: float) -> float:
    """Value of N_m at x; zero outside [0, m].  m is an integer in
    1..MAX_ORDER and x a finite number (``DomainError``)."""
    # fast paths for an int m and a float x (numpy floats included): the
    # certificates call this once per point
    if type(m) is not int or not 1 <= m <= MAX_ORDER:
        m = integer(m, 1, MAX_ORDER, DomainError, "B-spline order m")
    x = float(x) if isinstance(x, float) else real(x, -inf, inf, DomainError, "x")
    if x - x != 0.0:  # refuses NaN and +-inf
        real(x, -inf, inf, DomainError, "x")
    if m == 1:
        return 1.0 if 0.0 <= x <= 1.0 else 0.0
    if x < 0.0 or x > m:
        return 0.0
    piece = min(int(floor(x)), m - 1)
    t = x - piece
    acc = 0.0
    for c in reversed(_piece_coeffs(m, piece)):
        acc = acc * t + c
    return acc


def bspline_closed_many(m: int, xs) -> np.ndarray:
    """``bspline_closed`` at every finite entry of xs, flattened."""
    m = integer(m, 1, MAX_ORDER, DomainError, "B-spline order m")
    return np.array([bspline_closed(m, x)
                     for x in array(xs, None, DomainError, "xs").ravel().tolist()])


def partition_of_unity_residual(m: int, x: float) -> float:
    """|sum_n N_m(x + n) - 1| over the finitely many contributing shifts."""
    m = integer(m, 1, MAX_ORDER, DomainError, "B-spline order m")
    x = real(x, -inf, inf, DomainError, "x")
    total = sum(bspline_closed(m, x + n) for n in range(-m, m + 1))
    return abs(total - 1.0)


def _indicator_sided(idx_from_zero: np.ndarray, steps_per_unit: int):
    """One-sided values of the unit indicator at exact lattice positions.

    ``idx_from_zero`` holds integers p with u = p / steps_per_unit; the
    right-limit is 1 on [0, 1) and the left-limit 1 on (0, 1], which is
    what per-step quadrature of the open steps needs at step edges.
    """
    p = idx_from_zero
    right = ((p >= 0) & (p < steps_per_unit)).astype(float)
    left = ((p > 0) & (p <= steps_per_unit)).astype(float)
    return right, left


def bspline_oracle_on_grid(m: int, xs, quad_points: int = 256) -> np.ndarray:
    """Oracle values of N_m at points lying on a common 1/quad_points grid.

    Levels k = 1..m are tabulated bottom-up on nested lattices (each level
    twice as fine as the one above); every level-k value is the composite
    Simpson integral of level k-1 over one unit, one step at a time, with
    one-sided edge values so the indicator's jumps cost nothing.  Accuracy
    is certified only for x on the 1/quad_points lattice, where all kinks
    land on step edges.  m is an integer in 1..MAX_ORDER, quad_points one
    in 32..4096 and xs finite (``DomainError``); an x beyond +-2^20 or a
    lattice of more than 2^20 nodes is a ``SizeError``.
    """
    m = integer(m, 1, MAX_ORDER, DomainError, "B-spline order m")
    q = integer(quad_points, 32, _MAX_QUAD, DomainError, "quad_points")
    xs = array(xs, None, DomainError, "xs").ravel()
    if xs.size == 0:
        return np.zeros(0)
    if m == 1:
        return np.array([1.0 if 0.0 <= x <= 1.0 else 0.0 for x in xs])

    real(float(np.max(np.abs(xs))), 0.0, _MAX_LATTICE, SizeError, "largest |x|")
    x_hi = float(np.max(xs))
    # level k lattice: points x_hi - i * s_k with s_k = 1 / (q * 2^(m-k)),
    # spanning [min(xs) - (m - k), x_hi]; all sizes derive from the same
    # integer span so the nesting identity 2*(n_k - 1) + 1/s_{k-1} = n_{k-1} - 1
    # holds exactly.
    span_lo = float(np.min(xs))
    steps = real((x_hi - span_lo) * q, 0.0, _MAX_LATTICE, SizeError, "lattice span")
    g_steps = int(np.ceil(steps - 1e-9))

    def lattice_size(k):
        s_inv = q * (1 << (m - k))
        return (g_steps + (m - k) * q) * (1 << (m - k)) + 1, s_inv

    n1, s1_inv = lattice_size(1)
    integer(n1, 1, _MAX_LATTICE, SizeError, "oracle lattice size")
    i1 = np.arange(n1)
    # exact integer test when x_hi sits on the level-1 lattice
    pos = x_hi * s1_inv
    pos_round = round(pos)
    if abs(pos - pos_round) < 1e-9:
        p = pos_round - i1
        right, left = _indicator_sided(p, s1_inv)
    else:  # off-grid anchor: float comparisons, reduced accuracy
        u = x_hi - i1 / s1_inv
        right = ((u >= 0.0) & (u < 1.0)).astype(float)
        left = ((u > 0.0) & (u <= 1.0)).astype(float)
    mid = right.copy()  # interior lattice points are continuity points

    for k in range(2, m + 1):
        nk, sk_inv = lattice_size(k)
        u_steps = 2 * (sk_inv)  # previous-level lattice steps per unit: 1/s_{k-1}
        w = 1.0 / sk_inv  # integration step width = s_k
        # value at lattice index i integrates level k-1 indices 2i .. 2i+U
        even_r = np.cumsum(right[0::2])
        even_l = np.cumsum(left[0::2])
        odd_m = np.cumsum(mid[1::2])
        idx = np.arange(nk)
        half_u = u_steps // 2  # number of integration steps per unit
        # right-limit edges at odd? no: edges are even lattice indices
        hi_e = idx + half_u  # even-array index of lattice index 2i+U
        lo_e = idx  # even-array index of lattice index 2i
        sum_right = even_r[hi_e] - even_r[lo_e]  # edges 2i+2 .. 2i+U (left ends)
        sum_left = even_l[hi_e - 1] - (np.where(lo_e > 0, even_l[lo_e - 1], 0.0))
        sum_mid = odd_m[hi_e - 1] - np.where(lo_e > 0, odd_m[lo_e - 1], 0.0)
        vals = (w / 6.0) * (sum_right + 4.0 * sum_mid + sum_left)
        right = left = mid = vals

    # read off requested points on the level-m lattice
    sm_inv = q
    out = np.empty_like(xs)
    for j, x in enumerate(xs):
        i = (x_hi - x) * sm_inv
        i_round = int(round(i))
        if abs(i - i_round) > 1e-6:
            # fall back to a dedicated single-point pass anchored at x
            out[j] = bspline_oracle_on_grid(m, [x], q)[0]
        else:
            out[j] = vals[i_round] if 0 <= i_round < len(vals) else 0.0
    return out


def bspline_convolve_oracle(m: int, x: float, quad_points: int = 256) -> float:
    """Single-point oracle; see ``bspline_oracle_on_grid``."""
    x = real(x, -inf, inf, DomainError, "x")
    return float(bspline_oracle_on_grid(m, [x], quad_points)[0])
