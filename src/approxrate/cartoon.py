"""Star-shaped cartoon functions and the flower-petal hypercube family.

A star function is the indicator of a region around a center, described by
a positive 2pi-periodic polar radius.  The petal construction perturbs a
disc by m orthogonal bumps of equal L2 norm delta; vertex functions of the
resulting hypercube stay inside the Hoelder class they were built for.

Pixel arrays live on [0,1]^2, row i covering the y-band [i/n, (i+1)/n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import (
    DomainError,
    FormatError,
    InputShapeError,
    RangeError,
    instance,
    integer,
    real,
    sequence,
)
from .ratelab import _simpson_weights
from .wedgelet import _pixel_scale, _sample_offsets

__all__ = [
    "RadiusFunction",
    "StarFunction",
    "HypercubeSpec",
    "MembershipReport",
    "petal_generator_seminorm",
    "make_hypercube",
    "vertex_function",
    "holder_seminorm",
    "star_membership",
    "rasterize",
    "petal_window",
]

TWO_PI = 2.0 * math.pi
_RASTER_CHUNK = 1 << 18  # samples per rasterize step, which bounds its memory
MAX_SUPERSAMPLE = 64  # samples per pixel side; 4096 samples per pixel at most
# Most petals: at m = 4096 a petal's arc on the r0 = 1/4 disc is narrower
# than a pixel of the finest grid rasterize draws (n = 4096), and the radius
# loops over its petals in Python
MAX_PETALS = 4096
# Most grid angles of holder_seminorm, per petal
_MAX_ANGLES = 1 << 16


def _bump(u):
    """Generator bump sin(u/2) on [0, 2pi], +0.0 off it; a NaN u stays NaN."""
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    return np.sin(0.5 * u, out=out, where=~((u < 0.0) | (u > TWO_PI)))


def _bump_deriv(u):
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    return 0.5 * np.cos(0.5 * u, out=out, where=~((u < 0.0) | (u > TWO_PI)))


@dataclass(frozen=True)
class RadiusFunction:
    """Polar radius: r0 plus a sum of petal bumps (a disc has none).

    Petals are (index i, count m, amplitude A, beta); petal i occupies the
    arc [2 pi i / m, 2 pi (i+1) / m] taken modulo 2 pi, so i = m wraps onto
    [0, 2 pi / m].
    """

    r0: float
    petals: tuple = ()  # of (i, m, A, beta)

    def __post_init__(self):
        # r0, A and beta may be any numbers: bounds() handles non-finite ones
        petals = sequence(self.petals, DomainError, "petals")
        for petal in petals:
            i, m, _, _ = sequence(petal, DomainError, "petal")
            integer(i, None, None, DomainError, "petal index i")
            integer(m, 1, MAX_PETALS, DomainError, "petal count m")
        object.__setattr__(self, "petals", petals)

    def __call__(self, theta):
        theta = np.asarray(theta, dtype=float)
        out = np.full_like(theta, self.r0)
        for i, m, A, beta in self.petals:
            u = m * np.mod(theta - TWO_PI * i / m, TWO_PI)
            out = out + A * m ** (-beta) * _bump(u)
        return out

    def bounds(self):
        """(lo, hi) with lo <= self(theta) <= hi at every float theta, or None.

        Each petal adds c * bump with c = A m^-beta and the bump in [0, 1],
        so lo is r0 plus the negative c and hi r0 plus the positive ones.
        When all petals share one integer m and distinct i mod m, their arcs
        meet only at endpoints, where the float error of the bump's argument
        leaves a neighbour below m (|2 pi i / m| + 4 pi) 2^-44; hi is then
        r0 plus the largest c plus that share of the positive ones, if that
        is tighter.  Both carry a slack for the rounding of the sum.  None
        when a bound is not finite (a non-finite r0 or coefficient).
        """
        r0 = float(self.r0)
        cs, phis = [], []
        for i, m, A, beta in self.petals:  # the expressions __call__ evaluates
            phis.append(abs(TWO_PI * i / m))
            cs.append(float(A * m ** (-beta)))
        slack = 2.0 ** -44 * len(cs) * (abs(r0) + sum(abs(c) for c in cs))
        lo = r0 + sum(min(c, 0.0) for c in cs) - slack
        rise = sum(max(c, 0.0) for c in cs)
        hi = r0 + rise + slack
        ms = {petal[1] for petal in self.petals}
        ints = all(type(k) is int or isinstance(k, np.integer)
                   for petal in self.petals for k in petal[:2])
        if ints and len(ms) == 1:
            (m,) = ms
            if m >= 1 and len({petal[0] % m for petal in self.petals}) == len(cs):
                edge = 2.0 ** -44 * m * (max(phis) + 2.0 * TWO_PI) * rise
                hi = min(hi, r0 + max(max(cs), 0.0) + edge + slack)
        if not (math.isfinite(lo) and math.isfinite(hi)):
            return None
        return lo, hi

    def derivative(self, theta):
        theta = np.asarray(theta, dtype=float)
        out = np.zeros_like(theta)
        for i, m, A, beta in self.petals:
            u = m * np.mod(theta - TWO_PI * i / m, TWO_PI)
            out = out + A * m ** (1.0 - beta) * _bump_deriv(u)
        return out


def _dense_thetas(radius: RadiusFunction, grid):
    base = np.linspace(0.0, TWO_PI, int(grid), endpoint=False)
    # make sure each petal's peak is sampled even when petals are narrow
    extra = []
    for i, m, _, _ in radius.petals:
        lo = TWO_PI * i / m
        extra.append(np.mod(lo + np.linspace(0.0, TWO_PI / m, 64), TWO_PI))
    return np.concatenate([base] + extra)


def disc_radius(r0: float) -> RadiusFunction:
    return RadiusFunction(float(r0))


@dataclass(frozen=True)
class StarFunction:
    """Indicator of the region r <= radius(theta) around ``center``."""

    center: tuple
    radius: RadiusFunction
    beta: float
    holder_C: float

    def __post_init__(self):
        instance(self.radius, RadiusFunction, DomainError, "radius")
        if len(sequence(self.center, DomainError, "center")) != 2:
            raise DomainError("a center has two coordinates")

    def inside(self, x, y):
        dx = np.asarray(x, dtype=float) - self.center[0]
        dy = np.asarray(y, dtype=float) - self.center[1]
        r = np.hypot(dx, dy)
        theta = np.mod(np.arctan2(dy, dx), TWO_PI)
        return r <= self.radius(theta)


def disc_star(r0=0.25, center=(0.5, 0.5), beta=2.0, holder_C=1.0) -> StarFunction:
    """The disc of radius r0; beta in (1, 2] and a finite holder_C > 0
    (``DomainError``)."""
    beta = real(beta, 1.0, 2.0, DomainError, "beta", open_lo=True)
    holder_C = real(holder_C, 0.0, math.inf, DomainError, "C", open_lo=True)
    r0 = real(r0, 0.0, math.inf, DomainError, "r0", open_lo=True)
    return StarFunction(tuple(center), disc_radius(r0), float(beta), float(holder_C))


@dataclass(frozen=True)
class HypercubeSpec:
    """Petal family parameters: m orthogonal bumps of L2 norm delta.

    The amplitude solves the exact polar area equation
    r0 * A * m^-(beta+1) * I1 + (A^2 / 2) * m^-(2 beta + 1) * I2 = delta^2
    (I1, I2 the bump's L1 mass and squared L2 mass), so each petal's area
    is delta^2 and each vertex stays in the Hoelder ball of radius C.
    """

    delta: float
    m: int
    A: float
    f0: StarFunction
    holder_C: float
    beta: float

    def __post_init__(self):
        real(self.delta, 0.0, 1.0, DomainError, "delta", open_lo=True)
        integer(self.m, 1, MAX_PETALS, (DomainError, RangeError), "petal count m")
        real(self.A, 0.0, math.inf, DomainError, "amplitude A", open_lo=True)
        instance(self.f0, StarFunction, DomainError, "f0")
        real(self.holder_C, 0.0, math.inf, DomainError, "C", open_lo=True)
        real(self.beta, 1.0, 2.0, DomainError, "beta", open_lo=True)


def petal_generator_seminorm(beta: float) -> float:
    """Measured Hoelder-beta seminorm of the bump sin(theta/2) on [0, 2pi],
    on a 4096-point grid; beta in (1, 2] (``DomainError``)."""
    beta = real(beta, 1.0, 2.0, DomainError, "beta", open_lo=True)
    gen = RadiusFunction(1.0, ((1, 1, 1.0, beta),))
    return holder_seminorm(gen, beta, 4096)


def _bump_masses():
    """Simpson values of the bump's L1 mass and squared-L2 mass on [0, 2pi]."""
    panels = 4096
    u = np.linspace(0.0, TWO_PI, 2 * panels + 1)
    w = _simpson_weights(panels)
    h = TWO_PI / panels
    f = _bump(u)
    return float(h / 6.0 * np.dot(w, f)), float(h / 6.0 * np.dot(w, f * f))


def make_hypercube(delta: float, beta: float, C: float) -> HypercubeSpec:
    """Dimension and amplitude for the petal family at side length delta.

    beta in (1, 2], C finite and > 0 and delta in (0, 1] (``DomainError``);
    a delta so large that no petal fits, or so small that the petal count m
    exceeds MAX_PETALS or the area equation underflows, is a ``RangeError``.
    """
    beta = real(beta, 1.0, 2.0, DomainError, "beta", open_lo=True)
    C = real(C, 0.0, math.inf, DomainError, "C", open_lo=True)
    delta = real(delta, 0.0, 1.0, DomainError, "delta", open_lo=True)
    r0 = 0.25
    seminorm = petal_generator_seminorm(beta)
    mass1, mass2 = _bump_masses()
    base = delta ** 2 / C * seminorm / (r0 * mass1)
    if not base > 0.0:
        raise RangeError("delta^2 / C underflows to 0")
    m = int(math.floor(base ** (-1.0 / (beta + 1.0))))
    if m < 1:
        raise RangeError("delta too large: no petal fits the height bound")
    integer(m, 1, MAX_PETALS, RangeError, "petal count m (delta too small)")
    # exact per-petal area == delta^2 including the quadratic polar term
    c1 = r0 * mass1 * m ** (-(beta + 1.0))
    c2 = 0.5 * mass2 * m ** (-(2.0 * beta + 1.0))
    if not c2 > 0.0:
        raise RangeError("delta^2 / C too small: the petal area equation underflows")
    A = (-c1 + math.sqrt(c1 * c1 + 4.0 * c2 * delta ** 2)) / (2.0 * c2)
    if not 0.0 < A < math.inf:
        raise RangeError(f"delta^2 / C too small: the petal amplitude rounds to {A:.4g}")
    height = A * m ** (-beta)
    if height > 0.25:
        raise RangeError(
            f"petal height {height:.4g} exceeds 1/4; shrink delta")
    f0 = disc_star(r0, beta=beta, holder_C=C)
    return HypercubeSpec(float(delta), m, float(A), f0, float(C), float(beta))


def vertex_function(spec: HypercubeSpec, xi) -> StarFunction:
    """Hypercube vertex: the disc plus the petals selected by the bits."""
    instance(spec, HypercubeSpec, InputShapeError, "spec")
    xi = sequence(xi, InputShapeError, "xi")
    if len(xi) != spec.m:
        raise InputShapeError(f"xi must have length {spec.m}")
    petals = tuple((i + 1, spec.m, spec.A, spec.beta)
                   for i, bit in enumerate(xi) if bit)
    radius = RadiusFunction(spec.f0.radius.r0, petals)
    return StarFunction(spec.f0.center, radius, spec.beta, spec.holder_C)


def _pair_max_ratio(thetas, derivs, beta, lags):
    best = 0.0
    for lag in lags:
        if lag < 1 or lag >= len(thetas):
            continue
        dth = thetas[lag:] - thetas[:-lag]
        dd = np.abs(derivs[lag:] - derivs[:-lag])
        ok = dth > 0
        if np.any(ok):
            best = max(best, float(np.max(dd[ok] / dth[ok] ** (beta - 1.0))))
    return best


def _dyadic_lags(n):
    lags = []
    lag = 1
    while lag < n:
        lags.append(lag)
        lag *= 2
    return lags


def holder_seminorm(radius: RadiusFunction, beta: float, grid: int = 2048) -> float:
    """Grid lower bound on sup |rho'(a) - rho'(b)| / |a - b|^(beta-1).

    Distances are unwrapped coordinates on [0, 2pi).  For petal sums the
    fine-gap pairs stay inside one bump (where the analytic derivative is
    smooth); pairs across bump boundaries are probed at gaps no smaller
    than one petal arc, the structural resolution of the function.
    beta in (1, 2] and grid an integer in 1..2^16 (``DomainError``).
    """
    instance(radius, RadiusFunction, DomainError, "radius")
    beta = real(beta, 1.0, 2.0, DomainError, "beta", open_lo=True)
    grid = integer(grid, 1, _MAX_ANGLES, DomainError, "grid")
    best = 0.0
    min_arc = TWO_PI
    for _i, m, A, beta_p in radius.petals:
        span = TWO_PI / m
        min_arc = min(min_arc, span)
        # sample in exact local coordinates: the one-sided derivative at the
        # support edges is the analytic value, not the clipped zero
        u = np.linspace(0.0, TWO_PI, max(grid, 64))
        ds = A * m ** (1.0 - beta_p) * 0.5 * np.cos(0.5 * u)
        best = max(best, _pair_max_ratio(u / m, ds, beta, _dyadic_lags(len(u))))
    # cross-boundary pairs at gaps >= one petal arc
    coarse = np.linspace(0.0, TWO_PI, 4096, endpoint=False)
    dvals = radius.derivative(coarse)
    step = coarse[1] - coarse[0]
    min_lag = max(1, int(math.ceil(min_arc / step)))
    lags = [lag for lag in _dyadic_lags(len(coarse)) if lag >= min_lag]
    lags = ([min_lag] if min_lag < len(coarse) else []) + lags
    best = max(best, _pair_max_ratio(coarse, dvals, beta, lags))
    return best


@dataclass(frozen=True)
class MembershipReport:
    radius_min: float
    radius_max: float
    contained: bool
    seminorm: float
    holder_C: float

    @property
    def radius_ok(self):
        return 0.1 - 1e-12 <= self.radius_min and self.radius_max <= 0.5 + 1e-12

    @property
    def seminorm_ok(self):
        return self.seminorm <= 1.05 * self.holder_C

    @property
    def passed(self):
        return self.radius_ok and self.contained and self.seminorm_ok


def star_membership(f: StarFunction) -> MembershipReport:
    """Re-check the class constraints numerically instead of trusting them,
    on 4096 angles plus 64 across each petal."""
    instance(f, StarFunction, DomainError, "f")
    thetas = _dense_thetas(f.radius, 4096)
    rho = f.radius(thetas)
    x = f.center[0] + rho * np.cos(thetas)
    y = f.center[1] + rho * np.sin(thetas)
    contained = bool(np.all((x >= 0.1 - 1e-12) & (x <= 0.9 + 1e-12)
                            & (y >= 0.1 - 1e-12) & (y <= 0.9 + 1e-12)))
    seminorm = holder_seminorm(f.radius, f.beta)
    return MembershipReport(float(np.min(rho)), float(np.max(rho)),
                            contained, seminorm, f.holder_C)


def _window_average(f: StarFunction, n: int, s: int, row0, row1, col0, col1,
                    exclude: StarFunction | None = None):
    """Per-pixel inside fraction over a pixel window, s^2 samples each.

    Each pixel is first put in one of three classes by bounds alone: the
    distances of its samples from the center, rounded outward, against the
    radius bounds (lo, hi) of ``RadiusFunction.bounds``.  A pixel whose
    farthest sample lies within lo is all inside (1.0), one whose nearest
    lies beyond hi all outside (0.0); with ``exclude``, a pixel all inside
    it is 0.0, and a 1.0 pixel must also lie all outside it.  Only the mixed
    pixels run the per-sample predicate ``StarFunction.inside``, on the
    same float sample coordinates, so every pixel equals what sampling all
    of them gives.  A star with no finite bounds (a non-finite r0,
    coefficient or center) has every pixel sampled.
    """
    off = _sample_offsets(s)
    ys = (np.arange(row0, row1)[:, None] + off[None, :]) / n  # (R, s) per pixel row
    xs = (np.arange(col0, col1)[:, None] + off[None, :]) / n  # (C, s)
    full, empty = _pixel_classes(f, xs, ys)
    if exclude is not None:
        ex_full, ex_empty = _pixel_classes(exclude, xs, ys)
        full, empty = full & ex_empty, empty | ex_full
    out = full.astype(float)
    a, b = np.nonzero(~(full | empty))
    # contiguous (M, s, s) grids: a strided input may take another numpy
    # loop, whose transcendentals may round differently
    xg = np.repeat(xs[b][:, None, :], s, axis=1)
    yg = np.repeat(ys[a][:, :, None], s, axis=2)
    inside = f.inside(xg, yg)
    if exclude is not None:
        inside = inside & ~exclude.inside(xg, yg)
    out[a, b] = inside.sum(axis=(1, 2)) / (s * s)
    return out


def _pixel_classes(f: StarFunction, xs, ys):
    """(all inside, all outside) per pixel, from its samples' reach.

    ``xs`` and ``ys`` hold each pixel column's and row's sample
    coordinates, in increasing order, so the first and last give the range
    of each sample's offset from the center.  Both are all False when f
    has no finite bounds.
    """
    dx = xs[:, [0, -1]] - f.center[0]
    dy = ys[:, [0, -1]] - f.center[1]
    bounds = f.radius.bounds()
    if bounds is None or not (np.isfinite(dx).all() and np.isfinite(dy).all()):
        none = np.zeros((len(ys), len(xs)), dtype=bool)
        return none, none
    lo, hi = bounds
    near_x, far_x = _reach(dx)
    near_y, far_y = _reach(dy)
    # hypot is within an ulp or two; 2^-46 rounds the range well outward
    near = np.hypot(near_y[:, None], near_x[None, :]) * (1.0 - 2.0 ** -46)
    far = np.hypot(far_y[:, None], far_x[None, :]) * (1.0 + 2.0 ** -46)
    return far <= lo, near > hi


def _reach(d):
    """Least and greatest |offset| per pixel, from its (first, last) offsets."""
    mag = np.abs(d)
    near = np.where((d[:, 0] < 0.0) & (d[:, 1] > 0.0), 0.0, mag.min(axis=1))
    return near, mag.max(axis=1)


def rasterize(f: StarFunction, n: int, supersample: int = 4) -> np.ndarray:
    """n x n array of per-pixel inside fractions (stratified s^2 samples).

    The sample points are a deterministic centered sub-grid, so repeated
    runs are bit-identical.  ``supersample`` (s) is an integer in
    4..MAX_SUPERSAMPLE; anything else is a ``FormatError``.  Only the
    pixels the radius bounds cannot decide are sampled (see
    ``_window_average``), so the cost grows with the n * (hi - lo) pixels
    of the band between the bounds times s^2 (the n pixels along the edge
    for a disc) and with the n^2 pixels' cheap classing, not with n^2 s^2
    samples times the petals.
    """
    instance(f, StarFunction, DomainError, "f")
    _pixel_scale(n)  # refuses an n that is not a power of two up to 4096
    s = integer(supersample, 4, MAX_SUPERSAMPLE, FormatError, "supersample")
    out = np.zeros((n, n))
    chunk = max(1, _RASTER_CHUNK // (n * s * s))
    for row0 in range(0, n, chunk):
        row1 = min(n, row0 + chunk)
        out[row0:row1] = _window_average(f, n, s, row0, row1, 0, n)
    return out


def petal_window(spec: HypercubeSpec, i: int, n: int, supersample: int = 4):
    """Pixel window holding petal i's mask: (array, row0, col0).

    The mask is the inside-fraction of the single-petal region (vertex
    minus disc) computed petal-exactly from the polar predicate.
    """
    instance(spec, HypercubeSpec, InputShapeError, "spec")
    i = integer(i, 1, spec.m, InputShapeError, "petal index")
    _pixel_scale(n)
    s = integer(supersample, 4, MAX_SUPERSAMPLE, FormatError, "supersample")
    vertex = vertex_function(spec, [1 if j == i - 1 else 0 for j in range(spec.m)])
    cx, cy = spec.f0.center
    r_in = spec.f0.radius.r0
    r_out = r_in + spec.A * spec.m ** (-spec.beta)
    lo = TWO_PI * i / spec.m
    hi = lo + TWO_PI / spec.m
    ang = np.linspace(lo, hi, 64)
    xs = np.concatenate([cx + r * np.cos(ang) for r in (r_in, r_out)])
    ys = np.concatenate([cy + r * np.sin(ang) for r in (r_in, r_out)])
    pad = 2.0 / n
    col0 = max(0, int((xs.min() - pad) * n))
    col1 = min(n, int(math.ceil((xs.max() + pad) * n)))
    row0 = max(0, int((ys.min() - pad) * n))
    row1 = min(n, int(math.ceil((ys.max() + pad) * n)))
    arr = _window_average(vertex, n, s, row0, row1, col0, col1,
                          exclude=spec.f0)
    return arr, row0, col0
