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

from .exceptions import DomainError, FormatError, InputShapeError, RangeError
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

    def __call__(self, theta):
        theta = np.asarray(theta, dtype=float)
        out = np.full_like(theta, self.r0)
        for i, m, A, beta in self.petals:
            u = m * np.mod(theta - TWO_PI * i / m, TWO_PI)
            out = out + A * m ** (-beta) * _bump(u)
        return out

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

    def inside(self, x, y):
        dx = np.asarray(x, dtype=float) - self.center[0]
        dy = np.asarray(y, dtype=float) - self.center[1]
        r = np.hypot(dx, dy)
        theta = np.mod(np.arctan2(dy, dx), TWO_PI)
        return r <= self.radius(theta)


def disc_star(r0=0.25, center=(0.5, 0.5), beta=2.0, holder_C=1.0) -> StarFunction:
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


def petal_generator_seminorm(beta: float) -> float:
    """Measured Hoelder-beta seminorm of the bump sin(theta/2) on [0, 2pi],
    on a 4096-point grid."""
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
    """Dimension and amplitude for the petal family at side length delta."""
    if not (1.0 < beta <= 2.0):
        raise DomainError("beta must lie in (1, 2]")
    if not (delta > 0 and C > 0):
        raise DomainError("delta and C must be positive")
    r0 = 0.25
    seminorm = petal_generator_seminorm(beta)
    mass1, mass2 = _bump_masses()
    m = int(math.floor((delta ** 2 / C * seminorm / (r0 * mass1))
                       ** (-1.0 / (beta + 1.0))))
    if m < 1:
        raise RangeError("delta too large: no petal fits the height bound")
    # exact per-petal area == delta^2 including the quadratic polar term
    c1 = r0 * mass1 * m ** (-(beta + 1.0))
    c2 = 0.5 * mass2 * m ** (-(2.0 * beta + 1.0))
    A = (-c1 + math.sqrt(c1 * c1 + 4.0 * c2 * delta ** 2)) / (2.0 * c2)
    height = A * m ** (-beta)
    if height > 0.25:
        raise RangeError(
            f"petal height {height:.4g} exceeds 1/4; shrink delta")
    f0 = disc_star(r0, beta=beta, holder_C=C)
    return HypercubeSpec(float(delta), m, float(A), f0, float(C), float(beta))


def vertex_function(spec: HypercubeSpec, xi) -> StarFunction:
    """Hypercube vertex: the disc plus the petals selected by the bits."""
    xi = list(xi)
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
    """
    grid = int(grid)
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
    """Per-pixel inside fraction over a pixel window, s^2 samples each."""
    rows = np.arange(row0, row1)
    cols = np.arange(col0, col1)
    off = _sample_offsets(s)
    ys = (rows[:, None] + off[None, :]).reshape(-1) / n  # (R*s,)
    xs = (cols[:, None] + off[None, :]).reshape(-1) / n  # (C*s,)
    xg, yg = np.meshgrid(xs, ys)
    inside = f.inside(xg, yg)
    if exclude is not None:
        inside = inside & ~exclude.inside(xg, yg)
    counts = inside.reshape(len(rows), s, len(cols), s).sum(axis=(1, 3))
    return counts.astype(float) / (s * s)


def rasterize(f: StarFunction, n: int, supersample: int = 4) -> np.ndarray:
    """n x n array of per-pixel inside fractions (stratified s^2 samples).

    The sample points are a deterministic centered sub-grid, so repeated
    runs are bit-identical.
    """
    _pixel_scale(n)  # refuses an n that is not a power of two
    s = int(supersample)
    if s < 4:
        raise FormatError("supersample must be >= 4")
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
    if not 1 <= i <= spec.m:
        raise InputShapeError(f"petal index must lie in 1..{spec.m}")
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
    arr = _window_average(vertex, n, int(supersample), row0, row1, col0, col1,
                          exclude=spec.f0)
    return arr, row0, col0
