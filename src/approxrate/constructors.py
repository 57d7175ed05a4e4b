"""Builders that emit explicit sparse networks with certificates.

Every builder returns a BuildReport carrying the network together with its
claimed depth, a connectivity bound, the accuracy target, and the internal
scalars the construction chose.  Claims are honest: the report validates
depth equality and the connectivity bound at construction time, and the
test suite re-measures every error claim on dense grids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

import numpy as np

from . import ratelab
from .exceptions import (
    BuilderError,
    ConditioningError,
    PrecisionError,
    instance,
    integer,
    real,
    sequence,
)
from .nnet import MAX_ORDER as NET_MAX_ORDER
from .nnet import (
    ActivationSpec,
    AffineStep,
    Network,
    connectivity,
    identity_extend,
    parallel_compose,
    serial_compose,
)
from .splines import MAX_ORDER, bspline_closed

__all__ = [
    "BuildReport",
    "build_p1",
    "build_plus_power",
    "build_power",
    "build_relu",
    "build_plus_monomial",
    "build_bspline_net",
    "transfer_expansion",
    "vandermonde_alpha",
    "vandermonde_a",
]

_TINY = 1e-290
# Largest depth L: the chains recurse once per level and reach x^(k^L)
MAX_DEPTH = 16
# Largest domain half-width D: the knot interpolants of order-1 nets take
# a number of knots that grows with D^((m-1)/2)
MAX_HALF_WIDTH = 2.0 ** 20
# Most knots of an interpolant
_MAX_KNOTS = 1 << 16
# Most shifts N of the x_+ approximant, whose breakpoints mu / N stay exact
_MAX_SHIFTS = 2.0 ** 52


@dataclass(frozen=True)
class BuildReport:
    """A constructed network plus the claims it was built to satisfy."""

    network: Network
    claimed_depth: int
    claimed_connectivity_bound: int
    epsilon: float
    domain_half_width: float
    internal_constants: tuple = ()

    def __post_init__(self):
        instance(self.network, Network, BuilderError, "network")
        integer(self.claimed_depth, 2, None, BuilderError, "claimed depth")
        integer(self.claimed_connectivity_bound, 0, None, BuilderError,
                "claimed connectivity bound")
        real(self.epsilon, 0.0, 1.0, BuilderError, "eps", open_lo=True, open_hi=True)
        real(self.domain_half_width, 0.0, MAX_HALF_WIDTH, BuilderError,
             "domain half-width D", open_lo=True)
        constants = sequence(self.internal_constants, BuilderError, "internal constants")
        if self.network.depth != self.claimed_depth:
            raise BuilderError(
                f"depth {self.network.depth} != claimed {self.claimed_depth}")
        got = connectivity(self.network)
        if got > self.claimed_connectivity_bound:
            raise BuilderError(
                f"connectivity {got} exceeds claimed bound "
                f"{self.claimed_connectivity_bound}")
        for name, value in constants:
            real(value, 0.0, math.inf, BuilderError, f"internal constant {name}", open_lo=True)


def _chain_net(weights, spec):
    """Single chain x -> w1 x -> rho -> w2 . -> rho ... -> wn ."""
    steps = tuple(AffineStep(1, 1, ((0, 0, w),)) for w in weights)
    return Network(steps, spec)


def _p11_params(eps, spec):
    """Scale parameters for the two-weight order-k bump at accuracy eps."""
    k, C, a = spec.k, spec.C, spec.a
    delta = (eps / (2.0 ** (k + 1) * C)) ** (1.0 / k)
    B = max(1.0, (C / eps) ** (1.0 / a))
    return delta, B


def _p11_weights(eps, spec):
    delta, B = _p11_params(eps, spec)
    if spec.kind == "relu_power":
        # scale-invariant activation: (delta/B)^k rho(B x / delta) == x_+^k,
        # so the unit carries balanced weights and stays exactly x_+^k
        # without the B/delta magnitudes (which only non-exact sigmoidals
        # need analytically).
        return 1.0, 1.0, delta, B
    w_in = B / delta
    w_out = (delta / B) ** spec.k
    if w_out < _TINY or not math.isfinite(w_in):
        raise PrecisionError("inner accuracy underflowed; use a larger eps")
    return w_in, w_out, delta, B


def _uniform_continuity_eta(eps, spec):
    """Step size keeping the eps/2 bump's output within eps/2."""
    k, C, b = spec.k, spec.C, spec.b
    delta, B = _p11_params(eps / 2.0, spec)
    eta = eps / (2.0 ** (b + 1) * C) * min((B / delta) ** (k - 1 - b), 1.0)
    if eta < _TINY:
        raise PrecisionError("uniform-continuity step underflowed; use a larger eps")
    return eta


def _plus_power_unit_weights(L, eps, spec):
    """Chain weights approximating x_+^(k^L) on [-1, 1] within eps."""
    if L == 1:
        w_in, w_out, _, _ = _p11_weights(eps, spec)
        return [w_in, w_out]
    eta = _uniform_continuity_eta(eps, spec)
    inner = _plus_power_unit_weights(L - 1, eta, spec)
    w_in, w_out, _, _ = _p11_weights(eps / 2.0, spec)
    # fused junction: inner output weight times outer input weight
    return inner[:-1] + [inner[-1] * w_in, w_out]


def _scaled_chain(L, eps, D, spec):
    """Chain for x_+^(k^L) on [-D, D]: D^(k^L) * unit(x / D)."""
    p = spec.k ** L
    eps_unit = eps * D ** (-p)
    if eps_unit < _TINY:  # D^p would then overflow below
        raise PrecisionError("accuracy scaled to the unit domain underflowed")
    weights = _plus_power_unit_weights(L, eps_unit, spec)
    weights = [weights[0] / D] + weights[1:-1] + [weights[-1] * D ** p]
    return weights


def build_p1(eps, D, spec: ActivationSpec) -> BuildReport:
    """Two-weight net matching x_+^k on [-D, D] within eps."""
    return build_plus_power(1, eps, D, spec)


def build_plus_power(L, eps, D, spec: ActivationSpec) -> BuildReport:
    """Depth-(L+1) chain matching x_+^(k^L) on [-D, D] within eps."""
    eps = real(eps, 0.0, 1.0, BuilderError, "eps", open_lo=True, open_hi=True)
    D = real(D, 0.0, MAX_HALF_WIDTH, BuilderError, "domain half-width D", open_lo=True)
    instance(spec, ActivationSpec, BuilderError, "spec")
    L = integer(L, 1, MAX_DEPTH, BuilderError, "L")
    D_eff = max(float(D), 1.0)
    weights = _scaled_chain(L, eps, D_eff, spec)
    net = _chain_net(weights, spec)
    delta, B = _p11_params(eps * D_eff ** (-spec.k ** L), spec)
    return BuildReport(net, L + 1, L + 1, eps, float(D),
                       (("delta", delta), ("B", B)))


def _power_net(L, eps, D, spec, one_sided=False):
    """x^(k^L) via the mirrored pair, or just the positive chain."""
    if one_sided:
        return _chain_net(_scaled_chain(L, eps, D, spec), spec)
    plus = _scaled_chain(L, eps / 2.0, D, spec)
    minus = [-plus[0]] + plus[1:]
    sign = -1.0 if (spec.k ** L) % 2 else 1.0
    return parallel_compose([_chain_net(plus, spec), _chain_net(minus, spec)],
                            [1.0, sign])


def build_power(L, eps, D, spec: ActivationSpec) -> BuildReport:
    """Mirrored pair matching x^(k^L) on [-D, D] within eps."""
    eps = real(eps, 0.0, 1.0, BuilderError, "eps", open_lo=True, open_hi=True)
    D = real(D, 0.0, MAX_HALF_WIDTH, BuilderError, "domain half-width D", open_lo=True)
    instance(spec, ActivationSpec, BuilderError, "spec")
    L = integer(L, 1, MAX_DEPTH, BuilderError, "L")
    D_eff = max(float(D), 1.0)
    net = _power_net(L, eps, D_eff, spec)
    delta, B = _p11_params(eps / 2.0 * D_eff ** (-spec.k ** L), spec)
    return BuildReport(net, L + 1, 2 * L + 2, eps, float(D),
                       (("delta", delta), ("B", B)))


def _shift_weights(K, d):
    """Weights w with sum_i w_i (x + i)^K = x^d identically, on the nodes 0..K.

    Matching the powers of x leaves the moments sum_i w_i i^q =
    [q = K - d] / C(K, d) for q = 0..K, so w_i is the t^(K-d) coefficient of
    node i's Lagrange polynomial prod_{j != i} (t - j) / (i - j), whose
    denominator is (-1)^(K-i) i! (K-i)!, over C(K, d).  Each weight is an
    exact rational rounded to float64 once: the cancellation downstream
    tolerates no error from a float solve.
    """
    full = [1]  # prod_{j=0..K} (t - j), lowest degree first
    for j in range(K + 1):
        full = [lo - j * hi for lo, hi in zip([0] + full, full + [0])]
    sol = []
    for i in range(K + 1):
        coeff = full[K + 1]  # synthetic division by (t - i), from the top
        for p in range(K, K - d, -1):
            coeff = full[p] + i * coeff
        denom = (-1) ** (K - i) * factorial(i) * factorial(K - i) * comb(K, d)
        sol.append(float(Fraction(coeff, denom)))
    out = np.array(sol)
    size = K + 1
    nodes = np.arange(size, dtype=float)
    check = np.vstack([nodes ** (size - 1 - v) if size - 1 - v else np.ones(size)
                       for v in range(size)])
    target = np.zeros(size)
    target[d] = 1 / comb(K, d)
    residual = float(np.max(np.abs(check @ out - target)))
    if residual > 1e-10:
        raise ConditioningError(
            f"Vandermonde residual {residual:.2e} exceeds 1e-10 at size {size}")
    return out


def vandermonde_alpha(k: int) -> np.ndarray:
    """Coefficients alpha with sum_mu alpha_mu (x + mu)^k = x identically;
    k is an integer in 1..12 (``BuilderError``, and ``ConditioningError``
    above 12)."""
    k = integer(k, 1, None, BuilderError, "k")
    integer(k, 1, 12, ConditioningError, "k of vandermonde_alpha")
    return _shift_weights(k, 1)


def min_power_depth(m: int, k: int) -> int:
    """Smallest L >= 1 with m - 1 <= k^L, or raise if none exists; m is an
    integer in 2..MAX_ORDER and k one in 1..MAX_ORDER of ``nnet``
    (``BuilderError``)."""
    m = integer(m, 2, MAX_ORDER, BuilderError, "m")
    k = integer(k, 1, NET_MAX_ORDER, BuilderError, "k")
    if k == 1:
        if m > 2:
            raise BuilderError(
                "order-1 activations reach only m <= 2 through the power route")
        return 1
    L = 1
    while k ** L < m - 1:
        L += 1
    return L


def vandermonde_a(m: int, k: int, L: int | None = None) -> np.ndarray:
    """Coefficients a with sum_i a_i (x + i)^(k^L) = x^(m-1) identically;
    m, k as ``min_power_depth`` takes them, L None or an integer in
    1..MAX_DEPTH (``BuilderError``), and k^L at most 16
    (``ConditioningError``)."""
    L = min_power_depth(m, k) if L is None else integer(L, 1, MAX_DEPTH, BuilderError, "L")
    K = k ** L
    if K < m - 1:
        raise BuilderError(f"k^L = {K} cannot reach degree {m - 1}")
    if K > 16:
        raise ConditioningError("vandermonde_a guarded to k^L <= 16")
    sol = _shift_weights(K, m - 1)
    probe = np.array([-1.0, 0.0, 0.5, 1.0, 2.0])
    lhs = sum(sol[i] * (probe + i) ** K for i in range(K + 1))
    if float(np.max(np.abs(lhs - probe ** (m - 1)))) > 1e-8:
        raise ConditioningError("identity probe failed; system too ill-conditioned")
    return sol


def _relu_parts(eps, D, spec, n_override=None):
    """Pieces of the x_+ approximant: subnet weights, coeffs, shifts, constants.

    ``n_override`` (always a power of two) substitutes a larger shift count
    so the breakpoints mu/N stay exactly representable; the approximation
    bound only needs N at least the formula value.
    """
    alpha = vandermonde_alpha(spec.k)
    s_alpha = float(np.sum(np.abs(alpha)))
    k = spec.k
    if n_override is None:
        N = max(int(math.ceil(real(2.0 * k ** k * s_alpha / eps, 0.0, _MAX_SHIFTS,
                                   PrecisionError, "shift count N"))), k)
    else:
        N = max(int(n_override), k)
    if (k - 1) * math.log2(N) > 1000:  # N^(k-1) would leave the float range
        raise PrecisionError("shift grid accuracy underflowed; use a larger eps")
    eta = eps / (2.0 * N ** (k - 1) * s_alpha)
    if eta < _TINY:
        raise PrecisionError("shift grid accuracy underflowed; use a larger eps")
    D_in = D + 1.0
    eps_unit = eta * D_in ** (-k)
    if eps_unit < _TINY:  # D_in^k would then overflow below
        raise PrecisionError("accuracy scaled to the unit domain underflowed")
    w_in, w_out, delta, B = _p11_weights(eps_unit, spec)
    subnet = [w_in / D_in, w_out * D_in ** k]
    coeffs = [N ** (k - 1) * a for a in alpha]
    shifts = [mu / N for mu in range(k + 1)]
    consts = (("delta", delta), ("B", B), ("eta", eta), ("N", float(N)))
    return subnet, coeffs, shifts, consts


def build_relu(eps, D, spec: ActivationSpec) -> BuildReport:
    """Depth-2 net matching x_+ on [-D, D] within eps."""
    eps = real(eps, 0.0, 1.0, BuilderError, "eps", open_lo=True, open_hi=True)
    D = real(D, 0.0, MAX_HALF_WIDTH, BuilderError, "domain half-width D", open_lo=True)
    instance(spec, ActivationSpec, BuilderError, "spec")
    D_eff = max(float(D), 1.0)
    subnet, coeffs, shifts, consts = _relu_parts(eps, D_eff, spec)
    nets = [_chain_net(subnet, spec) for _ in coeffs]
    net = parallel_compose(nets, coeffs, shifts)
    return BuildReport(net, 2, 3 * (spec.k + 1), eps, float(D), consts)


def _monomial_net(m, eps, D, spec, L=None, psi_n=None):
    """Net for x_+^(m-1) on [-D, D] (k >= 2 route, or k = 1 with m = 2)."""
    k = spec.k
    L = min_power_depth(m, k) if L is None else L
    K = k ** L
    a = vandermonde_a(m, k, L)
    s_a = float(np.sum(np.abs(a)))
    eps_unit = eps * D ** (-(m - 1))
    eta = eps_unit / (2.0 * K * (K + 2.0) ** (K - 1) * s_a)
    if eta < _TINY:
        raise PrecisionError("power-chain accuracy underflowed; use a larger eps")
    subnet, coeffs, shifts, consts = _relu_parts(eta, 1.0, spec, n_override=psi_n)
    psi = parallel_compose([_chain_net(subnet, spec) for _ in coeffs],
                           coeffs, shifts)
    # Branch with shift i >= 1 sees arguments >= i - eta > 0, so the
    # one-sided chain suffices there; only the unshifted branch straddles 0.
    branches = [_power_net(L, eta, K + 2.0, spec, one_sided=(i >= 1))
                for i in range(K + 1)]
    body = parallel_compose(branches, list(a), list(range(K + 1)))
    net = serial_compose(psi, body)
    # rescale to [-D, D]: input 1/D on the first step, output D^(m-1) last
    net = _scale_io(net, 1.0 / D, D ** (m - 1))
    consts = consts + (("eta_power", eta), ("K", float(K)), ("L", float(L)))
    return net, L, K, consts


def _scale_io(net: Network, in_scale, out_scale) -> Network:
    first, last = net.steps[0], net.steps[-1]
    new_first = AffineStep.from_dense(first.matrix() * in_scale, first.bias())
    new_last = AffineStep.from_dense(last.matrix() * out_scale, last.bias() * out_scale)
    return Network((new_first,) + net.steps[1:-1] + (new_last,), net.activation)


def _knot_interpolant(values_at, knots, spec) -> Network:
    """ReLU expansion of the piecewise-linear interpolant through the knots.

    Exact for order-1 ReLU; the expansion is clamped to slope zero past the
    last knot so functions vanishing there stay zero.
    """
    if not (spec.kind == "relu_power" and spec.k == 1):
        raise BuilderError("knot interpolants need relu_power k = 1")
    ys = [values_at(t) for t in knots]
    slopes = [(y1 - y0) / (t1 - t0)
              for (t0, y0), (t1, y1) in zip(zip(knots, ys), zip(knots[1:], ys[1:]))]
    coeffs = [slopes[0]] + [s1 - s0 for s0, s1 in zip(slopes, slopes[1:])]
    coeffs.append(-slopes[-1])  # flatten beyond the last knot
    units = [(c, t) for c, t in zip(coeffs, knots) if c != 0.0] or [(0.0, knots[0])]
    cs, ts = np.array(units).T
    hidden = AffineStep.from_dense(np.ones((len(units), 1)), -ts)
    out = AffineStep.from_dense(cs[None, :])
    return Network((hidden, out), spec)


def build_plus_monomial(m, eps, D, spec: ActivationSpec, L=None) -> BuildReport:
    """Net matching x_+^(m-1) on [-D, D] within eps (sup norm)."""
    eps = real(eps, 0.0, 1.0, BuilderError, "eps", open_lo=True, open_hi=True)
    D = real(D, 0.0, MAX_HALF_WIDTH, BuilderError, "domain half-width D", open_lo=True)
    instance(spec, ActivationSpec, BuilderError, "spec")
    m = integer(m, 2, MAX_ORDER, BuilderError, "m")
    L = None if L is None else integer(L, 1, MAX_DEPTH, BuilderError, "L")
    D_eff = max(float(D), 1.0)
    if spec.kind == "relu_power" and spec.k == 1 and m > 2:
        return _monomial_fallback(m, eps, D_eff, float(D), spec)
    net, L, K, consts = _monomial_net(m, eps, D_eff, spec, L)
    bound = (K + 1) * (3 * spec.k + 2 * L + 8)
    return BuildReport(net, L + 2, bound, eps, float(D), consts)


def _interp_knot_count(curvature_bound, width, eps_sup):
    """Knots so linear interpolation meets eps in sup norm: h^2 M / 8 <= eps."""
    if curvature_bound <= 0:
        return 2
    h = math.sqrt(8.0 * eps_sup / curvature_bound)
    steps = real(width / h if h > 0.0 else math.inf, 0.0, _MAX_KNOTS, PrecisionError,
                 "knot count of the interpolant")
    return max(2, int(math.ceil(steps)) + 1)


def _monomial_fallback(m, eps, D_eff, D_req, spec):
    """Order-1 activations cannot square; interpolate x_+^(m-1) on knots."""
    power = m - 1
    curvature = power * (power - 1) * D_eff ** max(power - 2, 0)
    count = _interp_knot_count(curvature, D_eff, 0.9 * eps)
    knots = list(np.linspace(0.0, D_eff, count))
    net = _knot_interpolant(lambda t: max(t, 0.0) ** power, knots, spec)
    return BuildReport(net, 2, 3 * count + 3, eps, D_req,
                       (("knots", float(count)),))


def _bspline_fallback(m, eps, D_req, spec):
    """Interpolate N_m itself on uniform knots over its support."""
    count = 8
    while True:
        knots = list(np.linspace(0.0, float(m), count))
        net = _knot_interpolant(lambda t: bspline_closed(m, t), knots, spec)
        D = max(D_req, float(m))
        err = ratelab.l2_error_quad(net, lambda x: bspline_closed(m, x), -D, D)
        if err <= 0.9 * eps or count > 1 << 14:
            break
        count *= 2
    if err > eps:
        raise PrecisionError("knot interpolant did not reach the L2 target")
    return BuildReport(net, 2, 3 * count + 3, eps, D_req,
                       (("knots", float(count)),))


def bspline_coefficients(m: int) -> list:
    """Signed, normalized binomial weights of the truncated-power expansion;
    m is an integer in 1..MAX_ORDER (``BuilderError``)."""
    m = integer(m, 1, MAX_ORDER, BuilderError, "m")
    fact = factorial(m - 1)
    return [float(Fraction((-1) ** j * comb(m, j), fact)) for j in range(m + 1)]


def _next_pow2(x: float) -> int:
    return 1 << max(0, math.ceil(math.log2(max(x, 1.0))))


def build_bspline_net(m, eps, D, spec: ActivationSpec, L=None) -> BuildReport:
    """Net within eps of N_m in L2 on [-D, D].

    For exact power activations the truncated-power copies are exact off a
    shrinking interval near each knot, so the shift count N is sized from
    the L2 mass of those slivers instead of the blanket sup bound.  N and
    the copy domain are rounded up to powers of two, so the breakpoints
    are exact.  The shift weights are exact rationals rounded once, but
    the stored weights are not all dyadic and can exceed 2^40, where the
    sums that cancel around N^(k-1) amplify their rounding, so the L2
    claim can miss at small eps.
    """
    eps = real(eps, 0.0, 1.0, BuilderError, "eps", open_lo=True, open_hi=True)
    D = real(D, 0.0, MAX_HALF_WIDTH, BuilderError, "domain half-width D", open_lo=True)
    instance(spec, ActivationSpec, BuilderError, "spec")
    m = integer(m, 2, MAX_ORDER, BuilderError, "m")
    L = None if L is None else integer(L, 1, MAX_DEPTH, BuilderError, "L")
    if spec.kind == "relu_power" and spec.k == 1 and m > 2:
        return _bspline_fallback(m, eps, D, spec)
    b = bspline_coefficients(m)
    s_b = sum(abs(v) for v in b)  # = 2^m / (m-1)!
    eta = eps / (math.sqrt(2.0 * D) * s_b)
    k = spec.k
    L = min_power_depth(m, k) if L is None else L
    K = k ** L
    psi_n = None
    D_copy = D + m
    if spec.kind == "relu_power":
        D_copy = float(_next_pow2(D + m))
        a = vandermonde_a(m, k, L)
        alpha = vandermonde_alpha(k)
        s_a = float(np.sum(np.abs(a)))
        s_alpha = float(np.sum(np.abs(alpha)))
        amplify = s_b * D_copy ** (m - 1) * s_a * K * (K + 2.0) ** (K - 1)
        mass = k ** k * s_alpha * math.sqrt(D_copy * k)
        psi_n = _next_pow2(real((2.0 * amplify * mass / eps) ** (2.0 / 3.0), 0.0,
                                _MAX_SHIFTS, PrecisionError, "shift count N"))
    copy, _, _, consts = _monomial_net(m, eta, D_copy, spec, L, psi_n=psi_n)
    net = parallel_compose([copy] * (m + 1), b, [-j for j in range(m + 1)])
    bound = (m + 1) * (K + 1) * (3 * k + 2 * L + 8)
    consts = consts + (("eta_term", eta),)
    return BuildReport(net, L + 2, bound, eps, D, consts)


def transfer_expansion(terms, eps, D, spec: ActivationSpec) -> BuildReport:
    """Net within eps (L2 on [-D, D]) of sum_i coeff_i * N_(m_i).

    Each term gets the budget eps / max(1, 2 * sum |coeff|); terms are
    built at a common depth then combined affinely.
    """
    eps = real(eps, 0.0, 1.0, BuilderError, "eps", open_lo=True, open_hi=True)
    D = real(D, 0.0, MAX_HALF_WIDTH, BuilderError, "domain half-width D", open_lo=True)
    instance(spec, ActivationSpec, BuilderError, "spec")
    terms = [(real(c, -math.inf, math.inf, BuilderError, "coefficient"),
              integer(m, 2, MAX_ORDER, BuilderError, "m"))
             for c, m in (sequence(term, BuilderError, "term")
                          for term in sequence(terms, BuilderError, "terms"))]
    if not terms:
        raise BuilderError("transfer_expansion needs at least one term")
    total = sum(abs(c) for c, _ in terms)
    if total == 0.0:
        raise BuilderError("all coefficients are zero")
    per_term = eps / max(1.0, 2.0 * total)
    reports = []
    if spec.k == 1:
        reports = [build_bspline_net(m, per_term, D, spec) for _, m in terms]
        depth = max(r.network.depth for r in reports)
        nets = []
        for r in reports:
            net = r.network
            while net.depth < depth:
                net = identity_extend(net)
            nets.append(net)
    else:
        L_common = max(min_power_depth(m, spec.k) for _, m in terms)
        reports = [build_bspline_net(m, per_term, D, spec, L=L_common)
                   for _, m in terms]
        nets = [r.network for r in reports]
        depth = L_common + 2
    net = parallel_compose(nets, [c for c, _ in terms])
    bound = sum(r.claimed_connectivity_bound for r in reports) + len(terms)
    # identity extensions add a handful of weights per extended term
    bound += sum(2 * (r.network.steps[-1].weight_count + 2)
                 for r in reports) if spec.k == 1 else 0
    return BuildReport(net, depth, bound, eps, float(D),
                       (("per_term_budget", per_term),))
