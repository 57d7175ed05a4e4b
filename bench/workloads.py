"""The benchmark's four workloads.

A workload turns a seed into a fixed list of inputs.  ``prepare`` is its
set-up for one input, ``op`` is the timed operation, and ``check`` tests
the operation's output against ``oracles`` and returns the facts the
metrics are built from.  Every facts dict has ``bits`` and ``distortion``.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

import oracles
from approxrate import cartoon, constructors, nnet, quantizer, ratelab, wedgelet
from approxrate.splines import bspline_closed


class CheckFailed(AssertionError):
    """An output that disagrees with an oracle or a required property."""


def require(ok, message):
    if not ok:
        raise CheckFailed(message)


PETALS = 16  # the petal hypercube at delta = 2^-5
ALTERNATING = (1, 0) * (PETALS // 2)


def wedge_images(seed):
    """The disc, the alternating petal vertex and one seeded petal vertex.

    The seeded vertex raises 8 of the 16 petals.  How many bits a petal
    vertex needs at a fixed target depends on how its raised petals cluster
    (1160 bits for the alternating vertex, about 1970 when 8 adjacent
    petals are raised), so the two fixed images keep the pass median steady
    while the seed still varies the input.
    """
    rng = np.random.default_rng(seed)
    xi = np.zeros(PETALS, dtype=int)
    xi[rng.choice(PETALS, PETALS // 2, replace=False)] = 1
    return ["disc", ALTERNATING, tuple(int(b) for b in xi)]


def _star(item):
    if item == "disc":
        return cartoon.disc_star()
    spec = cartoon.make_hypercube(2.0 ** -5, 2.0, 1.0)
    require(spec.m == len(item), f"petal hypercube has {spec.m} petals")
    return cartoon.vertex_function(spec, item)


def _check_stream(data, J, K, m_cap):
    """Parse with the oracle reader; the length must follow the format."""
    try:
        stream = oracles.read_stream(data)
    except oracles.StreamError as exc:
        raise CheckFailed(f"stream does not parse: {exc}") from exc
    require((stream.J, stream.K, stream.m_cap) == (J, K, m_cap),
            "stream header disagrees with the encoder's arguments")
    require(len(data) == stream.expected_bytes,
            f"stream has {len(data)} bytes, the format gives "
            f"{stream.expected_bytes}")
    return stream


class WedgeTarget:
    """``encode_to_target`` at n = 128 and ``to_bytes`` of the result."""

    name = "wedge-target"
    J = K = 7
    M_CAP = 32
    TARGET = 0.05

    def __init__(self, seed):
        self.items = wedge_images(seed)

    def prepare(self, item):
        return cartoon.rasterize(_star(item), 1 << self.J, 4)

    def op(self, f):
        code, _, reached = wedgelet.encode_to_target(
            f, self.J, self.K, self.M_CAP, self.TARGET)
        return reached, code.to_bytes()

    def check(self, f, out):
        reached, data = out
        require(reached is True, "encode_to_target did not reach the target")
        stream = _check_stream(data, self.J, self.K, self.M_CAP)
        require(wedgelet.WedgeCode.from_bytes(data).to_bytes() == data,
                "to_bytes(from_bytes(b)) != b")
        err = oracles.rms(oracles.decode_stream(stream), f)
        require(err <= self.TARGET,
                f"independently decoded RMS error {err:.6g} > {self.TARGET}")
        return {"bits": 8 * len(data), "distortion": err,
                "records": len(stream.records)}

    @staticmethod
    def same(a, b):
        return a == b


class WedgeDecode:
    """``from_bytes`` plus ``decode`` of n = 256 streams made in set-up."""

    name = "wedge-decode"
    J = K = 8
    M_CAP = 32
    LAM = 256.0 ** -3  # the fixed penalty of ``rates --experiment wedge-disc``

    def __init__(self, seed):
        self.items = wedge_images(seed)

    def prepare(self, item):
        f = cartoon.rasterize(_star(item), 1 << self.J, 4)
        code = wedgelet.encode(f, self.J, self.K, self.M_CAP, lam=self.LAM)
        return f, code.to_bytes()

    def op(self, prepared):
        return wedgelet.decode(wedgelet.WedgeCode.from_bytes(prepared[1]))

    def check(self, prepared, out):
        f, data = prepared
        stream = _check_stream(data, self.J, self.K, self.M_CAP)
        mine = oracles.decode_stream(stream)
        gap = float(np.max(np.abs(np.asarray(out) - mine)))
        require(gap <= 1e-12, f"decode differs from the oracle by {gap:.3g}")
        # leaves that carry a record: both sides of a split square count
        squares = {(r.j, r.ix, r.iy): 1 if r.edge is None else 2
                   for r in stream.records}
        cost = oracles.penalised_cost(f, mine, sum(squares.values()), self.LAM)
        levels = oracles.uniform_level_costs(f, self.LAM)
        require(cost <= min(levels),
                f"penalised cost {cost:.6g} above the best uniform level "
                f"{min(levels):.6g}")
        return {"bits": 8 * len(data), "distortion": oracles.rms(out, f),
                "records": len(stream.records)}

    @staticmethod
    def same(a, b):
        return np.array_equal(a, b)


def _on_grid(w, step):
    """True when w is the float product q * step of some integer q.

    w / step may round across an integer once q passes 2^53, so the
    integers next to it are tried too.
    """
    q = round(w / step)
    return any((q + d) * step == w for d in (-2, -1, 0, 1, 2))


# (m, k) pairs x eps x eta; (4, 3) at eps 2^-8 is left out because the
# builder's network misses that L2 target (see CHANGES.md).
_NET_PAIRS = [(3, 2), (4, 2), (4, 3), (5, 2), (3, 3)]
NET_CONFIGS = [(m, k, eps, eta)
               for m, k in _NET_PAIRS
               for eps in (2.0 ** -6, 2.0 ** -8)
               for eta in (0.05, 0.01)
               if (m, k, eps) != (4, 3, 2.0 ** -8)]


class NetQuantize:
    """build -> L2 certificate -> find_min_m -> quantize -> JSON round trip.

    One op is a sweep over every configuration, as ``rates --experiment
    quantize`` sweeps eta: the configurations differ in cost by a factor
    of seven, so ops of one configuration each would not be alike.
    """

    name = "net-quantize"
    D = 4.0
    SUP_POINTS = 10_000  # the grid of find_min_m and of ``quantize``'s report
    L2_PANELS = 1 << 12
    EXACT_POINTS = 8
    EXACT_TOL = 1e-14

    def __init__(self, seed):
        rng = np.random.default_rng(seed)
        scale = 1 << 10
        self.configs = [
            (cfg, tuple(Fraction(int(i), scale) for i in rng.integers(
                -int(self.D) * scale, int(self.D) * scale, self.EXACT_POINTS)))
            for cfg in NET_CONFIGS]
        self.items = [self.configs]

    def prepare(self, item):
        return item

    def op(self, configs):
        return [self.build_and_quantize(config) for config in configs]

    def build_and_quantize(self, config):
        (m, k, eps, eta), _ = config
        net = constructors.build_bspline_net(
            m, eps, self.D, nnet.relu_power(k)).network
        cert = ratelab.l2_error_quad(net, lambda x: bspline_closed(m, x),
                                     -self.D, self.D)
        kq = quantizer.weight_range_exponent(net, eta)
        mq = quantizer.find_min_m(net, eta, kq, self.D)
        qnet = quantizer.quantize_weights(net, eta, kq, mq)
        text = nnet.network_to_json(qnet)
        back = nnet.network_from_json(text)
        return {"net": net, "cert": cert, "k": kq, "m": mq, "qnet": qnet,
                "text": text, "back": back}

    def _eval(self, net, xs):
        return nnet.evaluate_batch(net, np.asarray(xs, dtype=float)[None, :])[0]

    def check(self, configs, outs):
        facts = [self.check_config(c, o) for c, o in zip(configs, outs)]
        bits = sum(f["bits"] for f in facts)
        conn = sum(f["connectivity"] for f in facts)
        return {"bits": bits, "connectivity": conn, "bits_per_weight": bits / conn,
                "distortion": float(np.mean([f["distortion"] for f in facts]))}

    def check_config(self, config, out):
        (m, k, eps, eta), points = config
        net, qnet = out["net"], out["qnet"]
        l2 = oracles.gauss_l2(lambda xs: self._eval(net, xs) - oracles.bspline(m, xs),
                              -self.D, self.D, self.L2_PANELS)
        require(l2 <= eps, f"L2 error {l2:.6g} > eps {eps:g} for {(m, k)}")
        require(abs(out["cert"] - l2) <= 1e-3 * eps,
                f"certificate {out['cert']:.6g} disagrees with {l2:.6g}")
        for candidate in (net, qnet):
            exact = oracles.ExactNet(candidate)
            got = self._eval(candidate, [float(p) for p in points])
            for x, value in zip(points, got):
                want = exact(x)
                err = abs(Fraction(float(value)) - want)
                require(err <= self.EXACT_TOL * max(1, abs(want)),
                        f"evaluator off the exact value by {float(err):.3g} "
                        f"at x = {x}")
        step, cap = eta ** out["m"], eta ** -out["k"]
        worst = net.max_abs_weight()
        require(cap * (1 + 1e-12) >= worst
                and (out["k"] == 1 or eta ** -(out["k"] - 1) < worst),
                "weight range exponent is not the smallest that fits")
        for s in qnet.steps:
            for w in [v for _, _, v in s.edge_weights] + [v for _, v in s.node_weights]:
                require(_on_grid(w, step) and abs(w) <= cap * (1 + 1e-12),
                        f"weight {w!r} is not on eta^m Z within eta^-k")
        xs = np.linspace(-self.D, self.D, self.SUP_POINTS)
        ref = self._eval(net, xs)
        sup = float(np.max(np.abs(self._eval(qnet, xs) - ref)))
        require(sup <= eta, f"sup error {sup:.6g} > eta at m = {out['m']}")
        if out["m"] > 1:
            coarse = quantizer.quantize_weights(net, eta, out["k"], out["m"] - 1)
            require(float(np.max(np.abs(self._eval(coarse, xs) - ref))) > eta,
                    f"m = {out['m'] - 1} already meets eta")
        require(out["back"] == qnet and nnet.network_to_json(out["back"]) == out["text"],
                "network JSON round trip is not bit-identical")
        bpw = quantizer.bits_per_weight(eta, out["k"], out["m"])
        conn = nnet.connectivity(qnet)
        return {"bits": bpw * conn, "distortion": sup, "connectivity": conn,
                "bits_per_weight": bpw}

    @staticmethod
    def same(a, b):
        return [o["text"] for o in a] == [o["text"] for o in b] \
            and [o["cert"] for o in a] == [o["cert"] for o in b]


class HammingCover:
    """``covering_distortion_greedy`` as ``rates --experiment hamming`` runs it."""

    name = "hamming-cover"
    M, R, RESTARTS = 16, 4, 2
    POOL_CAP, SAMPLE_CAP = 1024, 1 << 14  # the greedy's subsample sizes

    def __init__(self, seed):
        self.items = [int(seed)]

    def prepare(self, item):
        return item

    def op(self, seed):
        return ratelab.covering_distortion_greedy(
            self.M, self.R, restarts=self.RESTARTS, seed=seed)

    def check(self, seed, out):
        lower = oracles.sphere_covering_bound(self.M, self.R)
        scaled = out * (1 << self.M)
        require(scaled == math.floor(scaled),
                f"distortion * 2^m = {scaled!r} is not an integer")
        exact = Fraction(int(scaled), 1 << self.M)
        require(lower <= exact <= Fraction(self.M, 2),
                f"distortion {out!r} outside [{float(lower)}, {self.M / 2}]")
        words = 1 << self.M
        pool, sample = min(words, self.POOL_CAP), min(words, self.SAMPLE_CAP)
        first_pool = 1 if words > self.POOL_CAP else pool
        slots = 1 << self.R
        pair_evals = self.RESTARTS * sample * (first_pool + (slots - 1) * pool)
        # the rate column of ``rates --experiment hamming`` is R bits per word
        return {"bits": self.R, "distortion": out, "pair_evals": pair_evals}

    @staticmethod
    def same(a, b):
        return a == b


WORKLOADS = {w.name: w for w in (WedgeTarget, WedgeDecode, NetQuantize, HammingCover)}
