"""Sparse feed-forward networks: representation, evaluation, combinators.

A network is an ordered list of sparse affine steps with one activation
function applied between consecutive steps (never after the last one).
Connectivity is the number of stored nonzero edge and node weights, which
is the complexity budget everything downstream accounts against.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .exceptions import (
    CompositionError,
    EvalOverflowError,
    FormatError,
    InputShapeError,
    array,
    instance,
    integer,
    real,
    sequence,
)

__all__ = [
    "AffineStep",
    "ActivationSpec",
    "Network",
    "relu_power",
    "logistic_power",
    "evaluate_batch",
    "connectivity",
    "serial_compose",
    "parallel_compose",
    "identity_extend",
    "network_to_json",
    "network_from_json",
]


# Largest sigmoidal order k: evaluating a net takes k - 1 products a layer
MAX_ORDER = 64


def _clean(entries, dims):
    """Validate, sort and drop exact zeros from ``(*index, value)`` entries.

    ``dims`` holds the range of each index: ``(out_dim, in_dim)`` for the
    (row, col, value) edges of a step, ``(out_dim,)`` for its (row, value)
    nodes.  With one or two indices, ``key[0]`` and ``key[-1]`` are all of
    them.
    """
    seen = set()
    kept = []
    for *key, val in entries:
        key = tuple(key)
        if len(key) != len(dims):
            raise FormatError(f"entry {key} needs {len(dims)} indices and a value")
        # plain ints and floats, as JSON reads them, need no conversion
        if not (type(val) is float and type(key[0]) is type(key[-1]) is int):
            key = tuple(integer(i, None, None, FormatError, "index") for i in key)
            val = real(val, -math.inf, math.inf, FormatError, "weight")
        if not (0 <= key[0] < dims[0] and 0 <= key[-1] < dims[-1]):
            raise InputShapeError(f"index {key} outside {dims}")
        if key in seen:
            raise FormatError(f"duplicate entry {key}")
        seen.add(key)
        if not math.isfinite(val):
            raise FormatError(f"non-finite weight at {key}")
        if val != 0.0:
            kept.append((*key, val))
    kept.sort()
    return tuple(kept)


@dataclass(frozen=True)
class AffineStep:
    """One affine map x -> Ax + b stored as sparse triples/pairs.

    Only nonzero entries are stored; zeros are silently dropped so the
    connectivity count stays honest.
    """

    in_dim: int
    out_dim: int
    edge_weights: tuple = ()
    node_weights: tuple = ()

    def __post_init__(self):
        for name in ("in_dim", "out_dim"):
            object.__setattr__(self, name, integer(
                getattr(self, name), 1, None, (FormatError, InputShapeError), name))
        object.__setattr__(self, "edge_weights", _clean(
            sequence(self.edge_weights, FormatError, "edge weights"),
            (self.out_dim, self.in_dim)))
        object.__setattr__(self, "node_weights", _clean(
            sequence(self.node_weights, FormatError, "node weights"), (self.out_dim,)))

    @classmethod
    def from_dense(cls, matrix, bias=None):
        matrix = array(matrix, (None, None), (InputShapeError, FormatError), "dense matrix")
        out_dim, in_dim = matrix.shape
        rows, cols = np.nonzero(matrix)
        edges = zip(rows.tolist(), cols.tolist(), matrix[rows, cols].tolist())
        nodes = ()
        if bias is not None:
            bias = array(np.ravel(bias), (out_dim,), (InputShapeError, FormatError), "bias")
            rows = np.flatnonzero(bias)
            nodes = zip(rows.tolist(), bias[rows].tolist())
        return cls(in_dim, out_dim, tuple(edges), tuple(nodes))

    def matrix(self):
        a = np.zeros((self.out_dim, self.in_dim))
        for r, c, v in self.edge_weights:
            a[r, c] = v
        return a

    def bias(self):
        b = np.zeros(self.out_dim)
        for r, v in self.node_weights:
            b[r] = v
        return b

    @property
    def weight_count(self):
        return len(self.edge_weights) + len(self.node_weights)


_KINDS = ("relu_power", "logistic_power")


@dataclass(frozen=True)
class ActivationSpec:
    """Activation with its sigmoidal order and growth/decay constants.

    ``constants = (C, a, b)`` quantify the decay of rho(x)/x^k toward 0
    and 1 and bound |rho| and |rho'|.  They are not proved; what checks
    them is the measured error of networks built with them, in the
    logistic builds of ``tests/test_constructors.py`` and the logistic
    certificate of ``tests/test_cli.py``.
    """

    kind: str
    k: int
    C: float = 1.0
    a: float = 1.0
    b: float = 1.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise FormatError(f"unknown activation kind {self.kind!r}")
        object.__setattr__(self, "k", integer(self.k, 1, MAX_ORDER, FormatError,
                                              "sigmoidal order k"))
        for name in "Cab":
            object.__setattr__(self, name, real(getattr(self, name), 0.0, math.inf,
                                                FormatError, name, open_lo=True))


def _sigmoid(x):
    out = np.empty_like(x, dtype=float)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def relu_power(k):
    """x -> max(0, x)^k with its canonical constants."""
    k = integer(k, 1, MAX_ORDER, FormatError, "k")
    return ActivationSpec("relu_power", k, C=float(max(1, k)), a=1.0,
                          b=float(max(1, k - 1)))


def logistic_power(k):
    """x -> x^k * sigmoid(x); order-k sigmoidal, smooth everywhere."""
    k = integer(k, 1, MAX_ORDER, FormatError, "k")
    return ActivationSpec("logistic_power", k, C=2.0, a=1.0, b=float(k))


@dataclass(frozen=True)
class Network:
    """Feed-forward net: affine steps with activation between them.

    The chain ``steps[l].in_dim == steps[l-1].out_dim`` is enforced; depth
    is ``len(steps)`` and the activation acts after every step except the
    last.  Instances are immutable value objects.
    """

    steps: tuple
    activation: ActivationSpec

    def __post_init__(self):
        steps = sequence(self.steps, CompositionError, "steps")
        for step in steps:
            instance(step, AffineStep, CompositionError, "step")
        instance(self.activation, ActivationSpec, CompositionError, "activation")
        if len(steps) < 2:
            raise CompositionError("a network needs at least 2 layers")
        for prev, cur in zip(steps, steps[1:]):
            if cur.in_dim != prev.out_dim:
                raise InputShapeError(
                    f"dimension chain broken: {prev.out_dim} -> {cur.in_dim}")
        object.__setattr__(self, "steps", steps)

    @property
    def input_dim(self):
        return self.steps[0].in_dim

    @property
    def output_dim(self):
        return self.steps[-1].out_dim

    @property
    def depth(self):
        return len(self.steps)

    def max_abs_weight(self):
        vals = [abs(v) for s in self.steps for _, _, v in s.edge_weights]
        vals += [abs(v) for s in self.steps for _, v in s.node_weights]
        return max(vals) if vals else 0.0


def connectivity(net: Network) -> int:
    """Total number of stored nonzero edge and node weights."""
    instance(net, Network, InputShapeError, "net")
    return sum(s.weight_count for s in net.steps)


def evaluate_batch(net: Network, xs) -> np.ndarray:
    """Evaluate on a (input_dim, n) batch; returns (output_dim, n).

    Every network runs through compensated (double-double) arithmetic:
    the explicit constructions sum terms of size far beyond 1/eps that
    cancel to order one, which raw float64 cannot survive.  Only the
    sigmoid of ``logistic_power`` is taken in float64.  Each output column
    depends only on its own input column.
    """
    instance(net, Network, InputShapeError, "net")
    return _evaluate_dd(net, array(xs, (net.input_dim, None), InputShapeError,
                                    "batch of shape ({}, {})"))


_SPLITTER = 134217729.0  # 2^27 + 1, Dekker's constant


def _two_sum(a, b):
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _quick_two_sum(a, b):
    s = a + b
    return s, b - (s - a)


def _two_prod(a, b):
    p = a * b
    ta = _SPLITTER * a
    ahi = ta - (ta - a)
    alo = a - ahi
    tb = _SPLITTER * b
    bhi = tb - (tb - b)
    blo = b - bhi
    return p, ((ahi * bhi - p) + ahi * blo + alo * bhi) + alo * blo


def _dd_add(xh, xl, yh, yl):
    sh, sl = _two_sum(xh, yh)
    return _quick_two_sum(sh, sl + (xl + yl))


def _dd_mul(xh, xl, yh, yl):
    ph, pl = _two_prod(xh, yh)
    return _quick_two_sum(ph, pl + (xh * yl + xl * yh))


def _dd_scale(xh, xl, c):
    ph, pl = _two_prod(xh, c)
    return _quick_two_sum(ph, pl + c * xl)


def _dd_activation(spec: ActivationSpec, zh, zl):
    """rho(z) in double-double: the positive part for ``relu_power``, then
    the k-th power, times sigmoid of the high word for ``logistic_power``."""
    if spec.kind == "relu_power":
        keep = (zh > 0.0) | ((zh == 0.0) & (zl > 0.0))
        zh, zl = np.where(keep, zh, 0.0), np.where(keep, zl, 0.0)
    rh, rl = zh, zl
    for _ in range(spec.k - 1):
        rh, rl = _dd_mul(rh, rl, zh, zl)
    if spec.kind == "logistic_power":
        rh, rl = _dd_scale(rh, rl, _sigmoid(zh))
    return rh, rl


def _evaluate_dd(net: Network, z: np.ndarray) -> np.ndarray:
    zh = z.astype(float)
    zl = np.zeros_like(zh)
    batch = zh.shape[1]
    last = len(net.steps) - 1
    with np.errstate(over="ignore", invalid="ignore"):
        for layer, step in enumerate(net.steps):
            oh = np.zeros((step.out_dim, batch))
            ol = np.zeros((step.out_dim, batch))
            for r, c, v in step.edge_weights:
                th, tl = _dd_scale(zh[c], zl[c], v)
                oh[r], ol[r] = _dd_add(oh[r], ol[r], th, tl)
            for r, v in step.node_weights:
                sh, sl = _two_sum(oh[r], v)
                oh[r], ol[r] = _quick_two_sum(sh, sl + ol[r])
            # checked before the activation: its clamping would erase the
            # non-finite evidence of an affine overflow
            if not np.all(np.isfinite(oh)):
                raise EvalOverflowError(f"non-finite value after layer {layer + 1}")
            if layer != last:
                oh, ol = _dd_activation(net.activation, oh, ol)
                if not np.all(np.isfinite(oh)):
                    raise EvalOverflowError(
                        f"non-finite value after layer {layer + 1}")
            zh, zl = oh, ol
    return zh + zl


# Constants of _evaluate_bounded's error bound.
_U = 2.0 ** -53  # float64 unit roundoff
# Each double-double operation here errs by some tens of u^2 times its
# operands' magnitude at most (Joldes, Muller and Popescu, ACM TOMS 44(2),
# 2017, bound the product by 7 u^2; the sloppy sum's last Fast2Sum, which
# may not be exact after a cancellation, adds the rest); 1024 u^2 covers it
_U_DD = 2.0 ** -96
# Scales a nonnegative quantity computed in round-to-nearest from at most
# 2^22 operations per value to an upper bound on its exact value
_UP = 1.0 + 2.0 ** -30
# Dense matrix entries per affine step, which caps a row's operations too
_DENSE_CAP = 1 << 22
# Absolute error of one underflowing operation, in either arithmetic
_TINY = 2.0 ** -1000
# Double-double splits its operands with Dekker's constant 2^27 + 1, which
# overflows beyond 2^996; no bound is given for a point that gets near it
_BIG = 2.0 ** 900
# _evaluate_bounded takes its columns in blocks whose temporaries hold at
# most 2^14 floats (128 KiB), or _BLOCK_COLS columns for a very wide net:
# temporaries of a whole grid, a few MB each, would be mapped and faulted
# in afresh on every call, a third of the pass in system time
_BLOCK_ENTRIES = 1 << 14
_BLOCK_COLS = 64


def _gamma(n):
    """Higham's gamma_n = n u / (1 - n u), u the float64 unit roundoff plus
    the double-double one."""
    nu = n * (_U + _U_DD)
    return nu / (1.0 - nu)


def _evaluate_bounded(net: Network, z: np.ndarray):
    """Float64 forward pass with a bound on its distance from ``_evaluate_dd``.

    Returns (value, bound), both (output_dim, n): value is the network in
    float64 and |value - _evaluate_dd(net, z)| <= bound at every entry.
    The bound is the a priori one of Higham, *Accuracy and Stability of
    Numerical Algorithms*, 2nd ed., ch. 3, carried layer by layer for the
    float64 pass and the double-double pass at once, and rounded upward:

    - an affine row of n_r terms adds gamma_{n_r+1} (|A|(|z| + e) + |b|)
      + |A| e, e the bound on its input;
    - relu_power(k), its power taken by k - 1 multiplications, adds
      k (max(z, 0) + e)^(k-1) e + gamma_k (max(z, 0) + e)^k;
    - the final rounding of the double-double value adds 2u (|z| + e).

    The bound is inf wherever it cannot be given: at every point of a
    logistic_power net or of a net with a step wider than ``_DENSE_CAP``
    dense entries, and at a point whose values grow near the float range,
    where double-double itself may overflow.  A batch ``evaluate_batch``
    would refuse gets inf too, so that its caller meets the refusal there.
    """
    if net.activation.kind != "relu_power" or z.ndim != 2 or z.shape[0] != net.input_dim \
            or any(s.in_dim * s.out_dim > _DENSE_CAP for s in net.steps) \
            or not (net.max_abs_weight() <= _BIG and np.max(np.abs(z), initial=0.0) <= _BIG):
        shape = (net.output_dim, z.shape[1])
        return np.zeros(shape), np.full(shape, np.inf)
    layers = []
    for step in net.steps:
        a = step.matrix()
        bias = step.bias()[:, None]
        n_r = np.count_nonzero(a, axis=1)[:, None]
        g = _gamma(n_r + 1)
        # rounded upward by folding _UP into every coefficient;
        # |A|(|z| + e) bounds |A||z_dd| as well as |A||z|
        layers.append((a, bias, (_UP * (1.0 + g)) * np.abs(a), (_UP * g) * np.abs(a),
                       _UP * (g * np.abs(bias) + (n_r + 1) * _TINY)))
    width = max(s.out_dim for s in net.steps)
    cols = max(_BLOCK_COLS, _BLOCK_ENTRIES // width)
    shape = (net.output_dim, z.shape[1])
    value, bound = np.empty(shape), np.empty(shape)
    with np.errstate(all="ignore"):
        for lo in range(0, z.shape[1], cols):
            part = slice(lo, lo + cols)
            value[:, part], bound[:, part] = _bounded_pass(
                layers, net.activation.k, z[:, part])
    return value, bound


def _bounded_pass(layers, k, z):
    """``_evaluate_bounded`` on one block of columns, from the steps' matrix,
    bias, the two scaled |A| of the bound's affine term and its floor."""
    size, e = np.abs(z), np.zeros_like(z, dtype=float)  # size = |z|
    last = len(layers) - 1
    for layer, (a, bias, spread_a, size_a, floor) in enumerate(layers):
        z = a @ z
        z += bias
        e = spread_a @ e + size_a @ size
        e += floor
        _drop_near_overflow(e)
        if layer != last:
            r = np.maximum(z, 0.0)
            top = r + e  # bounds max(z, 0) in both arithmetics
            z = r
            for _ in range(k - 1):
                z = z * r
            # k top^(k-1) e + gamma_k top^k
            e = (k * _UP) * e + (_gamma(k) * _UP) * top
            for _ in range(k - 1):
                e *= top
            e += k * _UP * _TINY
            _drop_near_overflow(e)
            size = z
    return z, ((1.0 + 2.0 * _U) * _UP) * e + (2.0 * _U * _UP) * np.abs(z)


def _drop_near_overflow(e):
    """Make e inf, in place, where it exceeds u _BIG.

    e is at least gamma_1 > u times every value, partial sum and power it
    bounds, so where e <= u _BIG they all stay below _BIG.
    """
    if not np.max(e, initial=0.0) <= _U * _BIG:
        e[~(e <= _U * _BIG)] = np.inf


def _check_same_activation(a: Network, b: Network):
    if a.activation != b.activation:
        raise CompositionError("activation specs differ")


def serial_compose(first: Network, second: Network) -> Network:
    """Feed ``first`` into ``second``; the junction affine maps are fused.

    No activation separates first's last step from second's first step, so
    their composition is a single affine map and the result has depth
    L1 + L2 - 1.  Entries that cancel to exactly 0.0 are dropped.
    """
    instance(first, Network, CompositionError, "first")
    instance(second, Network, CompositionError, "second")
    _check_same_activation(first, second)
    if second.input_dim != first.output_dim:
        raise CompositionError(
            f"cannot chain output dim {first.output_dim} into input dim "
            f"{second.input_dim}")
    f_last, s_first = first.steps[-1], second.steps[0]
    fused_a = s_first.matrix() @ f_last.matrix()
    fused_b = s_first.matrix() @ f_last.bias() + s_first.bias()
    fused = AffineStep.from_dense(fused_a, fused_b)
    return Network(first.steps[:-1] + (fused,) + second.steps[1:],
                   first.activation)


def parallel_compose(nets, coeffs, shifts=None) -> Network:
    """Run the nets side by side and combine outputs affinely.

    Computes sum_i coeffs[i] * nets[i](x + shifts[i]).  Shifts become
    first-layer node weights (entering as A_first @ shift); the combining
    coefficients are folded multiplicatively into each subnet's final step,
    so depth is unchanged and no extra weights appear for them.  Subnets
    with a zero coefficient are pruned entirely.
    """
    nets = [instance(net, Network, CompositionError, "net")
            for net in sequence(nets, CompositionError, "nets")]
    coeffs = [real(c, -math.inf, math.inf, CompositionError, "coeff")
              for c in sequence(coeffs, CompositionError, "coeffs")]
    shifts = [0.0] * len(nets) if shifts is None else [
        real(s, -math.inf, math.inf, CompositionError, "shift")
        for s in sequence(shifts, CompositionError, "shifts")]
    if not nets or len(nets) != len(coeffs) or len(nets) != len(shifts):
        raise CompositionError("nets, coeffs and shifts must align and be nonempty")
    keep = [(n, c, s) for n, c, s in zip(nets, coeffs, shifts) if c != 0.0]
    if not keep:
        raise CompositionError("all combining coefficients are zero")
    nets, coeffs, shifts = zip(*keep)
    base = nets[0]
    d = base.input_dim
    for net in nets[1:]:
        _check_same_activation(base, net)
        if net.input_dim != d:
            raise CompositionError("input dimensions differ")
        if net.depth != base.depth:
            raise CompositionError(
                "ragged depths; identity-extend the shallow nets first")

    depth = base.depth
    out_dim = base.output_dim
    if any(net.output_dim != out_dim for net in nets):
        raise CompositionError("output dimensions differ")

    new_steps = []
    in_dim = d
    for layer in range(depth):
        blocks = [net.steps[layer] for net in nets]
        last = layer == depth - 1
        step_out = out_dim if last else sum(blk.out_dim for blk in blocks)
        edges = []
        bias = np.zeros(step_out)
        in_off = 0
        out_off = 0
        for i, blk in enumerate(blocks):
            col_base = 0 if layer == 0 else in_off
            row_base = 0 if last else out_off
            scale = coeffs[i] if last else 1.0
            # a block owns its rows below the last layer and its columns in
            # it, so edges never collide; only the last layer's biases add up
            edges.extend((row_base + r, col_base + c, scale * v)
                         for r, c, v in blk.edge_weights)
            blk_bias = blk.bias() * scale
            if layer == 0 and shifts[i] != 0.0:
                blk_bias = blk_bias + scale * (blk.matrix() @ np.full(d, shifts[i]))
            bias[row_base:row_base + blk.out_dim] += blk_bias
            in_off += blk.in_dim
            out_off += blk.out_dim
        rows = np.flatnonzero(bias)
        new_steps.append(AffineStep(in_dim, step_out, tuple(edges),
                                    tuple(zip(rows.tolist(), bias[rows].tolist()))))
        in_dim = step_out
    return Network(tuple(new_steps), base.activation)


def identity_extend(net: Network) -> Network:
    """Deepen a relu_power(k=1) network by one exact identity layer.

    Uses x = relu(x) - relu(-x) on the scalar output, so only order-1 ReLU
    nets can be extended exactly.
    """
    act = instance(net, Network, CompositionError, "net").activation
    if not (act.kind == "relu_power" and act.k == 1):
        raise CompositionError("exact identity extension needs relu_power k=1")
    if net.output_dim != 1:
        raise CompositionError("identity extension expects a scalar output")
    last = net.steps[-1]
    a, b = last.matrix(), last.bias()
    up = AffineStep.from_dense(np.vstack([a, -a]), np.concatenate([b, -b]))
    down = AffineStep(2, 1, ((0, 0, 1.0), (0, 1, -1.0)))
    return Network(net.steps[:-1] + (up, down), act)


NETWORK_FORMAT_VERSION = 1


def network_to_json(net: Network) -> str:
    """Serialize with full-precision decimal numbers (repr round-trip)."""
    instance(net, Network, FormatError, "net")
    act = net.activation
    doc = {
        "format": NETWORK_FORMAT_VERSION,
        "d": net.input_dim,
        "L": net.depth,
        "activation": {"kind": act.kind, "k": act.k, "C": act.C,
                       "a": act.a, "b": act.b},
        "steps": [
            {
                "in": s.in_dim,
                "out": s.out_dim,
                "edges": [[r, c, v] for r, c, v in s.edge_weights],
                "nodes": [[r, v] for r, v in s.node_weights],
            }
            for s in net.steps
        ],
    }
    return json.dumps(doc, indent=1)


def network_from_json(text: str | bytes) -> Network:
    """Parse and validate a serialized network (all invariants re-checked)."""
    instance(text, (str, bytes, bytearray), FormatError, "text")
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise FormatError(f"invalid network JSON: {exc}") from exc
    try:
        if integer(doc["format"], None, None, FormatError, "format") \
                != NETWORK_FORMAT_VERSION:
            raise FormatError(f"unsupported network format {doc['format']}")
        a = doc["activation"]
        spec = ActivationSpec(a["kind"], a["k"], a["C"], a["a"], a["b"])
        steps = tuple(AffineStep(s["in"], s["out"], s["edges"], s["nodes"])
                      for s in doc["steps"])
        net = Network(steps, spec)
        if net.input_dim != integer(doc["d"], None, None, FormatError, "d"):
            raise FormatError("declared input dimension disagrees with steps")
        if net.depth != integer(doc["L"], None, None, FormatError, "L"):
            raise FormatError("declared depth disagrees with steps")
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise FormatError(f"malformed network document: {exc}") from exc
    return net
