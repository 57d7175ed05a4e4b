"""Independent forward pass of a network, sharing no arithmetic with
``evaluate_batch``.

Every float weight and input is a dyadic rational, so the affine steps run
exactly in ``Fraction`` arithmetic, and the ``relu_power`` activation
max(z, 0)^k is exact too.  The ``logistic_power`` activation z^k sigma(z)
has no rational value: sigma is taken in float64, with ``math.exp``, at
the correctly rounded pre-activation ``float(z)``, and its product with
the exact z^k is formed exactly.
"""

import math
from fractions import Fraction

from approxrate.nnet import Network


def _sigma(x: float) -> float:
    if x >= 0.0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def _rho(kind: str, k: int, z: Fraction) -> Fraction:
    if kind == "relu_power":
        return max(z, Fraction(0)) ** k
    return z ** k * Fraction(_sigma(float(z)))


def exact_forward(net: Network, x):
    """(outputs, term sums) of ``net`` at the input point ``x``.

    outputs[r] is output r as a Fraction; term_sums[r] is the sum of the
    absolute values of the terms the last affine step adds up for it (its
    edge weights times their inputs, and its node weight), the scale of
    the cancellation in that output.
    """
    values = [Fraction(float(v)) for v in x]
    spec = net.activation
    for layer, step in enumerate(net.steps):
        out = [Fraction(0)] * step.out_dim
        mag = [Fraction(0)] * step.out_dim
        for r, c, w in step.edge_weights:
            term = Fraction(w) * values[c]
            out[r] += term
            mag[r] += abs(term)
        for r, b in step.node_weights:
            out[r] += Fraction(b)
            mag[r] += abs(Fraction(b))
        if layer == len(net.steps) - 1:
            return out, mag
        values = [_rho(spec.kind, spec.k, z) for z in out]
