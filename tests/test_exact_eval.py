"""``evaluate_batch`` against the exact forward pass of ``exact_net``."""

from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from approxrate.constructors import build_p1, build_power, build_relu
from approxrate.nnet import evaluate_batch, logistic_power, network_from_json

from exact_net import exact_forward

GOLDEN = Path(__file__).resolve().parent / "golden"
EXACT_TOL = 1e-14  # relative to max(1, |exact|), as in the benchmark's check


def _errors(net, xs):
    """(|evaluate_batch - exact|, exact, term sum) per point of xs."""
    got = evaluate_batch(net, np.asarray(xs, dtype=float)[None, :])[0]
    rows = []
    for x, value in zip(xs, got):
        (want,), (terms,) = exact_forward(net, [x])
        rows.append((abs(Fraction(float(value)) - want), want, terms))
    return rows


# 129 points on [-4, 4] hit every integer knot of N_m and its shifts, and
# 32 seeded ones fall between dyadic grid points
GOLDEN_XS = np.concatenate([np.linspace(-4.0, 4.0, 129),
                            np.random.default_rng(0).uniform(-4.0, 4.0, 32)])


@pytest.mark.parametrize("path", sorted(GOLDEN.glob("*.json")), ids=lambda p: p.stem)
def test_golden_nets_match_exact_forward_pass(path):
    net = network_from_json(path.read_text())
    for err, want, _ in _errors(net, GOLDEN_XS):
        assert err <= EXACT_TOL * max(1, abs(want))


LOGISTIC_NETS = {
    "p1_k1": lambda: build_p1(0.05, 1.0, logistic_power(1)),
    "relu_k1": lambda: build_relu(0.2, 1.0, logistic_power(1)),
    "relu_k2": lambda: build_relu(0.2, 1.0, logistic_power(2)),
    "power_k2": lambda: build_power(1, 0.1, 1.0, logistic_power(2)),
}


@pytest.mark.parametrize("name", sorted(LOGISTIC_NETS))
def test_logistic_nets_match_exact_forward_pass(name):
    """Both sides take sigma in float64, so they differ by its rounding.

    Each hidden value z^k sigma(z) then carries the error of one float64
    sigma per side (numpy's exp against math.exp, each faithful, then one
    division): a few ulp, which 2^-50 (4 ulp) covers.  The last affine
    step scales those errors by at most its term sum T, and the
    double-double sums add only about 2^-104 T.  Far left of 0 sigma
    underflows and an output may be subnormal, so its final rounding
    needs one subnormal ulp, 2^-1074, on top.
    """
    net = LOGISTIC_NETS[name]().network
    for err, _, terms in _errors(net, np.linspace(-1.0, 1.0, 401)):
        assert err <= Fraction(2) ** -50 * terms + Fraction(2) ** -1074
