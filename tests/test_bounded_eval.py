"""The float64 pass of ``nnet._evaluate_bounded`` and its error bound,
against the exact forward pass of ``exact_net``.

At every point where the bound is finite, the float64 value and the
double-double value of ``evaluate_batch`` must each lie within it of the
exact value, and of each other.
"""

from fractions import Fraction

import numpy as np
import pytest

from approxrate.constructors import build_bspline_net, build_power
from approxrate.exceptions import EvalOverflowError
from approxrate.nnet import (
    AffineStep,
    Network,
    _evaluate_bounded,
    evaluate_batch,
    logistic_power,
    relu_power,
)

from exact_net import exact_forward


def _dyadic_points(rng, d, count):
    """count random multiples of 2^-10 in [-4, 4)^d, as a (d, count) batch."""
    return rng.integers(-4 << 10, 4 << 10, (d, count)) / 1024.0


def _bounded_points(net, xs):
    """Check the bound at every column of xs; return how many had a finite one."""
    value, bound = _evaluate_bounded(net, xs)
    assert value.shape == bound.shape == (net.output_dim, xs.shape[1])
    assert np.all(bound >= 0.0)
    finite = 0
    for j in range(xs.shape[1]):
        if not np.all(np.isfinite(bound[:, j])):
            continue
        finite += 1
        dd = evaluate_batch(net, xs[:, j:j + 1])[:, 0]
        exact, _ = exact_forward(net, xs[:, j])
        for v, d, want, b in zip(value[:, j], dd, exact, bound[:, j]):
            v, d, b = Fraction(float(v)), Fraction(float(d)), Fraction(float(b))
            assert abs(v - want) <= b
            assert abs(d - want) <= b
            assert abs(v - d) <= b
    return finite


def _weight(rng):
    """A random sign times a magnitude log-uniform on [1e-3, 1e12]."""
    return float(rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-3.0, 12.0))


def _random_net(rng, k, d):
    widths = [d, *rng.integers(1, 4, rng.integers(1, 3)).tolist(), 1]
    steps = []
    for i, o in zip(widths, widths[1:]):
        edges = [(r, c, _weight(rng)) for r in range(o) for c in range(i)
                 if rng.random() < 0.8]
        nodes = [(r, _weight(rng)) for r in range(o) if rng.random() < 0.7]
        steps.append(AffineStep(i, o, tuple(edges), tuple(nodes)))
    return Network(tuple(steps), relu_power(k))


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_bound_holds_on_random_nets(k, d):
    rng = np.random.default_rng(100 * k + d)
    finite = 0
    for _ in range(8):
        net = _random_net(rng, k, d)
        finite += _bounded_points(net, _dyadic_points(rng, d, 12))
    # most points are far from the float range, so the check is not vacuous
    assert finite >= 48


def test_bound_holds_through_cancellation():
    # (x + 2^40) - 2^40 = x for x > -2^40: float64 loses x's low bits
    first = AffineStep(1, 2, ((0, 0, 1.0),), ((0, 2.0 ** 40), (1, 2.0 ** 40)))
    second = AffineStep(2, 1, ((0, 0, 1.0), (0, 1, -1.0)))
    net = Network((first, second), relu_power(1))
    xs = _dyadic_points(np.random.default_rng(3), 1, 32) + 2.0 ** -30
    assert _bounded_points(net, xs) == 32
    value, bound = _evaluate_bounded(net, xs)
    assert np.any(value != xs)  # the float64 pass really is off
    assert np.all(bound <= 2.0 ** -8)  # a few ulps of 2^40, which are 2^-12


@pytest.mark.parametrize("m,k", [(4, 2), (3, 3)])
def test_bound_holds_on_built_bspline_nets(m, k):
    net = build_bspline_net(m, 2.0 ** -6, 4.0, relu_power(k)).network
    xs = _dyadic_points(np.random.default_rng(10 * m + k), 1, 48)
    assert _bounded_points(net, xs) == 48


def test_bound_gives_up_near_the_float_range():
    # x -> max(1e200 x, 0)^2 overflows at x = 0.5; at x = -1 the value is 0
    # but its bound, (1e200 u)^2, would overflow
    net = Network((AffineStep(1, 1, ((0, 0, 1e200),)), AffineStep(1, 1, ((0, 0, 1.0),))),
                  relu_power(2))
    xs = np.array([[-1.0, -1e-150, 0.0, 1e-300, 0.5]])
    _, bound = _evaluate_bounded(net, xs)
    assert np.isfinite(bound[0]).tolist() == [False, True, True, True, False]
    assert _bounded_points(net, xs) == 3
    assert evaluate_batch(net, xs[:, :1])[0, 0] == 0.0
    with pytest.raises(EvalOverflowError):
        evaluate_batch(net, xs[:, 4:])


def test_logistic_net_gets_an_infinite_bound():
    net = build_power(1, 0.1, 1.0, logistic_power(2)).network
    _, bound = _evaluate_bounded(net, np.linspace(-1.0, 1.0, 9)[None, :])
    assert np.all(bound == np.inf)


def test_step_too_wide_for_a_dense_pass_gets_no_bound():
    # 4096 x 2048 dense entries, beyond the 2^22 the float64 pass builds
    wide = AffineStep(1, 4096, ((0, 0, 1.0),))
    net = Network((wide, AffineStep(4096, 2048, ((0, 0, 1.0),)),
                   AffineStep(2048, 1, ((0, 0, 1.0),))), relu_power(1))
    _, bound = _evaluate_bounded(net, np.array([[0.5, 1.0]]))
    assert np.all(bound == np.inf)


def test_bound_holds_across_column_blocks():
    # the (4, 2) net's widest step has 30 rows, so 10 000 columns take 19
    # blocks of 546; the first and last column of each is checked exactly
    net = build_bspline_net(4, 2.0 ** -6, 4.0, relu_power(2)).network
    xs = _dyadic_points(np.random.default_rng(7), 1, 10_000)
    value, bound = _evaluate_bounded(net, xs)
    assert np.all(np.abs(value - evaluate_batch(net, xs)) <= bound)
    edges = sorted({j for lo in range(0, 10_000, 546) for j in (lo, min(lo + 545, 9_999))})
    assert _bounded_points(net, xs[:, edges]) == len(edges) == 38


def test_bounded_pass_keeps_its_temporaries_small():
    # a whole-grid pass would hold several (30, 10 000) temporaries at once
    import tracemalloc

    net = build_bspline_net(4, 2.0 ** -6, 4.0, relu_power(2)).network
    xs = np.linspace(-4.0, 4.0, 10_000)[None, :]
    tracemalloc.start()
    try:
        _evaluate_bounded(net, xs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20
