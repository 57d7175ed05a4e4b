import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from approxrate.constructors import build_bspline_net, build_p1, build_power, build_relu
from approxrate.exceptions import QuantizerError, SearchExhaustedError
from approxrate.nnet import (
    AffineStep,
    Network,
    connectivity,
    evaluate_batch,
    logistic_power,
    relu_power,
)
from approxrate.quantizer import (
    _SCREEN_STRIDE,
    _quantization_grid,
    _quantize_values,
    bits_per_weight,
    find_min_m,
    quantize_weights,
    weight_range_exponent,
)


def chain(weights, spec=relu_power(1)):
    return Network(tuple(AffineStep(1, 1, ((0, 0, w),)) for w in weights), spec)


def test_round_to_grid():
    assert _quantize_values([0.1234], 0.1, 1, 2)[0] == pytest.approx(0.12, abs=1e-15)


def test_tie_toward_zero():
    assert _quantize_values([0.015], 0.1, 1, 2)[0] == pytest.approx(0.01, abs=1e-15)
    assert _quantize_values([-0.015], 0.1, 1, 2)[0] == pytest.approx(-0.01, abs=1e-15)
    assert _quantize_values([0.025], 0.1, 1, 2)[0] == pytest.approx(0.02, abs=1e-15)


def test_exact_net_unchanged():
    net = chain([1.0, 1.0])
    for eta, m in ((0.1, 1), (0.25, 2), (0.5, 3)):
        q = quantize_weights(net, eta, 1, m)
        assert q == net


def test_out_of_range_weight_rejected():
    net = chain([100.0, 1.0])
    with pytest.raises(QuantizerError):
        quantize_weights(net, 0.1, 1, 2)


def test_rounded_zeros_are_dropped():
    net = chain([1.0, 1e-9])
    q = quantize_weights(net, 0.1, 1, 2)
    assert connectivity(q) == 1
    assert connectivity(q) <= connectivity(net)


def test_change_bounded_by_half_step():
    rng = np.random.default_rng(7)
    eta, k, m = 0.1, 2, 3
    for w in rng.uniform(-0.9 * eta ** -k, 0.9 * eta ** -k, 200):
        qv = _quantize_values([float(w)], eta, k, m)[0]
        assert abs(qv - w) <= eta ** m / 2 + 1e-12


@settings(max_examples=80, deadline=None)
@given(st.floats(-99.0, 99.0), st.sampled_from([0.5, 0.25, 0.1, 0.05]),
       st.integers(1, 3), st.integers(1, 4))
def test_quantization_idempotent(w, eta, k, m):
    if abs(w) > eta ** -k:
        return
    once = _quantize_values([w], eta, k, m)[0]
    assert _quantize_values([once], eta, k, m)[0] == once


def test_bits_per_weight_values():
    assert bits_per_weight(0.5, 1, 1) == 3
    assert bits_per_weight(0.25, 1, 2) == 7
    assert bits_per_weight(0.1, 2, 3) == 18


def test_bits_per_weight_domain():
    with pytest.raises(QuantizerError):
        bits_per_weight(0.7, 1, 1)


@pytest.mark.parametrize("k, m", [(1, -5), (0, 0), (0, 1), (1, 0), (-2, 4)])
def test_bits_per_weight_refuses_k_or_m_below_one(k, m):
    # (0.1, 1, -5) gave -12 bits and (0.5, 0, 0) one bit, where
    # quantize_weights refuses the same exponents
    with pytest.raises(QuantizerError, match="k and m must be >= 1"):
        bits_per_weight(0.1, k, m)


def test_storability_exhaustive():
    spec = relu_power(2)
    rep = build_relu(0.05, 1.0, spec)
    eta, k, m = 0.1, weight_range_exponent(rep.network, 0.1), 3
    q = quantize_weights(rep.network, eta, k, m)
    bits = bits_per_weight(eta, k, m)
    step = eta ** m
    for s in q.steps:
        for *_, w in list(s.edge_weights) + [(r, v) for r, v in s.node_weights]:
            qq = round(w / step)
            assert abs(qq * step - w) <= 1e-12 * max(1.0, abs(w))
            assert abs(qq) <= eta ** -(m + k) * (1 + 1e-9)
            assert abs(qq) < 1 << (bits - 1)  # sign + magnitude fits


def test_find_min_m_exact_net():
    net = chain([1.0, 1.0])
    assert find_min_m(net, 0.1, 1, 1.0) == 1


def test_find_min_m_bspline():
    rep = build_bspline_net(3, 0.05, 4.0, relu_power(1))
    net = rep.network
    eta = 0.05
    k = weight_range_exponent(net, eta)
    m = find_min_m(net, eta, k, 4.0)
    assert m <= 8
    xs = np.linspace(-4, 4, 10_000)[None, :]
    q = quantize_weights(net, eta, k, m)
    err = np.max(np.abs(evaluate_batch(q, xs) - evaluate_batch(net, xs)))
    assert err <= eta


def test_error_shrinks_with_m():
    rep = build_p1(0.05, 1.0, relu_power(2))
    net = rep.network
    eta, k = 0.25, weight_range_exponent(net, 0.25)
    xs = np.linspace(-1, 1, 2000)[None, :]
    ref = evaluate_batch(net, xs)
    errs = []
    for m in range(1, 6):
        q = quantize_weights(net, eta, k, m)
        errs.append(float(np.max(np.abs(evaluate_batch(q, xs) - ref))))
    # not strictly monotone step by step, but the trend must collapse
    assert errs[-1] <= errs[0] + 1e-15
    assert errs[-1] <= eta ** 2


def test_weight_range_exponent():
    assert weight_range_exponent(chain([1.0, 1.0]), 0.1) == 1
    assert weight_range_exponent(chain([99.0, 1.0]), 0.1) == 2


def test_powers_past_the_float_range_are_refused():
    # eta^-31 = 1e310 would be needed to hold a weight of 1e305
    with pytest.raises(QuantizerError, match="float range"):
        weight_range_exponent(chain([1e305, 1.0]), 1e-10)
    with pytest.raises(QuantizerError, match="float range"):
        quantize_weights(chain([1.0, 1.0]), 0.1, 1, 400)
    with pytest.raises(QuantizerError, match="float range"):
        quantize_weights(chain([1.0, 1.0]), 0.1, 100_000, 2)
    with pytest.raises(QuantizerError, match="float range"):
        _quantize_values([1.0], 1e-300, 1, 2)


def full_grid_errors(net, eta, k, D, m_cap=64):
    """Plain search: quantize, then the sup error on the whole grid, m = 1, 2, ...

    Returns the smallest m within eta (None if there is none) and, per m
    tried, the sup error on the screened columns and on the whole grid.
    """
    xs = _quantization_grid(net.input_dim, D, 10_000)
    ref = evaluate_batch(net, xs)
    errs = []
    for m in range(1, m_cap + 1):
        diff = np.abs(evaluate_batch(quantize_weights(net, eta, k, m), xs) - ref)
        errs.append((float(np.max(diff[:, ::_SCREEN_STRIDE])), float(np.max(diff))))
        if errs[-1][1] <= eta:
            return m, errs
    return None, errs


def narrow_hat(x0, width, height):
    """relu hat of the given height and half-width centred on x0."""
    s = 1.0 / width
    first = AffineStep(1, 3, ((0, 0, s), (1, 0, s), (2, 0, s)),
                       ((0, 1.0 - s * x0), (1, -s * x0), (2, -1.0 - s * x0)))
    second = AffineStep(3, 1, ((0, 0, height), (0, 1, -2.0 * height), (0, 2, height)))
    return Network((first, second), relu_power(1))


def dense_d2_net():
    rng = np.random.default_rng(1)
    return Network((AffineStep.from_dense(rng.uniform(-3, 3, (4, 2)), rng.uniform(-1, 1, 4)),
                    AffineStep.from_dense(rng.uniform(-3, 3, (1, 4)))), relu_power(2))


SCREEN_CASES = {
    "bspline": lambda: (build_bspline_net(3, 0.05, 4.0, relu_power(2)).network, 0.05, 4.0),
    "p1": lambda: (build_p1(0.05, 3.0, relu_power(3)).network, 0.01, 3.0),
    "logistic": lambda: (build_power(1, 0.1, 1.0, logistic_power(2)).network, 0.05, 1.0),
    "d2": lambda: (dense_d2_net(), 0.01, 1.0),
    # the hat sits on a grid point halfway between two screened ones
    "hat": lambda: (narrow_hat(_quantization_grid(1, 1.0, 10_000)[0, _SCREEN_STRIDE // 2],
                               1e-4, 300.0), 0.1, 1.0),
}


@pytest.mark.parametrize("name", sorted(SCREEN_CASES))
def test_find_min_m_matches_full_grid_search(name):
    net, eta, D = SCREEN_CASES[name]()
    k = weight_range_exponent(net, eta)
    m, errs = full_grid_errors(net, eta, k, D)
    assert m is not None
    assert find_min_m(net, eta, k, D) == m
    if name == "hat":
        # some m passes the screen yet fails the whole grid
        assert any(screen <= eta < full for screen, full in errs)


def test_find_min_m_exhausted_like_full_grid_search():
    net, eta, D = SCREEN_CASES["bspline"]()
    k = weight_range_exponent(net, eta)
    m, _ = full_grid_errors(net, eta, k, D, m_cap=3)
    assert m is None
    with pytest.raises(SearchExhaustedError):
        find_min_m(net, eta, k, D, m_cap=3)


def test_find_min_m_empty_grid_refused():
    with pytest.raises(QuantizerError):
        find_min_m(chain([1.0, 1.0]), 0.1, 1, 1.0, grid=0)
