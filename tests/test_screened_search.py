"""``quantizer._search_min_m`` reads the float64 bounds and evaluates in
double-double only where they leave a decision open: its m and its error
must be those of a plain full-grid search in double-double, to the bit."""

import numpy as np
import pytest

from approxrate.constructors import build_bspline_net
from approxrate.exceptions import EvalOverflowError, InputShapeError
from approxrate.nnet import AffineStep, Network, evaluate_batch, relu_power
from approxrate.quantizer import (
    _error_bounds,
    _Grid,
    _quantization_grid,
    _search_min_m,
    measured_sup_error,
    quantize_weights,
    weight_range_exponent,
)

from test_quantizer import SCREEN_CASES, full_grid_errors


def _bspline_case(m, k, eta):
    return lambda: (build_bspline_net(m, 2.0 ** -6, 4.0, relu_power(k)).network, eta, 4.0)


CASES = dict(SCREEN_CASES)
CASES.update({f"bspline_m{m}_k{k}_eta{eta}": _bspline_case(m, k, eta)
              for m, k in ((4, 2), (3, 3)) for eta in (0.05, 0.01)})


@pytest.mark.parametrize("name", sorted(CASES))
def test_search_returns_the_full_grid_m_and_error(name):
    net, eta, D = CASES[name]()
    k = weight_range_exponent(net, eta)
    m, errs = full_grid_errors(net, eta, k, D)
    full_max = errs[-1][1]
    found, err = _search_min_m(net, eta, k, D)
    assert found == m
    assert err.hex() == full_max.hex()
    assert measured_sup_error(quantize_weights(net, eta, k, m), net, D).hex() == full_max.hex()


@pytest.mark.parametrize("name", ["bspline_m3_k3_eta0.05", "bspline_m4_k2_eta0.01", "d2"])
def test_error_bounds_enclose_the_double_double_error(name):
    net, eta, D = CASES[name]()
    k = weight_range_exponent(net, eta)
    xs = _quantization_grid(net.input_dim, D, 10_000)
    ref = _Grid(net, xs)
    everywhere = np.ones(xs.shape[1], dtype=bool)
    for m in (1, 3, 6):
        q = _Grid(quantize_weights(net, eta, k, m), xs)
        lo, hi = _error_bounds(q, ref)
        err = np.max(np.abs(q.dd(everywhere) - ref.dd(everywhere)), axis=0)
        assert q.bounded and ref.bounded
        assert np.all(lo <= err) and np.all(err <= hi)


def test_search_raises_the_full_pass_overflow():
    # max(1e200 x, 0)^2 overflows at every x > 0 in float64 and in double-double
    net = Network((AffineStep(1, 1, ((0, 0, 1e200),)), AffineStep(1, 1, ((0, 0, 1.0),))),
                  relu_power(2))
    with pytest.raises(EvalOverflowError) as full:
        evaluate_batch(net, _quantization_grid(1, 1.0, 10_000))
    # the reference overflows before the first quantization, which would
    # refuse a weight this far beyond eta^-k
    with pytest.raises(EvalOverflowError) as search:
        _search_min_m(net, 0.1, 1, 1.0)
    with pytest.raises(EvalOverflowError) as measured:
        measured_sup_error(net, net, 1.0)
    assert str(search.value) == str(measured.value) == str(full.value) \
        == "non-finite value after layer 1"


def test_search_on_a_one_point_grid():
    net, eta, D = CASES["bspline"]()
    k = weight_range_exponent(net, eta)
    xs = _quantization_grid(1, D, 1)
    ref = evaluate_batch(net, xs)
    m, err = _search_min_m(net, eta, k, D, grid=1)
    errs = [float(np.max(np.abs(evaluate_batch(quantize_weights(net, eta, k, j), xs) - ref)))
            for j in range(1, m + 1)]
    assert all(e > eta for e in errs[:-1]) and errs[-1] <= eta
    assert err == errs[-1]


def test_measured_error_of_a_net_of_another_input_dimension_is_refused():
    net, _, D = CASES["bspline"]()
    d2, _, _ = CASES["d2"]()
    with pytest.raises(InputShapeError):
        measured_sup_error(d2, net, D)
