from fractions import Fraction
from math import comb

import numpy as np
import pytest

from approxrate.constructors import (
    BuildReport,
    build_bspline_net,
    build_p1,
    build_plus_monomial,
    build_plus_power,
    build_power,
    build_relu,
    min_power_depth,
    transfer_expansion,
    vandermonde_a,
    vandermonde_alpha,
)
from approxrate.exceptions import BuilderError, ConditioningError
from approxrate.nnet import (
    connectivity,
    evaluate_batch,
    logistic_power,
    relu_power,
)
from approxrate.ratelab import l2_error_quad, sup_error_on_grid
from approxrate.splines import bspline_closed

RELU = {k: relu_power(k) for k in (1, 2, 3)}


def fraction_vandermonde_oracle(size, rhs_row, rhs_value):
    """Cramer's-rule rational solve, independent of the library path."""
    mat = [[Fraction(i) ** (size - 1 - v) for i in range(size)]
           for v in range(size)]
    rhs = [Fraction(0)] * size
    rhs[rhs_row] = rhs_value

    def det(m):
        m = [row[:] for row in m]
        n = len(m)
        result = Fraction(1)
        for col in range(n):
            pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
            if pivot is None:
                return Fraction(0)
            if pivot != col:
                m[col], m[pivot] = m[pivot], m[col]
                result = -result
            result *= m[col][col]
            for r in range(col + 1, n):
                factor = m[r][col] / m[col][col]
                for c in range(col, n):
                    m[r][c] -= factor * m[col][c]
        return result

    base = det(mat)
    sol = []
    for i in range(size):
        m_i = [[rhs[r] if c == i else mat[r][c] for c in range(size)]
               for r in range(size)]
        sol.append(det(m_i) / base)
    return sol


def test_vandermonde_alpha_values():
    assert np.allclose(vandermonde_alpha(1), [1.0, 0.0])
    assert np.allclose(vandermonde_alpha(2), [-0.75, 1.0, -0.25])


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_vandermonde_alpha_against_fraction_oracle(k):
    got = vandermonde_alpha(k)
    want = fraction_vandermonde_oracle(k + 1, 1, Fraction(1, k))
    assert np.max(np.abs(got - np.array([float(w) for w in want]))) <= 1e-12


@pytest.mark.parametrize("k", [1, 2, 3])
def test_vandermonde_alpha_identity_probe(k):
    alpha = vandermonde_alpha(k)
    for x in (-1.0, 0.3, 2.0):
        val = sum(alpha[mu] * (x + mu) ** k for mu in range(k + 1))
        assert val == pytest.approx(x, abs=1e-10)


def test_vandermonde_alpha_guards():
    with pytest.raises(BuilderError):
        vandermonde_alpha(0)
    with pytest.raises(ConditioningError):
        vandermonde_alpha(13)


def test_vandermonde_a_trivial():
    assert np.allclose(vandermonde_a(2, 1, 1), [1.0, 0.0])


def test_vandermonde_a_against_fraction_oracle():
    got = vandermonde_a(3, 2, 1)  # K = 2, expands x^2's degree-2 identity
    want = fraction_vandermonde_oracle(3, 2, Fraction(1, 1))
    assert np.max(np.abs(got - np.array([float(w) for w in want]))) <= 1e-12


def _rounded_once(size, rhs_row, rhs_value):
    return np.array([float(w) for w in
                     fraction_vandermonde_oracle(size, rhs_row, rhs_value)])


def test_shift_weights_are_the_exact_solution_rounded_once():
    for k in range(1, 13):
        want = _rounded_once(k + 1, 1, Fraction(1, k))
        assert vandermonde_alpha(k).tobytes() == want.tobytes()
    solved = []
    for k in range(1, 5):
        for m in range(2, 18):
            try:
                got = vandermonde_a(m, k)
            except BuilderError:  # includes ConditioningError
                continue
            K = k ** min_power_depth(m, k)
            want = _rounded_once(K + 1, m - 1, Fraction(1, comb(K, m - 1)))
            assert got.tobytes() == want.tobytes()
            solved.append((m, k))
    assert len(solved) == 20  # the pairs that k^L <= 16 and the residual checks admit


def test_vandermonde_a_identity_probe():
    a = vandermonde_a(4, 2)  # K = 4
    for x in (-1.0, 0.0, 0.5, 1.0, 2.0):
        val = sum(a[i] * (x + i) ** 4 for i in range(5))
        assert val == pytest.approx(x ** 3, abs=1e-8)


def test_min_power_depth():
    assert min_power_depth(2, 1) == 1
    assert min_power_depth(3, 2) == 1
    assert min_power_depth(4, 2) == 2
    assert min_power_depth(4, 3) == 1
    with pytest.raises(BuilderError):
        min_power_depth(3, 1)


def relu_target(power):
    return lambda x: max(x, 0.0) ** power


def test_build_p1_exact_for_relu1():
    rep = build_p1(0.1, 1.0, RELU[1])
    assert connectivity(rep.network) == 2
    assert rep.claimed_connectivity_bound == 2
    assert sup_error_on_grid(rep.network, relu_target(1), -1, 1) <= 1e-15


@pytest.mark.parametrize("k", [1, 2, 3])
def test_build_p1_certificates(k):
    rep = build_p1(0.01, 1.0, RELU[k])
    err = sup_error_on_grid(rep.network, relu_target(k), -1, 1)
    assert err <= 1.05 * 0.01
    assert rep.claimed_connectivity_bound == 2
    assert dict(rep.internal_constants)["delta"] > 0


def test_build_p1_logistic():
    rep = build_p1(0.05, 1.0, logistic_power(1))
    err = sup_error_on_grid(rep.network, relu_target(1), -1, 1)
    assert err <= 1.05 * 0.05


def test_build_relu_logistic_orders():
    for k in (1, 2):
        rep = build_relu(0.2, 1.0, logistic_power(k))
        err = sup_error_on_grid(rep.network, relu_target(1), -1, 1)
        assert err <= 1.05 * 0.2
        assert connectivity(rep.network) <= 3 * (k + 1)


def test_build_power_logistic_even_exact():
    # sigma(y) + sigma(-y) == 1 makes the mirrored pair exact for even k^L
    rep = build_power(1, 0.1, 1.0, logistic_power(2))
    assert sup_error_on_grid(rep.network, lambda x: x * x, -1, 1) <= 1e-12


def test_build_plus_power():
    rep = build_plus_power(2, 0.05, 1.0, RELU[2])
    assert rep.network.depth == 3
    assert connectivity(rep.network) <= 3
    assert sup_error_on_grid(rep.network, relu_target(4), -1, 1) <= 1.05 * 0.05
    rep1 = build_plus_power(1, 0.1, 1.0, RELU[1])
    assert sup_error_on_grid(rep1.network, relu_target(1), -1, 1) <= 1e-15


def test_build_power():
    rep = build_power(1, 0.02, 1.0, RELU[2])
    assert connectivity(rep.network) <= 4
    assert sup_error_on_grid(rep.network, lambda x: x * x, -1, 1) <= 1.05 * 0.02
    rep1 = build_power(1, 0.1, 2.0, RELU[1])
    assert sup_error_on_grid(rep1.network, lambda x: x, -2, 2) <= 1e-14


def test_build_relu_exact_for_k1():
    rep = build_relu(0.1, 1.0, RELU[1])
    assert sup_error_on_grid(rep.network, relu_target(1), -1, 1) <= 1e-15
    assert connectivity(rep.network) == 2  # the shifted copy is pruned


@pytest.mark.parametrize("k,bound", [(2, 9), (3, 12)])
def test_build_relu_higher_order(k, bound):
    rep = build_relu(0.05, 1.0, RELU[k])
    assert connectivity(rep.network) <= bound
    assert rep.network.depth == 2
    assert sup_error_on_grid(rep.network, relu_target(1), -1, 1) <= 1.05 * 0.05
    consts = dict(rep.internal_constants)
    alpha = vandermonde_alpha(k)
    n_val = consts["N"]
    assert consts["eta"] == pytest.approx(
        0.05 / (2 * n_val ** (k - 1) * np.sum(np.abs(alpha))))


def test_build_plus_monomial_matrix():
    cases = [(1, 2), (2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (3, 4)]
    for k, m in cases:
        rep = build_plus_monomial(m, 0.1, 1.0, RELU[k])
        err = sup_error_on_grid(rep.network, relu_target(m - 1), -1, 1)
        assert err <= 1.05 * 0.1, (k, m, err)
        L = min_power_depth(m, k)
        K = k ** L
        if not (k == 1 and m > 2):
            assert connectivity(rep.network) <= (K + 1) * (3 * k + 2 * L + 8)
            assert rep.network.depth == L + 2


def test_build_plus_monomial_k1_fallback():
    rep = build_plus_monomial(3, 0.05, 1.0, RELU[1])
    assert sup_error_on_grid(rep.network, relu_target(2), -1, 1) <= 1.05 * 0.05
    assert rep.network.depth == 2


def test_build_bspline_exact_hat():
    rep = build_bspline_net(2, 0.01, 3.0, RELU[1])
    err = l2_error_quad(rep.network, lambda x: bspline_closed(2, x), -3, 3)
    assert err <= 1e-10
    assert evaluate_batch(rep.network, np.array([[1.0]]))[0, 0] \
        == pytest.approx(1.0, abs=1e-12)


def test_build_bspline_k1_fallback():
    rep = build_bspline_net(3, 0.05, 4.0, RELU[1])
    err = l2_error_quad(rep.network, lambda x: bspline_closed(3, x), -4, 4)
    assert err <= 1.05 * 0.05


@pytest.mark.parametrize("k,m", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (3, 4)])
def test_build_bspline_matrix(k, m):
    rep = build_bspline_net(m, 0.05, 3.0, RELU[k])
    err = l2_error_quad(rep.network, lambda x: bspline_closed(m, x), -3, 3)
    assert err <= 1.05 * 0.05, (k, m, err)
    L = min_power_depth(m, k)
    K = k ** L
    assert connectivity(rep.network) <= (m + 1) * (K + 1) * (3 * k + 2 * L + 8)
    assert rep.network.depth == L + 2


def test_transfer_single_term_matches_bspline():
    rep = transfer_expansion([(1.0, 2)], 0.1, 3.0, RELU[1])
    err = l2_error_quad(rep.network, lambda x: bspline_closed(2, x), -3, 3)
    assert err <= 1e-10


def test_transfer_mixed_orders_k1():
    rep = transfer_expansion([(1.0, 2), (0.5, 3)], 0.1, 4.0, RELU[1])
    target = lambda x: bspline_closed(2, x) + 0.5 * bspline_closed(3, x)
    assert l2_error_quad(rep.network, target, -4, 4) <= 1.05 * 0.1


def test_transfer_mixed_orders_k2():
    rep = transfer_expansion([(1.0, 2), (0.5, 4)], 0.1, 4.0, RELU[2])
    target = lambda x: bspline_closed(2, x) + 0.5 * bspline_closed(4, x)
    assert l2_error_quad(rep.network, target, -4, 4) <= 1.05 * 0.1
    # connectivity additivity with headroom for the combination
    assert connectivity(rep.network) <= rep.claimed_connectivity_bound


def test_transfer_rejects_empty():
    with pytest.raises(BuilderError):
        transfer_expansion([], 0.1, 1.0, RELU[1])
    with pytest.raises(BuilderError):
        transfer_expansion([(0.0, 2)], 0.1, 1.0, RELU[1])


@pytest.mark.parametrize("D", [0.0, -1.0, float("inf"), float("nan")])
def test_transfer_rejects_a_bad_domain_half_width(D):
    # the CLI's build tests cover the other builders
    with pytest.raises(BuilderError, match="half-width"):
        transfer_expansion([(1.0, 2)], 0.1, D, RELU[1])


def test_build_report_validates_claims():
    rep = build_p1(0.1, 1.0, RELU[1])
    with pytest.raises(BuilderError):
        BuildReport(rep.network, rep.claimed_depth + 1,
                    rep.claimed_connectivity_bound, 0.1, 1.0)
    with pytest.raises(BuilderError):
        BuildReport(rep.network, rep.claimed_depth, 1, 0.1, 1.0)


def test_eps_domain_checked():
    with pytest.raises(BuilderError):
        build_p1(1.5, 1.0, RELU[1])
    with pytest.raises(BuilderError):
        build_p1(0.0, 1.0, RELU[1])


def test_weight_growth_is_log_affine():
    # max |weight| against 1/eps on a log-log scale stays essentially affine
    sizes, weights = [], []
    for i in range(1, 9):
        eps = 2.0 ** -i
        rep = build_bspline_net(3, eps, 4.0, RELU[2])
        sizes.append(1.0 / eps)
        weights.append(rep.network.max_abs_weight())
    lx, ly = np.log(sizes), np.log(weights)
    slope, intercept = np.polyfit(lx, ly, 1)
    pred = slope * lx + intercept
    ss_res = float(np.sum((ly - pred) ** 2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    assert r2 >= 0.9
