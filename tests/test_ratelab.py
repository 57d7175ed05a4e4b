import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from approxrate.constructors import build_bspline_net
from approxrate.exceptions import (
    DomainError,
    ResolutionMismatchError,
    SizeError,
)
from approxrate.nnet import AffineStep, Network, relu_power
from approxrate.ratelab import (
    _BLOCK,
    _nearest_sums,
    covering_distortion_exact,
    covering_distortion_greedy,
    fit_rate,
    l2_error_pixels,
    l2_error_quad,
    sup_error_on_grid,
)
from approxrate.splines import bspline_closed


def test_l2_error_pixels_trivials():
    f = np.zeros((8, 8))
    assert l2_error_pixels(f, f.copy()) == 0.0
    ones = np.ones((8, 8))
    assert l2_error_pixels(ones, np.zeros((8, 8))) == 1.0


def test_measure_error_resolution_mismatch():
    with pytest.raises(ResolutionMismatchError):
        l2_error_pixels(np.ones((4, 4)), np.ones((8, 8)))


def test_l2_error_quad_bspline_net():
    rep = build_bspline_net(2, 0.01, 3.0, relu_power(1))
    err = l2_error_quad(rep.network, lambda x: bspline_closed(2, x), -3.0, 3.0)
    assert err <= 1e-10


@pytest.mark.parametrize("lo, hi", [(1.0, -1.0), (-np.inf, 1.0), (0.0, np.nan)])
def test_l2_error_quad_refuses_a_reversed_or_unbounded_interval(lo, hi):
    # a reversed interval once read as error 0.0: its negative integral was clipped
    with pytest.raises(DomainError):
        l2_error_quad(lambda x: 1.0, lambda x: 0.0, lo, hi)


@pytest.mark.parametrize("lo, hi", [(1, -1), (0.0, np.inf)])
def test_sup_error_on_grid_refuses_a_reversed_or_unbounded_interval(lo, hi):
    with pytest.raises(DomainError):
        sup_error_on_grid(lambda x: 1.0, lambda x: 0.0, lo, hi)


def test_sup_error_on_grid_symmetric():
    f = lambda x: x * x
    g = lambda x: x * x + 0.25
    assert sup_error_on_grid(f, g, -1, 1) == pytest.approx(0.25)


def test_network_errors_cover_every_output():
    first = AffineStep(1, 2, ((0, 0, 1.0), (1, 0, 1.0)))
    net = Network((first, AffineStep(2, 2, ((0, 0, 1.0), (1, 1, 1.0)))), relu_power(1))
    moved = Network((first, AffineStep(2, 2, ((0, 0, 1.0), (1, 1, 1.5)))), relu_power(1))
    # only the second output moves, by 0.5 x_+ on [-1, 1]
    assert sup_error_on_grid(moved, net, -1, 1) == 0.5
    assert l2_error_quad(moved, net, -1, 1) == pytest.approx(0.5 / np.sqrt(3.0), rel=1e-12)


def test_fit_rate_exact_power_law():
    samples = [(m, float(m) ** -2) for m in (2, 4, 8, 16)]
    rep = fit_rate(samples)
    assert rep.fitted_slope == pytest.approx(-2.0, abs=1e-12)
    assert rep.r_squared == pytest.approx(1.0)


def test_fit_rate_constant():
    rep = fit_rate([(m, 0.5) for m in (2, 4, 8)])
    assert rep.fitted_slope == pytest.approx(0.0, abs=1e-12)


def test_fit_rate_validation():
    with pytest.raises(DomainError):
        fit_rate([(1, 0.5), (2, 0.4)])
    with pytest.raises(DomainError):
        fit_rate([(1, 0.5), (2, 0.4), (2, 0.3)])
    with pytest.raises(DomainError):
        fit_rate([(1, 0.5), (2, -0.4), (3, 0.3)])


@settings(max_examples=30, deadline=None)
@given(st.floats(0.1, 10.0))
def test_fit_rate_affine_equivariance(c):
    samples = [(m, float(m) ** -1.5 * 2.0) for m in (2, 4, 8, 16)]
    scaled = [(m, e * c) for m, e in samples]
    base = fit_rate(samples)
    shifted = fit_rate(scaled)
    assert shifted.fitted_slope == pytest.approx(base.fitted_slope, abs=1e-9)
    assert shifted.intercept - base.intercept == pytest.approx(np.log(c), abs=1e-9)


def test_covering_exact_values():
    assert covering_distortion_exact(1, 1) == 0.0
    assert covering_distortion_exact(2, 1) == 0.5
    assert covering_distortion_exact(3, 3) == 0.0


def test_covering_exact_zero_iff_full_cube_small():
    for m in (1, 2, 3):
        for R in range(0, m + 1):
            val = covering_distortion_exact(m, R)
            if R == m:
                assert val == 0.0
            else:
                assert val > 0.0


def test_covering_exact_guards():
    with pytest.raises(DomainError):
        covering_distortion_exact(2, 3)
    with pytest.raises(SizeError):
        covering_distortion_exact(5, 1)


def test_greedy_matches_exact_at_4_2():
    exact = covering_distortion_exact(4, 2)
    greedy = covering_distortion_greedy(4, 2, restarts=8)
    assert greedy == pytest.approx(exact)


def test_greedy_upper_bounds_exact():
    for m, R in ((2, 1), (3, 1), (3, 2), (4, 1), (4, 3)):
        assert covering_distortion_greedy(m, R, restarts=6) >= \
            covering_distortion_exact(m, R) - 1e-12


def test_greedy_monotone_in_codebook_size():
    d_small = covering_distortion_greedy(8, 1, restarts=4)
    d_large = covering_distortion_greedy(8, 2, restarts=4)
    assert d_large <= d_small + 1e-12


@pytest.mark.parametrize("R, restarts", [(-1, 2), (1, 0), (1, -3), (1, 2.5)])
def test_greedy_refuses_bad_arguments(R, restarts):
    # R < 0 was an untyped shift-count error; restarts 0 or -3 returned inf,
    # and 2.5 ran as 2
    with pytest.raises(DomainError):
        covering_distortion_greedy(8, R, restarts=restarts)


@pytest.mark.parametrize("cover, m, R", [
    (covering_distortion_greedy, 4.5, 1),
    (covering_distortion_greedy, 4, 1.5),
    (covering_distortion_greedy, True, 0),
    (covering_distortion_greedy, 4, np.float64(1.0)),
    (covering_distortion_exact, 2.5, 1),
    (covering_distortion_exact, 4, 1.5),
    (covering_distortion_exact, 2, False),
])
def test_covering_refuses_an_m_or_R_that_is_not_an_integer(cover, m, R):
    # 4.5 and 1.5 were untyped shift errors; True ran as m = 1
    with pytest.raises(DomainError, match="integer"):
        cover(m, R)


def test_covering_takes_numpy_integers():
    assert covering_distortion_exact(np.int64(2), np.int32(1)) == 0.5
    assert covering_distortion_greedy(np.int64(4), np.int64(2), restarts=8) == \
        covering_distortion_greedy(4, 2, restarts=8)


@pytest.mark.parametrize("m, R, seed, expected", [
    # both subsample caps bind, and slot 0 scores a pool of one word
    (16, 4, 0, 4.32818603515625),
    (16, 4, 1, 4.3264312744140625),
    (16, 4, 2, 4.332489013671875),
    (16, 4, 3, 4.3195953369140625),
    # only the pool cap binds
    (12, 3, 0, 3.3671875),
    (12, 3, 1, 3.393310546875),
])
def test_greedy_outputs_are_pinned(m, R, seed, expected):
    assert covering_distortion_greedy(m, R, restarts=2, seed=seed) == expected


def test_block_scores_equal_the_dense_sums():
    rng = np.random.default_rng(0)
    sample = rng.integers(0, 1 << 24, size=3 * _BLOCK + 77, dtype=np.uint32)
    sample[:2 * _BLOCK] = 0
    pool = rng.integers(0, 1 << 24, size=300, dtype=np.uint32)
    pool[:2] = (0, (1 << 24) - 1)
    # near = m = 24 everywhere, and the word 2^24 - 1 is 24 from each zero row:
    # the largest block sums uint16 has to hold
    near = np.full(len(sample), 24, dtype=np.uint8)
    dense = np.minimum(np.bitwise_count(sample[:, None] ^ pool[None, :]),
                       near[:, None]).sum(axis=0)
    got = _nearest_sums(sample, near, pool)
    assert got.dtype == np.int64
    assert np.array_equal(got, dense)
    assert np.array_equal(_nearest_sums(sample, near, pool[:1]), dense[:1])


def test_greedy_linear_band():
    ratios = []
    for m in (8, 12):
        d = covering_distortion_greedy(m, m // 4, restarts=3)
        ratios.append(d / m)
    assert min(ratios) > 0.05
    assert max(ratios) / min(ratios) <= 2.0


def test_empirical_minimax_disc_halving_ratio():
    # halving eps roughly doubles the code length when the rate is ~1
    from approxrate.cartoon import disc_star, rasterize
    from approxrate.wedgelet import DEFAULT_M_CAP, decode, encode

    sweep = []  # (bits, error) of the disc at each resolution
    for n in (32, 64, 128):
        J = int(np.log2(n))
        arr = rasterize(disc_star(), n, 4)
        code = encode(arr, J, J, DEFAULT_M_CAP, lam=float(n) ** -3.0)
        sweep.append((code.bit_length, l2_error_pixels(decode(code), arr)))

    def fewest_bits(eps):
        return min(bits for bits, err in sweep if err <= eps)

    l1 = fewest_bits(0.014)
    l2 = fewest_bits(0.007)
    assert 1.3 <= l2 / l1 <= 4.0


@pytest.mark.parametrize("samples", [
    [(1, 0.5), (2, float("nan")), (4, 0.1)],
    [(1, 0.5), (2, 0.25), (float("inf"), 0.1)],
    [(1, 0.5), (2, 0.25), (4, float("inf"))],
    [(1, float("nan")), (2, 0.25), (4, 0.1)],
    [(float("nan"), 0.5), (2, 0.25), (4, 0.1)],
], ids=["nan error", "inf size", "inf error", "nan first error", "nan size"])
def test_fit_rate_refuses_a_sample_that_is_not_finite(samples):
    with pytest.raises(DomainError, match="finite"):
        fit_rate(samples)
