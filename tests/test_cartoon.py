import numpy as np
import pytest

from approxrate.cartoon import (
    disc_radius,
    disc_star,
    holder_seminorm,
    make_hypercube,
    petal_generator_seminorm,
    petal_window,
    rasterize,
    star_membership,
    vertex_function,
)
from approxrate.exceptions import DomainError, FormatError, InputShapeError, RangeError

TWO_PI = 2.0 * np.pi


def test_disc_seminorm_zero():
    assert holder_seminorm(disc_radius(0.25), 2.0) == 0.0


def test_generator_seminorm_quarter():
    assert petal_generator_seminorm(2.0) <= 0.25 + 0.01
    assert petal_generator_seminorm(2.0) >= 0.24


def test_make_hypercube_monotone():
    m_half = make_hypercube(0.025, 2.0, 1.0).m
    m_full = make_hypercube(0.05, 2.0, 1.0).m
    assert m_half >= m_full


def test_make_hypercube_slope():
    deltas = [2.0 ** -i for i in range(4, 10)]
    ms = [make_hypercube(d, 2.0, 1.0).m for d in deltas]
    slope = np.polyfit(np.log(1.0 / np.array(deltas)), np.log(ms), 1)[0]
    assert slope >= 2.0 / 3.0 - 0.05


def test_make_hypercube_rejects_large_delta():
    with pytest.raises(RangeError):
        make_hypercube(0.9, 2.0, 1.0)
    with pytest.raises(DomainError):
        make_hypercube(0.05, 2.5, 1.0)


def test_vertex_zero_is_disc():
    spec = make_hypercube(2.0 ** -4, 2.0, 1.0)
    v = vertex_function(spec, [0] * spec.m)
    assert v == spec.f0


def test_vertex_length_checked():
    spec = make_hypercube(2.0 ** -4, 2.0, 1.0)
    with pytest.raises(InputShapeError):
        vertex_function(spec, [1])


def test_vertex_e1_support():
    spec = make_hypercube(2.0 ** -4, 2.0, 1.0)
    v = vertex_function(spec, [1] + [0] * (spec.m - 1))
    lo, hi = TWO_PI / spec.m, 2 * TWO_PI / spec.m
    inside = np.linspace(lo + 1e-6, hi - 1e-6, 64)
    outside = np.concatenate([np.linspace(0.0, lo - 1e-6, 32),
                              np.linspace(hi + 1e-6, TWO_PI - 1e-9, 64)])
    assert np.all(v.radius(inside) > 0.25)
    assert np.allclose(v.radius(outside), 0.25)


def test_wrapping_petal_occupies_first_arc():
    spec = make_hypercube(2.0 ** -4, 2.0, 1.0)
    v = vertex_function(spec, [0] * (spec.m - 1) + [1])  # petal i = m
    inside = np.linspace(1e-6, TWO_PI / spec.m - 1e-6, 32)
    assert np.all(v.radius(inside) > 0.25)


def test_all_vertices_pass_membership():
    rng = np.random.default_rng(3)
    for dexp in (4, 6):
        spec = make_hypercube(2.0 ** -dexp, 2.0, 1.0)
        for xi in ([1] * spec.m, rng.integers(0, 2, spec.m)):
            rep = star_membership(vertex_function(spec, xi))
            assert rep.passed, (dexp, rep)


def test_membership_failures():
    assert not star_membership(disc_star(0.6)).passed
    assert not star_membership(disc_star(0.05)).passed
    # center near the border violates containment
    off = disc_star(0.25, center=(0.15, 0.5))
    assert not star_membership(off).contained


def test_rasterize_disc_area():
    arr = rasterize(disc_star(0.25), 256, 8)
    assert arr.mean() == pytest.approx(np.pi / 16.0, abs=2e-3)
    assert arr.min() >= 0.0 and arr.max() <= 1.0


def test_rasterize_zero_outside_band():
    arr = rasterize(disc_star(0.25), 128, 4)
    rows = np.arange(128)
    outside = (rows + 1) / 128 <= 0.1 - 1e-9
    outside |= rows / 128 >= 0.9 + 1e-9
    assert np.all(arr[outside] == 0.0)
    cols_out = outside  # same bands apply to columns by symmetry
    assert np.all(arr[:, cols_out] == 0.0)


def test_rasterize_validates_args():
    with pytest.raises(FormatError):
        rasterize(disc_star(0.25), 100, 4)
    with pytest.raises(FormatError):
        rasterize(disc_star(0.25), 64, 2)


def test_petals_only_add_area():
    spec = make_hypercube(2.0 ** -4, 2.0, 1.0)
    v = vertex_function(spec, [1] * spec.m)
    n = 128
    base = rasterize(spec.f0, n, 4)
    full = rasterize(v, n, 4)
    assert np.all(full - base >= 0.0)


def test_petal_norms_and_orthogonality():
    n = 256
    spec = make_hypercube(2.0 ** -4, 2.0, 1.0)
    masks = []
    for i in range(1, spec.m + 1):
        win, r0, c0 = petal_window(spec, i, n, 8)
        arr = np.zeros((n, n))
        arr[r0:r0 + win.shape[0], c0:c0 + win.shape[1]] = win
        masks.append(arr)
    delta = spec.delta
    tol = max(0.02 * delta, 4.0 / n)
    for arr in masks:
        norm = float(np.sqrt(np.sum(arr * arr) / n ** 2))
        assert abs(norm - delta) <= tol
    bound = 3.0 * delta ** 2 * spec.m / n
    for i in range(len(masks)):
        for j in range(i + 1, len(masks)):
            ip = float(np.sum(masks[i] * masks[j]) / n ** 2)
            assert ip <= bound


def test_petal_window_matches_full_rasterize_difference():
    spec = make_hypercube(2.0 ** -4, 2.0, 1.0)
    n = 128
    i = 2
    win, r0, c0 = petal_window(spec, i, n, 4)
    v = vertex_function(spec, [1 if j == i - 1 else 0 for j in range(spec.m)])
    diff = rasterize(v, n, 4) - rasterize(spec.f0, n, 4)
    full = np.zeros((n, n))
    full[r0:r0 + win.shape[0], c0:c0 + win.shape[1]] = win
    assert np.max(np.abs(full - diff)) <= 1e-12


@pytest.mark.parametrize("image", ["disc", "petals"])
def test_rasterize_in_steps_equals_one_whole_image_pass(image):
    # rasterize works a few rows at a time to bound its memory; every
    # sample is independent, so the steps must not change a single bit
    from approxrate.cartoon import _window_average

    if image == "disc":
        star = disc_star()
    else:
        spec = make_hypercube(2.0 ** -5, 2.0, 1.0)
        star = vertex_function(spec, (1, 0) * (spec.m // 2))
    n = 256
    whole = _window_average(star, n, 4, 0, n, 0, n)
    assert np.array_equal(rasterize(star, n, 4), whole)


@pytest.mark.parametrize("delta, C, error", [
    (1e-300, 1.0, RangeError),      # delta^2 underflows to 0
    (1e-30, 1.0, RangeError),       # the amplitude cancels to 0
    (1e-100, 1.0, RangeError),      # the area equation underflows
    (2.0 ** -5, 1e300, RangeError),
    (2.0 ** -5, float("inf"), DomainError),
    (2.0 ** -5, float("nan"), DomainError),
    (2.0 ** -5, 0.0, DomainError),
    (float("nan"), 1.0, DomainError),
])
def test_make_hypercube_refuses_scales_its_float_math_cannot_take(delta, C, error):
    with pytest.raises(error):
        make_hypercube(delta, 2.0, C)


@pytest.mark.parametrize("kwargs", [
    {"beta": float("nan")}, {"beta": 1.0}, {"beta": 2.5},
    {"holder_C": float("inf")}, {"holder_C": float("nan")}, {"holder_C": 0.0},
])
def test_disc_star_refuses_a_class_outside_its_domain(kwargs):
    with pytest.raises(DomainError):
        disc_star(**kwargs)
