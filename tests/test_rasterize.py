"""Rasterization: golden digests, and the pixel classes against dense sampling.

``golden/rasters.sha256``, in ``sha256sum`` format, was written at commit
ad8b945, before rasterization sampled only the pixels its radius bounds
leave undecided: the SHA-256 of the raw file ``approxrate star --out raw``
writes for the disc and three petal vertices of
``make_hypercube(2**-5, 2.0, 1.0)`` at n = 64, 128 and 256 (supersample 4),
plus the alternating vertex at n = 256 with supersample 8.  The vertices
are all ones, the alternating ``(1, 0) * 8`` and ``1010110010011001``,
the vertex the benchmark's ``wedge_images(1)`` raises.

``dense_window_average`` is ``cartoon._window_average`` as it was at that
commit: every sample of every pixel through ``StarFunction.inside``.  The
classed version must equal it exactly on any star, window and sample count.
"""

import hashlib
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from approxrate.cartoon import (
    MAX_SUPERSAMPLE,
    RadiusFunction,
    StarFunction,
    _window_average,
    disc_star,
    make_hypercube,
    petal_window,
    rasterize,
    vertex_function,
)
from approxrate.cli import write_raw_array
from approxrate.exceptions import FormatError

GOLDEN = Path(__file__).parent / "golden"
TWO_PI = 2.0 * math.pi
VERTICES = {"ones": (1,) * 16, "alternating": (1, 0) * 8,
            "seed1": tuple(int(b) for b in "1010110010011001")}


def dense_window_average(f, n, s, row0, row1, col0, col1, exclude=None):
    """Per-pixel inside fraction over a pixel window, s^2 samples each."""
    rows = np.arange(row0, row1)
    cols = np.arange(col0, col1)
    off = (np.arange(s) + 0.5) / s
    ys = (rows[:, None] + off[None, :]).reshape(-1) / n  # (R*s,)
    xs = (cols[:, None] + off[None, :]).reshape(-1) / n  # (C*s,)
    xg, yg = np.meshgrid(xs, ys)
    inside = f.inside(xg, yg)
    if exclude is not None:
        inside = inside & ~exclude.inside(xg, yg)
    counts = inside.reshape(len(rows), s, len(cols), s).sum(axis=(1, 3))
    return counts.astype(float) / (s * s)


def _golden_star(kind):
    if kind == "disc":
        return disc_star()
    return vertex_function(make_hypercube(2.0 ** -5, 2.0, 1.0), VERTICES[kind])


RASTERS = [line.split() for line in (GOLDEN / "rasters.sha256").read_text().splitlines()]


@pytest.mark.parametrize("digest,raw", RASTERS)
def test_rasterize_matches_its_golden_digest(digest, raw, tmp_path):
    kind, n, *s = Path(raw).stem.split("_")
    s = int(s[0][1:]) if s else 4
    write_raw_array(str(tmp_path / "out.raw"), rasterize(_golden_star(kind), int(n[1:]), s))
    assert hashlib.sha256((tmp_path / "out.raw").read_bytes()).hexdigest() == digest


def test_every_golden_raster_is_listed():
    names = sorted(Path(raw).name for _, raw in RASTERS)
    assert names == sorted([f"{k}_n{n}.raw" for k in ("disc", *VERTICES)
                            for n in (64, 128, 256)] + ["alternating_n256_s8.raw"])


# amplitudes A of c = A m^-beta: signed, zero and not finite
AMPLITUDES = st.one_of(st.floats(-3.0, 3.0), st.sampled_from(
    [0.0, -0.0, math.inf, -math.inf, math.nan]))
BETAS = st.floats(1.0, 2.0)


@st.composite
def petal_sets(draw):
    """Mixed m and repeated i, or one m with distinct i mod m (the tight
    bound), with i up to 2m so that some arcs wrap."""
    if draw(st.booleans()):
        return tuple(draw(st.lists(
            st.tuples(st.integers(0, 24), st.integers(1, 12), AMPLITUDES, BETAS)
            .map(lambda p: (p[0] % (2 * p[1] + 1), *p[1:])), max_size=6)))
    m = draw(st.integers(1, 24))
    idx = draw(st.lists(st.integers(0, 2 * m), unique_by=lambda i: i % m,
                        min_size=1, max_size=min(m, 12)))
    return tuple((i, m, draw(AMPLITUDES), draw(BETAS)) for i in idx)


@st.composite
def stars(draw):
    center = (draw(st.floats(0.2, 0.8)), draw(st.floats(0.2, 0.8)))
    radius = RadiusFunction(draw(st.floats(0.02, 0.45)), draw(petal_sets()))
    return StarFunction(center, radius, 2.0, 1.0)


@st.composite
def windows(draw):
    """(n, s, row0, row1, col0, col1) with at most 2^18 samples."""
    n = 1 << draw(st.integers(4, 8))
    s = draw(st.integers(4, 8))
    rows = max(1, min(n, (1 << 18) // (n * s * s)))
    row0 = draw(st.integers(0, n - rows))
    col0 = draw(st.integers(0, n - 1))
    col1 = draw(st.integers(col0 + 1, n))
    return n, s, row0, row0 + rows, col0, col1


@settings(max_examples=100, deadline=None)
@given(stars(), windows())
def test_window_average_equals_dense_sampling(f, window):
    n, s, *box = window
    with np.errstate(invalid="ignore"):
        assert np.array_equal(_window_average(f, n, s, *box),
                              dense_window_average(f, n, s, *box))


@settings(max_examples=40, deadline=None)
@given(stars(), stars(), windows())
def test_window_average_with_exclude_equals_dense_sampling(f, g, window):
    n, s, *box = window
    with np.errstate(invalid="ignore"):
        assert np.array_equal(_window_average(f, n, s, *box, exclude=g),
                              dense_window_average(f, n, s, *box, exclude=g))


@settings(max_examples=40, deadline=None)
@given(stars(), st.sampled_from([16, 32, 64]), st.integers(4, 8))
def test_rasterize_equals_dense_sampling(f, n, s):
    with np.errstate(invalid="ignore"):
        assert np.array_equal(rasterize(f, n, s), dense_window_average(f, n, s, 0, n, 0, n))


@settings(max_examples=40, deadline=None)
@given(st.integers(3, 7), st.data(), st.sampled_from([16, 64, 256]), st.integers(4, 8))
def test_petal_window_equals_dense_sampling(dexp, data, n, s):
    spec = make_hypercube(2.0 ** -dexp, 2.0, 1.0)
    i = data.draw(st.integers(1, spec.m))
    arr, row0, col0 = petal_window(spec, i, n, s)
    vertex = vertex_function(spec, [1 if j == i - 1 else 0 for j in range(spec.m)])
    box = (row0, row0 + arr.shape[0], col0, col0 + arr.shape[1])
    assert np.array_equal(arr, dense_window_average(vertex, n, s, *box, exclude=spec.f0))


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([1, 2, 4, 8, 16]), st.data(), st.sampled_from([32, 64, 128]),
       st.integers(4, 8))
def test_samples_on_petal_arc_ends_equal_dense_sampling(m, data, n, s):
    # with the center on a sample point, samples in its row, its column and
    # its diagonals sit at angles k pi / 4, which are arc ends of these m
    cx, cy = ((data.draw(st.integers(n // 4, 3 * n // 4)) + (k + 0.5) / s) / n
              for k in (data.draw(st.integers(0, s - 1)), data.draw(st.integers(0, s - 1))))
    idx = data.draw(st.lists(st.integers(0, 2 * m), unique_by=lambda i: i % m,
                             min_size=1, max_size=m))
    petals = tuple((i, m, data.draw(st.floats(0.0, 1.0)), 2.0) for i in idx)
    f = StarFunction((cx, cy), RadiusFunction(data.draw(st.floats(0.05, 0.2)), petals),
                     2.0, 1.0)
    assert np.array_equal(rasterize(f, n, s), dense_window_average(f, n, s, 0, n, 0, n))


def _ulp_nudged(thetas, reach=8):
    out = [thetas]
    for sign in (-np.inf, np.inf):
        t = thetas
        for _ in range(reach):
            t = np.nextafter(t, sign)
            out.append(t)
    return np.concatenate(out)


@settings(max_examples=200, deadline=None)
@given(petal_sets(), st.floats(-1.0, 1.0))
def test_radius_bounds_hold_at_and_beside_arc_ends(petals, r0):
    radius = RadiusFunction(r0, petals)
    bounds = radius.bounds()
    finite = all(math.isfinite(a * m ** -b) for _, m, a, b in petals)
    assert (bounds is not None) == finite
    if bounds is None:
        return
    starts = [TWO_PI * i / m for i, m, _, _ in petals]
    stops = [TWO_PI * i / m + TWO_PI / m for i, m, _, _ in petals]
    ends = np.array(starts + stops + [0.0, TWO_PI])
    thetas = np.concatenate([_ulp_nudged(ends), _ulp_nudged(np.mod(ends, TWO_PI)),
                             np.linspace(0.0, TWO_PI, 4097)])
    values = radius(thetas)
    lo, hi = bounds
    assert np.all((lo <= values) & (values <= hi))


def test_radius_bounds_of_a_disc_and_of_disjoint_petals():
    assert RadiusFunction(0.25).bounds() == (0.25, 0.25)
    lo, hi = RadiusFunction(0.25, ((1, 4, 1.0, 1.0), (2, 4, 2.0, 1.0))).bounds()
    assert lo == pytest.approx(0.25, abs=1e-10)
    assert hi == pytest.approx(0.75, abs=1e-10)  # the larger petal, not the sum
    lo, hi = RadiusFunction(0.25, ((1, 4, 1.0, 1.0), (5, 4, 2.0, 1.0))).bounds()
    assert hi == pytest.approx(1.0, abs=1e-10)  # 1 and 5 share an arc: the sum


def test_rasterize_samples_only_the_mixed_pixels(monkeypatch):
    # the n = 256 alternating vertex: the band between the radius bounds is
    # a small share of the image, so a small share of the samples is drawn
    seen = []
    inside = StarFunction.inside
    monkeypatch.setattr(StarFunction, "inside",
                        lambda self, x, y: seen.append(np.size(x)) or inside(self, x, y))
    arr = rasterize(_golden_star("alternating"), 256, 4)
    assert sum(seen) < 0.05 * arr.size * 16
    assert np.count_nonzero((arr > 0.0) & (arr < 1.0)) * 16 <= sum(seen)


BAD_SUPERSAMPLES = [True, False, 4.7, 4.0, math.inf, math.nan, 10 ** 6,
                    MAX_SUPERSAMPLE + 1, 3, -1, "4", None]


@pytest.mark.parametrize("s", BAD_SUPERSAMPLES, ids=repr)
def test_rasterize_refuses_a_bad_supersample(s):
    with pytest.raises(FormatError, match="supersample"):
        rasterize(disc_star(), 16, s)


@pytest.mark.parametrize("s", BAD_SUPERSAMPLES, ids=repr)
def test_petal_window_refuses_a_bad_supersample(s):
    with pytest.raises(FormatError, match="supersample"):
        petal_window(make_hypercube(2.0 ** -4, 2.0, 1.0), 1, 16, s)


@pytest.mark.parametrize("s", [4, np.int64(8), MAX_SUPERSAMPLE])
def test_rasterize_takes_an_integer_supersample_up_to_the_bound(s):
    arr = rasterize(disc_star(), 16, s)
    assert np.array_equal(arr, dense_window_average(disc_star(), 16, int(s), 0, 16, 0, 16))
