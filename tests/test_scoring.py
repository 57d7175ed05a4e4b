"""The cached edgelet dictionary and the scoring that reads it.

Two oracles, each written here without the code under test: the masks the
renderer draws for every edgelet, which each compact dictionary entry must
reproduce exactly, and a per-edgelet dense scoring loop (explicit masks,
an einsum, the two-wedge squared error) that ``_score`` must match.
"""

import numpy as np
import pytest

from approxrate import wedgelet
from approxrate.cartoon import disc_star, make_hypercube, rasterize, vertex_function
from approxrate.wedgelet import (
    DyadicSquare,
    EdRdpLeaf,
    Edgelet,
    _dictionary,
    _pair_gram,
    _score,
    _side0_fractions,
    _valid_edgelets,
    vertex_budget,
    wedge_mask,
)

SAMPLES = 16  # 4 x 4 samples per pixel


def _expand(masks):
    """(E, size, size) side-0 fractions rebuilt from a compact entry."""
    size, count = masks.size, masks.local.size
    if masks.dense is not None:
        assert masks.dense.shape == (size * size, count)
        return (masks.dense.T / SAMPLES).reshape(count, size, size)
    cols = np.arange(size)
    out = np.zeros((count, size * size))
    for e in range(count):
        lo = masks.run_lo[e].astype(int)[:, None]
        hi = masks.run_hi[e].astype(int)[:, None]
        out[e] = ((cols >= lo) & (cols < hi)).ravel()
        seg = slice(masks.st_start[e], masks.st_start[e + 1])
        assert seg.start < seg.stop
        # a pixel both in its run and listed would expand to more than 1
        np.add.at(out[e], masks.st_pix[seg].astype(int), masks.st_count[seg] / SAMPLES)
    return out.reshape(count, size, size)


def _arrays(masks):
    return [getattr(masks, name) for name in masks.__dataclass_fields__
            if name != "size" and getattr(masks, name) is not None]


@pytest.mark.parametrize("m_cap", [12, 20, 24, 32])
def test_dictionary_entries_equal_the_rendered_masks(m_cap):
    for size in (2, 4, 8, 16, 32, 64):
        masks = _dictionary(m_cap, size)
        assert masks.size == size
        assert all(not arr.flags.writeable for arr in _arrays(masks))
        assert all(arr.dtype.itemsize <= 4 for arr in _arrays(masks)
                   if arr.dtype.kind in "iu")
        dense = _expand(masks)
        kept = 0
        for idx, v1, v2 in _valid_edgelets(m_cap):
            frac0 = _side0_fractions(m_cap, v1, v2, size)
            gram = _pair_gram(frac0, 1.0)
            if gram is None:
                assert idx not in masks.local
                continue
            assert masks.local[kept] == idx
            assert np.array_equal(dense[kept], frac0)
            stored = (masks.g00[kept], masks.g01[kept], masks.g11[kept],
                      masks.det[kept])
            assert stored == gram
            kept += 1
        assert kept == masks.local.size


def test_dictionary_lists_whole_pixels_outside_the_first_run(monkeypatch):
    # a row whose whole pixels are not one run, as rounded vertices could
    # give: the later ones must be listed with a full count
    frac0 = np.zeros((16, 16))
    frac0[:, :3] = 1.0
    frac0[5, 3] = 0.5
    frac0[5, 4:7] = 1.0
    frac0[9, 0] = 0.25
    monkeypatch.setattr(wedgelet, "_side0_fractions", lambda m_j, v1, v2, size: frac0)
    masks = _dictionary.__wrapped__(4, 16)
    assert masks.local.size == 2  # the two diagonals of M_j = 4
    for mask in _expand(masks):
        assert np.array_equal(mask, frac0)
    assert list(masks.run_lo[0]) == [0] * 9 + [1] + [0] * 6
    assert list(masks.run_hi[0]) == [3] * 16


def _at(flat, j):
    """Scale j of an array of ``_Scores``, flat over the scales."""
    return flat[wedgelet._first(j):wedgelet._first(j + 1)]


def _blocks(f, j, size):
    nsq = 1 << (2 * j)
    blocks = f.reshape(1 << j, size, 1 << j, size).transpose(0, 2, 1, 3)
    return blocks.reshape(nsq, size, size)


def _reference_masks(J, K, m_cap):
    """Per scale, (local index, side-0 mask) of the edgelets of square 0."""
    n = 1 << J
    out = []
    for j in range(J):
        size = n >> j
        m_j = vertex_budget(j, J, K, m_cap)
        sq = DyadicSquare(j, 0, 0)
        out.append([(idx, wedge_mask(EdRdpLeaf(sq, (Edgelet(sq, v1, v2, m_j), 0)), n)
                     [:size, :size]) for idx, v1, v2 in _valid_edgelets(m_j)])
    return out


def _reference_score(f, J, masks_per_scale):
    """Per scale, (best split SSE, its local index), one edgelet at a time."""
    n = 1 << J
    norm = 1.0 / (n * n)
    out = []
    for j, masks in enumerate(masks_per_scale):
        blocks = _blocks(f, j, n >> j)
        sums = blocks.sum(axis=(1, 2))
        sumsq = (blocks * blocks).sum(axis=(1, 2))
        best = np.full(len(blocks), np.inf)
        edge = np.full(len(blocks), -1)
        for idx, m0 in masks:
            m1 = 1.0 - m0
            g00 = float(np.sum(m0 * m0)) * norm
            g01 = float(np.sum(m0 * m1)) * norm
            g11 = float(np.sum(m1 * m1)) * norm
            det = g00 * g11 - g01 * g01
            if g00 <= 0.0 or g11 <= 0.0 or det <= 1e-30:
                continue
            v0 = np.einsum("sij,ij->s", blocks, m0) * norm
            v1 = sums * norm - v0
            quad = (g11 * v0 * v0 - 2.0 * g01 * v0 * v1 + g00 * v1 * v1) / det
            sse = sumsq * norm - quad
            better = sse < best
            best[better] = sse[better]
            edge[better] = idx
        out.append((best, edge))
    return out


@pytest.mark.parametrize("m_cap", [32, 12])
def test_score_matches_a_dense_per_edgelet_reference(m_cap):
    J = K = 6
    n = 1 << J
    spec = make_hypercube(2.0 ** -5, 2.0, 1.0)
    cartoons = [rasterize(disc_star(), n, 4),
                rasterize(vertex_function(spec, (1, 0) * (spec.m // 2)), n, 4)]
    noise = np.random.default_rng(7).random((n, n))
    masks = _reference_masks(J, K, m_cap)
    for f in cartoons + [noise]:
        scores = _score(f, J, K, m_cap)
        assert np.all(np.isinf(_at(scores.sse_split, J)))
        assert np.all(_at(scores.local, J) == -1)
        for j, (best, edge) in enumerate(_reference_score(f, J, masks)):
            if f is noise:
                np.testing.assert_allclose(_at(scores.sse_split, j), best,
                                           rtol=0, atol=1e-12)
            else:
                # pixels are multiples of 1/16, so every sum is exact and
                # the scores agree bit for bit
                assert np.array_equal(_at(scores.sse_split, j), best)
                assert np.array_equal(_at(scores.local, j), edge)


def test_second_score_renders_no_mask(monkeypatch):
    f = rasterize(disc_star(), 32, 4)
    first = _score(f, 5, 5, 32)
    calls = []
    render = wedgelet._side0_fractions
    monkeypatch.setattr(wedgelet, "_side0_fractions",
                        lambda *args: calls.append(args) or render(*args))
    again = _score(f, 5, 5, 32)
    assert calls == []
    assert np.array_equal(again.sse_split, first.sse_split)
    assert np.array_equal(again.local, first.local)
    # the entries are position-free, so a coarser grid shares them too
    _score(rasterize(disc_star(), 16, 4), 4, 4, 32)
    assert calls == []


def _full_pass(f, J, K, m_cap):
    """Per scale j < J, ``_split_winners`` over every square, none shared:
    (best split SSE, its local index)."""
    n = 1 << J
    out = []
    for j in range(J):
        size = n >> j
        blocks = _blocks(f, j, size)
        masks = _dictionary(vertex_budget(j, J, K, m_cap), size)
        best, pos, _ = wedgelet._split_winners(
            blocks.reshape(len(blocks), -1), blocks.sum(axis=(1, 2)),
            (blocks * blocks).sum(axis=(1, 2)), masks, 1.0 / (n * n))
        out.append((best, masks.local[pos]))
    return out


def _shared_scales(f, J):
    """Scales on which ``_score`` scores a constant square for others."""
    constant = wedgelet._constant_squares(f, J)
    return [j for j in range(J)
            if isinstance(wedgelet._distinct_squares(*constant[j])[0], np.ndarray)]


def _constant_patches(n):
    """8 x 8 patches of five constant values, two of them zeros of either
    sign and two not dyadic, with a noisy quarter."""
    rng = np.random.default_rng(3)
    values = np.array([0.0, -0.0, 0.25, 1.0 / 3.0, 0.7])
    f = np.kron(values[rng.integers(0, values.size, (n // 8, n // 8))], np.ones((8, 8)))
    f[: n // 2, : n // 2] = rng.random((n // 2, n // 2))
    return f


@pytest.mark.parametrize("name,n", [("disc", 128), ("petals", 128), ("disc", 256),
                                    ("petals", 256), ("seeded", 256), ("patches", 64),
                                    ("noise", 128)])
def test_score_equals_a_full_pass_over_every_square(name, n):
    J = n.bit_length() - 1
    spec = make_hypercube(2.0 ** -5, 2.0, 1.0)
    # the first petal vertex of acceptance criterion 8
    seeded = np.random.default_rng(20260809).integers(0, 2, spec.m)
    f = {"disc": lambda: rasterize(disc_star(), n, 4),
         "petals": lambda: rasterize(vertex_function(spec, (1, 0) * (spec.m // 2)), n, 4),
         "seeded": lambda: rasterize(vertex_function(spec, seeded), n, 4),
         "patches": lambda: _constant_patches(n),
         "noise": lambda: np.random.default_rng(0).random((n, n))}[name]()
    shared = _shared_scales(f, J)
    if name == "noise":
        assert shared == []
    else:
        assert J - 1 in shared
    if name == "patches":
        assert shared == [J - 3, J - 2, J - 1]
    scores = _score(f, J, J, 32)
    for j, (best, edge) in enumerate(_full_pass(f, J, J, 32)):
        assert np.array_equal(_at(scores.sse_split, j), best)
        assert np.array_equal(_at(scores.local, j), edge)
