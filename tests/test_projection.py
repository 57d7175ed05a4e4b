"""``project`` and ``decode`` against a per-leaf reference, and the stream
checks ``decode`` makes before it draws a mask.

The reference is written here without the code under test: it draws each
leaf's mask as a full n x n array with ``wedge_mask``, which renders the
mask itself instead of reading the edgelet dictionary, and solves one
square at a time.  Pixels of the rasterized cartoons are multiples of
1/16 and masks are multiples of 1/16, so every sum is exact and the
outputs must agree bit for bit.
"""

import math
from pathlib import Path

import numpy as np
import pytest

from approxrate import wedgelet
from approxrate.cartoon import disc_star, make_hypercube, rasterize, vertex_function
from approxrate.exceptions import CorruptionError, DegenerateWedgeError, RangeError
from approxrate.wedgelet import (
    DyadicSquare,
    EdRdpLeaf,
    Edgelet,
    WedgeCode,
    _dictionary,
    decode,
    encode,
    encode_to_target,
    fit_rdp,
    project,
    wedge_mask,
)

GOLDEN = Path(__file__).resolve().parent / "golden"


def _cartoon(name, n):
    if name == "disc":
        return rasterize(disc_star(), n, 4)
    spec = make_hypercube(2.0 ** -5, 2.0, 1.0)
    return rasterize(vertex_function(spec, (1, 0) * (spec.m // 2)), n, 4)


def _reference_project(f, partition):
    """(coefficients, thetas, reconstruction), one square at a time."""
    n = partition.n
    norm = 1.0 / (n * n)
    squares = {}
    for idx, leaf in enumerate(partition.leaves):
        squares.setdefault(leaf.square, []).append(idx)
    coefs = [0.0] * len(partition.leaves)
    thetas = [0.0] * len(partition.leaves)
    recon = np.zeros((n, n))
    for group in squares.values():
        masks = [wedge_mask(partition.leaves[idx], n) for idx in group]
        if len(group) == 1:
            g = float(np.sum(masks[0] * masks[0])) * norm
            v = float(np.sum(f * masks[0])) * norm
            coefs[group[0]] = v / g
            thetas[group[0]] = v / math.sqrt(g)
            recon += coefs[group[0]] * masks[0]
            continue
        m0, m1 = masks
        g00 = float(np.sum(m0 * m0)) * norm
        g01 = float(np.sum(m0 * m1)) * norm
        g11 = float(np.sum(m1 * m1)) * norm
        det = g00 * g11 - g01 * g01
        v0 = float(np.sum(f * m0)) * norm
        v1 = float(np.sum(f * m1)) * norm
        a0 = (g11 * v0 - g01 * v1) / det
        a1 = (g00 * v1 - g01 * v0) / det
        coefs[group[0]], coefs[group[1]] = a0, a1
        thetas[group[0]], thetas[group[1]] = a0 * math.sqrt(g00), a1 * math.sqrt(g11)
        recon += a0 * m0 + a1 * m1
    return coefs, thetas, recon


def _reference_decode(code):
    """Sum over records of theta * mask / ||mask||, one record at a time."""
    n = code.n
    out = np.zeros((n, n))
    for leaf, q in code.records:
        mask = wedge_mask(leaf, n)
        out += q * code.eta / math.sqrt(float(np.sum(mask * mask)) / (n * n)) * mask
    return out


@pytest.mark.parametrize("m_cap", [32, 12])
@pytest.mark.parametrize("name", ["disc", "petals"])
def test_project_and_decode_equal_the_per_leaf_reference(name, m_cap):
    f = _cartoon(name, 64)
    for lam in (0.0, 64.0 ** -3, 1e-4, 1e-3):
        part = fit_rdp(f, 6, 6, m_cap, lam)
        proj = project(f, part)
        coefs, thetas, recon = _reference_project(f, part)
        assert proj.coefficients == tuple(coefs)
        assert proj.thetas == tuple(thetas)
        assert np.array_equal(proj.reconstruction, recon)
        code = encode(f, 6, 6, m_cap, lam)
        assert np.array_equal(decode(code), _reference_decode(code))


def test_project_of_a_random_image_is_close_to_the_reference():
    f = np.random.default_rng(5).random((64, 64))
    for lam in (1e-5, 1e-4):  # splits at j = 5, then at j = 1
        part = fit_rdp(f, 6, 6, 32, lam)
        assert any(leaf.split is not None for leaf in part.leaves)
        proj = project(f, part)
        coefs, thetas, recon = _reference_project(f, part)
        np.testing.assert_allclose(proj.coefficients, coefs, rtol=0, atol=1e-12)
        np.testing.assert_allclose(proj.thetas, thetas, rtol=0, atol=1e-12)
        np.testing.assert_allclose(proj.reconstruction, recon, rtol=0, atol=1e-12)
        code = encode(f, 6, 6, 32, lam)
        # the decoder sums exact Grams only, whatever the image
        assert np.array_equal(decode(code), _reference_decode(code))


def test_second_project_and_decode_render_no_mask(monkeypatch):
    f = _cartoon("disc", 32)
    part = fit_rdp(f, 5, 5, 32, 32.0 ** -3)
    code = encode(f, 5, 5, 32, 32.0 ** -3)
    first = project(f, part), decode(code)
    calls = []
    render = wedgelet._side0_fractions
    monkeypatch.setattr(wedgelet, "_side0_fractions",
                        lambda *args: calls.append(args) or render(*args))
    again = project(f, part), decode(code)
    assert calls == []
    assert again[0].thetas == first[0].thetas
    assert np.array_equal(again[1], first[1])


def _stream(*records, J=3, K=3, m_cap=32):
    """A record list written out and read back, as a decoder receives it."""
    return WedgeCode.from_bytes(WedgeCode(J, K, m_cap, tuple(records)).to_bytes())


def _split(sq, v1, v2, side, m_j=32):
    return EdRdpLeaf(sq, (Edgelet(sq, v1, v2, m_j), side))


SQ = DyadicSquare(1, 1, 0)


@pytest.mark.parametrize("records", [
    # a square nested inside another
    ((EdRdpLeaf(DyadicSquare(0, 0, 0)), 3), (EdRdpLeaf(DyadicSquare(2, 3, 1)), 2)),
    ((_split(SQ, 2, 12, 0), 4), (_split(DyadicSquare(3, 7, 0), 2, 12, 1), -4)),
    # the same side twice
    ((_split(SQ, 2, 12, 0), 4), (_split(SQ, 2, 12, 0), 4)),
    # two edgelets in one square
    ((_split(SQ, 2, 12, 0), 4), (_split(SQ, 3, 13, 1), -4)),
    # an unsplit leaf on a split square
    ((EdRdpLeaf(SQ), 1), (_split(SQ, 2, 12, 1), -4)),
])
def test_decode_refuses_overlapping_leaves(records, monkeypatch):
    code = _stream(*records)

    def drawn(*args):
        raise AssertionError("a mask was drawn before the overlap check")

    monkeypatch.setattr(wedgelet, "_expand", drawn)
    with pytest.raises(CorruptionError):
        decode(code)


def test_decode_takes_the_two_sides_of_a_square_in_either_order():
    leaves = [(_split(SQ, 2, 12, 1), -4), (EdRdpLeaf(DyadicSquare(2, 0, 3)), 7),
              (_split(SQ, 2, 12, 0), 9)]
    code = _stream(*leaves)
    assert np.array_equal(decode(code), _reference_decode(code))


def test_pixel_scale_entry_is_empty_and_a_split_pixel_is_degenerate():
    masks = _dictionary(32, 1)  # every pair at the pixel scale has det = 0
    assert masks.local.size == 0 and masks.dense.shape == (1, 0)
    pixel = DyadicSquare(3, 2, 5)
    for side in (0, 1):
        code = _stream((_split(pixel, 0, 16, side), 5))  # a diagonal
        with pytest.raises(DegenerateWedgeError):
            decode(code)


def _counted(monkeypatch, name):
    """Record the arguments of every call of the wedgelet function ``name``."""
    calls = []
    real = getattr(wedgelet, name)
    monkeypatch.setattr(wedgelet, name, lambda *args: calls.append(args) or real(*args))
    return calls


@pytest.mark.parametrize("J, K, m_cap, v1, v2", [
    (3, 20, 65532, 1, 40000),  # the largest M_j the header allows
    (8, 8, 1024, 3, 600),
    (6, 6, 2048, 5, 1300),
])
def test_a_split_of_a_large_vertex_budget_draws_only_its_own_mask(
        J, K, m_cap, v1, v2, monkeypatch):
    # the whole entry of M_j = m_cap would hold C(m_cap, 2) masks
    top = DyadicSquare(0, 0, 0)
    code = _stream((_split(top, v1, v2, 0, m_cap), 9), (_split(top, v1, v2, 1, m_cap), -3),
                   J=J, K=K, m_cap=m_cap)
    monkeypatch.setattr(wedgelet, "_BUILT", {})

    def built(*args):
        raise AssertionError("a whole dictionary entry was built")

    monkeypatch.setattr(wedgelet, "_dictionary", built)
    drawn = _counted(monkeypatch, "_side0_fractions")
    out = decode(code)
    assert drawn == [(m_cap, v1, v2, 1 << J)]
    assert np.array_equal(out, _reference_decode(code))


@pytest.mark.parametrize("name", ["disc", "petals"])
def test_a_decode_with_no_entry_built_draws_each_named_edgelet_once(name, monkeypatch):
    code = encode(_cartoon(name, 64), 6, 6, 32, 64.0 ** -3)
    named = {(leaf.square.j, leaf.edgelet.local_index)
             for leaf, _ in code.records if leaf.split is not None}
    monkeypatch.setattr(wedgelet, "_BUILT", {})
    monkeypatch.setattr(wedgelet, "_dictionary", None)  # never a whole entry
    drawn = _counted(monkeypatch, "_side0_fractions")
    out = decode(code)
    assert len(drawn) == len(named)
    assert np.array_equal(out, _reference_decode(code))


def test_a_decode_naming_a_quarter_of_the_pairs_builds_the_whole_entry(monkeypatch):
    # M_j = 8 has C(8, 2) = 28 pairs; eight squares of j = 2 name seven
    edgelets = [(0, 3), (0, 4), (0, 5), (1, 3), (1, 4), (1, 5), (1, 6), (0, 3)]
    records = []
    for k, (v1, v2) in enumerate(edgelets):
        sq = DyadicSquare(2, k % 4, k // 4)
        records += [(_split(sq, v1, v2, 0, 8), 5), (_split(sq, v1, v2, 1, 8), -2)]
    code = _stream(*records, m_cap=8)
    monkeypatch.setattr(wedgelet, "_BUILT", wedgelet.weakref.WeakValueDictionary())
    built = _counted(monkeypatch, "_dictionary")
    out = decode(code)
    assert built == [(8, 2)]
    assert np.array_equal(out, _reference_decode(code))


def _bench_streams():
    """The fixed images of the benchmark's wedge workloads: n = 256 at
    lambda = n^-3, and the 0.05 target encode at n = 128."""
    for name in ("disc", "petals"):
        yield encode(_cartoon(name, 256), 8, 8, 32, 256.0 ** -3)
        yield encode_to_target(_cartoon(name, 128), 7, 7, 32, 0.05)[0]


def test_bit_length_is_the_packed_length():
    codes = [WedgeCode.from_bytes(path.read_bytes())
             for path in sorted(GOLDEN.glob("*.wdgl"))]
    assert len(codes) == 4
    for code in codes + list(_bench_streams()):
        assert code.bit_length == 8 * len(code.to_bytes())
    assert WedgeCode(3, 3, 8, ()).bit_length == 8 * 13


def test_bit_length_refuses_a_coefficient_outside_the_alphabet():
    code = WedgeCode(3, 3, 8, ((EdRdpLeaf(DyadicSquare(0, 0, 0)), 66),))
    for measure in (lambda: code.to_bytes(), lambda: code.bit_length):
        with pytest.raises(RangeError):
            measure()


@pytest.mark.parametrize("q", [10 ** 6, -19, 1.5])
def test_decode_refuses_a_coefficient_outside_the_alphabet_before_drawing(q, monkeypatch):
    # at n = 4 the alphabet is |q| <= 17; 10^6 once decoded to 62500.0
    code = WedgeCode(2, 2, 8, ((EdRdpLeaf(DyadicSquare(0, 0, 0)), q),))

    def drawn(*args):
        raise AssertionError("decode drew the image before the coefficient check")

    monkeypatch.setattr(wedgelet, "_tiles", drawn)
    for measure in (lambda: decode(code), lambda: code.to_bytes()):
        with pytest.raises(RangeError):
            measure()
