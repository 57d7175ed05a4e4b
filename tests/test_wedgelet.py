import numpy as np
import pytest

from approxrate import wedgelet
from approxrate.cartoon import disc_star, rasterize
from approxrate.exceptions import (
    CorruptionError,
    DegenerateWedgeError,
    DomainError,
    FormatError,
    InputShapeError,
)
from approxrate.wedgelet import (
    DyadicSquare,
    EdRdp,
    EdRdpLeaf,
    Edgelet,
    WedgeCode,
    decode,
    encode,
    encode_to_target,
    fit_cost,
    fit_rdp,
    project,
    vertex_budget,
    _layout,
    _perimeter_point,
    _valid_edgelets,
    wedge_mask,
)
from brute import brute_best_cost

UNIT = DyadicSquare(0, 0, 0)


def dictionary_size(J, K, m_cap=0xFFFC):
    """The dictionary size, sum over scales of 4^j * C(M_j, 2), from the
    stream layout's per-scale pair counts; the default cap binds at no
    scale the tests use."""
    return sum(4 ** j * pairs for j, (_, _, pairs) in enumerate(_layout(J, K, m_cap)[3]))


def unit_vertices(m_j):
    """The m_j boundary vertices of the unit square, clockwise from its
    upper-left corner, at the positions ``_side0_fractions`` draws with."""
    return [_perimeter_point(UNIT, i * 4.0 / m_j) for i in range(m_j)]


def test_edgelet_count_examples():
    assert dictionary_size(1, 1) == 232
    assert dictionary_size(0, 0) == 6
    assert dictionary_size(1, 1, 8) == 140
    # uncapped value obeys the 8 (J+1) / delta^2 bound
    for J, K in ((1, 1), (2, 2), (3, 1)):
        delta = 2.0 ** -(J + K)
        assert dictionary_size(J, K) <= 8 * (J + 1) * delta ** -2


def test_vertex_budget():
    assert vertex_budget(0, 1, 1, 1 << 40) == 16
    assert vertex_budget(1, 1, 1, 1 << 40) == 8
    assert vertex_budget(0, 3, 3, 32) == 32
    with pytest.raises(FormatError):
        vertex_budget(0, 1, 1, 6)


def test_enumerate_vertices_clockwise_from_upper_left():
    assert unit_vertices(vertex_budget(0, 0, 0, 4)) == [
        (0.0, 1.0), (1.0, 1.0), (1.0, 0.0), (0.0, 0.0)]


def test_enumerate_vertices_spacing():
    verts = unit_vertices(vertex_budget(0, 2, 1, 1 << 40))
    m = vertex_budget(0, 2, 1, 1 << 40)
    assert len(verts) == m == 4 * 2 ** 3
    d = np.hypot(verts[1][0] - verts[0][0], verts[1][1] - verts[0][1])
    assert d == pytest.approx(4.0 / m)


def test_edgelet_local_index_roundtrip():
    m = 8
    seen = set()
    for v2 in range(1, m):
        for v1 in range(v2):
            e = Edgelet(UNIT, v1, v2, m)
            back = Edgelet.from_local_index(UNIT, e.local_index, m)
            assert (back.v1, back.v2) == (v1, v2)
            seen.add(e.local_index)
    assert seen == set(range(m * (m - 1) // 2))


def test_wedge_mask_unsplit_ones():
    mask = wedge_mask(EdRdpLeaf(UNIT, None), 4)
    assert np.array_equal(mask, np.ones((4, 4)))


def test_wedge_mask_diagonal_halves():
    n = 256
    edge = Edgelet(UNIT, 0, 2, 4)  # corner (0,1) to corner (1,0)
    m0 = wedge_mask(EdRdpLeaf(UNIT, (edge, 0)), n)
    assert m0.mean() == pytest.approx(0.5, abs=2.0 / n)


def test_wedge_mask_sides_complement_exactly():
    n = 32
    m_j = vertex_budget(0, 5, 5, 16)
    for pair in ((0, 6), (1, 9), (3, 13)):
        edge = Edgelet(UNIT, pair[0], pair[1], m_j)
        m0 = wedge_mask(EdRdpLeaf(UNIT, (edge, 0)), n)
        m1 = wedge_mask(EdRdpLeaf(UNIT, (edge, 1)), n)
        assert np.array_equal(m0 + m1, np.ones((n, n)))


def test_wedge_mask_degenerate_rejected():
    edge = Edgelet(UNIT, 0, 1, 4)  # both on the top edge
    with pytest.raises(DegenerateWedgeError):
        wedge_mask(EdRdpLeaf(UNIT, (edge, 0)), 8)


def test_wedge_mask_support_confined():
    sq = DyadicSquare(1, 1, 0)
    mask = wedge_mask(EdRdpLeaf(sq, None), 8)
    assert np.all(mask[4:, :] == 0.0)
    assert np.all(mask[:, :4] == 0.0)
    assert np.all(mask[0:4, 4:8] == 1.0)


def test_project_constant():
    f = np.ones((8, 8))
    part = fit_rdp(f, 3, 3, 8, lam=0.01)
    assert len(part.leaves) == 1
    proj = project(f, part)
    assert proj.coefficients[0] == pytest.approx(1.0)
    assert np.allclose(proj.reconstruction, 1.0)


def test_project_disc_mean():
    f = rasterize(disc_star(0.25), 64, 4)
    part = EdRdp((EdRdpLeaf(UNIT, None),), 64, 6, 32)
    proj = project(f, part)
    assert proj.coefficients[0] == pytest.approx(f.mean(), abs=1e-12)


def test_project_residual_orthogonal():
    f = rasterize(disc_star(0.25), 32, 4)
    part = fit_rdp(f, 5, 5, 16, lam=1e-3)
    proj = project(f, part)
    resid = f - proj.reconstruction
    n = part.n
    for leaf in part.leaves:
        mask = wedge_mask(leaf, n)
        assert abs(float(np.sum(resid * mask)) / n ** 2) <= 1e-10


def test_partition_tiles_unit_square():
    f = rasterize(disc_star(0.25), 32, 4)
    part = fit_rdp(f, 5, 5, 16, lam=1e-3)
    part.validate()
    total = np.zeros((32, 32))
    for leaf in part.leaves:
        total += wedge_mask(leaf, 32)
    assert np.max(np.abs(total - 1.0)) <= 1e-9


def test_masks_of_distinct_squares_orthogonal():
    f = rasterize(disc_star(0.25), 32, 4)
    part = fit_rdp(f, 5, 5, 16, lam=1e-3)
    masks = [wedge_mask(leaf, 32) for leaf in part.leaves]
    for i, a in enumerate(part.leaves):
        for j in range(i + 1, len(part.leaves)):
            b = part.leaves[j]
            same_square = a.square == b.square
            ip = float(np.sum(masks[i] * masks[j]))
            if not same_square:
                assert ip == 0.0


def test_validate_rejects_partial_cover():
    leaf = EdRdpLeaf(DyadicSquare(1, 0, 0), None)
    part = EdRdp((leaf,), 4, 2, 8)
    with pytest.raises(FormatError):
        part.validate()


def _quads(j=1):
    return tuple(EdRdpLeaf(DyadicSquare(j, ix, iy)) for iy in (0, 1) for ix in (0, 1))


NESTED = _quads() + (EdRdpLeaf(DyadicSquare(2, 3, 3)),)


@pytest.mark.parametrize("leaves", [
    NESTED,
    # one side of a split square, without the other; decode still takes
    # one, as streams drop q = 0 records (the golden disc64_* and
    # petals64_lam streams hold 2, 3 and 16 lone sides)
    _quads()[:3] + (EdRdpLeaf(DyadicSquare(1, 1, 1),
                              (Edgelet(DyadicSquare(1, 1, 1), 0, 3, 8), 0)),),
    # leaves finer than the 4 x 4 pixel grid
    _quads()[:3] + tuple(EdRdpLeaf(DyadicSquare(3, ix, iy))
                         for iy in (2, 3) for ix in (2, 3)),
], ids=["nested", "lone-side", "too-fine"])
def test_validate_refuses_leaf_sets_that_do_not_tile(leaves):
    assert EdRdp(_quads(), 4, 2, 8).validate()
    for check in (lambda part: part.validate(),
                  lambda part: project(np.zeros((4, 4)), part)):
        with pytest.raises(FormatError):
            check(EdRdp(leaves, 4, 2, 8))


@pytest.mark.parametrize("n", [0, 48, -8])
def test_partition_scale_refuses_n_not_a_power_of_two(n):
    part = EdRdp((), n, 2, 8)
    with pytest.raises(FormatError, match="n must be a power of two"):
        part.J


def test_partition_scale_of_a_power_of_two():
    assert [EdRdp((), 1 << J, 2, 8).J for J in range(6)] == list(range(6))


@pytest.mark.parametrize("header", [
    (6.0, 6, 32), (6, 6.0, 32), (6, 6, 4.0), (6, 6, 32.0), (True, 6, 32), (6, 6, None),
])
def test_a_header_field_that_is_not_an_integer_is_refused(header):
    # (6.0, 6, 32) and (6, 6, 4.0) were untyped shift and range errors;
    # 6.0 equals 6, so the header cache must not answer it from 6's entry
    f = rasterize(disc_star(), 64)
    encode(f, 6, 6, 32)
    for run in (lambda: encode(f, *header), lambda: _layout(*header)):
        with pytest.raises(FormatError, match="expected an integer"):
            run()


def test_numpy_integer_header_fields_give_the_same_stream():
    f = rasterize(disc_star(), np.int64(64))
    want = encode(f, 6, 6, 32).to_bytes()
    assert encode(f, np.int64(6), np.int32(6), np.uint8(32)).to_bytes() == want


@pytest.mark.parametrize("n", [16.0, True, np.float64(16.0), "16"])
def test_rasterize_refuses_an_n_that_is_not_an_integer(n):
    with pytest.raises(FormatError, match="expected an integer"):
        rasterize(disc_star(), n)


def test_project_refuses_a_nested_square():
    with pytest.raises(CorruptionError):
        project(np.zeros((4, 4)), EdRdp(NESTED, 4, 2, 8))


def test_fit_half_plane_exact():
    # the dictionary contains the corner-to-corner diagonal, so its own
    # averaged indicator is exactly representable by a single split
    n = 8
    m_j = vertex_budget(0, 3, 3, 8)
    diag = next(Edgelet(UNIT, v1, v2, m_j)
                for v1 in range(m_j) for v2 in range(v1 + 1, m_j)
                if unit_vertices(m_j)[v1] == (0.0, 0.0)
                and unit_vertices(m_j)[v2] == (1.0, 1.0)
                or unit_vertices(m_j)[v1] == (1.0, 1.0)
                and unit_vertices(m_j)[v2] == (0.0, 0.0))
    f = wedge_mask(EdRdpLeaf(UNIT, (diag, 0)), n)
    part = fit_rdp(f, 3, 3, 8, lam=1e-4)
    assert len(part.leaves) == 2
    proj = project(f, part)
    assert np.max(np.abs(proj.reconstruction - f)) <= 1e-12


def test_dp_matches_bruteforce_on_seeded_arrays():
    rng = np.random.default_rng(42)
    for trial in range(5):
        base = rng.random((8, 8)) * 0.1
        cx, cy = rng.random(2)
        yy, xx = np.meshgrid((np.arange(8) + 0.5) / 8, (np.arange(8) + 0.5) / 8,
                             indexing="ij")
        base += ((xx - cx) * 2 + (yy - cy) > 0).astype(float) * 0.7
        lam = 0.01
        part = fit_rdp(base, 3, 3, 8, lam)
        assert len(part.leaves) <= 10
        dp_cost = fit_cost(base, part, lam)
        brute = brute_best_cost(base, 3, 3, 8, lam, max_leaves=10)
        assert dp_cost == pytest.approx(brute, abs=1e-9)


def test_fit_rdp_deterministic():
    f = rasterize(disc_star(0.25), 32, 4)
    a = fit_rdp(f, 5, 5, 16, lam=1e-3)
    b = fit_rdp(f, 5, 5, 16, lam=1e-3)
    assert a == b


def test_coefficient_quantization_example():
    # theta = 0.3001 at n = 16 lands on grid point 77/256
    n = 16
    f = np.full((n, n), 0.3001)
    code = encode(f, 4, 4, 8, lam=1.0)
    assert len(code.records) == 1
    leaf, q = code.records[0]
    assert leaf.split is None
    # single all-ones mask has norm 1, so theta == mean == 0.3001
    assert q == 77
    assert q * code.eta == pytest.approx(77.0 / 256.0)


def test_roundtrip_constant():
    n = 16
    f = np.full((n, n), 0.5)
    code = encode(f, 4, 4, 8, lam=0.0)
    rec = decode(code)
    assert np.max(np.abs(rec - 0.5)) <= code.eta


def test_serialization_bit_exact():
    f = rasterize(disc_star(0.25), 32, 4)
    code = encode(f, 5, 5, 16, lam=1e-3)
    data = code.to_bytes()
    back = WedgeCode.from_bytes(data)
    assert back == code
    assert back.to_bytes() == data
    assert np.array_equal(decode(back), decode(code))
    assert code.bit_length == 8 * len(data)


def test_corruption_detected():
    f = np.full((8, 8), 0.25)
    data = encode(f, 3, 3, 8, lam=0.0).to_bytes()
    with pytest.raises(CorruptionError):
        WedgeCode.from_bytes(b"XXXX" + data[4:])
    with pytest.raises(CorruptionError):
        WedgeCode.from_bytes(data[:10])
    with pytest.raises(CorruptionError):
        WedgeCode.from_bytes(data[:-2])


def test_decode_reprojection_recovers_thetas():
    f = rasterize(disc_star(0.25), 32, 4)
    part = fit_rdp(f, 5, 5, 16, lam=1e-3)
    code = encode(f, 5, 5, 16, lam=1e-3)
    rec = decode(code)
    proj = project(rec, part)
    stored = {}
    for leaf, q in code.records:
        stored[leaf] = q * code.eta
    for leaf, theta in zip(part.leaves, proj.thetas):
        assert theta == pytest.approx(stored.get(leaf, 0.0), abs=1e-9)


def test_roundtrip_error_budget():
    f = rasterize(disc_star(0.25), 64, 4)
    lam = 64.0 ** -3
    part = fit_rdp(f, 6, 6, 32, lam)
    proj = project(f, part)
    fit_err = float(np.sqrt(np.mean((f - proj.reconstruction) ** 2)))
    code = encode(f, 6, 6, 32, lam)
    rec = decode(code)
    total = float(np.sqrt(np.mean((f - rec) ** 2)))
    budget = fit_err + 0.5 * len(part.leaves) * code.eta
    assert total <= budget + 1e-12


def test_disc_leaf_count_linear_in_n():
    n = 128
    f = rasterize(disc_star(0.25), n, 4)
    part = fit_rdp(f, 7, 7, 32, lam=float(n) ** -3.0)
    assert len(part.leaves) <= 8 * n


def test_fitted_rate_respects_fundamental_bound():
    # a different cap and seed still keep the fitted exponent under
    # beta/2 + 0.3 for the beta = 2 family
    from approxrate.cartoon import make_hypercube, vertex_function
    from approxrate.ratelab import fit_rate, l2_error_pixels

    rng = np.random.default_rng(99)
    spec = make_hypercube(2.0 ** -4, 2.0, 1.0)
    stars = [disc_star(), vertex_function(spec, rng.integers(0, 2, spec.m))]
    ns, errs = [32, 64, 128], []
    for n in ns:
        J = int(np.log2(n))
        worst = 0.0
        for star in stars:
            arr = rasterize(star, n, 4)
            code = encode(arr, J, J, 16, lam=float(n) ** -3.0)
            worst = max(worst, l2_error_pixels(decode(code), arr))
        errs.append(worst)
    slope = fit_rate(list(zip(ns, errs))).fitted_slope
    assert -slope <= 1.0 + 0.3


def test_encode_to_target():
    f = rasterize(disc_star(0.25), 32, 4)
    code, err, reached = encode_to_target(f, 5, 5, 16, 0.05)
    assert reached and err <= 0.05
    code0 = encode(f, 5, 5, 16, lam=0.0)
    assert code.bit_length <= code0.bit_length
    _, best, reached = encode_to_target(f, 5, 5, 16, 1e-9)
    assert not reached and best > 1e-9


def test_input_validation():
    with pytest.raises(InputShapeError):
        fit_rdp(np.ones((8, 8)), 4, 4, 8, 0.0)
    with pytest.raises(InputShapeError):
        Edgelet(UNIT, 3, 1, 8)
    with pytest.raises(InputShapeError):
        DyadicSquare(1, 2, 0)


def _reference_encode_to_target(f, J, K, m_cap, target_eps, sweeps=16):
    """The bisection as 17 public ``encode`` calls, one full fit per probe."""
    def attempt(lam):
        code = encode(f, J, K, m_cap, lam)
        return code, float(np.sqrt(np.mean((decode(code) - f) ** 2)))

    code, err = attempt(0.0)
    if err > target_eps:
        return code, err, False
    best = (code, err)
    lo, hi = 0.0, 1.0
    for _ in range(sweeps):
        mid = (lo + hi) / 2.0
        code, err = attempt(mid)
        if err <= target_eps:
            lo = mid
            if code.bit_length < best[0].bit_length:
                best = (code, err)
        else:
            hi = mid
    return best[0], best[1], True


def _seeded_petal_vertex(n, seed):
    from approxrate.cartoon import make_hypercube, vertex_function

    spec = make_hypercube(2.0 ** -4, 2.0, 1.0)
    xi = np.random.default_rng(seed).integers(0, 2, spec.m)
    return rasterize(vertex_function(spec, xi), n, 4)


@pytest.mark.parametrize("image, J, eps", [
    ("disc", 6, 0.05),
    ("petals", 5, 0.05),
    ("disc", 5, 1e-9),  # unreachable: the lambda = 0 code comes back
])
def test_encode_to_target_matches_reference_bisection(image, J, eps):
    n = 1 << J
    f = (rasterize(disc_star(0.25), n, 4) if image == "disc"
         else _seeded_petal_vertex(n, 3))
    code, err, reached = encode_to_target(f, J, J, 32, eps)
    ref_code, ref_err, ref_reached = _reference_encode_to_target(f, J, J, 32, eps)
    assert code.to_bytes() == ref_code.to_bytes()
    assert err == ref_err
    assert reached is ref_reached
    assert reached is (eps == 0.05)


def test_encode_to_target_projects_and_decodes_once(monkeypatch):
    calls = []
    for name in ("_quantize", "decode"):
        real = getattr(wedgelet, name)
        monkeypatch.setattr(wedgelet, name,
                            lambda *args, name=name, real=real:
                            calls.append(name) or real(*args))
    f = rasterize(disc_star(), 64, 4)
    code, err, reached = encode_to_target(f, 6, 6, 32, 0.05)
    assert reached
    # no probe of this disc is in doubt, so only the code returned is real
    assert calls == ["_quantize", "decode"]
    assert code.to_bytes() == _reference_encode_to_target(f, 6, 6, 32, 0.05)[0].to_bytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_input_refused(bad):
    f = np.full((8, 8), 0.5)
    f[2, 5] = bad
    with pytest.raises(DomainError):
        encode(f, 3, 3, 8, lam=0.0)
    with pytest.raises(DomainError):
        encode_to_target(f, 3, 3, 8, 0.05)
    with pytest.raises(DomainError):
        fit_rdp(f, 3, 3, 8, 0.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_penalty_and_target_refused(bad):
    f = np.full((8, 8), 0.5)
    with pytest.raises(DomainError):
        fit_rdp(f, 3, 3, 8, bad)
    with pytest.raises(DomainError):
        encode(f, 3, 3, 8, lam=bad)
    with pytest.raises(DomainError):
        encode_to_target(f, 3, 3, 8, bad)


@pytest.mark.parametrize("m_cap", [12, 20, 24, 32])
def test_split_mask_is_the_same_on_every_square_of_a_scale(m_cap):
    # an edgelet is a vertex pair of its scale, so where its square sits
    # must not change the mask, whether or not M_cap is a power of two
    J = K = 4
    n = 1 << J
    for j in range(1, J):
        size = n >> j
        m_j = vertex_budget(j, J, K, m_cap)
        for _, v1, v2 in _valid_edgelets(m_j)[::5]:
            blocks = []
            for iy in range(1 << j):
                for ix in range(1 << j):
                    sq = DyadicSquare(j, ix, iy)
                    leaf = EdRdpLeaf(sq, (Edgelet(sq, v1, v2, m_j), 0))
                    mask = wedge_mask(leaf, n)
                    blocks.append(mask[iy * size:(iy + 1) * size,
                                       ix * size:(ix + 1) * size])
            assert all(np.array_equal(b, blocks[0]) for b in blocks[1:])


def test_fit_of_a_dictionary_wedge_is_exact_for_a_non_dyadic_cap():
    # M_cap = 12 puts vertices at thirds of a side, which binary floating
    # point rounds; the fit and the projection must still use one mask
    block = wedge_mask(EdRdpLeaf(UNIT, (Edgelet(UNIT, 2, 6, 12), 0)), 8)
    f = np.zeros((16, 16))
    f[0:8, 8:16] = block  # square (j, ix, iy) = (1, 1, 0)
    part = fit_rdp(f, 4, 4, 12, 1e-6)
    assert fit_cost(f, part, 0.0) == 0.0


def test_project_refuses_a_split_square_without_both_sides():
    a, b = Edgelet(UNIT, 0, 2, 4), Edgelet(UNIT, 1, 3, 4)
    for pair in (((a, 0), (b, 1)), ((a, 0), (a, 0))):
        part = EdRdp(tuple(EdRdpLeaf(UNIT, split) for split in pair), 8, 3, 4)
        with pytest.raises(FormatError):
            project(np.ones((8, 8)), part)


def test_decode_refuses_either_side_of_a_degenerate_pair():
    # vertices 7 and 9 of M_j = 32 cut off a corner whose only sample lies
    # on the line, so side 0 is empty and no fit can use the pair
    sq = DyadicSquare(2, 1, 1)
    edge = Edgelet(sq, 7, 9, 32)
    for side in (0, 1):
        code = WedgeCode(3, 3, 32, ((EdRdpLeaf(sq, (edge, side)), 5),))
        with pytest.raises(DegenerateWedgeError):
            decode(code)


def _split_leaf(sq, edge_square, m_count, side=0):
    return EdRdpLeaf(sq, (Edgelet(edge_square, 1, 5, m_count), side))


@pytest.mark.parametrize("J,K,leaf", [
    # M_j is 32 at j = 1, so an edgelet of 64 vertices would read back as
    # another one
    (3, 3, _split_leaf(DyadicSquare(1, 0, 0), DyadicSquare(1, 0, 0), 64)),
    # a leaf below the pixel scale has no vertex budget
    (3, 0, _split_leaf(DyadicSquare(4, 0, 0), DyadicSquare(4, 0, 0), 32)),
    (3, 0, EdRdpLeaf(DyadicSquare(4, 0, 0))),
    # the stream stores only the leaf's square
    (3, 3, _split_leaf(DyadicSquare(1, 0, 0), DyadicSquare(1, 1, 0), 32)),
    # the side is one bit
    (3, 3, _split_leaf(DyadicSquare(1, 0, 0), DyadicSquare(1, 0, 0), 32, side=2)),
])
def test_code_refuses_a_leaf_its_header_cannot_carry(J, K, leaf):
    # with the other side of its split and the other squares of scale 1, a
    # leaf of scale 1 tiles the unit square, so only the leaf check refuses
    leaves = (leaf,) + tuple(q for q in _quads() if q.square != DyadicSquare(1, 0, 0))
    if leaf.split is not None:
        edge, side = leaf.split
        leaves += (EdRdpLeaf(leaf.square, (edge, int(side == 0))),)
    code = WedgeCode(J, K, 32, tuple((each, 5) for each in leaves))
    part = EdRdp(leaves, 1 << J, K, 32)
    for measure in (lambda: code.to_bytes(), lambda: code.bit_length,
                    lambda: decode(code), lambda: part.validate(),
                    lambda: project(np.zeros((1 << J, 1 << J)), part)):
        with pytest.raises(FormatError):
            measure()

