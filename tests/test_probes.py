"""The leaf table ``_prune`` returns and the probes ``encode_to_target``
reads from the scores.

Oracles: a recursive depth-first walk over the DP's choices
(``brute.emit_leaves``), and for each probe the code ``_quantize`` makes
of the same partition, decoded and measured pixel by pixel.
"""

import math
from collections import Counter

import numpy as np
import pytest

from approxrate import wedgelet
from approxrate.cartoon import disc_star, make_hypercube, rasterize, vertex_function
from approxrate.exceptions import RangeError
from approxrate.wedgelet import decode, encode, encode_to_target, fit_rdp, project
from brute import emit_leaves
from test_wedgelet import _reference_encode_to_target

M_CAP = 32
TARGET = 0.05


def _choices(rng, J, m_cap):
    """Random per-scale choices: -2 quad, -1 unsplit, else a local index
    of a valid edgelet; the pixel scale is never split."""
    out = []
    for j in range(J + 1):
        valid = [idx for idx, _, _ in
                 wedgelet._valid_edgelets(wedgelet.vertex_budget(j, J, J, m_cap))]
        pick = rng.choice(valid, 1 << 2 * j) if j < J else np.full(1 << 2 * j, -1)
        kind = rng.random(1 << 2 * j)
        if j < J:
            pick = np.where(kind < 0.45, -2, np.where(kind < 0.7, -1, pick))
        out.append(pick.astype(np.int64))
    return out


def _forcing_scores(choice, J, m_cap):
    """Scores on which the DP at lambda = 1 makes exactly ``choice``.

    A leaf costs at most 2 and a subtree has at most 4^J leaves, so a
    square that must be a quad costs 10^6 as a leaf.
    """
    flat = np.concatenate(choice)
    quad, whole = flat == -2, flat == -1
    sse_whole = np.where(quad, 1e6, np.where(whole, 0.0, 10.0))
    sse_split = np.where(flat >= 0, 0.0, np.inf)
    zeros = np.zeros(flat.size)
    return wedgelet._Scores(J, J, m_cap, sse_whole, sse_split, np.maximum(flat, -1),
                            zeros, zeros, zeros, zeros)


@pytest.mark.parametrize("J", [1, 2, 3, 4, 5, 6])
def test_pruned_table_equals_the_recursive_walk(J):
    rng = np.random.default_rng(J)
    for m_cap in (32, 12):
        for _ in range(4):
            choice = _choices(rng, J, m_cap)
            table = wedgelet._prune(_forcing_scores(choice, J, m_cap), 1.0)
            rows = list(zip(*(col.tolist() for col in
                              (table.j, table.ix, table.iy, table.local, table.side))))
            assert rows == emit_leaves(choice, J)
            assert table.budgets == wedgelet._budgets(J, J, m_cap)
            # the table is what the stream carries, in the stream's order
            partition = wedgelet.EdRdp(table.leaves(), 1 << J, J, m_cap)
            again = wedgelet._Leaves.of(partition.leaves, 1 << J, J, m_cap)
            for name in ("j", "ix", "iy", "local", "side"):
                assert np.array_equal(getattr(again, name), getattr(table, name))
            assert partition.validate()


def _image(name, n):
    if name == "disc":
        return rasterize(disc_star(), n, 4)
    if name in ("petals", "petals_ss5"):
        spec = make_hypercube(2.0 ** -5, 2.0, 1.0)
        # at supersample 5 the pixels are multiples of 1/25, so sums round
        return rasterize(vertex_function(spec, (1, 0) * (spec.m // 2)), n,
                         5 if name == "petals_ss5" else 4)
    return np.random.default_rng(n).random((n, n))


def _probe_penalties(f, J):
    """The 17 penalties ``encode_to_target`` probes at TARGET, each probe
    decided by its real code."""
    lams, lo, hi = [0.0], 0.0, 1.0
    for _ in range(16):
        mid = (lo + hi) / 2.0
        code = encode(f, J, J, M_CAP, mid)
        if math.sqrt(np.mean((decode(code) - f) ** 2)) <= TARGET:
            lo = mid
        else:
            hi = mid
        lams.append(mid)
    return lams


@pytest.mark.parametrize("name", ["disc", "petals", "noise"])
@pytest.mark.parametrize("J", [6, 7])
def test_closed_form_bits_and_error_equal_the_decoded_code(name, J):
    f = _image(name, 1 << J)
    scores = wedgelet._score(f, J, J, M_CAP)
    for lam in _probe_penalties(f, J):
        table = wedgelet._prune(scores, lam)
        bits, mse = wedgelet._closed_form(scores, table)
        code = wedgelet._quantize(scores, table)
        err = math.sqrt(np.mean((decode(code) - f) ** 2))
        assert bits == code.bit_length == 8 * len(code.to_bytes())
        assert math.sqrt(mse) == pytest.approx(err, rel=1e-12, abs=0.0)


def _scored_thetas(scores, table):
    """Each leaf's theta as stored in the scores: its square's whole, or
    that of its side of the square's winning split."""
    at = wedgelet._first(table.j) + (table.iy << table.j) + table.ix
    return np.where(table.local < 0, scores.theta[at],
                    np.where(table.side == 0, scores.theta0[at], scores.theta1[at]))


@pytest.mark.parametrize("name", ["disc", "petals", "noise"])
@pytest.mark.parametrize("J", [6, 7])
def test_scored_thetas_equal_the_projection(name, J):
    # the encoder rounds every leaf's theta as the scores hold it; on a
    # cartoon every pixel is a multiple of 1/16, so every sum is exact and
    # they equal the projection's bit for bit
    f = _image(name, 1 << J)
    scores = wedgelet._score(f, J, J, M_CAP)
    for lam in _probe_penalties(f, J):
        table = wedgelet._prune(scores, lam)
        partition = wedgelet.EdRdp(table.leaves(), 1 << J, J, M_CAP)
        thetas = np.array(project(f, partition).thetas)
        if name == "noise":
            np.testing.assert_allclose(_scored_thetas(scores, table), thetas,
                                       rtol=0, atol=1e-12)
        else:
            assert np.array_equal(_scored_thetas(scores, table), thetas)


def _counted(monkeypatch, name):
    calls = []
    real = getattr(wedgelet, name)
    monkeypatch.setattr(wedgelet, name,
                        lambda *args, **kw: calls.append(name) or real(*args, **kw))
    return calls


def test_exact_ties_take_the_projected_thetas(monkeypatch):
    f = _image("petals", 128)
    solves = _counted(monkeypatch, "_solve")
    quantizes = _counted(monkeypatch, "_quantize")
    code, err, reached = encode_to_target(f, 7, 7, M_CAP, TARGET)
    # five probes hold a theta / eta of exactly k + 1/2; their scored thetas
    # equal the projected ones bit for bit, so nothing solves
    assert solves == []
    assert len(quantizes) == 1
    ref_code, ref_err, ref_reached = _reference_encode_to_target(f, 7, 7, M_CAP, TARGET)
    assert code.to_bytes() == ref_code.to_bytes()
    assert (err, reached) == (ref_err, ref_reached)


def test_a_noise_image_matches_the_reference_bisection():
    f = _image("noise", 64)
    code, err, reached = encode_to_target(f, 6, 6, M_CAP, TARGET)
    ref_code, ref_err, ref_reached = _reference_encode_to_target(f, 6, 6, M_CAP, TARGET)
    assert code.to_bytes() == ref_code.to_bytes()
    assert err == ref_err
    assert reached is ref_reached is True


def test_the_range_error_comes_at_the_same_probe(monkeypatch):
    # fine leaves hold small thetas, but the whole square's is its mean, 1.7
    f = np.random.default_rng(5).uniform(1.5, 1.9, (32, 32))
    with pytest.raises(RangeError) as ref:
        _reference_encode_to_target(f, 5, 5, M_CAP, TARGET)
    lams = []
    prune = wedgelet._prune
    monkeypatch.setattr(wedgelet, "_prune", lambda scores, lam: lams.append(lam)
                        or prune(scores, lam))
    with pytest.raises(RangeError) as got:
        encode_to_target(f, 5, 5, M_CAP, TARGET)
    assert str(got.value) == str(ref.value)
    assert lams == [0.0, 0.5]  # lambda = 0 meets the target, 1/2 prunes to the root
    with pytest.raises(RangeError):
        encode(f, 5, 5, M_CAP, 0.5)


@pytest.mark.parametrize("lam", [2.0 ** -12, 2.0 ** -8])
def test_a_target_equal_to_a_probe_error_is_decided_by_its_decode(lam):
    f = _image("disc", 64)
    # the probes at this penalty meet the target exactly, and their closed
    # form reads an error above it in the last bits
    code = encode(f, 6, 6, M_CAP, lam)
    eps = math.sqrt(np.mean((decode(code) - f) ** 2))
    got = encode_to_target(f, 6, 6, M_CAP, eps)
    ref = _reference_encode_to_target(f, 6, 6, M_CAP, eps)
    assert got[0].to_bytes() == ref[0].to_bytes()
    assert got[1:] == ref[1:] == (eps, True)


def test_the_encoder_builds_no_leaf_object(monkeypatch):
    calls = Counter()
    for owner, attr in ((wedgelet.Edgelet, "from_local_index"), (wedgelet._Leaves, "of")):
        real = owner.__dict__[attr].__func__
        monkeypatch.setattr(owner, attr, classmethod(
            lambda cls, *args, real=real, attr=attr: calls.update([attr]) or real(cls, *args)))
    real_leaves = wedgelet._Leaves.leaves
    monkeypatch.setattr(wedgelet._Leaves, "leaves",
                        lambda self: calls.update(["leaves"]) or real_leaves(self))
    f = _image("petals", 128)
    solves = _counted(monkeypatch, "_solve")
    encode(f, 7, 7, M_CAP, 128.0 ** -3)
    assert encode_to_target(f, 7, 7, M_CAP, TARGET)[2]
    # neither encode nor the five probes with exact ties solves
    assert solves == []
    assert calls == Counter()


@pytest.mark.parametrize("name", ["disc", "petals", "noise"])
def test_a_fixed_penalty_encode_draws_no_mask(name, monkeypatch):
    f = _image(name, 64)
    masks = _counted(monkeypatch, "_split_masks")
    code = encode(f, 6, 6, M_CAP, 64.0 ** -3)
    assert masks == []
    assert any(leaf.split is not None for leaf, _ in code.records)


def _nearest_half_toward_zero(x: float) -> int:
    """The integer nearest x, .5 ties toward zero, from |x|'s whole and
    fractional parts (both exact in floating point)."""
    whole = math.floor(abs(x))
    return int(math.copysign(whole + (abs(x) - whole > 0.5), x))


@pytest.mark.parametrize("name", ["disc", "petals", "petals_ss5", "noise"])
@pytest.mark.parametrize("J", [6, 7])
def test_encode_keeps_the_rounded_thetas_of_the_public_fit(name, J):
    f = _image(name, 1 << J)
    eta = 1.0 / (1 << 2 * J)
    for lam in (0.0, 2.0 ** (-3 * J), 1e-4):
        partition = fit_rdp(f, J, J, M_CAP, lam)
        qs = [_nearest_half_toward_zero(theta / eta) for theta in project(f, partition).thetas]
        expect = [(leaf, q) for leaf, q in zip(partition.leaves, qs) if q != 0]
        assert list(encode(f, J, J, M_CAP, lam).records) == expect


@pytest.mark.parametrize("lam, calls", [(2.0 ** -12, 1), (2.0 ** -8, 1)])
def test_a_table_is_realized_once_in_a_row(lam, calls, monkeypatch):
    # before the last realized table was kept, these targets realized the
    # same final table 6 and 7 times
    f = _image("disc", 64)
    code = encode(f, 6, 6, M_CAP, lam)
    eps = math.sqrt(np.mean((decode(code) - f) ** 2))
    ref = _reference_encode_to_target(f, 6, 6, M_CAP, eps)
    tables = []
    realize = wedgelet._realize
    monkeypatch.setattr(wedgelet, "_realize", lambda f, scores, table: tables.append(table)
                        or realize(f, scores, table))
    got = encode_to_target(f, 6, 6, M_CAP, eps)
    assert got[0].to_bytes() == ref[0].to_bytes() and got[1:] == ref[1:]
    assert not any(wedgelet._same_table(a, b) for a, b in zip(tables, tables[1:]))
    assert len(tables) == calls
