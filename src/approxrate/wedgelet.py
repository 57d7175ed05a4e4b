"""Edgelet dictionary, quadtree fitting, and the bit-exact wedge codec.

Arrays are n x n pixel averages on [0,1]^2 (row i is the y-band
[i/n, (i+1)/n)).  A partition leaf is a dyadic square or one side of an
edgelet-split square; masks are per-pixel inside fractions computed from a
deterministic 4 x 4 stratified sampler, so streams decode without extra
context.

A split mask is drawn in the unit square's coordinates and depends only on
the scale, M_j and the edgelet, never on where its square sits, so the
fit, the projection and the decoder all see the same mask.  When M_cap is a
power of two the vertices and samples are dyadic and every side test is
exact; otherwise the vertices are rounded, but the same way everywhere.
The fit therefore renders the masks of each (M_j, block size) once per
process and scores every image against that cached, compact dictionary;
the encoder rounds the coefficients the scores keep, drawing no mask.
``project`` and ``decode`` take their masks and Grams from the same
dictionary and handle a whole quadtree scale at a time; where an entry is
not built yet, they draw only the edgelets their leaves name, with the
same code.  Only ``wedge_mask`` draws a mask by itself.
"""

from __future__ import annotations

import math
import struct
import weakref
from dataclasses import FrozenInstanceError, dataclass
from functools import cached_property, lru_cache
from math import comb

import numpy as np

from .exceptions import (
    CorruptionError,
    DegenerateWedgeError,
    DomainError,
    FormatError,
    InputShapeError,
    RangeError,
    array,
    instance,
    integer,
    real,
    sequence,
)

__all__ = [
    "DyadicSquare",
    "Edgelet",
    "EdRdpLeaf",
    "EdRdp",
    "WedgeCode",
    "DEFAULT_M_CAP",
    "CODEC_SUPERSAMPLE",
    "WEDGE_FORMAT_VERSION",
    "vertex_budget",
    "wedge_mask",
    "project",
    "fit_rdp",
    "encode",
    "decode",
    "encode_to_target",
]

DEFAULT_M_CAP = 32
CODEC_SUPERSAMPLE = 4
WEDGE_FORMAT_VERSION = 1
_MAGIC = b"WDGL"
_HEADER_BYTES = 13  # magic, then version, J, K, M_cap and record count
_MAX_J = 12  # n = 4096: a decoded image takes 128 MiB
_SWEEPS = 16  # bisection steps of encode_to_target
_SAMPLES = CODEC_SUPERSAMPLE * CODEC_SUPERSAMPLE  # mask samples per pixel
_DENSE_MAX = 8  # blocks up to this size keep their split masks dense
_CHUNK = 1 << 16  # elements per temporary while scoring


@dataclass(frozen=True)
class DyadicSquare:
    """Square [ix, ix+1] x [iy, iy+1] in units of 2^-j."""

    j: int
    ix: int
    iy: int

    def __post_init__(self):
        j = integer(self.j, 0, _MAX_J, InputShapeError, "square scale j")
        integer(self.ix, 0, (1 << j) - 1, InputShapeError, "square ix")
        integer(self.iy, 0, (1 << j) - 1, InputShapeError, "square iy")

    @property
    def side(self):
        return 2.0 ** (-self.j)

    @property
    def x0(self):
        return self.ix * self.side

    @property
    def y0(self):
        return self.iy * self.side

    def children(self):
        return [DyadicSquare(self.j + 1, 2 * self.ix + dx, 2 * self.iy + dy)
                for dy in (0, 1) for dx in (0, 1)]


def vertex_budget(j: int, J: int, K: int, m_cap: int = DEFAULT_M_CAP) -> int:
    """Boundary vertex count M_j = min(4 * 2^(J+K-j), m_cap): J in
    0.._MAX_J, K in 0..255, j in 0..J and M_cap a multiple of 4 and at
    least 4 (``FormatError``)."""
    J = integer(J, 0, _MAX_J, FormatError, "J")
    K = integer(K, 0, 0xFF, FormatError, "K")
    j = integer(j, 0, J, FormatError, "j")
    if integer(m_cap, 4, None, FormatError, "M_cap") % 4:
        raise FormatError("M_cap must be a multiple of 4 and at least 4")
    return min(4 * (1 << (J + K - j)), m_cap)


def _perimeter_point(square: DyadicSquare, t: float):
    """Clockwise perimeter position from the upper-left corner, t in [0, 4*side)."""
    side = square.side
    x0, y0 = square.x0, square.y0
    x1, y1 = x0 + side, y0 + side
    e, r = divmod(t, side)
    if e == 0:
        return (x0 + r, y1)
    if e == 1:
        return (x1, y1 - r)
    if e == 2:
        return (x1 - r, y0)
    return (x0, y0 + r)


def _vertex_edge_ids(index: int, m_j: int):
    """Which closed square edges (0..3) the vertex with this index lies on."""
    per_edge = m_j // 4
    edge, pos = divmod(index, per_edge)
    return {edge, (edge - 1) % 4} if pos == 0 else {edge}


def _is_degenerate(v1: int, v2: int, m_j: int) -> bool:
    """True when both vertices share a square edge (zero-area side)."""
    return bool(_vertex_edge_ids(v1, m_j) & _vertex_edge_ids(v2, m_j))


@dataclass(frozen=True)
class Edgelet:
    """Segment between two boundary vertices of a dyadic square."""

    square: DyadicSquare
    v1: int
    v2: int
    m_count: int

    def __post_init__(self):
        instance(self.square, DyadicSquare, InputShapeError, "edgelet square")
        m_j = integer(self.m_count, 2, 0xFFFF, InputShapeError, "edgelet M_j")
        v2 = integer(self.v2, 1, m_j - 1, InputShapeError, "edgelet v2")
        integer(self.v1, 0, v2 - 1, InputShapeError, "edgelet v1")

    @property
    def local_index(self):
        """Colex rank of (v1, v2) among all vertex pairs."""
        return self.v2 * (self.v2 - 1) // 2 + self.v1

    @classmethod
    def from_local_index(cls, square, idx, m_count):
        idx = integer(idx, 0, None, InputShapeError, "edgelet index")
        return cls(square, *_vertex_pair(idx), m_count)


def _vertex_pair(idx: int):
    """(v1, v2) of the vertex pair with colex rank idx."""
    v2 = (1 + math.isqrt(1 + 8 * idx)) // 2
    while v2 * (v2 - 1) // 2 > idx:
        v2 -= 1
    return idx - v2 * (v2 - 1) // 2, v2


@dataclass(frozen=True)
class EdRdpLeaf:
    """Unsplit square (split is None) or one side of a split square."""

    square: DyadicSquare
    split: tuple | None = None  # (Edgelet, side bit)

    def __post_init__(self):
        # the split is checked where a code or partition reads it
        # (``_Leaves.of``), so a leaf its header cannot carry still exists
        instance(self.square, DyadicSquare, FormatError, "leaf square")

    @property
    def edgelet(self):
        return None if self.split is None else self.split[0]

    @property
    def side(self):
        return None if self.split is None else self.split[1]


@dataclass(frozen=True)
class EdRdp:
    """Edgelet-decorated recursive dyadic partition of [0,1]^2."""

    leaves: tuple
    n: int
    K: int
    m_cap: int

    def __post_init__(self):
        # n, K and M_cap are checked where the leaves are read
        leaves = sequence(self.leaves, FormatError, "leaves")
        for leaf in leaves:
            instance(leaf, EdRdpLeaf, FormatError, "leaf")
        object.__setattr__(self, "leaves", leaves)

    @property
    def J(self):
        return _pixel_scale(self.n)

    def validate(self):
        """Quadtree structural check: leaves tile the unit square.

        Every leaf must pass the codec's leaf check, leaves may overlap only
        as the two sides of one edgelet on one square, every split leaf
        needs its other side, and the leaves' areas, each square counted
        once, must sum to 1; anything else is a ``FormatError``.
        """
        table = _Leaves.of(self.leaves, self.n, self.K, self.m_cap)
        table.pairs()
        once = table.side == 0  # unsplit, or side 0 of a pair
        if (1 << 2 * (table.J - table.j[once])).sum() != 1 << 2 * table.J:
            raise FormatError("leaves do not cover the unit square")
        return True


def _sample_offsets(s: int):
    return (np.arange(s) + 0.5) / s


_UNIT_SQUARE = DyadicSquare(0, 0, 0)


def _side0_fractions(m_j: int, v1: int, v2: int, size: int):
    """Side-0 inside fraction per pixel of a size x size split square.

    The edgelet joins vertices v1 and v2 of the m_j vertices on the unit
    square's perimeter, and the block's pixels are 1/size wide, so the
    mask is the same for every square of a scale.  Side 0 is the
    counter-clockwise (left) side of v1 -> v2, with on-line samples
    assigned to side 1.  Pixels the line misses are whole; only the
    straddled ones are sampled.
    """
    spacing = 4.0 / m_j
    x1, y1 = _perimeter_point(_UNIT_SQUARE, v1 * spacing)
    x2, y2 = _perimeter_point(_UNIT_SQUARE, v2 * spacing)
    dx, dy = x2 - x1, y2 - y1

    def cross(x, y):
        return dx * (y - y1) - dy * (x - x1)

    px = 1.0 / size
    grid = np.arange(size + 1) * px
    corner = cross(grid[None, :], grid[:, None])  # (size+1, size+1)
    c00 = corner[:-1, :-1]
    c01 = corner[:-1, 1:]
    c10 = corner[1:, :-1]
    c11 = corner[1:, 1:]
    cmin = np.minimum(np.minimum(c00, c01), np.minimum(c10, c11))
    cmax = np.maximum(np.maximum(c00, c01), np.maximum(c10, c11))
    frac = np.zeros((size, size))
    frac[cmin > 0.0] = 1.0
    straddle = (cmin <= 0.0) & (cmax > 0.0)
    rr, cc = np.nonzero(straddle)
    if rr.size:
        s = CODEC_SUPERSAMPLE
        off = _sample_offsets(s) * px
        sx = cc[:, None, None] * px + off[None, None, :]
        sy = rr[:, None, None] * px + off[None, :, None]
        inside = cross(sx, sy) > 0.0
        frac[rr, cc] = inside.sum(axis=(1, 2)) / (s * s)
    return frac


def _pair_gram(frac0, norm: float):
    """(g00, g01, g11, det) of the masks frac0 and 1 - frac0, or None.

    None marks a pair whose 2x2 normal equations cannot be solved: a side
    with no samples, or masks too close to parallel.  Each sum is a
    multiple of 2^-8 below 2^17, hence exact in any summation order.
    """
    sum0 = float(np.sum(frac0))
    g00 = float(np.sum(frac0 * frac0))
    g01 = (sum0 - g00) * norm
    g11 = (frac0.size - 2.0 * sum0 + g00) * norm
    g00 *= norm
    det = g00 * g11 - g01 * g01
    if g00 <= 0.0 or g11 <= 0.0 or det <= 1e-30:
        return None
    return g00, g01, g11, det


def _pixel_scale(n: int) -> int:
    """J of an n x n pixel grid; n must be an integer power of two, at most
    2^_MAX_J."""
    n = integer(n, None, 1 << _MAX_J, FormatError, "n")
    if n < 1 or (n & (n - 1)) != 0:
        raise FormatError("n must be a power of two")
    return n.bit_length() - 1


def wedge_mask(leaf: EdRdpLeaf, n: int):
    """Per-pixel average of the leaf's indicator as a full n x n array.

    Drawn by the renderer itself rather than read from the edgelet
    dictionary, so it is an independent check on the codec's masks.
    """
    sq = instance(leaf, EdRdpLeaf, FormatError, "leaf").square
    if sq.j > _pixel_scale(n):
        raise InputShapeError("leaf square finer than the pixel grid")
    size = n >> sq.j
    if leaf.split is None:
        block = np.ones((size, size))
    else:
        edge, side = leaf.split
        if _is_degenerate(edge.v1, edge.v2, edge.m_count):
            raise DegenerateWedgeError(
                f"edgelet ({edge.v1},{edge.v2}) runs along the square boundary")
        frac0 = _side0_fractions(edge.m_count, edge.v1, edge.v2, size)
        block = frac0 if side == 0 else 1.0 - frac0
    out = np.zeros((n, n))
    out[sq.iy * size:(sq.iy + 1) * size, sq.ix * size:(sq.ix + 1) * size] = block
    return out


@dataclass(frozen=True)
class Projection:
    """Least-squares fit of an array onto a partition's masks."""

    leaves: tuple
    coefficients: tuple  # f_P per leaf (raw mask units)
    thetas: tuple  # coefficients in normalized-mask units
    reconstruction: np.ndarray


@dataclass(frozen=True)
class _Leaves:
    """Leaves as int64 columns: square (j, ix, iy), then for a split leaf
    its edgelet's local index and side (-1 and 0 when unsplit).  Every
    edgelet of scale j has the vertex budget ``budgets[j]``."""

    J: int
    budgets: tuple
    j: np.ndarray
    ix: np.ndarray
    iy: np.ndarray
    local: np.ndarray
    side: np.ndarray

    @classmethod
    def of(cls, leaves, n: int, K: int, m_cap: int) -> "_Leaves":
        """The table of ``leaves`` on an n x n grid; the one leaf check.

        A header no stream can carry, a square finer than the pixel grid, a
        side other than 0 or 1, or an edgelet on another square or with
        another budget than its scale's M_j is a ``FormatError``.
        """
        J = _pixel_scale(n)
        budgets = _budgets(J, K, m_cap)
        rows = []
        for leaf in leaves:
            sq, split = leaf.square, leaf.split
            if sq.j > J:
                raise FormatError("leaf square finer than the pixel grid")
            if split is None:
                rows.append((sq.j, sq.ix, sq.iy, -1, 0))
                continue
            edge, side = sequence(split, FormatError, "split")
            instance(edge, Edgelet, FormatError, "edgelet")
            side = integer(side, 0, 1, FormatError, "side of a split leaf")
            # the fit and the reader hand the edgelet its leaf's own square
            if edge.square is not sq and edge.square != sq \
                    or edge.m_count != budgets[sq.j]:
                raise FormatError("edgelet of another square or vertex budget")
            rows.append((sq.j, sq.ix, sq.iy, edge.local_index, side))
        cols = np.array(rows, dtype=np.int64).reshape(-1, 5).T
        return cls(J, budgets, *cols)

    def leaves(self) -> tuple:
        """The rows as ``EdRdpLeaf`` objects: a square per row, and an
        edgelet per split row."""
        leaves = []
        cols = (self.j, self.ix, self.iy, self.local, self.side)
        for j, ix, iy, local, side in zip(*(col.tolist() for col in cols)):
            sq = DyadicSquare(j, ix, iy)
            leaves.append(EdRdpLeaf(sq, None) if local < 0 else EdRdpLeaf(
                sq, (Edgelet.from_local_index(sq, local, self.budgets[j]), side)))
        return tuple(leaves)

    def take(self, rows) -> "_Leaves":
        """The table of the leaves ``rows``, an index or a mask."""
        return _Leaves(self.J, self.budgets, self.j[rows], self.ix[rows], self.iy[rows],
                       self.local[rows], self.side[rows])

    def partners(self):
        """Index of the leaf on the other side of each leaf's square, or -1.

        Leaves may overlap only as sides 0 and 1 of one edgelet on one
        square; any other overlap, a square inside another included, is a
        ``CorruptionError``.  Each square is a run of Z-order codes at the
        pixel scale, so sorting by its first code puts every overlap
        between neighbours.
        """
        shift = self.J - self.j
        start = _zorder(self.ix << shift, self.iy << shift)
        order = np.lexsort((self.side, self.j, start))
        a, b = order[:-1], order[1:]
        overlap = start[b] < start[a] + (1 << 2 * shift[a])
        pair = overlap & (self.j[a] == self.j[b]) & (self.local[a] >= 0) \
            & (self.local[a] == self.local[b]) & (self.side[a] < self.side[b])
        if np.any(overlap & ~pair):
            raise CorruptionError("overlapping leaves")
        partner = np.full(self.j.size, -1)
        partner[a[pair]], partner[b[pair]] = b[pair], a[pair]
        return partner

    def pairs(self):
        """``partners``, where a split leaf without its other side is a
        ``FormatError``."""
        partner = self.partners()
        if np.any((self.local >= 0) & (partner < 0)):
            raise FormatError("a split square needs both sides of one edgelet")
        return partner

    def scales(self):
        """(j, indices of its unsplit leaves, indices of its split leaves)."""
        for j in np.unique(self.j):
            at = self.j == j
            yield (int(j), np.flatnonzero(at & (self.local < 0)),
                   np.flatnonzero(at & (self.local >= 0)))

    def windows(self, idx):
        """Index of the squares of leaves ``idx``, all of one scale, in
        that scale's tile view."""
        return self.iy[idx], slice(None), self.ix[idx], slice(None)


def _spread(bits: int):
    """x with its bit b moved to bit 2b, for every x below 2^bits."""
    x = np.arange(1 << bits)
    out = np.zeros_like(x)
    for b in range(bits):
        out |= ((x >> b) & 1) << 2 * b
    return out


_SPREAD = _spread(_MAX_J)


def _zorder(x, y):
    """Z-order code of the cells (x, y) of a grid at most 2^_MAX_J wide:
    the bits of x and y interleaved, x's lowest first."""
    return _SPREAD[x] | _SPREAD[y] << 1


def _tiles(arr, j: int):
    """(2^j, size, 2^j, size) view of an n x n array: square (ix, iy) of
    scale j is ``[iy, :, ix, :]``."""
    size = arr.shape[0] >> j
    return arr.reshape(1 << j, size, 1 << j, size)


def project(f_array, partition: EdRdp):
    """Exact least-squares projection of ``f_array`` onto the leaf masks.

    Masks of distinct squares have disjoint pixel support; the two sides
    of one split square share the pixels the edgelet crosses, so those
    pairs are solved through their 2x2 normal equations.  A leaf the
    stream could not carry (see ``_Leaves.of``) or a split leaf without
    its other side is a ``FormatError``; any other overlap is a
    ``CorruptionError``.  A whole scale is solved at once, with masks and
    Grams from the edgelet dictionary.
    """
    instance(partition, EdRdp, FormatError, "partition")
    f = array(f_array, (partition.n,) * 2, (InputShapeError, DomainError), "a {}x{} array")
    table = _Leaves.of(partition.leaves, partition.n, partition.K, partition.m_cap)
    recon = np.zeros((partition.n, partition.n))  # C order: its tiles are views
    coefs, thetas = _solve(f, table, table.pairs(), recon)
    return Projection(partition.leaves, tuple(coefs.tolist()), tuple(thetas.tolist()),
                      recon)


def _solve(f, table, partner, recon):
    """(coefficients, thetas) of the projection of f onto a checked table
    whose split leaves all have their ``partner``, added into ``recon``;
    ``project``'s solve, kept apart from the scores the encoder rounds."""
    n = f.shape[0]
    norm = 1.0 / (n * n)
    v = np.zeros(partner.size)
    coefs = np.zeros(partner.size)
    thetas = np.zeros(partner.size)
    for j, whole, cut in table.scales():
        size = n >> j
        tiles = _tiles(f, j)
        if whole.size:
            g = size * size * norm
            v[whole] = tiles[table.windows(whole)].sum(axis=(1, 2)) * norm
            coefs[whole], thetas[whole] = v[whole] / g, v[whole] / np.sqrt(g)
            np.add.at(_tiles(recon, j), table.windows(whole), coefs[whole, None, None])
        if not cut.size:
            continue
        masks, grams = _split_masks(table, j, cut)
        v[cut] = np.einsum("kij,kij->k", tiles[table.windows(cut)], masks) * norm
        # the other side of a pair lies in the same square, so in this scale
        coefs[cut], thetas[cut] = _pair_solve(v[cut], v[partner[cut]], grams, norm)
        masks *= coefs[cut, None, None]
        np.add.at(_tiles(recon, j), table.windows(cut), masks)
    return coefs, thetas


def _pair_solve(v, v_other, grams, norm: float):
    """(coefficient, theta) of each split leaf from its inner product v and
    its other side's, through the pair's 2x2 normal equations.

    ``grams`` holds per leaf (g, g_other, g01, det) at norm 1, as
    ``_split_masks`` orders them; the one pair solve of ``project`` and
    of ``_score``.
    """
    g, g_other, g01, det = grams
    coef = (g_other * norm * v - g01 * norm * v_other) / (det * (norm * norm))
    return coef, coef * np.sqrt(g * norm)


def _valid_edgelets(m_j: int):
    """Local indices and vertex pairs excluding boundary-collinear pairs."""
    out = []
    for v2 in range(1, m_j):
        for v1 in range(v2):
            if not _is_degenerate(v1, v2, m_j):
                out.append((v2 * (v2 - 1) // 2 + v1, v1, v2))
    return out


@dataclass(frozen=True)
class _Masks:
    """Every valid split mask of one (M_j, block size), in compact form.

    ``local`` holds the ascending local indices of the edgelets whose pair
    is not degenerate, and ``g00, g01, g11, det`` their pair Grams at
    norm = 1.  A mask is stored as the number of its pixel's 16 samples
    that fall on side 0.  Up to ``_DENSE_MAX`` the masks are the columns of
    ``dense``, (size^2, E).  Above it, row r of edgelet e's mask is whole
    on the columns ``run_lo[e, r] <= c < run_hi[e, r]``, and its other
    nonzero pixels are ``st_pix[st_start[e]:st_start[e + 1]]`` (flat index
    r * size + c) with counts ``st_count``; an edgelet with no such pixel
    lists pixel 0 with count 0, so no segment is empty.  Every array is
    read-only.
    """

    size: int
    local: np.ndarray
    g00: np.ndarray
    g01: np.ndarray
    g11: np.ndarray
    det: np.ndarray
    dense: np.ndarray | None = None
    run_lo: np.ndarray | None = None
    run_hi: np.ndarray | None = None
    st_start: np.ndarray | None = None
    st_pix: np.ndarray | None = None
    st_count: np.ndarray | None = None


def _frozen(values, dtype):
    arr = np.asarray(values, dtype=dtype)
    arr.flags.writeable = False
    return arr


# the dictionary entries alive in this process, so that a decode can use
# one without building it
_BUILT = weakref.WeakValueDictionary()


@lru_cache(maxsize=64)  # one run of n = 256 at M_cap = 32 uses 8 entries
def _dictionary(m_j: int, size: int) -> _Masks:
    """Render the split masks of (m_j, size) once per process.

    Masks are position-free, so every square of this block size and vertex
    budget, in every image and at every J, shares the entry.
    """
    entry = _render(m_j, size, _valid_edgelets(m_j))
    _BUILT[m_j, size] = entry
    return entry


def _render(m_j: int, size: int, edgelets) -> _Masks:
    """The entry of (m_j, size) restricted to ``edgelets``, ascending
    (local index, v1, v2) triples of non-degenerate pairs.

    Each mask is compacted as soon as it is drawn, so a scale is never
    held as dense float masks.  When a row's whole pixels are not one run,
    those after its first run are listed with a full count: the entry is
    exact.
    """
    cols = np.arange(size)
    pix_type = np.uint16 if size * size <= 1 << 16 else np.int32
    local, grams, columns = [], [], []
    run_lo, run_hi, st_start, st_pix, st_count = [], [], [0], [], []
    for idx, v1, v2 in edgelets:
        frac0 = _side0_fractions(m_j, v1, v2, size)
        gram = _pair_gram(frac0, 1.0)
        if gram is None:
            continue
        local.append(idx)
        grams.append(gram)
        counts = (frac0 * _SAMPLES).astype(np.uint8)  # exact: k / 16
        if size <= _DENSE_MAX:
            columns.append(counts.ravel())
            continue
        whole = counts == _SAMPLES
        lo = np.argmax(whole, axis=1)  # first whole pixel of the row, or 0
        after = ~whole & (cols >= lo[:, None])
        hi = np.where(after.any(axis=1), np.argmax(after, axis=1), size)
        counts[(cols >= lo[:, None]) & (cols < hi[:, None])] = 0
        pix = np.flatnonzero(counts).astype(pix_type)
        if not pix.size:
            pix = np.zeros(1, pix_type)
        run_lo.append(lo.astype(np.uint16))
        run_hi.append(hi.astype(np.uint16))
        st_pix.append(pix)
        st_count.append(counts.ravel()[pix])
        st_start.append(st_start[-1] + pix.size)
    # an entry may hold no edgelet: at size 1 every pair has det = 0
    g00, g01, g11, det = (_frozen(col, np.float64)
                          for col in np.reshape(grams, (-1, 4)).T)
    if size <= _DENSE_MAX:
        dense = np.reshape(np.asarray(columns, np.uint8), (-1, size * size))
        compact = {"dense": _frozen(np.ascontiguousarray(dense.T), np.uint8)}
    else:
        compact = {"run_lo": _frozen(np.reshape(run_lo, (-1, size)), np.uint16),
                   "run_hi": _frozen(np.reshape(run_hi, (-1, size)), np.uint16),
                   "st_start": _frozen(st_start, np.int32),
                   "st_pix": _frozen(np.concatenate([np.zeros(0, pix_type), *st_pix]),
                                     pix_type),
                   "st_count": _frozen(np.concatenate([np.zeros(0, np.uint8), *st_count]),
                                       np.uint8)}
    return _Masks(size, _frozen(local, np.int32), g00, g01, g11, det, **compact)


def _expand(masks: _Masks, pos):
    """Side-0 fractions (k, size, size) of the dictionary entries ``pos``.

    Every value is a sample count over 16, so the expansion is exact.
    """
    size = masks.size
    if masks.dense is not None:
        return (masks.dense[:, pos].T / _SAMPLES).reshape(-1, size, size)
    cols = np.arange(size)
    out = (cols >= masks.run_lo[pos][:, :, None]) & (cols < masks.run_hi[pos][:, :, None])
    out = out.reshape(pos.size, -1).astype(float)
    lo, hi = masks.st_start[pos], masks.st_start[pos + 1]
    count = hi - lo
    at = np.arange(count.sum()) + np.repeat(lo - np.cumsum(count) + count, count)
    # listed pixels lie outside the runs (the placeholder's count is 0)
    out[np.repeat(np.arange(pos.size), count), masks.st_pix[at]] += \
        masks.st_count[at] / _SAMPLES
    return out.reshape(-1, size, size)


def _entry(m_j: int, size: int, named):
    """A dictionary entry of (m_j, size) that holds the edgelets ``named``
    (ascending local indices) unless they are degenerate.

    The whole entry when it is built already, or when the named edgelets
    are a quarter of all pairs; else only the named ones, drawn by the
    same code, so the work grows with the named edgelets and not with m_j.
    """
    entry = _BUILT.get((m_j, size))
    if entry is not None:
        return entry
    if 4 * named.size >= comb(m_j, 2):
        return _dictionary(m_j, size)
    edgelets = [(idx, *_vertex_pair(idx)) for idx in named.tolist()]
    return _render(m_j, size, [e for e in edgelets if not _is_degenerate(e[1], e[2], m_j)])


def _split_masks(table, j: int, sel):
    """Masks (k, size, size) of the split leaves ``sel``, all of scale j,
    and their Grams.

    One dictionary entry holds them all.  The Grams, at norm 1, are per
    leaf (g, g_other, g01, det): its own mask's, the other side's, their
    cross term and the pair determinant.  A pair missing from the entry
    is degenerate or runs along the square's boundary.
    """
    local = table.local[sel]
    entry = _entry(table.budgets[j], 1 << (table.J - j), np.unique(local))
    pos = np.searchsorted(entry.local, local)
    if np.any(pos == entry.local.size) or np.any(entry.local[pos] != local):
        raise DegenerateWedgeError("degenerate wedge pair")
    masks = _expand(entry, pos)
    side1 = table.side[sel] == 1
    masks[side1] = 1.0 - masks[side1]
    g00, g11 = entry.g00[pos], entry.g11[pos]
    return masks, (np.where(side1, g11, g00), np.where(side1, g00, g11),
                   entry.g01[pos], entry.det[pos])


def _split_winners(blocks, sums, sumsq, masks: _Masks, norm: float):
    """(smallest two-wedge squared error, position in ``masks`` of its
    edgelet, that edgelet's side-0 inner product v0) per square.

    ``blocks`` is (squares, size^2).  v0, in norm units, comes from one
    BLAS product for dense masks, else from row prefix sums over the runs
    plus the other pixels' counted terms.  Squares go in chunks so that no
    temporary is much larger than ``_CHUNK`` elements, and every chunk
    works in one block taken once per call.  Ties go to the smaller local
    index.

    The one block keeps a warm process from faulting pages in on every
    call: glibc gives freed memory at the top of its heap back to the
    system once it exceeds twice the largest block freed so far, which a
    few chunk-sized temporaries per chunk did (about 2 300 page faults per
    n = 128 target encode, unless something larger had been freed before).
    """
    nsq = blocks.shape[0]
    size = masks.size
    n_edge = masks.local.size
    # norm is a power of two, so these equal _pair_gram(frac0, norm)
    g00, g01, g11 = masks.g00 * norm, masks.g01 * norm, masks.g11 * norm
    two_g01 = 2.0 * g01
    det = masks.det * (norm * norm)
    if masks.dense is None:
        offsets = np.arange(size) * (size + 1)
        hi = (masks.run_hi + offsets).ravel()
        lo = (masks.run_lo + offsets).ravel()
        pix = masks.st_pix.astype(np.intp)
        starts = masks.st_start[:-1]
        width = max(n_edge * size, pix.size, size * (size + 1))
        wide = 3  # prefix sums, two run gathers (the second reused for counts)
    else:
        dense = masks.dense / _SAMPLES  # exact: the side-0 fractions
        width = max(n_edge, size * size)
        wide = 0
    chunk = max(1, _CHUNK // width)
    work = np.empty(min(chunk, nsq) * (4 * n_edge + wide * width))
    best = np.empty(nsq)
    best_pos = np.empty(nsq, dtype=np.int64)
    best_v0 = np.empty(nsq)
    for s0 in range(0, nsq, chunk):
        blk = blocks[s0:s0 + chunk]
        b = blk.shape[0]
        at = np.cumsum([0] + [b * n_edge] * 4 + [b * width] * wide)
        v0, v1, quad, tmp, *big = (work[i:k] for i, k in zip(at, at[1:]))
        v0, v1, quad, tmp = (a.reshape(b, n_edge) for a in (v0, v1, quad, tmp))
        if masks.dense is None:
            prefix = big[0][:b * size * (size + 1)].reshape(b, size, size + 1)
            prefix[:, :, 0] = 0.0
            np.cumsum(blk.reshape(-1, size, size), axis=2, out=prefix[:, :, 1:])
            prefix = prefix.reshape(b, -1)
            # indices are in range by construction; "clip" takes no buffer
            runs = big[1][:b * n_edge * size].reshape(b, -1)
            other = big[2][:b * n_edge * size].reshape(b, -1)
            np.take(prefix, hi, axis=1, out=runs, mode="clip")
            np.take(prefix, lo, axis=1, out=other, mode="clip")
            np.subtract(runs, other, out=runs)
            np.sum(runs.reshape(b, n_edge, size), axis=2, out=v0)
            counted = big[2][:b * pix.size].reshape(b, -1)
            np.take(blk, pix, axis=1, out=counted, mode="clip")
            counted *= masks.st_count
            np.add.reduceat(counted, starts, axis=1, out=tmp)
            tmp /= _SAMPLES
            v0 += tmp
        else:
            np.matmul(blk, dense, out=v0)
        v0 *= norm
        np.subtract(sums[s0:s0 + chunk, None] * norm, v0, out=v1)
        # quad = (g11 v0 v0 - 2 g01 v0 v1 + g00 v1 v1) / det, in that order
        np.multiply(g11, v0, out=quad)
        quad *= v0
        np.multiply(two_g01, v0, out=tmp)
        tmp *= v1
        quad -= tmp
        np.multiply(g00, v1, out=tmp)
        tmp *= v1
        quad += tmp
        quad /= det
        sse = np.subtract(sumsq[s0:s0 + chunk, None] * norm, quad, out=quad)
        arg = np.argmin(sse, axis=1)
        rows = np.arange(arg.size)
        best[s0:s0 + chunk] = sse[rows, arg]
        best_pos[s0:s0 + chunk] = arg
        best_v0[s0:s0 + chunk] = v0[rows, arg]
    return best, best_pos, best_v0


def _first(j):
    """Where scale j starts in an array flat over the scales 0, 1, ..."""
    return ((1 << 2 * j) - 1) // 3


@dataclass(frozen=True)
class _Scores:
    """Penalty-free costs and coefficients of every square of one image.

    Every array is flat over the scales: square i of scale j, at
    (ix, iy) = (i mod 2^j, i div 2^j), is entry ``_first(j) + i``.
    ``sse_whole`` is the squared error of the square kept whole,
    ``sse_split`` the smallest over its valid edgelet splits (inf at the
    pixel scale) and ``local`` that edgelet's local index (-1 when there
    is none).  ``theta`` is the coefficient of the square kept whole, and
    ``theta0`` and ``theta1`` those of sides 0 and 1 of its winning split,
    each in normalized-mask units as ``project`` gives them; ``cross`` is
    that split's mask cosine g01 / sqrt(g00 g11).  These thetas are the
    codec's one coefficient source: a pruned partition's leaves read theirs
    from here (see ``_rounded``).
    """

    J: int
    K: int
    m_cap: int
    sse_whole: np.ndarray
    sse_split: np.ndarray
    local: np.ndarray
    theta: np.ndarray
    theta0: np.ndarray
    theta1: np.ndarray
    cross: np.ndarray


def _constant_squares(f, J: int):
    """Per scale j < J, which squares are constant and their smallest pixel.

    Two flat arrays per scale, indexed iy * 2^j + ix, built coarse from
    fine: a square's extreme pixels are the extremes of its four children.
    """
    lo = hi = f
    out = []
    for _ in range(J):
        lo = np.minimum(np.minimum(lo[::2, ::2], lo[::2, 1::2]),
                        np.minimum(lo[1::2, ::2], lo[1::2, 1::2]))
        hi = np.maximum(np.maximum(hi[::2, ::2], hi[::2, 1::2]),
                        np.maximum(hi[1::2, ::2], hi[1::2, 1::2]))
        out.append(((lo == hi).ravel(), lo.ravel()))
    return out[::-1]


def _distinct_squares(const, value):
    """Which squares of a scale to score, and which scored one stands for each.

    Of the constant squares (``const``, with pixels equal to ``value``)
    only the first of each distinct value is scored: the others hold the
    same pixels, so they score the same.  (Zeros of either sign all score
    +0 at the first valid edgelet.)  Returns (rows, at): the ascending
    squares to score, and per square the position in ``rows`` of the one
    that stands for it.  When fewer than an eighth of the squares would
    drop out, the gather costs about what it saves, so both are
    ``slice(None)``: every square is scored, with no copy.
    """
    _, first, which = np.unique(value[const], return_index=True, return_inverse=True)
    stand = np.flatnonzero(const)[first]
    keep = ~const
    keep[stand] = True
    rows = np.flatnonzero(keep)
    if 8 * (const.size - rows.size) < const.size:
        return slice(None), slice(None)
    at = np.cumsum(keep) - 1
    at[const] = at[stand][which]
    return rows, at


def _score(f, J: int, K: int, m_cap: int) -> _Scores:
    """Score every square against the cached edgelet dictionary.

    Per square the edgelet with the smallest two-wedge squared error wins;
    ties go to the smaller local index.  The penalty plays no part, so one
    score serves every lambda.  Of the constant squares of a scale, one
    per distinct value is scored (see ``_distinct_squares``).  Each
    square also keeps its coefficients, kept whole and split by the
    winner, which the encoder rounds into any pruned partition's code
    (see ``_rounded``).
    """
    n = 1 << J
    norm = 1.0 / (n * n)
    constant = _constant_squares(f, J)
    total = _first(J + 1)
    sse_whole, theta = np.empty(total), np.empty(total)
    theta0, theta1, cross = np.zeros(total), np.zeros(total), np.zeros(total)
    sse_split = np.full(total, np.inf)
    local = np.full(total, -1, dtype=np.int64)
    for j in range(J + 1):
        size = 1 << (J - j)
        nsq = 1 << (2 * j)
        at = slice(_first(j), _first(j + 1))
        blocks = _tiles(f, j).transpose(0, 2, 1, 3)
        blocks = blocks.reshape(nsq, size, size)  # index = iy * 2^j + ix
        sums = blocks.sum(axis=(1, 2))
        sumsq = (blocks * blocks).sum(axis=(1, 2))
        sse_whole[at] = (sumsq - sums * sums / (size * size)) * norm
        theta[at] = np.ldexp(sums * norm, j)  # g = 4^-j, so this is v / sqrt(g) exactly
        if j == J:
            continue
        masks = _dictionary(vertex_budget(j, J, K, m_cap), size)
        rows, stand = _distinct_squares(*constant[j])
        best, pos, v0 = _split_winners(blocks.reshape(nsq, -1)[rows], sums[rows],
                                       sumsq[rows], masks, norm)
        pos, v0 = pos[stand], v0[stand]
        sse_split[at], local[at] = best[stand], masks.local[pos]
        g00, g01, g11, det = (g[pos] for g in (masks.g00, masks.g01, masks.g11, masks.det))
        v1 = sums * norm - v0
        theta0[at] = _pair_solve(v0, v1, (g00, g11, g01, det), norm)[1]
        theta1[at] = _pair_solve(v1, v0, (g11, g00, g01, det), norm)[1]
        cross[at] = g01 / np.sqrt(g00 * g11)
    return _Scores(J, K, m_cap, sse_whole, sse_split, local, theta, theta0, theta1, cross)


def _prune(scores: _Scores, lam: float) -> _Leaves:
    """Bottom-up leaf-versus-quad DP over scored squares at penalty lam.

    A leaf costs ``+lam``, an edgelet split ``+2 lam``.  Ties prefer the
    unsplit leaf over the split, then the leaf over the quad.  The leaves
    come back as a table, found top-down: a square is a leaf when the DP
    keeps it, whole or split, and every ancestor is a quad.  Rows are in
    stream order, that of a depth-first walk that visits the children
    (dx, dy) = (0, 0), (1, 0), (0, 1), (1, 1): by the Z-order code of the
    square at the pixel scale, then by side.
    """
    J = scores.J
    cut = np.empty(_first(J + 1), dtype=bool)  # split, if a leaf
    keep = [None] * (J + 1)  # a leaf rather than a quad
    best_cost = None
    for j in range(J, -1, -1):
        at = slice(_first(j), _first(j + 1))
        cost_leaf = scores.sse_whole[at] + lam
        cost_split = scores.sse_split[at] + 2.0 * lam
        use_split = np.less(cost_split, cost_leaf, out=cut[at])
        cost_leaf = np.where(use_split, cost_split, cost_leaf)  # tie -> unsplit
        if j < J:
            quad_cost = best_cost.reshape(1 << j, 2, 1 << j, 2).sum(axis=(1, 3)).reshape(-1)
            keep[j] = cost_leaf <= quad_cost  # tie -> leaf preferred
            best_cost = np.where(keep[j], cost_leaf, quad_cost)
        else:
            keep[j] = np.ones(cost_leaf.size, dtype=bool)
            best_cost = cost_leaf

    scale, index = [], []
    below = np.ones(1, dtype=bool)  # squares whose ancestors are all quads
    for j in range(J + 1):
        index.append(np.flatnonzero(below & keep[j]))
        scale.append(np.full(index[-1].size, j))
        below &= ~keep[j]
        if not below.any():
            break
        width = 1 << j
        below = below.reshape(width, 1, width, 1).repeat(2, axis=1).repeat(2, axis=3).ravel()
    j, index = np.concatenate(scale), np.concatenate(index)
    ix, iy, at = index & ((1 << j) - 1), index >> j, _first(j) + index
    order = np.argsort(_zorder(ix, iy) << 2 * (J - j))
    j, ix, iy, at = (col[order] for col in (j, ix, iy, at))
    local = np.where(cut[at], scores.local[at], -1)
    twice = 1 + (local >= 0)  # a split square has a row per side
    j, ix, iy, local = (np.repeat(col, twice) for col in (j, ix, iy, local))
    side = np.arange(j.size) - np.repeat(np.cumsum(twice) - twice, twice)
    return _Leaves(J, _budgets(J, scores.K, scores.m_cap), j, ix, iy, local, side)


def fit_rdp(f_array, J: int, K: int, m_cap: int = DEFAULT_M_CAP,
            lam: float = 0.0) -> EdRdp:
    """Globally optimal penalized fit over the capped edgelet dictionary.

    Bottom-up dynamic program minimizing squared L2 error plus
    ``lam * leaf_count``; per square the best edgelet split (both wedge
    coefficients fitted jointly) competes against staying a leaf and
    against the quad split.  The edgelet picked for each square is the one
    with the smallest squared error and does not depend on ``lam``.  Ties
    prefer smaller edgelet indices, then the unsplit leaf, then the leaf
    over the quad, so results are reproducible bit for bit.  The leaves
    are the rows of ``_fit``'s table, whose scored thetas ``encode`` rounds;
    ``project`` solves for the same partition's thetas by least squares.
    """
    return EdRdp(_fit(f_array, J, K, m_cap, lam)[1].leaves(), 1 << J, K, m_cap)


def _fit(f_array, J: int, K: int, m_cap: int, lam: float):
    """(the checked array's scores, the leaf table ``_prune`` keeps at lam)."""
    _layout(J, K, m_cap)  # a header no stream can carry is refused unfitted
    f = array(f_array, (1 << J,) * 2, (InputShapeError, DomainError), "a {}x{} array")
    lam = real(real(lam, -math.inf, math.inf, DomainError, "lambda"),
               0.0, math.inf, RangeError, "lambda")
    scores = _score(f, J, K, m_cap)
    return scores, _prune(scores, lam)


def fit_cost(f_array, partition: EdRdp, lam: float) -> float:
    """Penalized cost of a given partition (for cross-checking the DP)."""
    n = instance(partition, EdRdp, FormatError, "partition").n
    f = array(f_array, (n, n), (InputShapeError, DomainError), "a {}x{} array")
    proj = project(f, partition)
    norm = 1.0 / (n * n)
    sse = float(np.sum((f - proj.reconstruction) ** 2)) * norm
    return sse + lam * len(partition.leaves)


def _budgets(J: int, K: int, m_cap: int) -> tuple:
    """M_j for the scales j = 0..J of a stream with this header."""
    return tuple(m_j for m_j, _, _ in _layout(J, K, m_cap)[3])


@lru_cache(maxsize=64, typed=True)  # typed: 6.0 must not hit the entry of 6
def _layout(J: int, K: int, m_cap: int):
    """The field widths of a stream with this header.

    (scale width, coefficient width, coefficient offset n^2 + 1, splits),
    where splits[j] = (M_j, edgelet index width, pair count) for scales
    j = 0..J.  A header the stream cannot carry is a ``FormatError``: J, K
    or M_cap not an integer, J outside 0.._MAX_J, K outside a byte, or
    M_cap not a multiple of 4 in 4..65532.
    """
    J = integer(J, 0, _MAX_J, FormatError, "J")
    K = integer(K, 0, 0xFF, FormatError, "K")
    m_cap = integer(m_cap, None, 0xFFFF, FormatError, "M_cap")
    offset = (1 << 2 * J) + 1
    splits = []
    for j in range(J + 1):
        m_j = vertex_budget(j, J, K, m_cap)
        pairs = comb(m_j, 2)
        splits.append((m_j, (pairs - 1).bit_length(), pairs))
    return J.bit_length(), (2 * offset).bit_length(), offset, tuple(splits)


def _field_widths(J: int, K: int, m_cap: int, j, split):
    """The field widths of records of scales ``j`` and split flags ``split``
    in a stream with this header: one row per field (scale, ix, iy, split
    flag, edgelet index, side, coefficient), one column per record.  The
    index and side of an unsplit leaf are 0 bits wide; a record's width is
    its column's sum."""
    sbits, cbits, _, splits = _layout(J, K, m_cap)
    widths = np.empty((7, len(j)), np.int64)
    widths[0], widths[1], widths[2], widths[3] = sbits, j, j, 1
    widths[4] = np.array([width for _, width, _ in splits])[j] * split
    widths[5], widths[6] = split, cbits
    return widths


@lru_cache(maxsize=64)
def _record_widths(J: int, K: int, m_cap: int) -> tuple:
    """(unsplit, split) record widths at the scales j = 0..J, as lists."""
    j = np.arange(J + 1)
    return tuple(_field_widths(J, K, m_cap, j, np.full_like(j, split)).sum(axis=0).tolist()
                 for split in (0, 1))


def _theta_bound(eta: float) -> float:
    """The largest |theta| the coefficient alphabet holds, 1 + eta, with
    slack for rounding in the scores."""
    return 1.0 + eta + 1e-12


class WedgeCode:
    """Decoded header plus per-leaf records (leaf, integer coefficient q).

    theta = q / n^2; records with q = 0 are never stored.  The serialized
    layout is: magic 'WDGL', version byte, J byte, K byte, M_cap (2-byte
    little endian), record count (4-byte little endian), then per record
    [scale j][ix: j bits][iy: j bits][split flag][edgelet index][side]
    [coefficient field q + n^2 + 1], zero-padded to a byte boundary.

    A code keeps its records as a leaf table plus a q column, which
    ``decode``, ``to_bytes`` and ``bit_length`` read.  A code that
    ``from_bytes`` or the encoder makes holds only the table, and
    ``records`` is built from it the first time a caller reads it.  A code
    made from records gets its table once, when first used, through
    ``_Leaves.of`` and ``_coefficients``, the checks for records from
    outside.  Codes are immutable, and equal when their headers and
    records are.
    """

    def __init__(self, J: int, K: int, m_cap: int, records: tuple):
        # the header and records are checked when first used (``_table``)
        records = sequence(records, FormatError, "records")
        self.__dict__.update(J=J, K=K, m_cap=m_cap, records=records)

    @classmethod
    def _of_table(cls, J: int, K: int, m_cap: int, table: "_Leaves", q) -> "WedgeCode":
        """The code of a checked table and its int64 q column."""
        code = cls.__new__(cls)
        code.__dict__.update(J=J, K=K, m_cap=m_cap, _table=(table, q))
        return code

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.J, self.K, self.m_cap, self.records) \
            == (other.J, other.K, other.m_cap, other.records)

    def __hash__(self):
        return hash((self.J, self.K, self.m_cap, self.records))

    def __repr__(self):
        return (f"WedgeCode(J={self.J!r}, K={self.K!r}, m_cap={self.m_cap!r}, "
                f"records={self.records!r})")

    @cached_property
    def records(self) -> tuple:
        """(EdRdpLeaf, q) per record, in stream order."""
        table, q = self._table
        return tuple(zip(table.leaves(), q.tolist()))

    @cached_property
    def _table(self):
        """(leaf table, q as int64) of the records.

        A header no stream can carry, or a leaf ``_Leaves.of`` refuses, is
        a ``FormatError``; q outside the alphabet is a ``RangeError``.
        """
        offset = _layout(self.J, self.K, self.m_cap)[2]
        records = [sequence(record, FormatError, "record") for record in self.records]
        if any(len(record) != 2 for record in records):
            raise FormatError("a record is a (leaf, q) pair")
        table = _Leaves.of([instance(leaf, EdRdpLeaf, FormatError, "leaf")
                            for leaf, _ in records], self.n, self.K, self.m_cap)
        return table, _coefficients(records, offset)

    @property
    def n(self):
        return 1 << self.J

    @property
    def eta(self):
        return 1.0 / (self.n * self.n)

    @cached_property
    def bit_length(self):
        """``8 * len(self.to_bytes())``, summed from the field widths."""
        return _stream_bits(int(self._fields()[1].sum()))

    def _fields(self):
        """The payload as flat value and width arrays, in stream order, the
        fields of each record as ``_field_widths`` lists them.  A value
        wider than its field is a ``FormatError``.
        """
        offset = _layout(self.J, self.K, self.m_cap)[2]
        table, qs = self._table
        split = table.local >= 0
        values = np.stack([table.j, table.ix, table.iy, split, table.local * split,
                           table.side, qs + offset])
        widths = _field_widths(self.J, self.K, self.m_cap, table.j, split)
        if np.any((values < 0) | (values >= 1 << widths)):
            raise FormatError("a value does not fit in its field")
        return values.T.ravel(), widths.T.ravel()

    def to_bytes(self) -> bytes:
        header = _MAGIC + struct.pack("<BBBHI", WEDGE_FORMAT_VERSION, self.J,
                                      self.K, self.m_cap, self._table[1].size)
        values, widths = self._fields()
        ends = np.repeat(np.cumsum(widths), widths)  # where each bit's field ends
        bits = np.repeat(values, widths) >> (ends - 1 - np.arange(ends.size)) & 1
        return header + np.packbits(bits.astype(np.uint8)).tobytes()

    @classmethod
    def from_bytes(cls, data: bytes) -> "WedgeCode":
        """The code a stream holds.

        The stream's own field checks stand in for ``_Leaves.of``: a short
        or truncated stream, bad magic, another version, a scale beyond J,
        an edgelet index beyond its scale's pairs, a coefficient outside
        the alphabet, or bytes or set bits after the last record's padding
        is a ``CorruptionError``, and a header no stream can carry a
        ``FormatError``.  The records go straight into the code's table;
        their leaf objects are built only when a caller reads ``records``.
        """
        instance(data, (bytes, bytearray), FormatError, "stream")
        if len(data) < _HEADER_BYTES:
            raise CorruptionError("stream shorter than the fixed header")
        if data[:4] != _MAGIC:
            raise CorruptionError("bad magic")
        version, J, K, m_cap, count = struct.unpack("<BBBHI", data[4:_HEADER_BYTES])
        if version != WEDGE_FORMAT_VERSION:
            raise CorruptionError(f"unsupported version {version}")
        sbits, _, offset, splits = _layout(J, K, m_cap)
        widths = _record_widths(J, K, m_cap)  # by split flag, then scale
        total = 8 * (len(data) - _HEADER_BYTES)
        # no record is shorter than an unsplit one of scale 0
        if count * widths[0][0] > total:
            raise CorruptionError("payload truncated")
        # eight zero bytes past the payload: the scale and flag reads below
        # end at most 29 bits past it
        bits = np.unpackbits(np.frombuffer(data[_HEADER_BYTES:] + bytes(8), np.uint8))
        lead = np.zeros(total + 1, np.uint8)  # the scale field that begins at each bit
        for k in range(sbits):
            lead = 2 * lead + bits[k:k + total + 1]
        # each record's start follows from the last one's scale and split flag
        scale, flag = memoryview(lead), memoryview(bits)
        starts, pos = [], 0
        for _ in range(count):
            j = scale[pos]
            if j > J:
                raise CorruptionError("leaf scale beyond header scale")
            starts.append(pos)
            pos += widths[flag[pos + sbits + 2 * j]][j]
            if pos > total:
                raise CorruptionError("payload truncated")
        if total - pos >= 8 or bits[pos:total].any():
            raise CorruptionError("bytes or set padding bits after the last record")
        start = np.array(starts, dtype=np.int64)
        j = lead[start].astype(np.int64)
        split = bits[start + sbits + 2 * j].astype(np.int64)
        fields = _field_widths(J, K, m_cap, j, split)
        begins = np.cumsum(fields, axis=0) - fields + start
        ix, iy, _, local, side, q = _read(data[_HEADER_BYTES:], begins[1:], fields[1:])
        if np.any(local >= np.array([pairs for _, _, pairs in splits])[j]):
            raise CorruptionError("edgelet index out of range")
        q -= offset
        if np.any(np.abs(q) > offset):
            raise CorruptionError("coefficient outside the stream alphabet")
        table = _Leaves(J, _budgets(J, K, m_cap), j, ix, iy, np.where(split, local, -1), side)
        return cls._of_table(J, K, m_cap, table, q)


def _read(payload: bytes, start, width):
    """The unsigned fields of ``width`` bits, at most 57, most significant
    bit first, that begin at bit ``start`` of ``payload``; bits past its
    end read as 0."""
    buf = np.frombuffer(payload + bytes(8), np.uint8).astype(np.uint64)
    size = len(payload) + 1
    word = np.zeros(size, np.uint64)  # the 64 bits from each byte on
    for k in range(8):
        word = word << np.uint64(8) | buf[k:k + size]
    head = word[start >> 3] << (start & 7).astype(np.uint64)
    # in two steps, as a shift by 64 bits is undefined
    return (head >> (63 - width).astype(np.uint64) >> np.uint64(1)).astype(np.int64)


def _coefficients(records, offset: int):
    """The records' integer coefficients q as int64; the one coefficient rule.

    Each q must be an integer with |q| <= offset = n^2 + 1, the stream's
    alphabet; anything else is a ``RangeError``.
    """
    return np.array([integer(q, -offset, offset, RangeError,
                             "coefficient q of the stream alphabet")
                     for _, q in records], dtype=np.int64)


def encode(f_array, J: int, K: int, m_cap: int = DEFAULT_M_CAP,
           lam: float = 0.0) -> WedgeCode:
    """Score, prune, quantize, and pack; zero coefficients are dropped.

    The scored thetas of ``_fit``'s leaf table, against unit-normalized
    masks, are rounded to the nearest multiple of eta = n^-2 with ties
    toward zero; where the pixel sums are exact they are ``project``'s.
    """
    return _quantize(*_fit(f_array, J, K, m_cap, lam))


def _rounded(scores: _Scores, table: _Leaves):
    """(index of each leaf's square in the scores, its theta, its q as a
    float) for a table ``_prune`` gave; the encoder's one coefficient rule.

    Each leaf's theta is gathered from its square's scored ones: the whole
    square's, or that of its side of the winning split, which is the split
    ``_prune`` keeps.  A theta outside the alphabet's [-1-eta, 1+eta] is a
    ``RangeError``; q = theta / eta rounded half toward zero.
    """
    at = _first(table.j) + (table.iy << table.j) + table.ix
    thetas = np.where(table.local < 0, scores.theta[at],
                      np.where(table.side == 0, scores.theta0[at], scores.theta1[at]))
    eta = 1.0 / (1 << 2 * table.J)
    over = np.flatnonzero(np.abs(thetas) > _theta_bound(eta))
    if over.size:
        raise RangeError(f"coefficient {thetas[over[0]]:.6g} outside [-1-eta, 1+eta]")
    return at, thetas, _round_half_toward_zero(thetas / eta)


def _quantize(scores: _Scores, table: _Leaves) -> WedgeCode:
    """The code of a table ``_prune`` gave: its rows with q != 0."""
    q = _rounded(scores, table)[2].astype(np.int64)
    keep = q != 0
    return WedgeCode._of_table(table.J, scores.K, scores.m_cap, table.take(keep), q[keep])


def _round_half_toward_zero(x):
    """Nearest integer, as a float, with .5 ties resolved toward zero;
    elementwise on arrays."""
    return np.copysign(np.ceil(np.abs(x) - 0.5), x)


def _stream_bits(payload: int) -> int:
    """Bits of a stream whose records take ``payload`` bits."""
    return 8 * _HEADER_BYTES + (payload + 7) // 8 * 8


def decode(code: WedgeCode) -> np.ndarray:
    """Reconstruct sum_theta_P phi_P; lossless given the stored integers.

    It reads the code's leaf table and builds no leaf object.  For a code
    made from records, a header no stream can carry, or a leaf it could
    not carry (see ``_Leaves.of``), is a ``FormatError``, and a
    coefficient outside the stream's alphabet a ``RangeError``, before the
    image is allocated; a stream's own field checks have refused both.
    Anything but a ``WedgeCode`` is a ``FormatError``.
    Record squares must be disjoint, except that one square may carry
    sides 0 and 1 of one edgelet; anything else is a ``CorruptionError``,
    found before any mask is drawn, so the masks never take more than
    2 n^2 values.  A lone side is legal, as streams drop q = 0 records.
    A whole scale is drawn at once, from the edgelet dictionary; a decode
    that finds no entry built draws only the edgelets its records name.
    """
    table, q = instance(code, WedgeCode, FormatError, "code")._table
    n = code.n
    norm = 1.0 / (n * n)
    table.partners()
    theta = q * code.eta
    out = np.zeros((n, n))
    for j, whole, cut in table.scales():
        size = n >> j
        tiles = _tiles(out, j)
        scale = theta[whole] / np.sqrt(size * size * norm)
        np.add.at(tiles, table.windows(whole), scale[:, None, None])
        if cut.size:
            masks, grams = _split_masks(table, j, cut)
            masks *= (theta[cut] / np.sqrt(grams[0] * norm))[:, None, None]
            np.add.at(tiles, table.windows(cut), masks)
    return out


def encode_to_target(f_array, J: int, K: int, m_cap: int, target_eps: float):
    """Bisection on the split penalty to meet an L2 error target.

    A larger penalty means fewer leaves, fewer bits, and more error, so we
    push the penalty as high as the target allows.  The image is scored
    once; each of the 17 probes prunes and reads its code's bits and error
    from the scores (see ``_probe``), and only the partition returned is
    quantized and decoded.  A table is realized (quantized and decoded) at
    most once in a row: the last realized table and its code are reused
    when a probe or the result needs the same table again.  Returns (code,
    error, reached); when the target
    is unreachable even at zero penalty the best-effort code comes back
    with reached = False.
    """
    _layout(J, K, m_cap)
    n = 1 << J
    f = array(f_array, (n, n), (InputShapeError, DomainError), "a {}x{} array")
    # NaN would slip through both comparisons with err below
    target_eps = real(target_eps, -math.inf, math.inf, DomainError, "target eps")
    scores = _score(f, J, K, m_cap)
    last = []  # the last table realized, and its (bits, err, code)

    def realize(table):
        if not (last and _same_table(last[0], table)):
            last[:] = table, _realize(f, scores, table)
        return last[1]

    def attempt(lam):  # (table, bits, err)
        table = _prune(scores, lam)
        return (table, *_probe(scores, table, target_eps, realize))

    best = attempt(0.0)
    reached = best[2] <= target_eps
    if reached:
        lo, hi = 0.0, 1.0
        for _ in range(_SWEEPS):
            mid = (lo + hi) / 2.0
            probe = attempt(mid)
            if probe[2] <= target_eps:
                lo = mid
                if probe[1] < best[1]:
                    best = probe
            else:
                hi = mid
    _, err, code = realize(best[0])
    return code, err, reached


def _realize(f, scores: _Scores, table: _Leaves):
    """(bits, RMS error, code) of a pruned table through ``_quantize`` and
    ``decode``."""
    code = _quantize(scores, table)
    return code.bit_length, float(np.sqrt(np.mean((decode(code) - f) ** 2))), code


def _same_table(a: _Leaves, b: _Leaves) -> bool:
    """Whether two tables of one image's scores hold the same rows."""
    return all(np.array_equal(getattr(a, col), getattr(b, col))
               for col in ("j", "ix", "iy", "local", "side"))


def _probe(scores: _Scores, table: _Leaves, target: float, realize):
    """(bits, RMS error) of the code ``_quantize`` makes of a table
    ``_prune`` gave.

    Read from the scores by ``_closed_form`` unless its squared error is
    within a relative 2e-9 of the target's square (1e-9 on the error) or
    within the rounding of scored errors that cancel against the pixels'
    energy, sum f^2 * norm: then ``realize``, ``_realize`` of the image,
    decodes the code and measures it.
    """
    bits, mse = _closed_form(scores, table)
    energy = scores.sse_whole[0] + scores.theta[0] ** 2
    if abs(mse - target * target) > 2e-9 * target * target + 1e-12 * energy:
        return bits, math.sqrt(mse)
    return realize(table)[:2]


def _closed_form(scores: _Scores, table: _Leaves):
    """(bits, mean squared error) of the code ``_quantize`` makes of a
    table ``_prune`` gave, read from the scores.

    The thetas and q are ``_rounded``'s, the ones ``_quantize`` keeps.  The
    squared error is exact in closed form, since the leaves are disjoint
    and the residual of the scored fit is orthogonal to their span: the
    squares' scored squared errors plus (theta - q eta)^T G (theta - q eta)
    over each square's leaves, with G the Gram of their unit-norm masks,
    whose off diagonal is the scored ``cross``.  The bits sum ``_layout``'s
    field widths over the records with q != 0.
    """
    at, thetas, q = _rounded(scores, table)
    eta = 1.0 / (1 << 2 * scores.J)
    d = thetas - q * eta
    split, side0 = table.local >= 0, table.side == 0
    first = np.flatnonzero(split & side0)  # side 1 of a split square is the next row
    sse = np.where(split, scores.sse_split[at], scores.sse_whole[at])[side0]
    cross = scores.cross[at[first]]
    mse = sse.sum() + np.sum(d * d) + 2.0 * np.sum(d[first] * d[first + 1] * cross)
    width = _field_widths(scores.J, scores.K, scores.m_cap, table.j, split).sum(axis=0)
    return _stream_bits(int(width[q != 0].sum())), max(float(mse), 0.0)
