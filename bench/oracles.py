"""Reference computations the benchmark checks the program against.

Nothing here imports ``approxrate``.  Each oracle is written from the
published formats and from the mathematics:

- a WDGL stream reader and decoder with its own 4x4 stratified sampler,
  following the stream layout in the project README;
- an exact ``Fraction`` forward pass over a network's stored weights;
- the closed-form cardinal B-spline;
- the sphere-covering lower bound on the mean Hamming distance;
- penalised costs of the uniform quadtree levels, from block means.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

import numpy as np

MAGIC = b"WDGL"
VERSION = 1
HEADER_BYTES = 13
SUPERSAMPLE = 4


class StreamError(ValueError):
    """A WDGL stream that does not follow the format."""


def field_width(alphabet: int) -> int:
    """Bits of the shortest fixed-width field holding ``alphabet`` values."""
    return (alphabet - 1).bit_length()


def vertex_count(j: int, J: int, K: int, m_cap: int) -> int:
    """Boundary vertices of a scale-j square: spacing 2^-(J+K), at most M_cap."""
    return min(4 << (J + K - j), m_cap)


@dataclass(frozen=True)
class Record:
    j: int
    ix: int
    iy: int
    edge: tuple | None  # (v1, v2, vertex count) for a split square
    side: int | None
    q: int


@dataclass(frozen=True)
class Stream:
    J: int
    K: int
    m_cap: int
    records: tuple
    payload_bits: int

    @property
    def n(self) -> int:
        return 1 << self.J

    @property
    def expected_bytes(self) -> int:
        """Length the format gives for these records: header plus padded payload."""
        return HEADER_BYTES + (self.payload_bits + 7) // 8


def read_stream(data: bytes) -> Stream:
    """Parse a WDGL stream's records; the padding after them must be zero.

    Bytes after the padding are left to the caller, who compares the
    length with ``Stream.expected_bytes``.
    """
    if len(data) < HEADER_BYTES or data[:4] != MAGIC:
        raise StreamError("missing WDGL header")
    version, J, K, m_cap, count = struct.unpack("<BBBHI", data[4:HEADER_BYTES])
    if version != VERSION:
        raise StreamError(f"version {version}")
    if m_cap < 4 or m_cap % 4:
        raise StreamError(f"M_cap {m_cap} is not a positive multiple of 4")
    payload = int.from_bytes(data[HEADER_BYTES:], "big")
    total = 8 * (len(data) - HEADER_BYTES)
    pos = 0

    def take(width):
        nonlocal pos
        if pos + width > total:
            raise StreamError("payload truncated")
        pos += width
        return (payload >> (total - pos)) & ((1 << width) - 1)

    n = 1 << J
    offset = n * n + 1
    records = []
    for _ in range(count):
        j = take(field_width(J + 1))
        if j > J:
            raise StreamError("scale beyond J")
        ix, iy = take(j), take(j)
        edge = side = None
        if take(1):
            m = vertex_count(j, J, K, m_cap)
            idx = take(field_width(comb(m, 2)))
            if idx >= comb(m, 2):
                raise StreamError("edgelet index out of range")
            v2 = 1
            while v2 * (v2 + 1) // 2 <= idx:  # colex rank: v2(v2-1)/2 + v1
                v2 += 1
            edge = (idx - v2 * (v2 - 1) // 2, v2, m)
            side = take(1)
        q = take(field_width(2 * offset + 1)) - offset
        if abs(q) > offset:
            raise StreamError("coefficient outside the alphabet")
        records.append(Record(j, ix, iy, edge, side, q))
    pad = -pos % 8
    if pos + pad <= total and (payload >> (total - pos - pad)) & ((1 << pad) - 1):
        raise StreamError("nonzero padding")
    return Stream(J, K, m_cap, tuple(records), pos)


def _vertex(j, ix, iy, v, m):
    """Vertex v of m, clockwise from the upper-left corner of the square."""
    side = 2.0 ** -j
    per_edge = m // 4
    edge, step = divmod(v, per_edge)
    r = step * side / per_edge
    x0, y0 = ix * side, iy * side
    x1, y1 = x0 + side, y0 + side
    return [(x0 + r, y1), (x1, y1 - r), (x1 - r, y0), (x0, y0 + r)][edge]


def leaf_block(rec: Record, J: int):
    """(per-pixel inside fraction, row0, col0) of one leaf.

    Every one of the s x s samples of every pixel is classified against
    the edgelet directly: side 0 is strictly left of v1 -> v2.
    """
    n = 1 << J
    size = 1 << (J - rec.j)
    row0, col0 = rec.iy * size, rec.ix * size
    if rec.edge is None:
        return np.ones((size, size)), row0, col0
    v1, v2, m = rec.edge
    (ax, ay), (bx, by) = _vertex(rec.j, rec.ix, rec.iy, v1, m), \
        _vertex(rec.j, rec.ix, rec.iy, v2, m)
    s = SUPERSAMPLE
    xs = (col0 * s + np.arange(size * s) + 0.5) / (s * n)
    ys = (row0 * s + np.arange(size * s) + 0.5) / (s * n)
    left = (bx - ax) * (ys[:, None] - ay) - (by - ay) * (xs[None, :] - ax) > 0.0
    frac = left.reshape(size, s, size, s).mean(axis=(1, 3))
    return (frac if rec.side == 0 else 1.0 - frac), row0, col0


def decode_stream(stream: Stream) -> np.ndarray:
    """Sum over records of theta * mask / ||mask||, theta = q / n^2."""
    n = stream.n
    out = np.zeros((n, n))
    for rec in stream.records:
        block, r0, c0 = leaf_block(rec, stream.J)
        norm = math.sqrt(float(np.sum(block * block)) / (n * n))
        if norm == 0.0:
            raise StreamError("leaf with an empty mask")
        size = block.shape[0]
        out[r0:r0 + size, c0:c0 + size] += (rec.q / (n * n)) / norm * block
    return out


def rms(a, b) -> float:
    return float(np.sqrt(np.mean((np.asarray(a) - np.asarray(b)) ** 2)))


def penalised_cost(f, recon, leaves: int, lam: float) -> float:
    """Squared L2 error on the unit square plus lam per leaf."""
    return float(np.mean((f - recon) ** 2)) + lam * leaves


def uniform_level_costs(f, lam: float) -> list:
    """Penalised cost of every uniform quadtree level fitted by block means."""
    n = f.shape[0]
    costs = []
    for j in range(int(math.log2(n)) + 1):
        size = n >> j
        blocks = f.reshape(1 << j, size, 1 << j, size)
        means = blocks.mean(axis=(1, 3), keepdims=True)
        costs.append(float(np.mean((blocks - means) ** 2)) + lam * 4 ** j)
    return costs


def bspline(m: int, x):
    """N_m(x) = 1/(m-1)! sum_i (-1)^i C(m,i) (x-i)_+^(m-1), zero off (0, m)."""
    x = np.asarray(x, dtype=float)
    total = np.zeros_like(x)
    for i in range(m + 1):
        total += (-1) ** i * comb(m, i) * np.maximum(x - i, 0.0) ** (m - 1)
    return np.where((x > 0) & (x < m), total / factorial(m - 1), 0.0)


def gauss_l2(values_at, lo: float, hi: float, panels: int, nodes: int = 6) -> float:
    """sqrt of the integral of values_at(x)^2 by composite Gauss-Legendre."""
    t, w = np.polynomial.legendre.leggauss(nodes)
    h = (hi - lo) / panels
    left = lo + h * np.arange(panels)
    xs = (left[:, None] + h * (t[None, :] + 1.0) / 2.0).ravel()
    vals = np.asarray(values_at(xs), dtype=float).reshape(panels, nodes)
    return math.sqrt(h / 2.0 * float(np.sum(vals * vals * w[None, :])))


class ExactNet:
    """Forward pass in exact rationals over a network's stored weights.

    Reads ``steps[l].edge_weights`` (row, col, value), ``node_weights``
    (row, value) and the relu_power order k; the activation max(0, z)^k acts
    between steps and not after the last one.
    """

    def __init__(self, net):
        if net.activation.kind != "relu_power":
            raise ValueError("exact pass covers relu_power networks")
        self.k = net.activation.k
        self.steps = [(step.out_dim,
                       [(r, c, Fraction(v)) for r, c, v in step.edge_weights],
                       [(r, Fraction(v)) for r, v in step.node_weights])
                      for step in net.steps]

    def __call__(self, x: Fraction) -> Fraction:
        z = [Fraction(x)]
        last = len(self.steps) - 1
        for layer, (out_dim, edges, nodes) in enumerate(self.steps):
            out = [Fraction(0)] * out_dim
            for r, c, v in edges:
                out[r] += v * z[c]
            for r, v in nodes:
                out[r] += v
            if layer != last:
                out = [o ** self.k if o > 0 else Fraction(0) for o in out]
            z = out
        return z[0]


def sphere_covering_bound(m: int, R: int) -> Fraction:
    """Lower bound on the mean distance from {0,1}^m to 2^R codewords.

    At most 2^R * C(m, d) words lie at distance d from the codebook, so the
    mean is smallest when the shells fill in order of d.
    """
    left, total = 1 << m, 0
    for d in range(m + 1):
        take = min(left, (1 << R) * comb(m, d))
        total += d * take
        left -= take
    return Fraction(total, 1 << m)
