"""Independent reference implementations for the wedge codec's tests.

``brute_best_cost`` is an exhaustive oracle for the penalized partition
fit: it enumerates, per square, the cheapest achievable squared error for
every leaf budget up to a cap (quad splits combine children budgets),
which is equivalent to enumerating all ED-RDPs with at most that many
leaves.  All errors come from explicit masks and plain least squares,
sharing no code with the dynamic program being checked.

``emit_leaves`` is the recursive walk that fixes the stream's record
order, and ``read_records`` reads a stream one field at a time.
"""

import struct

import numpy as np

from approxrate.exceptions import CorruptionError
from approxrate.wedgelet import (
    WEDGE_FORMAT_VERSION,
    DyadicSquare,
    EdRdpLeaf,
    Edgelet,
    _layout,
    _valid_edgelets,
    vertex_budget,
    wedge_mask,
)

INF = float("inf")


def _leaf_sses(f, square, J, K, m_cap, n):
    """(unsplit SSE, best split SSE) for one square, via masks + lstsq."""
    size = 1 << (J - square.j)
    r0, c0 = square.iy * size, square.ix * size
    window = f[r0:r0 + size, c0:c0 + size]
    norm = 1.0 / (n * n)
    sse_unsplit = float(np.sum((window - window.mean()) ** 2)) * norm
    best_split = INF
    if square.j < J:
        m_j = vertex_budget(square.j, J, K, m_cap)
        for idx, v1, v2 in _valid_edgelets(m_j):
            edge = Edgelet(square, v1, v2, m_j)
            m0 = wedge_mask(EdRdpLeaf(square, (edge, 0)), n)
            m0 = m0[r0:r0 + size, c0:c0 + size]
            m1 = 1.0 - m0
            basis = np.stack([m0.ravel(), m1.ravel()], axis=1)
            sol, _, rank, _ = np.linalg.lstsq(basis, window.ravel(), rcond=None)
            if rank < 2:
                continue
            resid = window.ravel() - basis @ sol
            best_split = min(best_split, float(np.sum(resid ** 2)) * norm)
    return sse_unsplit, best_split


def best_cost_table(f, square, J, K, m_cap, max_leaves, n):
    """Minimal SSE per leaf count in 1..max_leaves for this subtree."""
    table = [INF] * (max_leaves + 1)
    sse_u, sse_s = _leaf_sses(f, square, J, K, m_cap, n)
    if max_leaves >= 1:
        table[1] = sse_u
    if max_leaves >= 2 and sse_s < INF:
        table[2] = min(table[2], sse_s)
    if square.j < J and max_leaves >= 4:
        children = square.children()
        acc = {0: 0.0}
        for i, child in enumerate(children):
            remaining = len(children) - i - 1
            budget = max_leaves - remaining
            sub = best_cost_table(f, child, J, K, m_cap, budget, n)
            new = {}
            for used, cost in acc.items():
                top = min(max_leaves - used - remaining, budget)
                for extra in range(1, top + 1):
                    if sub[extra] < INF:
                        cand = cost + sub[extra]
                        if cand < new.get(used + extra, INF):
                            new[used + extra] = cand
            acc = new
        for count, cost in acc.items():
            if cost < table[count]:
                table[count] = cost
    return table


def brute_best_cost(f, J, K, m_cap, lam, max_leaves=10):
    """Min over all ED-RDPs with <= max_leaves leaves of SSE + lam * leaves."""
    n = 1 << J
    table = best_cost_table(np.asarray(f, dtype=float), DyadicSquare(0, 0, 0),
                            J, K, m_cap, max_leaves, n)
    return min(cost + lam * count for count, cost in enumerate(table)
               if count >= 1 and cost < INF)


def emit_leaves(choice, J):
    """Leaf rows (j, ix, iy, local index or -1, side) of per-scale choice
    arrays, in the order of a recursive depth-first walk from the unit
    square.

    ``choice[j][iy * 2^j + ix]`` is -2 for a quad, -1 for an unsplit leaf
    and an edgelet's local index for a split square, which gives a row per
    side.  Children are visited (dx, dy) = (0, 0), (1, 0), (0, 1), (1, 1).
    """
    rows = []

    def emit(j, ix, iy):
        pick = int(choice[j][iy * (1 << j) + ix])
        if pick == -2:
            for dy in (0, 1):
                for dx in (0, 1):
                    emit(j + 1, 2 * ix + dx, 2 * iy + dy)
        elif pick == -1:
            rows.append((j, ix, iy, -1, 0))
        else:
            rows.extend([(j, ix, iy, pick, 0), (j, ix, iy, pick, 1)])

    emit(0, 0, 0)
    assert all(j <= J for j, *_ in rows)
    return rows


def read_records(data):
    """The (EdRdpLeaf, q) records of a WDGL stream, read one field at a
    time from a string of '0'/'1'.

    It refuses a stream with the exception class ``WedgeCode.from_bytes``
    raises: ``CorruptionError`` for a short or truncated stream, bad magic,
    another version, a scale beyond J, an edgelet index beyond its scale's
    pairs, a coefficient outside the alphabet, or bytes or set bits after
    the last record's padding, and ``FormatError`` (from ``_layout``) for
    a header no stream can carry.
    """
    if len(data) < 13:
        raise CorruptionError("stream shorter than the fixed header")
    if data[:4] != b"WDGL":
        raise CorruptionError("bad magic")
    version, J, K, m_cap, count = struct.unpack("<BBBHI", data[4:13])
    if version != WEDGE_FORMAT_VERSION:
        raise CorruptionError(f"unsupported version {version}")
    sbits, cbits, offset, splits = _layout(J, K, m_cap)
    bits = format(int.from_bytes(data[13:], "big"), f"0{8 * (len(data) - 13)}b") \
        if len(data) > 13 else ""
    pos = 0

    def read(width):
        nonlocal pos
        start, pos = pos, pos + width
        if pos > len(bits):
            raise CorruptionError("payload truncated")
        return int(bits[start:pos] or "0", 2)

    records = []
    for _ in range(count):
        j = read(sbits)
        if j > J:
            raise CorruptionError("leaf scale beyond header scale")
        sq = DyadicSquare(j, read(j), read(j))
        if read(1):
            m_j, ebits, pairs = splits[j]
            idx = read(ebits)
            if idx >= pairs:
                raise CorruptionError("edgelet index out of range")
            leaf = EdRdpLeaf(sq, (Edgelet.from_local_index(sq, idx, m_j), read(1)))
        else:
            leaf = EdRdpLeaf(sq, None)
        q = read(cbits) - offset
        if abs(q) > offset:
            raise CorruptionError("coefficient outside the stream alphabet")
        records.append((leaf, q))
    tail = bits[pos:]
    if len(tail) >= 8 or "1" in tail:
        raise CorruptionError("bytes or set padding bits after the last record")
    return tuple(records)
