"""Independent exhaustive oracle for the penalized partition fit.

Enumerates, per square, the cheapest achievable squared error for every
leaf budget up to a cap (quad splits combine children budgets), which is
equivalent to enumerating all ED-RDPs with at most that many leaves.  All
errors come from explicit masks and plain least squares, sharing no code
with the dynamic program being checked.
"""

import numpy as np

from approxrate.wedgelet import (
    DyadicSquare,
    EdRdpLeaf,
    Edgelet,
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
