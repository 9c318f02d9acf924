"""Minimum-cost bipartite assignment with a deterministic tie-break.

The solver is the O(n^3) shortest-augmenting-path algorithm with dual
potentials. Rectangular matrices are padded to square with zero-cost dummy
rows/columns, which leaves the optimal value over real pairs unchanged and
forces a matching of size min(m, n).

Among equal-cost optima the returned matching is canonical: the list of
(row, col) pairs, sorted by row, is lexicographically smallest. Ties are
resolved exactly on the graph of tight edges (zero reduced cost under the
optimal potentials), so repeated runs and platforms agree bit-for-bit.
"""

from __future__ import annotations

import math
from itertools import compress

import numpy as np


def hungarian_assign(cost) -> list[tuple[int, int]]:
    """Min-cost matching of size min(m, n) for an m x n cost matrix.

    Returns (row, col) pairs sorted by row. Costs must be finite.
    """
    a = np.asarray(cost, dtype=float)
    if a.ndim != 2:
        raise ValueError("cost must be a 2-D matrix")
    m, n = a.shape
    if m == 0 or n == 0:
        return []
    if not np.isfinite(a).all():
        raise ValueError("cost matrix contains non-finite entries")

    # Fast path: the answer is forced, so neither the search nor the tie
    # canonicalization below can change it (see _forced_matching).  For
    # m > n the same argument applies column-wise.
    if m <= n:
        cols = _forced_matching(a)
        if cols is not None:
            return list(enumerate(cols))
    else:
        rows = _forced_matching(a.T)
        if rows is not None:
            return sorted((i, j) for j, i in enumerate(rows))

    size = max(m, n)
    padded = np.zeros((size, size), dtype=float)
    padded[:m, :n] = a

    u, v, row_to_col = _solve_square(padded)
    _canonicalize(padded, u, v, row_to_col, m, n)
    return sorted((i, row_to_col[i]) for i in range(m) if row_to_col[i] < n)


def _tie_tolerance(a) -> float:
    """The reduced cost up to which _canonicalize counts an edge as tight."""
    return 1e-9 * max(1.0, float(np.abs(a).max()))


def _forced_matching(a: np.ndarray):
    """The optimum's column for each row of an r x c matrix with r <= c,
    when one pass over the rows shows it is forced; else None.

    The rule: a row is constant when its smallest and largest entries are
    equal (a track that overlaps nothing is 1.0 everywhere).  Every other
    row's minimum must beat its second-smallest value by more than
    tol = max(r, c) * eps, eps being _canonicalize's tie tolerance, and
    those minima must fall in distinct columns.  Then each such row keeps
    its argmin and the constant rows take the lowest free columns, in row
    order.  Why that is what the solve and _canonicalize return (with no
    constant rows, the free columns go to the padding rows alone):

    - The matching above costs L = sum(minima) + sum(constants), and no
      matching costs less, so L is the optimum.  One that moves a
      non-constant row off its argmin costs more than L + tol.
    - _canonicalize picks among the matchings of tight edges (reduced cost
      <= eps under the solver's optimal duals u, v).  Each of their
      max(r, c) edges adds at most eps to the dual bound, which is L, so
      they cost at most L + tol: none moves a non-constant row.
    - So the solver's matching gives the free columns (those no argmin
      takes) to the constant rows, the zero-cost padding rows included.
      For a constant row i of value k, u[i] + v[j] <= k for every column
      with equality at its own, so its column has the largest v of all.
      Every free column therefore has that same v, and every edge from a
      constant row to a free column is exactly as tight as a matched edge.
    - _canonicalize fixes the real rows in index order to their smallest
      column that leaves a tight matching: a non-constant row its argmin,
      a constant row the lowest free column not yet taken.

    The tolerance leaves a margin far wider than the solver's rounding, and
    a tie within it goes to the full solve.  Plain lists: the tracker's
    matrices are a few rows wide, where numpy's per-call overhead dominates.
    """
    rows = a.tolist()
    width = len(rows[0])
    tol = max(len(rows), width) * _tie_tolerance(a)
    cols = []  # each row's argmin, None for a constant row
    for row in rows:
        ranked = sorted(row)
        low = ranked[0]
        if low == ranked[-1]:
            cols.append(None)
        elif ranked[1] - low > tol:
            cols.append(row.index(low))
        else:
            return None
    taken = {j for j in cols if j is not None}
    if len(taken) + cols.count(None) != len(cols):
        return None
    free = (j for j in range(width) if j not in taken)
    return [next(free) if j is None else j for j in cols]


def _solve_square(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Shortest-augmenting-path solve of a square matrix.

    Returns dual potentials (u, v) with u[i] + v[j] <= a[i][j] everywhere and
    equality on matched edges, plus the matched column of each row.

    Plain lists: at the tracker's sizes (tens of rows) numpy's per-element
    scalar overhead is most of the cost of the O(n^2)-per-row loop.  Python
    floats are the same IEEE-754 doubles as numpy float64 scalars, and each
    update below keeps the numpy version's operations and their order
    (`row[j - 1] - ui0 - v[j]`, strict `<` so the first minimum wins), so
    u, v and the matching are bit-identical to it; `_canonicalize` then
    sees the same ties.  The columns not yet on the path are kept in an
    ascending list, which visits them in the same order as a scan over
    every column that skips the used ones.  Each step's `minv[j] -= delta`
    is taken in the next step's scan, just before the compare: every
    minv[j] sees the same operations in the same order, and the last
    step's subtraction, whose results the row never reads, is not made.
    """
    n = a.shape[0]
    INF = math.inf
    rows = a.tolist()
    u = [0.0] * (n + 1)
    v = [0.0] * (n + 1)
    p = [0] * (n + 1)  # col -> row (1-based); col 0 is the virtual start
    way = [0] * (n + 1)
    for i in range(1, n + 1):
        p[0] = i
        j0 = 0
        minv = [INF] * (n + 1)
        used = [0]
        free = list(range(1, n + 1))
        delta = 0.0  # INF - 0.0 is INF: the first scan shifts nothing
        while True:
            i0 = p[j0]
            shift = delta
            delta = INF
            j1 = 0
            row = rows[i0 - 1]
            ui0 = u[i0]
            for j in free:
                mj = minv[j] - shift
                cur = row[j - 1] - ui0 - v[j]
                if cur < mj:
                    mj = cur
                    way[j] = j0
                minv[j] = mj
                if mj < delta:
                    delta = mj
                    j1 = j
            for j in used:
                u[p[j]] += delta
                v[j] -= delta
            j0 = j1
            if p[j0] == 0:
                break
            free.remove(j0)
            used.append(j0)
        while j0 != 0:
            j1 = way[j0]
            p[j0] = p[j1]
            j0 = j1
    row_to_col = [0] * n
    for j in range(1, n + 1):
        if p[j] != 0:
            row_to_col[p[j] - 1] = j - 1
    return np.array(u[1:]), np.array(v[1:]), row_to_col


def _canonicalize(a, u, v, row_to_col, m, n) -> None:
    """Rewire an optimal matching in place to the lexicographically-smallest
    optimum.

    Works on tight edges only, so every candidate matching keeps the optimal
    total. Real rows are fixed in index order to their smallest feasible
    column (ascending order puts real columns before dummy ones); feasibility
    is checked by attempting an augmenting-path rewire, a no-op in the common
    unique-optimum case.
    """
    size = a.shape[0]
    eps = _tie_tolerance(a)
    tight = ((a - u[:, None] - v[None, :]) <= eps).tolist()
    for i, j in enumerate(row_to_col):
        tight[i][j] = True  # guard against float noise on matched edges
    cols = range(size)
    tight_cols = [list(compress(cols, row)) for row in tight]

    col_to_row = [-1] * size
    for i, j in enumerate(row_to_col):
        col_to_row[j] = i
    locked_col = [False] * size

    for i in range(m):
        for j in tight_cols[i]:
            if locked_col[j]:
                continue
            if row_to_col[i] == j or _force_edge(
                tight_cols, row_to_col, col_to_row, locked_col, i, j, size
            ):
                locked_col[j] = True
                break


def _force_edge(tight_cols, row_to_col, col_to_row, locked_col, i, j, size) -> bool:
    """Try to include edge (i, j); True on success, state untouched on failure."""
    old_col = row_to_col[i]
    old_row = col_to_row[j]
    row_to_col[i] = j
    col_to_row[j] = i
    row_to_col[old_row] = -1
    col_to_row[old_col] = -1
    visited = [False] * size
    visited[j] = True
    if _augment(tight_cols, row_to_col, col_to_row, locked_col, old_row, visited):
        return True
    row_to_col[i] = old_col
    col_to_row[old_col] = i
    row_to_col[old_row] = j
    col_to_row[j] = old_row
    return False


def _augment(tight_cols, row_to_col, col_to_row, locked_col, row, visited) -> bool:
    """Kuhn augmenting path; mutates the matching only when a path is found."""
    for j in tight_cols[row]:
        if visited[j] or locked_col[j]:
            continue
        visited[j] = True
        other = col_to_row[j]
        if other == -1 or _augment(
            tight_cols, row_to_col, col_to_row, locked_col, other, visited
        ):
            row_to_col[row] = j
            col_to_row[j] = row
            return True
    return False
