"""Minimum-cost bipartite assignment with a deterministic tie-break.

The solver is the O(n^3) shortest-augmenting-path algorithm with dual
potentials. Rectangular matrices are padded to square with zero-cost dummy
rows/columns, which leaves the optimal value over real pairs unchanged and
forces a matching of size min(m, n).

Among equal-cost optima the returned matching is canonical: the list of
(row, col) pairs, sorted by row, is lexicographically smallest. Ties are
resolved exactly on the graph of tight edges (zero reduced cost under the
optimal potentials), so repeated runs and platforms agree bit-for-bit.

Most of the tracker's matrices never reach the solver: _settle places
their rows without it and proves that the solver and the tie-break would
return the same pairs, or hands the matrix over to them.
"""

from __future__ import annotations

import math
from itertools import compress

import numpy as np


def hungarian_assign(cost) -> list[tuple[int, int]]:
    """Min-cost matching of size min(m, n) for an m x n cost matrix.

    Returns (row, col) pairs sorted by row. Costs and their differences must be finite.
    """
    a = np.asarray(cost, dtype=float)
    if a.ndim != 2:
        raise ValueError("cost must be a 2-D matrix")
    m, n = a.shape
    if m == 0 or n == 0:
        return []
    if not np.isfinite(a).all():
        raise ValueError("cost matrix contains non-finite entries")

    # Fast path: the answer is settled, so neither the search nor the tie
    # canonicalization below can change it (see _settle).  For m > n the
    # same argument applies column-wise: _canonicalize fixes the rows of
    # the pool in index order, and they pair with the wildcard and
    # constant columns in increasing order either way.
    if m <= n:
        cols, _ = _settle(a)
        if cols is not None:
            return list(enumerate(cols))
    else:
        rows, _ = _settle(a.T)
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


def _settle(a: np.ndarray):
    """(the optimum's column for each row, how it was found) for an r x c
    matrix with r <= c, when the rows show it without the full solve;
    else (None, the check that failed).

    tol = max(r, c) * eps, eps being _canonicalize's tie tolerance.  A row
    is constant when its smallest and largest entries are equal (a track
    that overlaps nothing is 1.0 everywhere).  One pass over the rows finds
    each other row's minimum and first argmin column.

    "forced": every non-constant row's minimum beats its second-smallest
    value by more than tol, and those minima fall in distinct columns.
    Each such row keeps its argmin and the constant rows take the lowest
    free columns, in row order.  Why that is what the solve and
    _canonicalize return (with no constant rows, the free columns go to
    the padding rows alone):

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

    "settled" and "wildcards": otherwise each non-constant row takes its
    first argmin column unless an earlier row holds it, with the duals
    u = its minimum and v = 0, and each contested row is placed by one
    shortest augmenting path (_place).  That keeps every reduced cost
    a - u - v >= 0 and the matched ones 0, up to rounding, with v <= 0 and
    v = 0 on the columns no row holds.  A wildcard row is a non-constant
    row whose own column has v == 0 and whose cost is equal at every
    column of the pool P: the unheld columns plus the wildcard rows' own,
    shrunk to a fixed point.  An arc is a reduced cost <= tol from a
    non-constant row to a column other than its own.  It leads to "pool"
    when the column is in P (a wildcard row's arcs into P are dropped),
    and otherwise to the row that holds the column.  The answer stands
    when every reduced cost is >= -tol, every matched one within tol of 0
    ("tolerance"), the arcs form no cycle ("cycle"), and no row whose own
    column has v >= -tol reaches "pool" ("pool").  Then every non-constant
    row that is not a wildcard keeps its column (a settled row), and the
    wildcard and constant rows take P's columns lowest first, in row
    order.  The forced rule's argument, extended:

    - Give the constant rows (the padding rows too) u = their value: then
      u + v <= a everywhere, and a constant or wildcard row is exactly as
      tight at every column of P as at its own.  So the answer costs
      L = sum(u) + sum(v), the optimum, and another matching costs L plus
      the sum of its reduced costs.
    - Where another matching moves a settled row, it moves a chain of
      them: each takes the column the next one left, up to one that takes
      a column of P, or around a cycle.  Unless all its edges are arcs,
      a chain or cycle has an edge above tol.  A cycle of arcs is
      excluded.  A chain of arcs reaches "pool", so the column its first
      row left has v < -tol, and the row outside the chain that takes it
      pays more than tol: -v for a constant or padding row, and for a
      wildcard row an edge that is no arc, or it would reach "pool"
      through the chain.  The other reduced costs are >= 0, so the
      matching costs more than L + tol, and by the forced rule's second
      point no tight matching moves a settled row.
    - So the solver gives P's columns to the constant, padding and
      wildcard rows, each of which costs the same at every column of P.
      As for a constant row, each such row's column has the largest v of
      P's columns, and every column of P is one of theirs, so they all
      have the same v: every edge between those rows and P is exactly as
      tight as a matched edge, and _canonicalize fixes the real rows as
      the forced rule's last point says.

    The tolerance leaves a margin far wider than either solve's rounding,
    and a tie within it goes to the full solve.  Plain lists: the
    tracker's matrices are a few rows wide, where numpy's per-call
    overhead dominates; numpy builds only the one reduced-cost matrix.
    """
    rows = a.tolist()
    width = len(rows[0])
    tol = max(len(rows), width) * _tie_tolerance(a)
    u = []  # each row's dual: its minimum, -inf for a constant row
    cols = []  # each row's column, None for a constant row
    owner = [-1] * width  # each column's row, -1 while unheld
    contested = []
    strict = True
    for i, row in enumerate(rows):
        ranked = sorted(row)
        low = ranked[0]
        if low == ranked[-1]:
            u.append(-math.inf)
            cols.append(None)
            continue
        u.append(low)
        j = row.index(low)
        if owner[j] < 0:
            owner[j] = i
            cols.append(j)
            strict = strict and ranked[1] - low > tol
        else:
            cols.append(-1)
            contested.append(i)
    if strict and not contested:
        free = (j for j in range(width) if owner[j] < 0)
        return [next(free) if j is None else j for j in cols], "forced"

    v = [0.0] * width
    for i in contested:
        _place(rows, u, v, cols, owner, i)
    return _certify(a, rows, u, v, cols, owner, tol)


def _place(rows, u, v, cols, owner, start) -> None:
    """Give row *start* a column by one shortest augmenting path over the
    reduced costs a - u - v, all >= 0 (Dijkstra), then move the duals.

    Each column the search took, at distance d, has v lowered by D - d
    and its row's u raised by as much, D being the path's length; the u
    of *start* rises by D.  That keeps every reduced cost >= 0 and the matched ones 0,
    and leaves v alone on every column the path did not pass through.
    Unheld columns come first in the scan, so a tie ends the path there.
    """
    ui = u[start]
    dist = [x - ui - y for x, y in zip(rows[start], v)]
    via = [start] * len(v)  # the row each column's best path comes from
    left = sorted(range(len(v)), key=owner.__getitem__)
    done = []
    while True:
        j = min(left, key=dist.__getitem__)
        i = owner[j]
        if i < 0:
            break
        left.remove(j)
        done.append(j)
        row = rows[i]
        base = dist[j] - u[i]
        for k in left:
            d = base + row[k] - v[k]
            if d < dist[k]:
                dist[k] = d
                via[k] = i
    end = dist[j]
    for k in done:
        lead = end - dist[k]
        v[k] -= lead
        u[owner[k]] += lead
    u[start] += end
    while j >= 0:
        i = via[j]
        cols[i], j = j, cols[i]
        owner[cols[i]] = i


def _certify(a, rows, u, v, cols, owner, tol):
    """_settle's checks on the matching _place left, and its answer."""
    # A constant row's u of -inf makes its reduced costs +inf, so it is in
    # no check; a NaN from an overflowed dual fails the first.
    reduced = a - np.array(u)[:, None] - np.array(v)
    if not reduced.min() >= -tol:
        return None, "tolerance"

    near = [[] for _ in rows]  # each row's columns at a reduced cost <= tol
    for i, j in zip(*(x.tolist() for x in (reduced <= tol).nonzero())):
        near[i].append(j)
    placed = [i for i, j in enumerate(cols) if j is not None]
    if not all(cols[i] in near[i] for i in placed):
        return None, "tolerance"

    # A wildcard row is as tight at every free column as at its own, so it
    # has more near columns than there are free ones.
    free = [j for j, i in enumerate(owner) if i < 0]
    wild = {}  # each wildcard row's cost, the same at every free column
    for i in placed:
        j = cols[i]
        if len(near[i]) > len(free) and v[j] == 0.0:
            row = rows[i]
            cost = row[j]
            if all(row[k] == cost for k in free):
                wild[i] = cost
    while True:
        held = [cols[i] for i in wild]
        kept = {i: x for i, x in wild.items() if all(rows[i][j] == x for j in held)}
        if len(kept) == len(wild):
            break
        wild = kept
    pool = set(free).union(held)

    after = {}  # the settled rows each row's arcs lead to
    reach = set()  # the rows that reach "pool"
    for i in placed:
        if len(near[i]) == 1:
            continue  # its own column alone
        own = cols[i]
        for j in near[i]:
            if j == own:
                continue
            if j not in pool:
                after.setdefault(i, []).append(owner[j])
            elif i not in wild:
                reach.add(i)

    # Kahn's order: a row comes before every row its arcs lead to.
    ahead = {}
    for nxt in after.values():
        for k in nxt:
            ahead[k] = ahead.get(k, 0) + 1
    order = [i for i in after if i not in ahead]
    for i in order:
        for k in after.get(i, ()):
            ahead[k] -= 1
            if not ahead[k]:
                order.append(k)
    if len(order) < len(after.keys() | ahead.keys()):
        return None, "cycle"
    if reach:
        for i in reversed(order):
            if i not in reach and any(k in reach for k in after.get(i, ())):
                reach.add(i)
        if any(v[cols[i]] >= -tol for i in reach):
            return None, "pool"

    spare = iter(sorted(pool))
    out = [next(spare) if j is None or i in wild else j for i, j in enumerate(cols)]
    return out, "wildcards" if wild else "settled"


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
            if j0 == 0:  # no reduced cost below inf: a difference overflowed to inf or NaN
                raise ValueError("cost differences overflow the float range")
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
