"""Reference checker for grid invariants, independent of the legrid package.

It works from the raw marker lists alone: ``xs[c]`` and ``os[c]`` are the
rows of the X and O marker in column c, rows counted bottom-up.  Each
column joins O to X vertically, each row joins X to O horizontally, and
the vertical strand passes over the horizontal one.  Components are
traced from the lowest unvisited column, so they come out ordered by
their lowest column.  Cusps sit at the NW and SE corners (the two
segments at a marker run north and west, or south and east); a cusp is
up when its column's strand runs O -> X upward.  Per component,
``tb = writhe - cusps/2`` and ``r = (down - up)/2``.

Nothing here imports legrid: the benchmark compares the program's
output against these values.
"""

from __future__ import annotations

from itertools import permutations

__all__ = ["components", "front_counts", "invariants", "self_check"]


def _col_by_row(rows):
    cols = [0] * len(rows)
    for c, r in enumerate(rows):
        cols[r] = c
    return cols


def components(xs, os):
    """Return (columns of each component, owner component of each column)."""
    n = len(xs)
    o_col = _col_by_row(os)
    owner = [-1] * n
    comps = []
    for start in range(n):
        if owner[start] >= 0:
            continue
        cols = []
        c = start
        while owner[c] < 0:
            owner[c] = len(comps)
            cols.append(c)
            c = o_col[xs[c]]  # X of this column -> O in the same row -> next column
        comps.append(cols)
    return comps, owner


def front_counts(xs, os):
    """Per-component writhe, up cusps and down cusps, plus the total
    number of crossings and cusps of the whole diagram."""
    n = len(xs)
    comps, owner = components(xs, os)
    x_col, o_col = _col_by_row(xs), _col_by_row(os)
    k = len(comps)
    writhe = [0] * k
    up = [0] * k
    down = [0] * k
    crossings = 0
    for c in range(n):
        lo, hi = sorted((xs[c], os[c]))
        v = 1 if xs[c] > os[c] else -1  # O -> X
        for r in range(lo + 1, hi):
            a, b = x_col[r], o_col[r]
            if min(a, b) < c < max(a, b):
                crossings += 1
                h = 1 if b > a else -1  # X -> O
                if owner[a] == owner[c]:
                    # over (0, v), under (h, 0): det = -v*h
                    writhe[owner[c]] -= v * h
        for row, other_row, other_col in (
            (xs[c], os[c], o_col[xs[c]]),
            (os[c], xs[c], x_col[os[c]]),
        ):
            north = other_row > row
            east = other_col > c
            if north != east:  # (N, W) or (S, E)
                if v > 0:
                    up[owner[c]] += 1
                else:
                    down[owner[c]] += 1
    cusps = sum(up) + sum(down)
    return writhe, up, down, crossings, cusps


def invariants(xs, os):
    """Per-component (tb, r), ordered by each component's lowest column."""
    writhe, up, down, _, _ = front_counts(xs, os)
    out = []
    for w, u, d in zip(writhe, up, down):
        if (u + d) % 2 or (d - u) % 2:
            raise AssertionError("cusp counts of a closed front must be even")
        out.append((w - (u + d) // 2, (d - u) // 2))
    return out


def _grids(n):
    for xs in permutations(range(n)):
        for os in permutations(range(n)):
            if all(x != o for x, o in zip(xs, os)):
                yield xs, os


def self_check():
    """Check the checker; return a list of failure messages (empty when sound)."""
    failures = []
    if invariants([0, 1], [1, 0]) != [(-1, 0)]:
        failures.append("2x2 unknot is not (tb, r) = (-1, 0)")
    if invariants([0, 1, 2, 3], [1, 0, 3, 2]) != [(-1, 0), (-1, 0)]:
        failures.append("split 4x4 grid is not (-1, 0) twice")
    for n in (2, 3, 4):
        for xs, os in _grids(n):
            for tb, r in invariants(xs, os):
                if (tb + r) % 2 != 1:
                    failures.append(f"tb + r even on n={n} grid X={xs} O={os}")
    return failures


if __name__ == "__main__":
    problems = self_check()
    print("\n".join(problems) or "reference checker: ok")
    raise SystemExit(1 if problems else 0)
