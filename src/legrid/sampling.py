"""Seedable random grid diagrams for the property suite.

A grid is its X rows ``xs`` plus its tracing permutation pi: pi(c) is
the column of the O in row ``xs[c]``, so ``os[pi(c)] == xs[c]``.  For
uniform markers pi is uniform and independent of ``xs``, a shared cell
is a fixed point of pi and the components are its cycles.  So every
sampler draws pi directly, uniformly among the derangements with a
fitting number of cycles, then draws ``xs`` once and builds one grid:
each draw is uniform over the grids it may return, and never retries.

pi is one uniform rank below c(n, lo, hi), the number of derangements
of n elements with between lo and hi cycles, read off the recursion
c(m, lo, hi) = (m - 1) * (c(m - 1, lo, hi) + c(m - 2, lo - 1, hi - 1)):
the last of m elements either follows one of the other m - 1 in a
cycle of three or more, or is paired with one of them in a 2-cycle.

The counts are memoized in ``_COUNTS`` for the whole process, which
is never trimmed.  A draw at size n keeps O(n) counts of up to
O(n log n) bits, so one draw at n = 3200 keeps 6.7 MB of integers
(``random_knot``), 13 MB (``random_grid``) or 26 MB
(``random_link(rng, n, 3)``), plus 0.7 to 1.4 MB of keys.  selftest
draws only n <= 10: all its draws keep 54 counts, about 7 kB.
"""

from __future__ import annotations

from .grid import GridDiagram, new_grid

__all__ = ["random_grid", "random_knot", "random_link"]

_COUNTS = {}  # (m, lo, hi), bounds clamped -> c(m, lo, hi)


def _count(m, lo, hi):
    """c(m, lo, hi), with the cycle bounds clamped to what m elements
    can have (0 to m // 2).  The counts are memoized for the process and
    filled bottom-up from an explicit stack, so any n works under the
    default recursion limit; a sampler at size n touches O(n) of them."""
    # conditional clamps are faster under CPython 3.11 than max and min
    half = m // 2
    key = (m, lo if lo > 0 else 0, hi if hi < half else half)
    count = _COUNTS.get(key)
    if count is None:
        stack = [key]
        while stack:
            m, lo, hi = top = stack[-1]
            if m < 2 or lo > hi:
                _COUNTS[top] = int(m == 0 and lo <= hi)
            else:
                subs = ((m - 1, lo, min(hi, (m - 1) // 2)),
                        (m - 2, max(lo - 1, 0), min(hi - 1, (m - 2) // 2)))
                missing = [k for k in subs if k not in _COUNTS]
                if missing:
                    stack += missing
                    continue
                _COUNTS[top] = (m - 1) * (_COUNTS[subs[0]] + _COUNTS[subs[1]])
            stack.pop()
        count = _COUNTS[key]
    return count


def _sample(rng, n, fewest, most):
    """A uniformly random valid n-grid with between ``fewest`` and
    ``most`` components.  A component spans at least two columns, so
    ``n < 2 * fewest`` (or ``n < 2``) fits no grid and raises
    ValueError before ``rng`` is used."""
    if n < 2 * max(fewest, 1):
        raise ValueError(f"no {n}-grid has {fewest} or more components")
    rank = rng.randrange(_count(n, fewest, most))
    # walk the recursion down: at size m the last remaining label either
    # follows or pairs with partner labels[q]; a pair's partner leaves
    # the labels too, swapped out by the last one
    labels = list(range(n))
    steps = []
    m, lo, hi = n, fewest, most
    while m:
        longer = _count(m - 1, lo, hi)
        q, rank = divmod(rank, longer + _count(m - 2, lo - 1, hi - 1))
        last = labels.pop()
        partner = labels[q]
        if rank < longer:
            steps.append((last, partner, True))
            m -= 1
        else:
            rank -= longer
            labels[q] = labels[-1]
            labels.pop()
            steps.append((last, partner, False))
            m, lo, hi = m - 2, lo - 1, hi - 1
    # build pi bottom-up: each label joins the derangement of the labels
    # left after it
    pi = [0] * n
    for last, partner, follows in reversed(steps):
        pi[last] = pi[partner] if follows else partner
        pi[partner] = last
    xs = list(range(n))
    rng.shuffle(xs)
    os = [0] * n
    for c, p in enumerate(pi):
        os[p] = xs[c]
    return new_grid(n, xs, os)


def random_grid(rng, n) -> GridDiagram:
    """A uniformly random valid n-grid, drawn directly."""
    return _sample(rng, n, 1, n)


def random_knot(rng, n) -> GridDiagram:
    """A uniformly random single-component n-grid, drawn directly."""
    return _sample(rng, n, 1, 1)


def random_link(rng, n, min_components=2) -> GridDiagram:
    """A uniformly random n-grid with at least ``min_components``
    components, drawn directly whatever ``min_components`` is."""
    return _sample(rng, n, min_components, n)
