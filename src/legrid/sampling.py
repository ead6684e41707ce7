"""Seedable random grid diagrams for the property suite.

A grid is its X rows ``xs`` plus its tracing permutation pi: pi(c) is
the column of the O in row ``xs[c]``, so ``os[pi(c)] == xs[c]``.  For
uniform markers pi is uniform and independent of ``xs``, a shared cell
is a fixed point of pi and the components are its cycles.  So every
sampler redraws pi alone until it fits, then draws ``xs`` once and
builds one grid: each draw is uniform over the grids it may return.
"""

from __future__ import annotations

from .grid import GridDiagram, _trace, new_grid

__all__ = ["random_grid", "random_knot", "random_link"]


def _sample(rng, n, fewest, most):
    """A uniformly random valid n-grid with between ``fewest`` and
    ``most`` components.  A component spans at least two columns, so
    ``n < 2 * fewest`` (or ``n < 2``) fits no grid and raises
    ValueError before ``rng`` is used."""
    if n < 2 * max(fewest, 1):
        raise ValueError(f"no {n}-grid has {fewest} or more components")
    pi = list(range(n))
    while True:
        rng.shuffle(pi)
        if all(p != c for c, p in enumerate(pi)) and fewest <= _trace(pi, range(n))[1] <= most:
            break
    xs = list(range(n))
    rng.shuffle(xs)
    os = [0] * n
    for c, p in enumerate(pi):
        os[p] = xs[c]
    return new_grid(n, xs, os)


def random_grid(rng, n) -> GridDiagram:
    """A uniformly random valid n-grid: about e reshuffles of pi."""
    return _sample(rng, n, 1, n)


def random_knot(rng, n) -> GridDiagram:
    """A uniformly random single-component n-grid.  One pi in n is a
    single cycle, so it takes about n reshuffles."""
    return _sample(rng, n, 1, 1)


def random_link(rng, n, min_components=2) -> GridDiagram:
    """A uniformly random n-grid with at least ``min_components``
    components.  The reshuffles grow quickly as ``min_components``
    nears n/2."""
    return _sample(rng, n, min_components, n)
