"""Seedable random grid diagrams for the property suite."""

from __future__ import annotations

from .grid import GridDiagram, _trace, new_grid

__all__ = ["random_grid", "random_knot", "random_link"]

_MAX_TRIES = 64  # draws of random_knot and random_link before their fallback


def _draw(rng, n):
    """The marker lists of :func:`random_grid`'s draw."""
    xs = list(range(n))
    os = list(range(n))
    rng.shuffle(xs)
    while True:
        rng.shuffle(os)
        if all(x != o for x, o in zip(xs, os)):
            return xs, os


def _count_components(xs, os):
    """Traced as the grid constructor traces, so a rejected draw builds
    no grid."""
    return _trace(xs, sorted(range(len(os)), key=os.__getitem__))[1]


def random_grid(rng, n) -> GridDiagram:
    """A uniformly random valid n-grid (rejection on shared cells)."""
    return new_grid(n, *_draw(rng, n))


def random_knot(rng, n) -> GridDiagram:
    """A random single-component n-grid.  Falls back to a torus-style
    spiral if rejection sampling runs out of tries."""
    for _ in range(_MAX_TRIES):
        xs, os = _draw(rng, n)
        if _count_components(xs, os) == 1:
            return new_grid(n, xs, os)
    xs = list(range(n))
    return new_grid(n, xs, [(r + 1) % n for r in xs])


def random_link(rng, n, min_components=2) -> GridDiagram:
    """A random n-grid with at least the requested number of
    components.  Falls back to a block-diagonal stack of small knots."""
    for _ in range(_MAX_TRIES):
        xs, os = _draw(rng, n)
        if _count_components(xs, os) >= min_components:
            return new_grid(n, xs, os)
    # Block-diagonal fallback: min_components unknots plus a remainder knot.
    if n < 2 * min_components:
        raise ValueError(f"cannot fit {min_components} components in an {n}-grid")
    xs = []
    os = []
    base = 0
    for i in range(min_components):
        size = 2 if i < min_components - 1 else n - base
        block = random_knot(rng, size)
        xs.extend(base + r for r in block.xs)
        os.extend(base + r for r in block.os)
        base += size
    return new_grid(n, xs, os)
