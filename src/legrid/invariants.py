"""Classical and relative invariants of grid-diagram components.

tb and the rotation number come from the front: writhe minus half the
cusps, and half the down-minus-up cusp difference.  Independently, tb
is recomputed as the linking number of a component with its contact
push-off: the rectilinear curve offset by a third of a cell along the
front's vertical direction, counted by brute force over segment pairs.
The two routes share no counting code; :func:`classical` checks them
against each other and raises :class:`OracleMismatch` if they ever
disagree.  Both read NW_SE only: ``grid.reading`` turns the NE_SW
reading into the NW_SE reading of another grid, so only the test
suite's brute-force crossing and cusp references check that reading
independently.

Relative invariants of an ordered component pair are the differences
of the per-component values; in this model every pair is homologous
and the Seifert framing splits per component, so the differences are
the full content of the pair invariants.
"""

from __future__ import annotations

from .errors import OracleMismatch, ParityViolation, SameComponent, _Value, _check_sign
from .grid import FrontData, GridDiagram, _check_component, _lines, new_grid, to_front

__all__ = [
    "ClassicalInvariants",
    "OrientationFlag",
    "RelativeInvariants",
    "tb_front",
    "tb_grid_oracle",
    "rot",
    "classical",
    "component_patterns",
    "component_grid",
    "relative_invariants",
]


class ClassicalInvariants(_Value):
    """The classical triple of one component, with both transverse
    push-offs: sl_pos = tb - r and sl_neg = tb + r."""

    __slots__ = ("tb", "r", "sl_pos", "sl_neg")

    def __init__(self, tb: int, r: int, sl_pos: int, sl_neg: int):
        if sl_pos != tb - r or sl_neg != tb + r:
            raise ValueError("push-off relation violated: sl_pos = tb - r, sl_neg = tb + r")
        object.__setattr__(self, "tb", tb)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "sl_pos", sl_pos)
        object.__setattr__(self, "sl_neg", sl_neg)

    @classmethod
    def from_tb_rot(cls, tb, r):
        return cls(tb=tb, r=r, sl_pos=tb - r, sl_neg=tb + r)


class OrientationFlag(_Value):
    """Surface-orientation and coorientation choices for a pair.

    Flipping the surface orientation negates both the relative rotation
    number and the relative self-linking number; flipping the
    coorientation negates only the self-linking side.  tb is blind to
    both.
    """

    __slots__ = ("surface", "coorientation")

    def __init__(self, surface: int = 1, coorientation: int = 1):
        _check_sign(surface, "surface")
        _check_sign(coorientation, "coorientation")
        object.__setattr__(self, "surface", surface)
        object.__setattr__(self, "coorientation", coorientation)

    def flipped(self):
        return OrientationFlag(-self.surface, self.coorientation)

    @property
    def rot_sign(self):
        return self.surface

    @property
    def sl_sign(self):
        return self.surface * self.coorientation


class RelativeInvariants(_Value):
    """Relative (tb, r, sl) of an ordered, homologous component pair."""

    __slots__ = ("tb_rel", "r_rel", "sl_rel", "orientation")

    def __init__(self, tb_rel: int, r_rel: int, sl_rel: int, orientation=OrientationFlag()):
        object.__setattr__(self, "tb_rel", tb_rel)
        object.__setattr__(self, "r_rel", r_rel)
        object.__setattr__(self, "sl_rel", sl_rel)
        object.__setattr__(self, "orientation", orientation)

    @classmethod
    def between(cls, inv_k, inv_j, orientation: OrientationFlag = OrientationFlag()):
        """The triple of a pair from the classical triples of its two
        components, ``k`` relative to ``j``."""
        return cls(
            tb_rel=inv_k.tb - inv_j.tb,
            r_rel=orientation.rot_sign * (inv_k.r - inv_j.r),
            sl_rel=orientation.sl_sign * (inv_k.sl_pos - inv_j.sl_pos),
            orientation=orientation,
        )

    @property
    def triple(self):
        return (self.tb_rel, self.r_rel, self.sl_rel)


def tb_front(f: FrontData, c) -> int:
    """Front route: writhe minus half the cusp count."""
    counts = f.cusp_counts(c)
    return f.crossing_matrix[c][c] - counts.total // 2


def rot(f: FrontData, c) -> int:
    """Half the down-minus-up cusp difference of component ``c``."""
    counts = f.cusp_counts(c)
    return (counts.down - counts.up) // 2


def tb_grid_oracle(g: GridDiagram, c) -> int:
    """Push-off route: lk of the component with its offset copy.

    Coordinates are scaled by 3 so that the one-third-cell offset stays
    in exact integer arithmetic; strict interior tests then never meet
    a boundary case.  Deliberately independent of :func:`to_front`.
    """
    columns, rows = _lines(g, c)

    verticals = []  # (x, ylo, yhi, direction)
    horizontals = []  # (y, xlo, xhi, direction)
    for col in columns:
        y_from, y_to = 3 * g.os[col], 3 * g.xs[col]
        verticals.append(
            (3 * col, min(y_from, y_to), max(y_from, y_to), 1 if y_to > y_from else -1)
        )
    for row in rows:
        x_from, x_to = 3 * g.x_col_by_row[row], 3 * g.o_col_by_row[row]
        horizontals.append(
            (3 * row, min(x_from, x_to), max(x_from, x_to), 1 if x_to > x_from else -1)
        )

    copy_verticals = [(x + 1, ylo + 1, yhi + 1, d) for x, ylo, yhi, d in verticals]
    copy_horizontals = [(y + 1, xlo + 1, xhi + 1, d) for y, xlo, xhi, d in horizontals]

    total = 0
    for x, ylo, yhi, vd in verticals:
        for y, xlo, xhi, hd in copy_horizontals:
            if xlo < x < xhi and ylo < y < yhi:
                total -= vd * hd
    for x, ylo, yhi, vd in copy_verticals:
        for y, xlo, xhi, hd in horizontals:
            if xlo < x < xhi and ylo < y < yhi:
                total -= vd * hd
    if total % 2:
        raise ParityViolation(
            f"component {c} and its push-off cross an odd signed number of times ({total})"
        )
    return total // 2


def component_patterns(g: GridDiagram) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """Every component's pattern (see :func:`_component_pattern`), in
    component order."""
    return tuple(_component_pattern(g, k) for k in range(g.component_count))


def _component_pattern(g: GridDiagram, c):
    """Component ``c``'s markers ``(xs, os)``: its columns in order, with
    the rows of its markers compressed to ranks."""
    columns, rows = _lines(g, c)
    rank = {r: i for i, r in enumerate(rows)}
    return tuple(rank[g.xs[col]] for col in columns), tuple(rank[g.os[col]] for col in columns)


def component_grid(g: GridDiagram, c) -> GridDiagram:
    """Component ``c`` alone, as a one-component grid: its entry of
    :func:`component_patterns`.

    Every self-crossing and cusp of a component involves only its own
    segments, and rank compression keeps the strict order of their
    ends, so the sub-grid has the component's front and tb and r.
    Equal components give equal (and equally hashed) sub-grids.
    """
    xs, os = _component_pattern(g, c)
    return new_grid(len(xs), xs, os)


def classical(g: GridDiagram, c) -> ClassicalInvariants:
    """Classical triple of one component, cross-checked over both tb
    routes the first time it is asked for.

    The result is memoized per component on ``g``, as :func:`to_front`
    memoizes the front.
    """
    _check_component(c, g.component_count)  # before the memo, which 1.0 and True would hit
    cache = g.__dict__.setdefault("_classical", {})
    inv = cache.get(c)
    if inv is not None:
        return inv
    f = to_front(g)
    tb = tb_front(f, c)
    oracle = tb_grid_oracle(g, c)
    if tb != oracle:
        raise OracleMismatch(
            f"component {c}: front route gives tb={tb}, push-off route gives {oracle}"
        )
    inv = cache[c] = ClassicalInvariants.from_tb_rot(tb, rot(f, c))
    return inv


def relative_invariants(
    g: GridDiagram,
    k,
    j,
    orientation: OrientationFlag = OrientationFlag(),
) -> RelativeInvariants:
    """Relative (tb, r, sl) of component ``k`` relative to ``j``."""
    _check_component(k, g.component_count)
    _check_component(j, g.component_count)
    if k == j:
        raise SameComponent(f"relative invariants need two distinct components, got {k}")
    return RelativeInvariants.between(classical(g, k), classical(g, j), orientation)
