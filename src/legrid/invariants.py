"""Classical and relative invariants of grid-diagram components.

tb and the rotation number come from the front: writhe minus half the
cusps, and half the down-minus-up cusp difference.  Independently, tb
is recomputed as the linking number of a component with its contact
push-off: the rectilinear curve offset by a third of a cell along the
front's vertical direction, counted by brute force over segment pairs.
The two routes share no code; :func:`classical` checks them against
each other and raises :class:`OracleMismatch` if they ever disagree.

Relative invariants of an ordered component pair are the differences
of the per-component values; in this model every pair is homologous
and the Seifert framing splits per component, so the differences are
the full content of the pair invariants.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .errors import OracleMismatch, ParityViolation, SameComponent
from .grid import Convention, FrontData, GridDiagram, to_front

__all__ = [
    "ClassicalInvariants",
    "OrientationFlag",
    "RelativeInvariants",
    "tb_front",
    "tb_grid_oracle",
    "rot",
    "classical",
    "component_grid",
    "relative_invariants",
]


@dataclass(frozen=True)
class ClassicalInvariants:
    """The classical triple of one component, with both transverse
    push-offs: sl_pos = tb - r and sl_neg = tb + r."""

    tb: int
    r: int
    sl_pos: int
    sl_neg: int

    def __post_init__(self):
        if self.sl_pos != self.tb - self.r or self.sl_neg != self.tb + self.r:
            raise ValueError("push-off relation violated: sl_pos = tb - r, sl_neg = tb + r")

    @classmethod
    def from_tb_rot(cls, tb, r):
        return cls(tb=tb, r=r, sl_pos=tb - r, sl_neg=tb + r)


@dataclass(frozen=True)
class OrientationFlag:
    """Surface-orientation and coorientation choices for a pair.

    Flipping the surface orientation negates both the relative rotation
    number and the relative self-linking number; flipping the
    coorientation negates only the self-linking side.  tb is blind to
    both.
    """

    surface: int = 1
    coorientation: int = 1

    def __post_init__(self):
        if self.surface not in (1, -1) or self.coorientation not in (1, -1):
            raise ValueError("orientation entries must be +1 or -1")

    def flipped(self):
        return replace(self, surface=-self.surface)

    @property
    def rot_sign(self):
        return self.surface

    @property
    def sl_sign(self):
        return self.surface * self.coorientation


@dataclass(frozen=True)
class RelativeInvariants:
    """Relative (tb, r, sl) of an ordered, homologous component pair."""

    tb_rel: int
    r_rel: int
    sl_rel: int
    orientation: OrientationFlag = field(default_factory=OrientationFlag)

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
    return f.writhe(c) - counts.total // 2


def rot(f: FrontData, c) -> int:
    """Half the down-minus-up cusp difference of component ``c``."""
    counts = f.cusp_counts(c)
    return (counts.down - counts.up) // 2


def tb_grid_oracle(g: GridDiagram, c, conv: Convention = Convention.NW_SE) -> int:
    """Push-off route: lk of the component with its offset copy.

    Coordinates are scaled by 3 so that the one-third-cell offset stays
    in exact integer arithmetic; strict interior tests then never meet
    a boundary case.  Deliberately independent of :func:`to_front`.
    """
    comp = g.component(c)
    if conv is Convention.NW_SE:
        dx, dy, sign_mul = 1, 1, 1
    else:
        dx, dy, sign_mul = -1, 1, -1

    verticals = []  # (x, ylo, yhi, direction)
    horizontals = []  # (y, xlo, xhi, direction)
    for col in sorted(comp.columns):
        y_from, y_to = 3 * g.os[col], 3 * g.xs[col]
        verticals.append(
            (3 * col, min(y_from, y_to), max(y_from, y_to), 1 if y_to > y_from else -1)
        )
    for row in sorted(comp.rows):
        x_from, x_to = 3 * g.x_col_by_row[row], 3 * g.o_col_by_row[row]
        horizontals.append(
            (3 * row, min(x_from, x_to), max(x_from, x_to), 1 if x_to > x_from else -1)
        )

    copy_verticals = [(x + dx, ylo + dy, yhi + dy, d) for x, ylo, yhi, d in verticals]
    copy_horizontals = [(y + dy, xlo + dx, xhi + dx, d) for y, xlo, xhi, d in horizontals]

    total = 0
    for x, ylo, yhi, vd in verticals:
        for y, xlo, xhi, hd in copy_horizontals:
            if xlo < x < xhi and ylo < y < yhi:
                total += -vd * hd * sign_mul
    for x, ylo, yhi, vd in copy_verticals:
        for y, xlo, xhi, hd in horizontals:
            if xlo < x < xhi and ylo < y < yhi:
                total += -vd * hd * sign_mul
    if total % 2:
        raise ParityViolation(
            f"component {c} and its push-off cross an odd signed number of times ({total})"
        )
    return total // 2


def component_grid(g: GridDiagram, c) -> GridDiagram:
    """Component ``c`` alone, as a one-component grid: its columns in
    order, with the rows of its markers compressed to ranks.

    Every self-crossing and cusp of a component involves only its own
    segments, and rank compression keeps the strict order of their
    ends, so the sub-grid has the component's front and tb and r.
    Equal components give equal (and equally hashed) sub-grids.
    """
    comp = g.component(c)
    cols = sorted(comp.columns)
    rank = {row: i for i, row in enumerate(sorted(comp.rows))}
    return GridDiagram(
        n=len(cols),
        xs=tuple(rank[g.xs[col]] for col in cols),
        os=tuple(rank[g.os[col]] for col in cols),
    )


def classical(g: GridDiagram, c, conv: Convention = Convention.NW_SE) -> ClassicalInvariants:
    """Classical triple of one component, cross-checked over both tb
    routes the first time it is asked for.

    The result is memoized per component and convention on the grid
    instance, as :func:`to_front` memoizes the front.
    """
    cache = g.__dict__.setdefault("_classical", {})
    inv = cache.get((c, conv))
    if inv is not None:
        return inv
    f = to_front(g, conv)
    tb = tb_front(f, c)
    oracle = tb_grid_oracle(g, c, conv)
    if tb != oracle:
        raise OracleMismatch(
            f"component {c}: front route gives tb={tb}, push-off route gives {oracle}"
        )
    inv = cache[c, conv] = ClassicalInvariants.from_tb_rot(tb, rot(f, c))
    return inv


def relative_invariants(
    g: GridDiagram,
    k,
    j,
    orientation: OrientationFlag = OrientationFlag(),
    conv: Convention = Convention.NW_SE,
) -> RelativeInvariants:
    """Relative (tb, r, sl) of component ``k`` relative to ``j``."""
    if k == j:
        raise SameComponent(f"relative invariants need two distinct components, got {k}")
    return RelativeInvariants.between(classical(g, k, conv), classical(g, j, conv), orientation)
