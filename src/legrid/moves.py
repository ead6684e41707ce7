"""Grid moves: translations, commutations and (de)stabilizations.

Every move is a total function returning a new diagram, so traces are
trivially reproducible.  Stabilization replaces one marker by the
three-marker L-pattern of a 2x2 block on the enlarged grid; the
subtype names the block corner that receives the lone marker of the
opposite kind.  Which subtypes realize the Legendrian stabilizations
is convention-dependent and was classified empirically against the
pinned front convention (the table is re-derived exhaustively in the
test suite):

    X:NE  X:SW  O:NE  O:SW    preserve (tb, r)          isotopy subtypes
    X:NW  O:SE                tb - 1, r + 1             positive stabilization
    X:SE  O:NW                tb - 1, r - 1             negative stabilization

Cyclic translations are isotopies of the underlying link but may carry
a marker across the grid boundary and change the front's cusp counts;
:func:`apply_script` flags such steps with ``cusp-change`` so they can
be excluded from front-invariance checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .errors import BadCell, InterleavingSpans, LegridError, ParseError, SameComponent, ScriptStepError
from .grid import Convention, GridDiagram, _int_token, new_grid, to_front
from .invariants import ClassicalInvariants, RelativeInvariants, classical

__all__ = [
    "Translate",
    "Commute",
    "Stabilize",
    "Destabilize",
    "LegendrianStab",
    "GridMove",
    "MoveScript",
    "TraceStep",
    "ScriptResult",
    "ISOTOPY_SUBTYPES",
    "STAB_PLUS",
    "STAB_MINUS",
    "translate",
    "commute",
    "stabilize_grid",
    "destabilize_grid",
    "legendrian_stabilize",
    "apply_move",
    "column_map",
    "follow",
    "changes_cusps",
    "apply_script",
    "parse_move_script",
    "move_to_text",
]

_DIRECTIONS = ("up", "down", "left", "right")
_SUBTYPES = ("NE", "NW", "SE", "SW")

# Empirical classification of stabilization subtypes against the
# default front convention (verified exhaustively in tests).
ISOTOPY_SUBTYPES = frozenset({("X", "NE"), ("X", "SW"), ("O", "NE"), ("O", "SW")})
STAB_PLUS = {"X": "NW", "O": "SE"}
STAB_MINUS = {"X": "SE", "O": "NW"}


@dataclass(frozen=True)
class Translate:
    direction: str


@dataclass(frozen=True)
class Commute:
    axis: str  # "row" or "col"
    index: int


@dataclass(frozen=True)
class Stabilize:
    marker: str  # "X" or "O"
    column: int
    subtype: str  # "NE", "NW", "SE", "SW"


@dataclass(frozen=True)
class Destabilize:
    column: int
    row: Optional[int] = None


@dataclass(frozen=True)
class LegendrianStab:
    component: int
    sign: int


GridMove = Union[Translate, Commute, Stabilize, Destabilize, LegendrianStab]


@dataclass(frozen=True)
class MoveScript:
    moves: tuple[GridMove, ...]


def translate(g: GridDiagram, direction: str) -> GridDiagram:
    """Cyclically shift all markers one step in the given direction."""
    n = g.n
    if direction == "up":
        return new_grid(n, [(r + 1) % n for r in g.xs], [(r + 1) % n for r in g.os])
    if direction == "down":
        return new_grid(n, [(r - 1) % n for r in g.xs], [(r - 1) % n for r in g.os])
    if direction == "left":
        return new_grid(n, [g.xs[(c + 1) % n] for c in range(n)], [g.os[(c + 1) % n] for c in range(n)])
    if direction == "right":
        return new_grid(n, [g.xs[(c - 1) % n] for c in range(n)], [g.os[(c - 1) % n] for c in range(n)])
    raise BadCell(f"unknown direction {direction!r}")


def _interleaving(a_pair, b_pair):
    """True unless the two closed spans are disjoint or strictly nested.
    Spans sharing an endpoint value count as interleaving."""
    a_lo, a_hi = min(a_pair), max(a_pair)
    b_lo, b_hi = min(b_pair), max(b_pair)
    if set(a_pair) & set(b_pair):
        return True
    disjoint = a_hi < b_lo or b_hi < a_lo
    nested = (a_lo < b_lo and b_hi < a_hi) or (b_lo < a_lo and a_hi < b_hi)
    return not (disjoint or nested)


def commute(g: GridDiagram, index: int, axis: str) -> GridDiagram:
    """Swap adjacent rows or columns ``index`` and ``index + 1``.

    Legal only when the two lines' marker spans are disjoint or
    strictly nested; otherwise raises InterleavingSpans.
    """
    n = g.n
    if axis not in ("row", "col"):
        raise BadCell(f"axis must be 'row' or 'col', got {axis!r}")
    if not 0 <= index <= n - 2:
        raise BadCell(f"cannot commute lines {index},{index + 1} of an {n}-grid")
    i = index
    if axis == "col":
        if _interleaving((g.xs[i], g.os[i]), (g.xs[i + 1], g.os[i + 1])):
            raise InterleavingSpans(f"columns {i} and {i + 1} interleave")
        xs = list(g.xs)
        os = list(g.os)
        xs[i], xs[i + 1] = xs[i + 1], xs[i]
        os[i], os[i + 1] = os[i + 1], os[i]
        return new_grid(n, xs, os)
    span_a = (g.x_col_by_row[i], g.o_col_by_row[i])
    span_b = (g.x_col_by_row[i + 1], g.o_col_by_row[i + 1])
    if _interleaving(span_a, span_b):
        raise InterleavingSpans(f"rows {i} and {i + 1} interleave")
    swap = {i: i + 1, i + 1: i}
    xs = [swap.get(r, r) for r in g.xs]
    os = [swap.get(r, r) for r in g.os]
    return new_grid(n, xs, os)


def _subtype_corner(subtype):
    if subtype not in _SUBTYPES:
        raise BadCell(f"unknown stabilization subtype {subtype!r}")
    east = 1 if "E" in subtype else 0
    north = 1 if "N" in subtype else 0
    return east, north


def stabilize_grid(g: GridDiagram, marker: str, column: int, subtype: str) -> GridDiagram:
    """Replace one marker by the L-pattern of the given subtype on an
    (n+1)-grid.

    The stabilized marker at (c, r) becomes a 2x2 block on columns
    c, c+1 and rows r, r+1; the lone marker of the opposite kind sits
    at the block corner named by the subtype and the two markers of
    the original kind fill the cells adjacent to it.
    """
    n = g.n
    if marker not in ("X", "O"):
        raise BadCell(f"marker must be 'X' or 'O', got {marker!r}")
    if not 0 <= column < n:
        raise BadCell(f"no column {column} in an {n}-grid")
    east, north = _subtype_corner(subtype)
    c = column
    r = g.xs[c] if marker == "X" else g.os[c]

    xs = [0] * (n + 1)
    os = [0] * (n + 1)

    def place(kind, col, row):
        if kind == "X":
            xs[col] = row
        else:
            os[col] = row

    for col in range(n):
        for kind, row in (("X", g.xs[col]), ("O", g.os[col])):
            if col == c and kind == marker:
                continue  # the stabilized marker itself
            new_col = col if col < c else (col + 1 if col > c else c + 1 - east)
            new_row = row if row < r else (row + 1 if row > r else r + 1 - north)
            place(kind, new_col, new_row)

    lone = "O" if marker == "X" else "X"
    place(lone, c + east, r + north)
    place(marker, c + 1 - east, r + north)
    place(marker, c + east, r + 1 - north)
    return new_grid(n + 1, xs, os)


def _find_l_block(g, c, rr):
    """Return (lone_kind, pair_kind) if columns c,c+1 x rows rr,rr+1
    hold exactly three markers forming an L, else None."""
    cells = {}
    for col in (c, c + 1):
        for kind, row in (("X", g.xs[col]), ("O", g.os[col])):
            if row in (rr, rr + 1):
                cells[(col, row)] = kind
    if len(cells) != 3:
        return None
    missing = [
        (col, row)
        for col in (c, c + 1)
        for row in (rr, rr + 1)
        if (col, row) not in cells
    ][0]
    elbow = (c + (c + 1) - missing[0], rr + (rr + 1) - missing[1])
    lone_kind = cells[elbow]
    others = [kind for cell, kind in cells.items() if cell != elbow]
    if others[0] != others[1] or others[0] == lone_kind:
        return None
    return lone_kind, others[0]


def destabilize_grid(g: GridDiagram, column: int, row: Optional[int] = None) -> GridDiagram:
    """Collapse the three-marker L-block found in columns
    ``column, column + 1`` back to a single marker.

    When several row positions carry an L-block, the lowest one is
    collapsed unless ``row`` pins the block explicitly.
    """
    n = g.n
    c = column
    if not 0 <= c <= n - 2:
        raise BadCell(f"no column pair {c},{c + 1} in an {n}-grid")
    candidates = [row] if row is not None else range(n - 1)
    for rr in candidates:
        if not 0 <= rr <= n - 2:
            raise BadCell(f"no row pair {rr},{rr + 1} in an {n}-grid")
        found = _find_l_block(g, c, rr)
        if found is None:
            continue
        _, pair_kind = found
        xs = [0] * (n - 1)
        os = [0] * (n - 1)

        def place(kind, col, row_):
            if kind == "X":
                xs[col] = row_
            else:
                os[col] = row_

        for col in range(n):
            for kind, row_ in (("X", g.xs[col]), ("O", g.os[col])):
                if col in (c, c + 1) and row_ in (rr, rr + 1):
                    continue  # block marker
                new_col = col if col < c else (c if col <= c + 1 else col - 1)
                new_row = row_ if row_ < rr else (rr if row_ <= rr + 1 else row_ - 1)
                place(kind, new_col, new_row)
        place(pair_kind, c, rr)
        return new_grid(n - 1, xs, os)
    raise BadCell(f"no destabilizable L-block in columns {c},{c + 1}")


def legendrian_stabilize(g: GridDiagram, component: int, sign: int) -> GridDiagram:
    """Apply the grid subtype realizing the signed Legendrian
    stabilization to one component: tb drops by 1 and the rotation
    number moves by ``sign``.

    The X marker in the component's lowest column is stabilized.
    """
    comp = g.component(component)
    if sign not in (1, -1):
        raise BadCell(f"stabilization sign must be +1 or -1, got {sign}")
    subtype = STAB_PLUS["X"] if sign > 0 else STAB_MINUS["X"]
    return stabilize_grid(g, "X", min(comp.columns), subtype)


def apply_move(g: GridDiagram, move: GridMove) -> GridDiagram:
    if isinstance(move, Translate):
        return translate(g, move.direction)
    if isinstance(move, Commute):
        return commute(g, move.index, move.axis)
    if isinstance(move, Stabilize):
        return stabilize_grid(g, move.marker, move.column, move.subtype)
    if isinstance(move, Destabilize):
        return destabilize_grid(g, move.column, move.row)
    if isinstance(move, LegendrianStab):
        return legendrian_stabilize(g, move.component, move.sign)
    raise BadCell(f"unknown move {move!r}")


def column_map(g_before: GridDiagram, move: GridMove):
    """Map a column of the source diagram to a column of the moved
    diagram lying on the same strand; used to follow components."""
    n = g_before.n
    if isinstance(move, Translate):
        if move.direction == "left":
            return lambda col: (col - 1) % n
        if move.direction == "right":
            return lambda col: (col + 1) % n
        return lambda col: col
    if isinstance(move, Commute):
        if move.axis == "row":
            return lambda col: col
        i = move.index
        swap = {i: i + 1, i + 1: i}
        return lambda col: swap.get(col, col)
    if isinstance(move, (Stabilize, LegendrianStab)):
        if isinstance(move, LegendrianStab):
            c = min(g_before.component(move.component).columns)
        else:
            c = move.column
        return lambda col: col if col <= c else col + 1
    if isinstance(move, Destabilize):
        c = move.column
        return lambda col: col if col <= c else (c if col == c + 1 else col - 1)
    raise BadCell(f"unknown move {move!r}")


def follow(g: GridDiagram, move: GridMove, moved: GridDiagram) -> tuple[int, ...]:
    """For each component of ``g``, its index in ``moved``, the result
    of applying ``move`` to ``g``: the image of its lowest column under
    :func:`column_map`."""
    cmap = column_map(g, move)
    owner = moved.component_by_column
    return tuple(owner[cmap(min(comp.columns))] for comp in g.components)


def changes_cusps(
    g: GridDiagram, move: GridMove, moved: GridDiagram, image, conv: Convention = Convention.NW_SE
) -> bool:
    """Whether ``move``, taking ``g`` to ``moved`` with components
    mapped by ``image`` (see :func:`follow`), is a translation that
    changes some component's cusp counts: the step that
    :func:`apply_script` flags ``cusp-change``."""
    if not isinstance(move, Translate):
        return False
    before = to_front(g, conv).cusps
    after = to_front(moved, conv).cusps
    return any(before[c] != after[i] for c, i in enumerate(image))


@dataclass(frozen=True)
class TraceStep:
    index: int
    move: Optional[GridMove]
    invariants: tuple[ClassicalInvariants, ...]
    relative: Optional[RelativeInvariants]
    flags: tuple[str, ...]


@dataclass(frozen=True)
class ScriptResult:
    final: GridDiagram
    trace: tuple[TraceStep, ...]


def _snapshot(g, index, move, pair, flags, conv):
    invs = tuple(classical(g, comp.index, conv) for comp in g.components)
    rel = None
    if pair is not None:
        k, j = pair
        if k == j:
            raise SameComponent(f"relative invariants need two distinct components, got {k}")
        rel = RelativeInvariants.between(invs[k], invs[j])
    return TraceStep(index=index, move=move, invariants=invs, relative=rel, flags=flags)


def apply_script(
    g: GridDiagram, script: MoveScript, conv: Convention = Convention.NW_SE
) -> ScriptResult:
    """Run a move script, recording per-component invariants and the
    anchored relative triple after every step.

    The relative triple follows the first two components of the
    starting diagram through the moves (see :func:`follow`, so cyclic
    translations cannot silently swap the pair).  A translation that
    changes a component's cusp counts is flagged ``cusp-change``.  The
    first illegal step aborts the run with its index.
    """
    pair = (0, 1) if len(g.components) >= 2 else None
    trace = [_snapshot(g, 0, None, pair, (), conv)]
    current = g
    for idx, move in enumerate(script.moves, start=1):
        try:
            moved = apply_move(current, move)
        except LegridError as e:
            raise ScriptStepError(idx, e) from e
        image = follow(current, move, moved)
        flags = ("cusp-change",) if changes_cusps(current, move, moved, image, conv) else ()
        if pair is not None:
            pair = (image[pair[0]], image[pair[1]])
        trace.append(_snapshot(moved, idx, move, pair, flags, conv))
        current = moved
    return ScriptResult(final=current, trace=tuple(trace))


# -- script text format ------------------------------------------------------

def move_to_text(move: GridMove) -> str:
    if isinstance(move, Translate):
        return f"translate {move.direction}"
    if isinstance(move, Commute):
        return f"commute {move.axis} {move.index}"
    if isinstance(move, Stabilize):
        return f"stab {move.marker} {move.column} {move.subtype}"
    if isinstance(move, Destabilize):
        if move.row is None:
            return f"destab {move.column}"
        return f"destab {move.column} {move.row}"
    if isinstance(move, LegendrianStab):
        return f"lstab {move.component} {'+' if move.sign > 0 else '-'}"
    raise BadCell(f"unknown move {move!r}")


def _parse_int(token, line_no, what):
    try:
        return _int_token(token)
    except ValueError:
        raise ParseError(line_no, 1, f"{what} must be an integer, got {token!r}") from None


def parse_move_script(text: str) -> MoveScript:
    """Parse the one-move-per-line script format; ``#`` comments and
    blank lines are ignored and errors carry line numbers."""
    moves = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        verb = parts[0]
        if verb == "translate" and len(parts) == 2:
            if parts[1] not in _DIRECTIONS:
                raise ParseError(line_no, 1, f"unknown direction {parts[1]!r}")
            moves.append(Translate(parts[1]))
        elif verb == "commute" and len(parts) == 3:
            if parts[1] not in ("row", "col"):
                raise ParseError(line_no, 1, f"axis must be row or col, got {parts[1]!r}")
            moves.append(Commute(parts[1], _parse_int(parts[2], line_no, "index")))
        elif verb == "stab" and len(parts) == 4:
            if parts[1] not in ("X", "O"):
                raise ParseError(line_no, 1, f"marker must be X or O, got {parts[1]!r}")
            if parts[3] not in _SUBTYPES:
                raise ParseError(line_no, 1, f"subtype must be one of {', '.join(_SUBTYPES)}")
            moves.append(Stabilize(parts[1], _parse_int(parts[2], line_no, "column"), parts[3]))
        elif verb == "destab" and len(parts) in (2, 3):
            row = _parse_int(parts[2], line_no, "row") if len(parts) == 3 else None
            moves.append(Destabilize(_parse_int(parts[1], line_no, "column"), row))
        elif verb == "lstab" and len(parts) == 3:
            if parts[2] not in ("+", "-"):
                raise ParseError(line_no, 1, f"sign must be + or -, got {parts[2]!r}")
            moves.append(
                LegendrianStab(_parse_int(parts[1], line_no, "component"), 1 if parts[2] == "+" else -1)
            )
        else:
            raise ParseError(line_no, 1, f"unrecognized move: {line!r}")
    return MoveScript(moves=tuple(moves))
