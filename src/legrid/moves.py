"""Grid moves: translations, commutations and (de)stabilizations.

Every move is a total function returning a new diagram, so traces are
trivially reproducible.  Each move kind is one frozen dataclass with
``apply(g)``, the moved diagram; ``column_map(g)``, taking a column of
``g`` to a column of the moved diagram on the same strand (see
:func:`follow`); and ``text()``, its script line.  Stabilization replaces one marker by the
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

from .errors import (
    BadCell,
    InterleavingSpans,
    LegridError,
    OracleMismatch,
    ParityViolation,
    ParseError,
    SameComponent,
    ScriptStepError,
)
from .grid import Convention, GridDiagram, _int_token, new_grid, to_front
from .invariants import ClassicalInvariants, RelativeInvariants, classical, component_grid

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
    "apply_move",
    "follow",
    "changes_cusps",
    "apply_script",
    "parse_move_script",
]

_DIRECTIONS = ("up", "down", "left", "right")
_SUBTYPES = ("NE", "NW", "SE", "SW")

# Empirical classification of stabilization subtypes against the
# default front convention (verified exhaustively in tests).
ISOTOPY_SUBTYPES = frozenset({("X", "NE"), ("X", "SW"), ("O", "NE"), ("O", "SW")})
STAB_PLUS = {"X": "NW", "O": "SE"}
STAB_MINUS = {"X": "SE", "O": "NW"}


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


@dataclass(frozen=True)
class Translate:
    direction: str

    def apply(self, g: GridDiagram) -> GridDiagram:
        """Cyclically shift all markers one step in the given direction."""
        n = g.n
        if self.direction == "up":
            return new_grid(n, [(r + 1) % n for r in g.xs], [(r + 1) % n for r in g.os])
        if self.direction == "down":
            return new_grid(n, [(r - 1) % n for r in g.xs], [(r - 1) % n for r in g.os])
        if self.direction == "left":
            return new_grid(n, [g.xs[(c + 1) % n] for c in range(n)], [g.os[(c + 1) % n] for c in range(n)])
        if self.direction == "right":
            return new_grid(n, [g.xs[(c - 1) % n] for c in range(n)], [g.os[(c - 1) % n] for c in range(n)])
        raise BadCell(f"unknown direction {self.direction!r}")

    def column_map(self, g: GridDiagram):
        shift = {"left": -1, "right": 1}.get(self.direction, 0)
        return lambda col: (col + shift) % g.n

    def text(self) -> str:
        return f"translate {self.direction}"


@dataclass(frozen=True)
class Commute:
    axis: str  # "row" or "col"
    index: int

    def apply(self, g: GridDiagram) -> GridDiagram:
        """Swap adjacent rows or columns ``index`` and ``index + 1``.

        Legal only when the two lines' marker spans are disjoint or
        strictly nested; otherwise raises InterleavingSpans.
        """
        n = g.n
        if self.axis not in ("row", "col"):
            raise BadCell(f"axis must be 'row' or 'col', got {self.axis!r}")
        i = self.index
        if not 0 <= i <= n - 2:
            raise BadCell(f"cannot commute lines {i},{i + 1} of an {n}-grid")
        if self.axis == "col":
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

    def column_map(self, g: GridDiagram):
        i = self.index
        swap = {i: i + 1, i + 1: i} if self.axis == "col" else {}
        return lambda col: swap.get(col, col)

    def text(self) -> str:
        return f"commute {self.axis} {self.index}"


@dataclass(frozen=True)
class Stabilize:
    marker: str  # "X" or "O"
    column: int
    subtype: str  # "NE", "NW", "SE", "SW"

    def apply(self, g: GridDiagram) -> GridDiagram:
        """Replace one marker by the L-pattern of the given subtype on an
        (n+1)-grid.

        The stabilized marker at (c, r) becomes a 2x2 block on columns
        c, c+1 and rows r, r+1; the lone marker of the opposite kind sits
        at the block corner named by the subtype and the two markers of
        the original kind fill the cells adjacent to it.
        """
        n, c, marker = g.n, self.column, self.marker
        if marker not in ("X", "O"):
            raise BadCell(f"marker must be 'X' or 'O', got {marker!r}")
        if not 0 <= c < n:
            raise BadCell(f"no column {c} in an {n}-grid")
        if self.subtype not in _SUBTYPES:
            raise BadCell(f"unknown stabilization subtype {self.subtype!r}")
        east = 1 if "E" in self.subtype else 0
        north = 1 if "N" in self.subtype else 0
        r = g.xs[c] if marker == "X" else g.os[c]

        rows = {"X": [0] * (n + 1), "O": [0] * (n + 1)}  # marker kind -> row by column
        for col in range(n):
            for kind, row in (("X", g.xs[col]), ("O", g.os[col])):
                if col == c and kind == marker:
                    continue  # the stabilized marker itself
                new_col = col if col < c else (col + 1 if col > c else c + 1 - east)
                new_row = row if row < r else (row + 1 if row > r else r + 1 - north)
                rows[kind][new_col] = new_row

        lone = "O" if marker == "X" else "X"
        rows[lone][c + east] = r + north
        rows[marker][c + 1 - east] = r + north
        rows[marker][c + east] = r + 1 - north
        return new_grid(n + 1, rows["X"], rows["O"])

    def column_map(self, g: GridDiagram):
        c = self.column
        return lambda col: col if col <= c else col + 1

    def text(self) -> str:
        return f"stab {self.marker} {self.column} {self.subtype}"


@dataclass(frozen=True)
class Destabilize:
    column: int
    row: Optional[int] = None

    def apply(self, g: GridDiagram) -> GridDiagram:
        """Collapse the three-marker L-block found in columns
        ``column, column + 1`` back to a single marker.

        When several row positions carry an L-block, the lowest one is
        collapsed unless ``row`` pins the block explicitly.
        """
        n = g.n
        c = self.column
        if not 0 <= c <= n - 2:
            raise BadCell(f"no column pair {c},{c + 1} in an {n}-grid")
        candidates = [self.row] if self.row is not None else range(n - 1)
        for rr in candidates:
            if not 0 <= rr <= n - 2:
                raise BadCell(f"no row pair {rr},{rr + 1} in an {n}-grid")
            found = _find_l_block(g, c, rr)
            if found is None:
                continue
            _, pair_kind = found
            rows = {"X": [0] * (n - 1), "O": [0] * (n - 1)}  # marker kind -> row by column
            for col in range(n):
                for kind, row in (("X", g.xs[col]), ("O", g.os[col])):
                    if col in (c, c + 1) and row in (rr, rr + 1):
                        continue  # block marker
                    new_col = col if col < c else (c if col <= c + 1 else col - 1)
                    new_row = row if row < rr else (rr if row <= rr + 1 else row - 1)
                    rows[kind][new_col] = new_row
            rows[pair_kind][c] = rr
            return new_grid(n - 1, rows["X"], rows["O"])
        raise BadCell(f"no destabilizable L-block in columns {c},{c + 1}")

    def column_map(self, g: GridDiagram):
        c = self.column
        return lambda col: col if col <= c else (c if col == c + 1 else col - 1)

    def text(self) -> str:
        if self.row is None:
            return f"destab {self.column}"
        return f"destab {self.column} {self.row}"


@dataclass(frozen=True)
class LegendrianStab:
    """The grid subtype realizing the signed Legendrian stabilization of
    one component: tb drops by 1 and the rotation number moves by
    ``sign``.  The X marker in the component's lowest column is
    stabilized."""

    component: int
    sign: int

    def _stabilize(self, g: GridDiagram) -> Stabilize:
        comp = g.component(self.component)
        if self.sign not in (1, -1):
            raise BadCell(f"stabilization sign must be +1 or -1, got {self.sign}")
        subtype = STAB_PLUS["X"] if self.sign > 0 else STAB_MINUS["X"]
        return Stabilize("X", min(comp.columns), subtype)

    def apply(self, g: GridDiagram) -> GridDiagram:
        return self._stabilize(g).apply(g)

    def column_map(self, g: GridDiagram):
        return self._stabilize(g).column_map(g)

    def text(self) -> str:
        return f"lstab {self.component} {'+' if self.sign > 0 else '-'}"


GridMove = Union[Translate, Commute, Stabilize, Destabilize, LegendrianStab]


@dataclass(frozen=True)
class MoveScript:
    moves: tuple[GridMove, ...]


def apply_move(g: GridDiagram, move: GridMove) -> GridDiagram:
    """The diagram that ``move`` takes ``g`` to: ``move.apply(g)``."""
    return move.apply(g)


def follow(g: GridDiagram, move: GridMove, moved: GridDiagram) -> tuple[int, ...]:
    """For each component of ``g``, its index in ``moved``, the result
    of applying ``move`` to ``g``: the image of its lowest column under
    the move's ``column_map``."""
    cmap = move.column_map(g)
    owner = moved.component_by_column
    return tuple(owner[cmap(min(comp.columns))] for comp in g.components)


def changes_cusps(
    g: GridDiagram, move: GridMove, moved: GridDiagram, image, conv: Convention = Convention.NW_SE
) -> bool:
    """Whether ``move``, taking ``g`` to ``moved`` with components
    mapped by ``image`` (see :func:`follow`), is a translation that
    changes some component's cusp counts: the step that
    :func:`apply_script` flags ``cusp-change``.

    A cyclic translation changes the order of markers only along the
    line that wraps, so only the component owning that line can change
    its cusps; it is compared on its own sub-grid before and after.
    """
    if not isinstance(move, Translate):
        return False
    n = g.n
    if move.direction in ("up", "down"):
        wrapping_column = g.x_col_by_row[n - 1 if move.direction == "up" else 0]
    else:
        wrapping_column = 0 if move.direction == "left" else n - 1
    k = g.component_by_column[wrapping_column]
    before = to_front(component_grid(g, k), conv).cusps
    after = to_front(component_grid(moved, image[k]), conv).cusps
    return before != after


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


def _snapshot(g, index, move, pair, flags, conv, subs):
    """The trace step of ``g``.  Each component's invariants come from
    its sub-grid, interned in ``subs`` so that the front and the oracle
    run once per distinct pattern in one script run."""
    invs = []
    for c in range(len(g.components)):
        sub = component_grid(g, c)
        sub = subs.setdefault(sub, sub)
        try:
            invs.append(classical(sub, 0, conv))
        except (OracleMismatch, ParityViolation) as e:
            # the sub-grid numbers the component 0; name it as g does
            detail = str(e).removeprefix("component 0")
            raise type(e)(f"step {index}, component {c}{detail}") from None
    rel = None
    if pair is not None:
        k, j = pair
        if k == j:
            raise SameComponent(f"relative invariants need two distinct components, got {k}")
        rel = RelativeInvariants.between(invs[k], invs[j])
    return TraceStep(index=index, move=move, invariants=tuple(invs), relative=rel, flags=flags)


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
    subs = {}  # sub-grid -> its interned instance, for this run only
    trace = [_snapshot(g, 0, None, pair, (), conv, subs)]
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
        trace.append(_snapshot(moved, idx, move, pair, flags, conv, subs))
        current = moved
    return ScriptResult(final=current, trace=tuple(trace))


# -- script text format ------------------------------------------------------

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
