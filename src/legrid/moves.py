"""Grid moves: translations, commutations and (de)stabilizations.

Every move is a total function returning a new diagram, so traces are
trivially reproducible.  Each move kind is one immutable value class
with ``apply(g)``, the moved diagram; ``column_map(g)``, taking a
column of ``g`` to a column of the moved diagram on the same strand
(see :func:`follow`); ``footprint(g)``, the one component of ``g``
whose pattern (see :func:`component_patterns`) the move may change, or
None; and ``text()``, its script line.

Footprints, for a move that applies to ``g``: a translation names the
owner of the line that wraps round (column n-1 or 0 for right or left,
row n-1 or 0 for up or down); a commutation the owner of both lines,
or None when two components own them; a stabilization or
destabilization the owner of its column; ``lstab`` its component.
Every other component keeps the order of its columns and of its rows,
hence its pattern, so :func:`apply_script` runs
:func:`component_patterns` once per call, on the starting grid, and
rebuilds only the named component after each step.  Stabilization
replaces one marker by the three-marker L-pattern of a 2x2 block on
the enlarged grid; the subtype names the block corner that receives
the lone marker of the opposite kind.  Which subtypes realize the
Legendrian stabilizations is convention-dependent and was classified
empirically against the pinned front convention (the table is
re-derived exhaustively in the test suite):

    X:NE  X:SW  O:NE  O:SW    preserve (tb, r)          isotopy subtypes
    X:NW  O:SE                tb - 1, r + 1             positive stabilization
    X:SE  O:NW                tb - 1, r - 1             negative stabilization

Destabilization reads its block off its two columns.  Columns c, c+1
hold an L-block at rows rr, rr+1 exactly when three of their four
markers lie in those rows: every line holds one X and one O, so three
markers of a 2x2 block always form an L, the lone kind at its elbow.
One of the two columns then has both its markers on those rows, so
the only candidates are the lower rows of the columns whose two
markers are adjacent, at most two.  The marker the block collapses to
takes the kind that appears twice.

Every move checks its own fields when it is built, directly or by
:func:`parse_move_script`, and raises BadCell; ``apply`` keeps only the
checks that need the grid.

Every move maps a valid grid to a valid grid, so ``apply`` writes only
the moved markers and ``GridDiagram._derived`` reads every table off
them as a checked construction does, without the marker checks.
``tests/test_moves.py::TestDerivedTables`` proves the derived tables
equal to a fresh construction's.

Cyclic translations are isotopies of the underlying link but may carry
a marker across the grid boundary and change the front's cusp counts;
:func:`apply_script` flags such steps with ``cusp-change`` so they can
be excluded from front-invariance checks.
"""

from __future__ import annotations

from .errors import (
    BadCell,
    InterleavingSpans,
    LegridError,
    OracleMismatch,
    ParityViolation,
    ScriptStepError,
    _check_int,
    _check_sign,
    _Value,
)
from .grid import (
    GridDiagram,
    _check_component,
    _int_word,
    _read_script,
    _sign_word,
    _unrecognized,
    _word_error,
    new_grid,
    to_front,
)
from .invariants import (
    ClassicalInvariants,
    RelativeInvariants,
    _component_pattern,
    classical,
    component_patterns,
)

__all__ = [
    "Translate",
    "Commute",
    "Stabilize",
    "Destabilize",
    "LegendrianStab",
    "GridMove",
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

# direction -> (column step, row step) of every marker
_STEPS = {"up": (0, 1), "down": (0, -1), "left": (-1, 0), "right": (1, 0)}
_SUBTYPES = ("NE", "NW", "SE", "SW")

# Empirical classification of stabilization subtypes against the
# default front convention (verified exhaustively in tests).
ISOTOPY_SUBTYPES = frozenset({("X", "NE"), ("X", "SW"), ("O", "NE"), ("O", "SW")})
STAB_PLUS = {"X": "NW", "O": "SE"}
STAB_MINUS = {"X": "SE", "O": "NW"}


def _interleaving(a_pair, b_pair):
    """True unless the two closed spans are disjoint or strictly nested,
    which spans sharing an endpoint value never are."""
    a_lo, a_hi = min(a_pair), max(a_pair)
    b_lo, b_hi = min(b_pair), max(b_pair)
    disjoint = a_hi < b_lo or b_hi < a_lo
    nested = (a_lo < b_lo and b_hi < a_hi) or (b_lo < a_lo and a_hi < b_hi)
    return not (disjoint or nested)


def _exchange(table, p, q):
    """``table`` as a tuple, with its entries ``p`` and ``q`` exchanged."""
    out = list(table)
    out[p], out[q] = out[q], out[p]
    return tuple(out)


def _swap(i):
    """The exchange of lines ``i`` and ``i + 1``, as a map on line
    indices."""
    return lambda line: i + 1 if line == i else (i if line == i + 1 else line)


def _row_owner(g, row):
    """The component of a row: its X and O belong to one."""
    return g.component_by_column[g.x_col_by_row[row]]


class Translate(_Value):
    __slots__ = ("direction",)

    def __init__(self, direction: str):
        if direction not in _STEPS:
            raise BadCell(f"unknown direction {direction!r}", "direction")
        object.__setattr__(self, "direction", direction)

    def apply(self, g: GridDiagram) -> GridDiagram:
        """Cyclically shift all markers one step in the given direction:
        a column shift rotates both marker tuples, and a row shift maps
        every marker's row through one shift table."""
        dc, dr = _STEPS[self.direction]
        if dc:  # entry c moves to entry (c + dc) % n
            xs, os = (t[-dc:] + t[:-dc] for t in (g.xs, g.os))
        else:
            rows = tuple(range(g.n))
            shift = (rows[dr:] + rows[:dr]).__getitem__  # row r -> (r + dr) % n
            xs, os = tuple(map(shift, g.xs)), tuple(map(shift, g.os))
        return GridDiagram._derived(xs, os)

    def column_map(self, g: GridDiagram):
        dc = _STEPS[self.direction][0]
        return lambda col: (col + dc) % g.n

    def footprint(self, g: GridDiagram) -> int | None:
        """The owner of the line that wraps round the boundary; every
        other line keeps its place in the cyclic order."""
        dc, dr = _STEPS[self.direction]
        last = g.n - 1
        if dc:
            return g.component_by_column[last if dc > 0 else 0]
        return _row_owner(g, last if dr > 0 else 0)

    def text(self) -> str:
        return f"translate {self.direction}"


class Commute(_Value):
    __slots__ = ("axis", "index")  # axis "row" or "col"

    def __init__(self, axis: str, index: int):
        if axis not in ("row", "col"):
            raise BadCell(f"axis must be row or col, got {axis!r}", "axis")
        _check_int(index, "index", BadCell)
        object.__setattr__(self, "axis", axis)
        object.__setattr__(self, "index", index)

    def apply(self, g: GridDiagram) -> GridDiagram:
        """Swap adjacent rows or columns ``index`` and ``index + 1``.

        Legal only when the two lines' marker spans are disjoint or
        strictly nested; otherwise raises InterleavingSpans.
        """
        n = g.n
        i = self.index
        if not 0 <= i <= n - 2:
            raise BadCell(f"cannot commute lines {i},{i + 1} of the {n}x{n} grid")
        by_col = self.axis == "col"
        # each line's span: the rows of a column's markers, the columns of a row's
        x_at, o_at = (g.xs, g.os) if by_col else (g.x_col_by_row, g.o_col_by_row)
        if _interleaving((x_at[i], o_at[i]), (x_at[i + 1], o_at[i + 1])):
            raise InterleavingSpans(f"{'columns' if by_col else 'rows'} {i} and {i + 1} interleave")
        if by_col:
            xs, os = (_exchange(t, i, i + 1) for t in (g.xs, g.os))
        else:  # the two columns that hold rows i and i + 1 exchange them
            xs, os = (_exchange(t, at[i], at[i + 1]) for t, at in ((g.xs, x_at), (g.os, o_at)))
        return GridDiagram._derived(xs, os)

    def column_map(self, g: GridDiagram):
        return _swap(self.index) if self.axis == "col" else lambda col: col

    def footprint(self, g: GridDiagram) -> int | None:
        """The owner of both lines, or None when two components own
        them: each then keeps the order of its own lines."""
        i = self.index
        if self.axis == "col":
            a, b = g.component_by_column[i], g.component_by_column[i + 1]
        else:
            a, b = _row_owner(g, i), _row_owner(g, i + 1)
        return a if a == b else None

    def text(self) -> str:
        return f"commute {self.axis} {self.index}"


class Stabilize(_Value):
    __slots__ = ("marker", "column", "subtype")  # "X" or "O"; "NE", "NW", "SE" or "SW"

    def __init__(self, marker: str, column: int, subtype: str):
        if marker not in ("X", "O"):
            raise BadCell(f"marker must be X or O, got {marker!r}", "marker")
        _check_int(column, "column", BadCell)
        if subtype not in _SUBTYPES:
            raise BadCell(f"subtype must be one of {', '.join(_SUBTYPES)}", "subtype")
        object.__setattr__(self, "marker", marker)
        object.__setattr__(self, "column", column)
        object.__setattr__(self, "subtype", subtype)

    def apply(self, g: GridDiagram) -> GridDiagram:
        """Replace one marker by the L-pattern of the given subtype on an
        (n+1)-grid.

        The stabilized marker at (c, r) becomes a 2x2 block on columns
        c, c+1 and rows r, r+1; the lone marker of the opposite kind sits
        at the block corner named by the subtype and the two markers of
        the original kind fill the cells adjacent to it.
        """
        n, c, marker = g.n, self.column, self.marker
        if not 0 <= c < n:
            raise BadCell(f"no column {c} in the {n}x{n} grid")
        east = 1 if "E" in self.subtype else 0
        north = 1 if "N" in self.subtype else 0
        same, other = (g.xs, g.os) if marker == "X" else (g.os, g.xs)
        r = same[c]

        def doubled(rows):
            return [v + (v > r) if v != r else r + 1 - north for v in rows[: c + 1] + rows[c:]]

        same, other = doubled(same), doubled(other)
        # Doubling column c and row r puts each kind's column-c marker in
        # both block columns and row r's markers on row r + 1 - north; one
        # copy of each kind then moves to row r + north.
        same[c + 1 - east] = other[c + east] = r + north
        xs, os = (same, other) if marker == "X" else (other, same)
        return GridDiagram._derived(tuple(xs), tuple(os))

    def column_map(self, g: GridDiagram):
        c = self.column
        return lambda col: col if col <= c else col + 1

    def footprint(self, g: GridDiagram) -> int | None:
        """The owner of the stabilized marker."""
        return g.component_by_column[self.column]

    def text(self) -> str:
        return f"stab {self.marker} {self.column} {self.subtype}"


class Destabilize(_Value):
    __slots__ = ("column", "row")

    def __init__(self, column: int, row: int | None = None):
        _check_int(column, "column", BadCell)
        if row is not None:
            _check_int(row, "row", BadCell)
        object.__setattr__(self, "column", column)
        object.__setattr__(self, "row", row)

    def apply(self, g: GridDiagram) -> GridDiagram:
        """Collapse the three-marker L-block found in columns
        ``column, column + 1`` back to a single marker.

        Both candidate rows (see the module notes) may carry an L-block.
        The two then form a staircase over three rows, and collapsing
        either gives the same grid, so ``row`` only refuses a row pair
        with no block.  Collapsing deletes the column with both markers
        in the block and merges rows rr, rr+1, so the other column's
        block marker is the collapsed one.
        """
        n = g.n
        c = self.column
        if not 0 <= c <= n - 2:
            raise BadCell(f"no column pair {c},{c + 1} in the {n}x{n} grid")
        xs, os = g.xs, g.os
        # (lower row, column) of each column whose two markers are adjacent
        blocks = [(min(xs[k], os[k]), k) for k in (c, c + 1) if abs(xs[k] - os[k]) == 1]
        if self.row is not None:
            if not 0 <= self.row <= n - 2:
                raise BadCell(f"no row pair {self.row},{self.row + 1} in the {n}x{n} grid")
            blocks = [block for block in blocks if block[0] == self.row]
        for rr, full in blocks:
            other = 2 * c + 1 - full
            # with column full's two, three of the four markers lie in rows rr, rr + 1
            if (xs[other] in (rr, rr + 1)) + (os[other] in (rr, rr + 1)) == 1:
                def merged(rows):  # column ``full`` deleted, rows rr and rr + 1 merged
                    return tuple(v if v <= rr else v - 1 for v in rows[:full] + rows[full + 1 :])

                return GridDiagram._derived(merged(xs), merged(os))
        raise BadCell(f"no destabilizable L-block in columns {c},{c + 1}")

    def column_map(self, g: GridDiagram):
        c = self.column
        return lambda col: col if col <= c else col - 1

    def footprint(self, g: GridDiagram) -> int | None:
        """The owner of the block: its three markers share rows, so
        both of its columns belong to one component."""
        return g.component_by_column[self.column]

    def text(self) -> str:
        if self.row is None:
            return f"destab {self.column}"
        return f"destab {self.column} {self.row}"


class LegendrianStab(_Value):
    """The grid subtype realizing the signed Legendrian stabilization of
    one component: tb drops by 1 and the rotation number moves by
    ``sign``.  The X marker in the component's lowest column is
    stabilized."""

    __slots__ = ("component", "sign")

    def __init__(self, component: int, sign: int):
        _check_int(component, "component", BadCell)
        _check_sign(sign, "stabilization sign", BadCell)
        object.__setattr__(self, "component", component)
        object.__setattr__(self, "sign", sign)

    def _stabilize(self, g: GridDiagram) -> Stabilize:
        _check_component(self.component, g.component_count)
        subtype = STAB_PLUS["X"] if self.sign > 0 else STAB_MINUS["X"]
        # components are numbered by their lowest column, as in follow
        return Stabilize("X", g.component_by_column.index(self.component), subtype)

    def apply(self, g: GridDiagram) -> GridDiagram:
        return self._stabilize(g).apply(g)

    def column_map(self, g: GridDiagram):
        return self._stabilize(g).column_map(g)

    def footprint(self, g: GridDiagram) -> int | None:
        """The stabilized component."""
        return self.component

    def text(self) -> str:
        return f"lstab {self.component} {'+' if self.sign > 0 else '-'}"


# the move kinds, as ``isinstance`` takes them
GridMove = (Translate, Commute, Stabilize, Destabilize, LegendrianStab)


def apply_move(g: GridDiagram, move: GridMove) -> GridDiagram:
    """The diagram that ``move`` takes ``g`` to: ``move.apply(g)``."""
    return move.apply(g)


def follow(g: GridDiagram, move: GridMove, moved: GridDiagram) -> tuple[int, ...]:
    """For each component of ``g``, its index in ``moved``, the result
    of applying ``move`` to ``g``: the image of its lowest column under
    the move's ``column_map``."""
    cmap = move.column_map(g)
    lowest = g.component_by_column.index  # components are numbered by their lowest column
    owner = moved.component_by_column
    return tuple(owner[cmap(lowest(k))] for k in range(g.component_count))


def changes_cusps(move: GridMove, before, after, image) -> bool:
    """Whether ``move`` is a translation under which some component's
    cusp counts, ``before[c]``, differ from those of its image,
    ``after[image[c]]`` (see :func:`follow`): the step that
    :func:`apply_script` flags ``cusp-change``."""
    return isinstance(move, Translate) and any(before[c] != after[i] for c, i in enumerate(image))


class TraceStep(_Value):
    __slots__ = ("index", "move", "invariants", "relative", "flags")

    def __init__(
        self,
        index: int,
        move: GridMove | None,
        invariants: tuple[ClassicalInvariants, ...],
        relative: RelativeInvariants | None,
        flags: tuple[str, ...],
    ):
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "move", move)
        object.__setattr__(self, "invariants", invariants)
        object.__setattr__(self, "relative", relative)
        object.__setattr__(self, "flags", flags)


class ScriptResult(_Value):
    __slots__ = ("final", "trace")

    def __init__(self, final: GridDiagram, trace: tuple[TraceStep, ...]):
        object.__setattr__(self, "final", final)
        object.__setattr__(self, "trace", trace)


def _intern(key, facts, index, c):
    """The facts of a component pattern ``key`` (see
    :func:`component_patterns`): its classical triple and its cusp
    counts, read off the component alone as a one-component grid.
    Every self-crossing and cusp of a component involves only its own
    segments, and rank compression keeps the strict order of their
    ends, so that sub-grid has the component's tb, r and cusps.
    ``facts`` interns them by pattern for one script run, so a repeated
    pattern costs a lookup, and the front and the oracle run once per
    distinct pattern; the sub-grid is dropped once they are read.  The
    same table interns the facts by value, so patterns with equal facts
    share one object.  A check that fails names step ``index`` and
    component ``c``."""
    fact = facts.get(key)
    if fact is None:
        sub = new_grid(len(key[0]), *key)
        try:
            inv = classical(sub, 0)
        except (OracleMismatch, ParityViolation) as e:
            # the sub-grid numbers the component 0; name it as the grid does
            detail = str(e).removeprefix("component 0")
            raise type(e)(f"step {index}, component {c}{detail}", step=index, component=c) from None
        fact = (inv, to_front(sub).cusps)
        fact = facts[key] = facts.setdefault(fact, fact)
    return fact


def _carry(values, image):
    """Per-component ``values`` of a grid, reordered to the components
    of the moved grid that ``image`` (see :func:`follow`) maps them to."""
    out = [None] * len(image)
    for c, i in enumerate(image):
        out[i] = values[c]
    return out


def _snapshot(parts, index, move, pair, flags, relatives):
    """The trace step of a grid, read off its components' facts
    ``parts``; ``relatives`` interns the pair's triple by its two
    classical triples for one script run."""
    invs = tuple(inv for inv, _ in parts)
    rel = None
    if pair is not None:
        key = (invs[pair[0]], invs[pair[1]])
        rel = relatives.get(key)
        if rel is None:
            rel = relatives[key] = RelativeInvariants.between(*key)
    return TraceStep(index=index, move=move, invariants=invs, relative=rel, flags=flags)


def apply_script(g: GridDiagram, moves) -> ScriptResult:
    """Run a move script, any iterable of moves (such as the tuple that
    :func:`parse_move_script` returns), recording per-component
    invariants and the anchored relative triple after every step.

    The relative triple follows the first two components of the
    starting diagram through the moves (see :func:`follow`, so cyclic
    translations cannot silently swap the pair); ``follow``'s image is
    a permutation of the components, so the two stay distinct.  A
    translation that changes a component's cusp counts is flagged
    ``cusp-change``.  The first illegal step aborts the run with its
    index.

    Each component's invariants and cusp counts are read once per
    distinct pattern (see :func:`_intern`) and interned for this call.
    :func:`component_patterns` splits the starting grid once; after
    that a move changes the pattern of at most the component its
    ``footprint`` names, so every other component carries its facts
    through ``follow``'s image, and only the named one is read from its
    own columns and rows.  A step keeps, per component, the two facts
    of its pattern and no grid.  For the same reason only the named
    component's cusp counts can change, so the step calls
    :func:`changes_cusps` on that component alone.
    """
    pair = (0, 1) if g.component_count >= 2 else None
    facts, relatives = {}, {}  # pattern -> (triple, cusps), interned by value; (triple, triple) -> relative triple
    parts = [_intern(key, facts, 0, c) for c, key in enumerate(component_patterns(g))]
    trace = [_snapshot(parts, 0, None, pair, (), relatives)]
    current = g
    for idx, move in enumerate(moves, start=1):
        try:
            moved = apply_move(current, move)
        except LegridError as e:
            raise ScriptStepError(idx, e) from e
        image = follow(current, move, moved)
        changed = move.footprint(current)
        moved_parts = _carry(parts, image)
        flags = ()
        if changed is not None:
            k = image[changed]
            moved_parts[k] = _intern(_component_pattern(moved, k), facts, idx, k)
            # only the footprint's pattern can change, so only its cusps
            if changes_cusps(move, parts[changed][1], moved_parts[k][1], (0,)):
                flags = ("cusp-change",)
        if pair is not None:
            pair = (image[pair[0]], image[pair[1]])
        trace.append(_snapshot(moved_parts, idx, move, pair, flags, relatives))
        current, parts = moved, moved_parts
    return ScriptResult(final=current, trace=tuple(trace))


# -- script text format ------------------------------------------------------

# the token index of each word field a move checks when it is built
_WORD_TOKENS = {"direction": 1, "axis": 1, "marker": 1, "subtype": 3}


def _parse_move(line_no, raw, words):
    """The move of one line, whose words before its comment are
    ``words``: its integers are read in line order, then the move it
    builds checks its words, and a BadCell it raises is the ParseError
    of the word it names."""
    verb, *args = words
    try:
        if verb == "translate" and len(args) == 1:
            return Translate(args[0])
        if verb == "commute" and len(args) == 2:
            return Commute(args[0], _int_word(line_no, raw, words, 2, "index must be an integer, got {!r}"))
        if verb == "stab" and len(args) == 3:
            return Stabilize(args[0], _int_word(line_no, raw, words, 2, "column must be an integer, got {!r}"), args[2])
        if verb == "destab" and len(args) in (1, 2):
            column = _int_word(line_no, raw, words, 1, "column must be an integer, got {!r}")
            row = _int_word(line_no, raw, words, 2, "row must be an integer, got {!r}") if len(args) == 2 else None
            return Destabilize(column, row)
        if verb == "lstab" and len(args) == 2:
            component = _int_word(line_no, raw, words, 1, "component must be an integer, got {!r}")
            return LegendrianStab(component, _sign_word(line_no, raw, words, 2, "sign must be + or -, got {!r}"))
    except BadCell as e:
        raise _word_error(line_no, raw, words, _WORD_TOKENS[e.field], str(e)) from None
    raise _unrecognized(line_no, raw, words, "move")


def parse_move_script(text) -> tuple[GridMove, ...]:
    """Parse the one-move-per-line script format into the tuple of its
    moves, in script order; ``#`` comments and blank lines are ignored.
    ``text`` is a str or an iterable of whole-line blocks (see
    ``grid._text_lines``).
    A line's integers are read first, in line order; the move it builds
    then checks its words, and a BadCell it raises is the ParseError of
    that line.  Every ParseError names the 1-based column of the token
    at fault: the verb of an unrecognized move, or the index, sign or
    word refused.  The script is read by ``grid._read_script``, so each
    distinct line is parsed once and equal moves are one object, however
    their lines are spelled."""
    table, indices = _read_script(text, _parse_move)
    return tuple(map(table.__getitem__, indices))
