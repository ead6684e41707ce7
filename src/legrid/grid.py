"""Grid diagrams for oriented knots and links.

An n x n grid carries one X and one O marker in every row and every
column, with no cell holding both.  Joining O to X vertically in each
column and X to O horizontally in each row, with vertical strands
passing over horizontal ones, draws an oriented rectilinear link
diagram.  Rotated 45 degrees counterclockwise the picture becomes the
front projection of a Legendrian representative: corners opening
north-west or south-east turn into cusps, while the other two corner
types smooth out.  A cusp is traversed upward exactly when the
vertical strand through its corner points upward.

Rows are indexed bottom-up, so row r sits at height y = r and column c
at x = c.  The default reading is normalized so that the minimal 2x2
unknot grid has tb = -1 and rotation number 0.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from operator import countOf

from .errors import (
    NotAPermutation,
    ParityViolation,
    ParseError,
    SameComponent,
    SharedCell,
    SizeMismatch,
    UnknownComponent,
)

__all__ = [
    "Convention",
    "Component",
    "CuspCounts",
    "FrontData",
    "GridDiagram",
    "new_grid",
    "reading",
    "to_front",
    "writhe",
    "linking_number",
    "reverse_component",
    "grid_to_text",
    "grid_to_json",
    "parse_grid",
]


class Convention(Enum):
    """Cusp-assignment convention for reading a front off the grid.

    NW_SE is the counterclockwise 45-degree reading: corners opening
    north-west or south-east become cusps.  It is the shipped default
    and the one under which the 2x2 unknot grid yields tb = -1, r = 0.
    NE_SW is the mirror reading: the other diagonal carries the cusps
    and every crossing sign flips.  It is read as the NW_SE reading of
    another grid, the rows mirrored and X and O swapped: :func:`reading`
    is the one function that takes a convention, and every other
    function reads NW_SE.
    """

    NW_SE = "nw-se"
    NE_SW = "ne-sw"


@dataclass(frozen=True)
class Component:
    """One link component: a cycle of the marker-tracing relation."""

    index: int
    columns: frozenset[int]
    rows: frozenset[int]


@dataclass(frozen=True)
class CuspCounts:
    up: int
    down: int

    @property
    def total(self):
        return self.up + self.down


@dataclass(frozen=True)
class FrontData:
    """Front-projection combinatorics derived from a grid diagram: the
    signed crossing matrix and per-component up/down cusp counts.

    ``crossing_matrix[a][b]`` is the signed count of crossings with
    component ``a`` over component ``b``.  The vertical strand is
    always the over strand, and a crossing is +1 when (over direction,
    under direction) is a positively oriented frame.
    """

    crossing_matrix: tuple[tuple[int, ...], ...]
    cusps: tuple[CuspCounts, ...]

    def cusp_counts(self, c) -> CuspCounts:
        _check_component(c, len(self.cusps))
        return self.cusps[c]


def _check_component(c, count):
    """The one component-index check, for a grid and a front alike;
    floats and bools compare equal to ints, so the type is checked."""
    if type(c) is not int or not 0 <= c < count:
        raise UnknownComponent(f"no component {c!r} (diagram has {count})")


@dataclass(frozen=True)
class GridDiagram:
    """A validated n x n grid diagram.

    ``xs[c]`` and ``os[c]`` give the row of the X and O marker in
    column c; any sequences may be passed, and they are stored as
    tuples.  Instances are immutable.  Construction checks the
    markers (raising SizeMismatch, NotAPermutation or SharedCell, as
    :func:`new_grid` documents) and derives, in the same pass, the
    tables every reader shares: ``x_col_by_row`` and ``o_col_by_row``
    (the inverse permutations), ``components`` (tracing cycles, ordered
    by their lowest column) and ``component_by_column``.  They are plain
    attributes outside the fields, so equality and hashing use only
    ``(n, xs, os)``.  Commutations and translations derive the tables
    of the grids they make from their parent's (see :meth:`_derived`).

    >>> g = new_grid(2, [0, 1], [1, 0])
    >>> len(g.components)
    1
    """

    n: int
    xs: tuple[int, ...]
    os: tuple[int, ...]

    def __post_init__(self):
        n = self.n
        if n < 1:
            raise SizeMismatch(f"grid size must be positive, got {n}")
        xs, os = tuple(self.xs), tuple(self.os)
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "os", os)
        if len(xs) != n:
            raise SizeMismatch(f"X list has length {len(xs)}, expected {n}")
        if len(os) != n:
            raise SizeMismatch(f"O list has length {len(os)}, expected {n}")
        rows = list(range(n))
        # floats and bools compare equal to ints, so each marker's type is checked too
        if countOf(map(type, xs), int) != n or sorted(xs) != rows:
            raise NotAPermutation(f"X rows are not a permutation of 0..{n - 1}", which="x")
        if countOf(map(type, os), int) != n or sorted(os) != rows:
            raise NotAPermutation(f"O rows are not a permutation of 0..{n - 1}", which="o")
        x_col = [0] * n
        o_col = [0] * n
        for c, x, o in zip(rows, xs, os):
            if x == o:
                raise SharedCell(f"column {c} holds X and O in the same cell", column=c)
            x_col[x] = c
            o_col[o] = c

        cycles, owner = _trace(xs, o_col)
        components = [
            Component(k, frozenset(cols), frozenset(map(xs.__getitem__, cols)))
            for k, cols in enumerate(cycles)
        ]
        object.__setattr__(self, "x_col_by_row", tuple(x_col))
        object.__setattr__(self, "o_col_by_row", tuple(o_col))
        object.__setattr__(self, "components", tuple(components))
        object.__setattr__(self, "component_by_column", tuple(owner))

    @classmethod
    def _derived(cls, n, xs, os, x_col_by_row, o_col_by_row, components, component_by_column):
        """A grid whose tables, all tuples, its caller derived from a
        valid parent's: the one path that skips ``__post_init__`` and
        its checks.  Only :func:`_commuted` and :func:`_translated`
        call it; ``tests/test_moves.py::TestDerivedTables`` proves
        their tables equal to a fresh construction's."""
        g = object.__new__(cls)
        vars(g).update(
            n=n,
            xs=xs,
            os=os,
            x_col_by_row=x_col_by_row,
            o_col_by_row=o_col_by_row,
            components=components,
            component_by_column=component_by_column,
        )
        return g

    def component(self, c) -> Component:
        _check_component(c, len(self.components))
        return self.components[c]


def _trace(xs, o_col):
    """The tracing cycles of valid markers, each from its lowest column,
    and the cycle of every column: the X of column c shares its row
    with the O of column ``o_col[xs[c]]``."""
    succ = tuple(map(o_col.__getitem__, xs))
    owner = [-1] * len(xs)
    cycles = []
    for start in range(len(xs)):
        if owner[start] >= 0:
            continue
        k = len(cycles)
        cols = []
        c = start
        while owner[c] < 0:
            owner[c] = k
            cols.append(c)
            c = succ[c]
        cycles.append(cols)
    return cycles, owner


def _exchange(table, p, q):
    """``table`` as a tuple, with its entries ``p`` and ``q`` exchanged."""
    out = list(table)
    out[p], out[q] = out[q], out[p]
    return tuple(out)


def _numbered(comps, owner):
    """``comps`` and ``owner``, the component of each column, numbered
    as ``__post_init__`` numbers them: by lowest column, the order in
    which ``owner`` first names them."""
    order = list(dict.fromkeys(owner))
    if order == sorted(order):
        return tuple(comps), owner
    label = [0] * len(order)
    for k, old in enumerate(order):
        label[old] = k
    comps = tuple(Component(k, comps[old].columns, comps[old].rows) for k, old in enumerate(order))
    return comps, tuple(map(label.__getitem__, owner))


def _commuted(g, by_col, i) -> GridDiagram:
    """``g`` with lines ``i`` and ``i + 1`` exchanged, columns if
    ``by_col`` and rows otherwise, for lines whose spans do not
    interleave.  The tables come from ``g``'s: the ones indexed by line
    exchange entries i and i + 1, their inverses the two entries that
    hold those lines, and only the two lines' owners change."""
    at, inverse = (g.xs, g.os), (g.x_col_by_row, g.o_col_by_row)
    if not by_col:
        at, inverse = inverse, at
    moved = [_exchange(t, i, i + 1) for t in at]
    moved += [_exchange(t, v[i], v[i + 1]) for t, v in zip(inverse, at)]
    xs, os, x_col, o_col = moved if by_col else moved[2:] + moved[:2]
    comps, owner = g.components, g.component_by_column
    # the two lines' owners; a row's is its X column's
    a, b = (owner[i], owner[i + 1]) if by_col else (owner[at[0][i]], owner[at[0][i + 1]])
    if a != b:  # each owner trades line i for line i + 1 or the reverse
        comps = list(comps)
        for k in (a, b):
            cols, rows = comps[k].columns, comps[k].rows
            comps[k] = Component(k, cols ^ {i, i + 1}, rows) if by_col else Component(k, cols, rows ^ {i, i + 1})
        if by_col:
            comps, owner = _numbered(comps, _exchange(owner, i, i + 1))
    return GridDiagram._derived(g.n, xs, os, x_col, o_col, tuple(comps), owner)


def _translated(g, dc, dr) -> GridDiagram:
    """``g`` with every marker moved ``dc`` columns and ``dr`` rows
    cyclically, one of them 0 and the other 1 or -1.  The tables come
    from ``g``'s: the ones indexed by the moving lines rotate by one
    entry, and the lines the others hold map through one shift table."""
    step = dc or dr
    lines = tuple(range(g.n))
    shift = (lines[step:] + lines[:step]).__getitem__  # line l -> (l + step) % n

    def rotated(table):  # entry l moves to entry (l + step) % n
        return table[-step:] + table[:-step]

    def shifted(table):
        return tuple(map(shift, table))

    comps, owner = g.components, g.component_by_column
    if dc:
        xs, os = rotated(g.xs), rotated(g.os)
        x_col, o_col = shifted(g.x_col_by_row), shifted(g.o_col_by_row)
        comps, owner = _numbered(
            [Component(k, frozenset(map(shift, c.columns)), c.rows) for k, c in enumerate(comps)],
            rotated(owner),
        )
    else:
        xs, os = shifted(g.xs), shifted(g.os)
        x_col, o_col = rotated(g.x_col_by_row), rotated(g.o_col_by_row)
        comps = tuple(Component(k, c.columns, frozenset(map(shift, c.rows))) for k, c in enumerate(comps))
    return GridDiagram._derived(g.n, xs, os, x_col, o_col, comps, owner)


def new_grid(n, xs, os) -> GridDiagram:
    """Build a :class:`GridDiagram` from any marker sequences.

    Raises SizeMismatch, NotAPermutation or SharedCell on bad input,
    checked in that order; a marker that is not an ``int`` (a float or
    a bool) is no row, and a shared cell is reported at its lowest
    column.  The minimum legal size is 2: a 1x1 grid forces its only
    cell to hold both markers.
    """
    return GridDiagram(n, xs, os)


def reading(g: GridDiagram, conv: Convention) -> GridDiagram:
    """The grid whose NW_SE reading is ``g``'s reading under ``conv``,
    and the one function that takes a convention: ``g`` itself, or for
    NE_SW a new grid, ``g`` with its rows mirrored and its X and O
    swapped.  The mirror moves the cusps to the other diagonal and flips
    every crossing sign, and the swap reverses every strand, so every
    column keeps its component.  Anything but a :class:`Convention`
    raises ValueError.
    """
    if conv is Convention.NW_SE:
        return g
    if conv is not Convention.NE_SW:
        raise ValueError(f"{conv!r} is not a Convention")
    n = g.n
    return GridDiagram(n, [n - 1 - o for o in g.os], [n - 1 - x for x in g.xs])


def to_front(g: GridDiagram) -> FrontData:
    """Read the NW_SE front-projection combinatorics off the grid,
    once: the front is memoized on ``g``, so every caller shares it."""
    front = g.__dict__.get("_front")
    if front is None:
        front = g.__dict__["_front"] = _read_front(g)
    return front


def _read_front(g: GridDiagram) -> FrontData:
    """One left-to-right column sweep: O(n C) operations on n-bit ints.

    A crossing at (c, r) needs the vertical of column c to pass
    strictly through row r and the horizontal of row r to pass strictly
    through column c.  The sweep keeps two ints per component whose bit
    r is set while row r's horizontal is open at the current column:
    ``east[k]`` for one running X -> O east, ``west[k]`` for one running
    west.  Column c holds the X end of row xs[c] and the O end of row
    os[c]; each end toggles its row's bit in the set of its row's
    direction, which opens the horizontal at whichever end comes first
    and closes it at the other.  Those two rows are the ends of the
    column's vertical, outside the open row span that is queried, so
    the toggles may follow the query: per component, the popcount of
    its east rows minus that of its west rows inside the span.  Each
    big-int operation costs O(n) word steps, but in C; measured on
    random links, the sweep beats a binary-indexed-tree sweep, with
    its O(n C log n) interpreted steps, up to n of about 10^4.

    Cusp corners: at each marker the vertical heads toward the other
    marker of its column and the horizontal toward the other marker of
    its row; the two directions name the corner type.  Cusps are the
    corners on the NW-SE diagonal, up or down according to the
    orientation of the vertical strand through them.  The X end's
    corner is S or N as the vertical runs up or down and E or W as its
    row's O lies east or west, so it is a cusp (SE or NW) exactly when
    the vertical runs up and the O lies east, or neither.  At the O end
    the vertical heads the other way, so it is a cusp exactly when just
    one holds: the vertical runs up, or its row's X lies east.  The
    NE_SW reading is this one of another grid (see :func:`reading`).
    """
    n_comp = len(g.components)
    x_col, o_col = g.x_col_by_row, g.o_col_by_row

    east = [0] * n_comp
    west = [0] * n_comp
    matrix = [[0] * n_comp for _ in range(n_comp)]
    up = [0] * n_comp
    down = [0] * n_comp
    for c, (k, rx, ro) in enumerate(zip(g.component_by_column, g.xs, g.os)):
        up_strand = rx > ro  # the vertical runs O -> X
        lo, hi = (ro, rx) if up_strand else (rx, ro)
        if hi - lo > 1:
            inside = (1 << hi) - (2 << lo)  # the rows strictly between
            sign = -1 if up_strand else 1
            row = matrix[k]
            for under, (e, w) in enumerate(zip(east, west)):
                total = (e & inside).bit_count() - (w & inside).bit_count()
                if total:
                    row[under] += sign * total
        o_east = o_col[rx] > c  # row rx runs east, so its X end opens it
        x_east = x_col[ro] > c  # row ro runs west, so its O end opens it
        if o_east:
            east[k] ^= 1 << rx
        else:
            west[k] ^= 1 << rx
        if x_east:
            west[k] ^= 1 << ro
        else:
            east[k] ^= 1 << ro

        cusps = (up_strand == o_east) + (up_strand != x_east)
        if up_strand:
            up[k] += cusps
        else:
            down[k] += cusps

    return FrontData(
        crossing_matrix=tuple(map(tuple, matrix)),
        cusps=tuple(CuspCounts(u, d) for u, d in zip(up, down)),
    )


def writhe(g: GridDiagram, c) -> int:
    """Signed self-crossing count of component ``c``."""
    g.component(c)
    return to_front(g).crossing_matrix[c][c]


def linking_number(g: GridDiagram, c1, c2) -> int:
    """Half the signed count of crossings between two components.

    In a planar diagram of two closed curves the signed crossings with
    either one over number the same, so that count is the linking
    number, and two that differ raise ParityViolation: a check strictly
    stronger than the parity of their sum.
    """
    g.component(c1)
    g.component(c2)
    if c1 == c2:
        raise SameComponent(f"components must differ, both are {c1}")
    m = to_front(g).crossing_matrix
    over, under = m[c1][c2], m[c2][c1]
    if over != under:
        raise ParityViolation(
            f"components {c1} and {c2} cross {over} signed times with {c1} over"
            f" but {under} with {c2} over"
        )
    return over


def reverse_component(g: GridDiagram, c) -> GridDiagram:
    """Reverse the tracing orientation of one component by swapping its
    X and O markers; other components are untouched."""
    comp = g.component(c)
    xs = list(g.xs)
    os = list(g.os)
    for col in comp.columns:
        xs[col], os[col] = os[col], xs[col]
    return new_grid(g.n, xs, os)


# -- serialization -----------------------------------------------------------

def grid_to_text(g: GridDiagram) -> str:
    return "n={}\nX={}\nO={}\n".format(
        g.n,
        ",".join(map(str, g.xs)),
        ",".join(map(str, g.os)),
    )


def grid_to_json(g: GridDiagram) -> str:
    """Canonical single-line JSON form; key order n, x, o is fixed and
    emission never varies, so round-trips are byte-identical."""
    return json.dumps({"n": g.n, "x": list(g.xs), "o": list(g.os)})


def parse_grid(text: str) -> GridDiagram:
    """Parse either the three-line text format or the JSON equivalent."""
    if text.lstrip()[:1] == "{":
        return _parse_grid_json(text)
    return _parse_grid_text(text)


def _is_int(value):
    """JSON integers only: ``true`` and ``false`` load as bool, a
    subclass of int."""
    return isinstance(value, int) and not isinstance(value, bool)


def _int_token(text):
    """The integer a text format writes: ASCII digits with an optional
    sign, inside optional surrounding whitespace.  Anything else raises
    ValueError, including what ``int()`` alone also takes (``0_2``,
    non-ASCII digits such as Arabic-Indic ``١``).  On ASCII text without
    underscores, ``int()`` takes exactly that form, and both checks are
    cheaper than a regular expression."""
    token = text.strip()
    if not token.isascii() or "_" in token:
        raise ValueError(f"not an integer: {text!r}")
    return int(token)


def _load_json(text):
    """``json.loads`` with every failure as a ParseError: a syntax error
    at its position, and at 1:1 nesting too deep for the decoder or an
    integer too long for the interpreter to convert."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(e.lineno, e.colno, e.msg) from None
    except (RecursionError, ValueError) as e:
        raise ParseError(1, 1, f"undecodable JSON: {e}") from None


def _parse_grid_json(text):
    data = _load_json(text)
    if not isinstance(data, dict):
        raise ParseError(1, 1, "expected a JSON object")
    if set(data) != {"n", "x", "o"}:
        raise ParseError(1, 1, 'expected exactly the keys "n", "x", "o"')
    n, x, o = data["n"], data["x"], data["o"]
    if not _is_int(n):
        raise ParseError(1, 1, '"n" must be an integer')
    for key, value in (("x", x), ("o", o)):
        if not isinstance(value, list) or not all(_is_int(v) for v in value):
            raise ParseError(1, 1, f'"{key}" must be a list of integers')
    return new_grid(n, x, o)


def _int_list(line_no, line, key):
    stripped = line.strip()
    if not stripped.startswith(key + "="):
        raise ParseError(line_no, 1, f"expected {key}=<comma-separated ints>")
    offset = line.index("=") + 1
    body = line[offset:].rstrip("\n")
    parts = body.split(",")
    if body.isascii() and "_" not in body:
        # where int() takes every token, _int_token takes each alike; the
        # loop below names the column of the first token it refuses
        try:
            return list(map(int, parts))
        except ValueError:
            pass
    values = []
    pos = 0
    for part in parts:
        try:
            values.append(_int_token(part))
        except ValueError:
            raise ParseError(line_no, offset + pos + 1, f"not an integer: {part.strip()!r}") from None
        pos += len(part) + 1
    return values


def _parse_grid_text(text):
    content = []
    last_line = 0
    for line_no, line in enumerate(text.splitlines(), start=1):
        last_line = line_no
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        content.append((line_no, line))
    if len(content) != 3:
        raise ParseError(last_line or 1, 1, f"expected 3 content lines (n=, X=, O=), found {len(content)}")

    (ln_n, line_n), (ln_x, line_x), (ln_o, line_o) = content
    stripped = line_n.strip()
    if not stripped.startswith("n="):
        raise ParseError(ln_n, 1, "expected n=<int>")
    try:
        n = _int_token(stripped[2:])
    except ValueError:
        column = line_n.index("=") + 2  # leading whitespace counts, as in _int_list
        raise ParseError(ln_n, column, f"not an integer: {stripped[2:].strip()!r}") from None
    xs = _int_list(ln_x, line_x, "X")
    os = _int_list(ln_o, line_o, "O")
    try:
        return new_grid(n, xs, os)
    except NotAPermutation as e:
        line = ln_x if e.which == "x" else ln_o
        raise type(e)(f"line {line}: {e}", which=e.which) from None
    except SharedCell as e:
        raise type(e)(f"line {ln_x}: {e}", column=e.column) from None
    except SizeMismatch as e:
        raise type(e)(f"line {ln_n}: {e}") from None
