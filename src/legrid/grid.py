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
import re
from enum import Enum
from itertools import chain, compress
from operator import countOf, eq

from .errors import (
    NotAPermutation,
    ParityViolation,
    ParseError,
    SameComponent,
    SharedCell,
    SizeMismatch,
    UnknownComponent,
    _check_int,
    _Value,
)

__all__ = [
    "Convention",
    "CuspCounts",
    "FrontData",
    "GridDiagram",
    "new_grid",
    "reading",
    "to_front",
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


class CuspCounts(_Value):
    __slots__ = ("up", "down")

    def __init__(self, up: int, down: int):
        object.__setattr__(self, "up", up)
        object.__setattr__(self, "down", down)

    @property
    def total(self):
        return self.up + self.down


class FrontData(_Value):
    """Front-projection combinatorics derived from a grid diagram:
    per-component writhes and up/down cusp counts, read by one sweep of
    O(n) operations on n-bit ints (see :func:`_sweep`).

    ``writhes[c]`` is the signed count of component ``c``'s crossings
    with itself.  The vertical strand is always the over strand, and a
    crossing is +1 when (over direction, under direction) is a
    positively oriented frame.  Crossings between two components are
    no part of the front: :func:`linking_number` counts them in a sweep
    of its own.
    """

    __slots__ = ("writhes", "cusps")

    def __init__(self, writhes: tuple[int, ...], cusps: tuple[CuspCounts, ...]):
        object.__setattr__(self, "writhes", writhes)
        object.__setattr__(self, "cusps", cusps)

    def cusp_counts(self, c) -> CuspCounts:
        """Component ``c``'s cusps, whose total a closed front forces to
        be even: an odd one raises ParityViolation, so neither half that
        tb and r take is floored."""
        _check_component(c, len(self.cusps))
        counts = self.cusps[c]
        if counts.total % 2:
            raise ParityViolation(f"component {c} has an odd number of cusps ({counts.total})")
        return counts


def _check_component(c, count):
    """The one component-index check, for a grid and a front alike;
    floats and bools compare equal to ints, so the type is checked."""
    if type(c) is not int or not 0 <= c < count:
        raise UnknownComponent(f"no component {c!r} (diagram has {count})")


# the tables every grid derives from its markers, in the order it stores them
_TABLES = ("x_col_by_row", "o_col_by_row", "component_by_column", "component_count")


class GridDiagram(_Value, fields=("n", "xs", "os")):
    """A validated n x n grid diagram.

    ``xs[c]`` and ``os[c]`` give the row of the X and O marker in
    column c; any sequences may be passed, and they are stored as
    tuples.  Instances are immutable.  Construction checks the size
    and the markers (raising SizeMismatch, NotAPermutation or
    SharedCell, as :func:`new_grid` documents) and then derives the
    tables every reader shares: ``x_col_by_row`` and
    ``o_col_by_row`` (the inverse permutations), the owner table
    ``component_by_column`` (the tracing cycle of every column, the
    cycles numbered by their lowest column) and ``component_count``.
    The owner table is the grid's only record of its components.  The
    tables, like the memos of :func:`to_front` and ``classical``, sit
    in the grid's ``__dict__`` beside the three fields, and equality
    and hashing read only ``(n, xs, os)``.  A grid move skips the
    checks: it derives the tables of the grid it makes from its markers
    and its parent's owner table (see :func:`_moved`).

    >>> g = new_grid(2, [0, 1], [1, 0])
    >>> g.component_count
    1
    """

    def __init__(self, n: int, xs, os):
        _check_int(n, "grid size", SizeMismatch)
        if n < 1:
            raise SizeMismatch(f"grid size must be positive, got {n}")
        xs, os = tuple(xs), tuple(os)
        if len(xs) != n:
            raise SizeMismatch(f"X list has length {len(xs)}, expected {n}", which="x")
        if len(os) != n:
            raise SizeMismatch(f"O list has length {len(os)}, expected {n}", which="o")
        rows = list(range(n))
        # floats and bools compare equal to ints, so each marker's type is checked too
        if countOf(map(type, xs), int) != n or sorted(xs) != rows:
            raise NotAPermutation(f"X rows are not a permutation of 0..{n - 1}", which="x")
        if countOf(map(type, os), int) != n or sorted(os) != rows:
            raise NotAPermutation(f"O rows are not a permutation of 0..{n - 1}", which="o")
        c = next(compress(rows, map(eq, xs, os)), None)
        if c is not None:
            raise SharedCell(f"column {c} holds X and O in the same cell", column=c)
        x_col, o_col = _inverses(xs, os)
        owner, count = _trace(xs, o_col)
        # the fields, then the tables in the order of _TABLES
        vars(self).update(
            n=n, xs=xs, os=os, x_col_by_row=x_col, o_col_by_row=o_col,
            component_by_column=owner, component_count=count,
        )

    @classmethod
    def _derived(cls, n, xs, os, *tables):
        """A grid whose markers and tables, all tuples and the tables in
        the order of ``_TABLES``, are given: the one path that skips
        ``__init__`` and its checks, and its one caller is
        :func:`_moved`.  ``tests/test_moves.py::TestDerivedTables``
        proves every move's tables equal to a fresh construction's."""
        g = object.__new__(cls)
        vars(g).update(n=n, xs=xs, os=os)
        vars(g).update(zip(_TABLES, tables))
        return g


def _lines(g, c):
    """Component ``c``'s columns in ascending order, read off the owner
    table, and the rows of their X markers, sorted: the one reading of
    a component's lines, in O(n)."""
    _check_component(c, g.component_count)
    columns = list(compress(range(g.n), map(c.__eq__, g.component_by_column)))
    return columns, sorted(map(g.xs.__getitem__, columns))


def _trace(xs, o_col):
    """The owner table of valid markers and the number of tracing
    cycles: the X of column c shares its row with the O of column
    ``o_col[xs[c]]``, and the cycles are numbered by their lowest
    column."""
    owner = [-1] * len(xs)
    count = 0
    for start in range(len(xs)):
        if owner[start] >= 0:
            continue
        c = start
        # stepping through both tables is faster under CPython 3.11 than
        # building the successor table first
        while owner[c] < 0:
            owner[c] = count
            c = o_col[xs[c]]
        count += 1
    return tuple(owner), count


def _inverses(xs, os):
    """``x_col_by_row`` and ``o_col_by_row`` of valid markers, read off
    them in one pass: the one inversion, shared by ``__init__`` and
    :func:`_moved`."""
    n = len(xs)
    x_col = [0] * n
    o_col = [0] * n
    # an index loop is faster under CPython 3.11 than unpacking enumerate(zip())
    for c in range(n):
        x_col[xs[c]] = c
        o_col[os[c]] = c
    return tuple(x_col), tuple(o_col)


def _numbered(owner):
    """The owner table ``owner`` numbered as ``__init__`` numbers
    it: by lowest column, the order in which ``owner`` first names the
    components."""
    order = list(dict.fromkeys(owner))
    if order == sorted(order):
        return owner
    label = [0] * len(order)
    for k, old in enumerate(order):
        label[old] = k
    return tuple(map(label.__getitem__, owner))


def _moved(g, xs, os, owner) -> GridDiagram:
    """The grid a move takes ``g`` to, from the moved markers ``xs`` and
    ``os`` and ``g``'s owner table carried along the move's columns, all
    tuples.  A move maps a valid grid to a valid grid and keeps the
    link, so the markers are not checked and the component count is
    ``g``'s: the inverse tables are read off the markers and the owner
    table is renumbered by lowest column, unless it is ``g``'s own
    table, which a row commutation and an up or down translation pass
    on unmoved and which is numbered already."""
    x_col, o_col = _inverses(xs, os)
    if owner is not g.component_by_column:
        owner = _numbered(owner)
    return GridDiagram._derived(len(xs), xs, os, x_col, o_col, owner, g.component_count)


def new_grid(n, xs, os) -> GridDiagram:
    """Build a :class:`GridDiagram` from any marker sequences.

    Raises SizeMismatch, NotAPermutation or SharedCell on bad input,
    checked in that order; a size that is not an ``int`` (a float, a
    bool, a string or None) is a SizeMismatch, a marker that is not an
    ``int`` is no row, and a shared cell is reported at its lowest
    column.  SizeMismatch and NotAPermutation name the marker list at
    fault in ``which`` ("x" or "o"; None for the size itself).  The
    minimum legal size is 2: a 1x1 grid forces its only cell to hold
    both markers.
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
    """The front of ``g``: one sweep that counts each component's
    crossings against itself."""
    writhes, up, down = _sweep(g, range(g.component_count))
    return FrontData(tuple(writhes), tuple(map(CuspCounts, up, down)))


def _sweep(g: GridDiagram, against):
    """One left-to-right column sweep: O(n) operations on n-bit ints.

    Returns three lists indexed by component: for each component k, the
    signed crossings of k's verticals over the horizontals of component
    ``against[k]`` (0 where that is None: not counted), and k's up and
    down cusps.

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
    the toggles may follow the query: the popcount of the counted
    component's east rows minus that of its west rows inside the span.
    Each column makes at most two popcounts, each O(n) word steps but
    in C, so the sweep costs O(n) big-int operations whatever the
    number of components.

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
    n_comp = g.component_count
    x_col, o_col = g.x_col_by_row, g.o_col_by_row

    east = [0] * n_comp
    west = [0] * n_comp
    crossings = [0] * n_comp
    up = [0] * n_comp
    down = [0] * n_comp
    for c, (k, rx, ro) in enumerate(zip(g.component_by_column, g.xs, g.os)):
        up_strand = rx > ro  # the vertical runs O -> X
        lo, hi = (ro, rx) if up_strand else (rx, ro)
        under = against[k]
        if under is not None and hi - lo > 1:
            inside = (1 << hi) - (2 << lo)  # the rows strictly between
            total = (east[under] & inside).bit_count() - (west[under] & inside).bit_count()
            crossings[k] += -total if up_strand else total
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

    return crossings, up, down


def linking_number(g: GridDiagram, c1, c2) -> int:
    """Half the signed count of crossings between two components.

    In a planar diagram of two closed curves the signed crossings with
    either one over number the same, so that count is the linking
    number, and two that differ raise ParityViolation: a check strictly
    stronger than the parity of their sum.  Each call counts both sides
    in one sweep of its own, O(n) big-int operations, that counts no
    other pair: the front holds no crossings between components, and
    nothing is memoized.
    """
    _check_component(c1, g.component_count)
    _check_component(c2, g.component_count)
    if c1 == c2:
        raise SameComponent(f"components must differ, both are {c1}")
    against = [None] * g.component_count
    against[c1], against[c2] = c2, c1
    crossings = _sweep(g, against)[0]
    over, under = crossings[c1], crossings[c2]
    if over != under:
        raise ParityViolation(
            f"components {c1} and {c2} cross {over} signed times with {c1} over"
            f" but {under} with {c2} over"
        )
    return over


def reverse_component(g: GridDiagram, c) -> GridDiagram:
    """Reverse the tracing orientation of one component by swapping its
    X and O markers; other components are untouched."""
    xs = list(g.xs)
    os = list(g.os)
    for col in _lines(g, c)[0]:
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


# Text is split into lines, and input files are read, in blocks: the
# next _CHUNK characters, completed through the next "\n" (if any), so
# every block but the last ends just after a "\n" and no list of all the
# lines is ever held.  _read_input cuts a file and _chunks a str by it.
_CHUNK = 1 << 16


def _read_input(path):
    """The blocks of an input file's text, read as UTF-8 with universal
    newlines (``"\\r"`` and ``"\\r\\n"`` come as ``"\\n"``), so they are
    the ``_chunks`` of that text.  A byte that is not UTF-8 is decoded
    through ``surrogateescape``, and ``_text_lines`` or ``_load_json``
    reports it where it stands.  The file is opened when the first
    block is asked for and read once, as one stream, so a pipe works
    like a regular file.  A path that no file can have (a NUL byte, a
    lone surrogate) is an OSError like a missing file."""
    try:
        handle = open(path, encoding="utf-8", errors="surrogateescape", newline=None)
    except ValueError as e:
        raise OSError(f"cannot open {path!r}: {e}") from None
    with handle:
        while block := handle.read(_CHUNK) + handle.readline():
            yield block


def _chunks(text):
    start = 0
    while start < len(text):
        end = text.find("\n", start + _CHUNK) + 1 or len(text)
        yield text[start:end]
        start = end


def _text_lines(text):
    """``(line_no, line)`` for each line of ``text``, numbered from 1,
    exactly as ``enumerate(text.splitlines(), start=1)`` gives them: the
    one line splitter of every text format.  ``text`` is a str, which is
    cut into blocks by ``_chunks``, or an iterable of blocks whose
    concatenation is the text, each ending just after a ``"\\n"`` but
    perhaps the last (as ``_read_input`` gives them).  Each block is
    split on its own: a cut after ``"\\n"`` never divides a line break
    (``"\\r\\n"`` included), so the lines and their numbers are those of
    the whole text, while only one block's lines are held at a time.

    A byte that is not UTF-8, as ``surrogateescape`` decodes it, is a
    ParseError at its line and column, raised once every line before
    its line has been given, so a parser that reads line by line
    reports the first fault in text order."""
    counts = []  # the number of lines of each block split so far

    def split(block):
        if not block.isascii() and _ESCAPED.search(block):
            return _undecodable(block, sum(counts))
        lines = block.splitlines()
        counts.append(len(lines))
        return lines

    blocks = _chunks(text) if isinstance(text, str) else text
    return enumerate(chain.from_iterable(map(split, blocks)), start=1)


# A byte that is not UTF-8, as the "surrogateescape" error handler
# decodes it; strict UTF-8 decodes no surrogate, so nothing else matches.
_ESCAPED = re.compile("[\udc80-\udcff]")


def _undecodable(block, count):
    """The lines of ``block``, which follows ``count`` lines of text,
    that come before its first line holding a byte that is not UTF-8, then
    the ParseError at that byte.  The message is that of a strict
    decode of the line with its line end, which fails where the
    stream's decode escaped the byte; should it pass, the error still
    stands, without a reason."""
    for line_no, (line, whole) in enumerate(zip(block.splitlines(), block.splitlines(True)), count + 1):
        if bad := _ESCAPED.search(line):
            break
        yield line
    message = "not UTF-8"
    try:
        whole.encode("utf-8", "surrogateescape").decode("utf-8")
    except UnicodeError as e:
        message += f": {e.reason}"
    raise ParseError(line_no, bad.start() + 1, message)


def _token_column(raw, tokens, index):
    """The 1-based column in ``raw`` of ``tokens[index]``, where
    ``tokens`` are the whitespace-separated tokens of a part of ``raw``,
    in order: each is found from the end of the one before it."""
    end = 0
    for token in tokens[: index + 1]:
        start = raw.index(token, end)
        end = start + len(token)
    return start + 1


def _lead_column(line):
    """The 1-based column of the first token of ``line``."""
    return len(line) - len(line.lstrip()) + 1


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
    integer too long for the interpreter to convert.  A byte that is
    not UTF-8 comes first, as the line splitter reports it."""
    if not text.isascii():
        for _ in _text_lines(text):
            pass
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(e.lineno, e.colno, e.msg) from None
    except (RecursionError, ValueError) as e:
        raise ParseError(1, 1, f"undecodable JSON: {e}") from None


# each kind a JSON field may have, by the text that names it; ``true``
# and ``false`` load as bool, a subclass of int, so types are compared
_JSON_KINDS = {
    "an integer": lambda v: type(v) is int,
    "a list of integers": lambda v: type(v) is list and all(type(e) is int for e in v),
    "true or false": lambda v: type(v) is bool,
}


def _read_json(text, /, **kinds):
    """The fields of a JSON input, in the order of ``kinds``, which
    maps each key to the text of its kind in ``_JSON_KINDS``: the one
    reader of grid and model files.  The text must hold one object with
    exactly those keys, and each field must be of its kind; the first
    refusal, checked in that order, is a ParseError at 1:1."""
    data = _load_json(text)
    if type(data) is not dict:
        raise ParseError(1, 1, "expected a JSON object")
    if data.keys() != kinds.keys():
        raise ParseError(1, 1, "expected exactly the keys " + ", ".join(f'"{key}"' for key in kinds))
    for key, kind in kinds.items():
        if not _JSON_KINDS[kind](data[key]):
            raise ParseError(1, 1, f'"{key}" must be {kind}')
    return [data[key] for key in kinds]


def _parse_grid_json(text):
    return new_grid(*_read_json(text, n="an integer", x="a list of integers", o="a list of integers"))


def _refused_int(line_no, line, start, part):
    """The ParseError of ``part``, the text at 0-based ``start`` of
    ``line`` that is not an integer: at its token, or at the line's key
    when it is blank.  Leading whitespace counts toward the column."""
    token = part.strip()
    column = start + _lead_column(part) if token else _lead_column(line)
    return ParseError(line_no, column, f"not an integer: {token!r}")


def _int_list(line_no, line, key):
    stripped = line.strip()
    if not stripped.startswith(key + "="):
        raise ParseError(line_no, _lead_column(line), f"expected {key}=<comma-separated ints>")
    offset = line.index("=") + 1
    body = line[offset:]
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
            raise _refused_int(line_no, line, offset + pos, part) from None
        pos += len(part) + 1
    return values


def _parse_grid_text(text):
    content = []
    line_no = 0  # the number of the last line, once the loop ends
    for line_no, line in _text_lines(text):
        stripped = line.strip()
        if stripped and not stripped.startswith("#"):
            content.append((line_no, line))
    if len(content) != 3:
        # at the first surplus line, or at the end when one is missing
        line_no, line = content[3] if len(content) > 3 else (line_no or 1, "")
        message = f"expected 3 content lines (n=, X=, O=), found {len(content)}"
        raise ParseError(line_no, _lead_column(line), message)

    (ln_n, line_n), (ln_x, line_x), (ln_o, line_o) = content
    stripped = line_n.strip()
    if not stripped.startswith("n="):
        raise ParseError(ln_n, _lead_column(line_n), "expected n=<int>")
    try:
        n = _int_token(stripped[2:])
    except ValueError:
        offset = line_n.index("=") + 1
        raise _refused_int(ln_n, line_n, offset, line_n[offset:]) from None
    xs = _int_list(ln_x, line_x, "X")
    os = _int_list(ln_o, line_o, "O")
    try:
        return new_grid(n, xs, os)
    except (NotAPermutation, SizeMismatch) as e:
        line = {"x": ln_x, "o": ln_o}.get(e.which, ln_n)  # a bad size is the n= line's
        raise type(e)(f"line {line}: {e}", which=e.which) from None
    except SharedCell as e:
        raise type(e)(f"line {ln_x}: {e}", column=e.column) from None
