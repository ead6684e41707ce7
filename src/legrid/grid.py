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
from functools import cached_property

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
    and every crossing sign flips.
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

    def _check(self, c):
        if not 0 <= c < len(self.cusps):
            raise UnknownComponent(f"no component {c}")

    def cusp_counts(self, c) -> CuspCounts:
        self._check(c)
        return self.cusps[c]

    def writhe(self, c) -> int:
        """Sum of self-crossing signs of component ``c``."""
        self._check(c)
        return self.crossing_matrix[c][c]

    def crossing_sum(self, c1, c2) -> int:
        """Signed count of crossings between two distinct components
        (the writhe when ``c1 == c2``)."""
        self._check(c1)
        self._check(c2)
        m = self.crossing_matrix
        return m[c1][c2] + m[c2][c1] if c1 != c2 else m[c1][c1]


@dataclass(frozen=True)
class GridDiagram:
    """An n x n grid diagram.

    ``xs[c]`` and ``os[c]`` give the row of the X and O marker in
    column c.  Instances are immutable; use :func:`new_grid` to build a
    validated diagram.

    >>> g = new_grid(2, [0, 1], [1, 0])
    >>> len(g.components)
    1
    """

    n: int
    xs: tuple[int, ...]
    os: tuple[int, ...]

    @cached_property
    def x_col_by_row(self):
        cols = [0] * self.n
        for c, r in enumerate(self.xs):
            cols[r] = c
        return tuple(cols)

    @cached_property
    def o_col_by_row(self):
        cols = [0] * self.n
        for c, r in enumerate(self.os):
            cols[r] = c
        return tuple(cols)

    @cached_property
    def components(self) -> tuple[Component, ...]:
        """Tracing cycles, ordered by their lowest column index."""
        seen = [False] * self.n
        out = []
        for start in range(self.n):
            if seen[start]:
                continue
            cols = []
            c = start
            while not seen[c]:
                seen[c] = True
                cols.append(c)
                c = self.o_col_by_row[self.xs[c]]
            out.append(
                Component(
                    index=len(out),
                    columns=frozenset(cols),
                    rows=frozenset(self.xs[c] for c in cols),
                )
            )
        return tuple(out)

    @cached_property
    def component_by_column(self):
        owner = [0] * self.n
        for comp in self.components:
            for c in comp.columns:
                owner[c] = comp.index
        return tuple(owner)

    def component(self, c) -> Component:
        if not 0 <= c < len(self.components):
            raise UnknownComponent(f"no component {c} (diagram has {len(self.components)})")
        return self.components[c]


def new_grid(n, xs, os) -> GridDiagram:
    """Validate marker lists and build a :class:`GridDiagram`.

    Raises SizeMismatch, NotAPermutation or SharedCell on bad input.
    The minimum legal size is 2: a 1x1 grid forces its only cell to
    hold both markers.
    """
    xs = tuple(xs)
    os = tuple(os)
    if n < 1:
        raise SizeMismatch(f"grid size must be positive, got {n}")
    if len(xs) != n:
        raise SizeMismatch(f"X list has length {len(xs)}, expected {n}")
    if len(os) != n:
        raise SizeMismatch(f"O list has length {len(os)}, expected {n}")
    if sorted(xs) != list(range(n)):
        raise NotAPermutation(f"X rows are not a permutation of 0..{n - 1}", which="x")
    if sorted(os) != list(range(n)):
        raise NotAPermutation(f"O rows are not a permutation of 0..{n - 1}", which="o")
    for c in range(n):
        if xs[c] == os[c]:
            raise SharedCell(f"column {c} holds X and O in the same cell", column=c)
    g = GridDiagram(n=n, xs=xs, os=os)
    g.components  # computed eagerly
    return g


_CUSP_CORNERS = {
    Convention.NW_SE: {("N", "W"), ("S", "E")},
    Convention.NE_SW: {("N", "E"), ("S", "W")},
}


def to_front(g: GridDiagram, conv: Convention = Convention.NW_SE) -> FrontData:
    """Read the front-projection combinatorics off the grid.

    The result is memoized per convention on the grid instance, so
    every caller shares one front per grid and convention.
    """
    cache = g.__dict__.setdefault("_fronts", {})
    front = cache.get(conv)
    if front is None:
        front = cache[conv] = _read_front(g, conv)
    return front


def _read_front(g: GridDiagram, conv: Convention) -> FrontData:
    """One left-to-right column sweep, O(n C log n).

    A crossing at (c, r) needs the vertical of column c to pass
    strictly through row r and the horizontal of row r to pass strictly
    through column c.  The sweep keeps one Fenwick tree per component
    (Fenwick 1994) over the rows of the horizontals active at the
    current column, each holding its direction: +1 when X -> O runs
    east, -1 when west.  Column c holds the X end of row xs[c] and the
    O end of row os[c].  Adding +1 at every X end and -1 at every O end
    opens each horizontal with its direction at whichever end comes
    first and cancels it at the other.  Those two rows are the ends of
    the column's vertical, outside the open row span that is queried,
    so the updates may follow the query.

    Cusp corners: at each marker the vertical heads toward the other
    marker of its column and the horizontal toward the other marker of
    its row; the two directions name the corner type.  Cusps are the
    corners on the convention's diagonal, up or down according to the
    orientation of the vertical strand through them.
    """
    n = g.n
    n_comp = len(g.components)
    sign_flip = -1 if conv is Convention.NE_SW else 1
    corners = _CUSP_CORNERS[conv]
    xs, os = g.xs, g.os
    x_col, o_col = g.x_col_by_row, g.o_col_by_row
    owner = g.component_by_column

    trees = [[0] * (n + 1) for _ in range(n_comp)]
    matrix = [[0] * n_comp for _ in range(n_comp)]
    up = [0] * n_comp
    down = [0] * n_comp
    for c in range(n):
        k = owner[c]
        rx, ro = xs[c], os[c]
        up_strand = rx > ro  # the vertical runs O -> X
        lo, hi = (ro, rx) if up_strand else (rx, ro)
        sign = (-1 if up_strand else 1) * sign_flip
        if hi - lo > 1:
            row = matrix[k]
            for under, tree in enumerate(trees):
                # prefix(hi) - prefix(lo + 1), the rows strictly between;
                # the two walks stop where their index paths meet
                total = 0
                i, j = hi, lo + 1
                while i != j:
                    if i > j:
                        total += tree[i]
                        i &= i - 1
                    else:
                        total -= tree[j]
                        j &= j - 1
                if total:
                    row[under] += sign * total
        tree = trees[k]
        for r, value in ((rx, 1), (ro, -1)):
            i = r + 1
            while i <= n:
                tree[i] += value
                i += i & -i

        x_corner = ("S" if up_strand else "N", "E" if o_col[rx] > c else "W")
        o_corner = ("N" if up_strand else "S", "E" if x_col[ro] > c else "W")
        cusps = (x_corner in corners) + (o_corner in corners)
        if up_strand:
            up[k] += cusps
        else:
            down[k] += cusps

    return FrontData(
        crossing_matrix=tuple(map(tuple, matrix)),
        cusps=tuple(CuspCounts(u, d) for u, d in zip(up, down)),
    )


def writhe(g: GridDiagram, c, conv: Convention = Convention.NW_SE) -> int:
    """Signed self-crossing count of component ``c``."""
    g.component(c)
    return to_front(g, conv).writhe(c)


def linking_number(g: GridDiagram, c1, c2, conv: Convention = Convention.NW_SE) -> int:
    """Half the signed count of crossings between two components."""
    if c1 == c2:
        raise SameComponent(f"components must differ, both are {c1}")
    g.component(c1)
    g.component(c2)
    total = to_front(g, conv).crossing_sum(c1, c2)
    if total % 2:
        raise ParityViolation(
            f"components {c1} and {c2} cross an odd signed number of times ({total})"
        )
    return total // 2


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
    values = []
    body = line[offset:].rstrip("\n")
    pos = 0
    for part in body.split(","):
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
        raise ParseError(ln_n, 3, f"not an integer: {stripped[2:].strip()!r}") from None
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
