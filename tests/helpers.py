"""Independent brute-force oracles used to pin expected values, a
cell-by-cell reference for (de)stabilization, an event-script writer
and a reader of its own, a random legal move script, and the CLI's outputs as it built them
whole, before it wrote them in chunks.

The oracles work straight from the raw marker lists so that they
share no code with the library paths they check.  Verticals join the O
to the X of each column, horizontals the X to the O of each row,
vertical strands cross over horizontal ones, and a crossing is +1 when
(over direction, under direction) is a positively oriented frame.
"""

import re
from itertools import permutations

from legrid import Convention, CrossingEvent, IntersectionPattern, LegridError, apply_move, parse_move_script
from legrid.simulator import _parse_script

# Every attribute of a grid before a memo is set: the markers, their
# inverse permutations, the owner table and the component count.
GRID_TABLES = ["n", "xs", "os", "x_col_by_row", "o_col_by_row", "component_by_column", "component_count"]


def trace_components(xs, os):
    """Column partition into tracing cycles, lowest column first."""
    n = len(xs)
    o_col = {os[c]: c for c in range(n)}
    seen = set()
    comps = []
    for start in range(n):
        if start in seen:
            continue
        cyc = []
        c = start
        while c not in seen:
            seen.add(c)
            cyc.append(c)
            c = o_col[xs[c]]
        comps.append(sorted(cyc))
    return comps


def column_owner(xs, os):
    owner = {}
    for idx, cols in enumerate(trace_components(xs, os)):
        for c in cols:
            owner[c] = idx
    return owner


def brute_crossings(xs, os):
    """All crossings as (col, row, sign, over_component, under_component)."""
    n = len(xs)
    owner = column_owner(xs, os)
    x_col = {xs[c]: c for c in range(n)}
    o_col = {os[c]: c for c in range(n)}
    out = []
    for c in range(n):
        v_lo, v_hi = sorted((xs[c], os[c]))
        v_dir = 1 if xs[c] > os[c] else -1
        for r in range(n):
            h_lo, h_hi = sorted((x_col[r], o_col[r]))
            h_dir = 1 if o_col[r] > x_col[r] else -1
            if h_lo < c < h_hi and v_lo < r < v_hi:
                out.append((c, r, -v_dir * h_dir, owner[c], owner[x_col[r]]))
    return out


def brute_writhe(xs, os, comp):
    return sum(s for _, _, s, a, b in brute_crossings(xs, os) if a == comp and b == comp)


def brute_linking(xs, os, c1, c2):
    total = sum(s for _, _, s, a, b in brute_crossings(xs, os) if {a, b} == {c1, c2})
    assert total % 2 == 0
    return total // 2


def _strand_span(a, b):
    """The lines a strand from line ``a`` to line ``b`` steps from."""
    return range(a, b, 1 if b > a else -1)


def crossings_and_seifert_circles(xs, os):
    """(c, s): the crossings of the grid's diagram and the circles that
    Seifert's algorithm gives on it, so that its Seifert surface has
    Euler characteristic s - c.

    A walk steps one cell at a time along the link's orientation.  At a
    marker it turns onto the other strand, as the link does; at a
    crossing it turns too, which is the oriented smoothing.  Each state
    (point, strand) has one successor and one predecessor, and the
    circles are the cycles."""
    n = len(xs)
    x_col = {xs[c]: c for c in range(n)}
    o_col = {os[c]: c for c in range(n)}
    crossings = {(c, r) for c, r, *_ in brute_crossings(xs, os)}

    def step(col, row, vertical):
        if vertical:  # along the column from its O to its X
            row += 1 if xs[col] > os[col] else -1
            turn = row == xs[col]
        else:  # along the row from its X to its O
            col += 1 if o_col[row] > x_col[row] else -1
            turn = col == o_col[row]
        return col, row, vertical != (turn or (col, row) in crossings)

    states = {(c, r, True) for c in range(n) for r in _strand_span(os[c], xs[c])}
    states |= {(c, r, False) for r in range(n) for c in _strand_span(x_col[r], o_col[r])}
    circles = 0
    while states:
        circles += 1
        start = state = states.pop()
        while (state := step(*state)) != start:
            states.remove(state)
    return len(crossings), circles


def brute_cusps(xs, os, conv):
    """Per component, the (up, down) cusp counts, corner by corner.

    Each marker is a corner: its vertical heads N or S toward the other
    marker of its column, its horizontal E or W toward the other marker
    of its row.  The corners on the convention's diagonal (NW and SE
    for nw-se, NE and SW for ne-sw) are cusps, up when the vertical
    through them runs O -> X upward."""
    n = len(xs)
    owner = column_owner(xs, os)
    x_col = {xs[c]: c for c in range(n)}
    o_col = {os[c]: c for c in range(n)}
    diagonal = {"NW", "SE"} if conv is Convention.NW_SE else {"NE", "SW"}
    counts = [[0, 0] for _ in set(owner.values())]
    for c in range(n):
        for row, other_row, other_col in ((xs[c], os[c], o_col[xs[c]]), (os[c], xs[c], x_col[os[c]])):
            corner = ("N" if other_row > row else "S") + ("E" if other_col > c else "W")
            if corner in diagonal:
                counts[owner[c]][0 if xs[c] > os[c] else 1] += 1
    return [tuple(pair) for pair in counts]


def all_marker_lists(n):
    """Every valid (xs, os) pair of size n."""
    for xs in permutations(range(n)):
        for os in permutations(range(n)):
            if all(x != o for x, o in zip(xs, os)):
                yield list(xs), list(os)


def marker_cells(xs, os):
    """The marked cells of a grid: (column, row) -> "X" or "O"."""
    cells = {(c, r): "X" for c, r in enumerate(xs)}
    cells.update(((c, r), "O") for c, r in enumerate(os))
    return cells


def _marker_lists(cells, n):
    """The (xs, os) lists of an n-grid given by its marked cells."""
    rows = {"X": [None] * n, "O": [None] * n}
    for (c, r), kind in cells.items():
        rows[kind][c] = r
    return rows["X"], rows["O"]


def cell_stabilize(xs, os, marker, c, subtype):
    """The (n+1)-grid that stabilizing the ``marker`` of column ``c``
    gives, built cell by cell, or None for an argument with no such
    marker.  Column c and row r of the marker each become two lines.
    The block on them holds the lone marker of the other kind at the
    corner ``subtype`` names, and the two markers of ``marker``'s kind
    in the two cells next to it.  The other marker of column c goes to
    the block column without a lone marker, and the other marker of row
    r to the block row without one."""
    n = len(xs)
    if marker not in ("X", "O") or subtype not in ("NE", "NW", "SE", "SW") or not 0 <= c < n:
        return None
    east, north = int("E" in subtype), int("N" in subtype)
    r = (xs if marker == "X" else os)[c]
    out = {}
    for (col, row), kind in marker_cells(xs, os).items():
        if (col, row) == (c, r):
            continue
        new_col = c + 1 - east if col == c else col + (col > c)
        new_row = r + 1 - north if row == r else row + (row > r)
        out[(new_col, new_row)] = kind
    out[(c + east, r + north)] = "O" if marker == "X" else "X"
    out[(c + 1 - east, r + north)] = marker
    out[(c + east, r + 1 - north)] = marker
    return _marker_lists(out, n + 1)


def l_block(cells, c, rr):
    """The kind of the two markers of a 2x2 L-block on columns c, c+1
    and rows rr, rr+1, or None when the block is no L: it must hold
    three markers, the one at the corner opposite the empty cell of one
    kind and the other two of the other kind."""
    block = [(col, row) for col in (c, c + 1) for row in (rr, rr + 1)]
    held = [cell for cell in block if cell in cells]
    if len(held) != 3:
        return None
    (empty,) = set(block) - set(held)
    elbow = (2 * c + 1 - empty[0], 2 * rr + 1 - empty[1])
    pair = {cells[cell] for cell in held if cell != elbow}
    if len(pair) != 1 or cells[elbow] in pair:
        return None
    return pair.pop()


def cell_destabilize(xs, os, c, row=None):
    """The (n-1)-grid that collapsing an L-block on columns c, c+1
    gives, built cell by cell, or None when there is none: the lowest
    block, or the one on rows ``row, row+1`` when ``row`` is given.
    The three block markers become one marker of the pair's kind, the
    two columns and the two rows each merge into one line, and every
    other marker keeps its cell on the merged grid."""
    n = len(xs)
    if not 0 <= c <= n - 2:
        return None
    if row is not None and not 0 <= row <= n - 2:
        return None
    cells = marker_cells(xs, os)
    for rr in range(n - 1) if row is None else [row]:
        pair = l_block(cells, c, rr)
        if pair is None:
            continue
        out = {
            (col - (col > c), r - (r > rr)): kind
            for (col, r), kind in cells.items()
            if not (col in (c, c + 1) and r in (rr, rr + 1))
        }
        out[(c, rr)] = pair
        return _marker_lists(out, n - 1)
    return None


def _sign_text(sign):
    return "+" if sign > 0 else "-"


def event_to_text(event):
    """One line of the event-script format for a crossing or a pattern
    with at most one singular clasp: the inverse of the event parser.
    Only tests write event scripts, so the writer lives here."""
    if isinstance(event, CrossingEvent):
        return "cross " + _sign_text(event.sign)
    singular = _sign_text(event.singular[0]) if event.singular else "none"
    return (
        f"pattern circles={event.circles} ribbon={event.ribbon_arcs} "
        f"bparallel={event.boundary_parallel_arcs} clasps={event.clasps} singular={singular}"
    )


def write_events(events):
    return "".join(event_to_text(event) + "\n" for event in events)


def parse_events(text):
    """The events of a script in line order, one shared object per
    value: the event parser's table read through its indices."""
    table, indices = _parse_script(text)
    return tuple(map(table.__getitem__, indices))


# the count fields of a pattern line, in IntersectionPattern's order
_COUNT_FIELDS = ("circles", "ribbon", "bparallel", "clasps")
_SINGULAR = {"none": (), "+": (1,), "-": (-1,)}


def reference_events(text):
    """The events of a script read from the format alone, sharing no
    code with legrid's parser, or None when some line is no event.
    Lines split as ``str.splitlines`` splits them and ``#`` starts a
    comment; a pattern names each field once, in any order, and its
    counts are non-negative ASCII integers with an optional sign."""
    events = []
    for line in text.splitlines():
        words = line.split("#", 1)[0].split()
        if not words:
            continue
        verb, *args = words
        if verb == "cross" and len(args) == 1 and args[0] in ("+", "-"):
            events.append(CrossingEvent(1 if args[0] == "+" else -1))
            continue
        fields = dict(arg.split("=", 1) for arg in args if "=" in arg)
        if verb != "pattern" or len(fields) != len(args) or fields.keys() != {*_COUNT_FIELDS, "singular"}:
            return None
        counts = [fields[key] for key in _COUNT_FIELDS]
        if fields["singular"] not in _SINGULAR or not all(re.fullmatch(r"\+?[0-9]+|-0+", n) for n in counts):
            return None
        events.append(IntersectionPattern(*map(int, counts), _SINGULAR[fields["singular"]]))
    return events


# the kinds of move in a random legal script, with their weights
MOVE_KINDS = {"translate": 15, "commute": 35, "stab": 15, "lstab": 10, "destab": 25}


def legal_script(rng, g, moves, band=4):
    """The lines of a random script of ``moves`` legal moves from the
    grid ``g``, of every kind, keeping the grid size within ``band`` of
    ``g.n``.  A drawn move is kept only if it applies."""
    lo, hi = g.n - band, g.n + band
    lines = []
    while len(lines) < moves:
        n = g.n
        kind = rng.choices(list(MOVE_KINDS), list(MOVE_KINDS.values()))[0]
        if kind == "translate":
            line = f"translate {rng.choice(('up', 'down', 'left', 'right'))}"
        elif kind == "commute":
            line = f"commute {rng.choice(('row', 'col'))} {rng.randrange(n - 1)}"
        elif kind == "stab" and n < hi:
            line = f"stab {rng.choice('XO')} {rng.randrange(n)} {rng.choice(('NE', 'NW', 'SE', 'SW'))}"
        elif kind == "lstab" and n < hi:
            line = f"lstab {rng.randrange(g.component_count)} {rng.choice('+-')}"
        elif kind == "destab" and n > lo:
            line = f"destab {rng.randrange(n - 1)}"
        else:
            continue
        try:
            g = apply_move(g, parse_move_script(line)[0])
        except LegridError:
            continue
        lines.append(line)
    return lines


def table(rows, headers):
    """A small aligned text table, as the CLI rendered it whole."""
    widths = [len(h) for h in headers]
    cells = [[str(v) for v in row] for row in rows]
    for row in cells:
        widths = [max(w, len(c)) for w, c in zip(widths, row)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths))]
    lines.append("  ".join("-" * w for w in widths))
    lines.extend("  ".join(c.ljust(w) for c, w in zip(row, widths)) for row in cells)
    return "\n".join(lines)


def moves_payload(result):
    """The JSON value of ``legrid moves`` for a ScriptResult, built as
    nested dicts."""
    final = result.final
    trace = [
        {
            "step": step.index,
            "move": None if step.move is None else step.move.text(),
            "components": [
                {"component": i, "tb": inv.tb, "r": inv.r, "sl_pos": inv.sl_pos, "sl_neg": inv.sl_neg}
                for i, inv in enumerate(step.invariants)
            ],
            "relative": None if step.relative is None else {
                "tb_rel": step.relative.tb_rel, "r_rel": step.relative.r_rel, "sl_rel": step.relative.sl_rel
            },
            "flags": list(step.flags),
        }
        for step in result.trace
    ]
    return {"final": {"n": final.n, "x": list(final.xs), "o": list(final.os)}, "trace": trace}


def moves_table(result):
    """The text of ``legrid moves --pretty`` for a ScriptResult, without
    its last newline."""
    rows = []
    for step in result.trace:
        rel = step.relative
        move = "-" if step.move is None else step.move.text()
        comps = " ".join(f"({inv.tb},{inv.r})" for inv in step.invariants)
        rel_text = "-" if rel is None else f"({rel.tb_rel},{rel.r_rel},{rel.sl_rel})"
        rows.append([step.index, move, comps, rel_text, ",".join(step.flags) or "-"])
    headers = ["step", "move", "per-component (tb, r)", "relative", "flags"]
    final = result.final
    return table(rows, headers) + f"\nfinal: n={final.n} X={list(final.xs)} O={list(final.os)}"
