"""Seeded input generator for the legrid benchmark.

Every input is a pure function of the seed.  The program under test
receives only the text written here: grid files, move scripts and event
scripts.  Move scripts are legal by construction: the generator keeps
its own copy of the grid (raw X/O marker lists, no legrid import),
applies each move it emits to that copy, and only emits moves that are
legal on it.  Alongside each script it returns a plan: the expected
grid after the last move and, per step, what the step may change.

Regenerate every input file of one seed with

    python3 bench/gen.py --seed 7 --out bench/inputs/seed7
"""

from __future__ import annotations

import argparse
import os
import random

from refcheck import components, front_counts

# inv-ladder: (n, components, links of this size per round), smallest
# first; the largest rung also goes through rel.  Component counts are
# fixed so that the work per call does not depend on the seed.
LADDER = ((50, 4, 24), (200, 5, 3), (800, 6, 2))

# move-trace: (starting n, components) per script, moves per script and the
# band half-width that keeps n within [n0 - BAND, n0 + BAND].
MOVE_SLOTS = ((12, 2), (24, 2), (36, 3), (48, 3), (60, 4))
MOVES_PER_SCRIPT = 200
BAND = 4
MOVE_WEIGHTS = (("translate", 15), ("commute", 35), ("stab", 15), ("lstab", 10), ("destab", 25))

# cross-sim: events per script and the share of crossing events.
EVENTS = 100_000
CROSS_SHARE = 0.7

SELFTEST_CASES = 300

# Stabilization subtypes that change (tb, r), as documented by the
# program: X:NW and O:SE give (tb - 1, r + 1), X:SE and O:NW give
# (tb - 1, r - 1); the other four subtypes are isotopies.
STAB_DELTA = {
    ("X", "NW"): (-1, 1), ("O", "SE"): (-1, 1),
    ("X", "SE"): (-1, -1), ("O", "NW"): (-1, -1),
}


def grid_text(xs, os):
    return "n={}\nX={}\nO={}\n".format(len(xs), ",".join(map(str, xs)), ",".join(map(str, os)))


def random_link(rng, n, k):
    """A random n-grid with exactly k components of near-equal size."""
    cols = list(range(n))
    rng.shuffle(cols)
    sizes = [n // k + (1 if i < n % k else 0) for i in range(k)]
    xs = list(range(n))
    rng.shuffle(xs)
    os = [0] * n
    start = 0
    for size in sizes:
        cycle = cols[start:start + size]
        start += size
        for i, c in enumerate(cycle):
            # X of column c and O of the next column share a row
            os[cycle[(i + 1) % size]] = xs[c]
    return xs, os


def typical_link(rng, n, k, candidates=7):
    """Of several random links, the one with the median crossing count.
    A script's cost follows its starting link's crossings (isotopy moves
    change them little), so this keeps the work per input from depending
    on the seed."""
    links = sorted((random_link(rng, n, k) for _ in range(candidates)), key=lambda g: front_counts(*g)[3])
    return links[candidates // 2]


# -- grid moves on raw marker lists ---------------------------------------

def _translate(xs, os, direction):
    n = len(xs)
    if direction == "up":
        return [(r + 1) % n for r in xs], [(r + 1) % n for r in os]
    if direction == "down":
        return [(r - 1) % n for r in xs], [(r - 1) % n for r in os]
    shift = 1 if direction == "left" else -1
    return [xs[(c + shift) % n] for c in range(n)], [os[(c + shift) % n] for c in range(n)]


def _interleave(a, b):
    """Commutation of two adjacent lines is legal only when their marker
    spans are disjoint or strictly nested (no shared endpoint)."""
    (a0, a1), (b0, b1) = sorted(a), sorted(b)
    if {a0, a1} & {b0, b1}:
        return True
    return not (a1 < b0 or b1 < a0 or a0 < b0 < b1 < a1 or b0 < a0 < a1 < b1)


def _legal_commutes(xs, os):
    n = len(xs)
    out = [("col", i) for i in range(n - 1) if not _interleave((xs[i], os[i]), (xs[i + 1], os[i + 1]))]
    x_col = [0] * n
    o_col = [0] * n
    for c in range(n):
        x_col[xs[c]] = c
        o_col[os[c]] = c
    out += [("row", i) for i in range(n - 1)
            if not _interleave((x_col[i], o_col[i]), (x_col[i + 1], o_col[i + 1]))]
    return out


def _commute(xs, os, axis, i):
    if axis == "col":
        xs, os = list(xs), list(os)
        xs[i], xs[i + 1] = xs[i + 1], xs[i]
        os[i], os[i + 1] = os[i + 1], os[i]
        return xs, os
    swap = {i: i + 1, i + 1: i}
    return [swap.get(r, r) for r in xs], [swap.get(r, r) for r in os]


def _stab(xs, os, marker, c, subtype):
    """Replace the marker at (c, r) by an L of three markers in the 2x2
    block of columns c, c+1 and rows r, r+1: the opposite kind at the
    corner named by the subtype, the marker's kind in the two cells
    next to it."""
    n = len(xs)
    east = 1 if "E" in subtype else 0
    north = 1 if "N" in subtype else 0
    r = xs[c] if marker == "X" else os[c]
    out = {"X": [0] * (n + 1), "O": [0] * (n + 1)}
    for col in range(n):
        for kind, row in (("X", xs[col]), ("O", os[col])):
            if col == c and kind == marker:
                continue
            new_col = col if col < c else col + 1 if col > c else c + 1 - east
            new_row = row if row < r else row + 1 if row > r else r + 1 - north
            out[kind][new_col] = new_row
    lone = "O" if marker == "X" else "X"
    out[lone][c + east] = r + north
    out[marker][c + 1 - east] = r + north
    out[marker][c + east] = r + 1 - north
    return out["X"], out["O"]


def _lowest_l_block(xs, os, c):
    """The lowest L-block in columns c, c+1 as (row, pair kind, corner of
    the lone marker), or None."""
    markers = [(c, xs[c], "X"), (c, os[c], "O"), (c + 1, xs[c + 1], "X"), (c + 1, os[c + 1], "O")]
    for rr in sorted({m[1] for m in markers} | {m[1] - 1 for m in markers}):
        if not 0 <= rr <= len(xs) - 2:
            continue
        cells = {(col, row): kind for col, row, kind in markers if row in (rr, rr + 1)}
        if len(cells) != 3:
            continue
        empty = next((col, row) for col in (c, c + 1) for row in (rr, rr + 1) if (col, row) not in cells)
        elbow = (2 * c + 1 - empty[0], 2 * rr + 1 - empty[1])
        lone = cells[elbow]
        pair = {kind for cell, kind in cells.items() if cell != elbow}
        if len(pair) != 1 or lone in pair:
            continue
        corner = ("N" if elbow[1] > rr else "S") + ("E" if elbow[0] > c else "W")
        return rr, pair.pop(), corner
    return None


def _destab(xs, os, c, rr, pair_kind):
    n = len(xs)
    out = {"X": [0] * (n - 1), "O": [0] * (n - 1)}
    for col in range(n):
        for kind, row in (("X", xs[col]), ("O", os[col])):
            if col in (c, c + 1) and row in (rr, rr + 1):
                continue
            new_col = col if col <= c else col - 1
            new_row = row if row <= rr else row - 1
            out[kind][new_col] = new_row
    out[pair_kind][c] = rr
    return out["X"], out["O"]


def _column_map(n, kind, arg):
    """Where a column's strand sits after the move (used to follow the
    tracked component pair)."""
    if kind == "translate":
        shift = {"left": -1, "right": 1}.get(arg, 0)
        return lambda col: (col + shift) % n
    if kind == "commute":
        axis, i = arg
        swap = {i: i + 1, i + 1: i} if axis == "col" else {}
        return lambda col: swap.get(col, col)
    if kind in ("stab", "lstab"):
        return lambda col: col if col <= arg else col + 1
    return lambda col: col if col <= arg else col - 1  # destab merges columns arg, arg + 1


def move_script(rng, xs, os, moves):
    """Generate a legal move script from the grid (xs, os).

    Returns (script text, plan).  ``plan["steps"][i]`` describes trace
    step i (step 0 is the starting grid): the move kind, the (tb, r)
    change it must make to exactly one component (None when the
    multiset of (tb, r) must not change) and the indices (k, j) of the
    tracked component pair.  ``plan["final"]`` is the grid after the
    last move.
    """
    n0 = len(xs)
    lo, hi = n0 - BAND, n0 + BAND
    comps, _ = components(xs, os)
    pair = (min(comps[0]), min(comps[1]))
    steps = [{"kind": None, "delta": None, "pair": (0, 1)}]
    lines = []
    kinds = [k for k, _ in MOVE_WEIGHTS]
    weights = [w for _, w in MOVE_WEIGHTS]
    while len(lines) < moves:
        n = len(xs)
        kind = rng.choices(kinds, weights)[0]
        delta = None
        if kind == "translate":
            arg = rng.choice(("up", "down", "left", "right"))
            line = f"translate {arg}"
            nxt = _translate(xs, os, arg)
        elif kind == "commute":
            legal = _legal_commutes(xs, os)
            if not legal:
                continue
            arg = rng.choice(legal)
            line = f"commute {arg[0]} {arg[1]}"
            nxt = _commute(xs, os, *arg)
        elif kind == "stab":
            if n >= hi:
                continue
            marker = rng.choice("XO")
            arg = rng.randrange(n)
            line = f"stab {marker} {arg} {rng.choice(('NE', 'SW'))}"
            nxt = _stab(xs, os, marker, arg, line[-2:])
        elif kind == "lstab":
            if n >= hi:
                continue
            comps, _ = components(xs, os)
            comp = rng.randrange(len(comps))
            sign = rng.choice((1, -1))
            arg = min(comps[comp])
            line = f"lstab {comp} {'+' if sign > 0 else '-'}"
            nxt = _stab(xs, os, "X", arg, "NW" if sign > 0 else "SE")
            delta = (-1, sign)
        else:
            if n <= lo:
                continue
            blocks = [(c, b) for c in range(n - 1) if (b := _lowest_l_block(xs, os, c))]
            if not blocks:
                continue
            arg, (rr, pair_kind, corner) = rng.choice(blocks)
            line = f"destab {arg}"
            nxt = _destab(xs, os, arg, rr, pair_kind)
            stab_delta = STAB_DELTA.get((pair_kind, corner))
            delta = None if stab_delta is None else (-stab_delta[0], -stab_delta[1])
        cmap = _column_map(n, kind, arg)
        pair = (cmap(pair[0]), cmap(pair[1]))
        xs, os = nxt
        _, owner = components(xs, os)
        steps.append({"kind": kind, "delta": delta, "pair": (owner[pair[0]], owner[pair[1]])})
        lines.append(line)
    return "\n".join(lines) + "\n", {"steps": steps, "final": (xs, os)}


def event_script(rng, events):
    """Return (script text, per-kind counts) for a mixed event script."""
    lines = []
    counts = {"cross_sum": 0, "ribbon": 0, "singular_sum": 0, "cross": 0, "pattern": 0}
    for _ in range(events):
        if rng.random() < CROSS_SHARE:
            sign = rng.choice((1, -1))
            counts["cross"] += 1
            counts["cross_sum"] += sign
            lines.append(f"cross {'+' if sign > 0 else '-'}")
        else:
            c, ribbon, bp, clasps = (rng.randint(0, 3) for _ in range(4))
            singular = rng.choice(("none", "+", "-"))
            counts["pattern"] += 1
            counts["ribbon"] += ribbon
            counts["singular_sum"] += {"none": 0, "+": 1, "-": -1}[singular]
            lines.append(f"pattern circles={c} ribbon={ribbon} bparallel={bp} clasps={clasps} singular={singular}")
    return "\n".join(lines) + "\n", counts


# -- whole workloads -------------------------------------------------------

def _rng(seed, workload):
    return random.Random(f"legrid-bench:{seed}:{workload}")


def inv_ladder(seed):
    """List of (n, components, xs, os) links, ladder rungs in order."""
    rng = _rng(seed, "inv-ladder")
    return [(n, k, *typical_link(rng, n, k)) for n, k, count in LADDER for _ in range(count)]


def move_trace(seed):
    """List of (xs, os, script text, plan), one per slot."""
    rng = _rng(seed, "move-trace")
    out = []
    for n0, k in MOVE_SLOTS:
        xs, os = typical_link(rng, n0, k)
        text, plan = move_script(rng, xs, os, MOVES_PER_SCRIPT)
        out.append((xs, os, text, plan))
    return out


def cross_sim(seed):
    """(init state, script text, counts)."""
    rng = _rng(seed, "cross-sim")
    init = [rng.randint(-20, 20) for _ in range(6)]
    text, counts = event_script(rng, EVENTS)
    return init, text, counts


def selftest(seed):
    """(selftest seed, cases)."""
    return _rng(seed, "selftest").randrange(10**6), SELFTEST_CASES


def write_inputs(seed, out_dir):
    """Write every input file of one seed into out_dir; return the paths."""
    os.makedirs(out_dir, exist_ok=True)
    paths = {}

    def put(name, text):
        path = os.path.join(out_dir, name)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        paths[name] = path

    for i, (n, _, xs, os_) in enumerate(inv_ladder(seed)):
        put(f"ladder-{i:02d}-n{n}.grid", grid_text(xs, os_))
    for i, (xs, os_, text, _) in enumerate(move_trace(seed)):
        put(f"moves-{i}-n{len(xs)}.grid", grid_text(xs, os_))
        put(f"moves-{i}.script", text)
    init, text, _ = cross_sim(seed)
    put("cross-sim.events", text)
    put("cross-sim.init", ",".join(map(str, init)) + "\n")
    sseed, cases = selftest(seed)
    put("selftest.args", f"--seed {sseed} --cases {cases}\n")
    return paths


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="directory for the input files")
    args = parser.parse_args()
    for path in write_inputs(args.seed, args.out).values():
        print(path)
