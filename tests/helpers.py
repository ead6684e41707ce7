"""Independent brute-force oracles used to pin expected values, and an
event-script writer.

The oracles work straight from the raw marker lists so that they
share no code with the library paths they check.  Verticals join the O
to the X of each column, horizontals the X to the O of each row,
vertical strands cross over horizontal ones, and a crossing is +1 when
(over direction, under direction) is a positively oriented frame.
"""

from itertools import permutations

from legrid import CrossingEvent


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


def all_marker_lists(n):
    """Every valid (xs, os) pair of size n."""
    for xs in permutations(range(n)):
        for os in permutations(range(n)):
            if all(x != o for x, o in zip(xs, os)):
                yield list(xs), list(os)


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
