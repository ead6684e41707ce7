"""Discrete bookkeeping for isotopies that push one knot across the
other.

A :class:`FramedPairState` carries the boundary data of the shared
Seifert surface: framing twists tw_K and tw_J, tangent windings w_K
and w_J, and push-off intersection counts sK and sJ.  A crossing event
of sign e shifts the twist and winding fields by -e and the
intersection fields by +e, on both boundaries at once, so the relative
triple

    tb_rel = tw_K - tw_J,  r_rel = w_K - w_J,  sl_rel = sK - sJ

never moves even though every individual field does.  Surface
reconstruction after a crossing is an :class:`IntersectionPattern`,
whose resolution also shifts the state by a fixed amount.

Every event carries its shift (``event.shift``, a 6-tuple of ints),
wherever it occurs: :func:`cross` applies it to one state, and
:func:`replay` finds it once per distinct event and replays a trace by
integer addition.
"""

from __future__ import annotations

from collections import namedtuple
from operator import add

from .errors import MultipleSingularClasps, ParseError, TripleDrift, _Value, _check_sign
from .grid import _int_token, _text_lines, _token_column

__all__ = [
    "FramedPairState",
    "CrossingEvent",
    "IntersectionPattern",
    "cross",
    "replay",
    "run_trace",
]


class FramedPairState(namedtuple("FramedPairState", "tw_K tw_J w_K w_J sK sJ", defaults=(0,) * 6)):
    """The six boundary fields, each 0 unless given; as a tuple it is
    the row that :func:`replay` yields."""

    __slots__ = ()

    @property
    def tb_rel(self):
        return self.tw_K - self.tw_J

    @property
    def r_rel(self):
        return self.w_K - self.w_J

    @property
    def sl_rel(self):
        return self.sK - self.sJ

    @property
    def triple(self):
        return (self.tb_rel, self.r_rel, self.sl_rel)


class CrossingEvent(_Value):
    """One transverse crossing of the moving knot through the fixed
    one, with its intersection sign."""

    __slots__ = ("sign",)

    def __init__(self, sign: int):
        _check_sign(sign, "crossing sign")
        object.__setattr__(self, "sign", sign)

    @property
    def shift(self):
        """Twists and windings shift by the negated sign, intersection
        counts by the sign itself; the relative triple is unchanged."""
        e = self.sign
        return (-e, -e, -e, -e, e, e)


class IntersectionPattern(_Value):
    """Counts of the intersection arcs between the old surface and the
    isotopy annulus, plus the sign of the singular clasp if present.

    ``singular`` is a tuple of clasp signs, each +1 or -1, and empty
    when there is no singular clasp.  A pattern with more than one
    raises :class:`MultipleSingularClasps` when it is built, after the
    sign checks, since a second singular clasp would force a
    self-intersection of the embedded surface.

    Resolution order: circles, boundary-parallel arcs, ribbon arcs,
    clasps, then the singular clasp, innermost arcs first within each
    class.  Circles are cut and pasted and boundary-parallel arcs are
    interior isotopies; clasps resolve away from the fixed knot.  Only
    ribbon arcs (one twist on each boundary) and the singular clasp (the
    full crossing shift) move any field.
    """

    __slots__ = ("circles", "ribbon_arcs", "boundary_parallel_arcs", "clasps", "singular")

    def __init__(self, circles=0, ribbon_arcs=0, boundary_parallel_arcs=0, clasps=0, singular=()):
        values = (circles, ribbon_arcs, boundary_parallel_arcs, clasps, singular)
        for name, count in zip(self.__slots__, values[:4]):
            if type(count) is not int or count < 0:
                raise ValueError(f"{name} must be a non-negative integer, got {count!r}")
        if not isinstance(singular, tuple):
            raise ValueError(f"singular must be a tuple of signs, got {singular!r}")
        for sign in singular:
            _check_sign(sign, "singular clasp sign")
        if len(singular) > 1:
            raise MultipleSingularClasps(f"at most one singular clasp is possible, got {len(singular)}")
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    @property
    def shift(self):
        """+ribbon_arcs on both twists, plus the crossing shift of the
        singular clasp if there is one; O(1) whatever the counts.  A
        pattern holds at most one singular clasp, so this never
        raises."""
        r = self.ribbon_arcs
        clasp = CrossingEvent(self.singular[0]).shift if self.singular else (0,) * 6
        return tuple(map(add, (r, r, 0, 0, 0, 0), clasp))


def cross(s: FramedPairState, event: CrossingEvent | IntersectionPattern) -> FramedPairState:
    """Apply one event, a crossing or a pattern, to a state."""
    return FramedPairState._make(map(add, s, event.shift))


def replay(s0: FramedPairState, events):
    """Replay a mixed sequence of crossing events and intersection
    patterns as fixed integer shifts.

    Returns an iterator over the states, each a plain tuple
    ``(tw_K, tw_J, w_K, w_J, sK, sJ)``, starting with ``s0``.  Each
    event's ``shift`` is read once per distinct event.  Every event is
    checked before the first state comes out: one that is neither a
    crossing nor a pattern raises TypeError, and a shift that would
    move the relative triple raises :class:`TripleDrift`, each naming
    the event's index.  A pattern with several singular clasps cannot
    be built (see :class:`IntersectionPattern`), so it never reaches
    this function.

    The events are interned by value into a table of distinct events,
    in order of first use, and a list of their indices in it, which
    :func:`_replay` replays; every event is hashed once, whether or not
    it is the same object as an earlier one.  An object's type is
    checked before it is hashed, so a non-event ends the table,
    unhashed, and :func:`_replay` raises at it or at an earlier entry.
    """
    table = []
    found = {}  # event -> index in table
    indices = []
    for event in events:
        if not isinstance(event, (CrossingEvent, IntersectionPattern)):
            indices.append(len(table))
            table.append(event)
            break
        k = found.setdefault(event, len(table))
        if k == len(table):
            table.append(event)
        indices.append(k)
    return _replay(s0, table, indices)


def _replay(s0, table, indices):
    """Replay the events ``table[i]`` for each ``i`` in ``indices``, as
    :func:`replay` does; ``table`` holds each distinct event once, in
    order of first use.  Each entry is checked, in table order, before
    the first state comes out, and an error names the first event that
    uses the entry; by the table's order, that is the first bad event."""
    triple = s0.triple
    shifts = []
    for k, event in enumerate(table):
        if not isinstance(event, (CrossingEvent, IntersectionPattern)):
            raise TypeError(f"event {indices.index(k)} is neither a crossing nor a pattern: {event!r}")
        shift = a, b, c, d, e, f = event.shift
        if a != b or c != d or e != f:
            moved = (triple[0] + a - b, triple[1] + c - d, triple[2] + e - f)
            raise TripleDrift(f"event {indices.index(k)}: relative triple moved from {triple} to {moved}")
        shifts.append(shift)
    return _accumulate(tuple(s0), map(shifts.__getitem__, indices))


def _accumulate(start, shifts):
    a, b, c, d, e, f = start
    yield start
    for da, db, dc, dd, de, df in shifts:
        a += da
        b += db
        c += dc
        d += dd
        e += de
        f += df
        yield (a, b, c, d, e, f)


def run_trace(s0: FramedPairState, events) -> tuple[FramedPairState, ...]:
    """Replay events (see :func:`replay`) and return every state,
    ``s0`` first; the relative triple is the same in all of them."""
    return tuple(map(FramedPairState._make, replay(s0, events)))


def _parse_sign(token, error, at):
    if token == "+":
        return 1
    if token == "-":
        return -1
    raise error(f"expected + or -, got {token!r}", at)


_PATTERN_KEYS = ("circles", "ribbon", "bparallel", "clasps", "singular")


def _parse_script(text):
    """An event script as ``(table, indices)``: its distinct events in
    order of first use, and an ``array("I")`` of each event line's index
    in ``table``, 4 bytes per event.  The format has one event per
    line, ``cross <+|->`` or ``pattern circles=<n> ribbon=<n>
    bparallel=<n> clasps=<n> singular=<+|-|none>`` with each field
    exactly once; ``#`` starts a comment.

    Events are immutable, so each distinct raw line is parsed once, and
    lines of equal value share one entry, however they are spelled.
    Blank lines are never cached, and a raw line is cached only once it
    has parsed.  ``text`` is split into lines a block at a time (see
    ``grid._text_lines``), so no list of all its lines or events is
    held.
    """
    from array import array  # here, not at import: selftest imports this module but parses no script

    table = []
    seen = {}  # raw line -> its event's index in table
    shared = {}  # event -> its index in table
    indices = array("I")
    append = indices.append
    for line_no, raw in _text_lines(text):
        k = seen.get(raw)
        if k is None:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            event = _parse_event(raw, line, line_no)
            k = shared.get(event)
            if k is None:
                k = shared[event] = len(table)
                table.append(event)
            seen[raw] = k
        append(k)
    return table, indices


def _parse_event(raw, line, line_no):
    """The event of one line; ``line`` is ``raw`` without its comment
    and outer whitespace.  A ParseError names the 1-based column in
    ``raw`` of the token at fault."""
    parts = line.split()

    def error(message, at=0):
        # at parts[at], or at the value of field `at` when `at` is a key
        # (at its key=value part when the value is empty)
        index = at if type(at) is int else next(i for i, p in enumerate(parts) if p.startswith(at + "="))
        column = _token_column(raw, parts, index)
        if type(at) is str and len(parts[index]) > len(at) + 1:
            column += len(at) + 1
        return ParseError(line_no, column, message)

    if parts[0] == "cross" and len(parts) == 2:
        return CrossingEvent(_parse_sign(parts[1], error, 1))
    if parts[0] != "pattern":
        raise error(f"unrecognized event: {line!r}")
    fields = {}
    for i, part in enumerate(parts[1:], start=1):
        if "=" not in part:
            raise error(f"expected key=value, got {part!r}", i)
        key, value = part.split("=", 1)
        if key not in _PATTERN_KEYS:
            raise error(f"unknown pattern field {key!r}", i)
        if key in fields:
            raise error(f"repeated pattern field {key!r}", i)
        fields[key] = value
    missing = [k for k in _PATTERN_KEYS if k not in fields]
    if missing:
        raise error(f"pattern is missing {', '.join(missing)}")
    counts = {}
    for key in _PATTERN_KEYS[:-1]:
        try:
            counts[key] = _int_token(fields[key])
        except ValueError:
            raise error(f"{key} must be an integer", key) from None
        if counts[key] < 0:
            raise error(f"{key} must be non-negative, got {counts[key]}", key)
    singular = fields["singular"]
    return IntersectionPattern(
        circles=counts["circles"],
        ribbon_arcs=counts["ribbon"],
        boundary_parallel_arcs=counts["bparallel"],
        clasps=counts["clasps"],
        singular=() if singular == "none" else (_parse_sign(singular, error, "singular"),),
    )
