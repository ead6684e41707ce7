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

from .errors import MultipleSingularClasps, TripleDrift, _Value, _check_sign
from .grid import _int_word, _read_script, _sign_word, _unrecognized, _word_error

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


_PATTERN_KEYS = ("circles", "ribbon", "bparallel", "clasps", "singular")
_SIGN_MESSAGE = "expected + or -, got {!r}"


def _parse_script(text):
    """An event script as ``(table, indices)`` (see
    ``grid._read_script``).  The format has one event per line,
    ``cross <+|->`` or ``pattern circles=<n> ribbon=<n> bparallel=<n>
    clasps=<n> singular=<+|-|none>`` with each field exactly once;
    ``#`` starts a comment."""
    return _read_script(text, _parse_event)


def _parse_event(line_no, raw, words):
    """The event of one line, whose words before its comment are
    ``words``.  A ParseError names the 1-based column in ``raw`` of the
    token at fault: the value of a field, or its key=value word when
    the value is empty."""
    if words[0] == "cross" and len(words) == 2:
        return CrossingEvent(_sign_word(line_no, raw, words, 1, _SIGN_MESSAGE))
    if words[0] != "pattern":
        raise _unrecognized(line_no, raw, words, "event")
    at = {}  # key -> the index of its word
    for i, word in enumerate(words[1:], start=1):
        key, eq, _ = word.partition("=")
        if not eq:
            raise _word_error(line_no, raw, words, i, f"expected key=value, got {word!r}")
        if key not in _PATTERN_KEYS:
            raise _word_error(line_no, raw, words, i, f"unknown pattern field {key!r}")
        if key in at:
            raise _word_error(line_no, raw, words, i, f"repeated pattern field {key!r}")
        at[key] = i
    missing = [key for key in _PATTERN_KEYS if key not in at]
    if missing:
        raise _word_error(line_no, raw, words, 0, f"pattern is missing {', '.join(missing)}")
    counts = []
    for key in _PATTERN_KEYS[:-1]:
        i, skip = at[key], len(key) + 1
        count = _int_word(line_no, raw, words, i, key + " must be an integer", skip)
        if count < 0:
            raise _word_error(line_no, raw, words, i, f"{key} must be non-negative, got {count}", skip)
        counts.append(count)
    i = at["singular"]
    none = words[i] == "singular=none"
    singular = () if none else (_sign_word(line_no, raw, words, i, _SIGN_MESSAGE, len("singular=")),)
    return IntersectionPattern(*counts, singular)
