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

from .errors import MultipleSingularClasps, ParseError, ScriptStepError, TripleDrift, _Value, _check_sign
from .grid import _int_token

__all__ = [
    "FramedPairState",
    "CrossingEvent",
    "IntersectionPattern",
    "cross",
    "replay",
    "run_trace",
    "parse_event_script",
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
    when there is no singular clasp; anything longer than one entry is
    rejected when resolved, since a second singular clasp would force a
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
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    @property
    def shift(self):
        """+ribbon_arcs on both twists, plus the crossing shift of the
        singular clasp; O(1) whatever the counts.  Several singular
        clasps raise :class:`MultipleSingularClasps`."""
        if len(self.singular) > 1:
            raise MultipleSingularClasps(
                f"at most one singular clasp is possible, got {len(self.singular)}"
            )
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
    event's ``shift`` is read once per distinct event.  Every shift is
    checked before the first state comes out: one that would move the
    relative triple raises :class:`TripleDrift` naming the first event
    with that shift, and a pattern with several singular clasps raises
    :class:`ScriptStepError` with its index.

    Events are looked up by identity first, so a repeated object (the
    parser shares one per distinct line) is not hashed again; an equal
    but distinct object falls back to the equality-keyed dict.
    Only the first object of each value gets an identity entry: that
    dict keeps it alive, so no id is reused while the dicts live, and a
    caller that builds a fresh object per event adds no entries.
    """
    triple = s0.triple
    by_id = {}  # id(event) -> shift, for the events that key `found`
    found = {}  # event -> shift
    shifts = []
    for idx, event in enumerate(events):
        shift = by_id.get(id(event))
        if shift is None:
            shift = found.get(event)
        if shift is None:
            if not isinstance(event, (CrossingEvent, IntersectionPattern)):
                raise TypeError(f"event {idx} is neither a crossing nor a pattern: {event!r}")
            try:
                shift = event.shift
            except MultipleSingularClasps as err:
                raise ScriptStepError(idx, err) from err
            a, b, c, d, e, f = shift
            if a != b or c != d or e != f:
                moved = (triple[0] + a - b, triple[1] + c - d, triple[2] + e - f)
                raise TripleDrift(f"event {idx}: relative triple moved from {triple} to {moved}")
            found[event] = by_id[id(event)] = shift
        shifts.append(shift)
    return _accumulate(tuple(s0), shifts)


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


def _parse_sign(token, line_no):
    if token == "+":
        return 1
    if token == "-":
        return -1
    raise ParseError(line_no, 1, f"expected + or -, got {token!r}")


_PATTERN_KEYS = ("circles", "ribbon", "bparallel", "clasps", "singular")


def parse_event_script(text: str):
    """Parse the one-event-per-line format: ``cross <+|->`` or
    ``pattern circles=<n> ribbon=<n> bparallel=<n> clasps=<n>
    singular=<+|-|none>``, each field exactly once.

    Events are immutable, so each distinct raw line is parsed once, and
    one event object is shared by every line of equal value, however it
    is spelled.  Blank lines are never cached, and a raw line is cached
    only once it has parsed.
    """
    seen = {}  # raw line -> its event
    shared = {}  # event -> the one object of its value
    events = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        event = seen.get(raw)
        if event is None:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            event = seen[raw] = shared.setdefault(e := _parse_event(line, line_no), e)
        events.append(event)
    return tuple(events)


def _parse_event(line, line_no):
    parts = line.split()
    if parts[0] == "cross" and len(parts) == 2:
        return CrossingEvent(_parse_sign(parts[1], line_no))
    if parts[0] != "pattern":
        raise ParseError(line_no, 1, f"unrecognized event: {line!r}")
    fields = {}
    for part in parts[1:]:
        if "=" not in part:
            raise ParseError(line_no, 1, f"expected key=value, got {part!r}")
        key, value = part.split("=", 1)
        if key not in _PATTERN_KEYS:
            raise ParseError(line_no, 1, f"unknown pattern field {key!r}")
        if key in fields:
            raise ParseError(line_no, 1, f"repeated pattern field {key!r}")
        fields[key] = value
    missing = [k for k in _PATTERN_KEYS if k not in fields]
    if missing:
        raise ParseError(line_no, 1, f"pattern is missing {', '.join(missing)}")
    counts = {}
    for key in _PATTERN_KEYS[:-1]:
        try:
            counts[key] = _int_token(fields[key])
        except ValueError:
            raise ParseError(line_no, 1, f"{key} must be an integer") from None
        if counts[key] < 0:
            raise ParseError(line_no, 1, f"{key} must be non-negative, got {counts[key]}")
    singular = fields["singular"]
    return IntersectionPattern(
        circles=counts["circles"],
        ribbon_arcs=counts["ribbon"],
        boundary_parallel_arcs=counts["bparallel"],
        clasps=counts["clasps"],
        singular=() if singular == "none" else (_parse_sign(singular, line_no),),
    )
