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
reconstruction after a crossing is refined by
:func:`resolve_pattern`: circles and boundary-parallel arcs are plain
interior isotopies, each ribbon arc adds one twist on both boundaries
(cancelling in tb_rel), clasps change nothing at the boundaries, and
the unique singular clasp carries the full crossing-event shift.

So every event shifts the state by a fixed amount, wherever it occurs;
:func:`replay` finds that shift once per distinct event and replays a
trace by integer addition.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import MultipleSingularClasps, ParseError, ScriptStepError, TripleDrift

__all__ = [
    "FramedPairState",
    "CrossingEvent",
    "IntersectionPattern",
    "init_state",
    "cross",
    "resolve_pattern",
    "replay",
    "run_trace",
    "parse_event_script",
]


@dataclass(frozen=True)
class FramedPairState:
    tw_K: int
    tw_J: int
    w_K: int
    w_J: int
    sK: int
    sJ: int

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


def init_state(tw_K=0, tw_J=0, w_K=0, w_J=0, sK=0, sJ=0) -> FramedPairState:
    return FramedPairState(tw_K, tw_J, w_K, w_J, sK, sJ)


@dataclass(frozen=True)
class CrossingEvent:
    """One transverse crossing of the moving knot through the fixed
    one, with its intersection sign."""

    sign: int

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError(f"crossing sign must be +1 or -1, got {self.sign}")


def cross(s: FramedPairState, e: CrossingEvent) -> FramedPairState:
    """Apply one crossing event.  Twists and windings shift by the
    negated sign, intersection counts by the sign itself; the relative
    triple is unchanged."""
    eps = e.sign
    return FramedPairState(
        tw_K=s.tw_K - eps,
        tw_J=s.tw_J - eps,
        w_K=s.w_K - eps,
        w_J=s.w_J - eps,
        sK=s.sK + eps,
        sJ=s.sJ + eps,
    )


@dataclass(frozen=True)
class IntersectionPattern:
    """Counts of the intersection arcs between the old surface and the
    isotopy annulus, plus the sign of the singular clasp if present.

    ``singular`` is a tuple of clasp signs, each +1 or -1, and empty
    when there is no singular clasp; anything longer than one entry is
    rejected when resolved, since a second singular clasp would force a
    self-intersection of the embedded surface.
    """

    circles: int = 0
    ribbon_arcs: int = 0
    boundary_parallel_arcs: int = 0
    clasps: int = 0
    singular: tuple[int, ...] = ()

    def __post_init__(self):
        for name in ("circles", "ribbon_arcs", "boundary_parallel_arcs", "clasps"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if not isinstance(self.singular, tuple):
            raise ValueError(f"singular must be a tuple of signs, got {self.singular!r}")
        for sign in self.singular:
            if sign not in (1, -1):
                raise ValueError(f"singular clasp sign must be +1 or -1, got {sign}")


def _fields(s: FramedPairState):
    return (s.tw_K, s.tw_J, s.w_K, s.w_J, s.sK, s.sJ)


_ZERO = FramedPairState(0, 0, 0, 0, 0, 0)


def _pattern_shift(p: IntersectionPattern):
    """The fixed shift of a pattern: +ribbon_arcs on both twists, plus
    the crossing shift of the singular clasp.  O(1) whatever the
    counts."""
    if len(p.singular) > 1:
        raise MultipleSingularClasps(
            f"at most one singular clasp is possible, got {len(p.singular)}"
        )
    r = p.ribbon_arcs
    if not p.singular:
        return (r, r, 0, 0, 0, 0)
    d = _fields(cross(_ZERO, CrossingEvent(p.singular[0])))
    return (d[0] + r, d[1] + r) + d[2:]


def resolve_pattern(p: IntersectionPattern, s: FramedPairState):
    """Resolve an intersection pattern, innermost arcs first within
    each class, and return the new state plus the resolution log.

    Order: circles, boundary-parallel arcs, ribbon arcs, clasps, then
    the singular clasp.  Only ribbon arcs (one twist on each boundary)
    and the singular clasp (the full crossing shift) move any field.
    The log has one entry per arc, so it costs O(counts); the state
    does not, and :func:`replay` never builds the log.
    """
    state = FramedPairState(*(a + b for a, b in zip(_fields(s), _pattern_shift(p))))
    log = []
    for i in range(p.circles):
        log.append(f"circle {i}: cut-and-paste, no framing effect")
    for i in range(p.boundary_parallel_arcs):
        log.append(f"boundary-parallel arc {i}: interior isotopy, no framing effect")
    for i in range(p.ribbon_arcs):
        log.append(f"ribbon arc {i}: one twist on each boundary")
    for i in range(p.clasps):
        log.append(f"clasp {i}: resolved away from the fixed knot, no framing effect")
    if p.singular:
        log.append(f"singular clasp: crossing shift of sign {p.singular[0]:+d}")
    return state, tuple(log)


def replay(s0: FramedPairState, events):
    """Replay a mixed sequence of crossing events and intersection
    patterns as fixed integer shifts.

    Returns an iterator over the states, each a plain tuple
    ``(tw_K, tw_J, w_K, w_J, sK, sJ)``, starting with ``s0``.  Each
    event's shift is taken once per distinct event from :func:`cross`
    (for a pattern: its ribbon arcs plus the singular clasp's crossing)
    applied to the zero state.  Every shift is checked before the first
    state comes out: one that would move the relative triple raises
    :class:`TripleDrift` naming the first event with that shift, and a
    pattern with several singular clasps raises :class:`ScriptStepError`
    with its index.
    """
    triple = s0.triple
    found = {}
    shifts = []
    for idx, event in enumerate(events):
        shift = found.get(event)
        if shift is None:
            if isinstance(event, CrossingEvent):
                shift = _fields(cross(_ZERO, event))
            elif isinstance(event, IntersectionPattern):
                try:
                    shift = _pattern_shift(event)
                except MultipleSingularClasps as err:
                    raise ScriptStepError(idx, err) from err
            else:
                raise TypeError(f"event {idx} is neither a crossing nor a pattern: {event!r}")
            a, b, c, d, e, f = shift
            if a != b or c != d or e != f:
                moved = (triple[0] + a - b, triple[1] + c - d, triple[2] + e - f)
                raise TripleDrift(f"event {idx}: relative triple moved from {triple} to {moved}")
            found[event] = shift
        shifts.append(shift)
    return _accumulate(_fields(s0), shifts)


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
    return tuple(FramedPairState(*row) for row in replay(s0, events))


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
    singular=<+|-|none>``.

    Events are immutable, so each distinct line (comment stripped,
    trimmed) is parsed once and its event shared by every repeat.
    """
    parsed = {}
    events = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        event = parsed.get(line)
        if event is None:
            event = parsed[line] = _parse_event(line, line_no)
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
        fields[key] = value
    missing = [k for k in _PATTERN_KEYS if k not in fields]
    if missing:
        raise ParseError(line_no, 1, f"pattern is missing {', '.join(missing)}")
    counts = {}
    for key in _PATTERN_KEYS[:-1]:
        try:
            counts[key] = int(fields[key])
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
