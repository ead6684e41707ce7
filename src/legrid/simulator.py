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
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import MultipleSingularClasps, ParseError, ScriptStepError, TripleDrift

__all__ = [
    "FramedPairState",
    "CrossingEvent",
    "IntersectionPattern",
    "init_state",
    "cross",
    "resolve_pattern",
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

    ``singular`` normalizes to a tuple of signs; anything longer than
    one entry is rejected when resolved, since a second singular clasp
    would force a self-intersection of the embedded surface.
    """

    circles: int = 0
    ribbon_arcs: int = 0
    boundary_parallel_arcs: int = 0
    clasps: int = 0
    singular: tuple[int, ...] = field(default=())

    def __post_init__(self):
        raw = self.singular
        if raw is None:
            raw = ()
        elif isinstance(raw, int):
            raw = (raw,)
        else:
            raw = tuple(raw)
        object.__setattr__(self, "singular", raw)
        for name in ("circles", "ribbon_arcs", "boundary_parallel_arcs", "clasps"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        for sign in self.singular:
            if sign not in (1, -1):
                raise ValueError(f"singular clasp sign must be +1 or -1, got {sign}")

    @property
    def singular_clasp_sign(self):
        return self.singular[0] if self.singular else None


def resolve_pattern(p: IntersectionPattern, s: FramedPairState):
    """Resolve an intersection pattern, innermost arcs first within
    each class, and return the new state plus the resolution log.

    Order: circles, boundary-parallel arcs, ribbon arcs, clasps, then
    the singular clasp.  Only ribbon arcs (one twist on each boundary)
    and the singular clasp (the full crossing shift) move any field.
    """
    if len(p.singular) > 1:
        raise MultipleSingularClasps(
            f"at most one singular clasp is possible, got {len(p.singular)}"
        )
    log = []
    state = s
    for i in range(p.circles):
        log.append(f"circle {i}: cut-and-paste, no framing effect")
    for i in range(p.boundary_parallel_arcs):
        log.append(f"boundary-parallel arc {i}: interior isotopy, no framing effect")
    for i in range(p.ribbon_arcs):
        state = FramedPairState(
            tw_K=state.tw_K + 1,
            tw_J=state.tw_J + 1,
            w_K=state.w_K,
            w_J=state.w_J,
            sK=state.sK,
            sJ=state.sJ,
        )
        log.append(f"ribbon arc {i}: one twist on each boundary")
    for i in range(p.clasps):
        log.append(f"clasp {i}: resolved away from the fixed knot, no framing effect")
    if p.singular:
        sign = p.singular[0]
        state = cross(state, CrossingEvent(sign))
        log.append(f"singular clasp: crossing shift of sign {sign:+d}")
    return state, tuple(log)


def run_trace(s0: FramedPairState, events) -> tuple[FramedPairState, ...]:
    """Replay a mixed sequence of crossing events and intersection
    patterns, checking that the relative triple never moves (raises
    :class:`TripleDrift` if it does).

    Pattern resolution errors propagate wrapped with the failing
    event's index.
    """
    states = [s0]
    triple = s0.triple
    for idx, event in enumerate(events):
        if isinstance(event, CrossingEvent):
            nxt = cross(states[-1], event)
        elif isinstance(event, IntersectionPattern):
            try:
                nxt, _ = resolve_pattern(event, states[-1])
            except MultipleSingularClasps as e:
                raise ScriptStepError(idx, e) from e
        else:
            raise TypeError(f"event {idx} is neither a crossing nor a pattern: {event!r}")
        if nxt.triple != triple:
            raise TripleDrift(f"event {idx}: relative triple moved from {triple} to {nxt.triple}")
        states.append(nxt)
    return tuple(states)


def _parse_sign(token, line_no):
    if token == "+":
        return 1
    if token == "-":
        return -1
    raise ParseError(line_no, 1, f"expected + or -, got {token!r}")


def parse_event_script(text: str):
    """Parse the one-event-per-line format: ``cross <+|->`` or
    ``pattern circles=<n> ribbon=<n> bparallel=<n> clasps=<n>
    singular=<+|-|none>``."""
    keys = ("circles", "ribbon", "bparallel", "clasps", "singular")
    events = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "cross" and len(parts) == 2:
            events.append(CrossingEvent(_parse_sign(parts[1], line_no)))
        elif parts[0] == "pattern":
            fields = {}
            for part in parts[1:]:
                if "=" not in part:
                    raise ParseError(line_no, 1, f"expected key=value, got {part!r}")
                key, value = part.split("=", 1)
                if key not in keys:
                    raise ParseError(line_no, 1, f"unknown pattern field {key!r}")
                fields[key] = value
            missing = [k for k in keys if k not in fields]
            if missing:
                raise ParseError(line_no, 1, f"pattern is missing {', '.join(missing)}")
            counts = {}
            for key in keys[:-1]:
                try:
                    counts[key] = int(fields[key])
                except ValueError:
                    raise ParseError(line_no, 1, f"{key} must be an integer") from None
            singular = fields["singular"]
            signs = () if singular == "none" else (_parse_sign(singular, line_no),)
            events.append(
                IntersectionPattern(
                    circles=counts["circles"],
                    ribbon_arcs=counts["ribbon"],
                    boundary_parallel_arcs=counts["bparallel"],
                    clasps=counts["clasps"],
                    singular=signs,
                )
            )
        else:
            raise ParseError(line_no, 1, f"unrecognized event: {line!r}")
    return tuple(events)
