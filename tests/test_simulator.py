import ast
import contextlib
import copy
import io
import json
import random
import re
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

import legrid.grid as grid_mod

from legrid import (
    CrossingEvent,
    FramedPairState,
    IntersectionPattern,
    MultipleSingularClasps,
    ParseError,
    TripleDrift,
    classical,
    cross,
    new_grid,
    relative_invariants,
    replay,
    run_trace,
)
from legrid.cli import main
from legrid.grid import _text_lines

from helpers import parse_events, reference_events

states = st.builds(
    FramedPairState,
    *(st.integers(-50, 50) for _ in range(6)),
)


class TestState:
    def test_zero_state(self):
        s = FramedPairState()
        assert s.triple == (0, 0, 0)

    def test_two_identical_unknot_summands(self):
        s = FramedPairState(-1, -1, 0, 0, -1, -1)
        assert s.triple == (0, 0, 0)

    def test_state_from_grid_invariants(self):
        # Seeding a state from a diagram's per-component invariants
        # reproduces that diagram's relative triple.
        g = new_grid(6, [1, 4, 3, 0, 2, 5], [4, 2, 0, 3, 5, 1])
        k, j = classical(g, 0), classical(g, 1)
        s = FramedPairState(k.tb, j.tb, k.r, j.r, k.sl_pos, j.sl_pos)
        assert s.triple == relative_invariants(g, 0, 1).triple == (-1, 1, -2)


class TestCross:
    def test_single_positive_event(self):
        s = cross(FramedPairState(), CrossingEvent(1))
        assert s == FramedPairState(-1, -1, -1, -1, 1, 1)
        assert s.triple == (0, 0, 0)

    @given(states)
    def test_opposite_events_cancel(self, s):
        assert cross(cross(s, CrossingEvent(1)), CrossingEvent(-1)) == s
        assert cross(cross(s, CrossingEvent(-1)), CrossingEvent(1)) == s

    @given(states)
    def test_triple_invariant_but_fields_move(self, s):
        out = cross(s, CrossingEvent(1))
        assert out.triple == s.triple
        assert all(
            getattr(out, f) != getattr(s, f)
            for f in ("tw_K", "tw_J", "w_K", "w_J", "sK", "sJ")
        )

    def test_replay_oracle(self):
        rng = random.Random(1)
        for _ in range(50):
            s0 = FramedPairState(*(rng.randint(-5, 5) for _ in range(6)))
            signs = [rng.choice((1, -1)) for _ in range(1000)]
            s = s0
            for e in signs:
                s = cross(s, CrossingEvent(e))
            total = sum(signs)
            assert s.triple == s0.triple
            assert s.tw_K == s0.tw_K - total
            assert s.sK == s0.sK + total
            if total != 0:
                assert s != s0

    def test_sign_validation(self):
        with pytest.raises(ValueError):
            CrossingEvent(2)

    @pytest.mark.parametrize("sign", [1.0, -1.0, True, "+", None])
    def test_sign_must_be_an_int(self, sign):
        with pytest.raises(ValueError, match=r"^crossing sign must be \+1 or -1, got "):
            CrossingEvent(sign)


class TestResolvePattern:
    """A pattern resolves by its fixed shift, applied with ``cross``."""

    def test_empty_pattern(self):
        s = FramedPairState(1, 2, 3, 4, 5, 6)
        assert IntersectionPattern().shift == (0, 0, 0, 0, 0, 0)
        assert cross(s, IntersectionPattern()) == s

    def test_singular_only_matches_cross(self):
        rng = random.Random(2)
        for _ in range(50):
            s = FramedPairState(*(rng.randint(-5, 5) for _ in range(6)))
            eps = rng.choice((1, -1))
            pattern = IntersectionPattern(singular=(eps,))
            assert pattern.shift == CrossingEvent(eps).shift
            assert cross(s, pattern) == cross(s, CrossingEvent(eps))

    def test_ribbon_arcs_shift_both_twists(self):
        s = FramedPairState()
        pattern = IntersectionPattern(circles=2, ribbon_arcs=3)
        out = cross(s, pattern)
        assert out.tw_K == 3 and out.tw_J == 3
        assert out.tb_rel == s.tb_rel
        assert (out.w_K, out.w_J, out.sK, out.sJ) == (0, 0, 0, 0)

    def test_multiple_singular_clasps_rejected_when_built(self):
        for singular in ((1, -1), (1, 1), (-1, -1, 1)):
            with pytest.raises(MultipleSingularClasps) as exc:
                IntersectionPattern(singular=singular)
            assert str(exc.value) == f"at most one singular clasp is possible, got {len(singular)}"
        # the sign checks come first
        with pytest.raises(ValueError) as exc:
            IntersectionPattern(singular=(1, 2))
        assert type(exc.value) is ValueError

    def test_pattern_validation(self):
        with pytest.raises(ValueError):
            IntersectionPattern(circles=-1)
        for singular in (3, -1, None, [1], (2,)):
            with pytest.raises(ValueError):
                IntersectionPattern(singular=singular)
        assert IntersectionPattern().singular == ()
        assert IntersectionPattern(singular=(-1,)).singular == (-1,)

    @pytest.mark.parametrize("field", ["circles", "ribbon_arcs", "boundary_parallel_arcs", "clasps"])
    @pytest.mark.parametrize("count", [1.5, 1.0, True, "1", -1])
    def test_counts_must_be_non_negative_ints(self, field, count):
        with pytest.raises(ValueError) as exc:
            IntersectionPattern(**{field: count})
        assert str(exc.value) == f"{field} must be a non-negative integer, got {count!r}"

    @pytest.mark.parametrize("sign", [True, False, 1.0, -1.0, "+"])
    def test_singular_signs_must_be_ints(self, sign):
        with pytest.raises(ValueError) as exc:
            IntersectionPattern(singular=(sign,))
        assert str(exc.value) == f"singular clasp sign must be +1 or -1, got {sign!r}"


class TestRunTrace:
    def test_empty_events(self):
        s0 = FramedPairState(1, 0, 0, 0, 0, 0)
        assert run_trace(s0, []) == (s0,)

    def test_alternating_events_cancel(self):
        s0 = FramedPairState()
        events = [CrossingEvent(1), CrossingEvent(-1)] * 10
        trace = run_trace(s0, events)
        assert trace[-1] == s0
        assert len(trace) == 21

    def test_mixed_random_traces_keep_triple(self):
        rng = random.Random(3)
        for _ in range(50):
            s0 = FramedPairState(*(rng.randint(-5, 5) for _ in range(6)))
            events = []
            for _ in range(100):
                if rng.random() < 0.6:
                    events.append(CrossingEvent(rng.choice((1, -1))))
                else:
                    events.append(
                        IntersectionPattern(
                            circles=rng.randint(0, 2),
                            ribbon_arcs=rng.randint(0, 2),
                            boundary_parallel_arcs=rng.randint(0, 2),
                            clasps=rng.randint(0, 2),
                            singular=rng.choice(((), (1,), (-1,))),
                        )
                    )
            trace = run_trace(s0, events)
            assert all(state.triple == s0.triple for state in trace)

    def test_event_permutations_commute(self):
        rng = random.Random(4)
        for _ in range(50):
            s0 = FramedPairState(*(rng.randint(-5, 5) for _ in range(6)))
            events = [CrossingEvent(rng.choice((1, -1))) for _ in range(30)]
            events += [IntersectionPattern(ribbon_arcs=rng.randint(0, 3)) for _ in range(5)]
            final = run_trace(s0, events)[-1]
            rng.shuffle(events)
            assert run_trace(s0, events)[-1] == final

    def test_error_carries_event_index(self):
        events = [CrossingEvent(1), IntersectionPattern(), "cross +"]
        with pytest.raises(TypeError) as exc:
            run_trace(FramedPairState(), events)
        assert str(exc.value) == "event 2 is neither a crossing nor a pattern: 'cross +'"

    def test_drift_raises(self, monkeypatch):
        monkeypatch.setattr(CrossingEvent, "shift", property(lambda e: (-e.sign, 0, 0, 0, 0, 0)))
        with pytest.raises(TripleDrift, match="event 1"):
            run_trace(FramedPairState(), [IntersectionPattern(ribbon_arcs=1), CrossingEvent(1)])

    def test_huge_ribbon_count_replays_in_closed_form(self):
        pattern = IntersectionPattern(circles=10**9, ribbon_arcs=10**9, clasps=10**9, singular=(-1,))
        s0 = FramedPairState(1, 2, 3, 4, 5, 6)
        trace = run_trace(s0, [pattern, CrossingEvent(1)])
        assert trace[1] == FramedPairState(2 + 10**9, 3 + 10**9, 4, 5, 4, 5)
        assert trace[2] == FramedPairState(1 + 10**9, 2 + 10**9, 3, 4, 5, 6)


class TestReplay:
    def test_plain_tuples_starting_with_s0(self):
        s0 = FramedPairState(1, 2, 3, 4, 5, 6)
        rows = list(replay(s0, [CrossingEvent(1), IntersectionPattern(ribbon_arcs=2)]))
        assert rows == [(1, 2, 3, 4, 5, 6), (0, 1, 2, 3, 6, 7), (2, 3, 2, 3, 6, 7)]
        assert all(type(row) is tuple for row in rows)
        trace = run_trace(s0, [CrossingEvent(1), IntersectionPattern(ribbon_arcs=2)])
        assert trace == tuple(rows)
        assert all(type(state) is FramedPairState for state in trace)

    def test_matches_stepwise_cross(self):
        rng = random.Random(5)
        for _ in range(100):
            s = FramedPairState(*(rng.randint(-50, 50) for _ in range(6)))
            events = [
                CrossingEvent(rng.choice((1, -1)))
                if rng.random() < 0.6
                else IntersectionPattern(
                    circles=rng.randint(0, 3),
                    ribbon_arcs=rng.randint(0, 3),
                    boundary_parallel_arcs=rng.randint(0, 3),
                    clasps=rng.randint(0, 3),
                    singular=rng.choice(((), (1,), (-1,))),
                )
                for _ in range(rng.randint(0, 60))
            ]
            expected = [s]
            for event in events:
                s = cross(s, event)
                expected.append(s)
            assert list(replay(expected[0], events)) == expected

    def test_each_distinct_shift_is_read_once(self, monkeypatch):
        reads = []
        real = CrossingEvent.shift
        monkeypatch.setattr(CrossingEvent, "shift", property(lambda e: reads.append(e) or real.fget(e)))
        shared = CrossingEvent(1)
        # One shared object, then equal objects built afresh per event.
        events = [shared] * 5 + [CrossingEvent(1) for _ in range(5)] + [CrossingEvent(-1)] * 3
        rows = list(replay(FramedPairState(), events))
        assert reads == [CrossingEvent(1), CrossingEvent(-1)]
        assert rows[-1] == (-7, -7, -7, -7, 7, 7)
        # Events made on the fly and dropped: a freed id may not alias an
        # earlier event's entry.
        rng = random.Random(6)
        signs = [rng.choice((1, -1)) for _ in range(200)]
        rows = list(replay(FramedPairState(), (CrossingEvent(e) for e in signs)))
        assert [row[4] for row in rows] == [sum(signs[:i]) for i in range(201)]

    def test_errors_raise_before_the_first_state(self, monkeypatch):
        # a two-clasp pattern cannot be built, so no event list holds one
        with pytest.raises(MultipleSingularClasps):
            IntersectionPattern(singular=(1, -1))
        events = [CrossingEvent(1)] * 3 + [(1, -1)]
        with pytest.raises(TypeError) as exc:
            replay(FramedPairState(), events)
        assert str(exc.value) == "event 3 is neither a crossing nor a pattern: (1, -1)"

        monkeypatch.setattr(CrossingEvent, "shift", property(lambda e: (0, 0, 0, 0, e.sign, 0)))
        events = [IntersectionPattern(ribbon_arcs=4), CrossingEvent(-1), CrossingEvent(1)]
        with pytest.raises(TripleDrift) as exc:
            replay(FramedPairState(0, 0, 0, 0, 7, 2), events)
        assert str(exc.value) == "event 1: relative triple moved from (0, 0, 5) to (0, 0, 4)"
        # a drifting event before a non-event is the first error
        with pytest.raises(TripleDrift, match="^event 1: "):
            replay(FramedPairState(), events + [[1]])

    def test_an_event_of_another_type_is_a_type_error(self):
        with pytest.raises(TypeError) as exc:
            list(replay(FramedPairState(), [1]))
        assert str(exc.value) == "event 0 is neither a crossing nor a pattern: 1"
        # an unhashable one too: its type is checked before it is hashed
        for other in ([1], {}, {1}):
            with pytest.raises(TypeError) as exc:
                replay(FramedPairState(), [CrossingEvent(1), other])
            assert str(exc.value) == f"event 1 is neither a crossing nor a pattern: {other!r}"

    def test_a_drift_first_used_late_names_its_first_use(self, capsys, tmp_path, monkeypatch):
        # a pattern with a clasp drifts; the first is line 9000, after
        # 9000 repeats of four valid events, and it is used again later
        monkeypatch.setattr(IntersectionPattern, "shift", property(lambda p: (p.clasps, 0, 0, 0, 0, 0)))
        valid = ["cross +", "cross -", "pattern circles=1 ribbon=0 bparallel=0 clasps=0 singular=none", "cross  +"]
        drifting = "pattern circles=0 ribbon=0 bparallel=0 clasps=1 singular=none"
        lines = [valid[i % 4] for i in range(9000)] + [drifting] + valid * 10 + [drifting]
        text = "\n".join(lines) + "\n"
        message = "event 9000: relative triple moved from (0, 0, 0) to (1, 0, 0)"
        events = parse_events(text)
        # the shared objects, and a generator of a fresh object per event
        for replayed in (events, map(copy.copy, events)):
            with pytest.raises(TripleDrift) as exc:
                replay(FramedPairState(), replayed)
            assert str(exc.value) == message
        path = tmp_path / "events.txt"
        path.write_text(text)
        assert main(["cross-sim", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert json.loads(err) == {"error": {"type": "TripleDrift", "message": message}}


class TestEventParsing:
    def test_round_trip(self):
        text = (
            "# push across twice\n"
            "cross +\n"
            "pattern circles=2 ribbon=3 bparallel=0 clasps=1 singular=-\n"
            "cross -\n"
            "pattern circles=0 ribbon=0 bparallel=0 clasps=0 singular=none\n"
        )
        events = parse_events(text)
        assert events[0] == CrossingEvent(1)
        assert events[1] == IntersectionPattern(
            circles=2, ribbon_arcs=3, boundary_parallel_arcs=0, clasps=1, singular=(-1,)
        )
        assert events[2] == CrossingEvent(-1)
        assert events[3] == IntersectionPattern()

    def test_errors_carry_line_numbers(self):
        with pytest.raises(ParseError) as exc:
            parse_events("cross +\ncross *\n")
        assert exc.value.line == 2
        with pytest.raises(ParseError) as exc:
            parse_events("pattern circles=1\n")
        assert exc.value.line == 1

    @pytest.mark.parametrize(
        "text, column, message",
        [
            ("pattern circles", 9, "expected key=value, got 'circles'"),
            ("pattern foo=1", 9, "unknown pattern field 'foo'"),
        ],
    )
    def test_bad_pattern_fields(self, text, column, message):
        with pytest.raises(ParseError) as exc:
            parse_events(text)
        assert (exc.value.line, exc.value.column, exc.value.message) == (1, column, message)

    def test_repeated_lines_share_one_event(self):
        events = parse_events("cross +\n  cross +  # again\ncross -\ncross +\n")
        assert events == (CrossingEvent(1), CrossingEvent(1), CrossingEvent(-1), CrossingEvent(1))
        assert events[0] is events[1] is events[3]
        # one object per value, however the line spells it
        events = parse_events(
            "cross +\n"
            "cross  +\n"
            "pattern circles=1 ribbon=2 bparallel=0 clasps=0 singular=-\n"
            "pattern singular=- clasps=0 bparallel=0 ribbon=2 circles=1\n"
            "pattern circles=1 ribbon=+2 bparallel=0 clasps=0 singular=-\n"
        )
        assert events[0] is events[1]
        assert events[2] is events[3] is events[4]
        assert events[2] == IntersectionPattern(circles=1, ribbon_arcs=2, singular=(-1,))
        with pytest.raises(ParseError) as exc:
            parse_events("cross +\ncross +\ncross *")
        assert exc.value.line == 3
        # a raw line seen before, with its comment, and repeated blank
        # and comment-only lines
        events = parse_events("# note\n\ncross - # a\n# note\n\ncross - # a\n \ncross -\n")
        assert events == (CrossingEvent(-1),) * 3
        assert events[0] is events[1] is events[2]
        with pytest.raises(ParseError) as exc:
            parse_events("cross + # a\ncross + # a\n\ncross * # a\ncross * # a\n")
        assert (exc.value.line, exc.value.column) == (4, 7)

    @pytest.mark.parametrize("key", ["circles", "ribbon", "bparallel", "clasps"])
    def test_negative_count_is_a_parse_error(self, key):
        fields = {"circles": "0", "ribbon": "0", "bparallel": "0", "clasps": "0"}
        fields[key] = "-1"
        line = "pattern " + " ".join(f"{k}={v}" for k, v in fields.items()) + " singular=none"
        with pytest.raises(ParseError) as exc:
            parse_events("cross -\n\n" + line + "\n")
        assert exc.value.line == 3

    @pytest.mark.parametrize("value", ["1_0", "\u0661", "\uff11"])
    def test_counts_are_ascii_digits(self, value):
        line = f"pattern circles=0 ribbon={value} bparallel=0 clasps=0 singular=none"
        with pytest.raises(ParseError) as exc:
            parse_events("cross +\n" + line + "\n")
        assert (exc.value.line, exc.value.column) == (2, len("pattern circles=0 ribbon=") + 1)
        assert parse_events(line.replace(value, "+10"))[0].ribbon_arcs == 10


_STATE_HEADERS = ["tw_K", "tw_J", "w_K", "w_J", "sK", "sJ", "tb_rel", "r_rel", "sl_rel"]

# every line break `str.splitlines` knows of (a "\r" line break before a
# "\n" one makes "\r\n"), lines that parse, and tokens for lines that may not
_BREAKS = ["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
_GOOD_LINES = [
    "", "  ", "\t", "# note", "cross +", "cross -", "  cross  - # back", "cross +#",
    "pattern circles=0 ribbon=1 bparallel=0 clasps=2 singular=+",
    "pattern singular=+ clasps=2 bparallel=0 ribbon=1 circles=0  # the same",
    "pattern circles=3 ribbon=+0 bparallel=1 clasps=0 singular=none",
]
_TOKENS = [
    " ", "  ", "\t", "#", "cross", "+", "-", "*", "pattern", "circles=1", "ribbon=0",
    "bparallel=3", "clasps=0", "singular=none", "singular=-", "singular=", "circles=-1",
    "clasps=x", "ribbon=1_0", "foo=1", "circles", "=",
]


@st.composite
def event_texts(draw):
    """A script of good lines, perhaps with one line of any tokens, each
    line ended by any line break, the last perhaps by none."""
    lines = draw(st.lists(st.sampled_from(_GOOD_LINES), max_size=40))
    if draw(st.booleans()):
        bad = draw(st.lists(st.sampled_from(_TOKENS), min_size=1, max_size=8))
        lines.insert(draw(st.integers(0, len(lines))), "".join(bad))
    breaks = draw(st.lists(st.sampled_from(_BREAKS), min_size=len(lines), max_size=len(lines)))
    if lines and draw(st.booleans()):
        breaks[-1] = ""
    return "".join(map(str.__add__, lines, breaks))


def _reference_parse(text):
    """The event parser run on each line alone: the events, or the
    (line, column, message) of the first error."""
    events = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        try:
            events.extend(parse_events(raw))
        except ParseError as e:
            assert e.line == 1
            return None, (line_no, e.column, e.message)
    return events, None


def _check_error_token(raw, column, message):
    """The column lies inside the line, a token (or a field's value)
    starts there, and it is the token the message names."""
    assert 1 <= column <= len(raw)
    at, before = raw[column - 1:], raw[:column - 1]
    assert not at[0].isspace()
    assert before == "" or before[-1].isspace() or before[-1] == "="
    m = re.fullmatch(r"(.*?)((?:'|\").*)", message)
    named = ast.literal_eval(m[2]) if m else None  # the token a message quotes
    if message.startswith(("unrecognized event: ", "expected key=value, got ")):
        assert at.startswith(named)
    elif message.startswith("unknown pattern field "):
        assert at.startswith(named + "=")
    elif message.startswith("repeated pattern field "):
        # at the second of the two
        assert at.startswith(named + "=") and re.search(r"\s" + re.escape(named) + "=", before)
    elif message.startswith("pattern is missing "):
        assert at.startswith("pattern") and before.strip() == ""
    elif m := re.fullmatch(r"(\w+) must be (?:an integer|non-negative, got -\d+)", message):
        # at the value, or at the field when its value is empty
        assert before.endswith(m[1] + "=") or re.match(m[1] + r"=(\s|#|$)", at)
    else:
        assert message.startswith("expected + or -, got "), message
        if named:
            assert at.startswith(named) and (before.endswith("singular=") or before.split() == ["cross"])
        else:
            assert re.match(r"singular=(\s|#|$)", at)


class TestChunkedLines:
    """Scripts are split into lines a chunk at a time; every chunk size
    gives the lines, numbers, events and errors of the whole text."""

    @settings(max_examples=300)
    @given(event_texts())
    def test_chunks_change_nothing(self, text):
        lines = list(enumerate(text.splitlines(), start=1))
        events, error = _reference_parse(text)
        for chunk in (1, 2, 7, 64):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(grid_mod, "_CHUNK", chunk)
                assert list(_text_lines(text)) == lines
                if error is None:
                    parsed = parse_events(text)
                    assert parsed == tuple(events)
                    # one object per value
                    assert len(set(map(id, parsed))) == len(set(parsed))
                else:
                    with pytest.raises(ParseError) as exc:
                        parse_events(text)
                    assert (exc.value.line, exc.value.column, exc.value.message) == error
        if error is not None:
            line, column, message = error
            _check_error_token(lines[line - 1][1], column, message)

    @settings(max_examples=100)
    @given(text=event_texts(), init=states)
    def test_cross_sim_matches_the_public_path(self, tmp_path_factory, text, init):
        # the CLI replays the parser's table and indices; the public path,
        # run_trace, replays the events that a reading of the format
        # sharing no code with the parser gives.  A text that reading
        # refuses, the parser must refuse with the record the CLI prints.
        path = tmp_path_factory.mktemp("events") / "events.txt"
        with open(path, "w", encoding="utf-8", newline="") as f:
            f.write(text)
        events = reference_events(text)
        if events is not None:
            trace = run_trace(init, events)
            expected = json.dumps([dict(zip(_STATE_HEADERS, s + s.triple)) for s in trace]) + "\n", "", 0
        else:
            with pytest.raises(ParseError) as exc:
                parse_events(text)
            e = exc.value
            record = {"type": "ParseError", "message": e.message, "line": e.line, "column": e.column}
            expected = "", json.dumps({"error": record}) + "\n", 1
        argv = ["cross-sim", str(path), "--init=" + ",".join(map(str, init))]
        for chunk in (1, 7, 64):
            out, err = io.StringIO(), io.StringIO()
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(grid_mod, "_CHUNK", chunk)
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main(argv)
            assert (out.getvalue(), err.getvalue(), code) == expected

    @pytest.mark.parametrize(
        "raw, column, message",
        [
            ("cross *", 7, "expected + or -, got '*'"),
            ("  cross   - -  # note", 3, "unrecognized event: 'cross   - -'"),
            ("\tpattern circles=1", 2, "pattern is missing ribbon, bparallel, clasps, singular"),
            ("pattern circles=1 ribbon=2 =3", 28, "unknown pattern field ''"),
            ("pattern circles=1 ribbon=2 circles=1", 28, "repeated pattern field 'circles'"),
            ("pattern circles=x ribbon=0 bparallel=0 clasps=0 singular=none", 17, "circles must be an integer"),
            ("pattern circles=0 ribbon=0 bparallel=0 clasps= singular=none", 40, "clasps must be an integer"),
            ("pattern circles=0 ribbon=0 bparallel=-2 clasps=0 singular=none", 38,
             "bparallel must be non-negative, got -2"),
            ("pattern circles=0 ribbon=0 bparallel=0 clasps=0 singular=x", 58, "expected + or -, got 'x'"),
            ("pattern singular= circles=0 ribbon=0 bparallel=0 clasps=0", 9, "expected + or -, got ''"),
        ],
    )
    def test_each_error_points_at_its_token(self, raw, column, message):
        with pytest.raises(ParseError) as exc:
            parse_events("cross +\n\n" + raw + "\ncross -\n")
        assert (exc.value.line, exc.value.column, exc.value.message) == (3, column, message)
        _check_error_token(raw, column, message)

    def test_no_list_of_all_lines_is_held(self):
        # 10^5 lines of the benchmark's kinds; the events go straight
        # into their tuple, so what grows with the script is that tuple,
        # over-allocated by at most a quarter while it grows (about 14 B
        # per event on Python 3.11; a list and a tuple copied from it gave
        # about 18)
        rng = random.Random(25)
        lines = []
        for i in range(100_000):
            if rng.random() < 0.7:
                lines.append("cross " + rng.choice("+-"))
            else:
                c, r, b, k = (rng.randint(0, 3) for _ in range(4))
                lines.append(
                    f"pattern circles={c} ribbon={r} bparallel={b} clasps={k} singular={rng.choice(('none', '+', '-'))}"
                )
        text = "\n".join(lines) + "\n"
        tracemalloc.start()
        try:
            events = parse_events(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(events) == len(lines)
        assert peak / len(lines) < 20
