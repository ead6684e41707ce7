"""Fuzz tests for the parsers and the CLI's error contract.

Arbitrary text may only raise a ``LegridError`` from a parser, and
arbitrary bytes in any verb's input file, or an arbitrary argv, may
only end in exit code 0, 1 or 2 with stderr empty or one JSON object.
Besides unconstrained text and bytes, each strategy joins tokens of the
grammar under test, and the JSON inputs include objects with the
expected keys and values of any type, so that inputs get past the
first token and the key check.
"""

import contextlib
import io
import json

import pytest
from hypothesis import given, strategies as st

from legrid import (
    Commute,
    CrossingEvent,
    Destabilize,
    IntersectionPattern,
    LegendrianStab,
    LegridError,
    MoveScript,
    Stabilize,
    Translate,
    parse_event_script,
    parse_grid,
    parse_move_script,
)
from legrid.cli import main

from helpers import write_events

COMMON = [" ", "\n", "#", "0", "1", "2", "3", "-1", ",", "=", "99999999999999999999"]
JSON_TOKENS = ["{", "}", ":", "[", "]", "true", "false", "null"]
GRID_TOKENS = COMMON + JSON_TOKENS + ["n=", "X=", "O=", '"n"', '"x"', '"o"']
MOVE_TOKENS = COMMON + [
    "translate", "commute", "stab", "destab", "lstab", "up", "down", "left", "right",
    "row", "col", "X", "O", "NE", "NW", "SE", "SW", "+", "-",
]
EVENT_TOKENS = COMMON + [
    "cross", "pattern", "+", "-", "circles=", "ribbon=", "bparallel=", "clasps=",
    "singular=", "none",
]
MODEL_TOKENS = COMMON + JSON_TOKENS + ['"rank"', '"euler"', '"tight"']

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 5) | st.floats(allow_nan=False)
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4),
    max_leaves=8,
)


def json_object(*keys):
    """JSON objects with exactly these keys and values of any type."""
    return st.fixed_dictionaries({key: JSON_VALUES for key in keys}).map(json.dumps)


GRID_JSON = json_object("n", "x", "o")
MODEL_JSON = json_object("rank", "euler", "tight")


def text_near(tokens, *shapes):
    joined = st.lists(st.sampled_from(tokens), max_size=60).map("".join)
    return st.one_of(st.text(), joined, *shapes)


def bytes_near(tokens, *shapes):
    return st.one_of(st.binary(), text_near(tokens, *shapes).map(lambda t: t.encode("utf-8")))


def _raises_only_legrid_errors(parse, text):
    try:
        return parse(text)
    except LegridError:
        return None


@given(text_near(GRID_TOKENS, GRID_JSON))
def test_parse_grid_raises_only_legrid_errors(text):
    _raises_only_legrid_errors(parse_grid, text)


@given(text_near(MOVE_TOKENS))
def test_parse_move_script_raises_only_legrid_errors(text):
    script = _raises_only_legrid_errors(parse_move_script, text)
    if script is not None:
        assert parse_move_script("\n".join(move.text() for move in script.moves)) == script


@given(text_near(EVENT_TOKENS))
def test_parse_event_script_raises_only_legrid_errors(text):
    _raises_only_legrid_errors(parse_event_script, text)


SUBTYPES = ("NE", "NW", "SE", "SW")
MOVES = st.one_of(
    st.builds(Translate, st.sampled_from(("up", "down", "left", "right"))),
    st.builds(Commute, st.sampled_from(("row", "col")), st.integers()),
    st.builds(Stabilize, st.sampled_from(("X", "O")), st.integers(), st.sampled_from(SUBTYPES)),
    st.builds(Destabilize, st.integers(), st.none() | st.integers()),
    st.builds(LegendrianStab, st.integers(), st.sampled_from((1, -1))),
)


@given(st.lists(MOVES, max_size=20))
def test_move_text_round_trip(moves):
    text = "".join(move.text() + "\n" for move in moves)
    assert parse_move_script(text) == MoveScript(tuple(moves))


COUNTS = st.integers(0, 10**12)
EVENTS = st.one_of(
    st.builds(CrossingEvent, st.sampled_from((1, -1))),
    st.builds(
        IntersectionPattern, COUNTS, COUNTS, COUNTS, COUNTS, st.sampled_from(((), (1,), (-1,)))
    ),
)


@given(st.lists(EVENTS, max_size=20))
def test_event_text_round_trip(events):
    assert parse_event_script(write_events(events)) == tuple(events)


def _main_keeps_the_error_contract(argv):
    """Run ``main`` in-process: it returns exit code 0, 1 or 2, and
    stderr is empty or one JSON error object."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if err.getvalue():
        assert isinstance(json.loads(err.getvalue())["error"], dict)


def _run_on_file(tmp_path_factory, data, argv):
    path = tmp_path_factory.mktemp("fuzz") / "input"
    path.write_bytes(data)
    _main_keeps_the_error_contract([str(path) if arg == "{}" else arg for arg in argv])


@given(
    data=bytes_near(GRID_TOKENS, GRID_JSON),
    verb=st.sampled_from((["inv", "{}"], ["rel", "{}", "--pair", "0,1"])),
)
def test_grid_verbs_keep_the_error_contract(tmp_path_factory, data, verb):
    _run_on_file(tmp_path_factory, data, verb)


@given(data=bytes_near(GRID_TOKENS, GRID_JSON))
def test_moves_grid_file_keeps_the_error_contract(tmp_path_factory, data):
    script = tmp_path_factory.mktemp("fuzz") / "script"
    script.write_text("translate up\ncommute col 0\n")
    _run_on_file(tmp_path_factory, data, ["moves", "{}", str(script)])


@given(data=bytes_near(MOVE_TOKENS))
def test_moves_script_file_keeps_the_error_contract(tmp_path_factory, data):
    grid = tmp_path_factory.mktemp("fuzz") / "split.grid"
    grid.write_text("n=4\nX=0,1,2,3\nO=1,0,3,2\n")
    _run_on_file(tmp_path_factory, data, ["moves", str(grid), "{}"])


@given(data=bytes_near(EVENT_TOKENS))
def test_cross_sim_keeps_the_error_contract(tmp_path_factory, data):
    _run_on_file(tmp_path_factory, data, ["cross-sim", "{}"])


@given(data=bytes_near(MODEL_TOKENS, MODEL_JSON))
def test_ledger_keeps_the_error_contract(tmp_path_factory, data):
    _run_on_file(tmp_path_factory, data, ["ledger", "{}", "--offset1", "1,0"])


VERBS = ["inv", "rel", "moves", "ledger", "cross-sim", "selftest"]
OPTIONS = [
    "--component", "--conv", "--pretty", "--pair", "--orient", "--base", "--offset1",
    "--offset2", "--init", "--seed", "--cases", "-h", "--help", "--", "-",
]
VALUES = [
    "0", "1", "-1", "0,1", "1,0", "-5,3,0,0,0,0", "nw-se", "ne-sw", "+", "sigma", "3", "\x00",
    "\ud800",
]
# Placeholders for files made once per module: each input kind, a
# directory and a path that does not exist.
FILES = ["{grid}", "{script}", "{events}", "{model}", "{dir}", "{missing}"]
TOKEN = st.one_of(st.sampled_from(VERBS + OPTIONS + VALUES + FILES), st.text(max_size=8))
# A verb, then most often a file, then anything.
ARGV = st.tuples(
    st.sampled_from(VERBS), st.sampled_from(FILES + VALUES) | TOKEN, st.lists(TOKEN, max_size=7)
).map(lambda parts: [parts[0], parts[1], *parts[2]])


@pytest.fixture(scope="module")
def argv_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("argv")
    files = {
        "{grid}": root / "link.grid",
        "{script}": root / "script.txt",
        "{events}": root / "events.txt",
        "{model}": root / "model.json",
        "{dir}": root,
        "{missing}": root / "missing",
    }
    files["{grid}"].write_text("n=4\nX=0,1,2,3\nO=1,0,3,2\n")
    files["{script}"].write_text("translate up\ncommute col 0\n")
    files["{events}"].write_text("cross +\npattern circles=1 ribbon=2 bparallel=0 clasps=1 singular=-\n")
    files["{model}"].write_text('{"rank": 2, "euler": [4, 6], "tight": false}')
    return {key: str(path) for key, path in files.items()}


@given(argv=ARGV, cases=st.integers(0, 20))
def test_argv_keeps_the_error_contract(argv_files, argv, cases):
    argv = [argv_files.get(arg, arg) for arg in argv]
    if "selftest" in argv:
        # The last --cases wins, so selftest never runs more than 20 cases.
        argv += ["--cases", str(cases)]
    _main_keeps_the_error_contract(argv)
