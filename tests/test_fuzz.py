"""Fuzz tests for the parsers and the CLI's error contract.

Arbitrary text may only raise a ``LegridError`` from a parser, and
arbitrary bytes in any verb's input file, or an arbitrary argv, may
only end in exit code 0, 1 or 2 with stderr empty or one JSON object.
Besides unconstrained text and bytes, each strategy joins tokens of the
grammar under test, and the JSON inputs include objects with the
expected keys and values of any type, so that inputs get past the
first token and the key check.
"""

import ast
import contextlib
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from legrid import (
    Commute,
    CrossingEvent,
    Destabilize,
    IntersectionPattern,
    LegendrianStab,
    LegridError,
    ParseError,
    Stabilize,
    Translate,
    parse_grid,
    parse_move_script,
)
from legrid.cli import main

from helpers import parse_events, write_events

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
        assert parse_move_script("\n".join(move.text() for move in script)) == script


@given(text_near(EVENT_TOKENS))
def test_event_parser_raises_only_legrid_errors(text):
    _raises_only_legrid_errors(parse_events, text)


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
    assert parse_move_script(text) == tuple(moves)


COUNTS = st.integers(0, 10**12)
EVENTS = st.one_of(
    st.builds(CrossingEvent, st.sampled_from((1, -1))),
    st.builds(
        IntersectionPattern, COUNTS, COUNTS, COUNTS, COUNTS, st.sampled_from(((), (1,), (-1,)))
    ),
)


@given(st.lists(EVENTS, max_size=20))
def test_event_text_round_trip(events):
    assert parse_events(write_events(events)) == tuple(events)


# -- every ParseError of a move script or a text grid names its token --------

SPACES = [" ", "  ", "\t", "\u00a0", "\u3000"]
BREAKS = ["\n", "\r\n", "\r"]
GOOD_MOVE_LINES = ["translate up", "commute col 0", "stab X 0 NE", "destab 1", "destab 1 0", "lstab 0 +", "# c", ""]
# verb -> the good tokens of each of its arguments
MOVE_ARGS = {
    "translate": [["up", "down"]],
    "commute": [["row", "col"], ["0", "1"]],
    "stab": [["X", "O"], ["0", "1"], ["NE", "SW"]],
    "destab": [["0", "1"], ["0", "1"]],
    "lstab": [["0", "1"], ["+", "-"]],
    "wiggle": [["1"]],
}
ARGS = ["0", "-1", "0_1", "\u0661", "x", "up", "diag", "row", "X", "Y", "NE", "N", "+", "?"]


@st.composite
def move_line(draw):
    """A verb and mostly as many arguments as it takes, each mostly good,
    joined by any whitespace, with perhaps a margin on either side and a
    comment."""
    verb = draw(st.sampled_from(sorted(MOVE_ARGS) + ["stab", "stab"]))
    count = draw(st.sampled_from([len(MOVE_ARGS[verb])] * 8 + [0, 1, 3, 4]))
    pools = (MOVE_ARGS[verb] + [ARGS] * 4)[:count]
    words = [verb] + [draw(st.sampled_from(pool if draw(st.booleans()) else ARGS)) for pool in pools]
    gaps = draw(st.lists(st.sampled_from(SPACES), min_size=len(words) + 1, max_size=len(words) + 1))
    if not draw(st.booleans()):
        gaps[0] = ""
    gaps[-1] += draw(st.sampled_from(["", "# c", "#x 1"]))
    return "".join(map(str.__add__, gaps, words + [""]))


@st.composite
def move_texts(draw):
    """Good lines with perhaps one ``move_line`` among them, each ended
    by any line break."""
    lines = draw(st.lists(st.sampled_from(GOOD_MOVE_LINES), max_size=8))
    if draw(st.integers(0, 3)):
        lines.insert(draw(st.integers(0, len(lines))), draw(move_line()))
    return "".join(line + draw(st.sampled_from(BREAKS)) for line in lines)


def _token_at(raw, column):
    """The part of ``raw`` at 1-based ``column``, and the text before it;
    the column lies inside the line, and a token starts there."""
    assert 1 <= column <= len(raw)
    at, before = raw[column - 1:], raw[: column - 1]
    assert not at[0].isspace() and (before == "" or before[-1].isspace() or before[-1] in "=,")
    return at, before


# (verb, first word of the message) -> the index of the token at fault
REFUSED_AT = {
    ("commute", "index"): 2,
    ("stab", "column"): 2,
    ("destab", "column"): 1,
    ("destab", "row"): 2,
    ("lstab", "component"): 1,
    ("lstab", "sign"): 2,
    ("translate", "unknown"): 1,
    ("commute", "axis"): 1,
    ("stab", "marker"): 1,
    ("stab", "subtype"): 3,
}


@settings(max_examples=300)
@given(move_texts())
def test_move_script_errors_name_their_token(text):
    lines = text.splitlines()
    try:
        parse_move_script(text)
    except ParseError as e:
        # the first line that fails on its own
        assert all(_raises_only_legrid_errors(parse_move_script, line) is not None for line in lines[: e.line - 1])
        raw = lines[e.line - 1]
        at, before = _token_at(raw, e.column)
        tokens = raw.split("#", 1)[0].split()
        index = len(before.split())
        assert at.startswith(tokens[index])
        # an unrecognized move at its verb
        assert index == (0 if e.message.startswith("unrecognized move: ") else REFUSED_AT[tokens[0], e.message.split()[0]])
        if "got " in e.message:
            assert repr(tokens[index]) == e.message.split("got ", 1)[1]


GRID_ITEMS = ["0", "1", "2", "0", "1", "2", "a", "", "0_1", "\u0661", " 1", "1 ", "\u00a01", "1 2", " a", "\u3000x "]


@st.composite
def grid_texts(draw):
    """The n=, X= and O= lines, each perhaps with a wrong key, an indent
    or bad items, perhaps one line too few or too many, between comment
    and blank lines."""
    lines = []
    for key in ("n=", "X=", "O="):
        key = draw(st.sampled_from([key] * 4 + ["m=", "Y=", ""]))
        items = draw(st.lists(st.sampled_from(GRID_ITEMS), min_size=1, max_size=1 if key == "n=" else 3))
        lines.append(draw(st.sampled_from(["", "", " ", "\t\u00a0"])) + key + ",".join(items))
    count = draw(st.sampled_from([3] * 6 + [2, 4, 0]))
    lines = (lines + ["O=1,0"])[:count]
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", "  ", "# c", " #"])))
    return "".join(line + draw(st.sampled_from(BREAKS)) for line in lines)


@settings(max_examples=300)
@given(grid_texts())
def test_text_grid_errors_name_their_token(text):
    lines = text.splitlines()
    try:
        parse_grid(text)
    except ParseError as e:
        content = [(i, line) for i, line in enumerate(lines, 1) if line.strip() and not line.strip().startswith("#")]
        if e.message.startswith("expected 3 content lines"):
            assert e.message.endswith(f"found {len(content)}")
            if len(content) < 3:
                # no token is at fault: the end of the text
                assert (e.line, e.column) == (len(lines) or 1, 1)
                return
            assert e.line == content[3][0]
        at, before = _token_at(lines[e.line - 1], e.column)
        named = e.message.removeprefix("not an integer: ")
        if named == e.message or named == "''":
            # a key at fault, or a blank integer named at its line's key
            assert before.strip() == ""
            if named == "''":
                assert at.startswith(("n=", "X=", "O="))
        else:
            assert at.startswith(ast.literal_eval(named)) and before.rstrip()[-1] in "=,"
    except LegridError:
        pass


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
