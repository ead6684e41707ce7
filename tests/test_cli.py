import json
import os
import random
import subprocess
import sys

import pytest

from legrid.cli import _table, main, parse_grid_file
from legrid import CrossingEvent, FramedPairState, IntersectionPattern, NotAPermutation, run_trace

from helpers import event_to_text

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")

UNKNOT_TEXT = "n=2\nX=0,1\nO=1,0\n"
SPLIT_JSON = '{"n": 4, "x": [0, 1, 2, 3], "o": [1, 0, 3, 2]}'
STATE_HEADERS = ["tw_K", "tw_J", "w_K", "w_J", "sK", "sJ", "tb_rel", "r_rel", "sl_rel"]


@pytest.fixture
def unknot_file(tmp_path):
    path = tmp_path / "unknot.grid"
    path.write_text(UNKNOT_TEXT)
    return str(path)


@pytest.fixture
def split_file(tmp_path):
    path = tmp_path / "split.json"
    path.write_text(SPLIT_JSON)
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParseGridFile:
    def test_text_file(self, unknot_file):
        g = parse_grid_file(unknot_file)
        assert (g.n, g.xs, g.os) == (2, (0, 1), (1, 0))

    def test_json_file_round_trip(self, split_file):
        from legrid import grid_to_json

        g = parse_grid_file(split_file)
        assert grid_to_json(g) == SPLIT_JSON

    def test_invalid_markers_report_location(self, tmp_path):
        path = tmp_path / "bad.grid"
        path.write_text("n=2\nX=0,0\nO=1,0\n")
        with pytest.raises(NotAPermutation) as exc:
            parse_grid_file(str(path))
        assert "line 2" in str(exc.value)


class TestInv:
    def test_unknot(self, capsys, unknot_file):
        code, out, _ = run_cli(capsys, "inv", unknot_file)
        assert code == 0
        payload = json.loads(out)
        assert payload == [{"component": 0, "tb": -1, "r": 0, "sl_pos": -1, "sl_neg": -1}]

    def test_single_component_selector(self, capsys, split_file):
        code, out, _ = run_cli(capsys, "inv", split_file, "--component", "1")
        assert code == 0
        assert json.loads(out)["component"] == 1

    def test_key_order_is_stable(self, capsys, unknot_file):
        _, out, _ = run_cli(capsys, "inv", unknot_file)
        assert out.startswith('[{"component": 0, "tb": -1, "r": 0, "sl_pos": -1, "sl_neg": -1}]')


class TestRel:
    def test_split_pair_is_zero(self, capsys, split_file):
        code, out, _ = run_cli(capsys, "rel", split_file, "--pair", "0,1")
        assert code == 0
        assert json.loads(out) == {"pair": [0, 1], "tb_rel": 0, "r_rel": 0, "sl_rel": 0}

    def test_orient_flag_negates(self, capsys, tmp_path):
        # Two-component fixture with a fully nonzero relative triple
        # (-1, 1, -2), so the negation cannot pass vacuously.
        path = tmp_path / "link.grid"
        path.write_text("n=6\nX=1,4,3,0,2,5\nO=4,2,0,3,5,1\n")
        _, out_plus, _ = run_cli(capsys, "rel", str(path), "--pair", "0,1")
        _, out_minus, _ = run_cli(capsys, "rel", str(path), "--pair", "0,1", "--orient", "-")
        plus, minus = json.loads(out_plus), json.loads(out_minus)
        assert (plus["tb_rel"], plus["r_rel"], plus["sl_rel"]) == (-1, 1, -2)
        assert minus["tb_rel"] == plus["tb_rel"]
        assert minus["r_rel"] == -plus["r_rel"]
        assert minus["sl_rel"] == -plus["sl_rel"]


class TestMoves:
    def test_trace(self, capsys, unknot_file, tmp_path):
        script = tmp_path / "script.txt"
        script.write_text("lstab 0 +\ntranslate up\n")
        code, out, _ = run_cli(capsys, "moves", unknot_file, str(script))
        assert code == 0
        payload = json.loads(out)
        assert len(payload["trace"]) == 3
        assert payload["trace"][1]["move"] == "lstab 0 +"
        assert payload["trace"][1]["components"][0]["tb"] == -2
        assert payload["final"]["n"] == 3

    def test_illegal_step_fails_with_index(self, capsys, unknot_file, tmp_path):
        script = tmp_path / "script.txt"
        script.write_text("commute col 0\n")
        code, out, err = run_cli(capsys, "moves", unknot_file, str(script))
        assert code == 1
        assert out == ""
        assert json.loads(err)["error"]["type"] == "ScriptStepError"

    def test_oracle_mismatch_names_the_step_and_the_component(self, capsys, split_file, tmp_path, monkeypatch):
        import legrid.invariants as inv_mod

        real = inv_mod.tb_grid_oracle
        # tb + 1 on the one 3x3 sub-grid: the unknot that step 2 stabilizes
        monkeypatch.setattr(inv_mod, "tb_grid_oracle", lambda g, c, conv: real(g, c, conv) + (g.n == 3))
        script = tmp_path / "script.txt"
        script.write_text("translate up\nlstab 1 +\n")
        code, out, err = run_cli(capsys, "moves", split_file, str(script))
        assert (code, out) == (1, "")
        error = _single_json_error(err)
        assert error["type"] == "OracleMismatch"
        assert error["message"] == "step 2, component 1: front route gives tb=-2, push-off route gives -1"


class TestLedger:
    def test_query(self, capsys, tmp_path):
        model = tmp_path / "model.json"
        model.write_text('{"rank": 2, "euler": [4, 6], "tight": false}')
        code, out, _ = run_cli(
            capsys, "ledger", str(model), "--offset1", "3,0", "--offset2", "0,0"
        )
        assert code == 0
        assert json.loads(out) == {"tb_diff": 0, "rot_diff": 12, "sl_diff": 12, "ambiguity": 2}

    def test_tight_model(self, capsys, tmp_path):
        model = tmp_path / "model.json"
        model.write_text('{"rank": 2, "euler": [4, 6], "tight": true}')
        code, out, _ = run_cli(
            capsys, "ledger", str(model), "--offset1", "3,0", "--offset2", "0,0"
        )
        assert json.loads(out) == {"tb_diff": 0, "rot_diff": 0, "sl_diff": 0, "ambiguity": 0}


class TestCrossSim:
    def test_replay(self, capsys, tmp_path):
        events = tmp_path / "events.txt"
        events.write_text("cross +\npattern circles=0 ribbon=2 bparallel=0 clasps=0 singular=none\n")
        code, out, _ = run_cli(capsys, "cross-sim", str(events), "--init", "1,1,0,0,2,2")
        assert code == 0
        payload = json.loads(out)
        assert len(payload) == 3
        assert all(step["tb_rel"] == 0 for step in payload)
        assert payload[-1]["tw_K"] == 2  # 1 - 1 + 2

    def test_negative_init_in_both_spellings(self, capsys, tmp_path):
        events = tmp_path / "events.txt"
        events.write_text("cross -\n")
        outputs = []
        for argv in (["--init", "-5,3,0,0,0,0"], ["--init=-5,3,0,0,0,0"]):
            code, out, err = run_cli(capsys, "cross-sim", str(events), *argv)
            assert (code, err) == (0, "")
            outputs.append(out)
        assert outputs[0] == outputs[1]
        payload = json.loads(outputs[0])
        assert (payload[0]["tw_K"], payload[1]["tw_K"]) == (-5, -4)

    def test_init_still_rejects_a_missing_value(self, capsys, tmp_path):
        events = tmp_path / "events.txt"
        events.write_text("cross -\n")
        code, out, err = run_cli(capsys, "cross-sim", str(events), "--init")
        assert (code, out) == (2, "")
        assert json.loads(err)["error"]["type"] == "UsageError"

    def test_streamed_output_matches_the_old_payload(self, capsys, tmp_path):
        # The old emitter built one nine-key dict per run_trace state and
        # called json.dumps; lengths around 4096 cross the chunk edges.
        rng = random.Random(11)
        lengths = [0, 1, 4095, 4096, 4097] + [rng.randint(0, 300) for _ in range(195)]
        path = tmp_path / "events.txt"
        for length in lengths:
            init = [rng.randint(-10**6, 10**6) for _ in range(6)]
            lines, events = [], []
            for _ in range(length):
                if rng.random() < 0.7:
                    events.append(CrossingEvent(rng.choice((1, -1))))
                else:
                    counts = [rng.choice((0, 1, 3, 10**6)) for _ in range(4)]
                    events.append(IntersectionPattern(*counts, singular=rng.choice(((), (1,), (-1,)))))
                lines.append(event_to_text(events[-1]))
                if rng.random() < 0.05:
                    lines.append("  # comment")
            path.write_text("\n".join(lines) + "\n")
            trace = run_trace(FramedPairState(*init), events)
            rows = [[getattr(state, h) for h in STATE_HEADERS] for state in trace]
            argv = ("cross-sim", str(path), "--init=" + ",".join(map(str, init)))
            code, out, err = run_cli(capsys, *argv)
            assert (code, err) == (0, "")
            assert out == json.dumps([dict(zip(STATE_HEADERS, row)) for row in rows]) + "\n"
            if length in lengths[:5] or rng.random() < 0.1:
                code, out, err = run_cli(capsys, *argv, "--pretty")
                assert (code, err) == (0, "")
                assert out == _table(rows, STATE_HEADERS) + "\n"

    def test_huge_ribbon_count_is_replayed_in_closed_form(self, capsys, tmp_path):
        events = tmp_path / "events.txt"
        events.write_text("pattern circles=0 ribbon=1000000000 bparallel=0 clasps=0 singular=+\n")
        code, out, err = run_cli(capsys, "cross-sim", str(events))
        assert (code, err) == (0, "")
        assert json.loads(out)[-1] == {
            "tw_K": 10**9 - 1, "tw_J": 10**9 - 1, "w_K": -1, "w_J": -1, "sK": 1, "sJ": 1,
            "tb_rel": 0, "r_rel": 0, "sl_rel": 0,
        }

    def test_negative_pattern_count_is_a_parse_error(self, capsys, tmp_path):
        events = tmp_path / "events.txt"
        events.write_text(
            "cross +\n# comment\npattern circles=-1 ribbon=0 bparallel=0 clasps=0 singular=none\n"
        )
        code, out, err = run_cli(capsys, "cross-sim", str(events))
        assert (code, out) == (1, "")
        error = json.loads(err)["error"]
        assert (error["type"], error["line"]) == ("ParseError", 3)

    def test_drift_writes_nothing_to_stdout(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(CrossingEvent, "shift", property(lambda e: (-e.sign, 0, 0, 0, 0, 0)))
        events = tmp_path / "events.txt"
        events.write_text(
            "pattern circles=0 ribbon=1 bparallel=0 clasps=0 singular=none\n" * 10000 + "cross +\n"
        )
        code, out, err = run_cli(capsys, "cross-sim", str(events))
        assert (code, out) == (1, "")
        error = json.loads(err)["error"]
        assert error["type"] == "TripleDrift"
        assert error["message"].startswith("event 10000: ")


class TestErrors:
    def test_missing_file(self, capsys):
        code, out, err = run_cli(capsys, "inv", "/nonexistent/grid.txt")
        assert code == 1
        assert out == ""
        assert json.loads(err)["error"]["type"] == "IoError"

    @pytest.mark.parametrize("path", ["grid\x00.txt", "grid\ud800.txt"])
    def test_unopenable_path_is_an_io_error(self, capsys, path):
        code, out, err = run_cli(capsys, "inv", path)
        assert (code, out) == (1, "")
        assert _single_json_error(err)["type"] == "IoError"

    def test_domain_error_is_json(self, capsys, tmp_path):
        path = tmp_path / "bad.grid"
        path.write_text("n=2\nX=0,0\nO=1,0\n")
        code, out, err = run_cli(capsys, "inv", str(path))
        assert code == 1
        payload = json.loads(err)
        assert payload["error"]["type"] == "NotAPermutation"

    def test_parse_error_carries_position(self, capsys, tmp_path):
        path = tmp_path / "bad.grid"
        path.write_text("n=2\nX=0,huh\nO=1,0\n")
        code, _, err = run_cli(capsys, "inv", str(path))
        assert code == 1
        payload = json.loads(err)["error"]
        assert payload["type"] == "ParseError"
        assert (payload["line"], payload["column"]) == (2, 5)

    def test_usage_error_exit_two(self, capsys, split_file):
        code, out, err = run_cli(capsys, "rel", split_file, "--pair", "zero,one")
        assert code == 2
        assert json.loads(err)["error"]["type"] == "UsageError"

    def test_unknown_verb(self, capsys):
        code, _, err = run_cli(capsys, "bogus")
        assert code == 2
        assert json.loads(err)["error"]["type"] == "UsageError"

    @pytest.mark.parametrize("argv", [["-h"], ["inv", "-h"]])
    def test_help_returns_zero(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        assert out.startswith("usage: legrid")

    def test_negative_case_count_is_a_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "selftest", "--cases", "-3")
        assert (code, out) == (2, "")
        assert json.loads(err)["error"]["type"] == "UsageError"

    @pytest.mark.parametrize(
        "text",
        [
            '{"n": true, "x": [0, 1], "o": [1, 0]}',
            '{"n": 2, "x": [false, true], "o": [1, 0]}',
            '{"n": 2, "x": [0, 1], "o": [true, 0]}',
        ],
    )
    def test_json_bool_is_not_an_integer(self, capsys, tmp_path, text):
        path = tmp_path / "bool.json"
        path.write_text(text)
        code, out, err = run_cli(capsys, "inv", str(path))
        assert (code, out) == (1, "")
        assert json.loads(err)["error"]["type"] == "ParseError"

    def test_invariant_checks_survive_python_O(self):
        # Each check is forced to fail; under -O an assert would vanish.
        code = """
import legrid.grid as grid, legrid.simulator as sim
from dataclasses import replace
from legrid import (Component, LegridError, new_grid, linking_number,
                    tb_grid_oracle, to_front)

def raised(fn):
    try:
        fn()
    except LegridError as e:
        return type(e).__name__
    return None

g = new_grid(4, [0, 1, 2, 3], [1, 0, 3, 2])
odd = replace(to_front(g), crossing_matrix=((0, 1), (0, 0)))
grid.to_front = lambda g_, conv=None: odd
print(raised(lambda: linking_number(g, 0, 1)))
t = new_grid(5, [0, 1, 2, 3, 4], [2, 3, 4, 0, 1])
t.__dict__["components"] = (Component(0, frozenset({0}), frozenset({2})),)
print(raised(lambda: tb_grid_oracle(t, 0)))
sim.CrossingEvent.shift = property(lambda e: (1, 0, 0, 0, 0, 0))
print(raised(lambda: sim.run_trace(sim.FramedPairState(), [sim.CrossingEvent(1)])))
"""
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        run = subprocess.run(
            [sys.executable, "-O", "-c", code], capture_output=True, env=env, text=True, check=True
        )
        assert run.stdout.split() == ["ParityViolation", "ParityViolation", "TripleDrift"]


def _single_json_error(err):
    """stderr must hold exactly one JSON error object and no traceback."""
    assert "Traceback" not in err
    return json.loads(err)["error"]


# Each verb's argv: ``{}`` is the input file under test, SCRIPT and GRID
# a valid move script and grid for the other file of ``moves``.
FILE_VERBS = {
    "inv": ["inv", "{}"],
    "rel": ["rel", "{}", "--pair", "0,1"],
    "moves-grid": ["moves", "{}", "SCRIPT"],
    "moves-script": ["moves", "GRID", "{}"],
    "cross-sim": ["cross-sim", "{}"],
    "ledger": ["ledger", "{}"],
}


def _argv(verb, path, unknot_file, tmp_path):
    script = tmp_path / "script.txt"
    script.write_text("translate up\n")
    swap = {"{}": str(path), "SCRIPT": str(script), "GRID": unknot_file}
    return [swap.get(arg, arg) for arg in FILE_VERBS[verb]]


class TestInputFiles:
    @pytest.mark.parametrize("verb", sorted(FILE_VERBS))
    def test_undecodable_file_is_a_parse_error(self, capsys, tmp_path, unknot_file, verb):
        path = tmp_path / "latin1.txt"
        path.write_bytes(b"# caf\xc3\xa9\n  caf\xe9\n")
        code, out, err = run_cli(capsys, *_argv(verb, path, unknot_file, tmp_path))
        assert (code, out) == (1, "")
        error = _single_json_error(err)
        assert (error["type"], error["line"], error["column"]) == ("ParseError", 2, 6)

    @pytest.mark.parametrize("verb", ["inv", "rel", "moves-grid", "ledger"])
    def test_too_deep_json_is_a_parse_error(self, capsys, tmp_path, unknot_file, verb):
        path = tmp_path / "deep.json"
        path.write_text('{"n": ' + "[" * 100_000)
        code, out, err = run_cli(capsys, *_argv(verb, path, unknot_file, tmp_path))
        assert (code, out) == (1, "")
        assert _single_json_error(err)["type"] == "ParseError"

    def test_carriage_returns_end_lines(self, capsys, tmp_path):
        # Files are read with universal newlines: a lone CR ends a line
        # in JSON error positions too.
        path = tmp_path / "cr.json"
        path.write_bytes(b'{"n": 2,\r"x": [0, 1],\r\n"o": [1, 0],}')
        code, _, err = run_cli(capsys, "inv", str(path))
        assert code == 1
        assert _single_json_error(err)["line"] == 3


class TestLedgerModel:
    @pytest.mark.parametrize(
        "text",
        [
            '{"rank": "2", "euler": [4, 6], "tight": false}',
            '{"rank": 2.0, "euler": [4, 6], "tight": false}',
            '{"rank": true, "euler": [4], "tight": false}',
            '{"rank": 1, "euler": 5, "tight": false}',
            '{"rank": 1, "euler": ["a"], "tight": false}',
            '{"rank": 1, "euler": [null], "tight": false}',
            '{"rank": 1, "euler": [true], "tight": false}',
            '{"rank": 2, "euler": [4, 6], "tight": "false"}',
            '{"rank": 2, "euler": [4, 6], "tight": 0}',
        ],
    )
    def test_field_of_the_wrong_type_is_a_parse_error(self, capsys, tmp_path, text):
        model = tmp_path / "model.json"
        model.write_text(text)
        code, out, err = run_cli(capsys, "ledger", str(model), "--offset1", "1,0")
        assert (code, out) == (1, "")
        assert _single_json_error(err)["type"] == "ParseError"

    def test_unknown_key_is_a_parse_error(self, capsys, tmp_path):
        model = tmp_path / "model.json"
        model.write_text('{"rank": 1, "euler": [2], "tight": false, "tigth": true}')
        code, out, err = run_cli(capsys, "ledger", str(model), "--offset1", "1")
        assert (code, out) == (1, "")
        error = _single_json_error(err)
        assert (error["type"], error["line"], error["column"]) == ("ParseError", 1, 1)
        model.write_text('{"rank": 1, "euler": [2], "tight": false}')
        assert run_cli(capsys, "ledger", str(model), "--offset1", "1")[0] == 0


class TestIntegerArguments:
    # int() alone takes underscores and non-ASCII digits; every integer
    # argument takes ASCII digits with an optional sign only.
    @pytest.mark.parametrize(
        "argv",
        [
            ["rel", "SPLIT", "--pair", "0,\u0661"],
            ["rel", "SPLIT", "--pair", "0_0,1"],
            ["cross-sim", "EVENTS", "--init", "0_0,0,0,0,0,0"],
            ["cross-sim", "EVENTS", "--init", "\u0661,0,0,0,0,0"],
            ["cross-sim", "EVENTS", "--init", "-\u0661,0,0,0,0,0"],
            ["ledger", "MODEL", "--offset1", "1_0"],
            ["ledger", "MODEL", "--offset2", "\u0661"],
            ["inv", "SPLIT", "--component", "0_0"],
            ["selftest", "--cases", "1_0", "--seed", "1"],
            ["selftest", "--cases", "1", "--seed", "\u0661"],
        ],
    )
    def test_is_ascii_digits_or_a_usage_error(self, capsys, tmp_path, split_file, argv):
        events = tmp_path / "events.txt"
        events.write_text("cross +\n")
        model = tmp_path / "model.json"
        model.write_text('{"rank": 1, "euler": [2], "tight": false}')
        swap = {"SPLIT": split_file, "EVENTS": str(events), "MODEL": str(model)}
        code, out, err = run_cli(capsys, *(swap.get(arg, arg) for arg in argv))
        assert (code, out) == (2, "")
        assert _single_json_error(err)["type"] == "UsageError"
        ascii_argv = [arg.replace("_", "").replace("\u0661", "1") for arg in argv]
        assert run_cli(capsys, *(swap.get(arg, arg) for arg in ascii_argv))[0] == 0


class TestSelftest:
    def test_small_run_passes(self, capsys):
        code, out, _ = run_cli(capsys, "selftest", "--seed", "3", "--cases", "10")
        assert code == 0
        report = json.loads(out)
        assert report["all_passed"] is True
        assert report["seed"] == 3

    def test_byte_identical_reports(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        runs = [
            subprocess.run(
                [sys.executable, "-m", "legrid", "selftest", "--seed", "7", "--cases", "30"],
                capture_output=True,
                env=env,
                check=True,
            )
            for _ in range(2)
        ]
        assert runs[0].stdout == runs[1].stdout
        assert runs[0].stdout.strip()
