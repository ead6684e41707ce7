import json
import os
import random
import subprocess
import sys

import pytest

from legrid.cli import _table, main, parse_grid_file
from legrid import CrossingEvent, FramedPairState, IntersectionPattern, NotAPermutation, ParityViolation, run_trace

from helpers import event_to_text

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")

UNKNOT_TEXT = "n=2\nX=0,1\nO=1,0\n"
SPLIT_JSON = '{"n": 4, "x": [0, 1, 2, 3], "o": [1, 0, 3, 2]}'
LINK_TEXT = "n=6\nX=1,4,3,0,2,5\nO=4,2,0,3,5,1\n"  # relative triple (-1, 1, -2)
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


def run_python(*args, **kwargs):
    """Run a fresh interpreter that imports legrid from this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run([sys.executable, *args], capture_output=True, env=env, **kwargs)


def _fresh_run(argv):
    """One legrid call in a new interpreter: (exit code, stdout, stderr)."""
    run = run_python("-m", "legrid", *argv, text=True)
    return run.returncode, run.stdout, run.stderr


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

    def test_unknown_component_is_refused_before_the_front_is_read(self, capsys, split_file, monkeypatch):
        import legrid.grid as grid_mod

        sweeps = []
        read_front = grid_mod._read_front
        monkeypatch.setattr(grid_mod, "_read_front", lambda g: sweeps.append(g) or read_front(g))
        code, out, err = run_cli(capsys, "inv", split_file, "--component", "99")
        assert (code, out, sweeps) == (1, "", [])
        assert err == '{"error": {"type": "UnknownComponent", "message": "no component 99 (diagram has 2)"}}\n'

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
        path.write_text(LINK_TEXT)
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
        for text, step, cause, message in [
            ("commute col 0\n", 1, "InterleavingSpans", "step 1: columns 0 and 1 interleave"),
            ("lstab 0 +\ncommute col 5\n", 2, "BadCell", "step 2: cannot commute lines 5,6 of an 3-grid"),
        ]:
            script.write_text(text)
            code, out, err = run_cli(capsys, "moves", unknot_file, str(script))
            assert (code, out) == (1, "")
            error = _single_json_error(err)
            assert list(error) == ["type", "message", "step", "cause"]
            assert error == {"type": "ScriptStepError", "message": message, "step": step, "cause": cause}

    def test_oracle_mismatch_names_the_step_and_the_component(self, capsys, split_file, tmp_path, monkeypatch):
        import legrid.invariants as inv_mod

        real = inv_mod.tb_grid_oracle
        # tb + 1 on the one 3x3 sub-grid: the unknot that step 2 stabilizes
        monkeypatch.setattr(inv_mod, "tb_grid_oracle", lambda g, c: real(g, c) + (g.n == 3))
        script = tmp_path / "script.txt"
        script.write_text("translate up\nlstab 1 +\n")
        code, out, err = run_cli(capsys, "moves", split_file, str(script))
        assert (code, out) == (1, "")
        error = _single_json_error(err)
        assert list(error) == ["type", "message", "step", "component"]
        assert error == {
            "type": "OracleMismatch",
            "message": "step 2, component 1: front route gives tb=-2, push-off route gives -1",
            "step": 2,
            "component": 1,
        }

    def test_parity_violation_names_the_step_and_the_component(self, capsys, split_file, tmp_path, monkeypatch):
        import legrid.invariants as inv_mod

        real = inv_mod.tb_grid_oracle

        def odd_on_three(g, c):
            # only the unknot that step 2 stabilizes has a 3x3 sub-grid
            if g.n == 3:
                raise ParityViolation(f"component {c} and its push-off cross an odd signed number of times (1)")
            return real(g, c)

        monkeypatch.setattr(inv_mod, "tb_grid_oracle", odd_on_three)
        script = tmp_path / "script.txt"
        script.write_text("translate up\nlstab 1 +\n")
        code, out, err = run_cli(capsys, "moves", split_file, str(script))
        assert (code, out) == (1, "")
        error = _single_json_error(err)
        assert list(error) == ["type", "message", "step", "component"]
        assert error == {
            "type": "ParityViolation",
            "message": "step 2, component 1 and its push-off cross an odd signed number of times (1)",
            "step": 2,
            "component": 1,
        }

    def test_invariant_error_outside_a_script_has_no_step(self, capsys, split_file, monkeypatch):
        import legrid.invariants as inv_mod

        real = inv_mod.tb_grid_oracle
        monkeypatch.setattr(inv_mod, "tb_grid_oracle", lambda g, c: real(g, c) + 1)
        code, out, err = run_cli(capsys, "inv", split_file)
        assert (code, out) == (1, "")
        error = _single_json_error(err)
        assert list(error) == ["type", "message"]
        assert error == {
            "type": "OracleMismatch",
            "message": "component 0: front route gives tb=-1, push-off route gives 0",
        }


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

    @pytest.mark.parametrize(
        ("init", "message"),
        [("1,2", "--init expects six comma-separated integers"), ("1,2,3,4,5,x", "--init expects integers")],
    )
    def test_bad_init_is_refused_before_the_file_is_read(self, capsys, tmp_path, init, message):
        bad = tmp_path / "bad.txt"
        bad.write_text("cross +\nwiggle\n")
        for path in (bad, tmp_path / "missing.txt"):
            code, out, err = run_cli(capsys, "cross-sim", str(path), "--init", init)
            assert (code, out) == (2, "")
            assert _single_json_error(err) == {"type": "UsageError", "message": message}

    def test_respelled_events_give_the_same_states(self, capsys, tmp_path):
        pattern = "pattern circles=0 ribbon=3 bparallel=1 clasps=2 singular=+"
        respelled = "pattern singular=+ clasps=2 bparallel=1 ribbon=3 circles=0"
        one, two = tmp_path / "one.txt", tmp_path / "two.txt"
        one.write_text(f"cross -\n{pattern}\ncross -\n{pattern}\n")
        two.write_text(f"cross -\n{respelled}\ncross   -\n{pattern}\n")
        outputs = [run_cli(capsys, "cross-sim", str(path), "--init=1,2,3,4,5,6") for path in (one, two)]
        assert outputs[0] == outputs[1]
        assert outputs[0][0] == 0

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

    def test_two_singular_clasps_record_names_step_and_cause(self, capsys, tmp_path, monkeypatch):
        # The text format writes at most one clasp sign, so the two-clasp
        # pattern is appended after parsing.
        import legrid.simulator as sim_mod

        real = sim_mod.parse_event_script
        monkeypatch.setattr(
            sim_mod, "parse_event_script",
            lambda text: real(text) + (IntersectionPattern(singular=(1, 1)),),
        )
        events = tmp_path / "events.txt"
        events.write_text("cross +\ncross -\n")
        code, out, err = run_cli(capsys, "cross-sim", str(events))
        assert (code, out) == (1, "")
        error = _single_json_error(err)
        assert list(error) == ["type", "message", "step", "cause"]
        assert error == {
            "type": "ScriptStepError",
            "message": "step 2: at most one singular clasp is possible, got 2",
            "step": 2,
            "cause": "MultipleSingularClasps",
        }

    @pytest.mark.parametrize("key", ["circles", "ribbon", "bparallel", "clasps", "singular"])
    def test_repeated_pattern_field_is_a_parse_error(self, capsys, tmp_path, key):
        values = {"circles": "1", "ribbon": "3", "bparallel": "0", "clasps": "0", "singular": "+"}
        fields = " ".join(f"{k}={v}" for k, v in values.items())
        events = tmp_path / "events.txt"
        events.write_text(f"cross +\n# comment\npattern {fields} {key}={values[key]}\n")
        code, out, err = run_cli(capsys, "cross-sim", str(events))
        assert (code, out) == (1, "")
        error = _single_json_error(err)
        assert (error["type"], error["line"], error["column"]) == ("ParseError", 3, 1)
        assert error["message"] == f"repeated pattern field {key!r}"

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


class TestUnknownComponent:
    """inv, rel and moves name an unknown component with the one text."""

    def test_every_verb_gives_the_one_text(self, capsys, split_file, tmp_path):
        script = tmp_path / "script.txt"
        script.write_text("translate up\nlstab 9 +\n")
        expected = {
            ("inv", split_file, "--component", "2"): ("UnknownComponent", "no component 2 (diagram has 2)"),
            ("inv", split_file, "--component", "-1"): ("UnknownComponent", "no component -1 (diagram has 2)"),
            ("rel", split_file, "--pair", "0,5"): ("UnknownComponent", "no component 5 (diagram has 2)"),
            ("rel", split_file, "--pair", "7,1"): ("UnknownComponent", "no component 7 (diagram has 2)"),
            ("rel", split_file, "--pair", "5,5"): ("UnknownComponent", "no component 5 (diagram has 2)"),
            ("rel", split_file, "--pair", "1,1"): (
                "SameComponent",
                "relative invariants need two distinct components, got 1",
            ),
            ("moves", split_file, str(script)): ("ScriptStepError", "step 2: no component 9 (diagram has 2)"),
        }
        for argv, (kind, message) in expected.items():
            for pretty in ((), ("--pretty",)):
                code, out, err = run_cli(capsys, *argv, *pretty)
                assert (code, out) == (1, "")
                error = _single_json_error(err)
                assert (error["type"], error["message"]) == (kind, message)


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
from legrid import FrontData, LegridError, new_grid, linking_number, tb_grid_oracle, to_front

def raised(fn):
    try:
        fn()
    except LegridError as e:
        return type(e).__name__
    return None

g = new_grid(4, [0, 1, 2, 3], [1, 0, 3, 2])
odd = FrontData(((0, 1), (0, 0)), to_front(g).cusps)
grid.to_front = lambda g_: odd
print(raised(lambda: linking_number(g, 0, 1)))
t = new_grid(5, [0, 1, 2, 3, 4], [2, 3, 4, 0, 1])
t.__dict__.update(component_by_column=(0, 0, 1, 0, 0), component_count=2)
print(raised(lambda: tb_grid_oracle(t, 0)))
sim.CrossingEvent.shift = property(lambda e: (1, 0, 0, 0, 0, 0))
print(raised(lambda: sim.run_trace(sim.FramedPairState(), [sim.CrossingEvent(1)])))
"""
        run = run_python("-O", "-c", code, text=True, check=True)
        assert run.stdout.split() == ["ParityViolation", "ParityViolation", "TripleDrift"]


MOVES_SCRIPT = "translate up\nlstab 1 -\nstab X 0 NE\n"
MODEL_JSON = '{"rank": 2, "euler": [4, 6], "tight": false}'
EVENTS_TEXT = "cross +\npattern circles=0 ribbon=2 bparallel=0 clasps=0 singular=none\n"
SELFTEST_CHECKS = [
    ("normalization", 5), ("route-equality", 5), ("grid-invariants", 5), ("linking-symmetry", 5),
    ("stabilization-laws", 4), ("isotopy-invariance", 5), ("relative-algebra", 5), ("ledger-rules", 5),
    ("simulator-replay", 1),
]

# Each verb on fixed inputs: its argv (LINK, UNKNOT, SCRIPT, LSTAB, MODEL
# and EVENTS name the files written by ``_golden_files``), its JSON
# stdout and its --pretty stdout.
GOLDEN = {
    "inv": (
        ["inv", "LINK"],
        '[{"component": 0, "tb": -2, "r": 1, "sl_pos": -3, "sl_neg": -1}, '
        '{"component": 1, "tb": -1, "r": 0, "sl_pos": -1, "sl_neg": -1}]\n',
        "component  tb  r  sl_pos  sl_neg\n"
        "---------  --  -  ------  ------\n"
        "0          -2  1  -3      -1    \n"
        "1          -1  0  -1      -1    \n",
    ),
    "inv-component": (
        ["inv", "LINK", "--component", "1", "--conv", "ne-sw"],
        '{"component": 1, "tb": -1, "r": 0, "sl_pos": -1, "sl_neg": -1}\n',
        "component  tb  r  sl_pos  sl_neg\n"
        "---------  --  -  ------  ------\n"
        "1          -1  0  -1      -1    \n",
    ),
    "rel": (
        ["rel", "LINK", "--pair", "0,1"],
        '{"pair": [0, 1], "tb_rel": -1, "r_rel": 1, "sl_rel": -2}\n',
        "pair   tb_rel  r_rel  sl_rel\n"
        "-----  ------  -----  ------\n"
        "(0,1)  -1      1      -2    \n",
    ),
    "moves": (
        ["moves", "LINK", "SCRIPT"],
        '{"final": {"n": 8, "x": [3, 2, 7, 5, 6, 1, 4, 0], "o": [7, 3, 4, 1, 5, 6, 0, 2]}, "trace": ['
        '{"step": 0, "move": null, "components": [{"component": 0, "tb": -2, "r": 1, "sl_pos": -3, "sl_neg": -1}, '
        '{"component": 1, "tb": -1, "r": 0, "sl_pos": -1, "sl_neg": -1}], '
        '"relative": {"tb_rel": -1, "r_rel": 1, "sl_rel": -2}, "flags": []}, '
        '{"step": 1, "move": "translate up", "components": [{"component": 0, "tb": -2, "r": 1, "sl_pos": -3, "sl_neg": -1}, '
        '{"component": 1, "tb": -1, "r": 0, "sl_pos": -1, "sl_neg": -1}], '
        '"relative": {"tb_rel": -1, "r_rel": 1, "sl_rel": -2}, "flags": ["cusp-change"]}, '
        '{"step": 2, "move": "lstab 1 -", "components": [{"component": 0, "tb": -2, "r": 1, "sl_pos": -3, "sl_neg": -1}, '
        '{"component": 1, "tb": -2, "r": -1, "sl_pos": -1, "sl_neg": -3}], '
        '"relative": {"tb_rel": 0, "r_rel": 2, "sl_rel": -2}, "flags": []}, '
        '{"step": 3, "move": "stab X 0 NE", "components": [{"component": 0, "tb": -2, "r": 1, "sl_pos": -3, "sl_neg": -1}, '
        '{"component": 1, "tb": -2, "r": -1, "sl_pos": -1, "sl_neg": -3}], '
        '"relative": {"tb_rel": 0, "r_rel": 2, "sl_rel": -2}, "flags": []}]}\n',
        "step  move          per-component (tb, r)  relative   flags      \n"
        "----  ------------  ---------------------  ---------  -----------\n"
        "0     -             (-2,1) (-1,0)          (-1,1,-2)  -          \n"
        "1     translate up  (-2,1) (-1,0)          (-1,1,-2)  cusp-change\n"
        "2     lstab 1 -     (-2,1) (-2,-1)         (0,2,-2)   -          \n"
        "3     stab X 0 NE   (-2,1) (-2,-1)         (0,2,-2)   -          \n"
        "final: n=8 X=[3, 2, 7, 5, 6, 1, 4, 0] O=[7, 3, 4, 1, 5, 6, 0, 2]\n",
    ),
    "moves-knot": (
        ["moves", "UNKNOT", "LSTAB"],
        '{"final": {"n": 3, "x": [0, 1, 2], "o": [1, 2, 0]}, "trace": ['
        '{"step": 0, "move": null, "components": [{"component": 0, "tb": -1, "r": 0, "sl_pos": -1, "sl_neg": -1}], '
        '"relative": null, "flags": []}, '
        '{"step": 1, "move": "lstab 0 +", "components": [{"component": 0, "tb": -2, "r": 1, "sl_pos": -3, "sl_neg": -1}], '
        '"relative": null, "flags": []}]}\n',
        "step  move       per-component (tb, r)  relative  flags\n"
        "----  ---------  ---------------------  --------  -----\n"
        "0     -          (-1,0)                 -         -    \n"
        "1     lstab 0 +  (-2,1)                 -         -    \n"
        "final: n=3 X=[0, 1, 2] O=[1, 2, 0]\n",
    ),
    "ledger": (
        ["ledger", "MODEL", "--offset1", "3,0"],
        '{"tb_diff": 0, "rot_diff": 12, "sl_diff": 12, "ambiguity": 2}\n',
        "quantity   value\n"
        "---------  -----\n"
        "tb_diff    0    \n"
        "rot_diff   12   \n"
        "sl_diff    12   \n"
        "ambiguity  2    \n",
    ),
    "cross-sim": (
        ["cross-sim", "EVENTS", "--init", "1,1,0,0,2,2"],
        '[{"tw_K": 1, "tw_J": 1, "w_K": 0, "w_J": 0, "sK": 2, "sJ": 2, "tb_rel": 0, "r_rel": 0, "sl_rel": 0}, '
        '{"tw_K": 0, "tw_J": 0, "w_K": -1, "w_J": -1, "sK": 3, "sJ": 3, "tb_rel": 0, "r_rel": 0, "sl_rel": 0}, '
        '{"tw_K": 2, "tw_J": 2, "w_K": -1, "w_J": -1, "sK": 3, "sJ": 3, "tb_rel": 0, "r_rel": 0, "sl_rel": 0}]\n',
        "tw_K  tw_J  w_K  w_J  sK  sJ  tb_rel  r_rel  sl_rel\n"
        "----  ----  ---  ---  --  --  ------  -----  ------\n"
        "1     1     0    0    2   2   0       0      0     \n"
        "0     0     -1   -1   3   3   0       0      0     \n"
        "2     2     -1   -1   3   3   0       0      0     \n",
    ),
    "selftest": (
        ["selftest", "--seed", "3", "--cases", "5"],
        '{"suite": "legrid-selftest", "seed": 3, "cases": 5, "checks": ['
        + ", ".join(
            f'{{"name": "{name}", "cases": {cases}, "failures": 0, "passed": true}}'
            for name, cases in SELFTEST_CHECKS
        )
        + '], "all_passed": true}\n',
        "check               cases  failures  status\n"
        "------------------  -----  --------  ------\n"
        + "".join(f"{name:<18}  {cases:<5}  0         pass  \n" for name, cases in SELFTEST_CHECKS)
        + "seed=3 cases=5 all_passed=True\n",
    ),
}


def _golden_files(tmp_path):
    files = {
        "LINK": LINK_TEXT, "UNKNOT": UNKNOT_TEXT, "SCRIPT": MOVES_SCRIPT, "LSTAB": "lstab 0 +\n",
        "MODEL": MODEL_JSON, "EVENTS": EVENTS_TEXT,
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    return lambda argv: [str(tmp_path / arg) if arg in files else arg for arg in argv]


class TestGoldenOutput:
    """Every verb's exact stdout on fixed inputs, as JSON and as a table."""

    @pytest.mark.parametrize("case", sorted(GOLDEN))
    def test_json_and_pretty(self, capsys, tmp_path, case):
        argv, json_out, pretty_out = GOLDEN[case]
        argv = _golden_files(tmp_path)(argv)
        assert run_cli(capsys, *argv) == (0, json_out, "")
        assert run_cli(capsys, *argv, "--pretty") == (0, pretty_out, "")


# Each option the parser checks, with a bad value, and the usage error it
# gives; the input files are valid.
BAD_OPTIONS = [
    (["rel", "LINK", "--pair", "0"], "--pair expects two comma-separated indices, got '0'"),
    (["rel", "LINK", "--pair", "a,b"], "--pair expects integers, got 'a,b'"),
    (["cross-sim", "EVENTS", "--init", "1,2"], "--init expects six comma-separated integers"),
    (["cross-sim", "EVENTS", "--init", "1,2,3,4,5,x"], "--init expects integers"),
    (["ledger", "MODEL", "--offset1", "x"], "offsets must be comma-separated integers, got 'x'"),
    (["ledger", "MODEL", "--offset2", "1,y"], "offsets must be comma-separated integers, got '1,y'"),
    (["selftest", "--cases", "-3"], "--cases must be non-negative, got -3"),
]


class TestOptionChecks:
    @pytest.mark.parametrize(("argv", "message"), BAD_OPTIONS)
    def test_bad_option_gives_its_usage_error(self, capsys, tmp_path, argv, message):
        argv = _golden_files(tmp_path)(argv)
        expected = json.dumps({"error": {"type": "UsageError", "message": message}}) + "\n"
        assert run_cli(capsys, *argv) == (2, "", expected)

    @pytest.mark.parametrize(
        ("argv", "message"),
        [
            (["rel", "MISSING", "--pair", "0"], "--pair expects two comma-separated indices, got '0'"),
            (["ledger", "MISSING", "--offset1", "x"], "offsets must be comma-separated integers, got 'x'"),
        ],
    )
    def test_usage_error_comes_before_any_file_is_read(self, capsys, tmp_path, argv, message):
        argv = [str(tmp_path / "missing") if arg == "MISSING" else arg for arg in argv]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert _single_json_error(err) == {"type": "UsageError", "message": message}


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

    @pytest.mark.parametrize("entry", ["1.5", "true"])
    def test_non_integer_euler_entry_keeps_its_parse_text(self, capsys, tmp_path, entry):
        # the model refuses such an entry itself; the parser's text comes first
        model = tmp_path / "model.json"
        model.write_text(f'{{"rank": 1, "euler": [{entry}], "tight": false}}')
        code, out, err = run_cli(capsys, "ledger", str(model), "--offset1", "1")
        assert (code, out) == (1, "")
        assert _single_json_error(err) == {
            "type": "ParseError", "message": '"euler" must be a list of integers', "line": 1, "column": 1,
        }

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

    def test_failed_check_exits_one_after_the_report(self, capsys, monkeypatch):
        import legrid.selftest as selftest_mod

        broken = selftest_mod.CheckResult("broken", 2, 1)
        monkeypatch.setattr(selftest_mod, "CHECKS", (lambda rng, cases: broken,))
        code, out, err = run_cli(capsys, "selftest", "--cases", "2")
        assert (code, err) == (1, "")
        assert json.loads(out)["checks"] == [broken.as_record()]
        code, out, err = run_cli(capsys, "selftest", "--cases", "2", "--pretty")
        assert (code, err) == (1, "")
        assert out.splitlines()[2].split() == ["broken", "2", "1", "FAIL"]
        assert out.endswith("all_passed=False\n")

    @pytest.mark.parametrize(
        "trace",
        [
            # the cycles numbered from the highest lowest column down
            lambda owner, count: (tuple(count - 1 - k for k in owner), count),
            # every column a component of its own
            lambda owner, count: (tuple(range(len(owner))), len(owner)),
        ],
    )
    def test_grid_invariants_checks_the_stored_owner_table(self, monkeypatch, trace):
        import legrid.grid as grid_mod
        import legrid.selftest as selftest_mod

        assert selftest_mod._check_grid_invariants(random.Random(5), 40).failures == 0
        real = grid_mod._trace
        monkeypatch.setattr(grid_mod, "_trace", lambda xs, o_col: trace(*real(xs, o_col)))
        assert selftest_mod._check_grid_invariants(random.Random(5), 40).failures > 0

    def test_byte_identical_reports(self):
        runs = [
            run_python("-m", "legrid", "selftest", "--seed", "7", "--cases", "30", check=True)
            for _ in range(2)
        ]
        assert runs[0].stdout == runs[1].stdout
        assert runs[0].stdout.strip()


class TestSharedParser:
    """``main`` builds its parser once per process; nothing from one call
    may reach the next."""

    @pytest.mark.parametrize(
        "first, second",
        [
            (["inv", "--component", "1", "G"], ["inv", "G"]),
            (["rel", "G", "--pair", "0,1", "--orient", "-"], ["rel", "G", "--pair", "0,1"]),
            (["inv", "--pretty", "G"], ["inv", "G"]),
            (["inv", "--conv", "bogus", "G"], ["inv", "G"]),
            (["-h"], ["inv", "G"]),
        ],
    )
    def test_second_call_matches_a_fresh_process(self, capsys, monkeypatch, tmp_path, first, second):
        monkeypatch.setenv("COLUMNS", "80")
        path = tmp_path / "link.grid"
        path.write_text(LINK_TEXT)
        first, second = ([str(path) if a == "G" else a for a in argv] for argv in (first, second))
        run_cli(capsys, *first)
        result = run_cli(capsys, *second)
        assert result == _fresh_run(second)
        if second[0] == "inv":
            assert [rec["component"] for rec in json.loads(result[1])] == [0, 1]

    def test_help_follows_columns_at_print_time(self, capsys, monkeypatch):
        def description():
            code, out, err = run_cli(capsys, "-h")
            assert (code, err) == (0, "")
            return out.split("\n\n")[1]

        monkeypatch.setenv("COLUMNS", "40")
        narrow = description()
        monkeypatch.setenv("COLUMNS", "200")
        wide = description()
        assert narrow != wide
        assert narrow.split() == wide.split()
        assert max(map(len, narrow.splitlines())) <= 40 < max(map(len, wide.splitlines()))

    def test_import_builds_no_parser_and_main_builds_one(self):
        code = """
import contextlib, gc, io
import legrid.cli as cli

assert not [o for o in gc.get_objects() if isinstance(o, cli._Parser)]
built = []
init = cli._Parser.__init__
def counting_init(self, *args, **kwargs):
    built.append(kwargs.get("prog"))
    init(self, *args, **kwargs)
cli._Parser.__init__ = counting_init
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(["selftest", "--cases", "0"]) for _ in range(2)]
print(*codes, built.count("legrid"), len(built))
"""
        run = run_python("-c", code, text=True, check=True)
        # Both calls pass; one top-level parser and its six verb subparsers.
        assert run.stdout.split() == ["0", "0", "1", "7"]
