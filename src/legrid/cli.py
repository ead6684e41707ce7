"""Command-line interface.

Verbs: ``inv`` (classical invariants per component), ``rel`` (relative
invariants of a component pair), ``moves`` (run a move script with a
trace), ``ledger`` (evaluate a homology-model query), ``cross-sim``
(replay an event script) and ``selftest`` (the deterministic property
suite).  Machine output is JSON on stdout; errors are JSON on stderr
with exit code 1 for domain errors and 2 for usage errors.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import re
import sys

from . import ledger as ledger_mod
from . import simulator
from .errors import LegridError, OracleMismatch, ParityViolation, ParseError, ScriptStepError
from .grid import Convention, GridDiagram, _int_token, _is_int, _load_json, parse_grid, reading
from .invariants import OrientationFlag, classical, relative_invariants
from .moves import apply_script, parse_move_script
from .selftest import run_selftest

__all__ = ["main", "parse_grid_file"]


class _UsageError(Exception):
    """A usage error: exit 2.  argparse passes it on from a ``type=``
    function with its message as it stands."""


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # No option looks like a number, so a value such as "-5,3,0" (a
        # comma-separated list starting with a negative entry) is read as
        # a value, not as an unknown option.
        self._negative_number_matcher = re.compile(r"^-[0-9]+(,-?[0-9]+)*$|^-[0-9]*\.[0-9]+$")

    def error(self, message):
        raise _UsageError(message)


def _int_arg(text):
    """argparse type for integer options, with argparse's own message."""
    try:
        return _int_token(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _ints(text, message):
    """The comma-separated integers of an option value, or a usage error."""
    try:
        return tuple(map(_int_token, text.split(",")))
    except ValueError:
        raise _UsageError(message) from None


def _pair_arg(text):
    if text.count(",") != 1:
        raise _UsageError(f"--pair expects two comma-separated indices, got {text!r}")
    return _ints(text, f"--pair expects integers, got {text!r}")


def _offsets_arg(text):
    return _ints(text, f"offsets must be comma-separated integers, got {text!r}") if text else ()


def _init_arg(text):
    if text.count(",") != 5:
        raise _UsageError("--init expects six comma-separated integers")
    return simulator.FramedPairState._make(_ints(text, "--init expects integers"))


def _cases_arg(text):
    cases = _int_arg(text)
    if cases < 0:
        raise _UsageError(f"--cases must be non-negative, got {cases}")
    return cases


def _read_input(path) -> str:
    """Read an input file as UTF-8 text with universal newlines.  Bytes
    that are not UTF-8 are a ParseError at their line and column.  A
    path that no file can have (a NUL byte, a lone surrogate) is an
    OSError like a missing file."""
    try:
        handle = open(path, "rb")
    except ValueError as e:
        raise OSError(f"cannot open {path!r}: {e}") from None
    with handle:
        data = handle.read().replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as e:
        start = data.rfind(b"\n", 0, e.start) + 1
        line = data.count(b"\n", 0, start) + 1
        column = len(data[start:e.start].decode("utf-8")) + 1
        raise ParseError(line, column, f"not UTF-8: {e.reason}") from None


def parse_grid_file(path) -> GridDiagram:
    """Load a grid diagram from a text or JSON file."""
    return parse_grid(_read_input(path))


def _table(rows, headers):
    """Render a small aligned text table."""
    widths = [len(h) for h in headers]
    cells = [[str(v) for v in row] for row in rows]
    for row in cells:
        widths = [max(w, len(c)) for w, c in zip(widths, row)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths))]
    lines.append("  ".join("-" * w for w in widths))
    lines.extend("  ".join(c.ljust(w) for c, w in zip(row, widths)) for row in cells)
    return "\n".join(lines)


def _classical_record(index, inv):
    return {
        "component": index,
        "tb": inv.tb,
        "r": inv.r,
        "sl_pos": inv.sl_pos,
        "sl_neg": inv.sl_neg,
    }


def _relative_record(rel):
    return {"tb_rel": rel.tb_rel, "r_rel": rel.r_rel, "sl_rel": rel.sl_rel}


def _cmd_inv(args):
    g = reading(parse_grid_file(args.grid), Convention(args.conv))
    indices = [comp.index for comp in g.components] if args.component is None else [args.component]
    records = [_classical_record(i, classical(g, i)) for i in indices]
    headers = ["component", "tb", "r", "sl_pos", "sl_neg"]
    payload = records if args.component is None else records[0]
    return payload, lambda: _table([[rec[h] for h in headers] for rec in records], headers)


def _cmd_rel(args):
    g = parse_grid_file(args.grid)
    k, j = args.pair
    flag = OrientationFlag(surface=1 if args.orient == "+" else -1)
    rel = relative_invariants(g, k, j, flag)
    headers = ["pair", "tb_rel", "r_rel", "sl_rel"]
    row = [f"({k},{j})", rel.tb_rel, rel.r_rel, rel.sl_rel]
    return {"pair": [k, j], **_relative_record(rel)}, lambda: _table([row], headers)


def _cmd_moves(args):
    g = parse_grid_file(args.grid)
    script = parse_move_script(_read_input(args.script))
    result = apply_script(g, script)
    final = result.final
    trace = [
        {
            "step": step.index,
            "move": None if step.move is None else step.move.text(),
            "components": [
                _classical_record(i, inv) for i, inv in enumerate(step.invariants)
            ],
            "relative": None if step.relative is None else _relative_record(step.relative),
            "flags": list(step.flags),
        }
        for step in result.trace
    ]

    def table():
        rows = []
        for step in result.trace:
            rel = step.relative
            move = "-" if step.move is None else step.move.text()
            comps = " ".join(f"({inv.tb},{inv.r})" for inv in step.invariants)
            rel_text = "-" if rel is None else f"({rel.tb_rel},{rel.r_rel},{rel.sl_rel})"
            rows.append([step.index, move, comps, rel_text, ",".join(step.flags) or "-"])
        headers = ["step", "move", "per-component (tb, r)", "relative", "flags"]
        return _table(rows, headers) + f"\nfinal: n={final.n} X={list(final.xs)} O={list(final.os)}"

    return {"final": {"n": final.n, "x": list(final.xs), "o": list(final.os)}, "trace": trace}, table


def _parse_model(text):
    """A model file: a JSON object with an integer "rank", a list of
    integers "euler" and a boolean "tight", and no other key."""
    data = _load_json(text)
    if not isinstance(data, dict) or set(data) != {"rank", "euler", "tight"}:
        raise ParseError(1, 1, 'model file needs exactly the keys "rank", "euler", "tight"')
    rank, euler, tight = data["rank"], data["euler"], data["tight"]
    if not _is_int(rank):
        raise ParseError(1, 1, '"rank" must be an integer')
    if not isinstance(euler, list) or not all(_is_int(v) for v in euler):
        raise ParseError(1, 1, '"euler" must be a list of integers')
    if not isinstance(tight, bool):
        raise ParseError(1, 1, '"tight" must be true or false')
    return ledger_mod.new_model(rank, euler, tight)


def _cmd_ledger(args):
    model = _parse_model(_read_input(args.model))
    zero = (0,) * model.rank
    s1 = ledger_mod.RelativeSurfaceClass(args.base, zero if args.offset1 is None else args.offset1)
    s2 = ledger_mod.RelativeSurfaceClass(args.base, zero if args.offset2 is None else args.offset2)
    payload = {
        "tb_diff": ledger_mod.tb_diff(model, s1, s2),
        "rot_diff": ledger_mod.rot_diff(model, s1, s2),
        "sl_diff": ledger_mod.sl_diff(model, s1, s2),
        "ambiguity": ledger_mod.ambiguity(model),
    }
    return payload, lambda: _table([[k, v] for k, v in payload.items()], ["quantity", "value"])


def _cmd_cross_sim(args):
    events = simulator.parse_event_script(_read_input(args.events))
    rows, triple = simulator.replay(args.init, events), args.init.triple
    headers = ["tw_K", "tw_J", "w_K", "w_J", "sK", "sJ", "tb_rel", "r_rel", "sl_rel"]
    return (rows, triple), lambda: _table([row + triple for row in rows], headers)


_STATE_CHUNK = 4096


def _write_states(rows, triple):
    """Stream the states as the JSON list ``json.dumps`` would give for
    one nine-key record per state, in chunks of ``_STATE_CHUNK``.
    replay() has already checked that the triple never moves, so it is
    formatted once."""
    template = (
        '{"tw_K": %d, "tw_J": %d, "w_K": %d, "w_J": %d, "sK": %d, "sJ": %d, '
        + '"tb_rel": %d, "r_rel": %d, "sl_rel": %d}' % triple
    )
    write = sys.stdout.write
    sep = "["
    while chunk := list(itertools.islice(rows, _STATE_CHUNK)):
        write(sep + ", ".join([template % row for row in chunk]))
        sep = ", "
    write("]\n")


def _cmd_selftest(args):
    report = run_selftest(args.seed, args.cases)

    def table():
        rows = [
            [c["name"], c["cases"], c["failures"], "pass" if c["passed"] else "FAIL"]
            for c in report["checks"]
        ]
        footer = f"seed={report['seed']} cases={report['cases']} all_passed={report['all_passed']}"
        return _table(rows, ["check", "cases", "failures", "status"]) + "\n" + footer

    return report, table


@functools.cache
def _build_parser():
    """The one parser of this process, built on the first ``main`` call
    (not at import) and reused by every later one.  It holds only
    constants: parsing does not change it, errors raise, and help is
    formatted for the ``sys.stdout`` and terminal width in force when it
    is printed.  Every option is checked here, so a usage error comes
    before any input file is read."""
    parser = _Parser(prog="legrid", description=__doc__)
    sub = parser.add_subparsers(dest="verb", required=True)

    inv = sub.add_parser("inv", help="classical invariants per component")
    inv.add_argument("grid")
    inv.add_argument("--component", type=_int_arg, default=None)
    inv.add_argument("--conv", default=Convention.NW_SE.value,
                     choices=[c.value for c in Convention])
    inv.set_defaults(func=_cmd_inv)

    rel = sub.add_parser("rel", help="relative invariants of a component pair")
    rel.add_argument("grid")
    rel.add_argument("--pair", type=_pair_arg, required=True, help="k,j")
    rel.add_argument("--orient", default="+", choices=["+", "-"])
    rel.set_defaults(func=_cmd_rel)

    moves = sub.add_parser("moves", help="run a move script with a trace")
    moves.add_argument("grid")
    moves.add_argument("script")
    moves.set_defaults(func=_cmd_moves)

    led = sub.add_parser("ledger", help="evaluate a homology-model query")
    led.add_argument("model")
    led.add_argument("--base", default="sigma")
    led.add_argument("--offset1", type=_offsets_arg, default=None)
    led.add_argument("--offset2", type=_offsets_arg, default=None)
    led.set_defaults(func=_cmd_ledger)

    sim = sub.add_parser("cross-sim", help="replay an event script")
    sim.add_argument("events")
    sim.add_argument("--init", type=_init_arg, default=simulator.FramedPairState(),
                     help="tw_K,tw_J,w_K,w_J,sK,sJ")
    sim.set_defaults(func=_cmd_cross_sim)

    selftest = sub.add_parser("selftest", help="run the deterministic property suite")
    selftest.add_argument("--seed", type=_int_arg, default=0)
    selftest.add_argument("--cases", type=_cases_arg, default=200)
    selftest.set_defaults(func=_cmd_selftest)

    for verb in sub.choices.values():
        verb.add_argument("--pretty", action="store_true")
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        # Each verb returns its JSON record and a thunk for its table.
        # cross-sim streams its states; selftest exits 1 when a check fails.
        record, table = args.func(args)
        if args.pretty:
            print(table())
        elif args.verb == "cross-sim":
            _write_states(*record)
        else:
            print(json.dumps(record))
        return 1 if args.verb == "selftest" and not record["all_passed"] else 0
    except SystemExit as e:  # argparse's help action, once the help is printed
        return e.code
    except _UsageError as e:
        code, record = 2, {"type": "UsageError", "message": str(e)}
    except ParseError as e:
        code, record = 1, {"type": "ParseError", "message": e.message, "line": e.line, "column": e.column}
    except ScriptStepError as e:
        code, record = 1, {
            "type": "ScriptStepError", "message": str(e), "step": e.index, "cause": type(e.cause).__name__
        }
    except (OracleMismatch, ParityViolation) as e:
        code, record = 1, {"type": type(e).__name__, "message": str(e)}
        if e.step is not None:
            record.update(step=e.step, component=e.component)
    except LegridError as e:
        code, record = 1, {"type": type(e).__name__, "message": str(e)}
    except OSError as e:
        code, record = 1, {"type": "IoError", "message": str(e)}
    print(json.dumps({"error": record}), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
