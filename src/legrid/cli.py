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
import itertools
import json
import re
import sys

from . import ledger as ledger_mod
from . import simulator
from .errors import LegridError, ParseError
from .grid import Convention, GridDiagram, _int_token, _is_int, _load_json, parse_grid
from .invariants import OrientationFlag, classical, relative_invariants
from .moves import apply_script, parse_move_script
from .selftest import run_selftest

__all__ = ["main", "parse_grid_file"]


class _UsageError(Exception):
    pass


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


def _emit(payload):
    print(json.dumps(payload))


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


def _relative_record(k, j, rel):
    return {"pair": [k, j], "tb_rel": rel.tb_rel, "r_rel": rel.r_rel, "sl_rel": rel.sl_rel}


def _grid_record(g):
    return {"n": g.n, "x": list(g.xs), "o": list(g.os)}


def _cmd_inv(args):
    g = parse_grid_file(args.grid)
    conv = Convention(args.conv)
    if args.component is not None:
        records = [_classical_record(args.component, classical(g, args.component, conv))]
        payload = records[0]
    else:
        records = [
            _classical_record(comp.index, classical(g, comp.index, conv))
            for comp in g.components
        ]
        payload = records
    if args.pretty:
        headers = ["component", "tb", "r", "sl_pos", "sl_neg"]
        print(_table([[rec[h] for h in headers] for rec in records], headers))
    else:
        _emit(payload)
    return 0


def _parse_pair(text):
    parts = text.split(",")
    if len(parts) != 2:
        raise _UsageError(f"--pair expects two comma-separated indices, got {text!r}")
    try:
        return _int_token(parts[0]), _int_token(parts[1])
    except ValueError:
        raise _UsageError(f"--pair expects integers, got {text!r}") from None


def _cmd_rel(args):
    g = parse_grid_file(args.grid)
    k, j = _parse_pair(args.pair)
    flag = OrientationFlag(surface=1 if args.orient == "+" else -1)
    rel = relative_invariants(g, k, j, flag)
    record = _relative_record(k, j, rel)
    if args.pretty:
        headers = ["pair", "tb_rel", "r_rel", "sl_rel"]
        row = [f"({k},{j})", record["tb_rel"], record["r_rel"], record["sl_rel"]]
        print(_table([row], headers))
    else:
        _emit(record)
    return 0


def _cmd_moves(args):
    g = parse_grid_file(args.grid)
    script = parse_move_script(_read_input(args.script))
    result = apply_script(g, script)
    trace = []
    for step in result.trace:
        record = {
            "step": step.index,
            "move": None if step.move is None else step.move.text(),
            "components": [
                _classical_record(i, inv) for i, inv in enumerate(step.invariants)
            ],
            "relative": None,
            "flags": list(step.flags),
        }
        if step.relative is not None:
            record["relative"] = {
                "tb_rel": step.relative.tb_rel,
                "r_rel": step.relative.r_rel,
                "sl_rel": step.relative.sl_rel,
            }
        trace.append(record)
    if args.pretty:
        headers = ["step", "move", "per-component (tb, r)", "relative", "flags"]
        rows = []
        for rec in trace:
            comps = " ".join(f"({c['tb']},{c['r']})" for c in rec["components"])
            rel = rec["relative"]
            rel_text = "-" if rel is None else f"({rel['tb_rel']},{rel['r_rel']},{rel['sl_rel']})"
            rows.append([rec["step"], rec["move"] or "-", comps, rel_text, ",".join(rec["flags"]) or "-"])
        print(_table(rows, headers))
        print(f"final: n={result.final.n} X={list(result.final.xs)} O={list(result.final.os)}")
    else:
        _emit({"final": _grid_record(result.final), "trace": trace})
    return 0


def _parse_offsets(text, rank):
    if text is None:
        return (0,) * rank
    if text == "":
        return ()
    try:
        return tuple(_int_token(v) for v in text.split(","))
    except ValueError:
        raise _UsageError(f"offsets must be comma-separated integers, got {text!r}") from None


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
    s1 = ledger_mod.RelativeSurfaceClass(args.base, _parse_offsets(args.offset1, model.rank))
    s2 = ledger_mod.RelativeSurfaceClass(args.base, _parse_offsets(args.offset2, model.rank))
    payload = {
        "tb_diff": ledger_mod.tb_diff(model, s1, s2),
        "rot_diff": ledger_mod.rot_diff(model, s1, s2),
        "sl_diff": ledger_mod.sl_diff(model, s1, s2),
        "ambiguity": ledger_mod.ambiguity(model),
    }
    if args.pretty:
        print(_table([[k, v] for k, v in payload.items()], ["quantity", "value"]))
    else:
        _emit(payload)
    return 0


def _cmd_cross_sim(args):
    events = simulator.parse_event_script(_read_input(args.events))
    s0 = simulator.FramedPairState()
    if args.init is not None:
        parts = args.init.split(",")
        if len(parts) != 6:
            raise _UsageError("--init expects six comma-separated integers")
        try:
            s0 = simulator.FramedPairState._make(map(_int_token, parts))
        except ValueError:
            raise _UsageError("--init expects integers") from None
    rows = simulator.replay(s0, events)
    if args.pretty:
        headers = ["tw_K", "tw_J", "w_K", "w_J", "sK", "sJ", "tb_rel", "r_rel", "sl_rel"]
        print(_table([row + s0.triple for row in rows], headers))
    else:
        _write_states(rows, s0.triple)
    return 0


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
    if args.cases < 0:
        raise _UsageError(f"--cases must be non-negative, got {args.cases}")
    report = run_selftest(args.seed, args.cases)
    if args.pretty:
        rows = [
            [c["name"], c["cases"], c["failures"], "pass" if c["passed"] else "FAIL"]
            for c in report["checks"]
        ]
        print(_table(rows, ["check", "cases", "failures", "status"]))
        print(f"seed={report['seed']} cases={report['cases']} all_passed={report['all_passed']}")
    else:
        _emit(report)
    return 0 if report["all_passed"] else 1


def _build_parser():
    parser = _Parser(prog="legrid", description=__doc__)
    sub = parser.add_subparsers(dest="verb", required=True)

    inv = sub.add_parser("inv", help="classical invariants per component")
    inv.add_argument("grid")
    inv.add_argument("--component", type=_int_arg, default=None)
    inv.add_argument("--conv", default=Convention.NW_SE.value,
                     choices=[c.value for c in Convention])
    inv.add_argument("--pretty", action="store_true")
    inv.set_defaults(func=_cmd_inv)

    rel = sub.add_parser("rel", help="relative invariants of a component pair")
    rel.add_argument("grid")
    rel.add_argument("--pair", required=True, help="k,j")
    rel.add_argument("--orient", default="+", choices=["+", "-"])
    rel.add_argument("--pretty", action="store_true")
    rel.set_defaults(func=_cmd_rel)

    moves = sub.add_parser("moves", help="run a move script with a trace")
    moves.add_argument("grid")
    moves.add_argument("script")
    moves.add_argument("--pretty", action="store_true")
    moves.set_defaults(func=_cmd_moves)

    led = sub.add_parser("ledger", help="evaluate a homology-model query")
    led.add_argument("model")
    led.add_argument("--base", default="sigma")
    led.add_argument("--offset1", default=None)
    led.add_argument("--offset2", default=None)
    led.add_argument("--pretty", action="store_true")
    led.set_defaults(func=_cmd_ledger)

    sim = sub.add_parser("cross-sim", help="replay an event script")
    sim.add_argument("events")
    sim.add_argument("--init", default=None, help="tw_K,tw_J,w_K,w_J,sK,sJ")
    sim.add_argument("--pretty", action="store_true")
    sim.set_defaults(func=_cmd_cross_sim)

    selftest = sub.add_parser("selftest", help="run the deterministic property suite")
    selftest.add_argument("--seed", type=_int_arg, default=0)
    selftest.add_argument("--cases", type=_int_arg, default=200)
    selftest.add_argument("--pretty", action="store_true")
    selftest.set_defaults(func=_cmd_selftest)

    return parser


def _error_payload(kind, message, **extra):
    record = {"type": kind, "message": message}
    record.update(extra)
    return {"error": record}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as e:
        print(json.dumps(_error_payload("UsageError", str(e))), file=sys.stderr)
        return 2
    except SystemExit as e:  # argparse's help action, once the help is printed
        return e.code
    try:
        return args.func(args)
    except _UsageError as e:
        print(json.dumps(_error_payload("UsageError", str(e))), file=sys.stderr)
        return 2
    except ParseError as e:
        payload = _error_payload("ParseError", e.message, line=e.line, column=e.column)
        print(json.dumps(payload), file=sys.stderr)
        return 1
    except LegridError as e:
        print(json.dumps(_error_payload(type(e).__name__, str(e))), file=sys.stderr)
        return 1
    except OSError as e:
        print(json.dumps(_error_payload("IoError", str(e))), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
