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

from .errors import LegridError, OracleMismatch, ParityViolation, ParseError, ScriptStepError
from .grid import _CHUNK, Convention, GridDiagram, _int_token, _read_json, parse_grid, reading

# Each verb imports its own modules when it runs, so a call loads only
# what it uses.  Names are imported from their module: ``from . import
# ledger`` would ask the package for ``ledger``, which loads every module.

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
    from .simulator import FramedPairState

    return FramedPairState._make(_ints(text, "--init expects integers"))


def _cases_arg(text):
    cases = _int_arg(text)
    if cases < 0:
        raise _UsageError(f"--cases must be non-negative, got {cases}")
    return cases


def _read_input(path):
    """The text of an input file, read as UTF-8 with universal newlines,
    in blocks of whole lines: ``grid._CHUNK`` characters are read at a
    time, and each block ends just after the last ``"\\n"`` read so far
    (the last block may end without one).  Script parsers take the
    blocks, so no whole script is held; other readers join them.

    Bytes that are not UTF-8 are a ParseError at their line and column,
    raised once every whole line before theirs has been yielded, so a
    parser that reads line by line reports the first fault in file
    order.  The file is read once, as a single stream, so a pipe works
    like a regular file.  The file is opened when the first block is
    asked for.  A path that no file can have (a NUL byte, a lone
    surrogate) is an OSError like a missing file."""
    try:
        handle = open(path, encoding="utf-8", errors="surrogateescape", newline=None)
    except ValueError as e:
        raise OSError(f"cannot open {path!r}: {e}") from None
    line = 1  # the number of the first line not yet yielded
    with handle:
        for block in _line_blocks(handle):
            if not block.isascii() and _ESCAPED.search(block):
                yield from _undecodable(block, line)
            yield block
            line += block.count("\n")


def _line_blocks(handle):
    """The text of ``handle`` in blocks that end just after their last
    ``"\\n"``, read ``grid._CHUNK`` characters at a time.  A read that
    returns fewer is the end of the file, so its text ends the last
    block, and a file shorter than ``_CHUNK`` is one read and one
    block."""
    rest = []  # the text read after the last "\n"
    while chunk := handle.read(_CHUNK):
        if len(chunk) < _CHUNK:
            break
        cut = chunk.rfind("\n") + 1
        if cut:
            yield "".join(rest) + chunk[:cut]
            rest.clear()
        rest.append(chunk[cut:])
    rest.append(chunk)  # what a short read returned, or ""
    yield "".join(rest)


# A byte that is not UTF-8, as the "surrogateescape" error handler
# decodes it; strict UTF-8 decodes no surrogate, so nothing else matches.
_ESCAPED = re.compile("[\udc80-\udcff]")


def _undecodable(block, line):
    """The whole lines of ``block`` (whose first line is number ``line``)
    before its first byte that is not UTF-8, then the ParseError at that
    byte's line and column.  The message is that of a strict decode of
    the byte's line, which fails where the stream's decode escaped it."""
    bad = _ESCAPED.search(block).start()
    start = block.rfind("\n", 0, bad) + 1
    if start:
        yield block[:start]
    end = block.find("\n", bad) + 1 or len(block)
    try:
        block[start:end].encode("utf-8", "surrogateescape").decode("utf-8")
    except UnicodeDecodeError as e:
        raise ParseError(line + block.count("\n", 0, start), bad - start + 1, f"not UTF-8: {e.reason}") from None
    raise AssertionError("an escaped byte decoded as UTF-8")


def parse_grid_file(path) -> GridDiagram:
    """Load a grid diagram from a text or JSON file."""
    return parse_grid("".join(_read_input(path)))


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
    from .invariants import classical

    g = reading(parse_grid_file(args.grid), Convention(args.conv))
    indices = range(g.component_count) if args.component is None else [args.component]
    records = [_classical_record(i, classical(g, i)) for i in indices]
    headers = ["component", "tb", "r", "sl_pos", "sl_neg"]
    payload = records if args.component is None else records[0]
    return payload, lambda: _table([[rec[h] for h in headers] for rec in records], headers)


def _cmd_rel(args):
    from .invariants import OrientationFlag, relative_invariants

    g = parse_grid_file(args.grid)
    k, j = args.pair
    flag = OrientationFlag(surface=1 if args.orient == "+" else -1)
    rel = relative_invariants(g, k, j, flag)
    headers = ["pair", "tb_rel", "r_rel", "sl_rel"]
    row = [f"({k},{j})", rel.tb_rel, rel.r_rel, rel.sl_rel]
    return {"pair": [k, j], **_relative_record(rel)}, lambda: _table([row], headers)


def _cmd_moves(args):
    from .moves import apply_script, parse_move_script

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
    integers "euler" and a boolean "tight", and no other key, read by
    the reader of JSON grid files."""
    from .ledger import ContactHomologyModel

    fields = _read_json(text, rank="an integer", euler="a list of integers", tight="true or false")
    return ContactHomologyModel(*fields)


def _cmd_ledger(args):
    from .ledger import RelativeSurfaceClass, ambiguity, rot_diff, sl_diff, tb_diff

    model = _parse_model("".join(_read_input(args.model)))
    zero = (0,) * model.rank
    s1 = RelativeSurfaceClass(zero if args.offset1 is None else args.offset1)
    s2 = RelativeSurfaceClass(zero if args.offset2 is None else args.offset2)
    payload = {
        "tb_diff": tb_diff(model, s1, s2),
        "rot_diff": rot_diff(model, s1, s2),
        "sl_diff": sl_diff(model, s1, s2),
        "ambiguity": ambiguity(model),
    }
    return payload, lambda: _table([[k, v] for k, v in payload.items()], ["quantity", "value"])


def _cmd_cross_sim(args):
    from .simulator import FramedPairState, parse_event_script, replay

    init = FramedPairState() if args.init is None else args.init
    events = parse_event_script(_read_input(args.events))
    rows, triple = replay(init, events), init.triple
    headers = ["tw_K", "tw_J", "w_K", "w_J", "sK", "sJ", "tb_rel", "r_rel", "sl_rel"]
    return (rows, triple), lambda: _table([row + triple for row in rows], headers)


# about 64 KiB of JSON, the window the input is read through
_STATE_CHUNK = 512


def _write_states(rows, triple):
    """Stream the states as the JSON list ``json.dumps`` would give for
    one nine-key record per state, in chunks of ``_STATE_CHUNK``, each
    separator written on its own.  replay() has already checked that
    the triple never moves, so it is formatted once."""
    template = (
        '{"tw_K": %d, "tw_J": %d, "w_K": %d, "w_J": %d, "sK": %d, "sJ": %d, '
        + '"tb_rel": %d, "r_rel": %d, "sl_rel": %d}' % triple
    )
    write = sys.stdout.write
    sep = "["
    while chunk := list(itertools.islice(rows, _STATE_CHUNK)):
        write(sep)
        write(", ".join([template % row for row in chunk]))
        sep = ", "
    write("]\n")


def _cmd_selftest(args):
    from .selftest import run_selftest

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
    led.add_argument("--offset1", type=_offsets_arg, default=None)
    led.add_argument("--offset2", type=_offsets_arg, default=None)
    led.set_defaults(func=_cmd_ledger)

    sim = sub.add_parser("cross-sim", help="replay an event script")
    sim.add_argument("events")
    sim.add_argument("--init", type=_init_arg, default=None,  # the zero state
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
