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
from .grid import Convention, GridDiagram, _int_token, _read_input, _read_json, grid_to_json, parse_grid, reading

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


def parse_grid_file(path) -> GridDiagram:
    """Load a grid diagram from a text or JSON file."""
    return parse_grid("".join(_read_input(path)))


def _table(rows, headers, footer=""):
    """The arguments of :func:`_write_chunks` for an aligned text table.
    ``rows`` is called twice, once for the column widths and once for
    the lines, and each call gives the rows afresh, each a tuple of
    cells; a cell is written as ``str`` of it.  ``footer`` follows the
    last line."""
    widths = [len(h) for h in headers]
    for row in rows():
        widths = [max(w, len(str(c))) for w, c in zip(widths, row)]
    head = "  ".join(h.ljust(w) for h, w in zip(headers, widths)) + "\n" + "  ".join("-" * w for w in widths)
    line = "\n" + "  ".join(f"%-{w}s" for w in widths)  # each cell as str(cell).ljust(w)
    return head, rows(), line, "", footer + "\n"


def _cmd_inv(args):
    from .invariants import classical

    g = reading(parse_grid_file(args.grid), Convention(args.conv))
    indices = range(g.component_count) if args.component is None else [args.component]
    rows = []
    for i in indices:
        inv = classical(g, i)
        rows.append((i, inv.tb, inv.r, inv.sl_pos, inv.sl_neg))
    headers = ["component", "tb", "r", "sl_pos", "sl_neg"]
    records = [dict(zip(headers, row)) for row in rows]
    payload = records if args.component is None else records[0]
    return payload, lambda: _table(lambda: rows, headers)


def _cmd_rel(args):
    from .invariants import OrientationFlag, relative_invariants

    g = parse_grid_file(args.grid)
    k, j = args.pair
    flag = OrientationFlag(surface=1 if args.orient == "+" else -1)
    rel = relative_invariants(g, k, j, flag)
    headers = ["pair", "tb_rel", "r_rel", "sl_rel"]
    row = (f"({k},{j})", rel.tb_rel, rel.r_rel, rel.sl_rel)
    record = {"pair": [k, j], "tb_rel": rel.tb_rel, "r_rel": rel.r_rel, "sl_rel": rel.sl_rel}
    return record, lambda: _table(lambda: [row], headers)


# A trace step and its parts, each as json.dumps writes its record.
_STEP = '{"step": %d, "move": %s, "components": [%s], "relative": %s, "flags": %s}'
_COMPONENT = '{"component": %d, "tb": %d, "r": %d, "sl_pos": %d, "sl_neg": %d}'
_RELATIVE = '{"tb_rel": %d, "r_rel": %d, "sl_rel": %d}'


def _step_fields(step):
    """The fields of a trace step's ``_STEP`` record: its integers
    formatted, its move text and flags passed through json.dumps."""
    rel = step.relative
    return (
        step.index,
        json.dumps(None if step.move is None else step.move.text()),
        ", ".join([_COMPONENT % (c, inv.tb, inv.r, inv.sl_pos, inv.sl_neg) for c, inv in enumerate(step.invariants)]),
        "null" if rel is None else _RELATIVE % (rel.tb_rel, rel.r_rel, rel.sl_rel),
        json.dumps(step.flags),
    )


def _cmd_moves(args):
    from .moves import apply_script, parse_move_script

    g = parse_grid_file(args.grid)
    result = apply_script(g, parse_move_script(_read_input(args.script)))
    final, trace = result.final, result.trace

    def rows():
        for step in trace:
            rel = step.relative
            yield (
                step.index,
                "-" if step.move is None else step.move.text(),
                " ".join(f"({inv.tb},{inv.r})" for inv in step.invariants),
                "-" if rel is None else f"({rel.tb_rel},{rel.r_rel},{rel.sl_rel})",
                ",".join(step.flags) or "-",
            )

    head = '{"final": %s, "trace": [' % grid_to_json(final)
    headers = ["step", "move", "per-component (tb, r)", "relative", "flags"]
    footer = f"\nfinal: n={final.n} X={list(final.xs)} O={list(final.os)}"
    return (head, map(_step_fields, trace), _STEP, ", ", "]}\n"), lambda: _table(rows, headers, footer)


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
    return payload, lambda: _table(lambda: payload.items(), ["quantity", "value"])


def _cmd_cross_sim(args):
    from .simulator import FramedPairState, _parse_script, _replay

    init = FramedPairState() if args.init is None else args.init
    # the script as its distinct events and one 4-byte index per line
    events, indices = _parse_script(_read_input(args.events))
    rows, triple = _replay(init, events, indices), init.triple
    # _replay() has already checked that the triple never moves, so it
    # is formatted once
    state = (
        '{"tw_K": %d, "tw_J": %d, "w_K": %d, "w_J": %d, "sK": %d, "sJ": %d, '
        + '"tb_rel": %d, "r_rel": %d, "sl_rel": %d}' % triple
    )
    headers = ["tw_K", "tw_J", "w_K", "w_J", "sK", "sJ", "tb_rel", "r_rel", "sl_rel"]

    def table():  # replays the events again, once per pass
        return _table(lambda: (row + triple for row in _replay(init, events, indices)), headers)

    return ("[", rows, state, ", ", "]\n"), table


# about 64 KiB, the window the input is read through
_WRITE_CHUNK = 1 << 16


def _write_chunks(head, rows, template, sep, tail):
    """Write ``head``, ``template % row`` for each row of the iterator
    ``rows``, joined by ``sep``, and ``tail`` to stdout.  The rows are
    formatted and written a chunk at a time: the first alone, then each
    chunk as many as would fill about ``_WRITE_CHUNK`` characters at
    the mean length of the chunk before it."""
    write = sys.stdout.write
    write(head)
    rows = iter(rows)
    between, count = "", 1
    while chunk := list(itertools.islice(rows, count)):
        text = sep.join([template % row for row in chunk])
        write(between)
        write(text)
        between = sep
        count = max(1, _WRITE_CHUNK * len(chunk) // (len(text) + len(sep) or 1))
    write(tail)


def _cmd_selftest(args):
    from .selftest import run_selftest

    report = run_selftest(args.seed, args.cases)

    def table():
        rows = [
            (c["name"], c["cases"], c["failures"], "pass" if c["passed"] else "FAIL")
            for c in report["checks"]
        ]
        footer = f"\nseed={report['seed']} cases={report['cases']} all_passed={report['all_passed']}"
        return _table(lambda: rows, ["check", "cases", "failures", "status"], footer)

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
        # Each verb returns its JSON record and a thunk that gives its
        # table as the arguments of _write_chunks.  moves and cross-sim
        # give their JSON as such arguments too (no other record is a
        # tuple), so a long output is never held whole.  selftest exits 1
        # when a check fails.
        record, table = args.func(args)
        code = 1 if args.verb == "selftest" and not record["all_passed"] else 0
        if args.pretty:
            output = table()
        elif type(record) is tuple:
            output = record
        else:
            output = json.dumps(record), (), "", "", "\n"
        _write_chunks(*output)
        return code
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
