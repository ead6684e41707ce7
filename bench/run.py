"""legrid benchmark: CLI verbs called in-process, one caller, closed loop.

    python3 bench/run.py --workload inv-ladder --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --all --seed 1 --seconds 20

Each operation is one CLI verb run through ``legrid.cli.main`` with its
stdout captured; the next starts when the previous one returns.  A run
generates its inputs from ``--seed`` and repeats whole rounds of every
operation until ``--seconds`` have passed.  The first output of each
operation is checked, outside the timed region, against the reference
checker and the method's properties; every later output must be
byte-identical to it.  With ``--trace 1`` the timed rounds are followed
by as many traced rounds, and the per-layer metrics come from those.

The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Results and spans are also
written under ``bench/out/``.  See bench/README.md for the workloads,
the metrics and the layer-to-metric map.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
WORKLOADS = ("inv-ladder", "move-trace", "cross-sim", "selftest")
SETUP_SPAWNS = 11
# calibrate() takes CAL_REF_S on the reference machine (see README); times
# are reported scaled by CAL_REF_S / the calibration taken next to them,
# and a calibration is taken whenever CAL_EVERY_S of calls have passed.
CAL_REF_S = 0.025
CAL_EVERY_S = 0.25

END_TO_END = (("setup_s", "s"), ("peak_rss_mb", "MB"), ("call_ms", "ms"), ("work_per_s", "1/s"))
SELFTEST_CHECK_NAMES = (
    "normalization", "route_equality", "grid_invariants", "linking", "stabilization_laws",
    "isotopy_invariance", "relative_algebra", "ledger", "simulator",
)
PER_LAYER = (
    ("grid.to_front.calls", "count"), ("grid.to_front.s", "s"),
    ("grid.crossings", "count"), ("grid.cusps", "count"),
    ("grid.parse_grid.s", "s"), ("grid.new_grid.calls", "count"), ("grid.new_grid.s", "s"),
    ("invariants.classical.calls", "count"), ("invariants.classical.self_s", "s"),
    ("invariants.relative_invariants.calls", "count"), ("invariants.relative_invariants.self_s", "s"),
    ("invariants.tb_grid_oracle.calls", "count"), ("invariants.tb_grid_oracle.s", "s"),
    ("invariants.tb_grid_oracle.segment_pairs", "count"),
    ("moves.parse_move_script.s", "s"), ("moves.apply_move.calls", "count"), ("moves.apply_move.s", "s"),
    ("moves.apply_script.self_s", "s"), ("moves.flagged_steps", "count"),
    ("simulator.parse_event_script.s", "s"), ("simulator.run_trace.self_s", "s"),
    ("simulator.cross.calls", "count"), ("simulator.resolve_pattern.calls", "count"),
    ("simulator.resolve_pattern.s", "s"),
    ("cli.main.self_s", "s"), ("cli.stdout_bytes", "bytes"),
) + tuple((f"selftest.check.{name}.s", "s") for name in SELFTEST_CHECK_NAMES) + (
    ("trace.overhead_pct", "%"),
)


def fail(message):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


# -- workloads ---------------------------------------------------------------

class Op:
    """One CLI verb call: its argv, the check of its output, and its role
    in the end-to-end metrics (``headline`` ops give ``call_ms``, ``rate``
    ops give ``work_per_s`` with ``units`` of work each)."""

    def __init__(self, label, argv, check, headline=False, rate=False, units=0):
        self.label, self.argv, self.check = label, argv, check
        self.headline, self.rate, self.units = headline, rate, units


def build_ops(workload, seed, work):
    import checks
    import gen

    def put(name, text):
        path = os.path.join(work, name)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        return path

    ops = []
    if workload == "inv-ladder":
        smallest, largest = gen.LADDER[0][0], gen.LADDER[-1][0]
        for i, (n, k, xs, os_) in enumerate(gen.inv_ladder(seed)):
            path = put(f"ladder-{i}.grid", gen.grid_text(xs, os_))
            ops.append(Op(f"inv.n{n}", ["inv", path], lambda t, xs=xs, os_=os_: checks.check_inv(t, xs, os_),
                          headline=n == largest, rate=n == smallest, units=k))
            if n == largest:
                ops.append(Op(f"rel.n{n}", ["rel", path, "--pair", "0,1"],
                              lambda t, xs=xs, os_=os_: checks.check_rel(t, xs, os_)))
    elif workload == "move-trace":
        for i, (xs, os_, text, plan) in enumerate(gen.move_trace(seed)):
            grid = put(f"moves-{i}.grid", gen.grid_text(xs, os_))
            script = put(f"moves-{i}.script", text)
            ops.append(Op("moves", ["moves", grid, script],
                          lambda t, xs=xs, os_=os_, plan=plan: checks.check_moves(t, xs, os_, plan),
                          headline=True, rate=True, units=len(plan["steps"]) - 1))
    elif workload == "cross-sim":
        init, text, counts = gen.cross_sim(seed)
        events = put("cross-sim.events", text)
        # "--init=" form: argparse reads a separate "-5,..." as an option
        ops.append(Op("cross-sim", ["cross-sim", events, "--init=" + ",".join(map(str, init))],
                      lambda t: checks.check_cross_sim(t, init, counts),
                      headline=True, rate=True, units=counts["cross"] + counts["pattern"]))
    else:
        sseed, cases = gen.selftest(seed)
        for _ in range(2):  # two identical runs per round: output must be byte-identical
            ops.append(Op("selftest", ["selftest", "--seed", str(sseed), "--cases", str(cases)],
                          lambda t: checks.check_selftest(t, sseed, cases),
                          headline=True, rate=True, units=cases))
    return ops


# -- measurement -------------------------------------------------------------

def calibrate():
    """Time a fixed pure-Python loop of dict, tuple and integer work, like
    the program's, that keeps no memory.  The host's speed drifts by up
    to a factor of two within minutes; dividing each timing by a
    calibration taken next to it removes that drift from the figures."""
    start = time.perf_counter()
    table, acc = {}, 0
    for i in range(150000):
        key = (i * 7919) & 255
        table[key] = (i, key)
        acc += table[key][0] - key
    return time.perf_counter() - start


def measure_setup():
    """Median time for a fresh interpreter to import legrid.cli (the
    first spawn, which may compile bytecode, is discarded)."""
    code = "import time; t = time.perf_counter(); import legrid.cli; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=SRC)
    raw, scaled = [], []
    cal = calibrate()
    for i in range(SETUP_SPAWNS + 1):
        done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=60, check=True)
        cal_before, cal = cal, calibrate()
        if i:
            raw.append(float(done.stdout))
            scaled.append(raw[-1] * CAL_REF_S * 2 / (cal_before + cal))
    return statistics.median(scaled), statistics.median(raw)


def measure_peak_rss(argv):
    """Peak resident memory, in MB, of a fresh interpreter that runs one
    verb call with its stdout discarded; None if the call fails.

    A small launcher process starts that interpreter and reads its
    rusage.  Started straight from here, the child's ru_maxrss would
    include this process's own peak, which Linux carries over into a
    vforked child's exec."""
    verb = "import sys; from legrid.cli import main; sys.exit(main(sys.argv[1:]))"
    launcher = ("import os, subprocess, sys; "
                "p = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL); "
                "_, status, usage = os.wait4(p.pid, 0); "
                "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)")
    done = subprocess.run([sys.executable, "-c", launcher, sys.executable, "-c", verb, *argv], cwd=ROOT,
                          env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True, timeout=170)
    rc, maxrss_kb = (int(v) for v in done.stdout.split())
    return maxrss_kb / 1024 if rc == 0 else None


class Runner:
    def __init__(self, ops, main):
        self.ops, self.main = ops, main
        self.attempted = self.failed = 0
        self.problems = []
        self.failures = []
        self.first = {}  # op index -> checked output text
        self.facts = {}  # op index -> facts from its check

    def call(self, i, main):
        op = self.ops[i]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                rc = main(op.argv)
            except Exception as e:  # an escaped exception is a failed operation
                rc = f"{type(e).__name__}: {e}"
            elapsed = time.perf_counter() - start
        self.attempted += 1
        if rc != 0:
            self.failed += 1
            self.failures.append(f"{op.argv[0]}: rc={rc} {err.getvalue().strip()[:200]}")
            return None, None
        text = out.getvalue()
        if i not in self.first:
            problems, facts = op.check(text)
            self.problems += problems
            self.first[i], self.facts[i] = text, facts
        elif text != self.first[i]:
            self.problems.append(f"{op.argv[0]}: output differs between calls on the same input")
        return elapsed, text

    def rounds(self, seconds, main=None, after_call=None):
        """Run whole rounds until ``seconds`` have passed; return per-op
        lists of (seconds, calibration) and the number of rounds.  The
        calibration of a call is the mean of the calibrations bracketing
        it; one is taken whenever CAL_EVERY_S of calls have passed."""
        main = main or self.main
        samples = [[] for _ in self.ops]
        pending = []
        deadline = time.perf_counter() + seconds
        count = 0
        cal = calibrate()
        since = time.perf_counter()
        while True:
            count += 1
            for i in range(len(self.ops)):
                elapsed, text = self.call(i, main)
                if elapsed is not None:
                    pending.append((i, elapsed))
                if after_call is not None:
                    after_call(i, text)
                done = i + 1 == len(self.ops) and time.perf_counter() >= deadline
                if done or time.perf_counter() - since >= CAL_EVERY_S:
                    cal_before, cal = cal, calibrate()
                    since = time.perf_counter()
                    for j, t in pending:
                        samples[j].append((t, (cal_before + cal) / 2))
                    pending.clear()
                if done:
                    return samples, count


def summarize(ops, samples, scaled=True):
    """End-to-end figures from per-op medians of the scaled (or raw) times."""
    med = [statistics.median(t * CAL_REF_S / cal if scaled else t for t, cal in s) if s else None
           for s in samples]
    head = [m for op, m in zip(ops, med) if op.headline and m is not None]
    rate = [(op.units, m) for op, m in zip(ops, med) if op.rate and m is not None]
    by_label = {}
    for op, m, s in zip(ops, med, samples):
        if m is not None:
            row = by_label.setdefault(op.label, [0.0, 0, 0])
            row[0] += m
            row[1] += 1
            row[2] += len(s)
    return {
        "total_s": sum(m for m in med if m is not None),
        "call_ms": 1000 * statistics.fmean(head) if head else None,
        "work_per_s": sum(u for u, _ in rate) / sum(m for _, m in rate) if rate else None,
        "samples": sum(len(s) for op, s in zip(ops, samples) if op.headline),
        "by_label": {k: (1000 * v[0] / v[1], v[2]) for k, v in by_label.items()},
    }


def named_metrics(workload, summary):
    """This workload's figures under their per-verb names (for the --all table)."""
    ms = summary["by_label"]
    if workload == "inv-ladder":
        return {f"{'inv_ms' if k.startswith('inv') else 'rel_ms'}.{k.split('.')[1]}": [v, "ms", n]
                for k, (v, n) in sorted(ms.items(), key=lambda kv: int(kv[0].split(".n")[1]))}
    if workload == "move-trace":
        return {"moves_steps_per_s": [summary["work_per_s"], "steps/s", summary["samples"]]}
    if workload == "cross-sim":
        return {"sim_events_per_s": [summary["work_per_s"], "events/s", summary["samples"]]}
    return {"selftest_s": [summary["call_ms"] / 1000, "s", summary["samples"]]}


def layer_metrics(tracer_totals, grid_calls, ncalls, stdout_bytes, flagged, overhead):
    import refcheck

    fronts, comps = {}, {}
    crossings = cusps = pairs = 0
    for name, args in grid_calls:
        try:  # work sizes need the grid's marker lists; skip calls without them
            key = (tuple(args[0].xs), tuple(args[0].os))
            c = args[1] if name != "grid.to_front" else None
        except (IndexError, AttributeError, TypeError):
            continue
        if name == "grid.to_front":
            if key not in fronts:
                fronts[key] = refcheck.front_counts(*key)[3:]
            crossings += fronts[key][0]
            cusps += fronts[key][1]
        else:
            if key not in comps:
                comps[key] = refcheck.components(*key)[0]
            pairs += 2 * len(comps[key][c]) ** 2

    def total(name, field):
        row = tracer_totals.get(name)
        return 0 if row is None else row[field] / ncalls

    values = {"grid.crossings": crossings / ncalls, "grid.cusps": cusps / ncalls,
              "invariants.tb_grid_oracle.segment_pairs": pairs / ncalls,
              "moves.flagged_steps": flagged, "cli.stdout_bytes": stdout_bytes / ncalls,
              "trace.overhead_pct": overhead}
    for name, _ in PER_LAYER:
        if name in values:
            continue
        span, _, field = name.rpartition(".")
        values[name] = total(span, {"calls": 0, "s": 1, "self_s": 2}[field])
    return values


def run_workload(args):
    sys.path.insert(0, BENCH_DIR)
    sys.path.insert(0, SRC)
    import legrid.cli
    import refcheck
    import tracer as tracing

    if not os.path.abspath(legrid.cli.__file__).startswith(SRC + os.sep):
        fail(f"imported legrid from {legrid.cli.__file__}, not from {SRC}")
    problems = [f"reference checker: {p}" for p in refcheck.self_check()]

    work = os.path.join(BENCH_DIR, ".work", f"{args.workload}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        ops = build_ops(args.workload, args.seed, work)
        runner = Runner(ops, legrid.cli.main)
        setup = None if args.trace else measure_setup()
        samples, nrounds = runner.rounds(args.seconds)
        summary = summarize(ops, samples)
        result = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
                  "rounds": nrounds, "ops_per_round": len(ops)}
        if args.trace:
            tr = tracing.Tracer()
            totals, kept, grid_calls = {}, [], []
            traced_main = tr.wrap("cli.main", legrid.cli.main)
            stdout_bytes = ncalls = 0
            fronts_by_label = {}  # label -> [verb calls, to_front calls]

            def after_call(i, text):
                nonlocal stdout_bytes, ncalls
                spans, grids = tr.take()
                tracing.fold(spans, totals)
                row = fronts_by_label.setdefault(ops[i].label, [0, 0])
                row[0] += 1
                row[1] += sum(1 for span in spans if span[0] == "grid.to_front")
                grid_calls.extend(grids)
                if ncalls < len(ops):
                    kept.extend([ncalls, *span] for span in spans)
                ncalls += 1
                stdout_bytes += len(text or "")

            tr.install()
            try:
                tsamples, trounds = runner.rounds(args.seconds, traced_main, after_call)
            finally:
                tr.restore()
            tsummary = summarize(ops, tsamples)
            flagged = statistics.fmean(f.get("flagged", 0) for f in runner.facts.values())
            values = layer_metrics(totals, grid_calls, ncalls, stdout_bytes, flagged,
                                   100 * (tsummary["total_s"] / summary["total_s"] - 1))
            metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
            per_call = {f"grid.to_front per {label} call": fronts / n
                        for label, (n, fronts) in fronts_by_label.items()}
            if args.workload == "move-trace":
                steps = sum(op.units + 1 for op in ops)
                per_call["grid.to_front per trace step"] = fronts_by_label["moves"][1] / (trounds * steps)
            if args.workload == "selftest":  # a renamed or removed check is an absent layer
                tr.absent += [f"selftest.check.{name}" for name in SELFTEST_CHECK_NAMES
                              if f"selftest.check.{name}" not in totals]
            result.update(traced_rounds=trounds, absent=tr.absent, untraced=summary, traced=tsummary,
                          per_call=per_call)
            os.makedirs(OUT_DIR, exist_ok=True)
            with open(os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl"), "w") as handle:
                handle.write("# verb call index, span name, start, end, parent span index (first traced round)\n")
                handle.writelines(json.dumps(span) + "\n" for span in kept)
        else:
            largest = [op for op in ops if op.headline][-1]
            values = {"setup_s": setup[0], "peak_rss_mb": measure_peak_rss(largest.argv),
                      "call_ms": summary["call_ms"], "work_per_s": summary["work_per_s"]}
            metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
            result.update(summary=summary, named=named_metrics(args.workload, summary),
                          raw={"setup_s": setup[1], **summarize(ops, samples, scaled=False)})
    finally:
        shutil.rmtree(work, ignore_errors=True)

    problems += runner.problems
    correct = not problems and all(m["value"] is not None for m in metrics.values())
    result.update(correct=correct, attempted=runner.attempted, failed=runner.failed, problems=problems,
                  failures=runner.failures, metrics=metrics)
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as handle:
        json.dump(result, handle, indent=1)

    print(f"{args.workload} seed={args.seed}: {len(ops)} ops/round, {nrounds} timed rounds"
          f"{', then ' + str(result['traced_rounds']) + ' traced' if args.trace else ''},"
          f" {runner.attempted} attempted, {runner.failed} failed")
    for p in (problems + runner.failures)[:10]:
        print(f"  problem: {p}")
    for name, m in metrics.items():
        print(f"  {name:44s} {m['value']!s:>24} {m['unit']}")
    for name, (value, unit, n) in result.get("named", {}).items():
        print(f"  [{name}] {value} {unit} (median per input, {n} samples)")
    for name, value in result.get("per_call", {}).items():
        print(f"  [{name}] {value:.4g}")
    if args.trace and tr.absent:
        print(f"  absent layers: {', '.join(tr.absent)}")
    print(json.dumps({"correct": correct, "attempted": runner.attempted, "failed": runner.failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def run_all(args):
    """Run every workload in its own process (so peak RSS is per workload)
    and print every end-to-end figure with its unit."""
    rc = 0
    rows = []
    for workload in WORKLOADS:
        done = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", workload,
                               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
                              cwd=ROOT, capture_output=True, text=True, timeout=600)
        rc = rc or done.returncode
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        path = os.path.join(OUT_DIR, f"{workload}-seed{args.seed}-trace{args.trace}.json")
        if done.returncode not in (0, 1) or not os.path.exists(path):
            rows.append(f"{workload:11s} did not finish (exit {done.returncode})")
            continue
        with open(path) as handle:
            result = json.load(handle)
        rows.append(f"{workload:11s} attempted={result['attempted']} failed={result['failed']}"
                    f" correct={str(result['correct']).lower()}")
        for name, m in result["metrics"].items():
            rows.append(f"  {name:44s} {m['value']} {m['unit']}")
        for name, (value, unit, n) in result.get("named", {}).items():
            rows.append(f"  {name:44s} {value} {unit} ({n} samples)")
    print("\n".join(["", "== all workloads =="] + rows))
    return rc


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true", help="run every workload, one process each")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if sys.flags.optimize:
        fail("refusing to run under python -O: it strips the program's own invariant asserts")
    if not os.path.isfile(os.path.join(SRC, "legrid", "__init__.py")):
        fail(f"no legrid sources under {SRC}; run from a checkout of the repository")
    if args.all:
        return run_all(args)
    if args.workload is None:
        parser.error("--workload or --all is required")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
