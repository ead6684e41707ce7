"""Output checks for each workload.

Every check works from the generated inputs, the reference checker
(``refcheck``) and properties the method must have.  None compares
against a stored copy of earlier output.  A check returns a list of
problems (empty when the output is correct) and a dict of facts about
the output that the benchmark reports (for example flagged steps).
"""

from __future__ import annotations

import json
from collections import Counter

import refcheck

SELFTEST_CHECKS = 9


def _triple_ok(rec):
    tb, r = rec["tb"], rec["r"]
    return (tb + r) % 2 == 1 and rec["sl_pos"] == tb - r and rec["sl_neg"] == tb + r


def check_inv(text, xs, os):
    problems = []
    records = json.loads(text)
    ref = refcheck.invariants(xs, os)
    got = [(rec["tb"], rec["r"]) for rec in records]
    if [rec["component"] for rec in records] != list(range(len(ref))):
        problems.append(f"inv n={len(xs)}: components {[rec['component'] for rec in records]}")
    if got != ref:
        problems.append(f"inv n={len(xs)}: (tb, r) {got} != reference {ref}")
    if not all(_triple_ok(rec) for rec in records):
        problems.append(f"inv n={len(xs)}: tb + r even or sl != tb -/+ r")
    return problems, {"components": len(records)}


def check_rel(text, xs, os):
    ref = refcheck.invariants(xs, os)
    (tb0, r0), (tb1, r1) = ref[0], ref[1]
    want = {"pair": [0, 1], "tb_rel": tb0 - tb1, "r_rel": r0 - r1,
            "sl_rel": (tb0 - r0) - (tb1 - r1)}
    got = json.loads(text)
    if got != want:
        return [f"rel n={len(xs)}: {got} != {want}"], {}
    return [], {}


def _one_entry_changed(before, after, delta):
    """True when ``after`` is ``before`` with exactly one (tb, r) entry
    shifted by ``delta``."""
    if len(before) != len(after):
        return False
    for i, (tb, r) in enumerate(before):
        moved = before[:i] + [(tb + delta[0], r + delta[1])] + before[i + 1:]
        if Counter(moved) == Counter(after):
            return True
    return False


def check_moves(text, xs, os, plan):
    out = json.loads(text)
    trace = out["trace"]
    steps = plan["steps"]
    problems = []
    if len(trace) != len(steps):
        return [f"moves: {len(trace)} trace steps, expected {len(steps)}"], {}
    fx, fo = plan["final"]
    if out["final"] != {"n": len(fx), "x": list(fx), "o": list(fo)}:
        problems.append("moves: final grid differs from the generator's replay")
    first = [(c["tb"], c["r"]) for c in trace[0]["components"]]
    last = [(c["tb"], c["r"]) for c in trace[-1]["components"]]
    if first != refcheck.invariants(xs, os):
        problems.append("moves: first grid differs from the reference checker")
    if last != refcheck.invariants(fx, fo):
        problems.append("moves: final grid invariants differ from the reference checker")
    flagged = 0
    prev = None
    for i, (rec, step) in enumerate(zip(trace, steps)):
        comps = rec["components"]
        if rec["step"] != i or not all(_triple_ok(c) for c in comps):
            problems.append(f"moves step {i}: bad index or tb + r even / sl mismatch")
        k, j = step["pair"]
        rel = rec["relative"]
        want = {"tb_rel": comps[k]["tb"] - comps[j]["tb"], "r_rel": comps[k]["r"] - comps[j]["r"],
                "sl_rel": comps[k]["sl_pos"] - comps[j]["sl_pos"]}
        if rel != want:
            problems.append(f"moves step {i}: relative {rel} != {want}")
        pairs = [(c["tb"], c["r"]) for c in comps]
        if rec["flags"]:
            flagged += 1
        if prev is not None:
            kind, delta = step["kind"], step["delta"]
            prev_pairs, prev_rel = prev
            if kind in ("translate", "commute", "stab") or (kind == "destab" and delta is None):
                if not rec["flags"] and (Counter(pairs) != Counter(prev_pairs) or rel != prev_rel):
                    problems.append(f"moves step {i} ({kind}): invariants changed")
            elif not _one_entry_changed(prev_pairs, pairs, delta):
                problems.append(f"moves step {i} ({kind}): not one entry changed by {delta}")
        prev = (pairs, rel)
    return problems, {"flagged": flagged, "steps": len(steps) - 1}


_STATE_KEYS = ["tw_K", "tw_J", "w_K", "w_J", "sK", "sJ", "tb_rel", "r_rel", "sl_rel"]


def check_cross_sim(text, init, counts):
    """Stream through the emitted states one object at a time, so the
    check itself stays small next to the program's own memory use."""
    eps = counts["cross_sum"] + counts["singular_sum"]
    ribbon = counts["ribbon"]
    tw_K, tw_J, w_K, w_J, sK, sJ = init
    final = [tw_K - eps + ribbon, tw_J - eps + ribbon, w_K - eps, w_J - eps, sK + eps, sJ + eps]
    triple = [tw_K - tw_J, w_K - w_J, sK - sJ]
    decoder = json.JSONDecoder()
    problems = []
    pos = text.index("[") + 1
    states = 0
    last = None
    while True:
        while text[pos] in " ,\n":
            pos += 1
        if text[pos] == "]":
            break
        state, pos = decoder.raw_decode(text, pos)
        if list(state) != _STATE_KEYS:
            problems.append(f"cross-sim state {states}: keys {list(state)}")
        elif [state["tb_rel"], state["r_rel"], state["sl_rel"]] != triple or \
                [state["tw_K"] - state["tw_J"], state["w_K"] - state["w_J"], state["sK"] - state["sJ"]] != triple:
            problems.append(f"cross-sim state {states}: relative triple moved")
        if len(problems) > 5:
            break
        states += 1
        last = state
    if states != counts["cross"] + counts["pattern"] + 1:
        problems.append(f"cross-sim: {states} states for {counts['cross'] + counts['pattern']} events")
    if last is not None and [last[k] for k in _STATE_KEYS[:6]] != final:
        problems.append(f"cross-sim: final state {last} != closed form {final}")
    return problems, {"states": states}


def check_selftest(text, seed, cases):
    report = json.loads(text)
    problems = []
    if not report.get("all_passed"):
        problems.append("selftest: all_passed is not true")
    if report.get("seed") != seed or report.get("cases") != cases:
        problems.append("selftest: seed or cases not echoed")
    checks = report.get("checks", [])
    names = {c.get("name") for c in checks}
    if len(checks) != SELFTEST_CHECKS or len(names) != SELFTEST_CHECKS:
        problems.append(f"selftest: {len(checks)} checks, expected {SELFTEST_CHECKS} distinct")
    for c in checks:
        if not (isinstance(c.get("cases"), int) and c["cases"] >= 1 and c.get("failures") == 0 and c.get("passed")):
            problems.append(f"selftest: check {c.get('name')} reports {c}")
    return problems, {"checks": len(checks)}
