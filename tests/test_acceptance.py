"""Acceptance suite: one test per criterion, each printing a pass/fail
line.  Run with ``pytest tests/test_acceptance.py -v -s``.

The suite is property-based and fully deterministic: every randomized
criterion draws from its own fixed seed.  Criteria 1 (its random half)
to 5 run the ``selftest`` check registry, the one implementation of
those properties, with seeds and case counts of their own.
"""

import json
import math
import os
import random
import subprocess
import sys
import time
from itertools import product

from legrid import (
    ContactHomologyModel,
    CrossingEvent,
    FramedPairState,
    IntersectionPattern,
    IntersectionProfile,
    RelativeSurfaceClass,
    ambiguity,
    cross,
    new_grid,
    rot_diff,
    run_trace,
    sl_diff,
    tb_diff,
    tb_front,
    tb_grid_oracle,
    to_front,
    twist_transfer,
)
from legrid.selftest import CHECKS

from helpers import all_marker_lists

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")
CHECKS_BY_NAME = {check.__name__.removeprefix("_check_"): check for check in CHECKS}


def _report(number, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] criterion {number}: {label}{suffix}")
    assert ok, f"criterion {number} failed: {label} {suffix}"


def _registry(name, seed, cases):
    """Run one selftest check on ``random.Random(seed)``."""
    return CHECKS_BY_NAME[name](random.Random(seed), cases)


def test_criterion_1_route_equality():
    start = time.monotonic()
    mismatches = 0
    checked = 0
    for n in (2, 3, 4, 5):
        for xs, os_ in all_marker_lists(n):
            g = new_grid(n, xs, os_)
            f = to_front(g)
            for c in range(g.component_count):
                checked += 1
                if tb_front(f, c) != tb_grid_oracle(g, c):
                    mismatches += 1
    result = _registry("route_equality", 1, 1000)
    elapsed = time.monotonic() - start
    ok = mismatches == 0 and (result["cases"], result["failures"]) == (1000, 0) and elapsed < 120.0
    _report(1, "tb routes agree exhaustively (n<=5) and on 1000 random grids (n<=10)", ok,
            f"{checked} exhaustive checks, {mismatches} mismatches, "
            f"{result['failures']} random failures, {elapsed:.1f}s")


def test_criterion_2_normalization():
    result = _registry("normalization", 2, 0)
    _report(2, "2x2 unknot and both split 4x4 components give (tb, r) = (-1, 0);"
               " the positive Hopf grid has lk = +1 under nw-se and -1 under ne-sw",
            (result["cases"], result["failures"]) == (5, 0), f"{result['failures']} failures")


def test_criterion_3_stabilization_laws():
    result = _registry("stabilization_laws", 3, 400)
    _report(3, "stabilization laws exact on 200 seeded diagrams per sign",
            (result["cases"], result["failures"]) == (400, 0), f"{result['failures']} failures")


def test_criterion_4_isotopy_invariance():
    result = _registry("isotopy_invariance", 4, 500)
    _report(4, "500 random legal isotopy moves preserve (tb, r, sl) and the relative triple",
            (result["cases"], result["failures"]) == (500, 0), f"{result['failures']} failures")


def test_criterion_5_relative_algebra():
    result = _registry("relative_algebra", 5, 200)
    _report(5, "antisymmetry, additivity and orientation flips exact on 200 diagrams",
            (result["cases"], result["failures"]) == (200, 0), f"{result['failures']} failures")


def test_criterion_6_ledger():
    rng = random.Random(6)
    failures = 0
    for _ in range(1000):
        rank = rng.randint(0, 4)
        m = ContactHomologyModel(rank, [rng.randint(-5, 5) for _ in range(rank)], rng.random() < 0.3)
        off1 = tuple(rng.randint(-4, 4) for _ in range(rank))
        off2 = tuple(rng.randint(-4, 4) for _ in range(rank))
        s1, s2 = RelativeSurfaceClass(off1), RelativeSurfaceClass(off2)
        if tb_diff(m, s1, s2) != 0:
            failures += 1
        value = rot_diff(m, s1, s2)
        # generator-by-generator summation oracle
        walked = 0
        current = list(off2)
        for i in range(rank):
            step = list(current)
            step[i] = off1[i]
            walked += m.effective_euler[i] * (off1[i] - current[i])
            current = step
        if value != walked or sl_diff(m, s1, s2) != value:
            failures += 1
        if m.tight and (value != 0 or ambiguity(m) != 0):
            failures += 1
        k = rng.randint(-3, 3)
        if twist_transfer(m, s1, s2, IntersectionProfile(k, k)) != (k, k):
            failures += 1
    # gcd versus brute-force enumeration over the offset box, rank <= 3
    for rank in (0, 1, 2, 3):
        for _ in range(30):
            m = ContactHomologyModel(rank, [rng.randint(-6, 6) for _ in range(rank)], False)
            values = {
                sum(e * v for e, v in zip(m.effective_euler, vec))
                for vec in product(range(-3, 4), repeat=rank)
            }
            d = ambiguity(m)
            if any(v % d if d else v for v in values):
                failures += 1
            if math.gcd(*values) != d:
                failures += 1
    _report(6, "ledger: tb_diff = 0, Euler differences match the summation oracle, "
               "ambiguity equals the brute-force gcd",
            failures == 0, f"{failures} failures")


def test_criterion_7_crossing_simulator():
    rng = random.Random(7)
    failures = 0
    for _ in range(1000):
        s0 = FramedPairState(*(rng.randint(-5, 5) for _ in range(6)))
        length = rng.randint(0, 1000)
        events = []
        for _ in range(length):
            if rng.random() < 0.7:
                events.append(CrossingEvent(rng.choice((1, -1))))
            else:
                events.append(
                    IntersectionPattern(
                        circles=rng.randint(0, 2),
                        ribbon_arcs=rng.randint(0, 2),
                        boundary_parallel_arcs=rng.randint(0, 2),
                        clasps=rng.randint(0, 2),
                        singular=rng.choice(((), (1,), (-1,))),
                    )
                )
        trace = run_trace(s0, events)
        if any(state.triple != s0.triple for state in trace):
            failures += 1
        shuffled = events[:]
        rng.shuffle(shuffled)
        if run_trace(s0, shuffled)[-1] != trace[-1]:
            failures += 1
        if cross(cross(s0, CrossingEvent(1)), CrossingEvent(-1)) != s0:
            failures += 1
        if cross(cross(s0, CrossingEvent(-1)), CrossingEvent(1)) != s0:
            failures += 1
    # non-vacuousness: one +1 event moves every field
    s0 = FramedPairState()
    s1 = cross(s0, CrossingEvent(1))
    if not all(
        getattr(s1, f) != getattr(s0, f)
        for f in ("tw_K", "tw_J", "w_K", "w_J", "sK", "sJ")
    ):
        failures += 1
    _report(7, "1000 random event traces keep the relative triple constant; "
               "crossings invert and commute; a single event moves every field",
            failures == 0, f"{failures} failures")


def test_criterion_8_selftest_determinism():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    outputs = []
    for _ in range(2):
        proc = subprocess.run(
            [sys.executable, "-m", "legrid", "selftest", "--seed", "7", "--cases", "500"],
            capture_output=True,
            env=env,
        )
        outputs.append(proc)
    ok = (
        outputs[0].returncode == 0
        and outputs[1].returncode == 0
        and outputs[0].stdout == outputs[1].stdout
        and json.loads(outputs[0].stdout)["all_passed"] is True
    )
    _report(8, "selftest --seed 7 --cases 500 emits byte-identical passing reports",
            ok, f"{len(outputs[0].stdout)} bytes")
