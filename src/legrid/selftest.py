"""Deterministic property suite behind the ``selftest`` CLI verb.

Each check draws its own random stream from the seed and the check
name, so the report for a given (seed, cases) pair is byte-identical
across runs.  Each check runs ``cases`` cases, except three:
normalization always runs its 5, stabilization-laws runs
``max(1, cases // 2)`` per sign (twice that in all) and
simulator-replay runs ``max(1, cases // 10)``.
"""

from __future__ import annotations

import random

from .errors import InterleavingSpans, LegridError
from .grid import (
    Convention,
    _TABLES,
    grid_to_json,
    grid_to_text,
    linking_number,
    new_grid,
    parse_grid,
    reading,
    reverse_component,
    to_front,
)
from .invariants import (
    OrientationFlag,
    classical,
    relative_invariants,
    tb_front,
    tb_grid_oracle,
)
from .ledger import (
    ContactHomologyModel,
    IntersectionProfile,
    RelativeSurfaceClass,
    ambiguity,
    rot_diff,
    sl_diff,
    tb_diff,
    twist_transfer,
)
from .moves import (
    ISOTOPY_SUBTYPES,
    Commute,
    LegendrianStab,
    Stabilize,
    Translate,
    apply_move,
    changes_cusps,
    follow,
)
from .sampling import random_grid, random_link
from .simulator import CrossingEvent, FramedPairState, IntersectionPattern, cross, run_trace

__all__ = ["run_selftest", "CHECKS"]


def _record(name, cases, failures):
    """One check's entry in the report's ``"checks"``."""
    return {"name": name, "cases": cases, "failures": failures, "passed": failures == 0}


def _check_normalization(rng, cases):
    failures = 0
    unknot = new_grid(2, [0, 1], [1, 0])
    inv = classical(unknot, 0)
    if (inv.tb, inv.r) != (-1, 0):
        failures += 1
    split = new_grid(4, [0, 1, 2, 3], [1, 0, 3, 2])
    for c in (0, 1):
        inv = classical(split, c)
        if (inv.tb, inv.r) != (-1, 0):
            failures += 1
    # a global sign flip keeps every symmetry check, so one sign is pinned:
    # the positive Hopf link has lk = +1 under nw-se and -1 under ne-sw
    hopf = new_grid(4, [2, 1, 0, 3], [0, 3, 2, 1])
    for conv, lk in zip(Convention, (1, -1)):
        if linking_number(reading(hopf, conv), 0, 1) != lk:
            failures += 1
    return _record("normalization", 5, failures)


def _check_route_equality(rng, cases):
    failures = 0
    for _ in range(cases):
        g = random_grid(rng, rng.randint(2, 10))
        f = to_front(g)
        for c in range(g.component_count):
            if tb_front(f, c) != tb_grid_oracle(g, c):
                failures += 1
    return _record("route-equality", cases, failures)


def _check_grid_invariants(rng, cases):
    failures = 0
    for _ in range(cases):
        g = random_grid(rng, rng.randint(2, 9))
        # the owner table is constant along every tracing step and numbers
        # the components by their lowest column
        owner = g.component_by_column
        traced = all(owner[c] == owner[g.o_col_by_row[x]] for c, x in enumerate(g.xs))
        if not traced or list(dict.fromkeys(owner)) != list(range(g.component_count)):
            failures += 1
        f = to_front(g)
        if any(cc.total % 2 for cc in f.cusps):
            failures += 1
        if parse_grid(grid_to_text(g)) != g or parse_grid(grid_to_json(g)) != g:
            failures += 1
    return _record("grid-invariants", cases, failures)


def _check_linking(rng, cases):
    failures = 0
    for _ in range(cases):
        g = random_link(rng, rng.randint(4, 9))
        a, b = rng.sample(range(g.component_count), 2)
        lk = linking_number(g, a, b)
        if lk != linking_number(g, b, a):
            failures += 1
        if linking_number(reverse_component(g, a), a, b) != -lk:
            failures += 1
    return _record("linking-symmetry", cases, failures)


def _tables_differ(moved):
    """Whether a moved grid's tables differ from those of a fresh
    construction from its markers, which must pass every check: a move
    derives its tables as construction does but skips the checks, so
    this is the guard that every move writes valid markers."""
    try:
        fresh = new_grid(moved.n, moved.xs, moved.os)
    except LegridError:
        return True
    return any(getattr(moved, name) != getattr(fresh, name) for name in _TABLES)


def _check_stabilization_laws(rng, cases):
    failures = 0
    per_sign = max(1, cases // 2)
    for sign in (1, -1):
        for _ in range(per_sign):
            g = random_link(rng, rng.randint(4, 8))
            k, j = rng.sample(range(g.component_count), 2)
            before_k = classical(g, k)
            rel_before = relative_invariants(g, k, j)
            move = LegendrianStab(k, sign)
            g2 = apply_move(g, move)
            failures += _tables_differ(g2)
            image = follow(g, move, g2)
            k2, j2 = image[k], image[j]
            after_k = classical(g2, k2)
            if after_k.tb != before_k.tb - 1 or after_k.r != before_k.r + sign:
                failures += 1
            rel_after = relative_invariants(g2, k2, j2)
            if rel_after.r_rel != rel_before.r_rel + sign:
                failures += 1
            if rel_after.tb_rel != rel_before.tb_rel - 1:
                failures += 1
            # stabilize the reference knot as well: tb_rel recovers
            move = LegendrianStab(j2, sign)
            g3 = apply_move(g2, move)
            failures += _tables_differ(g3)
            image = follow(g2, move, g3)
            if relative_invariants(g3, image[k2], image[j2]).tb_rel != rel_before.tb_rel:
                failures += 1
    return _record("stabilization-laws", 2 * per_sign, failures)


def _random_isotopy_move(rng, g):
    """A random legal move on ``g`` and the grid it gives, or None when
    no commutation of the drawn axis is legal."""
    kind = rng.randrange(3)
    if kind == 0:
        move = Translate(rng.choice(("up", "down", "left", "right")))
    elif kind == 1:
        axis = rng.choice(("row", "col"))
        candidates = list(range(g.n - 1))
        rng.shuffle(candidates)
        for index in candidates:
            move = Commute(axis, index)
            try:
                return move, apply_move(g, move)
            except InterleavingSpans:
                continue
        return None
    else:
        marker = rng.choice(("X", "O"))
        # sorted, as a set's order follows the per-process string hash
        subtype = rng.choice(sorted(s for m, s in ISOTOPY_SUBTYPES if m == marker))
        move = Stabilize(marker, rng.randrange(g.n), subtype)
    return move, apply_move(g, move)


def _check_isotopy_invariance(rng, cases):
    failures = 0
    done = 0
    while done < cases:
        g = random_grid(rng, rng.randint(3, 8))
        drawn = _random_isotopy_move(rng, g)
        if drawn is None:
            continue
        move, moved = drawn
        failures += _tables_differ(moved)  # every drawn move, the cusp-changing ones too
        image = follow(g, move, moved)
        if changes_cusps(move, to_front(g).cusps, to_front(moved).cusps, image):
            continue  # cusp-changing translations sit outside the front-invariance test set
        done += 1
        failures += sum(classical(g, c) != classical(moved, i) for c, i in enumerate(image))
        # the pair apply_script tracks: components 0 and 1, followed through the move
        if len(image) >= 2 and relative_invariants(g, 0, 1) != relative_invariants(moved, *image[:2]):
            failures += 1
    return _record("isotopy-invariance", cases, failures)


def _check_relative_algebra(rng, cases):
    failures = 0
    for _ in range(cases):
        g = random_link(rng, rng.randint(6, 9), min_components=3)
        k, l, j = rng.sample(range(g.component_count), 3)
        kj = relative_invariants(g, k, j)
        jk = relative_invariants(g, j, k)
        if kj.triple != tuple(-v for v in jk.triple):
            failures += 1
        kl = relative_invariants(g, k, l)
        lj = relative_invariants(g, l, j)
        if kj.triple != tuple(a + b for a, b in zip(kl.triple, lj.triple)):
            failures += 1
        flipped = relative_invariants(g, k, j, OrientationFlag().flipped())
        if (flipped.tb_rel, flipped.r_rel, flipped.sl_rel) != (kj.tb_rel, -kj.r_rel, -kj.sl_rel):
            failures += 1
    return _record("relative-algebra", cases, failures)


def _random_class_pair(rng, rank):
    def offsets():
        return tuple(rng.randint(-4, 4) for _ in range(rank))

    return RelativeSurfaceClass(offsets()), RelativeSurfaceClass(offsets())


def _check_ledger(rng, cases):
    failures = 0
    for _ in range(cases):
        rank = rng.randint(0, 4)
        euler = [rng.randint(-5, 5) for _ in range(rank)]
        tight = rng.random() < 0.3
        m = ContactHomologyModel(rank, euler, tight)
        s1, s2 = _random_class_pair(rng, rank)
        if tb_diff(m, s1, s2) != 0:
            failures += 1
        value = rot_diff(m, s1, s2)
        if value != sl_diff(m, s1, s2):
            failures += 1
        expected = sum(
            e * (a - b) for e, a, b in zip(m.effective_euler, s1.offset, s2.offset)
        )
        if value != expected:
            failures += 1
        d = ambiguity(m)
        if tight and d != 0:
            failures += 1
        if value != 0 and (d == 0 or value % d != 0):
            failures += 1
        k = rng.randint(-3, 3)
        if twist_transfer(m, s1, s2, IntersectionProfile(k, k)) != (k, k):
            failures += 1
    return _record("ledger-rules", cases, failures)


def _check_simulator(rng, cases):
    failures = 0
    runs = max(1, cases // 10)
    for _ in range(runs):
        s0 = FramedPairState(*(rng.randint(-5, 5) for _ in range(6)))
        events = []
        for _ in range(rng.randint(0, 200)):
            if rng.random() < 0.7:
                events.append(CrossingEvent(rng.choice((1, -1))))
            else:
                events.append(
                    IntersectionPattern(
                        circles=rng.randint(0, 3),
                        ribbon_arcs=rng.randint(0, 3),
                        boundary_parallel_arcs=rng.randint(0, 3),
                        clasps=rng.randint(0, 3),
                        singular=rng.choice(((), (1,), (-1,))),
                    )
                )
        trace = run_trace(s0, events)
        triple = s0.triple
        if any(state.triple != triple for state in trace):
            failures += 1
        shuffled = events[:]
        rng.shuffle(shuffled)
        if run_trace(s0, shuffled)[-1] != trace[-1]:
            failures += 1
        plus = cross(s0, CrossingEvent(1))
        if cross(plus, CrossingEvent(-1)) != s0:
            failures += 1
    return _record("simulator-replay", runs, failures)


CHECKS = (
    _check_normalization,
    _check_route_equality,
    _check_grid_invariants,
    _check_linking,
    _check_stabilization_laws,
    _check_isotopy_invariance,
    _check_relative_algebra,
    _check_ledger,
    _check_simulator,
)


def run_selftest(seed: int, cases: int) -> dict:
    """Run every check and return the JSON-ready report."""
    records = [check(random.Random(f"{seed}:{check.__name__}"), cases) for check in CHECKS]
    return {
        "suite": "legrid-selftest",
        "seed": seed,
        "cases": cases,
        "checks": records,
        "all_passed": all(r["passed"] for r in records),
    }
