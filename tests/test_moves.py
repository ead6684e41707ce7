import random

import pytest

from legrid import (
    BadCell,
    Commute,
    Convention,
    Destabilize,
    InterleavingSpans,
    LegendrianStab,
    MoveScript,
    ParityViolation,
    ParseError,
    ScriptStepError,
    Stabilize,
    Translate,
    apply_move,
    apply_script,
    classical,
    follow,
    linking_number,
    new_grid,
    parse_move_script,
    relative_invariants,
    tb_grid_oracle,
    to_front,
)
from legrid.moves import ISOTOPY_SUBTYPES, STAB_MINUS, STAB_PLUS, changes_cusps
from legrid.sampling import random_grid, random_link

from helpers import all_marker_lists, brute_linking, trace_components

UNKNOT = new_grid(2, [0, 1], [1, 0])
DIRECTIONS = ("up", "down", "left", "right")


class TestTranslate:
    def test_cyclic_order(self):
        g = new_grid(5, [0, 1, 2, 3, 4], [2, 3, 4, 0, 1])
        for direction in ("up", "down", "left", "right"):
            current = g
            for _ in range(g.n):
                current = apply_move(current, Translate(direction))
            assert current == g

    def test_preserves_component_count(self):
        rng = random.Random(3)
        for _ in range(100):
            g = random_grid(rng, rng.randint(2, 8))
            d = rng.choice(("up", "down", "left", "right"))
            assert len(apply_move(g, Translate(d)).components) == len(g.components)

    def test_preserves_linking_number(self):
        rng = random.Random(4)
        for _ in range(100):
            g = random_link(rng, rng.randint(4, 8))
            d = rng.choice(("up", "down", "left", "right"))
            g2 = apply_move(g, Translate(d))
            image = follow(g, Translate(d), g2)
            a, b = rng.sample(range(len(g.components)), 2)
            assert linking_number(g2, image[a], image[b]) == brute_linking(
                list(g.xs), list(g.os), a, b
            )

    def test_bad_direction(self):
        with pytest.raises(BadCell):
            apply_move(UNKNOT, Translate("sideways"))


class TestCommute:
    def test_involution(self):
        rng = random.Random(5)
        done = 0
        while done < 100:
            g = random_grid(rng, rng.randint(3, 8))
            axis = rng.choice(("row", "col"))
            i = rng.randrange(g.n - 1)
            try:
                g2 = apply_move(g, Commute(axis, i))
            except InterleavingSpans:
                continue
            done += 1
            assert apply_move(g2, Commute(axis, i)) == g

    def test_invariants_unchanged(self):
        rng = random.Random(6)
        done = 0
        while done < 500:
            g = random_grid(rng, rng.randint(3, 8))
            axis = rng.choice(("row", "col"))
            i = rng.randrange(g.n - 1)
            try:
                g2 = apply_move(g, Commute(axis, i))
            except InterleavingSpans:
                continue
            done += 1
            for old, new in enumerate(follow(g, Commute(axis, i), g2)):
                assert classical(g, old) == classical(g2, new)

    def test_interleaving_rejected(self):
        # Columns 0 and 1 of the minimal unknot occupy the same rows;
        # shared span endpoints count as interleaving.
        with pytest.raises(InterleavingSpans):
            apply_move(UNKNOT, Commute("col", 0))
        # Strictly alternating spans: column 0 sits in rows {0, 2},
        # column 1 in rows {1, 3}.
        g = new_grid(4, [0, 1, 2, 3], [2, 3, 0, 1])
        with pytest.raises(InterleavingSpans):
            apply_move(g, Commute("col", 0))

    def test_index_out_of_range(self):
        with pytest.raises(BadCell):
            apply_move(UNKNOT, Commute("col", 1))


class TestStabilize:
    def test_inverse_pair(self):
        rng = random.Random(7)
        for _ in range(200):
            g = random_grid(rng, rng.randint(2, 7))
            col = rng.randrange(g.n)
            marker = rng.choice(("X", "O"))
            subtype = rng.choice(("NE", "NW", "SE", "SW"))
            g2 = apply_move(g, Stabilize(marker, col, subtype))
            assert g2.n == g.n + 1
            assert apply_move(g2, Destabilize(col)) == g

    def test_component_count_preserved(self):
        rng = random.Random(8)
        for _ in range(100):
            g = random_grid(rng, rng.randint(2, 7))
            g2 = apply_move(
                g, Stabilize(rng.choice(("X", "O")), rng.randrange(g.n), rng.choice(("NE", "NW", "SE", "SW")))
            )
            assert len(g2.components) == len(g.components)

    def test_subtype_classification_exhaustive(self):
        # Over every marker of every grid with n <= 4: two subtypes per
        # marker kind preserve (tb, r), the others drop tb by one and
        # move r by +-1, uniformly.
        cases = [(n, xs, os) for n in (2, 3, 4) for xs, os in all_marker_lists(n)]
        for n, xs, os in cases:
            g = new_grid(n, xs, os)
            for col in range(n):
                for marker in ("X", "O"):
                    before = classical(g, g.component_by_column[col])
                    for subtype in ("NE", "NW", "SE", "SW"):
                        g2 = apply_move(g, Stabilize(marker, col, subtype))
                        cmap = Stabilize(marker, col, subtype).column_map(g)
                        after = classical(g2, g2.component_by_column[cmap(col)])
                        delta = (after.tb - before.tb, after.r - before.r)
                        if (marker, subtype) in ISOTOPY_SUBTYPES:
                            assert delta == (0, 0)
                        elif subtype == STAB_PLUS[marker]:
                            assert delta == (-1, 1)
                        else:
                            assert subtype == STAB_MINUS[marker]
                            assert delta == (-1, -1)

    def test_bad_cell(self):
        with pytest.raises(BadCell):
            apply_move(UNKNOT, Stabilize("X", 9, "NE"))
        with pytest.raises(BadCell):
            apply_move(UNKNOT, Stabilize("Y", 0, "NE"))
        with pytest.raises(BadCell):
            apply_move(UNKNOT, Stabilize("X", 0, "N"))
        with pytest.raises(BadCell):
            apply_move(UNKNOT, Destabilize(0))


class TestLegendrianStabilize:
    def test_tb_drops_and_r_moves(self):
        rng = random.Random(9)
        for sign in (1, -1):
            for _ in range(200):
                g = random_grid(rng, rng.randint(2, 8))
                c = rng.randrange(len(g.components))
                before = classical(g, c)
                g2 = apply_move(g, LegendrianStab(c, sign))
                cmap = LegendrianStab(c, sign).column_map(g)
                after = classical(g2, g2.component_by_column[cmap(min(g.component(c).columns))])
                assert after.tb == before.tb - 1
                assert after.r == before.r + sign

    def test_relative_rotation_shifts(self):
        rng = random.Random(10)
        for sign in (1, -1):
            for _ in range(100):
                g = random_link(rng, rng.randint(4, 8))
                k, j = rng.sample(range(len(g.components)), 2)
                before = relative_invariants(g, k, j)
                g2 = apply_move(g, LegendrianStab(k, sign))
                cmap = LegendrianStab(k, sign).column_map(g)
                k2 = g2.component_by_column[cmap(min(g.component(k).columns))]
                j2 = g2.component_by_column[cmap(min(g.component(j).columns))]
                after = relative_invariants(g2, k2, j2)
                assert after.r_rel == before.r_rel + sign
                assert after.tb_rel == before.tb_rel - 1

    def test_stabilizing_both_components_preserves_tb_rel(self):
        rng = random.Random(11)
        for sk in (1, -1):
            for sj in (1, -1):
                for _ in range(25):
                    g = random_link(rng, rng.randint(4, 8))
                    k, j = rng.sample(range(len(g.components)), 2)
                    before = relative_invariants(g, k, j)
                    anchor_k = min(g.component(k).columns)
                    anchor_j = min(g.component(j).columns)
                    g2 = apply_move(g, LegendrianStab(k, sk))
                    m1 = LegendrianStab(k, sk).column_map(g)
                    j2 = g2.component_by_column[m1(anchor_j)]
                    g3 = apply_move(g2, LegendrianStab(j2, sj))
                    m2 = LegendrianStab(j2, sj).column_map(g2)
                    k3 = g3.component_by_column[m2(m1(anchor_k))]
                    j3 = g3.component_by_column[m2(m1(anchor_j))]
                    after = relative_invariants(g3, k3, j3)
                    assert after.tb_rel == before.tb_rel


class TestFollow:
    def test_every_column_lands_on_the_followed_component(self):
        # Following by the lowest column gives the component that every
        # other column of the strand lands on, for every move kind.
        rng = random.Random(14)
        for _ in range(300):
            g = random_link(rng, rng.randint(4, 8))
            c = rng.randrange(g.n)
            stabilized = apply_move(g, Stabilize("X", c, rng.choice(("NE", "NW", "SE", "SW"))))
            cases = [
                (g, Translate(rng.choice(("up", "down", "left", "right")))),
                (g, Stabilize(rng.choice(("X", "O")), c, rng.choice(("NE", "NW", "SE", "SW")))),
                (g, LegendrianStab(rng.randrange(len(g.components)), rng.choice((1, -1)))),
                (stabilized, Destabilize(c)),
            ]
            commute_move = _legal_isotopy_move(rng, g)
            if isinstance(commute_move, Commute):
                cases.append((g, commute_move))
            for before, move in cases:
                moved = apply_move(before, move)
                image = follow(before, move, moved)
                assert sorted(image) == list(range(len(moved.components)))
                cmap = move.column_map(before)
                for comp in before.components:
                    owners = {moved.component_by_column[cmap(col)] for col in comp.columns}
                    assert owners == {image[comp.index]}


class TestApplyScript:
    def test_empty_script_is_identity(self):
        result = apply_script(UNKNOT, MoveScript(()))
        assert result.final == UNKNOT
        assert len(result.trace) == 1
        assert result.trace[0].move is None

    def test_isotopy_script_keeps_relative_triple(self):
        rng = random.Random(12)
        runs = 0
        while runs < 50:
            g = random_link(rng, rng.randint(4, 8))
            moves = []
            current = g
            for _ in range(6):
                move = _legal_isotopy_move(rng, current)
                if move is None:
                    break
                moves.append(move)
                current = apply_move(current, move)
            if not moves:
                continue
            runs += 1
            result = apply_script(g, MoveScript(tuple(moves)))
            triples = [
                step.relative.triple
                for step in result.trace
                if not step.flags and step.relative is not None
            ]
            assert len(set(triples)) == 1

    def test_single_positive_stabilization_shifts_trace(self):
        g = new_grid(4, [0, 1, 2, 3], [1, 0, 3, 2])
        result = apply_script(g, MoveScript((LegendrianStab(0, 1),)))
        first, last = result.trace[0].relative, result.trace[-1].relative
        assert last.tb_rel == first.tb_rel - 1
        assert last.r_rel == first.r_rel + 1

    def test_illegal_step_reports_index(self):
        script = MoveScript((Translate("up"), Commute("col", 0)))
        with pytest.raises(ScriptStepError) as exc:
            apply_script(UNKNOT, script)
        assert exc.value.index == 2

    def test_domain_error_is_wrapped_with_its_step(self):
        script = MoveScript((Translate("up"), Commute("col", 5)))
        with pytest.raises(ScriptStepError) as exc:
            apply_script(UNKNOT, script)
        assert exc.value.index == 2
        assert isinstance(exc.value.cause, BadCell)

    def test_programming_error_is_not_wrapped(self, monkeypatch):
        import legrid.moves

        bug = RuntimeError("not a domain error")

        def broken(g, move):
            raise bug

        monkeypatch.setattr(legrid.moves, "apply_move", broken)
        with pytest.raises(RuntimeError) as exc:
            apply_script(UNKNOT, MoveScript((Translate("up"),)))
        assert exc.value is bug

    def test_translate_cusp_change_is_flagged(self):
        # Found by scanning: this translate changes a cusp count but
        # not (tb, r); the step carries the cusp-change flag.
        rng = random.Random(13)
        flagged = 0
        for _ in range(200):
            g = random_grid(rng, rng.randint(3, 6))
            d = rng.choice(("up", "down", "left", "right"))
            result = apply_script(g, MoveScript((Translate(d),)))
            step = result.trace[-1]
            before = to_front(g)
            after = to_front(result.final)
            cmap = Translate(d).column_map(g)
            changed = any(
                before.cusps[comp.index]
                != after.cusps[result.final.component_by_column[cmap(min(comp.columns))]]
                for comp in g.components
            )
            assert ("cusp-change" in step.flags) == changed
            flagged += bool(changed)
        assert flagged > 0


class TestKeyedInvariants:
    """apply_script reads each component's invariants off its interned
    sub-grid; these tests hold that route to the whole-grid one."""

    def test_each_step_matches_the_whole_grid_route(self):
        rng = random.Random(21)
        for _ in range(40):
            g = random_link(rng, rng.randint(4, 14))
            moves = _legal_script(rng, g, 12)
            result = apply_script(g, MoveScript(moves))
            current = g
            for step, move in zip(result.trace, (None,) + moves):
                if move is not None:
                    current = apply_move(current, move)
                whole = tuple(classical(current, c) for c in range(len(current.components)))
                assert step.invariants == whole
            assert result.final == current

    def test_oracle_runs_once_per_distinct_pattern_per_call(self, monkeypatch):
        import legrid.invariants as inv_mod

        g = new_grid(6, [1, 4, 3, 0, 2, 5], [4, 2, 0, 3, 5, 1])
        script = MoveScript((Translate("up"),) * g.n + (Translate("left"),) * g.n)
        grids = [g]
        for move in script.moves:
            grids.append(apply_move(grids[-1], move))
        distinct = set().union(*map(_component_patterns, grids))

        calls = []

        def counting(g, c, conv=Convention.NW_SE):
            calls.append(g)
            return tb_grid_oracle(g, c, conv)

        monkeypatch.setattr(inv_mod, "tb_grid_oracle", counting)
        apply_script(g, script)
        assert len(calls) == len(distinct) < len(grids) * len(g.components)
        # The memo belongs to one call: a second call computes again.
        calls.clear()
        apply_script(g, script)
        assert len(calls) == len(distinct)

    def test_parity_error_names_the_step_and_the_component(self, monkeypatch):
        import legrid.invariants as inv_mod

        def odd_on_three(g, c, conv=Convention.NW_SE):
            # Only the stabilized unknot has a 3x3 sub-grid.
            if g.n == 3:
                raise ParityViolation(f"component {c} and its push-off cross an odd signed number of times (1)")
            return tb_grid_oracle(g, c, conv)

        monkeypatch.setattr(inv_mod, "tb_grid_oracle", odd_on_three)
        split = new_grid(4, [0, 1, 2, 3], [1, 0, 3, 2])
        with pytest.raises(ParityViolation) as exc:
            apply_script(split, MoveScript((Translate("up"), LegendrianStab(1, 1))))
        assert str(exc.value) == (
            "step 2, component 1 and its push-off cross an odd signed number of times (1)"
        )


class TestChangesCusps:
    """The one-component rule against a whole-front comparison."""

    @staticmethod
    def _flags(g):
        flags = []
        for direction in DIRECTIONS:
            move = Translate(direction)
            moved = apply_move(g, move)
            image = follow(g, move, moved)
            for conv in Convention:
                before, after = to_front(g, conv).cusps, to_front(moved, conv).cusps
                whole = any(before[c] != after[i] for c, i in enumerate(image))
                assert changes_cusps(g, move, moved, image, conv) == whole
                flags.append(whole)
        return flags

    def test_every_small_grid(self):
        flags = []
        for n in range(2, 6):
            for xs, os in all_marker_lists(n):
                flags += self._flags(new_grid(n, xs, os))
        assert 0 < sum(flags) < len(flags)

    def test_random_links(self):
        rng = random.Random(22)
        flags = []
        for _ in range(300):
            flags += self._flags(random_link(rng, rng.randint(4, 14)))
        assert 0 < sum(flags) < len(flags)


def _component_patterns(g):
    """Each component's markers, columns in order and rows ranked,
    written out apart from ``component_grid``."""
    patterns = set()
    for cols in trace_components(list(g.xs), list(g.os)):
        rows = sorted(g.xs[c] for c in cols)
        patterns.add(
            (tuple(rows.index(g.xs[c]) for c in cols), tuple(rows.index(g.os[c]) for c in cols))
        )
    return patterns


def _legal_script(rng, g, length):
    """A seeded script of ``length`` legal moves of every kind from ``g``."""
    moves = []
    current = g
    while len(moves) < length:
        kind = rng.randrange(5)
        if kind == 0:
            move = Translate(rng.choice(DIRECTIONS))
        elif kind == 1:
            move = Commute(rng.choice(("row", "col")), rng.randrange(current.n - 1))
        elif kind == 2:
            move = Stabilize(rng.choice("XO"), rng.randrange(current.n), rng.choice(("NE", "NW", "SE", "SW")))
        elif kind == 3:
            move = LegendrianStab(rng.randrange(len(current.components)), rng.choice((1, -1)))
        else:
            move = Destabilize(rng.randrange(current.n - 1))
        try:
            current = apply_move(current, move)
        except (BadCell, InterleavingSpans):
            continue
        moves.append(move)
    return tuple(moves)


def _legal_isotopy_move(rng, g):
    for _ in range(20):
        kind = rng.randrange(3)
        if kind == 0:
            move = Translate(rng.choice(("up", "down", "left", "right")))
        elif kind == 1:
            move = Commute(rng.choice(("row", "col")), rng.randrange(g.n - 1))
        else:
            marker = rng.choice(("X", "O"))
            move = Stabilize(marker, rng.randrange(g.n), rng.choice(("NE", "SW")))
        try:
            apply_move(g, move)
        except InterleavingSpans:
            continue
        return move
    return None


class TestScriptParsing:
    def test_round_trip(self):
        text = (
            "# warm-up\n"
            "translate up\n"
            "commute col 2\n"
            "stab X 1 NW\n"
            "destab 1\n"
            "lstab 0 -\n"
        )
        script = parse_move_script(text)
        assert [m.text() for m in script.moves] == [
            "translate up",
            "commute col 2",
            "stab X 1 NW",
            "destab 1",
            "lstab 0 -",
        ]

    def test_every_move_kind_round_trips(self):
        moves = [Translate(d) for d in ("up", "down", "left", "right")]
        moves += [Commute(axis, 3) for axis in ("row", "col")]
        moves += [Stabilize(m, 2, t) for m in ("X", "O") for t in ("NE", "NW", "SE", "SW")]
        moves += [Destabilize(1), Destabilize(1, 0), Destabilize(1, 4)]
        moves += [LegendrianStab(0, 1), LegendrianStab(2, -1)]
        for move in moves:
            assert parse_move_script(move.text()) == MoveScript((move,))

    def test_destab_row_is_applied(self):
        # Columns 1,2 of this grid hold an L-block at rows 0,1 only.
        g = apply_move(UNKNOT, Stabilize("X", 0, "NE"))
        assert apply_script(g, parse_move_script("destab 1 0\n")).final == UNKNOT
        with pytest.raises(ScriptStepError):
            apply_script(g, parse_move_script("destab 1 1\n"))

    def test_destab_row_must_be_an_integer(self):
        with pytest.raises(ParseError):
            parse_move_script("destab 1 two\n")
        with pytest.raises(ParseError):
            parse_move_script("destab 1 2 3\n")

    @pytest.mark.parametrize(
        "line", ["commute col 0_1", "stab X \u0661 NE", "destab 1 \u0660", "lstab 0_0 +"]
    )
    def test_integers_are_ascii_digits(self, line):
        with pytest.raises(ParseError) as exc:
            parse_move_script("translate up\n" + line + "\n")
        assert (exc.value.line, exc.value.column) == (2, 1)

    def test_error_reports_line_number(self):
        with pytest.raises(ParseError) as exc:
            parse_move_script("translate up\nwiggle 3\n")
        assert exc.value.line == 2
        with pytest.raises(ParseError) as exc:
            parse_move_script("commute col two\n")
        assert exc.value.line == 1
