import random

import pytest

from legrid import (
    BadCell,
    Commute,
    Destabilize,
    InterleavingSpans,
    LegendrianStab,
    MoveScript,
    ParseError,
    ScriptStepError,
    Stabilize,
    Translate,
    apply_move,
    apply_script,
    classical,
    column_map,
    commute,
    destabilize_grid,
    follow,
    legendrian_stabilize,
    linking_number,
    move_to_text,
    new_grid,
    parse_move_script,
    relative_invariants,
    stabilize_grid,
    to_front,
    translate,
)
from legrid.moves import ISOTOPY_SUBTYPES, STAB_MINUS, STAB_PLUS
from legrid.sampling import random_grid, random_link

from helpers import all_marker_lists, brute_linking

UNKNOT = new_grid(2, [0, 1], [1, 0])


class TestTranslate:
    def test_cyclic_order(self):
        g = new_grid(5, [0, 1, 2, 3, 4], [2, 3, 4, 0, 1])
        for direction in ("up", "down", "left", "right"):
            current = g
            for _ in range(g.n):
                current = translate(current, direction)
            assert current == g

    def test_preserves_component_count(self):
        rng = random.Random(3)
        for _ in range(100):
            g = random_grid(rng, rng.randint(2, 8))
            d = rng.choice(("up", "down", "left", "right"))
            assert len(translate(g, d).components) == len(g.components)

    def test_preserves_linking_number(self):
        rng = random.Random(4)
        for _ in range(100):
            g = random_link(rng, rng.randint(4, 8))
            d = rng.choice(("up", "down", "left", "right"))
            g2 = translate(g, d)
            image = follow(g, Translate(d), g2)
            a, b = rng.sample(range(len(g.components)), 2)
            assert linking_number(g2, image[a], image[b]) == brute_linking(
                list(g.xs), list(g.os), a, b
            )

    def test_bad_direction(self):
        with pytest.raises(BadCell):
            translate(UNKNOT, "sideways")


class TestCommute:
    def test_involution(self):
        rng = random.Random(5)
        done = 0
        while done < 100:
            g = random_grid(rng, rng.randint(3, 8))
            axis = rng.choice(("row", "col"))
            i = rng.randrange(g.n - 1)
            try:
                g2 = commute(g, i, axis)
            except InterleavingSpans:
                continue
            done += 1
            assert commute(g2, i, axis) == g

    def test_invariants_unchanged(self):
        rng = random.Random(6)
        done = 0
        while done < 500:
            g = random_grid(rng, rng.randint(3, 8))
            axis = rng.choice(("row", "col"))
            i = rng.randrange(g.n - 1)
            try:
                g2 = commute(g, i, axis)
            except InterleavingSpans:
                continue
            done += 1
            for old, new in enumerate(follow(g, Commute(axis, i), g2)):
                assert classical(g, old) == classical(g2, new)

    def test_interleaving_rejected(self):
        # Columns 0 and 1 of the minimal unknot occupy the same rows;
        # shared span endpoints count as interleaving.
        with pytest.raises(InterleavingSpans):
            commute(UNKNOT, 0, "col")
        # Strictly alternating spans: column 0 sits in rows {0, 2},
        # column 1 in rows {1, 3}.
        g = new_grid(4, [0, 1, 2, 3], [2, 3, 0, 1])
        with pytest.raises(InterleavingSpans):
            commute(g, 0, "col")

    def test_index_out_of_range(self):
        with pytest.raises(BadCell):
            commute(UNKNOT, 1, "col")


class TestStabilize:
    def test_inverse_pair(self):
        rng = random.Random(7)
        for _ in range(200):
            g = random_grid(rng, rng.randint(2, 7))
            col = rng.randrange(g.n)
            marker = rng.choice(("X", "O"))
            subtype = rng.choice(("NE", "NW", "SE", "SW"))
            g2 = stabilize_grid(g, marker, col, subtype)
            assert g2.n == g.n + 1
            assert destabilize_grid(g2, col) == g

    def test_component_count_preserved(self):
        rng = random.Random(8)
        for _ in range(100):
            g = random_grid(rng, rng.randint(2, 7))
            g2 = stabilize_grid(
                g, rng.choice(("X", "O")), rng.randrange(g.n), rng.choice(("NE", "NW", "SE", "SW"))
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
                        g2 = stabilize_grid(g, marker, col, subtype)
                        cmap = column_map(g, Stabilize(marker, col, subtype))
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
            stabilize_grid(UNKNOT, "X", 9, "NE")
        with pytest.raises(BadCell):
            stabilize_grid(UNKNOT, "Y", 0, "NE")
        with pytest.raises(BadCell):
            stabilize_grid(UNKNOT, "X", 0, "N")
        with pytest.raises(BadCell):
            destabilize_grid(UNKNOT, 0)


class TestLegendrianStabilize:
    def test_tb_drops_and_r_moves(self):
        rng = random.Random(9)
        for sign in (1, -1):
            for _ in range(200):
                g = random_grid(rng, rng.randint(2, 8))
                c = rng.randrange(len(g.components))
                before = classical(g, c)
                g2 = legendrian_stabilize(g, c, sign)
                cmap = column_map(g, LegendrianStab(c, sign))
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
                g2 = legendrian_stabilize(g, k, sign)
                cmap = column_map(g, LegendrianStab(k, sign))
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
                    g2 = legendrian_stabilize(g, k, sk)
                    m1 = column_map(g, LegendrianStab(k, sk))
                    j2 = g2.component_by_column[m1(anchor_j)]
                    g3 = legendrian_stabilize(g2, j2, sj)
                    m2 = column_map(g2, LegendrianStab(j2, sj))
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
            stabilized = stabilize_grid(g, "X", c, rng.choice(("NE", "NW", "SE", "SW")))
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
                cmap = column_map(before, move)
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
            cmap = column_map(g, Translate(d))
            changed = any(
                before.cusps[comp.index]
                != after.cusps[result.final.component_by_column[cmap(min(comp.columns))]]
                for comp in g.components
            )
            assert ("cusp-change" in step.flags) == changed
            flagged += bool(changed)
        assert flagged > 0


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
        assert [move_to_text(m) for m in script.moves] == [
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
            assert parse_move_script(move_to_text(move)) == MoveScript((move,))

    def test_destab_row_is_applied(self):
        # Columns 1,2 of this grid hold an L-block at rows 0,1 only.
        g = stabilize_grid(UNKNOT, "X", 0, "NE")
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
