import random

import pytest

from legrid import (
    BadCell,
    Commute,
    Convention,
    Destabilize,
    GridDiagram,
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
    reading,
    relative_invariants,
    tb_grid_oracle,
    to_front,
)
from legrid.moves import ISOTOPY_SUBTYPES, STAB_MINUS, STAB_PLUS, changes_cusps
from legrid.sampling import random_grid, random_link

from helpers import (
    GRID_TABLES,
    all_marker_lists,
    brute_linking,
    cell_destabilize,
    cell_stabilize,
    l_block,
    marker_cells,
    trace_components,
)

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


def _moved_lists(g, kind, *fields):
    """The marker lists of the move ``kind(*fields)`` applied to ``g``,
    or None when building or applying the move raises BadCell."""
    try:
        moved = apply_move(g, kind(*fields))
    except BadCell:
        return None
    return list(moved.xs), list(moved.os)


def _two_blocks_collapse_alike(g, cells, col):
    """Whether columns col, col+1 of ``g`` hold two L-blocks, after
    checking that two blocks form a staircase over three rows and that
    the unpinned move and both pinned ones give the same grid."""
    blocks = [rr for rr in range(g.n - 1) if 0 <= col and l_block(cells, col, rr)]
    if len(blocks) < 2:
        return False
    assert blocks == [blocks[0], blocks[0] + 1]
    moved = apply_move(g, Destabilize(col))
    assert moved == apply_move(g, Destabilize(col, blocks[0])) == apply_move(g, Destabilize(col, blocks[1]))
    return True


class TestCellReference:
    """Stabilize and Destabilize against the cell-by-cell reference in
    helpers, on every grid with n <= 4 and every argument."""

    def test_stabilize_every_small_grid(self):
        for n in (2, 3, 4):
            for xs, os in all_marker_lists(n):
                g = new_grid(n, xs, os)
                for marker in ("X", "O", "Y"):
                    for col in range(-1, n + 1):
                        for subtype in ("NE", "NW", "SE", "SW", "N"):
                            expected = cell_stabilize(xs, os, marker, col, subtype)
                            assert _moved_lists(g, Stabilize, marker, col, subtype) == expected

    def test_destabilize_every_small_grid(self):
        collapsed = pinned = two_blocks = 0
        for n in (2, 3, 4):
            for xs, os in all_marker_lists(n):
                g = new_grid(n, xs, os)
                cells = marker_cells(xs, os)
                for col in range(-1, n):
                    for row in (None, *range(-1, n)):
                        expected = cell_destabilize(xs, os, col, row)
                        assert _moved_lists(g, Destabilize, col, row) == expected
                        collapsed += expected is not None
                        pinned += expected is not None and row is not None
                    two_blocks += _two_blocks_collapse_alike(g, cells, col)
        assert collapsed > pinned > two_blocks > 0
        # and on grids up to n = 40, where two blocks are rarer
        rng = random.Random(20261018)
        two_blocks = 0
        for _ in range(1000):
            g = random_grid(rng, rng.randint(3, 40))
            cells = marker_cells(g.xs, g.os)
            two_blocks += sum(_two_blocks_collapse_alike(g, cells, col) for col in range(g.n - 1))
        assert two_blocks > 0

    def test_three_markers_form_an_l(self):
        # Columns c, c+1 hold an L-block at rows rr, rr+1 exactly when
        # three of their four markers lie in those rows; one of the two
        # columns then has its markers on exactly those rows.
        blocks = 0
        for n in range(2, 6):
            for xs, os in all_marker_lists(n):
                cells = marker_cells(xs, os)
                for c in range(n - 1):
                    lows = {min(xs[k], os[k]) for k in (c, c + 1) if abs(xs[k] - os[k]) == 1}
                    for rr in range(n - 1):
                        inside = sum(r in (rr, rr + 1) for r in (xs[c], os[c], xs[c + 1], os[c + 1]))
                        assert (inside == 3) == (l_block(cells, c, rr) is not None)
                        if inside == 3:
                            blocks += 1
                            assert rr in lows
        assert blocks > 0


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


class TestDerivedTables:
    """Every move derives the moved grid's tables from its markers and
    the parent's owner table instead of building it afresh; every table
    must be the one a fresh construction gives."""

    @staticmethod
    def _moves(g):
        n = g.n
        moves = [Translate(d) for d in DIRECTIONS]
        moves += [Commute(axis, i) for axis in ("row", "col") for i in range(n - 1)]
        moves += [Stabilize(m, c, t) for m in "XO" for c in range(n) for t in ("NE", "NW", "SE", "SW")]
        moves += [Destabilize(c, r) for c in range(n - 1) for r in (None, *range(n - 1))]
        moves += [LegendrianStab(k, s) for k in range(g.component_count) for s in (1, -1)]
        return moves

    @staticmethod
    def _variant(move):
        """A move's script line with its integers blanked: its kind with
        the direction, axis, marker, subtype or sign, and whether a
        destabilization names its row."""
        return tuple("#" if word.isdigit() else word for word in move.text().split())

    def _check(self, g, renumbered, applied):
        for move in self._moves(g):
            try:
                moved = apply_move(g, move)
            except (BadCell, InterleavingSpans):
                continue
            applied.add(self._variant(move))
            fresh = GridDiagram(moved.n, moved.xs, moved.os)
            # a derived grid stores every table and nothing else
            assert list(vars(moved)) == list(vars(fresh)) == GRID_TABLES, (g, move)
            for name in ("xs", "os", "x_col_by_row", "o_col_by_row", "components", "component_by_column"):
                table = getattr(moved, name)
                assert type(table) is tuple and table == getattr(fresh, name), (g, move, name)
            assert moved.n == fresh.n and moved.component_count == fresh.component_count, (g, move)
            for comp in moved.components:
                assert type(comp.columns) is frozenset and type(comp.rows) is frozenset
            assert moved == fresh and hash(moved) == hash(fresh)
            if follow(g, move, moved) != tuple(range(g.component_count)):
                renumbered.add(move.text())

    def _assert_every_variant(self, applied):
        # the unknot's candidates hold every variant: each direction and
        # axis, both markers with all four subtypes, a destabilization with
        # and without its row, and a Legendrian stabilization of either sign
        assert applied == set(map(self._variant, self._moves(UNKNOT)))
        assert len(applied) == 4 + 2 + 8 + 2 + 2

    def test_every_small_grid(self):
        renumbered, applied = set(), set()
        for n in range(2, 5):
            for xs, os in all_marker_lists(n):
                self._check(new_grid(n, xs, os), renumbered, applied)
        self._assert_every_variant(applied)
        # components trade numbers under a column commute and a sideways shift
        assert {"translate left", "translate right"} <= renumbered
        assert any(text.startswith("commute col") for text in renumbered)

    def test_random_links(self):
        rng = random.Random(28)
        renumbered, applied = set(), set()
        for _ in range(60):
            self._check(random_link(rng, rng.randint(4, 40)), renumbered, applied)
        self._assert_every_variant(applied)
        assert {"translate left", "translate right"} <= renumbered
        assert any(text.startswith("commute col") for text in renumbered)
        assert not any(text.startswith(("commute row", "translate up", "translate down")) for text in renumbered)


class TestFootprint:
    """A move changes the pattern of at most the component its
    ``footprint`` names: the fact that lets apply_script carry every
    other component's sub-grid through a step."""

    @staticmethod
    def _every_legal_move(g):
        n = g.n
        candidates = [Translate(d) for d in DIRECTIONS]
        candidates += [Commute(axis, i) for axis in ("row", "col") for i in range(n - 1)]
        candidates += [Stabilize(m, c, t) for m in "XO" for c in range(n) for t in ("NE", "NW", "SE", "SW")]
        candidates += [Destabilize(c, r) for c in range(n - 1) for r in (None, *range(n - 1))]
        candidates += [LegendrianStab(k, s) for k in range(len(g.components)) for s in (1, -1)]
        for move in candidates:
            try:
                yield move, apply_move(g, move)
            except (BadCell, InterleavingSpans):
                continue

    def _check(self, g, seen):
        before = _component_patterns(g)
        for move, moved in self._every_legal_move(g):
            named = move.footprint(g)
            after = _component_patterns(moved)
            image = follow(g, move, moved)
            kept = [after[i] == before[c] for c, i in enumerate(image)]
            assert all(k for c, k in enumerate(kept) if c != named), move
            kind = type(move).__name__
            seen.add((kind, "none" if named is None else "named"))
            if named is not None and not kept[named]:
                seen.add((kind, "changed"))

    def test_every_small_grid(self):
        seen = set()
        for n in range(2, 5):
            for xs, os in all_marker_lists(n):
                self._check(new_grid(n, xs, os), seen)
        # every kind names a component and changes it somewhere; only a commute names none
        kinds = ("Translate", "Commute", "Stabilize", "Destabilize", "LegendrianStab")
        assert {(kind, "changed") for kind in kinds} <= seen
        assert {entry for entry in seen if entry[1] == "none"} == {("Commute", "none")}

    def test_random_links(self):
        rng = random.Random(26)
        seen = set()
        for _ in range(40):
            self._check(random_link(rng, rng.randint(4, 40)), seen)
        assert ("Commute", "none") in seen and ("Commute", "changed") in seen

    def test_component_patterns_runs_once_per_call(self, monkeypatch):
        import legrid.moves as moves_mod

        calls = []
        split = moves_mod.component_patterns

        def counting(g):
            calls.append(g)
            return split(g)

        monkeypatch.setattr(moves_mod, "component_patterns", counting)
        rng = random.Random(27)
        for _ in range(10):
            g = random_link(rng, rng.randint(4, 20))
            calls.clear()
            result = apply_script(g, MoveScript(_legal_script(rng, g, 30)))
            assert calls == [g]
            assert len(result.trace) == 31


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

        def counting(g, c):
            calls.append(g)
            return tb_grid_oracle(g, c)

        monkeypatch.setattr(inv_mod, "tb_grid_oracle", counting)
        apply_script(g, script)
        assert len(calls) == len(distinct) < len(grids) * len(g.components)
        # The memo belongs to one call: a second call computes again.
        calls.clear()
        apply_script(g, script)
        assert len(calls) == len(distinct)

    def test_each_step_reads_its_component_patterns(self, monkeypatch):
        import legrid.moves as moves_mod

        snapshot = moves_mod._snapshot
        seen = {}

        def recording(parts, index, *args):
            seen[index] = [(sub.n, sub.xs, sub.os) for sub in parts]
            return snapshot(parts, index, *args)

        monkeypatch.setattr(moves_mod, "_snapshot", recording)
        rng = random.Random(23)
        for _ in range(30):
            g = random_link(rng, rng.randint(4, 14))
            moves = _legal_script(rng, g, 15)
            seen.clear()
            apply_script(g, MoveScript(moves))
            current = g
            for index, move in enumerate((None,) + moves):
                if move is not None:
                    current = apply_move(current, move)
                expected = [(len(xs), xs, os) for xs, os in _component_patterns(current)]
                assert seen[index] == expected

    def test_one_grid_is_built_per_move_and_per_distinct_pattern(self, monkeypatch):
        rng = random.Random(25)
        g = random_link(rng, 9)
        moves = (Translate("up"),) * g.n + (Translate("right"),) * g.n + _legal_script(rng, g, 40)
        grids = [g]
        for move in moves:
            grids.append(apply_move(grids[-1], move))
        distinct = set().union(*map(_component_patterns, grids))

        built, derived = [], []
        init, derive = GridDiagram.__init__, GridDiagram._derived

        def counting(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        def counting_derived(cls, *tables):
            derived.append(derive(*tables))
            return derived[-1]

        monkeypatch.setattr(GridDiagram, "__init__", counting)
        monkeypatch.setattr(GridDiagram, "_derived", classmethod(counting_derived))
        result = apply_script(g, MoveScript(moves))
        assert result.final == grids[-1]
        # every move step derives its grid, which skips ``__init__`` and its
        # checks; the checked constructions are exactly the distinct
        # sub-grids, one each
        assert derived == grids[1:]
        assert {type(move) for move in moves} == {Translate, Commute, Stabilize, Destabilize, LegendrianStab}
        assert set(map(id, derived)).isdisjoint(map(id, built))
        assert sorted((sub.xs, sub.os) for sub in built) == sorted(distinct)
        assert len(distinct) < sum(len(h.components) for h in grids)

    def test_front_is_swept_once_per_distinct_pattern_per_call(self, monkeypatch):
        import legrid.grid as grid_mod

        rng = random.Random(24)
        g = random_link(rng, 9)
        moves = (Translate("up"),) * g.n + (Translate("left"),) * g.n + _legal_script(rng, g, 40)
        grids = [g]
        for move in moves:
            grids.append(apply_move(grids[-1], move))
        distinct = set().union(*map(_component_patterns, grids))

        sweeps = []
        read_front = grid_mod._read_front

        def counting(g):
            sweeps.append(g)
            return read_front(g)

        monkeypatch.setattr(grid_mod, "_read_front", counting)
        result = apply_script(g, MoveScript(moves))
        assert any("cusp-change" in step.flags for step in result.trace)
        assert len(sweeps) == len(distinct)

    def test_parity_error_names_the_step_and_the_component(self, monkeypatch):
        import legrid.invariants as inv_mod

        def odd_on_three(g, c):
            # Only the stabilized unknot has a 3x3 sub-grid.
            if g.n == 3:
                raise ParityViolation(f"component {c} and its push-off cross an odd signed number of times (1)")
            return tb_grid_oracle(g, c)

        monkeypatch.setattr(inv_mod, "tb_grid_oracle", odd_on_three)
        split = new_grid(4, [0, 1, 2, 3], [1, 0, 3, 2])
        with pytest.raises(ParityViolation) as exc:
            apply_script(split, MoveScript((Translate("up"), LegendrianStab(1, 1))))
        assert str(exc.value) == (
            "step 2, component 1 and its push-off cross an odd signed number of times (1)"
        )
        assert (exc.value.step, exc.value.component) == (2, 1)


class TestChangesCusps:
    """The rule, on whole fronts under both readings and on
    apply_script's sub-grid cusps, against a whole-front comparison
    written out."""

    @staticmethod
    def _flags(g):
        flags = []
        for direction in DIRECTIONS:
            move = Translate(direction)
            moved = apply_move(g, move)
            image = follow(g, move, moved)
            for conv in Convention:
                before, after = to_front(reading(g, conv)).cusps, to_front(reading(moved, conv)).cusps
                whole = any(before[c] != after[i] for c, i in enumerate(image))
                assert changes_cusps(move, before, after, image) == whole
                if conv is Convention.NW_SE:
                    step = apply_script(g, MoveScript((move,))).trace[-1]
                    assert ("cusp-change" in step.flags) == whole
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

    def test_stabilization_is_never_flagged(self):
        # A stabilization changes the cusp counts of the component it
        # acts on, but it is no translation, so the step is not flagged.
        rng = random.Random(23)
        changed = 0
        for _ in range(60):
            g = random_grid(rng, rng.randint(2, 8))
            for move in (Stabilize(m, rng.randrange(g.n), t) for m in "XO" for t in ("NE", "NW", "SE", "SW")):
                moved = apply_move(g, move)
                image = follow(g, move, moved)
                for conv in Convention:
                    before, after = to_front(reading(g, conv)).cusps, to_front(reading(moved, conv)).cusps
                    changed += any(before[c] != after[i] for c, i in enumerate(image))
                    assert not changes_cusps(move, before, after, image)
                assert apply_script(g, MoveScript((move,))).trace[-1].flags == ()
        assert changed > 0


def _component_patterns(g):
    """Each component's markers, columns in order and rows ranked, in
    component order, written out apart from ``component_grid``."""
    patterns = []
    for cols in trace_components(list(g.xs), list(g.os)):
        rows = sorted(g.xs[c] for c in cols)
        patterns.append(
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


# (move class, fields, exact BadCell message): one row per invalid value
# of every field, first fault in field order winning.
INVALID_MOVES = [
    (Translate, ("diag",), "unknown direction 'diag'"),
    (Translate, ("Up",), "unknown direction 'Up'"),
    (Translate, (None,), "unknown direction None"),
    (Commute, ("diag", 0), "axis must be row or col, got 'diag'"),
    (Commute, ("column", 0), "axis must be row or col, got 'column'"),
    (Commute, ("col", 0.0), "index must be an integer, got 0.0"),
    (Commute, ("col", True), "index must be an integer, got True"),
    (Commute, ("row", "1"), "index must be an integer, got '1'"),
    (Commute, ("row", None), "index must be an integer, got None"),
    (Commute, ("diag", 0.5), "axis must be row or col, got 'diag'"),
    (Stabilize, ("Y", 0, "NE"), "marker must be X or O, got 'Y'"),
    (Stabilize, ("x", 0, "NE"), "marker must be X or O, got 'x'"),
    (Stabilize, ("X", 1.0, "NE"), "column must be an integer, got 1.0"),
    (Stabilize, ("O", False, "SW"), "column must be an integer, got False"),
    (Stabilize, ("X", 0, "N"), "subtype must be one of NE, NW, SE, SW"),
    (Stabilize, ("O", 0, "ne"), "subtype must be one of NE, NW, SE, SW"),
    (Stabilize, ("Y", 0.5, "N"), "marker must be X or O, got 'Y'"),
    (Stabilize, ("X", 0.5, "N"), "column must be an integer, got 0.5"),
    (Destabilize, (0.0,), "column must be an integer, got 0.0"),
    (Destabilize, (True,), "column must be an integer, got True"),
    (Destabilize, (None,), "column must be an integer, got None"),
    (Destabilize, (0, 1.0), "row must be an integer, got 1.0"),
    (Destabilize, (0, False), "row must be an integer, got False"),
    (Destabilize, (0.5, 0.5), "column must be an integer, got 0.5"),
    (LegendrianStab, (0.0, 1), "component must be an integer, got 0.0"),
    (LegendrianStab, (True, 1), "component must be an integer, got True"),
    (LegendrianStab, (0, 2), "stabilization sign must be +1 or -1, got 2"),
    (LegendrianStab, (0, 0), "stabilization sign must be +1 or -1, got 0"),
    (LegendrianStab, (0, True), "stabilization sign must be +1 or -1, got True"),
    (LegendrianStab, (0, -1.0), "stabilization sign must be +1 or -1, got -1.0"),
    (LegendrianStab, (0, "+"), "stabilization sign must be +1 or -1, got '+'"),
    (LegendrianStab, (1.5, 2), "component must be an integer, got 1.5"),
]


class TestMoveFields:
    """Every move checks its own fields when it is built, so no invalid
    value reaches ``apply`` or ``column_map``."""

    @pytest.mark.parametrize("kind, fields, message", INVALID_MOVES)
    def test_invalid_field_raises_at_construction(self, kind, fields, message):
        with pytest.raises(BadCell) as exc:
            kind(*fields)
        assert str(exc.value) == message


def _legal_moves(g):
    """Every move of every kind that applies to ``g``."""
    candidates = [Translate(d) for d in DIRECTIONS]
    candidates += [Commute(axis, i) for axis in ("row", "col") for i in range(g.n - 1)]
    candidates += [
        Stabilize(m, c, t) for m in ("X", "O") for c in range(g.n) for t in ("NE", "NW", "SE", "SW")
    ]
    candidates += [Destabilize(c, r) for c in range(g.n - 1) for r in (None, *range(g.n - 1))]
    candidates += [LegendrianStab(k, s) for k in range(len(g.components)) for s in (1, -1)]
    for move in candidates:
        try:
            apply_move(g, move)
        except (BadCell, InterleavingSpans):
            continue
        yield move


class TestScriptLines:
    def test_every_legal_small_move_round_trips(self):
        kinds = set()
        for n in (2, 3, 4):
            for xs, os in all_marker_lists(n):
                for move in _legal_moves(new_grid(n, xs, os)):
                    assert parse_move_script(move.text()) == MoveScript((move,))
                    kinds.add(type(move))
        assert kinds == {Translate, Commute, Stabilize, Destabilize, LegendrianStab}

    @pytest.mark.parametrize(
        "line, message",
        [
            ("commute diag x", "index must be an integer, got 'x'"),
            ("stab Y x NE", "column must be an integer, got 'x'"),
            ("stab X x N", "column must be an integer, got 'x'"),
            ("lstab x ?", "component must be an integer, got 'x'"),
            ("destab x y", "row must be an integer, got 'y'"),
        ],
    )
    def test_a_line_reports_its_bad_integer_before_its_words(self, line, message):
        with pytest.raises(ParseError) as exc:
            parse_move_script("translate up\n" + line + "\n")
        assert str(exc.value) == f"line 2, column 1: {message}"

    @pytest.mark.parametrize(
        "line, message",
        [
            ("translate diag", "unknown direction 'diag'"),
            ("commute diag 0", "axis must be row or col, got 'diag'"),
            ("stab Y 0 NE", "marker must be X or O, got 'Y'"),
            ("stab X 0 N", "subtype must be one of NE, NW, SE, SW"),
            ("stab Y 0 N", "marker must be X or O, got 'Y'"),
            ("lstab 0 ?", "sign must be + or -, got '?'"),
        ],
    )
    def test_a_bad_word_is_the_move_message_at_its_line(self, line, message):
        with pytest.raises(ParseError) as exc:
            parse_move_script("translate up\n" + line + "\n")
        assert str(exc.value) == f"line 2, column 1: {message}"
