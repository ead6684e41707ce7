import random

import pytest

from legrid import (
    ClassicalInvariants,
    Convention,
    LegendrianStab,
    OrientationFlag,
    ParityViolation,
    SameComponent,
    ScriptStepError,
    Translate,
    UnknownComponent,
    apply_move,
    apply_script,
    classical,
    component_patterns,
    linking_number,
    new_grid,
    reading,
    relative_invariants,
    reverse_component,
    rot,
    tb_front,
    tb_grid_oracle,
    to_front,
)
from legrid.grid import CuspCounts, FrontData
from legrid.sampling import random_grid, random_knot, random_link

from helpers import all_marker_lists, trace_components

UNKNOT = new_grid(2, [0, 1], [1, 0])
SPLIT_MARKERS = (4, [0, 1, 2, 3], [1, 0, 3, 2])
SPLIT = new_grid(*SPLIT_MARKERS)
TREFOIL = new_grid(5, [0, 1, 2, 3, 4], [2, 3, 4, 0, 1])


class TestNormalization:
    def test_unknot(self):
        inv = classical(UNKNOT, 0)
        assert (inv.tb, inv.r, inv.sl_pos, inv.sl_neg) == (-1, 0, -1, -1)

    def test_trefoil_frozen_values(self):
        # Writhe -3, two up cusps, four down cusps: the maximal-tb
        # representative of this trefoil chirality.
        inv = classical(TREFOIL, 0)
        assert (inv.tb, inv.r, inv.sl_pos, inv.sl_neg) == (-6, 1, -7, -5)


class TestRouteEquality:
    def test_random_larger(self):
        rng = random.Random(5)
        for _ in range(200):
            g = random_grid(rng, rng.randint(2, 10))
            f = to_front(g)
            for c in range(g.component_count):
                assert tb_front(f, c) == tb_grid_oracle(g, c)

    def test_mirror_convention_also_agrees(self):
        rng = random.Random(6)
        for _ in range(50):
            g = random_grid(rng, rng.randint(2, 8))
            m = reading(g, Convention.NE_SW)
            f = to_front(m)
            for c in range(g.component_count):
                assert tb_front(f, c) == tb_grid_oracle(m, c)

    def test_unknot_oracle_value(self):
        assert tb_grid_oracle(UNKNOT, 0) == -1

    def test_classical_runs_the_oracle_once_per_key(self, monkeypatch):
        import legrid.invariants as inv_mod

        calls = []

        def counting(g, c):
            calls.append((g.xs, g.os, c))
            return tb_grid_oracle(g, c)

        monkeypatch.setattr(inv_mod, "tb_grid_oracle", counting)
        g = new_grid(5, [0, 1, 2, 3, 4], [2, 3, 4, 0, 1])
        first = classical(g, 0)
        assert classical(g, 0) is first
        assert calls == [(g.xs, g.os, 0)]
        # NE_SW runs the oracle on the reading grid: rows mirrored, X and O swapped
        m = reading(g, Convention.NE_SW)
        classical(m, 0)
        assert calls[1:] == [((2, 1, 0, 4, 3), (4, 3, 2, 1, 0), 0)]
        classical(m, 0)
        assert len(calls) == 2
        # A fresh grid with the same markers is checked again.
        assert classical(new_grid(5, [0, 1, 2, 3, 4], [2, 3, 4, 0, 1]), 0) == first
        assert len(calls) == 3

    def test_odd_push_off_count_raises(self):
        # A forged owner table that moves column 2 to a component of its
        # own leaves component 0 an open path of four verticals and
        # horizontals; it meets its push-off an odd number of times.
        g = new_grid(5, [0, 1, 2, 3, 4], [2, 3, 4, 0, 1])
        g.__dict__.update(component_by_column=(0, 0, 1, 0, 0), component_count=2)
        with pytest.raises(ParityViolation):
            tb_grid_oracle(g, 0)

    def test_unknown_component(self):
        with pytest.raises(UnknownComponent):
            tb_grid_oracle(UNKNOT, 2)
        with pytest.raises(UnknownComponent):
            tb_front(to_front(UNKNOT), 2)

    def test_classical_refuses_an_unknown_component_before_the_front(self, monkeypatch):
        import legrid.grid as grid_mod

        sweeps = []
        read_front = grid_mod._read_front

        def counting(g):
            sweeps.append(g)
            return read_front(g)

        monkeypatch.setattr(grid_mod, "_read_front", counting)
        g = new_grid(*SPLIT_MARKERS)
        for c in (2, 99, -1):
            with pytest.raises(UnknownComponent, match=rf"^no component {c} \(diagram has 2\)$"):
                classical(g, c)
        assert sweeps == []


class TestMirrorReading:
    """The ne-sw reading of a grid is the nw-se reading of the grid with
    its rows mirrored and its X and O markers swapped: the mirror moves
    the cusps to the other diagonal and flips every crossing sign, the
    swap reverses every strand, and every column keeps its component."""

    @staticmethod
    def _assert_identity(n, xs, os):
        g = new_grid(n, xs, os)
        m = new_grid(n, [n - 1 - o for o in os], [n - 1 - x for x in xs])
        mirrored = reading(g, Convention.NE_SW)
        assert mirrored == m
        assert to_front(mirrored) == to_front(m)
        assert g.component_by_column == m.component_by_column
        for c in range(g.component_count):
            assert tb_grid_oracle(mirrored, c) == tb_grid_oracle(m, c)

    def test_every_small_grid(self):
        for n in (2, 3, 4, 5):
            for xs, os in all_marker_lists(n):
                self._assert_identity(n, xs, os)

    def test_random_links(self):
        rng = random.Random(41)
        for _ in range(150):
            g = random_link(rng, rng.randint(6, 60), rng.randint(2, 3))
            self._assert_identity(g.n, g.xs, g.os)


class TestUnknownComponentText:
    """One check, one text: every path that takes a component index
    refuses an unknown one with ``no component c (diagram has N)``;
    ``1.0`` and ``True`` compare equal to 1 but are no index."""

    PATHS = {
        "classical": lambda g, c: classical(g, c),
        "cusp_counts": lambda g, c: to_front(g).cusp_counts(c),
        "linking_number": lambda g, c: linking_number(g, 0, c),
        "linking_number_first": lambda g, c: linking_number(g, c, 0),
        "tb_grid_oracle": lambda g, c: tb_grid_oracle(g, c),
        "tb_front": lambda g, c: tb_front(to_front(g), c),
        "rot": lambda g, c: rot(to_front(g), c),
        "reverse_component": lambda g, c: reverse_component(g, c),
        "relative_invariants": lambda g, c: relative_invariants(g, 0, c),
        "relative_invariants_first": lambda g, c: relative_invariants(g, c, 0),
    }

    @pytest.mark.parametrize("path", sorted(PATHS))
    @pytest.mark.parametrize("c", [2, 99, -1, 1.0, True])
    def test_every_path_gives_the_one_text(self, path, c):
        with pytest.raises(UnknownComponent) as exc:
            self.PATHS[path](SPLIT, c)
        assert str(exc.value) == f"no component {c} (diagram has 2)"

    @pytest.mark.parametrize("path", [linking_number, relative_invariants], ids=lambda f: f.__name__)
    @pytest.mark.parametrize("pair", [(1, True), (True, 1), (5, 5), (1.0, 1.0)])
    def test_an_unknown_pair_is_named_before_it_is_compared(self, path, pair):
        # 1 == True and 5 == 5, but neither pair names two components
        bad = next(c for c in pair if type(c) is not int or c > 1)
        with pytest.raises(UnknownComponent) as exc:
            path(SPLIT, *pair)
        assert str(exc.value) == f"no component {bad!r} (diagram has 2)"

    @pytest.mark.parametrize("conv", list(Convention))
    @pytest.mark.parametrize("c", [1.0, True])
    def test_a_memoized_component_answers_no_other_index(self, c, conv):
        # 1.0 and True hash as 1, so the memo must not be asked first
        g = reading(new_grid(*SPLIT_MARKERS), conv)
        classical(g, 1)
        with pytest.raises(UnknownComponent) as exc:
            classical(g, c)
        assert str(exc.value) == f"no component {c} (diagram has 2)"

    @pytest.mark.parametrize("path", ["apply_move", "column_map"])
    @pytest.mark.parametrize("c", [2, 99, -1])
    def test_an_lstab_of_an_unknown_component(self, path, c):
        # 1.0 and True are refused when the move is built (INVALID_MOVES)
        move = LegendrianStab(c, 1)
        with pytest.raises(UnknownComponent) as exc:
            apply_move(SPLIT, move) if path == "apply_move" else move.column_map(SPLIT)
        assert str(exc.value) == f"no component {c} (diagram has 2)"

    def test_lstab_in_a_script(self):
        with pytest.raises(ScriptStepError) as exc:
            apply_script(SPLIT, (Translate("up"), LegendrianStab(9, 1)))
        assert type(exc.value.cause) is UnknownComponent
        assert str(exc.value) == "step 2: no component 9 (diagram has 2)"


class TestComponentGrid:
    """A component's sub-grid, built from its entry of
    ``component_patterns``, carries its invariants and cusps: checked
    against the whole-grid route, which reads the full front and runs
    the oracle on the full grid."""

    @staticmethod
    def _check_locality(g):
        for c, (xs, os) in enumerate(component_patterns(g)):
            sub = new_grid(len(xs), xs, os)
            assert sub.n == g.component_by_column.count(c)
            assert sub.component_count == 1
            for conv in Convention:
                sub_read, g_read = reading(sub, conv), reading(g, conv)
                assert classical(sub_read, 0) == classical(g_read, c)
                assert to_front(sub_read).cusps[0] == to_front(g_read).cusps[c]

    def test_every_small_grid(self):
        for n in range(2, 6):
            for xs, os in all_marker_lists(n):
                self._check_locality(new_grid(n, xs, os))

    def test_random_links(self):
        rng = random.Random(17)
        for _ in range(200):
            self._check_locality(random_link(rng, rng.randint(4, 40)))

    def test_equal_components_give_equal_sub_grids(self):
        # Two split unknots, one of them shifted: the same pattern.
        assert [new_grid(len(xs), xs, os) for xs, os in component_patterns(SPLIT)] == [UNKNOT, UNKNOT]

    def test_patterns_are_the_sub_grids_in_component_order(self):
        rng = random.Random(19)
        for _ in range(100):
            g = random_link(rng, rng.randint(4, 40))
            patterns = component_patterns(g)
            cycles = trace_components(g.xs, g.os)
            assert len(patterns) == len(cycles)
            for cols, (xs, os) in zip(cycles, patterns):
                rows = sorted(g.xs[col] for col in cols)
                assert xs == tuple(rows.index(g.xs[col]) for col in cols)
                assert os == tuple(rows.index(g.os[col]) for col in cols)


class TestRotation:
    def test_unknot(self):
        assert rot(to_front(UNKNOT), 0) == 0

    def test_reversal_negates_rot_and_fixes_tb(self):
        rng = random.Random(7)
        for _ in range(100):
            g = random_grid(rng, rng.randint(2, 8))
            c = rng.randrange(g.component_count)
            before = classical(g, c)
            after = classical(reverse_component(g, c), c)
            assert after.r == -before.r
            assert after.tb == before.tb

    def test_an_odd_cusp_count_raises(self):
        # a closed front has an even number of cusps; an odd count is
        # refused, not floored, on both routes that halve it
        f = FrontData((0,), (CuspCounts(1, 0),))
        for route in (tb_front, rot):
            with pytest.raises(ParityViolation, match=r"^component 0 has an odd number of cusps \(1\)$"):
                route(f, 0)

    def test_tb_plus_rot_is_odd_for_knots(self):
        rng = random.Random(8)
        for _ in range(1000):
            g = random_knot(rng, rng.randint(2, 8))
            inv = classical(g, 0)
            assert (inv.tb + inv.r) % 2 == 1


class TestClassicalBundle:
    def test_pushoff_relation_holds_by_construction(self):
        # tb and r are the only fields; both push-offs derive from them
        rng = random.Random(10)
        for _ in range(200):
            tb, r = rng.randint(-50, 50), rng.randint(-50, 50)
            inv = ClassicalInvariants(tb, r)
            assert (inv.sl_pos, inv.sl_neg) == (tb - r, tb + r)
            assert inv == ClassicalInvariants(tb=tb, r=r)
        with pytest.raises(TypeError):
            ClassicalInvariants(tb=-1, r=0, sl_pos=0, sl_neg=-1)

    def test_sl_sum_identity(self):
        rng = random.Random(9)
        for _ in range(100):
            g = random_grid(rng, rng.randint(2, 8))
            for c in range(g.component_count):
                inv = classical(g, c)
                assert inv.sl_pos + inv.sl_neg == 2 * inv.tb


class TestRelativeInvariants:
    def test_identical_split_unknots(self):
        rel = relative_invariants(SPLIT, 0, 1)
        assert rel.triple == (0, 0, 0)

    def test_antisymmetry(self):
        rng = random.Random(10)
        for _ in range(200):
            g = random_link(rng, rng.randint(4, 9))
            k, j = rng.sample(range(g.component_count), 2)
            kj = relative_invariants(g, k, j)
            jk = relative_invariants(g, j, k)
            assert kj.triple == tuple(-v for v in jk.triple)

    def test_additivity_chain(self):
        rng = random.Random(11)
        for _ in range(100):
            g = random_link(rng, rng.randint(6, 9), min_components=3)
            k, l, j = rng.sample(range(g.component_count), 3)
            kj = relative_invariants(g, k, j).triple
            kl = relative_invariants(g, k, l).triple
            lj = relative_invariants(g, l, j).triple
            assert kj == tuple(a + b for a, b in zip(kl, lj))

    def test_orientation_flip_negates_r_and_sl(self):
        rng = random.Random(12)
        for _ in range(100):
            g = random_link(rng, rng.randint(4, 8))
            k, j = rng.sample(range(g.component_count), 2)
            plain = relative_invariants(g, k, j)
            flipped = relative_invariants(g, k, j, OrientationFlag().flipped())
            assert flipped.tb_rel == plain.tb_rel
            assert flipped.r_rel == -plain.r_rel
            assert flipped.sl_rel == -plain.sl_rel

    def test_coorientation_flip_negates_sl_only(self):
        # Fixture with relative triple (-1, 1, -2): nothing vacuous.
        g = new_grid(6, [1, 4, 3, 0, 2, 5], [4, 2, 0, 3, 5, 1])
        flag = OrientationFlag(surface=1, coorientation=-1)
        plain = relative_invariants(g, 0, 1)
        assert plain.triple == (-1, 1, -2)
        coflip = relative_invariants(g, 0, 1, flag)
        assert coflip.tb_rel == plain.tb_rel
        assert coflip.r_rel == plain.r_rel
        assert coflip.sl_rel == -plain.sl_rel

    def test_same_component_rejected(self):
        with pytest.raises(SameComponent):
            relative_invariants(SPLIT, 0, 0)

    def test_flag_validation(self):
        with pytest.raises(ValueError):
            OrientationFlag(surface=0)

    @pytest.mark.parametrize("field", ["surface", "coorientation"])
    @pytest.mark.parametrize("value", [1.0, -1.0, True, 0, "+"])
    def test_flag_entries_are_ints(self, field, value):
        # floats and bools compare equal to 1 and -1 but are no sign
        with pytest.raises(ValueError) as exc:
            OrientationFlag(**{field: value})
        assert str(exc.value) == f"{field} must be +1 or -1, got {value!r}"
