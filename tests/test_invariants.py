import random

import pytest

from legrid import (
    ClassicalInvariants,
    Component,
    Convention,
    OrientationFlag,
    ParityViolation,
    SameComponent,
    UnknownComponent,
    classical,
    component_grid,
    new_grid,
    relative_invariants,
    reverse_component,
    rot,
    tb_front,
    tb_grid_oracle,
    to_front,
)
from legrid.sampling import random_grid, random_knot, random_link

from helpers import all_marker_lists

UNKNOT = new_grid(2, [0, 1], [1, 0])
SPLIT = new_grid(4, [0, 1, 2, 3], [1, 0, 3, 2])
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
            for comp in g.components:
                assert tb_front(f, comp.index) == tb_grid_oracle(g, comp.index)

    def test_mirror_convention_also_agrees(self):
        rng = random.Random(6)
        for _ in range(50):
            g = random_grid(rng, rng.randint(2, 8))
            f = to_front(g, Convention.NE_SW)
            for comp in g.components:
                assert tb_front(f, comp.index) == tb_grid_oracle(
                    g, comp.index, Convention.NE_SW
                )

    def test_unknot_oracle_value(self):
        assert tb_grid_oracle(UNKNOT, 0) == -1

    def test_classical_runs_the_oracle_once_per_key(self, monkeypatch):
        import legrid.invariants as inv_mod

        calls = []

        def counting(g, c, conv=Convention.NW_SE):
            calls.append((c, conv))
            return tb_grid_oracle(g, c, conv)

        monkeypatch.setattr(inv_mod, "tb_grid_oracle", counting)
        g = new_grid(5, [0, 1, 2, 3, 4], [2, 3, 4, 0, 1])
        first = classical(g, 0)
        assert classical(g, 0) is first
        assert calls == [(0, Convention.NW_SE)]
        classical(g, 0, Convention.NE_SW)
        assert calls == [(0, Convention.NW_SE), (0, Convention.NE_SW)]
        # A fresh grid with the same markers is checked again.
        assert classical(new_grid(5, [0, 1, 2, 3, 4], [2, 3, 4, 0, 1]), 0) == first
        assert len(calls) == 3

    def test_odd_push_off_count_raises(self):
        # A forged component of one vertical and one horizontal is an
        # open path; it meets its push-off an odd number of times.
        g = new_grid(5, [0, 1, 2, 3, 4], [2, 3, 4, 0, 1])
        g.__dict__["components"] = (Component(0, frozenset({0}), frozenset({2})),)
        with pytest.raises(ParityViolation):
            tb_grid_oracle(g, 0)

    def test_unknown_component(self):
        with pytest.raises(UnknownComponent):
            tb_grid_oracle(UNKNOT, 2)
        with pytest.raises(UnknownComponent):
            tb_front(to_front(UNKNOT), 2)


class TestComponentGrid:
    """A component's sub-grid carries its invariants and cusps: checked
    against the whole-grid route, which reads the full front and runs
    the oracle on the full grid."""

    @staticmethod
    def _check_locality(g):
        for comp in g.components:
            c = comp.index
            sub = component_grid(g, c)
            assert new_grid(sub.n, sub.xs, sub.os) == sub
            assert sub.n == len(comp.columns)
            assert len(sub.components) == 1
            for conv in Convention:
                assert classical(sub, 0, conv) == classical(g, c, conv)
                assert to_front(sub, conv).cusps[0] == to_front(g, conv).cusps[c]

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
        assert component_grid(SPLIT, 0) == component_grid(SPLIT, 1) == UNKNOT

    def test_unknown_component(self):
        with pytest.raises(UnknownComponent):
            component_grid(SPLIT, 2)


class TestRotation:
    def test_unknot(self):
        assert rot(to_front(UNKNOT), 0) == 0

    def test_reversal_negates_rot_and_fixes_tb(self):
        rng = random.Random(7)
        for _ in range(100):
            g = random_grid(rng, rng.randint(2, 8))
            c = rng.randrange(len(g.components))
            before = classical(g, c)
            after = classical(reverse_component(g, c), c)
            assert after.r == -before.r
            assert after.tb == before.tb

    def test_tb_plus_rot_is_odd_for_knots(self):
        rng = random.Random(8)
        for _ in range(1000):
            g = random_knot(rng, rng.randint(2, 8))
            inv = classical(g, 0)
            assert (inv.tb + inv.r) % 2 == 1


class TestClassicalBundle:
    def test_pushoff_relation_enforced(self):
        with pytest.raises(ValueError):
            ClassicalInvariants(tb=-1, r=0, sl_pos=0, sl_neg=-1)

    def test_sl_sum_identity(self):
        rng = random.Random(9)
        for _ in range(100):
            g = random_grid(rng, rng.randint(2, 8))
            for comp in g.components:
                inv = classical(g, comp.index)
                assert inv.sl_pos + inv.sl_neg == 2 * inv.tb


class TestRelativeInvariants:
    def test_identical_split_unknots(self):
        rel = relative_invariants(SPLIT, 0, 1)
        assert rel.triple == (0, 0, 0)

    def test_antisymmetry(self):
        rng = random.Random(10)
        for _ in range(200):
            g = random_link(rng, rng.randint(4, 9))
            k, j = rng.sample(range(len(g.components)), 2)
            kj = relative_invariants(g, k, j)
            jk = relative_invariants(g, j, k)
            assert kj.triple == tuple(-v for v in jk.triple)

    def test_additivity_chain(self):
        rng = random.Random(11)
        for _ in range(100):
            g = random_link(rng, rng.randint(6, 9), min_components=3)
            k, l, j = rng.sample(range(len(g.components)), 3)
            kj = relative_invariants(g, k, j).triple
            kl = relative_invariants(g, k, l).triple
            lj = relative_invariants(g, l, j).triple
            assert kj == tuple(a + b for a, b in zip(kl, lj))

    def test_orientation_flip_negates_r_and_sl(self):
        rng = random.Random(12)
        for _ in range(100):
            g = random_link(rng, rng.randint(4, 8))
            k, j = rng.sample(range(len(g.components)), 2)
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
