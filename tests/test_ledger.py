import random
from itertools import product

import pytest

from legrid import (
    BaseMismatch,
    InconsistentProfile,
    IntersectionProfile,
    LengthMismatch,
    RelativeSurfaceClass,
    ambiguity,
    new_model,
    rot_diff,
    sl_diff,
    tb_diff,
    twist_transfer,
)


def cls(base, *offset):
    return RelativeSurfaceClass(base, tuple(offset))


class TestNewModel:
    def test_rank_zero(self):
        m = new_model(0, [], False)
        assert m.effective_euler == ()
        assert ambiguity(m) == 0

    def test_plain_model(self):
        m = new_model(1, [2], False)
        assert m.effective_euler == (2,)

    def test_tight_effective_euler_is_zero(self):
        m = new_model(1, [2], True)
        assert m.effective_euler == (0,)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            new_model(2, [1], False)
        with pytest.raises(LengthMismatch):
            new_model(-1, [], False)


class TestTbDiff:
    def test_always_zero(self):
        rng = random.Random(1)
        for _ in range(300):
            rank = rng.randint(0, 4)
            m = new_model(rank, [rng.randint(-5, 5) for _ in range(rank)], rng.random() < 0.5)
            s1 = cls("b", *(rng.randint(-4, 4) for _ in range(rank)))
            s2 = cls("b", *(rng.randint(-4, 4) for _ in range(rank)))
            assert tb_diff(m, s1, s2) == 0

    def test_equal_classes(self):
        m = new_model(2, [1, 2], False)
        s = cls("b", 3, -1)
        assert tb_diff(m, s, s) == 0

    def test_base_mismatch(self):
        m = new_model(1, [1], False)
        with pytest.raises(BaseMismatch):
            tb_diff(m, cls("a", 0), cls("b", 0))


class TestTwistTransfer:
    def test_zero_profile(self):
        m = new_model(0, [], False)
        assert twist_transfer(m, cls("b"), cls("b"), IntersectionProfile(0, 0)) == (0, 0)

    def test_three_ribbon_arcs(self):
        # One twist per arc on each boundary: three arcs give (3, 3).
        m = new_model(1, [0], False)
        s1, s2 = cls("b", 1), cls("b", 0)
        assert twist_transfer(m, s1, s2, IntersectionProfile(3, 3)) == (3, 3)

    def test_inconsistent_profile(self):
        m = new_model(1, [0], False)
        with pytest.raises(InconsistentProfile):
            twist_transfer(m, cls("b", 0), cls("b", 0), IntersectionProfile(1, 2))

    def test_components_always_equal(self):
        rng = random.Random(2)
        for _ in range(100):
            k = rng.randint(-6, 6)
            out = twist_transfer(
                new_model(0, [], False), cls("b"), cls("b"), IntersectionProfile(k, k)
            )
            assert out[0] == out[1] == k


class TestEulerDifferences:
    def test_equal_offsets_vanish(self):
        m = new_model(3, [2, -1, 5], False)
        s = cls("b", 1, 2, 3)
        assert rot_diff(m, s, s) == 0
        assert sl_diff(m, s, s) == 0

    def test_single_generator_example(self):
        m = new_model(1, [2], False)
        assert rot_diff(m, cls("b", 3), cls("b", 0)) == 6

    def test_generator_by_generator_summation(self):
        rng = random.Random(3)
        for _ in range(200):
            rank = rng.randint(0, 4)
            m = new_model(rank, [rng.randint(-5, 5) for _ in range(rank)], False)
            off1 = tuple(rng.randint(-4, 4) for _ in range(rank))
            off2 = tuple(rng.randint(-4, 4) for _ in range(rank))
            total = rot_diff(m, cls("b", *off1), cls("b", *off2))
            # walk from off2 to off1 one generator at a time
            walked = 0
            current = list(off2)
            for i in range(rank):
                step = list(current)
                step[i] = off1[i]
                walked += rot_diff(m, cls("b", *step), cls("b", *current))
                current = step
            assert walked == total
            assert sl_diff(m, cls("b", *off1), cls("b", *off2)) == total

    def test_tight_model_always_zero(self):
        rng = random.Random(4)
        for _ in range(100):
            rank = rng.randint(0, 4)
            m = new_model(rank, [rng.randint(-5, 5) for _ in range(rank)], True)
            s1 = cls("b", *(rng.randint(-4, 4) for _ in range(rank)))
            s2 = cls("b", *(rng.randint(-4, 4) for _ in range(rank)))
            assert rot_diff(m, s1, s2) == 0
            assert sl_diff(m, s1, s2) == 0

    def test_base_and_length_guards(self):
        m = new_model(2, [1, 1], False)
        with pytest.raises(BaseMismatch):
            rot_diff(m, cls("a", 0, 0), cls("b", 0, 0))
        with pytest.raises(LengthMismatch):
            rot_diff(m, cls("b", 0), cls("b", 0, 0))

    def test_vanishes_exactly_on_kernel_of_euler(self):
        m = new_model(2, [2, -3], False)
        # (3, 2) lies in the kernel of (2, -3); (1, 0) does not.
        assert rot_diff(m, cls("b", 3, 2), cls("b", 0, 0)) == 0
        assert rot_diff(m, cls("b", 1, 0), cls("b", 0, 0)) != 0
        rng = random.Random(6)
        for _ in range(200):
            off1 = (rng.randint(-4, 4), rng.randint(-4, 4))
            off2 = (rng.randint(-4, 4), rng.randint(-4, 4))
            delta = (off1[0] - off2[0], off1[1] - off2[1])
            in_kernel = 2 * delta[0] - 3 * delta[1] == 0
            assert (rot_diff(m, cls("b", *off1), cls("b", *off2)) == 0) == in_kernel


class TestAmbiguity:
    def test_gcd_example_with_enumeration(self):
        # Enumerating euler.v over the offset box confirms the gcd: the
        # unit offsets realize each euler entry, so the gcd of the
        # achieved value set equals the gcd of the entries.
        import math

        m = new_model(2, [4, 6], False)
        d = ambiguity(m)
        assert d == 2
        values = {
            rot_diff(m, cls("b", *v), cls("b", 0, 0))
            for v in product(range(-3, 4), repeat=2)
        }
        assert all(v % d == 0 for v in values)
        assert math.gcd(*values) == d

    def test_tight_is_zero(self):
        assert ambiguity(new_model(2, [4, 6], True)) == 0

    def test_rank_zero(self):
        assert ambiguity(new_model(0, [], False)) == 0

    def test_divides_every_difference(self):
        rng = random.Random(5)
        for _ in range(200):
            rank = rng.randint(1, 4)
            m = new_model(rank, [rng.randint(-5, 5) for _ in range(rank)], False)
            d = ambiguity(m)
            s1 = cls("b", *(rng.randint(-4, 4) for _ in range(rank)))
            s2 = cls("b", *(rng.randint(-4, 4) for _ in range(rank)))
            value = rot_diff(m, s1, s2)
            if d == 0:
                assert value == 0
            else:
                assert value % d == 0
