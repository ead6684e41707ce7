import random
from itertools import product

import pytest

from legrid import (
    ContactHomologyModel,
    InconsistentProfile,
    IntersectionProfile,
    LengthMismatch,
    RelativeSurfaceClass,
    ambiguity,
    rot_diff,
    sl_diff,
    tb_diff,
    twist_transfer,
)


def cls(*offset):
    return RelativeSurfaceClass(offset)


class TestNewModel:
    def test_rank_zero(self):
        m = ContactHomologyModel(0, [], False)
        assert m.effective_euler == ()
        assert ambiguity(m) == 0

    def test_plain_model(self):
        m = ContactHomologyModel(1, [2], False)
        assert m.effective_euler == (2,)

    def test_tight_effective_euler_is_zero(self):
        m = ContactHomologyModel(1, [2], True)
        assert m.effective_euler == (0,)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            ContactHomologyModel(2, [1], False)
        with pytest.raises(LengthMismatch):
            ContactHomologyModel(-1, [], False)


class TestModelConstruction:
    """The model checks its own fields when it is built, with one
    message per fault."""

    @pytest.mark.parametrize(
        "rank, euler, message",
        [
            (-1, (), "rank must be non-negative, got -1"),
            (1.0, (1,), "rank must be an integer, got 1.0"),
            (True, (1,), "rank must be an integer, got True"),
            ("1", (1,), "rank must be an integer, got '1'"),
            (2, (1,), "euler vector has length 1, expected rank 2"),
            (0, (1,), "euler vector has length 1, expected rank 0"),
            (1, [], "euler vector has length 0, expected rank 1"),
            (-1, (1,), "rank must be non-negative, got -1"),
            (1, (1.5,), "euler entries must be integers, got 1.5"),
            (2, (1, True), "euler entries must be integers, got True"),
            (1, ("1",), "euler entries must be integers, got '1'"),
            (2, (1.5,), "euler vector has length 1, expected rank 2"),
        ],
    )
    def test_invalid_field_raises_at_construction(self, rank, euler, message):
        with pytest.raises(LengthMismatch) as exc:
            ContactHomologyModel(rank, euler, False)
        assert str(exc.value) == message

    def test_fields_are_stored_as_tuple_and_bool(self):
        m = ContactHomologyModel(2, [1, 2], False)
        assert (m.euler, m.tight) == ((1, 2), False)
        assert type(m.tight) is bool
        assert m == ContactHomologyModel(2, (1, 2), False)

    @pytest.mark.parametrize("tight", ["false", 0, 1, 0.0, None])
    def test_tight_must_be_a_bool(self, tight):
        with pytest.raises(LengthMismatch) as exc:
            ContactHomologyModel(1, [2], tight)
        assert str(exc.value) == f"tight must be a bool, got {tight!r}"


class TestClassAndProfileConstruction:
    """A surface class and an intersection profile check their entries
    when they are built, as a model checks its Euler entries."""

    @pytest.mark.parametrize(
        "offset, message",
        [
            ((1.5,), "offset entries must be integers, got 1.5"),
            ((True,), "offset entries must be integers, got True"),
            ((0, "1"), "offset entries must be integers, got '1'"),
            ([0, None], "offset entries must be integers, got None"),
        ],
    )
    def test_offset_entries_must_be_integers(self, offset, message):
        with pytest.raises(LengthMismatch) as exc:
            RelativeSurfaceClass(offset)
        assert str(exc.value) == message

    def test_offset_is_stored_as_a_tuple(self):
        s = RelativeSurfaceClass([1, 2])
        assert s.offset == (1, 2)
        assert s == cls(1, 2) and hash(s) == hash(cls(1, 2))

    def test_a_class_is_its_offset(self):
        # the pair is fixed, so the offset is the class's only field
        assert RelativeSurfaceClass._fields == ("offset",)
        assert RelativeSurfaceClass(offset=(1, 2)) == RelativeSurfaceClass([1, 2])
        assert RelativeSurfaceClass((1, 2)) != RelativeSurfaceClass((2, 1))

    def test_a_float_offset_never_reaches_rot_diff(self):
        m = ContactHomologyModel(1, [2], False)
        with pytest.raises(LengthMismatch):
            rot_diff(m, RelativeSurfaceClass((1.5,)), cls(0))

    @pytest.mark.parametrize(
        "k, j, message",
        [
            (1.0, 1.0, "intersection numbers must be integers, got 1.0"),
            (True, True, "intersection numbers must be integers, got True"),
            (1, "1", "intersection numbers must be integers, got '1'"),
            (None, 0, "intersection numbers must be integers, got None"),
        ],
    )
    def test_profile_entries_must_be_integers(self, k, j, message):
        with pytest.raises(InconsistentProfile) as exc:
            IntersectionProfile(k, j)
        assert str(exc.value) == message


class TestTbDiff:
    def test_always_zero(self):
        rng = random.Random(1)
        for _ in range(300):
            rank = rng.randint(0, 4)
            m = ContactHomologyModel(rank, [rng.randint(-5, 5) for _ in range(rank)], rng.random() < 0.5)
            s1 = cls(*(rng.randint(-4, 4) for _ in range(rank)))
            s2 = cls(*(rng.randint(-4, 4) for _ in range(rank)))
            assert tb_diff(m, s1, s2) == 0

    def test_equal_classes(self):
        m = ContactHomologyModel(2, [1, 2], False)
        s = cls(3, -1)
        assert tb_diff(m, s, s) == 0


class TestTwistTransfer:
    def test_zero_profile(self):
        m = ContactHomologyModel(0, [], False)
        assert twist_transfer(m, cls(), cls(), IntersectionProfile(0, 0)) == (0, 0)

    def test_three_ribbon_arcs(self):
        # One twist per arc on each boundary: three arcs give (3, 3).
        m = ContactHomologyModel(1, [0], False)
        s1, s2 = cls(1), cls(0)
        assert twist_transfer(m, s1, s2, IntersectionProfile(3, 3)) == (3, 3)

    def test_inconsistent_profile(self):
        m = ContactHomologyModel(1, [0], False)
        with pytest.raises(InconsistentProfile):
            twist_transfer(m, cls(0), cls(0), IntersectionProfile(1, 2))

    def test_components_always_equal(self):
        rng = random.Random(2)
        for _ in range(100):
            k = rng.randint(-6, 6)
            out = twist_transfer(
                ContactHomologyModel(0, [], False), cls(), cls(), IntersectionProfile(k, k)
            )
            assert out[0] == out[1] == k


class TestEulerDifferences:
    def test_equal_offsets_vanish(self):
        m = ContactHomologyModel(3, [2, -1, 5], False)
        s = cls(1, 2, 3)
        assert rot_diff(m, s, s) == 0
        assert sl_diff(m, s, s) == 0

    def test_single_generator_example(self):
        m = ContactHomologyModel(1, [2], False)
        assert rot_diff(m, cls(3), cls(0)) == 6

    def test_generator_by_generator_summation(self):
        rng = random.Random(3)
        for _ in range(200):
            rank = rng.randint(0, 4)
            m = ContactHomologyModel(rank, [rng.randint(-5, 5) for _ in range(rank)], False)
            off1 = tuple(rng.randint(-4, 4) for _ in range(rank))
            off2 = tuple(rng.randint(-4, 4) for _ in range(rank))
            total = rot_diff(m, cls(*off1), cls(*off2))
            # walk from off2 to off1 one generator at a time
            walked = 0
            current = list(off2)
            for i in range(rank):
                step = list(current)
                step[i] = off1[i]
                walked += rot_diff(m, cls(*step), cls(*current))
                current = step
            assert walked == total
            assert sl_diff(m, cls(*off1), cls(*off2)) == total

    def test_tight_model_always_zero(self):
        rng = random.Random(4)
        for _ in range(100):
            rank = rng.randint(0, 4)
            m = ContactHomologyModel(rank, [rng.randint(-5, 5) for _ in range(rank)], True)
            s1 = cls(*(rng.randint(-4, 4) for _ in range(rank)))
            s2 = cls(*(rng.randint(-4, 4) for _ in range(rank)))
            assert rot_diff(m, s1, s2) == 0
            assert sl_diff(m, s1, s2) == 0

    def test_length_guard(self):
        m = ContactHomologyModel(2, [1, 1], False)
        with pytest.raises(LengthMismatch):
            rot_diff(m, cls(0), cls(0, 0))

    @pytest.mark.parametrize("f", [tb_diff, rot_diff, sl_diff], ids=lambda f: f.__name__)
    def test_length_guard_names_the_class_at_fault(self, f):
        m = ContactHomologyModel(2, [1, 1], False)
        for pair, which in (((cls(0), cls(0, 0)), "first"), ((cls(0, 0), cls(0)), "second")):
            with pytest.raises(LengthMismatch) as exc:
                f(m, *pair)
            assert str(exc.value) == f"offset of the {which} class has length 1, expected rank 2"
        # both wrong: the first is named
        with pytest.raises(LengthMismatch, match="^offset of the first class has length 3,"):
            f(m, cls(0, 0, 0), cls())

    def test_vanishes_exactly_on_kernel_of_euler(self):
        m = ContactHomologyModel(2, [2, -3], False)
        # (3, 2) lies in the kernel of (2, -3); (1, 0) does not.
        assert rot_diff(m, cls(3, 2), cls(0, 0)) == 0
        assert rot_diff(m, cls(1, 0), cls(0, 0)) != 0
        rng = random.Random(6)
        for _ in range(200):
            off1 = (rng.randint(-4, 4), rng.randint(-4, 4))
            off2 = (rng.randint(-4, 4), rng.randint(-4, 4))
            delta = (off1[0] - off2[0], off1[1] - off2[1])
            in_kernel = 2 * delta[0] - 3 * delta[1] == 0
            assert (rot_diff(m, cls(*off1), cls(*off2)) == 0) == in_kernel


class TestAmbiguity:
    def test_gcd_example_with_enumeration(self):
        # Enumerating euler.v over the offset box confirms the gcd: the
        # unit offsets realize each euler entry, so the gcd of the
        # achieved value set equals the gcd of the entries.
        import math

        m = ContactHomologyModel(2, [4, 6], False)
        d = ambiguity(m)
        assert d == 2
        values = {
            rot_diff(m, cls(*v), cls(0, 0))
            for v in product(range(-3, 4), repeat=2)
        }
        assert all(v % d == 0 for v in values)
        assert math.gcd(*values) == d

    def test_tight_is_zero(self):
        assert ambiguity(ContactHomologyModel(2, [4, 6], True)) == 0

    def test_rank_zero(self):
        assert ambiguity(ContactHomologyModel(0, [], False)) == 0

    def test_divides_every_difference(self):
        rng = random.Random(5)
        for _ in range(200):
            rank = rng.randint(1, 4)
            m = ContactHomologyModel(rank, [rng.randint(-5, 5) for _ in range(rank)], False)
            d = ambiguity(m)
            s1 = cls(*(rng.randint(-4, 4) for _ in range(rank)))
            s2 = cls(*(rng.randint(-4, 4) for _ in range(rank)))
            value = rot_diff(m, s1, s2)
            if d == 0:
                assert value == 0
            else:
                assert value % d == 0
