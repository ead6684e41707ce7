"""The contract every value class keeps: type-strict equality, hashing
by value, immutability, the ``Name(field=value, ...)`` repr, copies and
pickles equal to the original, positional and keyword construction
with the same defaults, and the construction checks with their error
types and messages."""

import copy
import pickle

import pytest

from legrid import (
    ClassicalInvariants,
    Commute,
    ContactHomologyModel,
    CrossingEvent,
    CuspCounts,
    Destabilize,
    FramedPairState,
    GridDiagram,
    GridMove,
    InconsistentProfile,
    IntersectionPattern,
    IntersectionProfile,
    LegendrianStab,
    LengthMismatch,
    MultipleSingularClasps,
    NotAPermutation,
    OrientationFlag,
    RelativeInvariants,
    RelativeSurfaceClass,
    ScriptResult,
    SharedCell,
    SizeMismatch,
    Stabilize,
    TraceStep,
    Translate,
    new_grid,
    to_front,
)

UNKNOT = (2, [0, 1], [1, 0])


def _step():
    return TraceStep(0, None, (ClassicalInvariants(-1, 0),), None, ())


# (build one value, its pinned repr): one row per value class; each
# builder makes a fresh, equal object on every call
VALUES = [
    (lambda: CuspCounts(1, 1), "CuspCounts(up=1, down=1)"),
    (lambda: to_front(new_grid(*UNKNOT)),
     "FrontData(writhes=(0,), cusps=(CuspCounts(up=1, down=1),))"),
    (lambda: new_grid(*UNKNOT), "GridDiagram(n=2, xs=(0, 1), os=(1, 0))"),
    (lambda: ClassicalInvariants(-1, 0), "ClassicalInvariants(tb=-1, r=0)"),
    (lambda: OrientationFlag(), "OrientationFlag(surface=1, coorientation=1)"),
    (lambda: RelativeInvariants(1, 2, 3),
     "RelativeInvariants(tb_rel=1, r_rel=2, sl_rel=3, orientation=OrientationFlag(surface=1, coorientation=1))"),
    (lambda: ContactHomologyModel(2, [2, -4], False), "ContactHomologyModel(rank=2, euler=(2, -4), tight=False)"),
    (lambda: RelativeSurfaceClass([1, 0]), "RelativeSurfaceClass(offset=(1, 0))"),
    (lambda: IntersectionProfile(1, 2), "IntersectionProfile(k_dot_A=1, j_dot_A=2)"),
    (lambda: Translate("up"), "Translate(direction='up')"),
    (lambda: Commute("row", 2), "Commute(axis='row', index=2)"),
    (lambda: Stabilize("O", 3, "SE"), "Stabilize(marker='O', column=3, subtype='SE')"),
    (lambda: Destabilize(3), "Destabilize(column=3, row=None)"),
    (lambda: LegendrianStab(1, -1), "LegendrianStab(component=1, sign=-1)"),
    (_step,
     "TraceStep(index=0, move=None, invariants=(ClassicalInvariants(tb=-1, r=0),),"
     " relative=None, flags=())"),
    (lambda: ScriptResult(new_grid(*UNKNOT), (_step(),)),
     "ScriptResult(final=GridDiagram(n=2, xs=(0, 1), os=(1, 0)), trace=(TraceStep(index=0, move=None,"
     " invariants=(ClassicalInvariants(tb=-1, r=0),), relative=None, flags=()),))"),
    (lambda: CrossingEvent(1), "CrossingEvent(sign=1)"),
    (lambda: IntersectionPattern(1, 2, 0, 1, (-1,)),
     "IntersectionPattern(circles=1, ribbon_arcs=2, boundary_parallel_arcs=0, clasps=1, singular=(-1,))"),
]
BUILDERS = [build for build, _ in VALUES]


@pytest.mark.parametrize("build, text", VALUES)
def test_repr_is_pinned(build, text):
    assert repr(build()) == text


@pytest.mark.parametrize("build", BUILDERS)
def test_equal_values_hash_equal(build):
    a, b = build(), build()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


@pytest.mark.parametrize("build", BUILDERS)
def test_copies_and_pickles_are_equal(build):
    value = build()
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert twin == value and type(twin) is type(value) and repr(twin) == repr(value)


def test_equality_is_type_strict():
    assert Translate("up") != ("up",)
    assert CuspCounts(1, 2) != IntersectionProfile(1, 2)
    assert CrossingEvent(1) != (1,)
    assert RelativeSurfaceClass([1, 0]) != (1, 0)
    assert ClassicalInvariants(-1, 0) != (-1, 0)
    assert ClassicalInvariants(0, 1) != CuspCounts(0, 1)
    assert new_grid(*UNKNOT) != (2, (0, 1), (1, 0))
    assert Commute("row", 2) != Commute("col", 2)


def test_grid_move_names_the_move_kinds():
    moves = (Translate("up"), Commute("row", 2), Stabilize("O", 3, "SE"), Destabilize(3), LegendrianStab(1, -1))
    assert all(isinstance(move, GridMove) for move in moves)


def test_framed_pair_state_stays_a_tuple():
    s = FramedPairState(1, -2)
    assert isinstance(s, tuple) and s == (1, -2, 0, 0, 0, 0)
    assert FramedPairState() == (0,) * 6
    assert FramedPairState(sJ=4) == FramedPairState._make((0, 0, 0, 0, 0, 4))
    assert type(FramedPairState._make(range(6))) is FramedPairState
    assert FramedPairState._fields == ("tw_K", "tw_J", "w_K", "w_J", "sK", "sJ")
    assert repr(s) == "FramedPairState(tw_K=1, tw_J=-2, w_K=0, w_J=0, sK=0, sJ=0)"
    assert s.triple == (3, 0, 0)
    with pytest.raises(AttributeError):
        s.tw_K = 0


@pytest.mark.parametrize("build", BUILDERS)
def test_fields_cannot_be_set_or_deleted(build):
    value = build()
    assert type(value).__name__ in repr(value)
    field = repr(value).split("(", 1)[1].split("=", 1)[0]
    before = getattr(value, field)
    for name in (field, "unlisted"):
        with pytest.raises(AttributeError):
            setattr(value, name, 0)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert getattr(value, field) is before
    assert value == build()


def test_grid_tables_cannot_be_set_or_deleted():
    g = new_grid(*UNKNOT)
    for name in ("x_col_by_row", "component_by_column", "component_count"):
        with pytest.raises(AttributeError):
            setattr(g, name, 0)
        with pytest.raises(AttributeError):
            delattr(g, name)
    assert g.component_count == 1


def test_positional_and_keyword_construction_share_defaults():
    assert OrientationFlag() == OrientationFlag(1, 1) == OrientationFlag(surface=1, coorientation=1)
    assert OrientationFlag(-1) == OrientationFlag(coorientation=1, surface=-1)
    assert Destabilize(3) == Destabilize(3, None) == Destabilize(column=3) == Destabilize(row=None, column=3)
    assert Destabilize(3).row is None
    empty = IntersectionPattern()
    assert empty == IntersectionPattern(0, 0, 0, 0, ()) == IntersectionPattern(singular=(), clasps=0)
    assert (empty.circles, empty.ribbon_arcs, empty.boundary_parallel_arcs, empty.clasps) == (0, 0, 0, 0)
    assert empty.singular == ()
    rel = RelativeInvariants(1, 2, 3)
    assert rel.orientation == OrientationFlag()
    assert rel == RelativeInvariants(sl_rel=3, r_rel=2, tb_rel=1, orientation=OrientationFlag())
    assert rel != RelativeInvariants(1, 2, 3, OrientationFlag(-1))
    assert new_grid(*UNKNOT) == GridDiagram(n=2, xs=[0, 1], os=(1, 0))
    assert GridDiagram(os=[1, 0], n=2, xs=[0, 1]).xs == (0, 1)
    assert ContactHomologyModel(rank=1, euler=[3], tight=True).euler == (3,)
    assert RelativeSurfaceClass(offset=[1]) == RelativeSurfaceClass([1])
    assert RelativeSurfaceClass(offset=[1]).offset == (1,)
    assert ClassicalInvariants(r=0, tb=-1) == ClassicalInvariants(-1, 0)
    assert Stabilize(subtype="NE", column=0, marker="X") == Stabilize("X", 0, "NE")
    assert OrientationFlag(1, -1).flipped() == OrientationFlag(-1, -1)


# (construction, error type, exact message): one row per check kind of
# every class that checks its fields; ``tests/test_moves.py``'s
# INVALID_MOVES holds the moves' rows
INVALID = [
    (lambda: GridDiagram(2.0, [0, 1], [1, 0]), SizeMismatch, "grid size must be an integer, got 2.0"),
    (lambda: GridDiagram(0, [], []), SizeMismatch, "grid size must be positive, got 0"),
    (lambda: GridDiagram(2, [0], [1, 0]), SizeMismatch, "X list has length 1, expected 2"),
    (lambda: GridDiagram(2, [0, 1], [1]), SizeMismatch, "O list has length 1, expected 2"),
    (lambda: GridDiagram(2, [0, 0], [1, 0]), NotAPermutation, "X rows are not a permutation of 0..1"),
    (lambda: GridDiagram(2, [0, 1], [1.0, 0]), NotAPermutation, "O rows are not a permutation of 0..1"),
    (lambda: GridDiagram(2, [0, 1], [0, 1]), SharedCell, "column 0 holds X and O in the same cell"),
    (lambda: OrientationFlag(2), ValueError, "surface must be +1 or -1, got 2"),
    (lambda: OrientationFlag(1, True), ValueError, "coorientation must be +1 or -1, got True"),
    (lambda: ContactHomologyModel("1", [0], False), LengthMismatch, "rank must be an integer, got '1'"),
    (lambda: ContactHomologyModel(-1, [], False), LengthMismatch, "rank must be non-negative, got -1"),
    (lambda: ContactHomologyModel(1, [], False), LengthMismatch, "euler vector has length 0, expected rank 1"),
    (lambda: ContactHomologyModel(1, [1.0], False), LengthMismatch, "euler entries must be integers, got 1.0"),
    (lambda: ContactHomologyModel(0, [], 1), LengthMismatch, "tight must be a bool, got 1"),
    (lambda: RelativeSurfaceClass([1.5]), LengthMismatch, "offset entries must be integers, got 1.5"),
    (lambda: IntersectionProfile(1, None), InconsistentProfile, "intersection numbers must be integers, got None"),
    (lambda: CrossingEvent(0), ValueError, "crossing sign must be +1 or -1, got 0"),
    (lambda: IntersectionPattern(circles=-1), ValueError, "circles must be a non-negative integer, got -1"),
    (lambda: IntersectionPattern(clasps=True), ValueError, "clasps must be a non-negative integer, got True"),
    (lambda: IntersectionPattern(singular=[1]), ValueError, "singular must be a tuple of signs, got [1]"),
    (lambda: IntersectionPattern(singular=(2,)), ValueError, "singular clasp sign must be +1 or -1, got 2"),
    (lambda: IntersectionPattern(singular=(1, 1)), MultipleSingularClasps,
     "at most one singular clasp is possible, got 2"),
]


@pytest.mark.parametrize("build, error, message", INVALID)
def test_construction_checks_keep_type_and_message(build, error, message):
    with pytest.raises(error) as exc:
        build()
    assert type(exc.value) is error
    assert str(exc.value) == message
