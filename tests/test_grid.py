import hashlib
import inspect
import random
import re
from collections import Counter
from fractions import Fraction
from functools import cache
from itertools import combinations, permutations
from math import prod

import pytest
from hypothesis import assume, given, settings, strategies as st

from legrid import (
    Convention,
    GridDiagram,
    NotAPermutation,
    ParityViolation,
    ParseError,
    SameComponent,
    SharedCell,
    SizeMismatch,
    UnknownComponent,
    classical,
    grid_to_json,
    grid_to_text,
    linking_number,
    new_grid,
    parse_grid,
    reading,
    reverse_component,
    to_front,
)
from legrid import sampling
from legrid.grid import _int_token, _read_json, _sweep
from legrid.sampling import random_grid, random_knot, random_link

from helpers import (
    GRID_TABLES,
    all_marker_lists,
    brute_crossings,
    brute_cusps,
    brute_linking,
    brute_writhe,
    crossings_and_seifert_circles,
    trace_components,
)

UNKNOT = (2, [0, 1], [1, 0])
SPLIT = (4, [0, 1, 2, 3], [1, 0, 3, 2])
TREFOIL = (5, [0, 1, 2, 3, 4], [2, 3, 4, 0, 1])
# 4x4 two-component grid with two signed crossings, found by exhaustive
# search (see test_linking_hopf_search below).
HOPF = (4, [0, 1, 2, 3], [2, 3, 0, 1])
# HOPF with component 0 reversed: the positive Hopf link.
POSITIVE_HOPF = (4, [2, 1, 0, 3], [0, 3, 2, 1])


@st.composite
def grids(draw, min_n=2, max_n=7):
    n = draw(st.integers(min_n, max_n))
    xs = draw(st.permutations(range(n)))
    os = draw(st.permutations(range(n)))
    assume(all(x != o for x, o in zip(xs, os)))
    return new_grid(n, xs, os)


class TestNewGrid:
    def test_minimal_unknot(self):
        g = new_grid(*UNKNOT)
        assert g.component_count == 1

    def test_split_grid_has_two_components(self):
        g = new_grid(*SPLIT)
        assert (g.component_count, g.component_by_column) == (2, (0, 0, 1, 1))

    def test_shared_cell(self):
        with pytest.raises(SharedCell):
            new_grid(2, [0, 1], [0, 1])

    def test_not_a_permutation(self):
        with pytest.raises(NotAPermutation):
            new_grid(2, [0, 0], [1, 0])
        with pytest.raises(NotAPermutation):
            new_grid(2, [0, 1], [1, 1])

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatch):
            new_grid(3, [0, 1], [1, 0])
        with pytest.raises(SizeMismatch):
            new_grid(0, [], [])

    def test_one_by_one_is_forced_shared_cell(self):
        with pytest.raises(SharedCell):
            new_grid(1, [0], [0])

    @given(grids())
    def test_components_partition_columns(self, g):
        owner = g.component_by_column
        assert len(owner) == g.n and set(owner) == set(range(g.component_count))
        columns = [[c for c in range(g.n) if owner[c] == k] for k in range(g.component_count)]
        assert columns == trace_components(g.xs, g.os)


def _grid_error(build):
    """(type, message) of the grid error ``build()`` raises, or None."""
    try:
        build()
    except (SizeMismatch, NotAPermutation, SharedCell) as e:
        return type(e), str(e)
    return None


@st.composite
def marker_lists(draw):
    """A size and two marker lists of any length: arbitrary small ints,
    or a permutation of the rows so that valid grids come up too."""
    n = draw(st.integers(-1, 7))
    markers = st.one_of(st.lists(st.integers(-2, 8), max_size=9), st.permutations(range(max(n, 0))))
    return n, draw(markers), draw(markers)


class TestConstruction:
    """Every GridDiagram is checked when it is built, by the checks
    new_grid documents, in their order."""

    @pytest.mark.parametrize(
        "n, xs, os, error",
        [
            (0, [0], [0], (SizeMismatch, "grid size must be positive, got 0")),
            # a size that is not an int is refused before anything else
            (2.0, [0, 1], [1, 0], (SizeMismatch, "grid size must be an integer, got 2.0")),
            (True, [0], [1], (SizeMismatch, "grid size must be an integer, got True")),
            ("2", [0, 1], [1, 0], (SizeMismatch, "grid size must be an integer, got '2'")),
            (None, [0], [0], (SizeMismatch, "grid size must be an integer, got None")),
            # a size error before an X error, X length before O length
            (3, [0, 0], [0], (SizeMismatch, "X list has length 2, expected 3")),
            (3, [0, 1, 2], [0], (SizeMismatch, "O list has length 1, expected 3")),
            # an X error before an O error and before a shared cell
            (3, [1, 2, 2], [0, 0, 0], (NotAPermutation, "X rows are not a permutation of 0..2")),
            (3, [0, 1, 3], [2, 0, 1], (NotAPermutation, "X rows are not a permutation of 0..2")),
            (3, [0, -1, 2], [1, 2, 0], (NotAPermutation, "X rows are not a permutation of 0..2")),
            # an O error before a shared cell
            (3, [0, 1, 2], [0, 0, 1], (NotAPermutation, "O rows are not a permutation of 0..2")),
            # the lowest shared column is reported
            (4, [0, 1, 2, 3], [1, 0, 2, 3], (SharedCell, "column 2 holds X and O in the same cell")),
            (1, [0], [0], (SharedCell, "column 0 holds X and O in the same cell")),
            # a marker that only compares equal to an int is no row
            (2, [0.0, 1.0], [1.0, 0.0], (NotAPermutation, "X rows are not a permutation of 0..1")),
            (2, [False, True], [True, False], (NotAPermutation, "X rows are not a permutation of 0..1")),
            (2, [0, 1], [True, 0], (NotAPermutation, "O rows are not a permutation of 0..1")),
        ],
    )
    def test_error_precedence(self, n, xs, os, error):
        assert _grid_error(lambda: new_grid(n, xs, os)) == error
        assert _grid_error(lambda: GridDiagram(n, tuple(xs), tuple(os))) == error

    def test_direct_construction_is_checked(self):
        with pytest.raises(NotAPermutation) as exc:
            GridDiagram(3, (0, 0, 1), (1, 2, 0))
        assert exc.value.which == "x"
        with pytest.raises(SharedCell) as exc:
            GridDiagram(3, (0, 1, 2), (2, 1, 0))
        assert exc.value.column == 1

    def test_direct_construction_from_lists_is_a_grid_like_any_other(self):
        g = GridDiagram(2, [0, 1], [1, 0])
        assert (g.xs, g.os) == ((0, 1), (1, 0))
        assert g == new_grid(2, [0, 1], [1, 0])
        assert hash(g) == hash(new_grid(2, [0, 1], [1, 0]))

    @given(marker_lists())
    def test_construction_gives_a_valid_grid_or_a_grid_error(self, case):
        n, xs, os = case
        error = _grid_error(lambda: GridDiagram(n, tuple(xs), tuple(os)))
        assert _grid_error(lambda: new_grid(n, xs, os)) == error
        valid = n >= 1 and sorted(xs) == list(range(n)) == sorted(os) and all(map(int.__ne__, xs, os))
        assert (error is None) == valid
        if valid:
            _check_tables(GridDiagram(n, tuple(xs), tuple(os)))


def _check_tables(g):
    """The derived tables of ``g``, a grid with no memo yet, against the
    raw marker lists; the grid stores nothing else."""
    n, xs, os = g.n, g.xs, g.os
    assert list(vars(g)) == GRID_TABLES
    assert isinstance(g.x_col_by_row, tuple) and isinstance(g.o_col_by_row, tuple)
    assert [xs[c] for c in g.x_col_by_row] == list(range(n))
    assert [os[c] for c in g.o_col_by_row] == list(range(n))
    assert [g.x_col_by_row[r] for r in xs] == [g.o_col_by_row[r] for r in os] == list(range(n))
    cycles = trace_components(list(xs), list(os))
    assert g.component_count == len(cycles)
    assert g.component_by_column == tuple(
        next(k for k, cols in enumerate(cycles) if c in cols) for c in range(n)
    )


class TestDerivedTables:
    def test_every_small_grid(self):
        for n in range(2, 6):
            for xs, os in all_marker_lists(n):
                _check_tables(new_grid(n, xs, os))

    def test_random_links(self):
        rng = random.Random(31)
        for _ in range(200):
            _check_tables(random_link(rng, rng.randint(4, 40)))

    def test_ladder_sizes(self, monkeypatch):
        # the sizes inv-ladder parses; the counts of n = 800 are dropped after the test
        monkeypatch.setattr(sampling, "_COUNTS", {})
        rng = random.Random(32)
        for n in (200, 800):
            for sample in (random_grid, random_knot, random_link):
                _check_tables(sample(rng, n))

    def test_fields_are_the_markers_only(self):
        assert list(inspect.signature(GridDiagram).parameters) == ["n", "xs", "os"]
        a, b = new_grid(*TREFOIL), new_grid(*TREFOIL)
        to_front(a)  # memoized on ``a`` only
        # tables and memos that differ from ``a``'s leave equality, hashing and the repr alone
        vars(b).update(zip(GRID_TABLES[3:], ((), (), (0,), 7)), _front=None, _classical={0: None})
        assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
        assert repr(a) == "GridDiagram(n=5, xs=(0, 1, 2, 3, 4), os=(2, 3, 4, 0, 1))"
        assert a != new_grid(5, [0, 1, 2, 3, 4], [3, 4, 0, 1, 2])

    def test_equal_markers_compare_and_hash_equal(self):
        a, b = new_grid(*TREFOIL), new_grid(*TREFOIL)
        to_front(a)  # memoized on ``a`` only
        assert (a.x_col_by_row, a.o_col_by_row, a.component_by_column, a.component_count) == (
            b.x_col_by_row, b.o_col_by_row, b.component_by_column, b.component_count
        )
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1
        assert a != new_grid(*HOPF)


def _pair_sweep(g, a, b):
    """The crossings of every component in the sweep that
    :func:`linking_number` runs for ``a`` and ``b``: ``a`` over ``b`` at
    ``a``, ``b`` over ``a`` at ``b``, and 0 for every other component."""
    against = [None] * g.component_count
    against[a], against[b] = b, a
    return _sweep(g, against)[0]


class TestFront:
    def test_unknot_front(self):
        n, xs, os = UNKNOT
        f = to_front(new_grid(n, xs, os))
        assert brute_crossings(xs, os) == []
        assert f.writhes == (0,)
        assert f.cusps[0].total == 2

    def test_split_grid_has_no_inter_component_crossings(self):
        n, xs, os = SPLIT
        g = new_grid(n, xs, os)
        assert all(over == under for _, _, _, over, under in brute_crossings(xs, os))
        assert to_front(g).writhes == (0, 0)
        assert _pair_sweep(g, 0, 1) == _pair_sweep(g, 1, 0) == [0, 0]

    @staticmethod
    def _assert_crossings_match_brute_force(xs, os):
        """Every component's writhe, read off the front, and both
        one-sided counts of every pair, read through the pair sweep,
        against the brute-force crossings: every signed count
        ``expected[over][under]``, negated under NE_SW."""
        g = new_grid(len(xs), xs, os)
        size = g.component_count
        expected = [[0] * size for _ in range(size)]
        for _, _, sign, over, under in brute_crossings(xs, os):
            expected[over][under] += sign
        for conv, sign in zip(Convention, (1, -1)):
            read = reading(g, conv)
            assert to_front(read).writhes == tuple(sign * expected[k][k] for k in range(size))
            for a, b in combinations(range(size), 2):
                sides = [0] * size
                sides[a], sides[b] = sign * expected[a][b], sign * expected[b][a]
                assert _pair_sweep(read, a, b) == sides

    def test_crossings_match_brute_force_small(self):
        for n in (2, 3, 4, 5):
            for xs, os in all_marker_lists(n):
                self._assert_crossings_match_brute_force(xs, os)

    @staticmethod
    def _assert_cusps_match_brute_force(xs, os):
        g = new_grid(len(xs), xs, os)
        for conv in Convention:
            cusps = [(cc.up, cc.down) for cc in to_front(reading(g, conv)).cusps]
            assert cusps == brute_cusps(xs, os, conv)

    def test_cusps_match_brute_force_small(self):
        for n in (2, 3, 4, 5):
            for xs, os in all_marker_lists(n):
                self._assert_cusps_match_brute_force(xs, os)

    def test_cusps_match_brute_force_random_links(self):
        rng = random.Random(37)
        for _ in range(60):
            g = random_link(rng, rng.randint(4, 200), rng.randint(2, 3))
            self._assert_cusps_match_brute_force(list(g.xs), list(g.os))

    def test_crossings_match_brute_force_random(self):
        rng = random.Random(31)
        for _ in range(60):
            n = rng.randint(2, 200)
            while True:
                xs = rng.sample(range(n), n)
                os = rng.sample(range(n), n)
                if all(x != o for x, o in zip(xs, os)):
                    break
            self._assert_crossings_match_brute_force(xs, os)

    def test_front_is_read_once_per_grid(self):
        g = new_grid(*TREFOIL)
        f = to_front(g)
        assert to_front(g) is f
        assert f.writhes == (-3,)
        other = to_front(reading(g, Convention.NE_SW))
        assert other.writhes == tuple(-w for w in f.writhes)

    @given(grids())
    def test_cusp_parity(self, g):
        for conv in Convention:
            f = to_front(reading(g, conv))
            assert all(cc.total % 2 == 0 for cc in f.cusps)

    def test_convention_parse(self):
        assert Convention("nw-se") is Convention.NW_SE
        assert Convention("ne-sw") is Convention.NE_SW
        with pytest.raises(ValueError):
            Convention("sideways")


class TestWrithe:
    def test_unknot(self):
        assert to_front(new_grid(*UNKNOT)).writhes[0] == 0

    def test_split_components(self):
        assert to_front(new_grid(*SPLIT)).writhes == (0, 0)

    def test_trefoil_matches_brute_force(self):
        n, xs, os = TREFOIL
        assert brute_writhe(xs, os, 0) == -3  # frozen from the sign oracle
        assert to_front(new_grid(n, xs, os)).writhes[0] == -3

    def test_random_grids_match_brute_force(self):
        rng = random.Random(11)
        for _ in range(100):
            n = rng.randint(2, 8)
            while True:
                xs = rng.sample(range(n), n)
                os = rng.sample(range(n), n)
                if all(x != o for x, o in zip(xs, os)):
                    break
            writhes = to_front(new_grid(n, xs, os)).writhes
            assert list(writhes) == [brute_writhe(xs, os, c) for c in range(len(trace_components(xs, os)))]


class TestLinking:
    def test_split_link(self):
        assert linking_number(new_grid(*SPLIT), 0, 1) == 0

    def test_linking_hopf_search(self):
        # Exhaustive search over 4x4 grids: every two-component diagram
        # with |signed inter-component crossings| = 2 links once.
        from helpers import all_marker_lists, brute_crossings

        found = 0
        for xs, os in all_marker_lists(4):
            comps = trace_components(xs, os)
            if len(comps) != 2:
                continue
            signed = sum(s for _, _, s, a, b in brute_crossings(xs, os) if a != b)
            if abs(signed) == 2:
                found += 1
                assert abs(linking_number(new_grid(4, xs, os), 0, 1)) == 1
        assert found > 0

    def test_hopf_fixture(self):
        assert linking_number(new_grid(*HOPF), 0, 1) == -1

    def test_positive_hopf_pins_the_sign(self):
        # a global sign flip keeps every symmetry check, so one sign is pinned
        g = new_grid(*POSITIVE_HOPF)
        assert brute_linking(*POSITIVE_HOPF[1:], 0, 1) == 1
        assert linking_number(g, 0, 1) == linking_number(g, 1, 0) == 1
        # the mirror reading flips every crossing sign
        assert linking_number(reading(g, Convention.NE_SW), 0, 1) == -1

    @pytest.mark.parametrize("conv", ["ne-sw", "nw-se", None, 1])
    def test_only_a_convention_names_a_reading(self, conv):
        # a value equal to a member's is no member: taken as nw-se, it
        # would give the mirror reading's lk the wrong sign
        g = new_grid(*POSITIVE_HOPF)
        with pytest.raises(ValueError, match=r"is not a Convention$"):
            reading(g, conv)
        assert reading(g, Convention.NW_SE) is g
        assert linking_number(reading(g, Convention.NE_SW), 0, 1) == -1

    def test_symmetry_and_reversal(self):
        rng = random.Random(23)
        seen = 0
        while seen < 100:
            n = rng.randint(4, 8)
            xs = rng.sample(range(n), n)
            os = rng.sample(range(n), n)
            if any(x == o for x, o in zip(xs, os)):
                continue
            g = new_grid(n, xs, os)
            if g.component_count < 2:
                continue
            seen += 1
            a, b = rng.sample(range(g.component_count), 2)
            lk = linking_number(g, a, b)
            assert lk == linking_number(g, b, a)
            assert lk == brute_linking(xs, os, a, b)
            assert linking_number(reverse_component(g, a), a, b) == -lk

    def test_same_component_rejected(self):
        with pytest.raises(SameComponent):
            linking_number(new_grid(*SPLIT), 1, 1)

    @staticmethod
    def _skew(monkeypatch, component, change):
        """Make every sweep count ``change`` more crossings at ``component``."""
        import legrid.grid as grid_mod

        def skewed(g, against):
            crossings, up, down = _sweep(g, against)
            crossings[component] += change
            return crossings, up, down

        monkeypatch.setattr(grid_mod, "_sweep", skewed)

    def test_odd_crossing_sum_raises(self, monkeypatch):
        g = new_grid(*SPLIT)
        self._skew(monkeypatch, 0, 1)
        with pytest.raises(ParityViolation) as exc:
            linking_number(g, 0, 1)
        assert str(exc.value) == "components 0 and 1 cross 1 signed times with 0 over but 0 with 1 over"

    def test_one_sided_even_change_raises(self, monkeypatch):
        # the parity of the sum survives an even change to one side, but
        # a planar diagram's two sides agree exactly
        g = new_grid(*POSITIVE_HOPF)
        assert _pair_sweep(g, 0, 1) == [1, 1]
        self._skew(monkeypatch, 0, 2)
        with pytest.raises(ParityViolation) as exc:
            linking_number(g, 0, 1)
        assert str(exc.value) == "components 0 and 1 cross 3 signed times with 0 over but 1 with 1 over"

    def test_unknown_component(self):
        with pytest.raises(UnknownComponent):
            linking_number(new_grid(*SPLIT), 0, 5)


class TestBennequinBound:
    """Bennequin's inequality on the surface that Seifert's algorithm
    gives on the grid's diagram: tb(L) + |r(L)| <= c - s, with c
    crossings and s Seifert circles, where tb(L) = sum of the tb_i + 2 *
    sum of the lk(i, j) and r(L) = sum of the r_i.  The front of either
    reading has the grid's diagram up to isotopy of the plane and
    crossing signs, so c and s do not depend on the reading."""

    @pytest.mark.parametrize(
        "markers, counts",
        [
            (UNKNOT, (0, 1)),  # one rectangle
            (SPLIT, (0, 2)),  # two disjoint rectangles
            # two rectangles that cross twice; smoothing both crossings
            # gives the two Seifert circles of the annulus
            (HOPF, (2, 2)),
            (POSITIVE_HOPF, (2, 2)),
            # crossings at (column, row) (1, 2), (2, 3) and (3, 1), all of
            # one sign: the closed 2-braid, with two Seifert circles
            (TREFOIL, (3, 2)),
        ],
    )
    def test_counter_matches_hand_counts(self, markers, counts):
        _, xs, os = markers
        assert crossings_and_seifert_circles(xs, os) == counts

    @staticmethod
    def _sides(g):
        """(tb(L) + |r(L)|, c - s) of ``g``'s NW_SE reading."""
        count = g.component_count
        invariants = [classical(g, i) for i in range(count)]
        lk = sum(linking_number(g, i, j) for i in range(count) for j in range(i + 1, count))
        c, s = crossings_and_seifert_circles(g.xs, g.os)
        return sum(inv.tb for inv in invariants) + 2 * lk + abs(sum(inv.r for inv in invariants)), c - s

    @pytest.mark.parametrize("markers, conv", [(UNKNOT, Convention.NW_SE), (TREFOIL, Convention.NE_SW)])
    def test_sharp_on_the_unknot_and_the_mirror_trefoil(self, markers, conv):
        # tb = -1 with c - s = -1, and the maximal tb = 1 with c - s = 1
        left, right = self._sides(reading(new_grid(*markers), conv))
        assert left == right

    @settings(max_examples=200)
    @given(grids(max_n=8))
    def test_holds_under_both_readings(self, g):
        for conv in Convention:
            left, right = self._sides(reading(g, conv))
            assert left <= right


class TestReverse:
    @given(grids())
    def test_involution(self, g):
        c = 0
        assert reverse_component(reverse_component(g, c), c) == g

    def test_reversed_unknot_is_valid(self):
        g = reverse_component(new_grid(*UNKNOT), 0)
        assert g.component_count == 1

    def test_unknown_component(self):
        with pytest.raises(UnknownComponent):
            reverse_component(new_grid(*UNKNOT), 3)


class TestSerialization:
    def test_text_round_trip(self):
        g = new_grid(*TREFOIL)
        assert parse_grid(grid_to_text(g)) == g

    def test_text_format_example(self):
        g = parse_grid("n=2\nX=0,1\nO=1,0\n")
        assert (g.n, g.xs, g.os) == (2, (0, 1), (1, 0))

    def test_comments_and_blank_lines(self):
        text = "# the minimal unknot\n\nn=2\nX=0,1\n# markers\nO=1,0\n\n"
        assert parse_grid(text) == new_grid(*UNKNOT)

    def test_a_comment_is_a_whole_line(self):
        # unlike a script line, a grid line keeps what follows "#"
        with pytest.raises(ParseError) as exc:
            parse_grid("n=2  # two\nX=0,1\nO=1,0\n")
        assert (exc.value.line, exc.value.column, exc.value.message) == (1, 3, "not an integer: '2  # two'")

    @pytest.mark.parametrize(
        "text, error",
        [
            ("n=2\vX=0,1 \udcc3\nO=1,0\n", (2, 7, "not UTF-8: invalid continuation byte")),
            ('{"n": 2,\f"x": [0, 1], "o": [1, 0]\udcff}', (2, 25, "not UTF-8: invalid start byte")),
        ],
    )
    def test_a_str_is_checked_for_bytes_that_are_not_utf8(self, text, error):
        # text and JSON alike, numbered by str.splitlines as a file is
        with pytest.raises(ParseError) as exc:
            parse_grid(text)
        assert (exc.value.line, exc.value.column, exc.value.message) == error

    def test_json_round_trip_is_byte_identical(self):
        g = new_grid(*SPLIT)
        emitted = grid_to_json(g)
        assert emitted == '{"n": 4, "x": [0, 1, 2, 3], "o": [1, 0, 3, 2]}'
        assert parse_grid(emitted) == g
        assert grid_to_json(parse_grid(emitted)) == emitted

    @given(grids())
    def test_round_trips_any_grid(self, g):
        assert parse_grid(grid_to_text(g)) == g
        assert parse_grid(grid_to_json(g)) == g

    def test_parse_error_positions(self):
        with pytest.raises(ParseError) as exc:
            parse_grid("n=2\nX=0,huh\nO=1,0\n")
        assert (exc.value.line, exc.value.column) == (2, 5)
        with pytest.raises(ParseError) as exc:
            parse_grid("m=2\nX=0,1\nO=1,0\n")
        assert exc.value.line == 1
        # leading whitespace counts toward the column on every line
        for text, position in (("  n=abc\nX=0,1\nO=1,0\n", (1, 5)), ("n=2\n  X=0,a\nO=1,0\n", (2, 7))):
            with pytest.raises(ParseError) as exc:
                parse_grid(text)
            assert (exc.value.line, exc.value.column) == position

    @pytest.mark.parametrize(
        "text, position",
        [
            ("n=0_2\nX=0,1\nO=1,0\n", (1, 3)),
            ("n=\u0662\nX=0,1\nO=1,0\n", (1, 3)),
            ("n=2\nX=0,\u0661\nO=1,0\n", (2, 5)),
            ("n=2\nX=0,1\nO=1_0,0\n", (3, 3)),
        ],
    )
    def test_integers_are_ascii_digits(self, text, position):
        # int() alone takes underscores and non-ASCII digits.
        with pytest.raises(ParseError) as exc:
            parse_grid(text)
        assert (exc.value.line, exc.value.column) == position
        assert parse_grid(" n= +2 \nX= 0 ,1\nO=1, 0\n") == parse_grid("n=2\nX=0,1\nO=1,0\n")

    @given(st.text(alphabet=" \t+-_01239\u0661\uff11\u00b2\u00a0x.", max_size=6))
    def test_int_token_is_signed_ascii_digits(self, text):
        if re.fullmatch(r"[+-]?[0-9]+", text.strip()):
            assert _int_token(text) == int(text)
        else:
            with pytest.raises(ValueError):
                _int_token(text)

    def test_bad_permutation_reports_line(self):
        with pytest.raises(NotAPermutation) as exc:
            parse_grid("n=2\nX=0,0\nO=1,0\n")
        assert "line 2" in str(exc.value)

    @pytest.mark.parametrize("comment", ["", "# c\n"])
    def test_list_length_error_names_its_line(self, comment):
        # the line of the list at fault, not the n= line
        lines = 1 + comment.count("\n")
        for text, line, message in (
            ("n=2\nX=0,1\nO=1\n", lines + 2, "O list has length 1, expected 2"),
            ("n=3\n\nX=0,1\nO=1,0,2\n", lines + 2, "X list has length 2, expected 3"),
        ):
            with pytest.raises(SizeMismatch) as exc:
                parse_grid(comment + text)
            assert str(exc.value) == f"line {line}: {message}"
        with pytest.raises(SizeMismatch) as exc:
            parse_grid(comment + "n=-1\nX=0\nO=1\n")
        assert str(exc.value) == f"line {lines}: grid size must be positive, got -1"

    def test_other_text_errors_name_their_line(self):
        with pytest.raises(ParseError) as exc:
            parse_grid("n=2\nY=0,1\nO=1,0\n")
        assert (exc.value.line, exc.value.column, exc.value.message) == (2, 1, "expected X=<comma-separated ints>")
        with pytest.raises(SharedCell) as exc:
            parse_grid("n=2\nX=0,1\nO=0,1\n")
        assert (str(exc.value), exc.value.column) == ("line 2: column 0 holds X and O in the same cell", 0)

    @pytest.mark.parametrize(
        "text, position, message",
        [
            (" m=2\nX=0,1\nO=1,0\n", (1, 2), "expected n=<int>"),
            ("n=2\n\t Y=0,1\nO=1,0\n", (2, 3), "expected X=<comma-separated ints>"),
            ("n=2\nX=0,1\n# c\nO=1,0\n\n  n=3\nX=\n", (6, 3), "expected 3 content lines (n=, X=, O=), found 5"),
            ("n=2\nX=0,1\n# end\n", (3, 1), "expected 3 content lines (n=, X=, O=), found 2"),
            ("n=2\nX=0, a\nO=1,0\n", (2, 6), "not an integer: 'a'"),
            ("n=2\nX=0,1\nO=1,\u3000x \n", (3, 6), "not an integer: 'x'"),
            ("n=2\nX=0,,1\nO=1,0\n", (2, 1), "not an integer: ''"),
            ("n= x\nX=0,1\nO=1,0\n", (1, 4), "not an integer: 'x'"),
            (" n=\nX=0,1\nO=1,0\n", (1, 2), "not an integer: ''"),
        ],
    )
    def test_each_error_points_at_its_token(self, text, position, message):
        # a blank integer is named at its line's key; too few content
        # lines at the end of the text, where no token is at fault
        with pytest.raises(ParseError) as exc:
            parse_grid(text)
        assert (exc.value.line, exc.value.column, exc.value.message) == (*position, message)

    def test_non_ascii_whitespace_pads_a_token(self):
        # a non-ASCII line takes the token-by-token path, which strips
        # every token as _int_token does
        assert parse_grid("n=2\nX=0,\u00a01\nO=1\u3000,0\n") == new_grid(*UNKNOT)

    def test_json_rejects_extra_keys(self):
        with pytest.raises(ParseError):
            parse_grid('{"n": 2, "x": [0, 1], "o": [1, 0], "q": 1}')

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"n": 2, "x": [0, 1]}', 'expected exactly the keys "n", "x", "o"'),
            ('{"n": 2, "x": [0, 1], "o": [1, 0], "q": 1}', 'expected exactly the keys "n", "x", "o"'),
            ('{"n": 2, "x": [0, 1], "O": [1, 0]}', 'expected exactly the keys "n", "x", "o"'),
            ("{}", 'expected exactly the keys "n", "x", "o"'),
            ('{"n": true, "x": [0, 1], "o": [1, 0]}', '"n" must be an integer'),
            ('{"n": 2.0, "x": [0, 1], "o": [1, 0]}', '"n" must be an integer'),
            ('{"n": "2", "x": [0, 1], "o": [1, 0]}', '"n" must be an integer'),
            ('{"n": null, "x": [0, 1], "o": [1, 0]}', '"n" must be an integer'),
            ('{"n": [2], "x": [0, 1], "o": [1, 0]}', '"n" must be an integer'),
            ('{"n": 2, "x": true, "o": [1, 0]}', '"x" must be a list of integers'),
            ('{"n": 2, "x": [0, true], "o": [1, 0]}', '"x" must be a list of integers'),
            ('{"n": 2, "x": [0, 1.0], "o": [1, 0]}', '"x" must be a list of integers'),
            ('{"n": 2, "x": "01", "o": [1, 0]}', '"x" must be a list of integers'),
            ('{"n": 2, "x": {"0": 1}, "o": [1, 0]}', '"x" must be a list of integers'),
            ('{"n": 2, "x": [0, 1], "o": [false, 0]}', '"o" must be a list of integers'),
            ('{"n": 2, "x": [0, 1], "o": [[1], 0]}', '"o" must be a list of integers'),
            ('{"n": 2, "x": [0, 1], "o": null}', '"o" must be a list of integers'),
            # the fields are checked in key order, whatever order the text has
            ('{"o": null, "x": 0, "n": true}', '"n" must be an integer'),
        ],
    )
    def test_json_refusals_are_pinned(self, text, message):
        with pytest.raises(ParseError) as exc:
            parse_grid(text)
        assert type(exc.value) is ParseError
        assert (exc.value.line, exc.value.column, exc.value.message) == (1, 1, message)

    @pytest.mark.parametrize("text", ["[2]", "2", '"n"', "null", "true"])
    def test_json_reader_refuses_what_is_not_an_object(self, text):
        # parse_grid reads only a text that starts with "{" as JSON, and
        # such a text loads as an object or not at all; the model file's
        # reader is the same function (tests/test_cli.py::TestLedgerModel)
        with pytest.raises(ParseError) as exc:
            _read_json(text, n="an integer", x="a list of integers", o="a list of integers")
        assert (exc.value.line, exc.value.column, exc.value.message) == (1, 1, "expected a JSON object")

    def test_missing_lines(self):
        with pytest.raises(ParseError):
            parse_grid("n=2\nX=0,1\n")


class _Path:
    """A stand-in rng that follows one outcome path.  Its i-th call,
    ``randrange(k)`` or ``shuffle`` of a k-list (k! outcomes, in the
    order of ``permutations``), takes outcome ``path[i]``, or 0 past the
    end of the path, and records its number of outcomes in ``ranges``."""

    def __init__(self, path):
        self.path = path
        self.ranges = []

    def _outcome(self, k):
        assert k >= 1
        i = len(self.ranges)
        self.ranges.append(k)
        return self.path[i] if i < len(self.path) else 0

    def randrange(self, k):
        return self._outcome(k)

    def shuffle(self, seq):
        orders = _orders(len(seq))
        seq[:] = [seq[i] for i in orders[self._outcome(len(orders))]]


@cache
def _orders(k):
    """Every permutation of range(k): the outcomes of a shuffle."""
    return list(permutations(range(k)))


def _draw_weights(sample, n, monkeypatch):
    """The probability of each (xs, os) that ``sample(rng, n)`` passes to
    ``new_grid``: the sum over every outcome path of its weight, one over
    the product of its ranges.  The paths are walked like an odometer,
    the last call that has an outcome left stepping first."""
    monkeypatch.setattr(sampling, "new_grid", lambda n, xs, os: bytes(xs + os))
    weights = {}  # xs + os -> probability
    units = {}  # product of ranges -> one Fraction, shared by its paths
    path = []
    while True:
        rng = _Path(path)
        drawn = sample(rng, n)
        size = prod(rng.ranges)
        if size not in units:
            units[size] = Fraction(1, size)
        weights[drawn] = weights.get(drawn, 0) + units[size]
        path += [0] * (len(rng.ranges) - len(path))
        while path and path[-1] + 1 == rng.ranges[len(path) - 1]:
            path.pop()
        if not path:
            return weights
        path[-1] += 1


@cache
def _components_of_small_grids(n):
    """How many valid n-grids have each number of components."""
    return Counter(len(trace_components(xs, os)) for xs, os in all_marker_lists(n))


SAMPLERS = [
    pytest.param(random_grid, range(1, 99), id="grid"),
    pytest.param(random_knot, range(1, 2), id="knot"),
    pytest.param(random_link, range(2, 99), id="link"),
    pytest.param(lambda rng, n: random_link(rng, n, 3), range(3, 99), id="link3"),
]


# every sampler with the smallest size that it fits
_EVERY_SAMPLER = (
    (random_grid, 2),
    (random_knot, 2),
    (random_link, 4),
    (lambda rng, n: random_link(rng, n, 3), 6),
)


class TestSampling:
    """Each sampler draws the tracing permutation pi directly, then the
    X rows once, and builds one grid."""

    @pytest.mark.parametrize("sample, wanted", SAMPLERS)
    @pytest.mark.parametrize("n", range(2, 7))
    def test_exact_weights(self, monkeypatch, sample, wanted, n):
        """Over every outcome path of the rng, each valid n-grid with a
        wanted number of components is drawn with probability exactly
        1/|fits|, and nothing else is drawn.  A size that no such grid
        fits raises ValueError."""
        fits = sum(count for k, count in _components_of_small_grids(n).items() if k in wanted)
        if not fits:
            with pytest.raises(ValueError):
                sample(_Path([]), n)
            return
        weights = _draw_weights(sample, n, monkeypatch)
        assert set(weights.values()) == {Fraction(1, fits)}
        assert len(weights) == fits
        rows = set(range(n))
        for drawn in weights:
            xs, os = list(drawn[:n]), list(drawn[n:])
            assert set(xs) == set(os) == rows and all(x != o for x, o in zip(xs, os))
            assert len(trace_components(xs, os)) in wanted

    @pytest.mark.parametrize("sample, wanted", SAMPLERS)
    def test_one_grid_per_sample(self, monkeypatch, sample, wanted):
        init = GridDiagram.__init__
        for seed in range(60):
            built = []
            monkeypatch.setattr(GridDiagram, "__init__", lambda g, *args: built.append(g) or init(g, *args))
            got = sample(random.Random(seed), 6 + seed % 5)
            monkeypatch.undo()
            assert built == [got]
            assert got.component_count in wanted

    @pytest.mark.parametrize(
        "sample, n",
        [(s, n) for s in (random_grid, random_knot, random_link) for n in (0, 1)]
        + [(lambda rng, n: random_link(rng, n, 3), 5), (lambda rng, n: random_link(rng, n, 0), 1)],
    )
    def test_size_that_fits_no_grid_raises_before_drawing(self, sample, n):
        rng = random.Random(0)
        state = rng.getstate()
        with pytest.raises(ValueError):
            sample(rng, n)
        assert rng.getstate() == state

    @pytest.mark.parametrize(
        "sample, wanted",
        [
            pytest.param(random_grid, range(1, 1601), id="grid"),
            pytest.param(random_knot, range(1, 2), id="knot"),
            pytest.param(lambda rng, n: random_link(rng, n, 3), range(3, 1601), id="link3"),
        ],
    )
    def test_large_sizes(self, monkeypatch, sample, wanted):
        # the counts of n = 3200 run to 34k bits; drop them after the test
        monkeypatch.setattr(sampling, "_COUNTS", {})
        g = sample(random.Random(26), 3200)
        assert sorted(g.xs) == sorted(g.os) == list(range(3200))
        assert all(x != o for x, o in zip(g.xs, g.os))
        assert g.component_count == len(trace_components(g.xs, g.os)) and g.component_count in wanted

    def test_large_knots_are_distinct(self):
        rng = random.Random(0)
        knots = [random_knot(rng, 200) for _ in range(20)]
        assert all(g.component_count == 1 for g in knots)
        assert len(set(knots)) == 20

    def test_memo_keeps_clamped_keys(self, monkeypatch):
        # the memo sizes that the sampling docstring states count clamped keys only
        monkeypatch.setattr(sampling, "_COUNTS", {})
        rng = random.Random(33)
        for sample, fewest in _EVERY_SAMPLER:
            for n in range(fewest, 61):
                sample(rng, n)
        assert len(sampling._COUNTS) > 100
        assert all(0 <= lo and hi <= m // 2 for m, lo, hi in sampling._COUNTS)

    def test_draw_digest(self):
        # a few hundred draws of every sampler at n = 2-12 and a few at
        # n = 50, from one string seed: test_golden_draws shows a changed
        # draw's text, this digest pins many more draws
        rng = random.Random("digest")
        texts = []
        for sample, fewest in _EVERY_SAMPLER:
            texts += [grid_to_text(sample(rng, fewest + k % (13 - fewest))) for k in range(300)]
            texts += [grid_to_text(sample(rng, 50)) for _ in range(3)]
        digest = hashlib.sha256("".join(texts).encode()).hexdigest()
        assert digest == "eea2c400de42c58df29038fbff37f6f0e361ae82a41937aea3439439161f117c"

    def test_golden_draws(self):
        # the draws of one string seed, pinned on every supported Python
        # version: a change of the draw that still passes every property
        # check changes no digest of selftest output, but fails here
        rng = random.Random("golden")
        drawn = [
            random_grid(rng, 8),
            random_knot(rng, 8),
            random_link(rng, 8),
            random_link(rng, 9, 3),
            random_grid(rng, 50),
        ]
        assert [grid_to_text(g) for g in drawn] == [
            "n=8\nX=1,6,4,5,0,7,3,2\nO=4,2,5,7,1,0,6,3\n",
            "n=8\nX=7,0,4,1,5,3,6,2\nO=0,1,7,6,3,2,5,4\n",
            "n=8\nX=3,1,2,4,0,6,7,5\nO=0,2,4,7,5,3,1,6\n",
            "n=9\nX=0,6,5,2,4,7,3,8,1\nO=7,0,8,4,6,2,1,5,3\n",
            "n=50\n"
            "X=40,11,28,26,1,18,38,5,30,44,20,23,17,27,2,29,33,36,47,32,10,37,46,3,14,"
            "4,43,25,49,39,8,24,0,13,7,6,45,12,41,16,34,19,31,42,15,9,35,22,48,21\n"
            "O=29,42,37,0,25,45,16,4,2,43,38,40,24,33,19,20,28,18,44,30,32,23,48,34,22,"
            "49,17,14,3,8,47,1,7,12,13,31,46,5,36,41,27,6,39,10,11,35,26,15,21,9\n",
        ]
