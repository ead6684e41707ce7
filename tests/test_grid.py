import inspect
import random
import re
from itertools import permutations

import pytest
from hypothesis import assume, given, strategies as st

from legrid import (
    Convention,
    FrontData,
    GridDiagram,
    NotAPermutation,
    ParityViolation,
    ParseError,
    SameComponent,
    SharedCell,
    SizeMismatch,
    UnknownComponent,
    grid_to_json,
    grid_to_text,
    linking_number,
    new_grid,
    parse_grid,
    reading,
    reverse_component,
    to_front,
    writhe,
)
from legrid.grid import _int_token
from legrid.sampling import random_grid, random_knot, random_link

from helpers import (
    GRID_TABLES,
    all_marker_lists,
    brute_crossings,
    brute_cusps,
    brute_linking,
    brute_writhe,
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
        assert len(g.components) == 1

    def test_split_grid_has_two_components(self):
        g = new_grid(*SPLIT)
        assert [sorted(c.columns) for c in g.components] == [[0, 1], [2, 3]]

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
        cols = sorted(c for comp in g.components for c in comp.columns)
        assert cols == list(range(g.n))
        assert [sorted(c.columns) for c in g.components] == trace_components(g.xs, g.os)


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
    assert [comp.index for comp in g.components] == list(range(len(cycles)))
    assert [sorted(comp.columns) for comp in g.components] == cycles
    assert [comp.rows for comp in g.components] == [frozenset(xs[c] for c in cols) for cols in cycles]
    assert g.component_by_column == tuple(
        next(comp.index for comp in g.components if c in comp.columns) for c in range(n)
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
        assert (a.x_col_by_row, a.o_col_by_row, a.components, a.component_by_column) == (
            b.x_col_by_row, b.o_col_by_row, b.components, b.component_by_column
        )
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1
        assert a != new_grid(*HOPF)


class TestFront:
    def test_unknot_front(self):
        n, xs, os = UNKNOT
        f = to_front(new_grid(n, xs, os))
        assert brute_crossings(xs, os) == []
        assert f.crossing_matrix == ((0,),)
        assert f.cusps[0].total == 2

    def test_split_grid_has_no_inter_component_crossings(self):
        n, xs, os = SPLIT
        f = to_front(new_grid(n, xs, os))
        assert all(over == under for _, _, _, over, under in brute_crossings(xs, os))
        assert f.crossing_matrix[0][1] == f.crossing_matrix[1][0] == 0

    @staticmethod
    def _assert_matrix_matches_brute_force(xs, os):
        g = new_grid(len(xs), xs, os)
        size = len(g.components)
        expected = [[0] * size for _ in range(size)]
        for _, _, sign, over, under in brute_crossings(xs, os):
            expected[over][under] += sign
        assert to_front(g).crossing_matrix == tuple(map(tuple, expected))
        negated = tuple(tuple(-v for v in row) for row in expected)
        assert to_front(reading(g, Convention.NE_SW)).crossing_matrix == negated

    def test_crossing_matrix_matches_brute_force_small(self):
        for n in (2, 3, 4, 5):
            for xs, os in all_marker_lists(n):
                self._assert_matrix_matches_brute_force(xs, os)

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

    def test_crossing_matrix_matches_brute_force_random(self):
        rng = random.Random(31)
        for _ in range(60):
            n = rng.randint(2, 200)
            while True:
                xs = rng.sample(range(n), n)
                os = rng.sample(range(n), n)
                if all(x != o for x, o in zip(xs, os)):
                    break
            self._assert_matrix_matches_brute_force(xs, os)

    def test_front_is_read_once_per_grid(self):
        g = new_grid(*TREFOIL)
        f = to_front(g)
        assert to_front(g) is f
        other = to_front(reading(g, Convention.NE_SW))
        assert other.crossing_matrix == tuple(tuple(-v for v in row) for row in f.crossing_matrix)

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
        assert writhe(new_grid(*UNKNOT), 0) == 0

    def test_split_components(self):
        g = new_grid(*SPLIT)
        assert writhe(g, 0) == 0
        assert writhe(g, 1) == 0

    def test_trefoil_matches_brute_force(self):
        n, xs, os = TREFOIL
        assert brute_writhe(xs, os, 0) == -3  # frozen from the sign oracle
        assert writhe(new_grid(n, xs, os), 0) == -3

    def test_random_grids_match_brute_force(self):
        rng = random.Random(11)
        for _ in range(100):
            n = rng.randint(2, 8)
            while True:
                xs = rng.sample(range(n), n)
                os = rng.sample(range(n), n)
                if all(x != o for x, o in zip(xs, os)):
                    break
            g = new_grid(n, xs, os)
            for comp in g.components:
                assert writhe(g, comp.index) == brute_writhe(xs, os, comp.index)

    def test_unknown_component(self):
        with pytest.raises(UnknownComponent):
            writhe(new_grid(*UNKNOT), 1)


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
            if len(g.components) < 2:
                continue
            seen += 1
            a, b = rng.sample(range(len(g.components)), 2)
            lk = linking_number(g, a, b)
            assert lk == linking_number(g, b, a)
            assert lk == brute_linking(xs, os, a, b)
            assert linking_number(reverse_component(g, a), a, b) == -lk

    def test_same_component_rejected(self):
        with pytest.raises(SameComponent):
            linking_number(new_grid(*SPLIT), 1, 1)

    def test_odd_crossing_sum_raises(self, monkeypatch):
        import legrid.grid as grid_mod

        g = new_grid(*SPLIT)
        real = to_front(g)
        odd = FrontData(((0, 1), (0, 0)), real.cusps)
        monkeypatch.setattr(grid_mod, "to_front", lambda g_: odd)
        with pytest.raises(ParityViolation):
            linking_number(g, 0, 1)

    def test_one_sided_even_change_raises(self, monkeypatch):
        # the parity of the sum survives an even change to one side, but
        # a planar diagram's two sides agree exactly
        import legrid.grid as grid_mod

        g = new_grid(*POSITIVE_HOPF)
        real = to_front(g)
        (aa, ab), (ba, bb) = real.crossing_matrix
        skewed = FrontData(((aa, ab + 2), (ba, bb)), real.cusps)
        monkeypatch.setattr(grid_mod, "to_front", lambda g_: skewed)
        with pytest.raises(ParityViolation) as exc:
            linking_number(g, 0, 1)
        assert str(exc.value) == "components 0 and 1 cross 3 signed times with 0 over but 1 with 1 over"

    def test_unknown_component(self):
        with pytest.raises(UnknownComponent):
            linking_number(new_grid(*SPLIT), 0, 5)


class TestReverse:
    @given(grids())
    def test_involution(self, g):
        c = 0
        assert reverse_component(reverse_component(g, c), c) == g

    def test_reversed_unknot_is_valid(self):
        g = reverse_component(new_grid(*UNKNOT), 0)
        assert len(g.components) == 1

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

    def test_non_ascii_whitespace_pads_a_token(self):
        # a non-ASCII line takes the token-by-token path, which strips
        # every token as _int_token does
        assert parse_grid("n=2\nX=0,\u00a01\nO=1\u3000,0\n") == new_grid(*UNKNOT)

    def test_json_rejects_extra_keys(self):
        with pytest.raises(ParseError):
            parse_grid('{"n": 2, "x": [0, 1], "o": [1, 0], "q": 1}')

    def test_missing_lines(self):
        with pytest.raises(ParseError):
            parse_grid("n=2\nX=0,1\n")


class _Exhausted(Exception):
    pass


class _Scripted:
    """A stand-in rng whose shuffles write the given permutations, in
    order, and which raises _Exhausted when it has none left."""

    def __init__(self, *perms):
        self.perms = list(perms)

    def shuffle(self, seq):
        if not self.perms:
            raise _Exhausted
        seq[:] = self.perms.pop(0)


SAMPLERS = [
    pytest.param(random_grid, range(1, 99), id="grid"),
    pytest.param(random_knot, range(1, 2), id="knot"),
    pytest.param(random_link, range(2, 99), id="link"),
    pytest.param(lambda rng, n: random_link(rng, n, 3), range(3, 99), id="link3"),
]


class TestSampling:
    """Each sampler redraws the tracing permutation pi alone until it
    fits, then draws the X rows once and builds one grid."""

    @pytest.mark.parametrize("sample, wanted", SAMPLERS)
    @pytest.mark.parametrize("n", range(2, 6))
    def test_exact_bijection(self, sample, wanted, n):
        """(xs, pi) -> grid is a bijection from the X rows and the
        derangements with a wanted number of cycles onto the valid
        grids with that many components; any other pi is redrawn.  A
        size that no such grid fits raises ValueError."""
        rows = list(range(n))
        valid = {new_grid(n, xs, os) for xs, os in all_marker_lists(n)}
        fits = {g for g in valid if g.component_count in wanted}
        if not fits:
            with pytest.raises(ValueError):
                sample(_Scripted(), n)
            return
        drawn = []
        for pi in permutations(rows):
            cycles = trace_components(list(pi), rows)
            accepted = min(map(len, cycles)) >= 2 and len(cycles) in wanted
            for xs in permutations(rows):
                try:
                    g = sample(_Scripted(pi, xs), n)
                except _Exhausted:
                    assert not accepted
                    continue
                assert accepted
                assert g.xs == xs
                assert all(g.os[p] == x for p, x in zip(pi, xs))
                assert g.component_count == len(cycles) == len(trace_components(g.xs, g.os))
                drawn.append(g)
        assert len(set(drawn)) == len(drawn)
        assert set(drawn) == fits

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

    def test_large_knots_are_distinct(self):
        rng = random.Random(0)
        knots = [random_knot(rng, 200) for _ in range(20)]
        assert all(g.component_count == 1 for g in knots)
        assert len(set(knots)) == 20
