"""Core object model: shapes, tableaux, permutations, colored paths."""

import itertools
import re

import pytest
from hypothesis import find, given, settings
from hypothesis import strategies as st

from svtab.core import (
    ColoredPath,
    EmptyCell,
    InvalidShape,
    NegativeHeight,
    NotAPartitionOfRange,
    NotAPermutation,
    NotInFamily,
    OrderViolation,
    Partition,
    Permutation,
    SetValuedTableau,
    SkewShape,
    SvtabError,
    path_family,
    validate_svsyt,
)


class TestPartition:
    def test_validation(self):
        with pytest.raises(InvalidShape):
            Partition((1, 2))
        with pytest.raises(InvalidShape):
            Partition((2, 0))
        assert Partition(()).size == 0

    def test_part_is_one_indexed_and_total(self):
        p = Partition((4, 2, 1))
        assert [p.part(r) for r in (1, 2, 3, 4, 9)] == [4, 2, 1, 0, 0]
        assert p.size == 7 and p.nrows == 3

    def test_conjugate(self):
        assert Partition((4, 2, 1)).conjugate() == Partition((3, 2, 1, 1))
        assert Partition((3, 3)).conjugate() == Partition((2, 2, 2))
        p = Partition((5, 3, 3, 1))
        assert p.conjugate().conjugate() == p


class TestSkewShape:
    def test_containment(self):
        with pytest.raises(InvalidShape):
            SkewShape(Partition((2, 1)), Partition((2, 2)))
        with pytest.raises(InvalidShape):
            SkewShape(Partition((2,)), Partition((1, 1)))

    def test_cells_row_major(self):
        s = SkewShape(Partition((3, 2)), Partition((1,)))
        assert s.cells() == [(1, 2), (1, 3), (2, 1), (2, 2)]
        assert s.ncells == 4 and not s.is_straight
        assert s.contains(2, 1) and not s.contains(1, 1)
        assert SkewShape(Partition((2, 2))).is_straight


class TestSetValuedTableau:
    def test_from_rows_and_accessors(self):
        t = SetValuedTableau.from_rows([[[1, 2], [3]], [[4], [5]]])
        assert str(t) == "{1,2} {3} / {4} {5}"
        assert t.cell(1, 1) == (1, 2)
        assert t.cell(2, 2) == (5,)
        assert [pos for pos, _ in t.cells()] == [(1, 1), (1, 2), (2, 1), (2, 2)]
        assert t.ncells == 4 and t.nentries == 5 and t.extras == 1
        with pytest.raises(InvalidShape):
            t.cell(3, 1)

    def test_json_roundtrip(self):
        t = SetValuedTableau.from_rows([[[1, 3], [6, 7]], [[2, 4], [5]]], inner=(1,))
        d = t.to_json_dict()
        assert d["inner"] == [1]
        assert SetValuedTableau.from_json_dict(d) == t
        d["outer"] = [4, 2]
        with pytest.raises(InvalidShape):
            SetValuedTableau.from_json_dict(d)

    def test_dataclass_rows_become_tuples(self):
        shape = SkewShape(Partition((1,)))
        t = SetValuedTableau(shape, [[[1]]])
        assert t == SetValuedTableau.from_rows([[[1]]])
        assert hash(t) == hash(SetValuedTableau.from_rows([[[1]]]))
        assert t.rows == (((1,),),)
        # cells are not sorted on the way in
        with pytest.raises(NotAPartitionOfRange):
            SetValuedTableau(shape, [[[2, 1]]])

    def test_validate_returns_extras(self):
        t = SetValuedTableau.from_rows([[[1, 2, 3], [4]], [[5], [6, 7]]])
        assert validate_svsyt(t) == 3

    def test_validation_errors(self):
        with pytest.raises(EmptyCell):
            validate_svsyt(SetValuedTableau.from_rows([[[1], []]]))
        # entries must tile 1..N exactly
        with pytest.raises(NotAPartitionOfRange):
            validate_svsyt(SetValuedTableau.from_rows([[[1], [3]]]))
        with pytest.raises(NotAPartitionOfRange):
            validate_svsyt(SetValuedTableau.from_rows([[[1], [1, 2]]]))
        # row order: max of a cell must precede min of its right neighbor
        with pytest.raises(OrderViolation):
            validate_svsyt(SetValuedTableau.from_rows([[[2], [1]]]))
        # column order, also at the last column of the lower row
        with pytest.raises(OrderViolation):
            validate_svsyt(SetValuedTableau.from_rows([[[2], [3]], [[1], [4]]]))
        with pytest.raises(OrderViolation):
            validate_svsyt(SetValuedTableau.from_rows([[[2]], [[1]]]))
        with pytest.raises(OrderViolation):
            validate_svsyt(SetValuedTableau.from_rows([[[1], [4]], [[2], [3]]]))

    @pytest.mark.parametrize(
        "rows",
        [
            (((1,), (2,), (3,)),),  # a row longer than the shape's
            (((1,), (2,)), ((3,),)),  # a row below the shape
            (((1,),),),  # a row shorter than the shape's
        ],
    )
    def test_rows_must_match_the_shape(self, rows, raised_under_O):
        t = SetValuedTableau._trusted(SkewShape(Partition((2,))), rows)
        with pytest.raises(InvalidShape):
            validate_svsyt(t)
        call = (
            "svtab.core.validate_svsyt(svtab.core.SetValuedTableau._trusted("
            f"svtab.core.SkewShape(svtab.core.Partition((2,))), {rows!r}))"
        )
        assert raised_under_O(call) == "InvalidShape"


def _validate_svsyt_by_cell(t: SetValuedTableau) -> int:
    """Reference: the cell-by-cell validator that the one-pass one replaced."""
    if t.shape.ncells == 0:
        raise InvalidShape("empty shape")
    seen: list[int] = []
    for pos, entries in t.cells():
        if not entries:
            raise EmptyCell(f"cell {pos} is empty")
        if list(entries) != sorted(set(entries)):
            raise NotAPartitionOfRange(f"cell {pos} entries not strictly sorted: {entries}")
        seen.extend(entries)
    m = len(seen)
    if sorted(seen) != list(range(1, m + 1)):
        raise NotAPartitionOfRange(
            f"entries do not partition 1..{m}: {sorted(seen)}"
        )
    for (r, c), entries in t.cells():
        for nr, nc in ((r, c + 1), (r + 1, c)):
            if t.shape.contains(nr, nc):
                nxt = t.cell(nr, nc)
                if entries[-1] >= nxt[0]:
                    raise OrderViolation(
                        f"max{entries} at {(r, c)} not below min{nxt} at {(nr, nc)}"
                    )
    return m - t.shape.ncells


@st.composite
def _fillings(draw) -> SetValuedTableau:
    """A filling of a random straight or skew shape whose rows match the shape.

    Half the fillings draw each cell as a short list of small integers (empty
    cells, duplicates, unsorted cells, gaps).  The rest split 1..n+k into
    sorted cells, in row-major order or shuffled, and may then swap two
    entries between cells, so that every row and column order violation and
    the valid fillings all occur.
    """
    parts = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
    outer = sorted(parts, reverse=True)
    inner: list[int] = []
    for part in outer:
        inner.append(draw(st.integers(0, min([part, *inner[-1:]]))))
    widths = [o - i for o, i in zip(outer, inner)]
    shape = SkewShape(Partition(tuple(outer)), Partition(tuple(p for p in inner if p)))
    n = sum(widths)
    if draw(st.booleans()):
        cells = [
            tuple(draw(st.lists(st.integers(1, n + 2), max_size=3))) for _ in range(n)
        ]
    else:
        total = n + draw(st.integers(0, 3))
        entries = list(range(1, total + 1))
        if draw(st.booleans()):
            entries = draw(st.permutations(entries))
        splits = sorted(
            draw(st.sets(st.integers(1, total - 1), min_size=n - 1, max_size=n - 1))
            if n > 1
            else ()
        )
        cells = [sorted(entries[a:b]) for a, b in zip([0, *splits], [*splits, total])]
        if n > 1 and draw(st.booleans()):
            pair = st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)
            i, j = draw(pair)
            a = draw(st.integers(0, len(cells[i]) - 1))
            b = draw(st.integers(0, len(cells[j]) - 1))
            cells[i][a], cells[j][b] = cells[j][b], cells[i][a]
            cells[i].sort()
            cells[j].sort()
        cells = [tuple(c) for c in cells]
    rows, at = [], 0
    for w in widths:
        rows.append(tuple(cells[at : at + w]))
        at += w
    return SetValuedTableau._trusted(shape, tuple(rows))


def _outcome(validate, t):
    try:
        return validate(t)
    except SvtabError as exc:
        return type(exc), str(exc)


@settings(max_examples=600, deadline=None)
@given(_fillings())
def test_one_pass_validation_matches_the_cell_by_cell_reference(t):
    assert _outcome(validate_svsyt, t) == _outcome(_validate_svsyt_by_cell, t)


def _outcome_kind(t) -> str:
    got = _outcome(_validate_svsyt_by_cell, t)
    if isinstance(got, int):
        return "valid"
    _cls, msg = got
    for kind in ("empty shape", "is empty", "not strictly sorted", "do not partition"):
        if kind in msg:
            return kind
    above, below = re.findall(r"at \((\d+),", msg)  # the rows of the two cells
    return "row order" if above == below else "column order"


@pytest.mark.parametrize(
    "kind",
    [
        "valid",
        "empty shape",
        "is empty",
        "not strictly sorted",
        "do not partition",
        "row order",
        "column order",
    ],
)
def test_fillings_reach_every_outcome(kind):
    find(_fillings(), lambda t: _outcome_kind(t) == kind)


class TestPermutation:
    def test_validation(self):
        with pytest.raises(NotAPermutation):
            Permutation((1, 3))
        with pytest.raises(NotAPermutation):
            Permutation((1, 1, 2))
        assert len(Permutation((2, 1))) == 2

    def test_text_roundtrip(self):
        w = Permutation.from_text("3 5 1 2 7 8 4 10 11 6 9")
        assert w.to_text() == "3 5 1 2 7 8 4 10 11 6 9"
        assert list(w) == [3, 5, 1, 2, 7, 8, 4, 10, 11, 6, 9]

    def test_321_avoidance(self):
        assert Permutation((3, 5, 1, 2, 7, 8, 4, 10, 11, 6, 9)).is_321_avoiding()
        assert not Permutation((3, 2, 1)).is_321_avoiding()
        assert not Permutation((1, 4, 3, 2)).is_321_avoiding()
        assert Permutation(()).is_321_avoiding()

    @given(st.permutations(list(range(1, 8))))
    def test_avoidance_matches_brute_force(self, words):
        w = Permutation(tuple(words))
        n = len(w)
        brute = not any(
            w.word[i] > w.word[j] > w.word[k]
            for i in range(n)
            for j in range(i + 1, n)
            for k in range(j + 1, n)
        )
        assert w.is_321_avoiding() == brute


def _oracle_tags(word: str) -> frozenset[str] | None:
    """Independent restatement of the family predicates; None = invalid path."""
    h = 0
    heights_before = []
    for ch in word:
        heights_before.append(h)
        h += {"U": 1, "D": -1, "u": 0, "d": 0}[ch]
        if h < 0:
            return None
    no_low_u = all(ch != "u" or hb > 0 for ch, hb in zip(word, heights_before))
    first_big_d = word.index("D") if "D" in word else len(word)
    no_early_d = "d" not in word[:first_big_d]
    tags = set()
    if h == 0:
        tags.add("motz")
        if no_low_u:
            tags.add("motzE")
        if no_early_d:
            tags.add("motzT")
        if no_low_u and no_early_d:
            tags.add("motzET")
    if no_low_u and no_early_d:
        tags.add("ballotlike")
    return frozenset(tags)


class TestColoredPath:
    def test_step_validation(self):
        with pytest.raises(NegativeHeight):
            ColoredPath("D")
        with pytest.raises(NegativeHeight):
            ColoredPath("UDD")
        with pytest.raises(NotInFamily):
            ColoredPath("UxD")

    def test_final_height(self):
        assert ColoredPath("UuDd").final_height == 0
        assert ColoredPath("UU").final_height == 2
        assert ColoredPath("").final_height == 0

    def test_tag_examples(self):
        assert path_family(ColoredPath("Ud")) == frozenset()
        assert path_family(ColoredPath("uu")) == frozenset({"motz", "motzT"})
        assert path_family(ColoredPath("dd")) == frozenset({"motz", "motzE"})
        assert path_family(ColoredPath("ud")) == frozenset({"motz"})
        assert path_family(ColoredPath("U")) == frozenset({"ballotlike"})
        assert path_family(ColoredPath("")) == frozenset(
            {"motz", "motzE", "motzT", "motzET", "ballotlike"}
        )

    def test_tags_match_oracle_exhaustively(self):
        for n in range(8):
            for tup in itertools.product("UDud", repeat=n):
                word = "".join(tup)
                expected = _oracle_tags(word)
                if expected is None:
                    with pytest.raises(NegativeHeight):
                        ColoredPath(word)
                else:
                    assert path_family(ColoredPath(word)) == expected
