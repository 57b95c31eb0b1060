"""Exhaustive generators and their streaming counts."""

import itertools
import random
from collections import Counter

import pytest

from svtab.closedform import ballot_count, catalan
from svtab.closedform import act_count
from svtab.posets import Poset, _partitions, catalog, sv_linear_extensions
from svtab.rings import QPoly
from svtab.stats import comaj_plus_k
from svtab.core import (
    ColoredPath,
    OutOfRange,
    Partition,
    SkewShape,
    path_family,
    validate_svsyt,
)
from svtab.enumerate import (
    _Moves,
    _cell_masks,
    _comaj_walk,
    _count_walk,
    _path_pass,
    _path_steps,
    _shape_counts,
    _walk,
    as_skew,
    count_paths,
    count_svsyt,
    count_two_row_union,
    gen_avoid321,
    gen_ballotlike,
    gen_paths,
    gen_svsyt,
    gen_two_row_union,
)


def test_as_skew():
    assert as_skew((3, 2)) == SkewShape(Partition((3, 2)))
    s = SkewShape(Partition((3, 3)), Partition((1,)))
    assert as_skew(s) is s
    assert as_skew(Partition((2,))).is_straight


class TestGenSvsyt:
    def test_single_row_frozen_order(self):
        assert [str(t) for t in gen_svsyt((2,), 2)] == [
            "{1,2,3} {4}",
            "{1,2} {3,4}",
            "{1} {2,3,4}",
        ]

    def test_objects_are_valid_with_declared_extras(self):
        for shape, k in [((3, 3), 2), ((2, 2, 1), 1), ((4, 2), 0)]:
            for t in gen_svsyt(shape, k):
                assert validate_svsyt(t) == k
                assert t.shape.outer == Partition(shape)

    def test_skew_shapes(self):
        s = SkewShape(Partition((3, 3)), Partition((1,)))
        ts = list(gen_svsyt(s, 1))
        assert len(ts) == count_svsyt(s, 1)
        for t in ts:
            assert t.shape == s
            assert validate_svsyt(t) == 1

    def test_counts_match_generation(self):
        for shape in [(1,), (2, 1), (3, 3), (2, 2, 2), (4,)]:
            for k in range(4):
                assert count_svsyt(shape, k) == sum(1 for _ in gen_svsyt(shape, k))

    def test_standard_case_counts(self):
        # k = 0 gives classical standard Young tableaux
        assert count_svsyt((3, 3), 0) == 5
        assert count_svsyt((2, 2), 0) == 2
        assert count_svsyt((1,), 0) == 1

    def test_distinct(self):
        ts = [str(t) for t in gen_svsyt((3, 2), 2)]
        assert len(ts) == len(set(ts))


class TestTwoRowUnion:
    def test_count_is_catalan(self):
        for n in range(2, 11):
            assert count_two_row_union(n) == catalan(n - 1)

    def test_union_decomposes_by_shape(self):
        for n in range(2, 9):
            by_shape = 0
            for b in range(1, n // 2 + 1):
                k = n - 2 * b
                by_shape += count_svsyt((b, b), k)
            assert by_shape == count_two_row_union(n)
            got = list(gen_two_row_union(n))
            assert len(got) == by_shape
            assert len({str(t) for t in got}) == by_shape
            for t in got:
                assert t.nentries == n
                assert t.shape.outer.nrows <= 2

    def test_small_cases(self):
        assert [str(t) for t in gen_two_row_union(2)] == ["{1} / {2}"]
        assert {str(t) for t in gen_two_row_union(4)} == {
            "{1,2,3} / {4}",
            "{1,2} / {3,4}",
            "{1} / {2,3,4}",
            "{1} {2} / {3} {4}",
            "{1} {3} / {2} {4}",
        }


class TestAvoid321:
    def test_counts(self):
        for m in range(9):
            perms = list(gen_avoid321(m))
            assert len(perms) == catalan(m)
            assert len({w.word for w in perms}) == len(perms)
            for w in perms:
                assert w.is_321_avoiding()

    def test_lex_order(self):
        words = [w.word for w in gen_avoid321(4)]
        assert words == sorted(words)
        assert words[0] == (1, 2, 3, 4)

    def test_matches_filtered_bruteforce(self):
        for m in range(7):
            brute = sorted(
                p
                for p in itertools.permutations(range(1, m + 1))
                if not any(
                    p[i] > p[j] > p[k]
                    for i in range(m)
                    for j in range(i + 1, m)
                    for k in range(j + 1, m)
                )
            )
            assert [w.word for w in gen_avoid321(m)] == brute


class TestPaths:
    def test_family_validation(self):
        with pytest.raises(OutOfRange):
            list(gen_paths("dyck", 3))
        with pytest.raises(OutOfRange):
            count_paths("", 3)

    def test_frozen_order_motzet_4(self):
        assert [p.word for p in gen_paths("motzET", 4)] == [
            "UUDD",
            "UDUD",
            "UDdd",
            "UuDd",
            "UuuD",
        ]

    def test_step_order_is_U_D_u_d(self):
        words = [p.word for p in gen_paths("motz", 3)]
        rank = {"U": 0, "D": 1, "u": 2, "d": 3}
        keyed = [[rank[ch] for ch in w] for w in words]
        assert keyed == sorted(keyed)

    def test_counts(self):
        for n in range(11):
            assert count_paths("motz", n) == catalan(n + 1)
            assert count_paths("motzE", n) == catalan(n)
            assert count_paths("motzT", n) == catalan(n)
        assert count_paths("motzET", 0) == 1
        assert count_paths("motzET", 1) == 0
        for n in range(2, 11):
            assert count_paths("motzET", n) == catalan(n - 1)

    def test_gen_matches_count_and_membership(self):
        for family in ("motz", "motzE", "motzT", "motzET", "ballotlike"):
            for n in range(8):
                got = list(gen_paths(family, n))
                assert len(got) == count_paths(family, n)
                assert len({p.word for p in got}) == len(got)
                for p in got:
                    assert len(p) == n
                    assert family in path_family(p)

    def test_gen_is_exactly_the_family_members(self):
        for family in ("motz", "motzE", "motzT", "motzET", "ballotlike"):
            for n in range(7):
                from_filter = set()
                for tup in itertools.product("UDud", repeat=n):
                    word = "".join(tup)
                    if any(
                        word[: j + 1].count("D") > word[: j + 1].count("U")
                        for j in range(n)
                    ):
                        continue
                    if family in path_family(ColoredPath(word)):
                        from_filter.add(word)
                assert {p.word for p in gen_paths(family, n)} == from_filter


class TestBallotlike:
    def test_refines_by_final_height(self):
        for n in range(9):
            total = 0
            for i in range(n + 1):
                got = list(gen_ballotlike(n, i))
                assert len(got) == ballot_count(n, i)
                for p in got:
                    assert p.final_height == i
                    assert "ballotlike" in path_family(p)
                total += len(got)
            assert total == count_paths("ballotlike", n)

    def test_partition_of_family(self):
        for n in range(7):
            stacked = [p.word for i in range(n + 1) for p in gen_ballotlike(n, i)]
            assert sorted(stacked) == sorted(p.word for p in gen_paths("ballotlike", n))

    def test_heights_past_n_are_empty_and_negatives_raise(self):
        assert list(gen_ballotlike(1, 2)) == []
        assert list(gen_ballotlike(0, 1)) == []
        for n, i in ((2, -1), (-1, 0)):
            with pytest.raises(OutOfRange):
                list(gen_ballotlike(n, i))


# ---------------------------------------------------------------------------
# the counting DPs agree with enumeration, and reach past the ceiling

DP_SHAPES = [
    (1,),
    (4,),
    (2, 1),
    (3, 2),
    (3, 3),
    (4, 2),
    (2, 2, 1),
    (3, 2, 1),
    (2, 2, 2),
    (3, 1, 1),
    SkewShape(Partition((3, 3)), Partition((1,))),
    SkewShape(Partition((3, 2, 2)), Partition((2, 1))),
    SkewShape(Partition((3, 3, 2)), Partition((2,))),
]


@pytest.mark.parametrize("shape", DP_SHAPES, ids=str)
def test_count_svsyt_dp_matches_generation(shape):
    ncells = as_skew(shape).ncells
    for k in range(10 - ncells + 1):
        assert count_svsyt(shape, k) == sum(1 for _ in gen_svsyt(shape, k))


@pytest.mark.parametrize("family", ["motz", "motzE", "motzT", "motzET", "ballotlike"])
def test_count_paths_dp_matches_generation(family):
    # one layer pass per family is kept and resumed, so lengths asked out of
    # order read the same counts as lengths asked in order
    _path_pass.cache_clear()
    lengths = list(range(11))
    random.Random(family).shuffle(lengths)
    for n in lengths:
        want = sum(1 for _ in gen_paths(family, n))
        if family == "ballotlike":
            assert want == sum(1 for i in range(n + 1) for _ in gen_ballotlike(n, i))
        assert count_paths(family, n) == want, n


@pytest.mark.parametrize("order", ["ascending", "descending"])
def test_count_kernel_matches_the_walker_in_any_query_order(order):
    # each shape's counts are kept by k and swept again only past the largest
    # k swept, so asking k = 3 first or last must give the same counts
    _shape_counts.cache_clear()
    ks = range(4) if order == "ascending" else range(3, -1, -1)
    for cells in range(1, 8):
        for shape in _partitions(cells):
            masks = _cell_masks(as_skew(shape))[1:]
            for k in ks:
                assert count_svsyt(shape, k) == sum(1 for _ in _walk(*masks, cells + k)), (shape, k)


def test_count_kernel_matches_the_walker_on_posets():
    for name, poset in catalog():
        if poset.n <= 5:
            walked = [sum(1 for _ in sv_linear_extensions(poset, k)) for k in range(3)]
            assert _count_walk(*poset._cover_masks, 2) == walked, name


def test_count_svsyt_past_the_ceiling():
    assert count_svsyt((30, 30), 30) == act_count(30, 30)


def test_act_count_far_past_the_ceiling():
    assert act_count(2, 2000) == count_svsyt((2, 2), 2000)


def test_two_row_union_dp_is_catalan_at_60_entries():
    assert sum(count_svsyt((b, b), 60 - 2 * b) for b in range(1, 31)) == catalan(59)


def _streamed_tally(objects) -> QPoly:
    tally = Counter(comaj_plus_k(s) for s in objects)
    return QPoly([tally[c] for c in range(max(tally) + 1)])


SMALL_POSETS = {name: p for name, p in catalog() if p.n <= 5}


@pytest.mark.parametrize("name", sorted(SMALL_POSETS))
def test_comaj_dp_matches_streamed_tally_on_posets(name):
    poset = SMALL_POSETS[name]
    for k in range(4 if poset.n <= 4 else 3):
        want = _streamed_tally(sv_linear_extensions(poset, k))
        assert _comaj_walk(*poset._cover_masks, poset.n + k) == want, (name, k)


def test_comaj_dp_over_two_row_shapes_is_the_q_catalan():
    # verify sums this DP over the rectangles as the oracle of the q-Catalan,
    # so check each rectangle's term against the tally of the tableaux themselves
    for n in range(1, 9):
        for b in range(1, (n + 1) // 2 + 1):
            _cells, preds, succs = _cell_masks(as_skew((b, b)))
            want = _streamed_tally(gen_svsyt((b, b), n + 1 - 2 * b))
            assert _comaj_walk(preds, succs, n + 1) == want, (n, b)


def test_packed_comaj_tally_sums_to_the_leaf_count():
    # each state's tally is packed into one int, a slot of B bits per power
    # of q; a carry across a slot or a dropped top slot changes the sum at q = 1
    for b in range(1, 13):
        for k in range(25 - 2 * b):
            _cells, preds, succs = _cell_masks(as_skew((b, b)))
            assert _comaj_walk(preds, succs, 2 * b + k)(1) == count_svsyt((b, b), k), (b, k)
    for name, poset in catalog():
        for k in range(4):
            total = poset.n + k
            masks = poset._cover_masks
            assert _comaj_walk(*masks, total)(1) == _count_walk(*masks, k)[k], (name, k)
    # a DP with no leaves decodes to zero
    assert _comaj_walk(*Poset(0, ())._cover_masks, 1) == QPoly.zero()


def test_move_table_lists_appends_and_opens_in_cell_order():
    # 2x2: cells 0 1 / 2 3; with cell 0 open, it may take an append and
    # cells 1 and 2 may open, but cell 3 waits for both
    moves = _Moves(*_cell_masks(as_skew((2, 2)))[1:])
    assert moves.legal(0, 3) == [(0, 0b1)]
    assert moves.legal(0b1, 3) == [(0, 0b1), (1, 0b11), (2, 0b101)]
    assert moves.legal(0b11, 2) == [(1, 0b11), (2, 0b111)]
    # an append must leave an entry for each of the unopened cells
    assert moves.legal(0b1, 2) == [(1, 0b11), (2, 0b101)]
    assert moves.legal(0b11, 1) == [(2, 0b111)]


def test_path_steps_list_the_legal_steps_in_letter_order():
    # both restrictions at height 0 before any D: D dips, u and d are forbidden
    assert _path_steps(0, False, True, True) == (("U", 1, False),)
    # above 0, u is legal, but d still waits for the first D
    assert _path_steps(1, False, True, True) == (
        ("U", 2, False),
        ("D", 0, True),
        ("u", 1, False),
    )
    # with no restrictions, only D is barred at height 0
    assert _path_steps(0, False, False, False) == (
        ("U", 1, False),
        ("u", 0, False),
        ("d", 0, False),
    )
