"""Bijections between tableaux, permutations, paths, and triples."""

import itertools
import random

import pytest

from svtab.biject import (
    Triple,
    _insert,
    _insert_all,
    _peel,
    ballot_path_from_tableau,
    compose,
    contract_path,
    decompose,
    expand_path,
    path_from_tableau,
    perm_from_tableau,
    rotate_complement,
    tableau_from_ballot_path,
    tableau_from_path,
    tableau_from_perm,
)
from svtab.closedform import ballot_count, catalan
from svtab.core import (
    ColoredPath,
    InvalidPick,
    Not321Avoiding,
    NotInFamily,
    NotInMotzET,
    NotInMotzT,
    Partition,
    Permutation,
    SetValuedTableau,
    ShapeMismatch,
    ShapeNotTwoRowRectangular,
    path_family,
    validate_svsyt,
)
from svtab.enumerate import gen_ballotlike, gen_paths, gen_svsyt, gen_two_row_union
from svtab.posets import catalog, sv_linear_extensions
from svtab.stats import inner_valleys, rl_minima


def _rows(*rows):
    return SetValuedTableau.from_rows(rows)


class TestAlpha:
    def test_worked_example(self):
        t = _rows([[1, 2], [3]], [[4], [5]])
        assert perm_from_tableau(t).to_text() == "1 4 2 3"

    def test_worked_inverse_example(self):
        w = Permutation.from_text("3 5 1 2 7 8 4 10 11 6 9")
        assert (
            str(tableau_from_perm(w))
            == "{1} {2,4} {6} {9} / {3,5} {7,8} {10,11} {12}"
        )

    def test_roundtrip_and_image(self):
        for n in range(2, 9):
            seen = set()
            for t in gen_two_row_union(n):
                w = perm_from_tableau(t)
                assert w.is_321_avoiding()
                assert len(w) == n - 1
                assert tableau_from_perm(w) == t
                seen.add(w.word)
            assert len(seen) == catalan(n - 1)

    def test_inverse_covers_all_avoiders(self):
        for m in range(1, 7):
            for p in itertools.permutations(range(1, m + 1)):
                w = Permutation(p)
                if w.is_321_avoiding():
                    assert perm_from_tableau(tableau_from_perm(w)) == w

    def test_top_row_is_rl_minima(self):
        for n in range(2, 9):
            for t in gen_two_row_union(n):
                w = perm_from_tableau(t)
                top = sorted(v for c in range(1, t.shape.outer.part(1) + 1) for v in t.cell(1, c))
                assert list(rl_minima(w)) == top

    def test_columns_vs_inner_valleys(self):
        for n in range(2, 9):
            for t in gen_two_row_union(n):
                w = perm_from_tableau(t)
                assert len(inner_valleys(w)) == t.shape.outer.part(1) - 1

    def test_errors(self):
        with pytest.raises(ShapeNotTwoRowRectangular):
            perm_from_tableau(_rows([[1], [2]], [[3]]))
        with pytest.raises(Not321Avoiding):
            tableau_from_perm(Permutation((3, 2, 1)))


class TestBeta:
    def test_worked_examples(self):
        left = _rows([[1, 2], [4], [5]], [[3], [6], [7]])
        right = _rows([[1], [4], [5, 7]], [[2, 3], [6], [8, 9]])
        assert path_from_tableau(left).word == "UuDUUDD"
        assert path_from_tableau(right).word == "UDdUUDuDd"
        assert tableau_from_path(ColoredPath("UuDUUDD")) == left
        assert tableau_from_path(ColoredPath("UDdUUDuDd")) == right

    def test_roundtrip_and_image(self):
        for n in range(2, 9):
            words = set()
            for t in gen_two_row_union(n):
                p = path_from_tableau(t)
                assert "motzET" in path_family(p)
                assert len(p) == n
                assert tableau_from_path(p) == t
                words.add(p.word)
            assert words == {p.word for p in gen_paths("motzET", n)}

    def test_errors(self):
        with pytest.raises(ShapeNotTwoRowRectangular):
            path_from_tableau(_rows([[1], [2], [3]]))
        with pytest.raises(NotInMotzET):
            tableau_from_path(ColoredPath("ud"))


class TestBallotBijection:
    def test_empty_path_edge(self):
        # n = 0 pairs the empty path with the empty tableau (empty shape)
        assert ballot_count(0, 0) == 1
        assert [p.word for p in gen_ballotlike(0, 0)] == [""]

    def test_shape_partition_of_family(self):
        for n in range(1, 9):
            for i in range(n + 1):
                words = set()
                for b in range(max(i, 1), (n + i) // 2 + 1):
                    k = n + i - 2 * b
                    shape = (b,) if b == i else (b, b - i)
                    for t in gen_svsyt(shape, k):
                        p = ballot_path_from_tableau(t)
                        assert p.final_height == i
                        assert "ballotlike" in path_family(p)
                        assert tableau_from_ballot_path(p) == t
                        words.add(p.word)
                assert len(words) == ballot_count(n, i), (n, i)
                assert words == {p.word for p in gen_ballotlike(n, i)}

    def test_example_n4_i2_six_objects(self):
        sources = [str(t) for k in (0,) for t in gen_svsyt((3, 1), 0)] + [
            str(t) for t in gen_svsyt((2,), 2)
        ]
        assert sorted(sources) == sorted(
            [
                "{1} {2} {4} / {3}",
                "{1} {3} {4} / {2}",
                "{1} {2} {3} / {4}",
                "{1,2,3} {4}",
                "{1,2} {3,4}",
                "{1} {2,3,4}",
            ]
        )
        paths = {
            ballot_path_from_tableau(t).word
            for shape, k in [((3, 1), 0), ((2,), 2)]
            for t in gen_svsyt(shape, k)
        }
        assert len(paths) == 6
        assert paths == {p.word for p in gen_ballotlike(4, 2)}

    def test_error(self):
        with pytest.raises(NotInFamily):
            tableau_from_ballot_path(ColoredPath("Ud"))
        with pytest.raises(ShapeMismatch):
            ballot_path_from_tableau(next(gen_svsyt((2, 1, 1), 0)))


class TestPhi:
    def test_worked_examples(self):
        assert contract_path(ColoredPath("UuDd")).word == "UDd"
        assert contract_path(ColoredPath("UUDD")).word == "UdD"
        assert expand_path(ColoredPath("d")).word == "UD"
        assert expand_path(ColoredPath("uu")).word == "uuu"
        assert expand_path(ColoredPath("UdD")).word == "UUDD"

    def test_bijects_motzT_onto_motz(self):
        for n in range(1, 9):
            image = set()
            for p in gen_paths("motzT", n):
                q = contract_path(p)
                assert len(q) == n - 1
                assert expand_path(q) == p
                image.add(q.word)
            assert image == {p.word for p in gen_paths("motz", n - 1)}

    def test_bijects_motzET_onto_motzE(self):
        for n in range(2, 9):
            image = {contract_path(p).word for p in gen_paths("motzET", n)}
            assert image == {p.word for p in gen_paths("motzE", n - 1)}

    def test_upstep_count_drops_by_one(self):
        for n in range(1, 8):
            for p in gen_paths("motzT", n):
                q = contract_path(p)
                before = p.word.count("U") + p.word.count("u")
                after = q.word.count("U") + q.word.count("u")
                assert before - after == 1

    def test_error(self):
        with pytest.raises(NotInMotzT):
            contract_path(ColoredPath("ud"))


class TestTriples:
    def test_worked_example_three_rows(self):
        t = _rows(
            [[1], [2], [7], [8]],
            [[3], [4, 5], [11], [13]],
            [[6, 9, 10], [12], [14, 15], [16]],
        )
        tr = decompose(t)
        assert str(tr.base) == "{1} {2} {6} {7} / {3} {4} {8} {10} / {5} {9} {11} {12}"
        assert tr.cuts == (4, 7, 7, 11)
        assert tr.picks == ((2, 2), (3, 1), (3, 1), (3, 3))
        assert compose(tr) == t

    def test_small_worked_example(self):
        tr = decompose(_rows([[1, 2]], [[3]]))
        assert str(tr.base) == "{1} / {2}"
        assert tr.cuts == (1,)
        assert tr.picks == ((1, 1),)

    def test_k0_fixed_points(self):
        for t in gen_svsyt((3, 2), 0):
            tr = decompose(t)
            assert tr == Triple(t, (), ())
            assert compose(tr) == t

    def test_roundtrip_three_row_shapes(self):
        partitions = []
        for total in range(1, 7):
            for a in range(total, 0, -1):
                for b in range(min(a, total - a), -1, -1):
                    c = total - a - b
                    if 0 <= c <= b:
                        partitions.append(tuple(p for p in (a, b, c) if p))
        for shape in partitions:
            for k in range(0, 8 - sum(shape) + 1):
                for t in gen_svsyt(shape, k):
                    tr = decompose(t)
                    assert compose(tr) == t
                    assert len(tr.cuts) == k
                    assert len(tr.picks) == k

    def test_peel_matches_the_stage_loop(self):
        # reference: stage i = k..1 pops the largest non-minimal entry e, whose
        # block is pick i and whose cut is e - i, and shifts larger entries down
        def stage_loop(blocks):
            blocks = [list(b) for b in blocks]
            k = sum(map(len, blocks)) - len(blocks)
            cuts, picks = [0] * k, [0] * k
            for i in range(k, 0, -1):
                e, x = max((b[-1], x) for x, b in enumerate(blocks) if len(b) > 1)
                cuts[i - 1], picks[i - 1] = e - i, x
                blocks[x].pop()
                blocks = [[v - (v > e) for v in b] for b in blocks]
            return [b[0] for b in blocks], cuts, picks

        inputs = [
            [cell for row in t.rows for cell in row]
            for n in range(2, 10)
            for t in gen_two_row_union(n)
        ]
        for _name, poset in catalog():
            if poset.n <= 4:
                for k in (0, 1, 2):
                    inputs.extend(s.blocks for s in sv_linear_extensions(poset, k))
        assert len(inputs) > 2055
        for blocks in inputs:
            assert _peel(blocks) == stage_loop(blocks)

    def test_peel_cuts_weakly_increase_from_one(self):
        for n in range(2, 10):
            for t in gen_two_row_union(n):
                _base, cuts, _picks = _peel([cell for row in t.rows for cell in row])
                assert cuts == sorted(cuts) and all(c >= 1 for c in cuts)

    def test_compose_example_and_error(self):
        base = _rows([[1], [2]], [[3], [4]])
        assert str(compose(Triple(base, (2,), ((1, 2),)))) == "{1} {2,3} / {4} {5}"
        with pytest.raises(InvalidPick):
            compose(Triple(base, (2,), ((1, 1),)))
        with pytest.raises(InvalidPick):
            compose(Triple(base, (0,), ((2, 1),)))

    # a chain of three elements as the codec sees it: base entries 1, 2, 3 and
    # upper covers 0 -> 1 -> 2; picks are named by letter
    CHAIN3 = ([1, 2, 3], [0b010, 0b100, 0b000], {"a": 0, "b": 1, "c": 2})

    @pytest.mark.parametrize(
        "cuts,picks,message",
        [
            ((1,), (), "cuts and picks must have equal length"),
            ((1, 1), ("a",), "cuts and picks must have equal length"),
            ((0,), ("a",), "cuts out of range 1..3: (0,)"),
            ((4,), ("c",), "cuts out of range 1..3: (4,)"),
            ((2, 1), ("b", "a"), "cuts must weakly increase: (2, 1)"),
            ((1,), ("z",), "no letter z"),
            ((1,), ("b",), "letter b is outside the ideal of cut 1"),
            ((2,), ("a",), "letter a is not maximal for cut 2"),
            # precedence: lengths, then range, then order, then pick by pick
            ((0, 4), ("a",), "cuts and picks must have equal length"),
            ((4, 0), ("a", "a"), "cuts out of range 1..3: (4, 0)"),
            ((3, 1), ("z", "z"), "cuts must weakly increase: (3, 1)"),
            ((1, 2), ("b", "z"), "letter b is outside the ideal of cut 1"),
            ((2, 3), ("z", "a"), "no letter z"),
            ((3, 3), ("a", "z"), "letter a is not maximal for cut 3"),
        ],
    )
    def test_insert_errors(self, cuts, picks, message):
        base, succs, index = self.CHAIN3
        with pytest.raises(InvalidPick) as info:
            _insert(base, succs, cuts, picks, index, "letter")
        assert str(info.value) == message

    def test_insert_all_is_insert_at_every_legal_pick(self):
        base, succs, index = self.CHAIN3
        names = sorted(index, key=index.get)
        for k in range(3):
            for cuts in itertools.combinations_with_replacement(range(4), k):
                want = []
                for picks in itertools.product(names, repeat=k):
                    try:
                        blocks = _insert(base, succs, cuts, picks, index, "letter")
                    except InvalidPick:
                        continue
                    want.append((picks, blocks))
                assert list(_insert_all(base, succs, cuts, names)) == want

    @pytest.mark.parametrize(
        "cuts,message",
        [
            ((4,), "cuts out of range 0..3: (4,)"),
            ((-1, 2), "cuts out of range 0..3: (-1, 2)"),
            ((2, 0), "cuts must weakly increase: (2, 0)"),
        ],
    )
    def test_insert_all_errors(self, cuts, message):
        base, succs, index = self.CHAIN3
        with pytest.raises(InvalidPick) as info:
            list(_insert_all(base, succs, cuts, "abc"))
        assert str(info.value) == message

    def test_compose_names_the_cell(self):
        base = _rows([[1], [2]], [[3], [4]])
        for cuts, picks, message in [
            ((2,), ((3, 1),), "no cell (3, 1)"),
            ((1,), ((1, 2),), "cell (1, 2) is outside the ideal of cut 1"),
            ((3,), ((1, 1),), "cell (1, 1) is not maximal for cut 3"),
        ]:
            with pytest.raises(InvalidPick) as info:
                compose(Triple(base, cuts, picks))
            assert str(info.value) == message


class TestRotateComplement:
    def test_worked_example(self):
        out = rotate_complement(_rows([[1], [3]], [[2]]))
        assert str(out) == "{2} / {1} {3}"
        assert out.shape.outer == Partition((2, 2))
        assert out.shape.inner == Partition((1,))

    def test_involution_on_near_rectangles(self):
        # images are built without checks, so each is validated in full
        for b in range(1, 5):
            for k in range(0, 4):
                for t in gen_svsyt((b + 1, b), k):
                    image = rotate_complement(t)
                    assert validate_svsyt(image) == k
                    assert image.shape.inner == Partition((1,))
                    assert rotate_complement(image) == t

    def test_near_rectangle_count_identity(self):
        for n in range(3, 9):
            total = 0
            for b in range(0, (n - 1) // 2 + 1):
                k = n - 1 - 2 * b
                shape = (1,) if b == 0 else (b + 1, b)
                total += sum(1 for _ in gen_svsyt(shape, k))
            assert total == catalan(n) - catalan(n - 1)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            rotate_complement(_rows([[1], [2]], [[3], [4]]))
        with pytest.raises(ShapeMismatch):
            rotate_complement(_rows([[1], [2], [3]]))


# ---------------------------------------------------------------------------
# the maps build their images without checks; each image is validated in full
# here, on objects larger than the verify suites reach


def _random_motz_et(rng: random.Random, length: int) -> ColoredPath:
    """A random path of the length with both restrictions that ends at height 0."""
    word, h, seen_D = [], 0, False
    for left in range(length - 1, -1, -1):
        steps = ["U"] if h + 1 <= left else []
        if h > 0:
            steps.append("D")
        if 0 < h <= left:
            steps.append("u")
        if seen_D and h <= left:
            steps.append("d")
        step = rng.choice(steps)
        h += {"U": 1, "D": -1}.get(step, 0)
        seen_D = seen_D or step == "D"
        word.append(step)
    return ColoredPath("".join(word))


def _long_tableaux():
    rng = random.Random(17)
    for _ in range(60):
        yield tableau_from_path(_random_motz_et(rng, rng.randint(20, 50) * 2))


def test_images_of_long_tableaux_are_valid():
    for t in _long_tableaux():
        assert 40 <= t.nentries <= 100
        assert validate_svsyt(t) == t.extras
        images = (tableau_from_perm(perm_from_tableau(t)), compose(decompose(t)))
        for image in images:
            assert validate_svsyt(image) == image.extras
            assert image == t
