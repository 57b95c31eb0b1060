"""Posets, set-valued linear extensions, and the cut-weight identities."""

import itertools
from collections import Counter

import pytest

import svtab.posets
from svtab.closedform import binom, hook_count
from svtab.core import (
    EmptyCell,
    InvalidPick,
    NotAPartitionOfRange,
    OrderViolation,
    OutOfRange,
    Partition,
)
from svtab.posets import (
    NotNaturallyLabeled,
    Poset,
    SetValuedLinearExtension,
    antichain,
    catalog,
    chain,
    compose_extension,
    compose_extensions,
    comaj,
    decompose_extension,
    descent_positions,
    equidistribution_check,
    expected_ddeg,
    linear_extensions,
    pi_perm,
    qbinom,
    relabel,
    sum_identity_check,
    sv_linear_extensions,
    vartheta,
    young_diagram,
    _maximal_in_prefix,
)
from svtab.enumerate import _comaj_walk, _count_walk
from svtab.rings import QPoly
from svtab.stats import comaj_plus_k, ddeg

VEE = Poset(3, ((1, 3), (2, 3)))
WEDGE = Poset(3, ((1, 2), (1, 3)))


class TestPoset:
    def test_natural_labeling_enforced(self):
        with pytest.raises(NotNaturallyLabeled):
            Poset(2, ((2, 1),))
        with pytest.raises(NotNaturallyLabeled):
            Poset(3, ((1, 2), (3, 2)))

    def test_constructors(self):
        assert chain(3).covers == ((1, 2), (2, 3))
        assert antichain(4).covers == ()
        assert young_diagram((2, 1)).covers == ((1, 2), (1, 3))
        assert young_diagram(Partition((2, 2))).n == 4

    def test_relabel(self):
        # pushing the antichain through a permutation keeps it natural
        p = relabel(antichain(3), (3, 1, 2))
        assert p.n == 3 and p.covers == ()
        q = relabel(VEE, (1, 2, 3))
        assert q == VEE

    def test_order_relations(self):
        assert VEE.above[1] == frozenset({3})


class TestLinearExtensions:
    def test_counts(self):
        assert list(linear_extensions(chain(4))) == [(1, 2, 3, 4)]
        assert len(list(linear_extensions(antichain(4)))) == 24
        assert len(list(linear_extensions(VEE))) == 2
        assert len(list(linear_extensions(young_diagram((3, 3))))) == hook_count(
            Partition((3, 3))
        )

    def test_lex_order_and_validity(self):
        exts = list(linear_extensions(young_diagram((2, 2))))
        assert exts == sorted(exts)
        p = young_diagram((2, 2))
        for ext in exts:
            position = {e: i for i, e in enumerate(ext)}
            for a, b in p.covers:
                assert position[a] < position[b]

    def test_descents_and_comaj(self):
        assert descent_positions((1, 3, 2, 4)) == frozenset({2})
        assert descent_positions((2, 1)) == frozenset({1})
        assert comaj((1, 3, 2, 4)) == 2
        assert comaj((1, 2, 3)) == 0


class TestSvLinearExtensions:
    def test_worked_list(self):
        assert [str(s) for s in sv_linear_extensions(antichain(2), 1)] == [
            "1:{1,2} 2:{3}",
            "1:{1,3} 2:{2}",
            "1:{1} 2:{2,3}",
            "1:{2,3} 2:{1}",
            "1:{2} 2:{1,3}",
            "1:{3} 2:{1,2}",
        ]

    def test_k0_matches_plain_extensions(self):
        for poset in (chain(3), antichain(3), VEE, young_diagram((2, 2))):
            plain = list(linear_extensions(poset))
            sv = list(sv_linear_extensions(poset, 0))
            assert len(sv) == len(plain)
            assert [decompose_extension(s)[0] for s in sv] == plain

    def test_chain_count_is_weak_compositions(self):
        for n in range(1, 5):
            for k in range(4):
                got = sum(1 for _ in sv_linear_extensions(chain(n), k))
                assert got == binom(n + k - 1, k)

    def test_counts_by_composition(self):
        # summing the pick products over all cut vectors gives the sv count
        for poset in (antichain(3), VEE, WEDGE, young_diagram((2, 2))):
            n = poset.n
            for k in range(3):
                total = 0
                for ext in linear_extensions(poset):
                    prefix = [frozenset(ext[:t]) for t in range(n + 1)]
                    for cuts in itertools.combinations_with_replacement(
                        range(n + 1), k
                    ):
                        ways = 1
                        for t in cuts:
                            ways *= ddeg(poset, prefix[t])
                        total += ways
                assert total == sum(1 for _ in sv_linear_extensions(poset, k))

    def test_cover_pairs_validate_like_transitive_pairs(self):
        # every surjection of entries onto elements, for n <= 4 and k <= 1
        rejected = 0
        for _name, poset in catalog():
            if poset.n > 4:
                continue
            for k in (0, 1):
                size = poset.n + k
                for word in itertools.product(poset.elements, repeat=size):
                    blocks = tuple(
                        tuple(e for e, y in enumerate(word, start=1) if y == x)
                        for x in poset.elements
                    )
                    if not all(blocks):
                        continue
                    separated = all(
                        blocks[a - 1][-1] < blocks[b - 1][0]
                        for a in poset.elements
                        for b in poset.above[a]
                    )
                    try:
                        SetValuedLinearExtension(poset, blocks)
                        accepted = True
                    except OrderViolation:
                        accepted = False
                    assert accepted == separated, (poset, blocks)
                    rejected += not accepted
        assert rejected > 0


    @pytest.mark.parametrize(
        "poset,blocks,error,message",
        [
            (chain(2), ((1,),), OutOfRange, "expected 2 blocks, got 1"),
            (chain(2), ((1,), (2,), (3,)), OutOfRange, "expected 2 blocks, got 3"),
            (antichain(2), ((1, 2), ()), EmptyCell, "element 2 received no entries"),
            (antichain(2), ((), ()), EmptyCell, "element 1 received no entries"),
            (antichain(2), ((1,), (3,)), NotAPartitionOfRange, "entries do not partition 1..2"),
            (antichain(2), ((1, 1), (2,)), NotAPartitionOfRange, "entries do not partition 1..3"),
            (
                chain(3),
                ((3,), (2,), (1,)),
                OrderViolation,
                "block of 1 must finish before block of 2 starts",
            ),
            (VEE, ((1,), (3,), (2,)), OrderViolation, "block of 2 must finish before block of 3 starts"),
            # precedence: the count, then empty blocks, then the partition, then the order
            (chain(2), ((), (), ()), OutOfRange, "expected 2 blocks, got 3"),
            (chain(2), ((9,), ()), EmptyCell, "element 2 received no entries"),
            (chain(2), ((2,), (1, 1)), NotAPartitionOfRange, "entries do not partition 1..3"),
        ],
    )
    def test_validation_errors(self, poset, blocks, error, message):
        with pytest.raises(error) as info:
            SetValuedLinearExtension(poset, blocks)
        assert str(info.value) == message

    def test_blocks_are_sorted(self):
        s = SetValuedLinearExtension(chain(2), ([2, 1], (3,)))
        assert s.blocks == ((1, 2), (3,))

    def test_compose_errors(self):
        for ext, cuts, picks, message in [
            ((1, 1), (), (), "(1, 1) is not a linear extension listing"),
            ((2, 1), (), (), "(2, 1) lists 2 before 1"),
            ((1, 2), (1,), (2,), "element 2 is outside the ideal of cut 1"),
            ((1, 2), (2,), (1,), "element 1 is not maximal for cut 2"),
        ]:
            with pytest.raises(InvalidPick) as info:
                compose_extension(chain(2), ext, cuts, picks)
            assert str(info.value) == message


class TestTripleCodec:
    def test_worked_example(self):
        s = next(iter(sv_linear_extensions(antichain(2), 2)))
        assert str(s) == "1:{1,2,3} 2:{4}"
        ext, cuts, picks = decompose_extension(s)
        assert (ext, cuts, picks) == ((1, 2), (1, 1), (1, 1))
        assert compose_extension(antichain(2), ext, cuts, picks) == s

    def test_roundtrip_everywhere(self):
        for poset in (chain(3), antichain(3), VEE, WEDGE, young_diagram((2, 1))):
            for k in range(3):
                for s in sv_linear_extensions(poset, k):
                    ext, cuts, picks = decompose_extension(s)
                    assert compose_extension(poset, ext, cuts, picks) == s
                    assert len(cuts) == k == len(picks)
                    assert all(0 < t <= poset.n for t in cuts)

    def test_insertion_matches_the_shift_loop(self):
        # reference: insert cut+i and shift every entry >= cut+i up, stage by stage
        for _name, poset in catalog():
            if poset.n > 4:
                continue
            for ext, k in itertools.product(linear_extensions(poset), (1, 2)):
                for cuts in itertools.combinations_with_replacement(
                    range(1, poset.n + 1), k
                ):
                    pools = [_maximal_in_prefix(poset, ext, t) for t in cuts]
                    for picks in itertools.product(*pools):
                        blocks = [[ext.index(x) + 1] for x in poset.elements]
                        for i, (cut, p) in enumerate(zip(cuts, picks), start=1):
                            blocks = [[v + (v >= cut + i) for v in b] for b in blocks]
                            blocks[p - 1].append(cut + i)
                        got = compose_extension(poset, ext, cuts, picks)
                        assert got.blocks == tuple(map(tuple, blocks))

    def test_invalid_picks(self):
        with pytest.raises(InvalidPick):
            compose_extension(chain(2), (1, 2), (1,), (2,))
        with pytest.raises(InvalidPick):
            compose_extension(antichain(2), (1, 2), (0,), (1,))


class TestComposeExtensions:
    def test_matches_compose_extension_pick_by_pick(self):
        for _name, poset in catalog():
            if poset.n > 5:
                continue
            for ext, k in itertools.product(linear_extensions(poset), range(3)):
                for cuts in itertools.combinations_with_replacement(
                    range(poset.n + 1), k
                ):
                    pools = [_maximal_in_prefix(poset, ext, t) for t in cuts]
                    want = [
                        (picks, compose_extension(poset, ext, cuts, picks))
                        for picks in itertools.product(*pools)
                    ]
                    assert list(compose_extensions(poset, ext, cuts)) == want

    @pytest.mark.parametrize("ext", [(1, 1), (2, 1)])
    def test_non_extension_raises_as_compose_extension(self, ext):
        with pytest.raises(InvalidPick) as want:
            compose_extension(chain(2), ext, (1,), (1,))
        with pytest.raises(InvalidPick) as got:
            list(compose_extensions(chain(2), ext, (1,)))
        assert str(got.value) == str(want.value)

    def test_cut_zero_yields_nothing(self):
        for cuts in [(0,), (0, 0), (0, 2), (0, 1, 2)]:
            assert list(compose_extensions(antichain(2), (1, 2), cuts)) == []

    def test_extension_checked_once_for_all_its_cut_vectors(self, monkeypatch):
        calls = []
        real = svtab.posets._extension_times
        monkeypatch.setattr(
            svtab.posets,
            "_extension_times",
            lambda poset, ext: calls.append(ext) or real(poset, ext),
        )
        svtab.posets._extension_frame.cache_clear()
        poset = antichain(3)
        for ext in [(1, 2, 3), (2, 1, 3)]:
            for cuts in itertools.combinations_with_replacement(range(4), 2):
                list(compose_extensions(poset, ext, cuts))
        assert calls == [(1, 2, 3), (2, 1, 3)]

    def test_no_cuts_yield_the_extension_itself(self):
        (item,) = compose_extensions(VEE, (2, 1, 3), ())
        assert item == ((), compose_extension(VEE, (2, 1, 3), (), ()))
        assert str(item[1]) == "1:{2} 2:{1} 3:{3}"


class TestVartheta:
    def test_counterexample_values(self):
        # cuts landing on a repeated or descent position distinguish the
        # closed form from the naive per-cut product
        assert vartheta((2, 1), (1, 1)) == QPoly.monomial(3)
        assert vartheta((2, 1), (1, 2)) == QPoly.monomial(2)

    def test_cut_validation(self):
        with pytest.raises(OutOfRange):
            vartheta((1, 2), (3,))
        with pytest.raises(OutOfRange):
            vartheta((1, 2), (2, 1))
        with pytest.raises(OutOfRange):
            vartheta((1, 2), (-1,))

    def test_matches_composed_comaj(self):
        for poset in (chain(3), antichain(3), VEE, WEDGE):
            n = poset.n
            for k in range(3):
                for ext in linear_extensions(poset):
                    for cuts in itertools.combinations_with_replacement(
                        range(n + 1), k
                    ):
                        weight = vartheta(ext, cuts)
                        tally = QPoly.zero()
                        count = 0
                        prefix = [frozenset(ext[:t]) for t in range(n + 1)]
                        for picks in itertools.product(
                            *(
                                sorted(_maximals(poset, prefix[t]))
                                for t in cuts
                            )
                        ):
                            s = compose_extension(poset, ext, cuts, picks)
                            tally = tally + QPoly.monomial(comaj_plus_k(s))
                            count += 1
                        if count:
                            # the weight is pick independent
                            assert tally == weight * count
                        if 0 in cuts:
                            assert count == 0


def _maximals(poset, ideal):
    return [e for e in ideal if not (poset.above[e] & ideal)]


def _printed_weight(n: int, ext: tuple[int, ...], cuts: tuple[int, ...]) -> QPoly:
    """The per-cut product form of the weight (not always the true weight)."""
    des = descent_positions(ext)
    k = len(cuts)
    exp = comaj(ext) + k * (k - 1) // 2 + sum(pi_perm(n, des, t) for t in cuts)
    return QPoly.monomial(exp)


class TestPrintedProductForm:
    def test_per_term_divergence(self):
        assert _printed_weight(2, (2, 1), (1, 1)) == QPoly.monomial(2)
        assert _printed_weight(2, (2, 1), (1, 2)) == QPoly.monomial(3)
        assert vartheta((2, 1), (1, 1)) == QPoly.monomial(3)
        assert vartheta((2, 1), (1, 2)) == QPoly.monomial(2)

    def test_aggregate_agreement(self):
        # summed over all cut vectors the two weights coincide per extension
        posets = [chain(2), chain(3), antichain(2), antichain(3), VEE, WEDGE]
        for poset in posets:
            n = poset.n
            for k in range(4):
                for ext in linear_extensions(poset):
                    true_sum = QPoly.zero()
                    printed_sum = QPoly.zero()
                    for cuts in itertools.combinations_with_replacement(
                        range(n + 1), k
                    ):
                        true_sum = true_sum + vartheta(ext, cuts)
                        printed_sum = printed_sum + _printed_weight(n, ext, cuts)
                    assert true_sum == printed_sum, (poset, k, ext)

    def test_agreement_when_k_is_one(self):
        # a single cut can never sit on both a descent and a repeat
        for poset in (antichain(3), VEE):
            n = poset.n
            for ext in linear_extensions(poset):
                for t in range(n + 1):
                    assert vartheta(ext, (t,)) == _printed_weight(n, ext, (t,))


class TestPiPerm:
    def test_worked_values(self):
        assert pi_perm(2, frozenset({1}), 1) == 0
        assert pi_perm(2, frozenset({1}), 2) == 1
        assert pi_perm(2, frozenset({1}), 0) == 2

    def test_is_permutation_exhaustively(self):
        for n in range(7):
            universe = list(range(1, n + 1))
            for r in range(n + 1):
                for x in itertools.combinations(universe, r):
                    values = [pi_perm(n, frozenset(x), t) for t in range(n + 1)]
                    assert sorted(values) == list(range(n + 1)), (n, x)


class TestQBinom:
    def test_values(self):
        assert qbinom(4, 2) == QPoly([1, 1, 2, 1, 1])
        assert qbinom(3, 0) == QPoly.one()
        assert qbinom(3, 3) == QPoly.one()
        assert qbinom(5, 1) == QPoly([1, 1, 1, 1, 1])

    def test_specializes_to_binomial(self):
        for a in range(9):
            for b in range(a + 1):
                assert qbinom(a, b)(1) == binom(a, b)

    def test_symmetry(self):
        for a in range(8):
            for b in range(a + 1):
                assert qbinom(a, b) == qbinom(a, a - b)

    def test_product_formula_at_integer_q(self):
        """[a over b]_q times prod (q^(i+1) - 1) is prod (q^(a-i) - 1), i < b."""
        for q in (2, 3, 5):
            for a in range(21):
                for b in range(a + 1):
                    den = num = 1
                    for i in range(b):
                        den *= q ** (i + 1) - 1
                        num *= q ** (a - i) - 1
                    assert qbinom(a, b)(q) * den == num, (q, a, b)


class TestIdentities:
    POSETS = [
        ("chain2", chain(2)),
        ("chain3", chain(3)),
        ("antichain2", antichain(2)),
        ("antichain3", antichain(3)),
        ("vee", VEE),
        ("wedge", WEDGE),
        ("young22", young_diagram((2, 2))),
    ]

    def test_weight_sum_identity(self):
        for _name, poset in self.POSETS:
            for k in range(3):
                lhs, rhs = sum_identity_check(poset, k)
                assert lhs == rhs
                assert lhs(1) == binom(poset.n + k, k) * len(
                    list(linear_extensions(poset))
                )

    def test_expected_ddeg_identity(self):
        for _name, poset in self.POSETS:
            for k in range(3):
                num, den = expected_ddeg(poset, k)
                assert num(1) == sum(1 for _ in sv_linear_extensions(poset, k))
                assert den(1) == binom(poset.n + k, k) * len(
                    list(linear_extensions(poset))
                )

    def test_chain2_k1_value(self):
        num, den = expected_ddeg(chain(2), 1)
        assert (num, den) == (QPoly([1, 1]), QPoly([1, 1, 1]))

    def test_numerator_is_comaj_tally(self):
        for _name, poset in self.POSETS[:5]:
            for k in range(3):
                num, _den = expected_ddeg(poset, k)
                tally = QPoly.zero()
                for s in sv_linear_extensions(poset, k):
                    tally = tally + QPoly.monomial(comaj_plus_k(s))
                assert num == tally

    @pytest.mark.parametrize(
        "poset,extensions",
        [(young_diagram((5, 5, 5, 5)), hook_count((5, 5, 5, 5))), (antichain(8), 40320)],
        ids=["young-5-5-5-5", "antichain8"],
    )
    def test_both_identities_past_the_catalog(self, poset, extensions):
        # n = 20 and n = 8 with k = 2, far past the loops over extensions
        n, k = poset.n, 2
        num, den = expected_ddeg(poset, k)
        lhs, rhs = sum_identity_check(poset, k)
        preds, succs = poset._cover_masks
        assert num == _comaj_walk(preds, succs, n + k)
        assert num(1) == _count_walk(preds, succs, k)[k]
        closed = QPoly.monomial(1) * qbinom(n + 2, 2) * _comaj_walk(preds, succs, n)
        assert den == lhs == rhs == closed
        assert den(1) == binom(n + 2, 2) * extensions

    def test_empty_poset(self):
        empty = Poset(0, ())
        one, q = QPoly([1]), QPoly([0, 1])
        assert [expected_ddeg(empty, k) for k in range(3)] == [
            (one, one),
            (QPoly.zero(), one),
            (QPoly.zero(), q),
        ]
        assert [sum_identity_check(empty, k) for k in range(3)] == [
            (one, one),
            (one, one),
            (q, q),
        ]


class TestEquidistribution:
    def test_self_conjugate_trivial(self):
        equal, table, conj_table = equidistribution_check((2, 1), 1)
        assert equal and table == conj_table

    def test_conjugate_pairs(self):
        for shape, k in [((3, 1), 1), ((2, 1, 1), 1), ((2, 2), 2), ((3,), 2)]:
            equal, table, conj_table = equidistribution_check(shape, k)
            assert equal
            assert table == conj_table
            assert sum(table.values()) == sum(1 for _ in sv_linear_extensions(
                young_diagram(shape), k
            ))


class TestCatalog:
    def test_size_and_uniqueness(self):
        entries = catalog()
        names = [name for name, _p in entries]
        assert len(entries) == 46
        assert len(set(names)) == 46

    def test_entries_are_natural_and_small(self):
        for _name, poset in catalog():
            assert all(a < b for a, b in poset.covers)
            assert 1 <= poset.n <= 6

    def test_families_present(self):
        names = {name for name, _p in catalog()}
        assert {"chain1", "chain6", "antichain5", "vee", "wedge"} <= names
        assert {"young-3-2-1", "young-2-2-colmajor", "young-1-1-1-1-1-1"} <= names


class TestOrderIdealWalker:
    def test_cover_masks(self):
        preds, succs = young_diagram((2, 2))._cover_masks
        assert preds == [0b0000, 0b0001, 0b0001, 0b0110]
        assert succs == [0b0110, 0b1000, 0b1000, 0b0000]

    def test_compose_rejects_any_order_violation(self):
        # 3 before 1 breaks 1 < 3 although no two adjacent entries compare
        with pytest.raises(InvalidPick):
            compose_extension(Poset(3, ((1, 3),)), (3, 2, 1), (), ())


# ---------------------------------------------------------------------------
# input checks hold in an interpreter that strips asserts


def test_pi_perm_rejects_x_outside_the_range_under_O(raised_under_O):
    with pytest.raises(OutOfRange):
        pi_perm(3, {7, -2}, 1)
    assert raised_under_O("svtab.posets.pi_perm(3, {7, -2}, 1)") == "OutOfRange"


def test_relabel_rejects_a_non_permutation_under_O(raised_under_O):
    with pytest.raises(InvalidPick):
        relabel(chain(3), (1, 1, 2))
    call = "svtab.posets.relabel(svtab.posets.chain(3), (1, 1, 2))"
    assert raised_under_O(call) == "InvalidPick"
