"""Descent statistics, permutation statistics, and q-polynomial refinements."""

from collections import Counter

import pytest

from svtab.biject import path_from_tableau
from svtab.closedform import catalan, kreweras, narayana
from svtab.core import ColoredPath, NotInFamily, OutOfRange, Permutation, SetValuedTableau
from svtab.enumerate import (
    _cell_masks,
    _comaj_walk,
    _two_row_shapes,
    as_skew,
    gen_svsyt,
    gen_two_row_union,
)
from svtab.rings import QPoly
from svtab.stats import (
    comaj_path,
    comaj_plus_k,
    ddeg,
    descent_set_plus_k,
    dyck_type,
    inner_peaks,
    inner_valleys,
    rl_minima,
    set_valued_q_catalan,
    set_valued_q_narayana,
    _q_narayana_row,
)
from svtab.posets import antichain, chain

# Reference coefficient tables, low degree first.
QCAT_ROWS = {
    1: [1],
    2: [1, 1],
    3: [1, 1, 2, 1],
    4: [1, 2, 2, 3, 3, 2, 1],
    5: [1, 1, 3, 7, 6, 5, 6, 7, 3, 2, 1],
}
QNAR_ROWS = {
    (1, 1): [1],
    (2, 1): [1],
    (2, 2): [0, 1],
    (3, 1): [0, 1],
    (3, 2): [1, 0, 2],
    (3, 3): [0, 0, 0, 1],
    (4, 1): [0, 0, 0, 1],
    (4, 2): [1, 1, 1, 1, 2],
    (4, 3): [0, 1, 1, 1, 1, 2],
    (4, 4): [0, 0, 0, 0, 0, 0, 1],
}


def _windowed_descents(t: SetValuedTableau) -> frozenset[int]:
    """Reference computation straight from the window construction.

    Extras are the non-minimal entries x_1 < ... < x_k.  Each cell belongs to
    the first window i with min(cell) <= x_i; a window descent is a pair of
    consecutive minimal entries in the same window with the larger one in a
    strictly higher row.  The descent set is the window descents plus all
    extras.
    """
    cells = list(t.cells())
    extras = sorted(e for _pos, es in cells for e in es[1:])

    def window(min_entry: int) -> int:
        for i, x in enumerate(extras):
            if min_entry <= x:
                return i
        return len(extras)

    row_of = {}
    win_of = {}
    for (r, _c), es in cells:
        row_of[es[0]] = r
        win_of[es[0]] = window(es[0])
    des = set(extras)
    for j in win_of:
        if (
            j + 1 in win_of
            and win_of[j] == win_of[j + 1]
            and row_of[j + 1] < row_of[j]
        ):
            des.add(j)
    return frozenset(des)


class TestDescentSet:
    def test_three_row_worked_example(self):
        t = SetValuedTableau.from_rows(
            [
                [[1], [2], [7], [8]],
                [[3], [4, 5], [11], [13]],
                [[6, 9, 10], [12], [14, 15], [16]],
            ]
        )
        assert sorted(descent_set_plus_k(t)) == [5, 6, 9, 10, 12, 15]
        assert comaj_plus_k(t) == 39

    def test_matches_window_construction(self):
        shapes = [(2,), (3,), (2, 1), (2, 2), (3, 2), (3, 3), (2, 2, 1), (2, 2, 2)]
        for shape in shapes:
            for k in range(3):
                for t in gen_svsyt(shape, k):
                    assert descent_set_plus_k(t) == _windowed_descents(t), str(t)

    def test_k0_reduces_to_natural_descents(self):
        # with no extras a descent is j with j+1 strictly higher
        for t in gen_svsyt((3, 3), 0):
            pos = {es[0]: r for (r, _c), es in t.cells()}
            classic = {j for j in range(1, 6) if pos[j + 1] < pos[j]}
            assert set(descent_set_plus_k(t)) == classic

    def test_comaj_is_weighted_descent_sum(self):
        for t in gen_svsyt((2, 2), 2):
            total = t.nentries
            assert comaj_plus_k(t) == sum(total - j for j in descent_set_plus_k(t))

    def test_largest_entry_contributes_zero(self):
        t = SetValuedTableau.from_rows([[[1], [2, 3]]])
        assert sorted(descent_set_plus_k(t)) == [3]
        assert comaj_plus_k(t) == 0


class TestPermutationStats:
    def test_worked_example(self):
        w = Permutation.from_text("3 5 1 2 7 8 4 10 11 6 9")
        assert inner_valleys(w) == (3, 7, 10)
        assert inner_peaks(w) == (2, 6, 9)
        assert rl_minima(w) == (1, 2, 4, 6, 9)

    def test_degenerate_lengths(self):
        assert inner_valleys(Permutation((1,))) == ()
        assert inner_peaks(Permutation((1, 2))) == ()
        assert rl_minima(Permutation((2, 1))) == (1,)
        assert rl_minima(Permutation((1, 2))) == (1, 2)

    def test_valleys_and_peaks_alternate(self):
        w = Permutation((2, 6, 1, 5, 3, 7, 4, 8))
        merged = sorted(inner_valleys(w) + inner_peaks(w))
        kinds = ["v" if j in inner_valleys(w) else "p" for j in merged]
        assert all(a != b for a, b in zip(kinds, kinds[1:]))


class TestDyckType:
    def test_worked_example(self):
        w = Permutation.from_text("3 5 1 2 7 8 4 10 11 6 9")
        from svtab.biject import tableau_from_perm

        m, comp, mu = dyck_type(tableau_from_perm(w))
        assert m == 5
        assert comp == (1, 2, 2, 3, 3)
        assert mu == {1: 1, 2: 2, 3: 2}

    def test_peak_tally_is_narayana(self):
        for n in range(2, 9):
            tallies = Counter(dyck_type(t)[0] for t in gen_two_row_union(n))
            for m, got in tallies.items():
                assert got == narayana(n - 1, m)

    def test_type_tally_is_kreweras(self):
        for n in range(2, 9):
            tallies = Counter()
            for t in gen_two_row_union(n):
                m, _comp, mu = dyck_type(t)
                tallies[(m, tuple(sorted(mu.items())))] += 1
            for (m, mu_items), got in tallies.items():
                assert got == kreweras(n - 1, m, dict(mu_items))


class TestQPolynomials:
    def test_q_catalan_golden_rows(self):
        for n, coeffs in QCAT_ROWS.items():
            assert set_valued_q_catalan(n) == QPoly(coeffs)

    def test_q_narayana_golden_rows(self):
        for (n, m), coeffs in QNAR_ROWS.items():
            assert set_valued_q_narayana(n, m) == QPoly(coeffs)

    def test_narayana_rows_sum_to_catalan_row(self):
        for n in range(1, 6):
            total = QPoly.zero()
            for m in range(1, n + 1):
                total = total + set_valued_q_narayana(n, m)
            assert total == set_valued_q_catalan(n)

    def test_q_one_specializes_to_counts(self):
        for n in range(1, 7):
            assert set_valued_q_catalan(n)(1) == catalan(n)

    def test_path_pass_matches_the_rectangle_ideal_dp(self):
        # the row packs each state's tally into B-bit slots; a B too narrow
        # carries across slots and changes the sum from n = 3 on
        for n in range(1, 25):
            masks = (_cell_masks(as_skew(lam))[1:] for lam in _two_row_shapes(n + 1))
            want = sum((_comaj_walk(p, s, n + 1) for p, s in masks), QPoly.zero())
            assert sum(_q_narayana_row(n).values(), QPoly.zero()) == want, n
        for n in range(1, 41):
            assert set_valued_q_catalan(n)(1) == catalan(n), n

    def test_tableau_tally_reproduces_rows(self):
        # the q-polynomials tally comaj over the size-(n+1) union
        for n in range(1, 6):
            poly = QPoly.zero()
            for t in gen_two_row_union(n + 1):
                poly = poly + QPoly.monomial(comaj_plus_k(t))
            assert poly == set_valued_q_catalan(n)


class TestDdeg:
    def test_values(self):
        assert ddeg(chain(3), frozenset()) == 0
        assert ddeg(chain(3), frozenset({1, 2})) == 1
        assert ddeg(antichain(3), frozenset({1, 3})) == 2
        assert ddeg(antichain(4), frozenset({1, 2, 3, 4})) == 4

    @pytest.mark.parametrize("ideal", [{5}, {0}, {1, 4}])
    def test_labels_outside_the_poset(self, ideal):
        with pytest.raises(OutOfRange) as info:
            ddeg(chain(3), ideal)
        assert str(info.value) == f"ideal {sorted(ideal)} has labels outside 1..3"


def test_q_analogs_match_the_enumeration_tally_by_m():
    # the library's DP against comaj_plus_k tallied by dyck_type's m
    for n in range(1, 9):
        tallies = {m: Counter() for m in range(1, n + 1)}
        for t in gen_two_row_union(n + 1):
            tallies[dyck_type(t)[0]][comaj_plus_k(t)] += 1
        total = QPoly.zero()
        for m, tally in tallies.items():
            want = QPoly([tally[c] for c in range(max(tally) + 1)])
            assert set_valued_q_narayana(n, m) == want, (n, m)
            total = total + want
        assert set_valued_q_catalan(n) == total, n


def test_comaj_path_reads_the_tableau_comajor_along_its_path():
    # UDUuDd is {1} {3,4} / {2} {5,6}: the DU at 2 adds 6 - 2, the u at 4 adds
    # 6 - 4 and the d at 6 adds 0
    assert comaj_path(ColoredPath("UDUuDd")) == 6
    for n in range(2, 11):
        for t in gen_two_row_union(n):
            assert comaj_path(path_from_tableau(t)) == comaj_plus_k(t), str(t)


def test_dyck_type_rejects_entry_one_below_the_top_row_under_O(raised_under_O):
    rows = "[[[2]], [[1], [3]]], inner=(1,)"
    with pytest.raises(NotInFamily):
        dyck_type(SetValuedTableau.from_rows([[[2]], [[1], [3]]], inner=(1,)))
    call = f"svtab.stats.dyck_type(svtab.core.SetValuedTableau.from_rows({rows}))"
    assert raised_under_O(call) == "NotInFamily"
