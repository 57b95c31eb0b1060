"""Closed formulas: binomial identities, path-count tables, hook counts."""

import itertools
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from svtab.closedform import (
    act_count,
    ballot_count,
    binom,
    catalan,
    e_count,
    f_count,
    falling,
    hook_count,
    kreweras,
    more_shapes_counts,
    narayana,
    peaks_count,
    row_sums,
    _two_row_hook_count,
)
from svtab.core import InconsistentType, OutOfRange, Partition

# (n, i) -> (e, f); transcribed reference values for the two ending-height
# refinements of ballotlike path counts.
EF_TABLE = {
    (0, 0): (1, 0),
    (1, 0): (0, 0), (1, 1): (1, 0),
    (2, 0): (0, 1), (2, 1): (1, 0), (2, 2): (1, 0),
    (3, 0): (0, 2), (3, 1): (1, 2), (3, 2): (2, 0), (3, 3): (1, 0),
    (4, 0): (0, 5), (4, 1): (1, 8), (4, 2): (3, 3), (4, 3): (3, 0),
    (4, 4): (1, 0),
    (5, 0): (0, 14), (5, 1): (1, 27), (5, 2): (4, 17), (5, 3): (6, 4),
    (5, 4): (4, 0), (5, 5): (1, 0),
    (6, 0): (0, 42), (6, 1): (1, 89), (6, 2): (5, 71), (6, 3): (10, 29),
    (6, 4): (10, 5), (6, 5): (5, 0), (6, 6): (1, 0),
    (7, 0): (0, 132), (7, 1): (1, 296), (7, 2): (6, 270), (7, 3): (15, 144),
    (7, 4): (20, 44), (7, 5): (15, 6), (7, 6): (6, 0), (7, 7): (1, 0),
    (8, 0): (0, 429), (8, 1): (1, 1000), (8, 2): (7, 995), (8, 3): (21, 622),
    (8, 4): (35, 253), (8, 5): (35, 62), (8, 6): (21, 7), (8, 7): (7, 0),
    (8, 8): (1, 0),
}


class TestElementary:
    @given(st.integers(0, 40), st.integers(-3, 43))
    def test_binom_matches_math_comb(self, m, j):
        assert binom(m, j) == (math.comb(m, j) if 0 <= j <= m else 0)

    @given(st.integers(1, 40), st.integers(0, 40))
    def test_binom_of_a_negative_upper_index(self, m, j):
        assert binom(-m, j) == (-1) ** j * math.comb(m + j - 1, j)

    def test_falling(self):
        assert falling(5, 3) == 60
        assert falling(7, 0) == 1
        assert falling(4, 4) == 24
        assert falling(3, 5) == 0

    def test_falling_matches_the_product(self):
        for x, a in itertools.product(range(-6, 9), range(9)):
            assert falling(x, a) == math.prod(x - i for i in range(a)), (x, a)

    def test_two_row_hook_count_matches_hook_lengths(self):
        for a in range(16):
            for b in range(a + 1):
                shape = Partition(tuple(p for p in (a, b) if p))
                assert _two_row_hook_count(a, b) == hook_count(shape), (a, b)

    def test_catalan(self):
        assert [catalan(n) for n in range(9)] == [
            1, 1, 2, 5, 14, 42, 132, 429, 1430,
        ]

    def test_narayana(self):
        assert narayana(4, 2) == 6
        assert [narayana(5, m) for m in range(1, 6)] == [1, 10, 20, 10, 1]
        assert sum(narayana(6, m) for m in range(1, 7)) == catalan(6)
        with pytest.raises(OutOfRange):
            narayana(4, 0)
        with pytest.raises(OutOfRange):
            narayana(4, 5)

    def test_kreweras(self):
        assert kreweras(11, 5, {1: 1, 2: 2, 3: 2}) == 1980
        assert kreweras(3, 3, {1: 3}) == 1
        assert kreweras(4, 1, {4: 1}) == 1
        # summed over all types with m peaks it refines the Narayana number
        assert kreweras(4, 2, {1: 1, 3: 1}) + kreweras(4, 2, {2: 2}) == narayana(4, 2)
        with pytest.raises(InconsistentType):
            kreweras(5, 2, {1: 1, 2: 1})

    def test_hook_count(self):
        assert hook_count(Partition(())) == 1
        assert hook_count(Partition((1,))) == 1
        assert hook_count(Partition((3, 3))) == 5
        assert hook_count(Partition((4, 4))) == 14
        assert hook_count(Partition((2, 2, 2))) == 5
        assert hook_count(Partition((4, 2))) == 9


class TestPathTables:
    def test_ef_reference_table(self):
        for (n, i), (e, f) in EF_TABLE.items():
            assert e_count(n, i) == e, (n, i)
            assert f_count(n, i) == f, (n, i)

    def test_spot_values(self):
        assert f_count(8, 1) == 1000
        assert f_count(8, 2) == 995
        assert f_count(4, 0) == 5
        assert e_count(4, 2) == 3

    def test_e_closed_form(self):
        for n in range(13):
            for i in range(n + 2):
                expected = math.comb(n - 1, i - 1) if n >= 1 and i >= 1 else (
                    1 if (n, i) == (0, 0) else 0
                )
                assert e_count(n, i) == expected

    def test_ballot_is_e_plus_f(self):
        for n in range(11):
            for i in range(n + 2):
                assert ballot_count(n, i) == e_count(n, i) + f_count(n, i)

    def test_row_sums(self):
        table_sums = {}
        for (n, _i), (e, f) in EF_TABLE.items():
            se, sf = table_sums.get(n, (0, 0))
            table_sums[n] = (se + e, sf + f)
        for n, sums in table_sums.items():
            assert row_sums(n) == sums
        for n in range(2, 14):
            assert row_sums(n) == (
                2 ** (n - 1),
                math.comb(2 * n - 2, n - 1) - 2 ** (n - 2),
            )

    def test_total_ballotlike_column(self):
        # summing ballot counts over all ending heights
        for n in range(2, 12):
            total = sum(ballot_count(n, i) for i in range(n + 1))
            assert total == sum(row_sums(n))


class TestShapeCounts:
    def test_act_equals_peaks(self):
        for b in range(1, 7):
            for k in range(11):
                if 2 * b + k <= 12:
                    assert act_count(b, k) == peaks_count(b, k), (b, k)

    def test_spot_values(self):
        assert act_count(2, 0) == 2
        assert act_count(2, 3) == 84
        assert act_count(3, 0) == 5
        with pytest.raises(OutOfRange):
            act_count(0, 1)
        with pytest.raises(OutOfRange):
            peaks_count(1, -1)

    def test_hook_consistency(self):
        # k = 0 reduces to plain standard tableaux of rectangle shape
        for b in range(1, 7):
            assert act_count(b, 0) == hook_count(Partition((b, b)))

    def test_more_shapes_counts(self):
        for n in range(3, 16):
            first, second = more_shapes_counts(n)
            assert first == catalan(n) - catalan(n - 1)
            assert first == 3 * math.comb(2 * n - 2, n) // (n + 1)
            assert second == catalan(n) - 2 * catalan(n - 1) + catalan(n - 2)
        with pytest.raises(OutOfRange):
            more_shapes_counts(2)


# ---------------------------------------------------------------------------
# input checks hold in an interpreter that strips asserts


def test_falling_rejects_a_negative_count_under_O(raised_under_O):
    with pytest.raises(OutOfRange):
        falling(5, -1)
    assert raised_under_O("svtab.closedform.falling(5, -1)") == "OutOfRange"


def test_kreweras_rejects_a_part_of_size_zero_under_O(raised_under_O):
    with pytest.raises(InconsistentType):
        kreweras(3, 2, {0: 1, 3: 1})
    with pytest.raises(InconsistentType):
        kreweras(3, 1, {3: 1, 1: 0})
    call = "svtab.closedform.kreweras(3, 2, {0: 1, 3: 1})"
    assert raised_under_O(call) == "InconsistentType"
