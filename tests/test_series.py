"""Generating functions for the path families and their specializations."""

from fractions import Fraction

import pytest

from svtab.closedform import catalan
from svtab.core import OutOfRange
from svtab.enumerate import gen_paths
from svtab.rings import MultiPoly, QPoly, TSeries
from svtab.series import (
    SeriesContext,
    closed_form_E,
    derived_series,
    expected_steps,
    peaks_genfun_check,
    solve_E,
)

ORDER = 8


@pytest.fixture(scope="module")
def ctx():
    return SeriesContext.build(ORDER)


def _family_sum(family: str, n: int) -> MultiPoly:
    total = MultiPoly.zero()
    for p in gen_paths(family, n):
        total = total + MultiPoly.from_word(p.word)
    return total


class TestFunctionalEquations:
    def test_residuals_vanish(self):
        ctx = SeriesContext.build(10)
        for name, res in ctx.residuals().items():
            assert not res, name

    def test_closed_form_agrees_with_fixed_point(self):
        assert closed_form_E(10) == solve_E(10)

    def test_build_asserts_internally(self, ctx):
        e1, e2, e12 = derived_series(ctx.E)
        assert (e1, e2, e12) == (ctx.E1, ctx.E2, ctx.E12)

    def test_error_on_negative_order(self):
        with pytest.raises(OutOfRange):
            solve_E(-1)
        with pytest.raises(OutOfRange):
            closed_form_E(-2)


class TestTaylorCoefficients:
    def test_e12_low_orders(self, ctx):
        U, D, u, d = (MultiPoly.gen(m) for m in "UDud")
        assert ctx.E12.coeff(0) == MultiPoly.zero()
        assert ctx.E12.coeff(1) == MultiPoly.zero()
        assert ctx.E12.coeff(2) == U * D
        assert ctx.E12.coeff(3) == U * (u + d) * D
        assert ctx.E12.coeff(4) == U * (d * d + u * d + U * D * 2 + u * u) * D

    def test_counting_specialization(self, ctx):
        for n in range(ORDER + 1):
            assert ctx.E.coeff(n).at_ones() == catalan(n + 1)
            assert ctx.E1.coeff(n).at_ones() == catalan(n)
            assert ctx.E2.coeff(n).at_ones() == catalan(n)
        assert ctx.E12.coeff(0).at_ones() == 0
        assert ctx.E12.coeff(1).at_ones() == 0
        for n in range(2, ORDER + 1):
            assert ctx.E12.coeff(n).at_ones() == catalan(n - 1)

    def test_marker_coefficients_are_path_tallies(self, ctx):
        pairs = {"motz": ctx.E, "motzE": ctx.E1, "motzT": ctx.E2, "motzET": ctx.E12}
        for family, series in pairs.items():
            # the double restriction admits the empty path while its series
            # starts at t^2, so that comparison begins at n = 1
            start = 1 if family == "motzET" else 0
            for n in range(start, 7):
                assert series.coeff(n) == _family_sum(family, n), (family, n)
        assert ctx.E12.coeff(0) == MultiPoly.zero()
        assert _family_sum("motzET", 0) == MultiPoly.one()


class TestSymmetries:
    def test_color_swap_fixes_the_symmetric_series(self, ctx):
        for n in range(ORDER + 1):
            assert ctx.E.coeff(n).swap("u", "d") == ctx.E.coeff(n)
            assert ctx.E12.coeff(n).swap("u", "d") == ctx.E12.coeff(n)

    def test_color_swap_exchanges_the_one_sided_series(self, ctx):
        for n in range(ORDER + 1):
            assert ctx.E1.coeff(n).swap("u", "d") == ctx.E2.coeff(n)

    def test_updown_swap_fixes_everything(self, ctx):
        for series in (ctx.E, ctx.E1, ctx.E2, ctx.E12):
            for n in range(ORDER + 1):
                assert series.coeff(n).swap("U", "D") == series.coeff(n)


class TestCorrectedOneSidedSeries:
    def test_difference_counts_paths_starting_with_U(self, ctx):
        # E2·(1 - u·t) - 1 tallies exactly the no-early-d loops entered by U
        u = MultiPoly.gen("u")
        one_minus_ut = TSeries(MultiPoly, ORDER, [1, u * (-1)])
        printed = ctx.E2 * one_minus_ut - 1
        for n in range(ORDER + 1):
            want = MultiPoly.zero()
            for p in gen_paths("motzT", n):
                if p.word.startswith("U"):
                    want = want + MultiPoly.from_word(p.word)
            assert printed.coeff(n) == want, n


class TestExpectedSteps:
    def test_base_case(self):
        assert expected_steps(2, "U") == 1
        assert expected_steps(2, "D") == 1
        assert expected_steps(2, "u") == 0
        assert expected_steps(2, "d") == 0

    def test_closed_forms(self):
        for n in range(3, 13):
            big = Fraction(n * n + n - 6, 4 * n - 6)
            small = Fraction(n * n - 4 * n + 6, 4 * n - 6)
            assert expected_steps(n, "U") == big
            assert expected_steps(n, "D") == big
            assert expected_steps(n, "u") == small
            assert expected_steps(n, "d") == small

    def test_totals_to_n(self):
        for n in range(2, 13):
            assert sum(expected_steps(n, s) for s in "UDud") == n

    def test_matches_enumeration(self):
        for n in range(2, 9):
            paths = list(gen_paths("motzET", n))
            for step in "UDud":
                mean = Fraction(sum(p.word.count(step) for p in paths), len(paths))
                assert expected_steps(n, step) == mean

    def test_errors(self):
        with pytest.raises(OutOfRange):
            expected_steps(1, "U")
        with pytest.raises(OutOfRange):
            expected_steps(4, "x")


class TestPeaksGenfun:
    def test_low_rows(self):
        rows = peaks_genfun_check(6)
        assert rows[3] == QPoly([3, 2])
        assert rows[4] == QPoly([4, 10])
        assert rows[5] == QPoly([5, 32, 5])
        assert rows[6] == QPoly([6, 84, 42])

    def test_row_sums_are_catalan(self):
        rows = peaks_genfun_check(8)
        for n, poly in rows.items():
            assert poly(1) == catalan(n)


def _solve_E_by_partial_sums(order):
    """The accumulate loop solve_E ran before it read the pairing helper, verbatim."""
    level, block = MultiPoly.gen("u") + MultiPoly.gen("d"), MultiPoly.gen("U") * MultiPoly.gen("D")
    e = [MultiPoly.one()]
    for n in range(1, order + 1):
        pairs = MultiPoly.zero()
        for i in range(n - 1):
            pairs = pairs + e[i] * e[n - 2 - i]
        e.append(level * e[n - 1] + block * pairs)
    return TSeries(MultiPoly, order, e)


def test_solve_E_matches_the_partial_sum_loop_through_order_24():
    want = _solve_E_by_partial_sums(24).coeffs
    for order in range(25):
        assert solve_E(order).coeffs == want[: order + 1], order


def test_E2_equals_its_own_inverse_at_order_20():
    # derived_series reads E2 off E1 through the u <-> d swap, so the swap test
    # above holds by construction; this pins E2 to its defining inverse instead
    ctx = SeriesContext.build(20)
    block = (ctx.E * (MultiPoly.gen("U") * MultiPoly.gen("D"))).shift_up(2)
    t_u = TSeries(MultiPoly, 20, [0, MultiPoly.gen("u")])
    assert ctx.E2 == (1 - (t_u + block)).inverse()


def test_recurrence_matches_closed_form_through_order_20():
    for order in range(21):
        assert solve_E(order) == closed_form_E(order)
