"""End-to-end checks of every advertised identity at full scale.

Each test here states a complete identity (counting formula, bijection,
generating function, or weight identity) and verifies it against independent
exhaustive enumeration over its whole advertised range.  Reference data
lives in tests/golden/.
"""

import csv
import itertools
import json
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

from svtab.biject import (
    ballot_path_from_tableau,
    contract_path,
    path_from_tableau,
    perm_from_tableau,
    tableau_from_ballot_path,
    tableau_from_path,
    tableau_from_perm,
)
from svtab.closedform import (
    act_count,
    ballot_count,
    binom,
    catalan,
    e_count,
    f_count,
    peaks_count,
    row_sums,
)
from svtab.core import ColoredPath, Permutation, SetValuedTableau, path_family
from svtab.enumerate import (
    gen_avoid321,
    gen_ballotlike,
    gen_paths,
    gen_svsyt,
    gen_two_row_union,
)
from svtab.posets import catalog, pi_perm, equidistribution_check, young_diagram
from svtab.rings import MultiPoly, QPoly
from svtab.series import SeriesContext, expected_steps, peaks_genfun_check
from svtab.stats import inner_peaks, inner_valleys, rl_minima, set_valued_q_catalan, set_valued_q_narayana
from svtab.verify import available_threads, build_tasks, run_tasks

GOLDEN = Path(__file__).parent / "golden"


def test_01_two_row_union_count_is_catalan():
    """|union of two-row rectangles with k extras, n entries| = cat(n-1), n <= 12."""
    start = time.monotonic()
    for n in range(2, 13):
        got = sum(1 for _ in gen_two_row_union(n))
        assert got == catalan(n - 1), n
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"enumeration took {elapsed:.1f}s"


def test_02_ef_table_reproduced_exactly():
    """The e/f refinement table matches the reference CSV for 0 <= i <= n <= 8."""
    with open(GOLDEN / "ef_table.csv", newline="") as fh:
        rows = {(int(r["n"]), int(r["i"])): r for r in csv.DictReader(fh)}
    assert set(rows) == {(n, i) for n in range(9) for i in range(n + 1)}
    for (n, i), r in rows.items():
        assert e_count(n, i) == int(r["e"]), (n, i)
        assert f_count(n, i) == int(r["f"]), (n, i)
        assert int(r["total"]) == int(r["e"]) + int(r["f"])
    assert f_count(8, 1) == 1000
    assert f_count(8, 2) == 995
    assert f_count(4, 0) == 5
    for n in range(2, 9):
        e_sum = sum(e_count(n, i) for i in range(n + 1))
        f_sum = sum(f_count(n, i) for i in range(n + 1))
        assert (e_sum, f_sum) == row_sums(n)
        assert e_sum == 2 ** (n - 1)
        assert f_sum == binom(2 * n - 2, n - 1) - 2 ** (n - 2)


def _tableau_side_count(n: int, i: int) -> int:
    if (n, i) == (0, 0):
        return 1  # the empty shape carries exactly the empty filling
    total = 0
    for b in range(max(i, 1), (n + i) // 2 + 1):
        k = n + i - 2 * b
        shape = (b,) if b == i else (b, b - i)
        total += sum(1 for _ in gen_svsyt(shape, k))
    return total


def test_03_ballotlike_equals_two_row_tableaux():
    """ballot = e + f = #paths to height i = #tableaux of width gap i, n <= 8."""
    for n in range(9):
        for i in range(n + 1):
            formula = ballot_count(n, i)
            assert formula == e_count(n, i) + f_count(n, i)
            assert formula == sum(1 for _ in gen_ballotlike(n, i))
            assert formula == _tableau_side_count(n, i), (n, i)

    # the six objects at (n, i) = (4, 2), reproduced exactly
    six = [str(t) for t in gen_svsyt((3, 1), 0)] + [
        str(t) for t in gen_svsyt((2,), 2)
    ]
    assert sorted(six) == sorted(
        [
            "{1} {2} {4} / {3}",
            "{1} {3} {4} / {2}",
            "{1} {2} {3} / {4}",
            "{1,2,3} {4}",
            "{1,2} {3,4}",
            "{1} {2,3,4}",
        ]
    )
    images = {
        ballot_path_from_tableau(t).word
        for shape, k in [((3, 1), 0), ((2,), 2)]
        for t in gen_svsyt(shape, k)
    }
    assert images == {p.word for p in gen_ballotlike(4, 2)}
    assert len(images) == 6


def test_04_rectangle_formulas_match_enumeration():
    """act_count = peaks_count = exhaustive tableau count for all 2b+k <= 12."""
    for b in range(1, 7):
        for k in range(13 - 2 * b):
            want = sum(1 for _ in gen_svsyt((b, b), k))
            assert act_count(b, k) == want, (b, k)
            assert peaks_count(b, k) == want, (b, k)


def test_05_bijection_roundtrips_and_permutation_properties():
    """Tableau<->permutation and tableau<->path roundtrips on 100% of n <= 10."""
    for n in range(2, 11):
        perms = set()
        paths = set()
        for t in gen_two_row_union(n):
            w = perm_from_tableau(t)
            assert tableau_from_perm(w) == t
            top = sorted(
                v
                for c in range(1, t.shape.outer.part(1) + 1)
                for v in t.cell(1, c)
            )
            assert list(rl_minima(w)) == top
            assert len(inner_valleys(w)) == t.shape.outer.part(1) - 1
            perms.add(w.word)
            p = path_from_tableau(t)
            assert tableau_from_path(p) == t
            paths.add(p.word)
        assert len(perms) == catalan(n - 1)
        assert len(paths) == catalan(n - 1)

    # worked instances, byte for byte
    t = SetValuedTableau.from_rows([[[1, 2], [3]], [[4], [5]]])
    assert perm_from_tableau(t).to_text() == "1 4 2 3"
    w = Permutation.from_text("3 5 1 2 7 8 4 10 11 6 9")
    assert str(tableau_from_perm(w)) == "{1} {2,4} {6} {9} / {3,5} {7,8} {10,11} {12}"
    left = SetValuedTableau.from_rows([[[1, 2], [4], [5]], [[3], [6], [7]]])
    right = SetValuedTableau.from_rows([[[1], [4], [5, 7]], [[2, 3], [6], [8, 9]]])
    assert path_from_tableau(left).word == "UuDUUDD"
    assert path_from_tableau(right).word == "UDdUUDuDd"


def test_06_family_counts_and_contraction_images():
    """Four family counts for n <= 10; contraction maps image-exactly, n <= 9."""
    for n in range(11):
        assert sum(1 for _ in gen_paths("motz", n)) == catalan(n + 1)
        assert sum(1 for _ in gen_paths("motzE", n)) == catalan(n)
        assert sum(1 for _ in gen_paths("motzT", n)) == catalan(n)
        want_et = catalan(n - 1) if n >= 2 else 1 - n
        assert sum(1 for _ in gen_paths("motzET", n)) == want_et
    for n in range(1, 10):
        image = {contract_path(p).word for p in gen_paths("motzT", n)}
        assert image == {p.word for p in gen_paths("motz", n - 1)}
    for n in range(2, 10):
        image = {contract_path(p).word for p in gen_paths("motzET", n)}
        assert image == {p.word for p in gen_paths("motzE", n - 1)}


def test_07_series_residuals_taylor_and_tallies():
    """Functional equations hold to order 10; coefficients equal path tallies."""
    deep = SeriesContext.build(10)
    for name, residual in deep.residuals().items():
        assert not residual, name

    U, D, u, d = (MultiPoly.gen(m) for m in "UDud")
    displayed = {
        2: U * D,
        3: U * (u + d) * D,
        4: U * (d * d + u * d + U * D * 2 + u * u) * D,
    }
    for degree, poly in displayed.items():
        assert deep.E12.coeff(degree) == poly

    ctx = SeriesContext.build(8)
    pairs = {"motz": ctx.E, "motzE": ctx.E1, "motzT": ctx.E2, "motzET": ctx.E12}
    for family, series in pairs.items():
        start = 1 if family == "motzET" else 0
        for n in range(start, 9):
            tally = MultiPoly.zero()
            for p in gen_paths(family, n):
                tally = tally + MultiPoly.from_word(p.word)
            assert series.coeff(n) == tally, (family, n)


def test_08_expected_step_counts():
    """Step expectations over the doubly restricted family are exact rationals."""
    assert expected_steps(2, "U") == 1
    assert expected_steps(2, "D") == 1
    for n in range(3, 13):
        up = Fraction(n * n + n - 6, 4 * n - 6)
        level = Fraction(n * n - 4 * n + 6, 4 * n - 6)
        assert expected_steps(n, "U") == up
        assert expected_steps(n, "D") == up
        assert expected_steps(n, "u") == level
        assert expected_steps(n, "d") == level
    for n in range(2, 13):
        total = 2 * expected_steps(n, "U") + 2 * expected_steps(n, "u")
        assert total == n


def test_09_q_tables_match_goldens():
    """q-analog tables agree with the transcribed references, coefficient-wise."""
    with open(GOLDEN / "qcatalan.csv", newline="") as fh:
        rows = [[int(c) for c in line] for line in csv.reader(fh)]
    assert len(rows) == 5
    for n, coeffs in enumerate(rows, start=1):
        assert set_valued_q_catalan(n) == QPoly(coeffs), n
    with open(GOLDEN / "qnarayana.csv", newline="") as fh:
        nrows = [[int(c) for c in line] for line in csv.reader(fh)]
    keys = [(n, m) for n in range(1, 5) for m in range(1, n + 1)]
    assert len(nrows) == len(keys)
    for (n, m), coeffs in zip(keys, nrows):
        assert set_valued_q_narayana(n, m) == QPoly(coeffs), (n, m)


def test_10_cut_weight_identities_full_catalog():
    """Both weight identities hold for every catalog poset, k <= 3."""
    entries = catalog()
    names = {name for name, _p in entries}
    required = set()
    for total in range(1, 7):
        for shape in _partitions(total):
            required.add("young-" + "-".join(str(p) for p in shape))
    assert required <= names
    with open(GOLDEN / "poset_catalog.json") as fh:
        frozen = json.load(fh)
    assert [(e["name"], e["n"]) for e in frozen] == [
        (name, p.n) for name, p in entries
    ]

    # the DP identities are the poset entries of the qstats suite
    tasks = build_tasks(("posets",), budget="desk") + [
        t for t in build_tasks(("qstats",), budget="desk") if t[2]["name"].startswith("poset-")
    ]
    results = run_tasks(tasks, threads=available_threads())
    bad = [r for r in results if not r.ok]
    assert not bad, bad[:5]
    assert {r.check for r in results} >= {"check_poset_identities", "check_q"}
    assert {r.instance.split(",")[0] for r in results if r.check == "check_q"} == {
        "poset-weight-sum",
        "poset-expectation",
    }


def _partitions(total: int, cap: int | None = None):
    cap = total if cap is None else cap
    if total == 0:
        yield ()
        return
    for first in range(min(total, cap), 0, -1):
        for rest in _partitions(total - first, first):
            yield (first,) + rest


def test_11_pi_is_a_permutation():
    """pi(X, .) permutes {0..n} for every subset X of {0..n}, n <= 8."""
    for n in range(9):
        universe = tuple(range(n + 1))
        for r in range(n + 2):
            for xs in itertools.combinations(universe, r):
                image = sorted(pi_perm(n, frozenset(xs), t) for t in universe)
                assert image == list(universe), (n, xs)


def test_12_descent_tables_equal_for_conjugate_shapes():
    """Descent-set distributions agree between a shape and its conjugate."""
    for total in range(1, 6):
        for shape in _partitions(total):
            for k in range(3):
                equal, table, conj_table = equidistribution_check(shape, k)
                assert equal, (shape, k)
                assert table == conj_table
                assert sum(table.values()) > 0


def test_13_peak_polynomial_matches_avoider_tallies():
    """The bivariate peak expansion tallies 321-avoiders by inner peaks, n <= 8."""
    table = peaks_genfun_check(8)
    for n in range(1, 9):
        tally: Counter = Counter()
        for w in gen_avoid321(n):
            tally[len(inner_peaks(w))] += 1
        want = QPoly([tally.get(e, 0) for e in range(max(tally) + 1)])
        assert table[n] == want, n
        assert table[n](1) == catalan(n)
