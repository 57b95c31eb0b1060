"""Re-derivation harness behind the ``verify`` command.

Every closed form and identity in the package is checked here, and only here,
against an independent computation (enumeration, a recursion, a second form).
Each pairing is stated once, in a table whose entries give its grid of points
at a size and its size at each budget of ``BUDGETS``: ``COUNT_ORACLES`` pairs
each count with its oracle (``svtab count --oracle`` reads it too),
``Q_ORACLES`` each q-analog (or its value at q = 1) and poset DP identity, and
``SERIES_ORACLES`` each path series and the valley series (or a value read off
one), all checked by one row generator (``check_count``, ``check_q``,
``check_series``); ``ROUNDTRIPS`` states each bijection (objects, map,
inverse, image test, target size), the walker's tableaux among them as their
own images, and ``check_roundtrip`` gives a row per point.  Only the two
posets checks are written by hand.  ``_TASKS`` has one row per check, with
its suite, its size at each budget and its tasks at a size; tasks run across
processes, and only a run with more than one worker imports the process
pool.  Every ``check_*`` function gives a generator of one row per instance,
so a failure carries its own counterexample; ``_CHECKS`` collects them by
that prefix.  A raise, any exception, fails its point's row in a table's
check, which names the exception and its innermost frame, and the later
points run; a posets check keeps the rows it gave before a raise, then one
failing row naming the exception: it fails its task, not the run.  A task's
wall time is the one timing record; rows carry no time.
"""

from __future__ import annotations

import itertools
import math
import os
import sys
import traceback
from collections import Counter
from dataclasses import asdict, dataclass
from fractions import Fraction
from functools import lru_cache, partial
from operator import add
from time import perf_counter
from typing import Callable, Iterator

from .biject import (
    Triple,
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
from .closedform import (
    act_count,
    ballot_count,
    binom,
    catalan,
    e_count,
    f_count,
    hook_count,
    kreweras,
    more_shapes_counts,
    narayana,
    path_family_count,
    peaks_count,
    row_sums,
)
from .core import (
    PATH_FAMILIES, OutOfRange, Partition, SkewShape, SvtabError, path_family, validate_svsyt,
)
from .enumerate import (
    count_paths,
    count_svsyt,
    count_two_row_union,
    gen_avoid321,
    gen_ballotlike,
    gen_paths,
    gen_svsyt,
    gen_two_row_union,
    as_skew,
    _cell_masks,
    _comaj_walk,
    _count_walk,
    _two_row_shapes,
)
from .posets import (
    Poset,
    SetValuedLinearExtension,
    catalog,
    compose_extensions,
    decompose_extension,
    equidistribution_check,
    expected_ddeg,
    linear_extensions,
    pi_perm,
    sum_identity_check,
    sv_linear_extensions,
    vartheta,
    _maximal_in_prefix,
    _partitions,
)
from .rings import MARKERS, MultiPoly, QPoly, TSeries
from .series import SeriesContext, closed_form_E, expected_steps, peaks_genfun_check
from .stats import (
    comaj_path,
    comaj_plus_k,
    dyck_type,
    inner_peaks,
    inner_valleys,
    rl_minima,
    set_valued_q_catalan,
    set_valued_q_narayana,
)

__all__ = [
    "SUITES",
    "BUDGETS",
    "COUNT_ORACLES",
    "Q_ORACLES",
    "SERIES_ORACLES",
    "ROUNDTRIPS",
    "CheckResult",
    "available_threads",
    "build_tasks",
    "run_tasks",
    "report_dict",
    "report_text",
]

SUITES = ("counts", "bijections", "series", "qstats", "posets")
BUDGETS = ("quick", "desk")


@dataclass(frozen=True)
class CheckResult:
    suite: str
    check: str
    instance: str
    status: str  # "pass" or "fail"
    expected: str
    actual: str

    @property
    def ok(self) -> bool:
        return self.status == "pass"


def available_threads() -> int:
    """The default worker count: the logical core count."""
    return os.cpu_count() or 1


# ---------------------------------------------------------------------------
# count and q oracles


def _tally(gen: Callable[..., Iterator]) -> Callable[..., int]:
    """The oracle that counts the objects ``gen`` streams."""
    return lambda *params: sum(1 for _ in gen(*params))


_union_tally = _tally(gen_two_row_union)


def _catalan_tally(n: int) -> int:
    """catalan(n) as the union's tableaux with n + 1 entries, of which none has one."""
    if n < 1:
        raise OutOfRange(f"need n >= 1, got {n}")
    return _union_tally(n + 1)


@lru_cache(maxsize=1)  # the grid asks for f(n, i) at every i of one n in turn
def _f_row(n: int) -> list[int]:
    """f(n, 0..n) by the step recursion, row by row from f(0, 0) = 0: the last
    step into (m, i) is U, u (not at height 0), d, or a D after any path.
    The D-free counts e(m, ·) ride along by Pascal's rule, e(m, 0) = 0 for
    m >= 1 and e(m, i) = e(m - 1, i - 1) + e(m - 1, i) for i >= 1."""
    row, e = [0], [1]
    for m in range(1, n + 1):
        prev, ep = row + [0, 0], e + [0, 0]  # f and e at m - 1, for i <= m + 1
        row = [prev[0] + prev[1] + ep[1]] + [
            prev[i - 1] + 2 * prev[i] + prev[i + 1] + ep[i + 1] for i in range(1, m + 1)
        ]
        e = [0] + [ep[i - 1] + ep[i] for i in range(1, m + 1)]
    return row


def _f_rec(n: int, i: int) -> int:
    return _f_row(n)[i] if 0 <= i <= n else 0


def _rectangle_dp(b: int, k: int) -> int:
    """Tableaux of the 2-by-b rectangle with k extra entries, by the ideal DP."""
    return count_svsyt((b, b), k)


def _upto(first: int) -> Callable[[int], list[tuple]]:
    return lambda size: [(n,) for n in range(first, size + 1)]


def _triangle(first: int) -> Callable[[int], list[tuple]]:
    return lambda size: [(n, i) for n in range(first, size + 1) for i in range(first, n + 1)]


def _rectangles(top: int) -> list[tuple]:
    """The 2-by-b rectangles with k extra entries, 2b + k <= top."""
    return [(b, k) for b in range(1, top // 2 + 1) for k in range(top - 2 * b + 1)]


def _near_rectangles(n: int, first: int = 0) -> list[tuple]:
    """The shapes (b + 1, b), b >= first, each with the extras that make n entries."""
    return [((b + 1, b) if b else (1,), n - 1 - 2 * b) for b in range(first, (n + 1) // 2)]


def _pi_perm_tally(n: int) -> int:
    """The subsets X of {0..n} for which pi(n, X, -) permutes {0..n}."""
    universe = tuple(range(n + 1))
    subsets = (xs for r in range(n + 2) for xs in itertools.combinations(universe, r))
    return sum({pi_perm(n, xs, t) for t in universe} == set(universe) for xs in subsets)


def _shapes(cells: int) -> list[tuple]:
    """Each partition of 1..cells cells, with k <= 2 extra entries."""
    return [(s, k) for t in range(1, cells + 1) for s in _partitions(t) for k in range(3)]


# kind -> name -> (parameter names, closed form or DP, independent oracle,
# its grid of parameter tuples at a size, its size at each budget of BUDGETS)
COUNT_ORACLES: dict[str, dict[str, tuple[tuple[str, ...], Callable, Callable, Callable, tuple]]] = {
    "formula": {
        "ballot": (("n", "i"), ballot_count, _tally(gen_ballotlike), _triangle(0), (6, 8)),
        "e": (
            ("n", "i"), e_count,
            lambda n, i: sum("D" not in p.word for p in gen_ballotlike(n, i)),
            _triangle(0), (6, 8),
        ),
        "f": (("n", "i"), f_count, _f_rec, _triangle(0), (12, 30)),
        # the height-indexed table: f by the paths with a D, each row sum by its closed form
        "f-paths": (
            ("n", "i"), f_count, lambda n, i: sum("D" in p.word for p in gen_ballotlike(n, i)),
            _triangle(0), (6, 8),
        ),
        "e-sum": (("n",), lambda n: row_sums(n)[0], lambda n: 2 ** (n - 1), _upto(2), (6, 8)),
        "f-sum": (
            ("n",), lambda n: row_sums(n)[1], lambda n: binom(2 * n - 2, n - 1) - 2 ** (n - 2),
            _upto(2), (6, 8),
        ),
        # the shapes (b + 1, b): their count in a second closed form and by the
        # ideal DP, and the count of the skew shapes (b + 1, b)/(1) by the DP
        "near-rectangles-form": (
            ("n",), lambda n: more_shapes_counts(n)[0],
            lambda n: Fraction(3 * binom(2 * n - 2, n), n + 1), _upto(3), (8, 15),
        ),
        "near-rectangles": (
            ("n",), lambda n: more_shapes_counts(n)[0],
            lambda n: sum(itertools.starmap(count_svsyt, _near_rectangles(n))), _upto(3), (8, 15),
        ),
        "skew-near-rectangles": (
            ("n",), lambda n: more_shapes_counts(n)[1],
            lambda n: sum(
                count_svsyt(SkewShape(Partition(s), Partition((1,))), k)
                for s, k in _near_rectangles(n, 1)
            ),
            _upto(3), (8, 15),
        ),
        # every subset X of {0..n} makes pi(n, X, -) a permutation
        "pi-perm": (("n",), lambda n: 2 ** (n + 1), _pi_perm_tally, _upto(0), (6, 8)),
        "act": (("b", "k"), act_count, _rectangle_dp, _rectangles, (9, 24)),
        "peaks": (("b", "k"), peaks_count, _rectangle_dp, _rectangles, (9, 24)),
        # standard tableaux of every straight shape, by hook lengths and by the ideal DP
        "hook": (
            ("shape",), hook_count, lambda shape: count_svsyt(shape, 0),
            lambda cells: [(s,) for t in range(1, cells + 1) for s in _partitions(t)], (6, 10),
        ),
        # the paper's model: two-row tableaux with n + 1 entries
        "catalan": (("n",), catalan, _catalan_tally, _upto(1), (8, 11)),
        "narayana": (
            ("n", "m"), narayana,
            lambda n, m: sum(1 for t in gen_two_row_union(n + 1) if dyck_type(t)[0] == m),
            _triangle(1), (6, 7),
        ),
    },
    "family": {
        "two-row-union": (("n",), count_two_row_union, _union_tally, _upto(2), (9, 10)),
        "svsyt": (("shape", "k"), count_svsyt, _tally(gen_svsyt), _shapes, (4, 5)),
        "avoid321": (("n",), catalan, _tally(gen_avoid321), _upto(0), (8, 8)),
        **{
            fam: (
                ("n",), partial(path_family_count, fam), partial(count_paths, fam),
                _upto(0), (8, 30),
            )
            for fam in PATH_FAMILIES
        },
    },
}


# transcribed q-polynomial tables, coefficients low degree first
QCAT_TABLE = {
    1: (1,), 2: (1, 1), 3: (1, 1, 2, 1),
    4: (1, 2, 2, 3, 3, 2, 1),
    5: (1, 1, 3, 7, 6, 5, 6, 7, 3, 2, 1),
}
QNAR_TABLE = {
    (1, 1): (1,),
    (2, 1): (1,), (2, 2): (0, 1),
    (3, 1): (0, 1), (3, 2): (1, 0, 2), (3, 3): (0, 0, 0, 1),
    (4, 1): (0, 0, 0, 1), (4, 2): (1, 1, 1, 1, 2), (4, 3): (0, 1, 1, 1, 1, 2),
    (4, 4): (0, 0, 0, 0, 0, 0, 1),
}


@lru_cache(maxsize=1)
def _union_stats(n: int, stat: Callable) -> Counter:
    """(top-row size, ``stat``) tallied over the two-row union with n entries;
    grids go n by n, so the one cached n walks each union size once per task."""
    return Counter((dyck_type(t)[0], stat(t)) for t in gen_two_row_union(n))


def _gap_type(t) -> tuple[int, ...]:
    return tuple(sorted(dyck_type(t)[1], reverse=True))


def _comaj_tally(n: int, m: int) -> QPoly:
    """The comajor tally of the union's (n + 1)-entry tableaux with m top-row entries."""
    tally = _union_stats(n + 1, comaj_plus_k)
    return QPoly([tally[m, e] for e in range(max(e for _m, e in tally) + 1)])


def _rectangle_q_dp(n: int) -> QPoly:
    """The comajor ideal DP summed over the 2-by-b rectangles with n + 1 entries."""
    masks = (_cell_masks(as_skew(lam))[1:] for lam in _two_row_shapes(n + 1))
    return sum((_comaj_walk(*m, n + 1) for m in masks), QPoly.zero())


_catalog = lru_cache(maxsize=1)(lambda: dict(catalog()))  # name -> poset, built when first asked


def _poset(poset: str | Poset) -> Poset:  # a catalog poset by its name, or a poset
    return _catalog().get(poset, poset)


def _poset_grid(at: tuple[int, int]) -> list[tuple[str, int]]:  # (name, k), n <= at[0], k <= at[1]
    return [(name, k) for name, p in _catalog().items() if p.n <= at[0] for k in range(at[1] + 1)]


# name -> (parameter names, q-analog or its value at q = 1, oracle, grid, size at
# each budget), as in COUNT_ORACLES; desk runs the DP routes past enumeration
Q_ORACLES: dict[str, tuple[tuple[str, ...], Callable, Callable, Callable, tuple]] = {
    "qcat-table": (("n",), set_valued_q_catalan, lambda n: QPoly(QCAT_TABLE[n]), _upto(1), (5, 5)),
    "qnar-table": (
        ("n", "m"), set_valued_q_narayana, lambda *p: QPoly(QNAR_TABLE[p]), _triangle(1), (4, 4),
    ),
    "qcat-dp": (("n",), set_valued_q_catalan, _rectangle_q_dp, _upto(1), (6, 20)),
    "qnar-tally": (("n", "m"), set_valued_q_narayana, _comaj_tally, _triangle(1), (6, 9)),
    "qcat-at-1": (("n",), lambda n: set_valued_q_catalan(n)(1), catalan, _upto(1), (12, 20)),
    "qnar-at-1": (
        ("n", "m"), lambda n, m: set_valued_q_narayana(n, m)(1), narayana, _triangle(1), (8, 14),
    ),
    # peak types against the union's gap types, at every partition of n - 1
    "kreweras": (
        ("n", "mu"), lambda n, mu: kreweras(n - 1, len(mu), Counter(mu)),
        lambda n, mu: _union_stats(n, _gap_type)[len(mu), mu],
        lambda size: [(n, mu) for n in range(2, size + 1) for mu in _partitions(n - 1)], (7, 9),
    ),
    "poset-weight-sum": (
        ("poset", "k"), lambda p, k: expected_ddeg(_poset(p), k)[1],
        lambda p, k: sum_identity_check(_poset(p), k)[1], _poset_grid, ((4, 2), (6, 3)),
    ),
    "poset-expectation": (
        ("poset", "k"), lambda p, k: _comaj_walk(*_poset(p)._cover_masks, _poset(p).n + k),
        lambda p, k: expected_ddeg(_poset(p), k)[0], _poset_grid, ((4, 2), (6, 3)),
    ),
}


# ---------------------------------------------------------------------------
# series oracles

# each cached at one exact order, so a task at one order builds each series once
_series = lru_cache(maxsize=1)(SeriesContext.build)
_residuals = lru_cache(maxsize=1)(lambda order: _series(order).residuals())
_closed_E = lru_cache(maxsize=1)(closed_form_E)
_valleys = lru_cache(maxsize=1)(peaks_genfun_check)

_SERIES_OF = {"motz": "E", "motzE": "E1", "motzET": "E12", "motzT": "E2"}  # by path family
_CATALAN_SHIFT = {"E": 1, "E1": 0, "E2": 0, "E12": -1}  # [t^n] at all ones is catalan(n + shift)

# transcribed coefficients: [t^m]E12 as {(eU, eD, eu, ed): c}, and [z^n] of the
# valley series as q-coefficients, low degree first
E12_TABLE = {
    2: {(1, 1, 0, 0): 1},
    3: {(1, 1, 1, 0): 1, (1, 1, 0, 1): 1},
    4: {(1, 1, 0, 2): 1, (1, 1, 1, 1): 1, (1, 1, 2, 0): 1, (2, 2, 0, 0): 2},
}
VALLEY_TABLE = {3: (3, 2)}


def _coeff(name: str, order: int, m: int) -> MultiPoly:
    """[t^m] of the series ``name`` built at ``order``."""
    return getattr(_series(order), name).coeff(m)


def _step_form(n: int, step: str) -> Fraction:
    """The mean number of ``step`` letters in a length-n motzET path, in closed
    form: U and D alike, u and d alike, and one UD at n = 2."""
    if n == 2:
        return Fraction(step in "UD")
    return Fraction(n * n + n - 6 if step in "UD" else n * n - 4 * n + 6, 4 * n - 6)


def _e2_by_inverse(order: int) -> TSeries:
    """E2 straight from its equation, (1 - (u·t + U·D·t²·E))⁻¹."""
    block = (_series(order).E * MultiPoly.from_word("UD")).shift_up(2)
    return (1 - (TSeries(MultiPoly, order, [0, MultiPoly.gen("u")]) + block)).inverse()


def _times(a: dict, b: dict) -> Counter:
    """The product of two polynomials as exponent tuple -> int dicts, term by term."""
    out: Counter = Counter()
    for ka, ca in a.items():
        for kb, cb in b.items():
            out[tuple(map(add, ka, kb))] += ca * cb
    return out


@lru_cache(maxsize=1)  # E-closed-form asks for every m of one order in turn
def _termwise_E(order: int) -> tuple[TSeries, TSeries]:
    """E and E² with no ``MultiPoly`` product, E solved from its equation term
    by term (a faulty kernel can build an E on which it is exact)."""
    level, block = {(0, 0, 1, 0): 1, (0, 0, 0, 1): 1}, {(1, 1, 0, 0): 1}
    e, square = [{(0, 0, 0, 0): 1}], []
    for m in range(order + 1):
        if m:
            e.append(_times(level, e[-1]) + (_times(block, square[-2]) if m > 1 else Counter()))
        square.append(sum(map(_times, e, e[::-1]), Counter()))
    return tuple(TSeries(MultiPoly, order, map(MultiPoly, terms)) for terms in (e, square))


def _avoider_tally(positions: Callable) -> Callable[[int, int], QPoly]:
    """The oracle that tallies the 321-avoiders of n by their number of ``positions``."""

    def tally(_order: int, n: int) -> QPoly:
        counts = Counter(len(positions(w)) for w in gen_avoid321(n))
        return QPoly([counts[e] for e in range(max(counts) + 1)])

    return tally


# name -> (parameter names, the library's series or value, oracle, grid, size at
# each budget), as in Q_ORACLES; an order parameter is the truncation order
SERIES_ORACLES: dict[str, tuple[tuple[str, ...], Callable, Callable, Callable, tuple]] = {
    # each series in its defining equation
    "residual": (
        ("order", "series"), lambda o, s: _residuals(o)[s], lambda o, s: 0,
        lambda o: [(o, s) for s in _CATALAN_SHIFT], (6, 12),
    ),
    # E by its square-root closed form against E solved term by term
    "E-closed-form": (
        ("order", "m"), lambda o, m: _closed_E(o).coeff(m),
        lambda o, m: _termwise_E(o)[0].coeff(m), lambda o: [(o, m) for m in range(o + 1)], (6, 10),
    ),
    "E12-taylor": (
        ("order", "m"), partial(_coeff, "E12"), lambda o, m: MultiPoly(E12_TABLE[m]),
        lambda o: [(o, m) for m in E12_TABLE], (4, 4),
    ),
    # each series' coefficient against the step multisets of its family's paths
    "marker-tally": (
        ("order", "family", "n"), lambda o, f, n: _coeff(_SERIES_OF[f], o, n),
        lambda o, f, n: MultiPoly(
            Counter(tuple(map(p.word.count, MARKERS)) for p in gen_paths(f, n))
        ),
        lambda o: [(o, f, n) for f in _SERIES_OF for n in range(f == "motzET", o + 1)],
        (6, 8),
    ),
    "at-ones": (
        ("order", "series", "n"), lambda o, s, n: _coeff(s, o, n).at_ones(),
        lambda o, s, n: catalan(n + _CATALAN_SHIFT[s]),
        lambda o: [(o, s, n) for s in _CATALAN_SHIFT for n in range(2, o + 1)], (6, 12),
    ),
    # E's square (the square's pairing) against E solved and squared term by term
    "paired-square": (
        ("order",), lambda o: _series(o).E * _series(o).E, lambda o: _termwise_E(o)[1],
        lambda o: [(o,)], (6, 12),
    ),
    # E2, read off E1 by the u, d swap, against its equation solved by inversion
    "E2-inverse": (
        ("order",), lambda o: _series(o).E2, _e2_by_inverse, lambda o: [(o,)], (6, 12),
    ),
    "expected-steps": (
        ("n", "step"), expected_steps, _step_form,
        lambda size: [(n, s) for n in range(2, size + 1) for s in MARKERS], (8, 12),
    ),
    # the valley series of the 321-avoiders
    "valley-table": (
        ("order", "n"), lambda o, n: _valleys(o)[n], lambda o, n: QPoly(VALLEY_TABLE[n]),
        lambda o: [(o, n) for n in VALLEY_TABLE], (6, 8),
    ),
    "valley-at-1": (
        ("order", "n"), lambda o, n: _valleys(o)[n](1), lambda o, n: catalan(n),
        lambda o: [(o, n) for n in range(1, o + 1)], (6, 8),
    ),
    "valley-tally": (
        ("order", "n"), lambda o, n: _valleys(o)[n], _avoider_tally(inner_valleys),
        lambda o: [(o, n) for n in range(o + 1)], (6, 8),
    ),
    # the same series: reverse-complement keeps 321-avoidance and turns peaks into valleys
    "peak-tally": (
        ("order", "n"), lambda o, n: _valleys(o)[n], _avoider_tally(inner_peaks),
        lambda o: [(o, n) for n in range(o + 1)], (6, 8),
    ),
}


# ---------------------------------------------------------------------------
# roundtrip maps


def _each_n(first: int) -> Callable[[int], list[dict]]:
    return lambda last: [{"n": n} for n in range(first, last + 1)]


def _checks_out(t, k: int) -> bool:
    try:
        return validate_svsyt(t) == k
    except SvtabError:
        return False


def _ballot_tableaux(n: int, i: int) -> Iterator:
    """The tableaux of the shapes (b, b - i) with n entries in all."""
    for b in range(max(i, 1), (n + i) // 2 + 1):
        yield from gen_svsyt((b, b - i) if b > i else (b,), n + i - 2 * b)


def _is_triple_of(t, tr, n: int) -> bool:
    """``tr`` is a triple for ``t``: its base is a standard tableau of t's shape,
    it has t.extras cuts, weakly increasing within 0..N (N the base's cells),
    and each pick is a maximal cell of the base cells holding values <= its
    cut (its right and lower neighbors, where they exist, hold more)."""
    if not (isinstance(tr, Triple) and tr.base.shape == t.shape and _checks_out(tr.base, 0)):
        return False
    value = {cell: e for cell, (e,) in tr.base.cells()}
    cuts, top = tr.cuts, len(value)

    def within(cell, cut: int) -> bool:
        return cell in value and value[cell] <= cut

    return (
        len(cuts) == len(tr.picks) == t.extras
        and all(0 <= a <= b <= top for a, b in zip((0, *cuts), (*cuts, top)))
        and all(
            within((r, c), cut) and not within((r, c + 1), cut) and not within((r + 1, c), cut)
            for cut, (r, c) in zip(cuts, tr.picks)
        )
    )


# name -> (its objects at a grid point, the map, its inverse, the image test
# besides the roundtrip (of the object, its image and the point), the target's
# size at a point, its grid of points at a size, its size at each budget)
ROUNDTRIPS: dict[str, tuple[Callable, Callable, Callable, Callable, Callable, Callable, tuple]] = {
    # the image's minima are t's top row, and its valleys one fewer than t's columns
    "perm": (
        gen_two_row_union, perm_from_tableau, tableau_from_perm,
        lambda t, w, n: w.is_321_avoiding()
        and list(rl_minima(w)) == sorted(itertools.chain(*t.rows[0]))
        and len(inner_valleys(w)) == len(t.rows[0]) - 1,
        lambda n: catalan(n - 1), _each_n(2), (8, 10),
    ),
    "path": (
        gen_two_row_union, path_from_tableau, tableau_from_path,
        lambda t, p, n: "motzET" in path_family(p) and comaj_path(p) == comaj_plus_k(t),
        lambda n: catalan(n - 1), _each_n(2), (8, 10),
    ),
    "triple": (
        gen_two_row_union, decompose, compose, _is_triple_of,
        lambda n: catalan(n - 1), _each_n(2), (8, 10),
    ),
    # the walker makes its tableaux without checks: each is its own image, validated in full
    "walker": (
        gen_two_row_union, lambda t: t, lambda t: t, lambda t, y, n: _checks_out(t, n - t.ncells),
        lambda n: catalan(n - 1), _each_n(2), (8, 10),
    ),
    "ballot": (
        _ballot_tableaux, ballot_path_from_tableau, tableau_from_ballot_path,
        lambda t, p, n, i: p.final_height == i and "ballotlike" in path_family(p), ballot_count,
        lambda last: [{"n": n, "i": i} for n in range(1, last + 1) for i in range(n + 1)], (6, 8),
    ),
    # contraction trades the two path restrictions; its target is enumerated
    **{
        f"{src}->{dst}": (
            partial(gen_paths, src), contract_path, expand_path,
            lambda p, q, n, dst=dst: len(q) == n - 1 and dst in path_family(q),
            lambda n, dst=dst: sum(1 for _ in gen_paths(dst, n - 1)), _each_n(first), (7, 9),
        )
        for src, dst, first in (("motzT", "motz", 1), ("motzET", "motzE", 2))
    },
    # the half-turn complement swaps (b + 1, b) with (b + 1, b + 1)/(1); it
    # makes its images without checks, so each is validated
    "rotation": (
        lambda n: (t for s, k in _near_rectangles(n, 1) for t in gen_svsyt(s, k)),
        rotate_complement, rotate_complement,
        lambda t, r, n: tuple(r.shape.inner) == (1,) and _checks_out(r, t.extras),
        lambda n: sum(count_svsyt(s, k) for s, k in _near_rectangles(n, 1)), _each_n(3), (7, 9),
    ),
}


# ---------------------------------------------------------------------------
# individual checks
#
# Each check is a generator of rows (instance, expected, actual); a row passes
# when the two strings are equal, so a failing row is its own counterexample.

Row = tuple[str, str, str]


def _frame(exc: Exception) -> str:
    """The innermost frame of the raise, as "file:line in function"."""
    at = traceback.extract_tb(exc.__traceback__)[-1]
    return f"{os.path.basename(at.filename)}:{at.lineno} in {at.name}"


def _raised(exc: Exception) -> str:
    """The actual text of a point's row that raised: the exception and its frame."""
    return f"{type(exc).__name__}: {exc}; raised at {_frame(exc)}"


def _oracle_rows(name: str, entry: tuple, size: int) -> Iterator[Row]:
    """An oracle table's entry over its grid at ``size``: a row per value of
    the first parameter, the oracle's values against the entry's over the rest."""
    names, value, oracle, grid, _sizes = entry
    for first, points in itertools.groupby(grid(size), key=lambda p: p[0]):
        instance, points = f"{name},{names[0]}={str(first).zfill(2)}", list(points)
        try:
            yield instance, *(",".join(str(fn(*p)) for p in points) for fn in (oracle, value))
        except Exception as exc:  # a raise fails its point; the later points still run
            yield instance, "no exception", _raised(exc)


def check_count(kind: str, name: str, size: int) -> Iterator[Row]:
    """One ``COUNT_ORACLES`` entry, the oracle against the count."""
    return _oracle_rows(name, COUNT_ORACLES[kind][name], size)


def check_q(name: str, size: int) -> Iterator[Row]:
    """One ``Q_ORACLES`` entry, the oracle against the q-analog or its value."""
    return _oracle_rows(name, Q_ORACLES[name], size)


def check_series(name: str, size: int) -> Iterator[Row]:
    """One ``SERIES_ORACLES`` entry, the oracle against the series or its value."""
    return _oracle_rows(name, SERIES_ORACLES[name], size)


def _roundtrip(x, forth, back, test, point: dict, seen: set) -> str:
    """Why one object fails: its image fails ``test``, is in ``seen`` (the
    images' reprs; every image is a frozen dataclass of ints, tuples, strings)
    or does not map back; empty if it passes."""
    y = forth(x)
    if not test(x, y, **point):
        return f"{x}: image {y} fails its test"
    key = repr(y)
    if key in seen:
        return f"{x}: image {y} seen before"
    seen.add(key)
    z = back(y)
    return "" if z == x else f"{x}: roundtrip gives {z}"


def check_roundtrip(name: str, size: int) -> Iterator[Row]:
    """One ``ROUNDTRIPS`` entry over its grid at ``size``: a row per point, the
    target's size against the objects whose image passes the test, is new and
    maps back, so the map is onto the target; then the first failing object."""
    objects, forth, back, test, target, grid, _sizes = ROUNDTRIPS[name]
    for point in grid(size):
        instance = ",".join([name, *(f"{k}={v:02d}" for k, v in point.items())])
        seen: set = set()
        done, bad = 0, ""
        try:
            want = target(**point)
            for x in objects(**point):
                why = _roundtrip(x, forth, back, test, point, seen)
                done += not why
                if why and not bad:
                    bad = f"; fails at {why}"
            yield instance, f"{want} roundtrips", f"{done} roundtrips{bad}"
        except Exception as exc:  # a raise fails its point; the later points still run
            yield instance, "no exception", _raised(exc)


ROUNDTRIP_CAP = 20000  # roundtrips per (poset, k); other rows see every object


def _entry_word(s: SetValuedLinearExtension) -> bytes:
    """The block lengths, then the blocks' entries in order, as bytes (values <= 255).

    The poset fixes the number of blocks, so the lengths split the entries
    back into the blocks: it is a key that tells apart every set-valued
    extension of one poset.
    """
    return bytes(map(len, s.blocks)) + bytes(itertools.chain.from_iterable(s.blocks))


def _first_element(s: SetValuedLinearExtension) -> int:
    """The block holding entry 1; 0 if none does or a block is empty."""
    if not all(s.blocks):
        return 0
    return next((x for x, block in enumerate(s.blocks, start=1) if 1 in block), 0)


def check_poset_identities(name: str, poset: Poset, k: int) -> Iterator[Row]:
    """Cut-weight rows, route agreement and roundtrips for one (poset, k).

    One pass over every linear extension and cut vector in {0..n} sums
    ``vartheta``, times the pick pool sizes for the numerator: the ``oracle``
    of ``expected_ddeg``.  Each triple is composed once, by one
    ``compose_extensions`` generator per (extension, cuts) pair, which yields
    every legal pick vector with its object.  The pools are the loop's own,
    so the expected sides of the ``oracle`` and ``weights`` rows do not come
    from the generator.  Each object gives a key (``_entry_word``) for the
    route check and, for the first ``ROUNDTRIP_CAP`` triples, a decompose
    roundtrip.  The walker's objects, streamed once, must give the same keys,
    as many as were composed, so an object composed twice shows; with the
    roundtrips this makes decompose and compose inverse on them.  For n <= 4
    each composed object's comajor weight is compared with its ``vartheta``
    and summed against the numerator, and the comajor DP (``_comaj_walk``)
    with the streamed tally.  Only the composed objects
    are validated; the walker's are valid by construction, so a walker object
    that is not valid shows as "not composed" in the routes row.  At k = 0 the
    walker's count is compared with the permutations that respect
    ``Poset.above``, the one count that reads no cover mask.

    Both routes list their objects grouped by the element holding entry 1,
    in label order (one walker serves both), so the keys are composed and
    matched one group at a time: an object that misses waits for its own
    group if that is later, and is "not composed" if not; unmatched keys stay
    for later groups.  So an object out of place, repeated or invalid counts
    as it would against one set of every key.
    """
    tag = f"{name},k={k}"
    small = poset.n <= 4
    composed: set[bytes] = set()
    comaj_sum = QPoly.zero()
    dens, nums = Counter(), Counter()  # vartheta -> its terms, their pick products
    mismatch = ""
    made = tried = 0
    bad = []
    walked = extra = 0
    tally: Counter = Counter()
    walker = sv_linear_extensions(poset, k)
    s = next(walker, None)  # the walker's next object, not yet matched
    groups = itertools.groupby(linear_extensions(poset), lambda ext: ext[0] if ext else 0)
    for first, exts in itertools.chain(groups, [(poset.n + 1, ())]):
        for ext in exts:
            for cuts in itertools.combinations_with_replacement(range(poset.n + 1), k):
                weight = vartheta(ext, cuts)
                pools = [_maximal_in_prefix(poset, ext, t) for t in cuts]
                dens[weight] += 1
                nums[weight] += math.prod(map(len, pools))
                for picks, c in compose_extensions(poset, ext, cuts):
                    made += 1
                    if tried < ROUNDTRIP_CAP:
                        tried += 1
                        if decompose_extension(c) != (ext, cuts, picks):
                            bad.append(c)
                    composed.add(_entry_word(c))
                    if small:
                        got = QPoly.monomial(comaj_plus_k(c))
                        comaj_sum = comaj_sum + got
                        if got != weight and not mismatch:
                            mismatch = f"; {got} at {ext},{cuts},{picks}"
        # the walker's objects up to the next group's; matched keys leave ``composed``
        while s is not None:
            key = _entry_word(s)
            if key in composed:
                composed.remove(key)
            elif _first_element(s) > first:
                break
            else:
                extra += 1
            walked += 1
            if small:
                tally[comaj_plus_k(s)] += 1
            s = next(walker, None)
    den, num = (sum((w * c for w, c in t.items()), QPoly.zero()) for t in (dens, nums))
    if small:
        yield f"{tag} weights", str(num), f"{comaj_sum}{mismatch}"

    routes = f"{walked} objects"
    if extra or composed:
        routes += f", {extra} not composed, {len(composed)} not walked"
    yield f"{tag} routes", f"{made} objects", routes
    if k == 0:
        perms = itertools.permutations(poset.elements)
        brute = sum(all(poset.above[x] <= set(w[i:]) for i, x in enumerate(w)) for w in perms)
        yield f"{tag} linear extensions", str(brute), str(walked)

    if small:
        dp = _comaj_walk(*poset._cover_masks, poset.n + k)
        streamed = QPoly([tally[e] for e in range(max(tally, default=0) + 1)])
        yield f"{tag} comaj tally", str(dp), str(streamed)
    yield f"{tag} oracle", f"{num} / {den}", " / ".join(map(str, expected_ddeg(poset, k)))

    done = f"{tried - len(bad)} roundtrips" + (f"; {bad[0]} differs" if bad else "")
    yield f"{tag} roundtrips", f"{tried} roundtrips", done


def check_equidistribution(shape: tuple[int, ...], kmax: int) -> Iterator[Row]:
    """The descent-set tables of a shape and its conjugate, compared here."""
    for k in range(kmax + 1):
        _equal, t1, t2 = equidistribution_check(shape, k)
        yield (
            f"shape={shape},k={k}",
            f"{sum(t1.values())} tableaux, tables equal",
            f"{sum(t2.values())} tableaux, tables {'equal' if t1 == t2 else 'differ'}",
        )


_CHECKS = {name: fn for name, fn in globals().items() if name.startswith("check_")}


# ---------------------------------------------------------------------------
# task matrix and the runner

Task = tuple[str, str, dict]


def _sized(table: dict, budget: str, **keys) -> list[dict]:
    """One task per entry of ``table``, at the entry's own size for the budget."""
    column = BUDGETS.index(budget)
    return [{**keys, "name": name, "size": entry[-1][column]} for name, entry in table.items()]


def _count_tasks(budget: str) -> list[dict]:
    return [t for kind, table in COUNT_ORACLES.items() for t in _sized(table, budget, kind=kind)]


def _poset_tasks(size: tuple[int, int]) -> list[dict]:
    return [{"name": name, "poset": _poset(name), "k": k} for name, k in _poset_grid(size)]


def _equidistribution_tasks(size: tuple[int, int]) -> list[dict]:
    top, kmax = size
    return [{"shape": s, "kmax": kmax} for t in range(1, top + 1) for s in _partitions(t)]


# (suite, check, its size at each budget of BUDGETS, its tasks' kwargs at a
# size); a table's row has the budget for its size, as each entry has its own
_TASKS: tuple[tuple[str, str, tuple, Callable[..., list[dict]]], ...] = (
    ("counts", "check_count", BUDGETS, _count_tasks),
    ("bijections", "check_roundtrip", BUDGETS, partial(_sized, ROUNDTRIPS)),
    ("series", "check_series", BUDGETS, partial(_sized, SERIES_ORACLES)),
    ("qstats", "check_q", BUDGETS, partial(_sized, Q_ORACLES)),
    ("posets", "check_poset_identities", ((4, 2), (6, 3)), _poset_tasks),
    ("posets", "check_equidistribution", ((4, 2), (5, 2)), _equidistribution_tasks),
)


def build_tasks(suites, budget: str = "desk") -> list[Task]:
    """The (suite, check, kwargs) tasks of each ``_TASKS`` row of the chosen suites."""
    if budget not in BUDGETS:
        raise SvtabError(f"unknown budget {budget!r}")
    chosen = tuple(suites)
    for s in chosen:
        if s not in SUITES:
            raise SvtabError(f"unknown suite {s!r}; choose from {SUITES}")
    column = BUDGETS.index(budget)
    return [
        (suite, check, kwargs)
        for suite, check, sizes, expand in _TASKS
        if suite in chosen
        for kwargs in expand(sizes[column])
    ]


def _run_task(task: Task) -> tuple[dict, list[CheckResult]]:
    """The task's rows in the order the check gives them, and its time record:
    suite, check, the kwargs but the poset, the task's wall seconds and its
    number of rows.  A check that raises, any exception, keeps the rows it
    gave before the raise, followed by one failing row naming the exception,
    and its record gains ``raised_at``, the innermost frame's "file:line in function"."""
    suite, check, kwargs = task
    args = {k: v for k, v in kwargs.items() if k != "poset"}
    timing = {"suite": suite, "check": check, "kwargs": args}
    rows: list[Row] = []
    started = perf_counter()
    try:
        for row in _CHECKS[check](**kwargs):
            rows.append(row)
    except Exception as exc:  # a library bug fails its task, not the run
        instance = ",".join(f"{k}={v}" for k, v in args.items())
        rows.append((instance, "no exception", f"{type(exc).__name__}: {exc}"))
        timing["raised_at"] = _frame(exc)
    timing.update(seconds=round(perf_counter() - started, 6), rows=len(rows))
    return timing, [
        CheckResult(
            suite=suite,
            check=check,
            instance=instance,
            status="pass" if expected == actual else "fail",
            expected=expected,
            actual=actual,
        )
        for instance, expected, actual in rows
    ]


def _longest_first(tasks) -> list[Task]:
    """Hand-out order for the workers: longest processing time first (Graham).

    A poset identity task's time grows with its number of set-valued
    extensions, which ``_count_walk`` gives without building them, so these
    tasks go first, most objects first; every other task follows them in
    build order.
    """

    def key(task: Task) -> tuple[int, int]:
        _suite, check, kwargs = task
        if check != "check_poset_identities":
            return 1, 0
        k = kwargs["k"]
        return 0, -_count_walk(*kwargs["poset"]._cover_masks, k)[k]

    return sorted(tasks, key=key)


def _run_timed(tasks, threads: int) -> tuple[list[CheckResult], list[dict]]:
    """Run tasks, in worker processes when more than one thread is allowed.

    Only that branch imports the process pool, in the parent before any
    fork.  Workers take the tasks longest first.  Returns the rows, sorted so
    that the order of hand-out does not show in them, and one time record per
    task (see ``_run_task``) in the order of hand-out.
    """
    if threads <= 1 or len(tasks) <= 1:
        outs = [_run_task(t) for t in tasks]
    else:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(threads, len(tasks))) as pool:
            outs = list(pool.map(_run_task, _longest_first(tasks), chunksize=1))
    results = [r for _timing, rows in outs for r in rows]
    results.sort(key=lambda r: (r.suite, r.check, r.instance))
    return results, [timing for timing, _rows in outs]


def run_tasks(tasks, threads: int) -> list[CheckResult]:
    """The rows of ``_run_timed``, without the time records."""
    return _run_timed(tasks, threads)[0]


def report_dict(results, tasks, threads: int, wall_seconds: float, budget: str) -> dict:
    """The JSON report: totals, the run's setting, every task's time and every row.

    ``wall_seconds`` is the caller's wall time around the run, ``tasks`` the
    time records of ``_run_timed`` and ``seconds`` their total.  The task
    times are the only times: rows carry none.
    """
    failures = [r for r in results if not r.ok]
    return {
        "threads": threads,
        "budget": budget,
        "python": "%d.%d.%d" % sys.version_info[:3],
        "wall_seconds": round(wall_seconds, 3),
        "checks": len(results),
        "passed": len(results) - len(failures),
        "failed": len(failures),
        "seconds": round(sum(t["seconds"] for t in tasks), 3),
        "tasks": list(tasks),
        "results": [asdict(r) for r in results],
    }


def report_text(results) -> str:
    lines = []
    for r in results:
        mark = "PASS" if r.ok else "FAIL"
        lines.append(f"{mark} {r.suite}.{r.check} [{r.instance}]")
        if not r.ok:
            lines.append(f"     expected: {r.expected}")
            lines.append(f"     actual:   {r.actual}")
    failed = sum(1 for r in results if not r.ok)
    lines.append(f"{len(results) - failed} passed, {failed} failed")
    return "\n".join(lines)
