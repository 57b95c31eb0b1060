"""Closed-form counts: Catalan/Narayana/Kreweras, hook lengths, ballot-like
path counts, and the two-row set-valued tableau counting formulas.

Each count is computed one way and only its arguments are checked; ``svtab
verify`` checks every formula against an independent computation.  All
arithmetic is exact.  Where a standard identity makes a quotient an integer
the division is floor division; the two-row tableau counts, whose
integrality is the paper's claim, assert it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, perm, prod

from .core import PATH_FAMILIES, InconsistentType, OutOfRange, Partition, _as_partition

__all__ = [
    "binom",
    "falling",
    "catalan",
    "narayana",
    "kreweras",
    "hook_count",
    "e_count",
    "f_count",
    "ballot_count",
    "row_sums",
    "act_count",
    "peaks_count",
    "more_shapes_counts",
    "path_family_count",
]


@lru_cache(maxsize=None)
def binom(m: int, j: int) -> int:
    """Binomial coefficient, polynomial in the upper index.

    j < 0 gives 0; otherwise m(m-1)...(m-j+1)/j!, so binom(m, 0) = 1 for every
    m (negative included) and negative upper indexes follow the falling-factorial
    extension.  For m >= 0 this agrees with the usual convention.
    """
    if j < 0:
        return 0
    return falling(m, j) // factorial(j)  # j! divides a product of j consecutive integers


def falling(x: int, a: int) -> int:
    """Falling factorial x(x-1)...(x-a+1); empty product for a = 0."""
    if a < 0:
        raise OutOfRange(f"need a >= 0, got {a}")
    if x >= 0:
        return perm(x, a)
    return (-1) ** a * perm(a - x - 1, a)  # (-1)^a times the rising |x|...(|x|+a-1)


@lru_cache(maxsize=None)
def catalan(n: int) -> int:
    if n < 0:
        raise OutOfRange(f"catalan undefined for n={n}")
    return comb(2 * n, n) // (n + 1)


def narayana(n: int, m: int) -> int:
    """Number of Dyck paths of semilength n with m peaks."""
    if n < 1 or not 1 <= m <= n:
        raise OutOfRange(f"narayana undefined for {(n, m)}")
    return comb(n, m - 1) * comb(n - 1, m - 1) // m


def kreweras(n: int, m: int, mu) -> int:
    """Dyck paths of semilength n with m peaks whose ascent-length type is mu.

    mu maps part size j to its multiplicity; sum(j*mu[j]) = n, sum(mu[j]) = m.
    Count = n(n-1)...(n-m+2) / prod_j mu[j]!  (m-1 falling factors).
    """
    mu = dict(mu)
    if any(j < 1 or c < 1 for j, c in mu.items()):
        raise InconsistentType(f"type {mu} needs part sizes and multiplicities >= 1")
    if sum(mu.values()) != m or sum(j * c for j, c in mu.items()) != n:
        raise InconsistentType(f"type {mu} is not an m={m} multiset of total {n}")
    return falling(n, m - 1) // prod(factorial(c) for c in mu.values())


def hook_count(shape) -> int:
    """Number of standard Young tableaux of a straight shape (hook lengths)."""
    lam = _as_partition(shape)
    if not lam.parts:
        return 1
    conj = lam.conjugate()
    n = lam.size
    hooks = 1
    for r in range(1, lam.nrows + 1):
        for c in range(1, lam.part(r) + 1):
            hooks *= (lam.part(r) - c) + (conj.part(c) - r) + 1
    return factorial(n) // hooks


def e_count(n: int, i: int) -> int:
    """Ballot-like paths of length n ending at height i with no D step."""
    if n < 0 or i < 0:
        raise OutOfRange(f"need n, i >= 0, got {(n, i)}")
    if i > n:
        return 0
    if n == 0:
        return 1 if i == 0 else 0
    if i == 0:
        return 0
    return binom(n - 1, i - 1)


def f_count(n: int, i: int) -> int:
    """Ballot-like paths of length n ending at height i with at least one D.

    ``svtab verify`` checks this closed form against the step recursion.
    """
    if n < 0 or i < 0:
        raise OutOfRange(f"need n, i >= 0, got {(n, i)}")
    if i > n:
        return 0
    return binom(2 * n - 2, n - i - 1) - binom(2 * n - 2, n - i - 2) - binom(n - 2, n - i - 1)


def ballot_count(n: int, i: int) -> int:
    """All ballot-like paths of length n ending at height i (= e + f)."""
    if n < 0 or i < 0:
        raise OutOfRange(f"need n, i >= 0, got {(n, i)}")
    if i > n:
        return 0
    return binom(2 * n - 2, n - i - 1) - binom(2 * n - 2, n - i - 2) + binom(n - 2, n - i)


def row_sums(n: int) -> tuple[int, int]:
    """Column sums (sum_i e, sum_i f) over 0 <= i <= n for fixed n."""
    if n < 0:
        raise OutOfRange(f"n={n}")
    se = sum(e_count(n, i) for i in range(n + 1))
    sf = sum(f_count(n, i) for i in range(n + 1))
    return se, sf


def _two_row_hook_count(a: int, b: int) -> int:
    """hook_count((a, b)) for a >= b >= 0: C(a+b, b)(a-b+1)/(a+1)."""
    return comb(a + b, b) * (a - b + 1) // (a + 1)


def act_count(b: int, k: int) -> int:
    """Number of set-valued standard tableaux of the 2-by-b rectangle with k extras.

    Hook-length style sum over the internal parameter c; the k! division is exact.
    """
    if b < 1 or k < 0:
        raise OutOfRange(f"need b >= 1, k >= 0, got {(b, k)}")
    total = 0
    for c in range(k // 2 + 1):
        total += (
            _two_row_hook_count(k - c, c)
            * _two_row_hook_count(b + k - c, b + c)
            * falling(b + k - c - 1, k - c)
            * falling(b + c - 2, c)
        )
    kfact = factorial(k)
    assert total % kfact == 0, f"k! division inexact for {(b, k)}"
    return total // kfact


def peaks_count(b: int, k: int) -> int:
    """Same count via the peak-refinement formula (exact-rational summands)."""
    if b < 1 or k < 0:
        raise OutOfRange(f"need b >= 1, k >= 0, got {(b, k)}")
    total = Fraction(0)
    for c in range(k // 2 + 1):
        total += (
            Fraction((k - 2 * c + 1) ** 2, (k - c + 1) * (b + k - c + 1))
            * binom(b + c - 2, c)
            * binom(b + k - c - 1, b - 1)
            * binom(2 * b + k, b + c)
        )
    assert total.denominator == 1, f"summand total not integral for {(b, k)}"
    return int(total)


def more_shapes_counts(n: int) -> tuple[int, int]:
    """Counts for the near-rectangular and skew two-row families at size n.

    First: tableaux of shape (b+1, b) over 2b+k+1 = n, equal to
    cat(n) - cat(n-1) = 3/(n+1) * binom(2n-2, n).  Second:
    cat(n) - 2cat(n-1) + cat(n-2).
    """
    if n < 3:
        raise OutOfRange(f"need n >= 3, got {n}")
    first = catalan(n) - catalan(n - 1)
    second = catalan(n) - 2 * catalan(n - 1) + catalan(n - 2)
    return first, second


def path_family_count(family: str, n: int) -> int:
    """Number of length-n paths in one of the five path families.

    The four bicolored Motzkin families are counted by Catalan numbers; motzET
    follows the empty-path convention (one path of length 0, none of length
    1).  Ballot-like paths are summed over their final height.
    """
    if family not in PATH_FAMILIES:
        raise OutOfRange(f"unknown family {family!r}")
    if n < 0:
        raise OutOfRange(f"n={n}")
    if family == "motz":
        return catalan(n + 1)
    if family in ("motzE", "motzT"):
        return catalan(n)
    if family == "motzET":
        return catalan(n - 1) if n >= 2 else 1 - n
    return sum(ballot_count(n, i) for i in range(n + 1))
