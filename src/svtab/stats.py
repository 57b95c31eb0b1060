"""Statistics on tableaux, permutations, paths, and order ideals.

The descent machinery uses the natural row-major labeling of a shape's cells;
an entry j is a natural descent when j+1 lives at a smaller label (and both
survive the removal of the non-minimal entries), or when j itself is one of
the non-minimal entries.
"""

from __future__ import annotations

from collections import Counter

from .core import (
    OutOfRange,
    Permutation,
    SetValuedTableau,
    validate_svsyt,
)
from .enumerate import gen_two_row_union
from .rings import QPoly

__all__ = [
    "descent_set_plus_k",
    "comaj_plus_k",
    "inner_valleys",
    "inner_peaks",
    "rl_minima",
    "dyck_type",
    "set_valued_q_catalan",
    "set_valued_q_narayana",
    "ddeg",
]


def _labeled_blocks(s) -> list[tuple[int, tuple[int, ...]]]:
    """(label, entries) pairs by label: row-major cell indices or poset labels."""
    if isinstance(s, SetValuedTableau):
        validate_svsyt(s)
        return [(i, entries) for i, (_pos, entries) in enumerate(s.cells(), start=1)]
    return s.labeled_blocks()


def descent_set_plus_k(s) -> frozenset[int]:
    """Set-valued descent set of a tableau or set-valued linear extension.

    Every non-minimal entry is a descent.  An entry j with j+1 not
    non-minimal is a descent when j+1 sits at a strictly smaller label than j.
    """
    blocks = _labeled_blocks(s)
    total = sum(len(entries) for _label, entries in blocks)
    label_of = [0] * (total + 1)  # index 0 unused; entries are 1..total
    extra = [False] * (total + 1)
    for label, entries in blocks:
        for e in entries:
            label_of[e] = label
        for e in entries[1:]:
            extra[e] = True
    return frozenset(
        j
        for j in range(1, total + 1)
        if extra[j]
        or (j < total and not extra[j + 1] and label_of[j + 1] < label_of[j])
    )


def comaj_plus_k(s) -> int:
    """Sum of (n+k - j) over the set-valued descent set."""
    des = descent_set_plus_k(s)
    total = s.nentries
    return sum(total - j for j in des)


# ---------------------------------------------------------------------------
# permutation statistics


def inner_valleys(w: Permutation) -> tuple[int, ...]:
    """1-indexed interior positions j with w[j-1] > w[j] < w[j+1]."""
    v = tuple(w)
    return tuple(
        j + 1 for j in range(1, len(v) - 1) if v[j - 1] > v[j] < v[j + 1]
    )


def inner_peaks(w: Permutation) -> tuple[int, ...]:
    """1-indexed interior positions j with w[j-1] < w[j] > w[j+1]."""
    v = tuple(w)
    return tuple(
        j + 1 for j in range(1, len(v) - 1) if v[j - 1] < v[j] > v[j + 1]
    )


def rl_minima(w: Permutation) -> tuple[int, ...]:
    """Values that are smaller than everything to their right, increasing."""
    out = []
    running = len(w) + 2
    for x in reversed(tuple(w)):
        if x < running:
            out.append(x)
            running = x
    return tuple(reversed(out))


# ---------------------------------------------------------------------------
# tableau refinement statistics


def dyck_type(t: SetValuedTableau) -> tuple[int, tuple[int, ...], dict[int, int]]:
    """(m, gap composition, gap multiplicity type) of a two-row-family tableau.

    m is the number of top-row elements a_1 < ... < a_m; the composition lists
    consecutive gaps with the total entry count appended as sentinel, so it
    sums to n-1.
    """
    validate_svsyt(t)
    n = t.nentries
    tops = sorted(
        e for (r, _c), entries in t.cells() if r == 1 for e in entries
    )
    assert tops and tops[0] == 1
    m = len(tops)
    comp = tuple(
        (tops[i + 1] if i + 1 < m else n) - tops[i] for i in range(m)
    )
    assert sum(comp) == n - 1
    return m, comp, dict(Counter(comp))


def _tally(polys: Counter) -> QPoly:
    top = max(polys) if polys else 0
    return QPoly([polys.get(e, 0) for e in range(top + 1)])


def set_valued_q_catalan(n: int) -> QPoly:
    """Comajor-index generating polynomial over the (n+1)-entry two-row union."""
    if n < 1:
        raise OutOfRange(f"need n >= 1, got {n}")
    tally: Counter = Counter()
    for t in gen_two_row_union(n + 1):
        tally[comaj_plus_k(t)] += 1
    return _tally(tally)


def set_valued_q_narayana(n: int, m: int) -> QPoly:
    """Same sum restricted to tableaux with exactly m top-row elements."""
    if n < 1 or not 1 <= m <= n:
        raise OutOfRange(f"need 1 <= m <= n, got {(n, m)}")
    tally: Counter = Counter()
    for t in gen_two_row_union(n + 1):
        if dyck_type(t)[0] == m:
            tally[comaj_plus_k(t)] += 1
    return _tally(tally)


# ---------------------------------------------------------------------------
# order-ideal statistics


def ddeg(poset, ideal) -> int:
    """Number of maximal elements of an order ideal (its down-degree in J(P))."""
    members = frozenset(ideal)
    return sum(
        1
        for x in members
        if not any(y in members for y in poset.cover_successors(x))
    )
