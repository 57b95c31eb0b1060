"""Statistics on tableaux, permutations, paths, and order ideals.

The descent machinery uses the natural row-major labeling of a shape's cells;
an entry j is a natural descent when j+1 lives at a smaller label (and both
survive the removal of the non-minimal entries), or when j itself is one of
the non-minimal entries.

The set-valued q-Catalan and q-Narayana polynomials come from one
``enumerate._q_tally`` pass over the motzET paths (``_q_narayana_row``) with
the step exponents of ``comaj_path``, without building a tableau; the ideal DP
and the enumeration tally they must equal are oracles in ``verify``.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import chain
from typing import Iterator

from .core import (
    PATH_RULES,
    NotInFamily,
    OutOfRange,
    Permutation,
    SetValuedTableau,
)
from .enumerate import _path_steps, _q_tally
from .rings import QPoly

__all__ = [
    "descent_set_plus_k",
    "comaj_plus_k",
    "comaj_path",
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
        return list(enumerate(chain.from_iterable(s.rows), start=1))
    return s.labeled_blocks()


def _descents(s) -> tuple[int, Iterator[int]]:
    """n + k and the set-valued descents of ``s`` in increasing order, lazily.

    Every non-minimal entry is a descent.  An entry j with j+1 not
    non-minimal is a descent when j+1 sits at a strictly smaller label than j.
    ``label[e]`` is the label of a minimal entry e and 0 for a non-minimal one
    (labels start at 1), with a 0 after the last entry.
    """
    blocks = _labeled_blocks(s)
    total = sum(len(entries) for _label, entries in blocks)
    label = [0] * (total + 2)  # index 0 unused; entries are 1..total
    for x, entries in blocks:
        label[entries[0]] = x
    pairs = enumerate(zip(label[1:], label[2:]), start=1)
    return total, (j for j, (here, nxt) in pairs if not here or 0 < nxt < here)


def descent_set_plus_k(s) -> frozenset[int]:
    """Set-valued descent set of a tableau or set-valued linear extension."""
    return frozenset(_descents(s)[1])


def comaj_plus_k(s) -> int:
    """Sum of (n+k - j) over the set-valued descent set, in one pass."""
    total, des = _descents(s)
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
    sums to n-1.  The top row must hold entry 1.
    """
    n = t.nentries
    tops = list(chain.from_iterable(t.rows[0]))  # increasing, as rows are
    if not tops or tops[0] != 1:
        raise NotInFamily(f"entry 1 is not in the top row of {t}")
    m = len(tops)
    comp = tuple(
        (tops[i + 1] if i + 1 < m else n) - tops[i] for i in range(m)
    )
    return m, comp, dict(Counter(comp))


def _comaj_exponent(ch: str, after_D: bool, left: int) -> int:
    """What step ``ch`` adds to ``comaj_path``, with ``left`` steps after it."""
    return left if ch in "ud" else left + 1 if ch == "U" and after_D else 0


def comaj_path(p) -> int:
    """The comajor of ``tableau_from_path(p)``, read along the motzET path p.

    U or D is the least entry of a top or bottom cell, and u or d any other
    entry.  Every non-least entry is a descent, and every top label is below
    every bottom label, so among least entries only a D followed by a U is one.
    So with N = len(p), step j adds N - j if it is u or d, and N - j + 1 if it
    is the U of a DU."""
    w = " " + p.word
    return sum(_comaj_exponent(w[j], w[j - 1] == "D", len(w) - 1 - j) for j in range(1, len(w)))


def set_valued_q_catalan(n: int) -> QPoly:
    """Comajor-index generating polynomial over the (n+1)-entry two-row union."""
    if n < 1:
        raise OutOfRange(f"need n >= 1, got {n}")
    return sum(_q_narayana_row(n).values(), QPoly.zero())


@lru_cache(maxsize=1)
def _q_narayana_row(n: int) -> dict[int, QPoly]:
    """m -> q-Narayana(n, m), by one ``_q_tally`` pass of ``comaj_path``'s
    exponents over the length-(n + 1) motzET paths, in states (height, D seen,
    last step D, m = #U + #u); callers go n by n, so one cached row serves all m.
    No walk dead-ends: no step goes above height ``left``, and a prefix at
    height h <= left closes by h D steps, then d steps (a D was seen by then)."""
    r1, r2, _ends_at_0 = PATH_RULES["motzET"]

    def step(state: tuple[int, bool, bool, int], left: int) -> Iterator[tuple[int, tuple]]:
        h, seen_D, after_D, m = state
        for ch, nh, nD in _path_steps(h, seen_D, r1, r2):
            if nh <= left:
                yield _comaj_exponent(ch, after_D, left), (nh, nD, ch == "D", m + (ch in "Uu"))

    return _q_tally((0, False, False, 0), step, n + 1, lambda state: state[3])


def set_valued_q_narayana(n: int, m: int) -> QPoly:
    """Same sum restricted to tableaux with exactly m top-row elements."""
    if n < 1 or not 1 <= m <= n:
        raise OutOfRange(f"need 1 <= m <= n, got {(n, m)}")
    return _q_narayana_row(n).get(m, QPoly.zero())


# ---------------------------------------------------------------------------
# order-ideal statistics


def ddeg(poset, ideal) -> int:
    """Number of maximal elements of an order ideal (its down-degree in J(P))."""
    members = frozenset(ideal)
    if members and not (1 <= min(members) and max(members) <= poset.n):
        raise OutOfRange(f"ideal {sorted(members)} has labels outside 1..{poset.n}")
    succs = poset._cover_masks[1]
    mask = sum(1 << (x - 1) for x in members)
    return sum(1 for x in members if not succs[x - 1] & mask)
