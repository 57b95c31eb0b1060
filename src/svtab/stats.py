"""Statistics on tableaux, permutations, paths, and order ideals.

The descent machinery uses the natural row-major labeling of a shape's cells;
an entry j is a natural descent when j+1 lives at a smaller label (and both
survive the removal of the non-minimal entries), or when j itself is one of
the non-minimal entries.

The set-valued q-Catalan and q-Narayana polynomials come from one pass over
the motzET paths (``_q_narayana_row``), without building a tableau; the ideal
DP and the enumeration tally they must equal are oracles in ``verify``.
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
from .enumerate import _forward, _path_steps, _unpack, count_paths
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


def set_valued_q_catalan(n: int) -> QPoly:
    """Comajor-index generating polynomial over the (n+1)-entry two-row union."""
    if n < 1:
        raise OutOfRange(f"need n >= 1, got {n}")
    return sum(_q_narayana_row(n).values(), QPoly.zero())


@lru_cache(maxsize=1)
def _q_narayana_row(n: int) -> dict[int, QPoly]:
    """m -> q-Narayana(n, m), by one ``_forward`` pass over the motzET paths
    of length N = n + 1; callers go n by n, so one cached row serves every m.

    ``tableau_from_path`` makes U or D the least entry of a top or bottom cell
    and u or d any other entry.  Every non-least entry is a descent, and in a
    2-by-b rectangle every top label is below every bottom label, so only a D
    followed by a U is a descent among least entries.  So the comajor of
    ``tableau_from_path(w)`` is the sum of N - j over every j with w_j in
    {u, d} or w_j w_{j+1} = DU, and m, the top-row entry count, is #U + #u.

    A state (height, D seen, last step was D, m) packs its tally {comaj:
    paths} into one int, B bits per power of q.  No step goes above height
    ``left``, and a prefix at height h <= left closes with h D steps and then
    d steps (past the first step, height 0 means a D was seen).  So a live
    state holds prefixes of distinct paths, and no count needs more than B,
    the bit length of the number of paths.
    """
    total = n + 1
    r1, r2, _ends_at_0 = PATH_RULES["motzET"]
    width = count_paths("motzET", total).bit_length()

    def step(state: tuple[int, bool, bool, int], left: int) -> Iterator[tuple[tuple, int]]:
        h, seen_D, after_D, m = state
        for ch, nh, nD in _path_steps(h, seen_D, r1, r2):
            if nh <= left:
                shift = left if ch in "ud" else left + 1 if ch == "U" and after_D else 0
                yield (nh, nD, ch == "D", m + (ch in "Uu")), width * shift

    packed: dict[int, int] = {}
    for (_h, _seen_D, _after_D, m), w in _forward((0, False, False, 0), step, total).items():
        packed[m] = packed.get(m, 0) + w
    return {m: _unpack(w, width) for m, w in sorted(packed.items())}


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
