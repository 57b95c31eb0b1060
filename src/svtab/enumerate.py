"""Ground-truth enumeration: set-valued tableaux, 321-avoiders, colored paths.

One order-ideal walker serves every set-valued object here and in ``posets``:
a tableau shape and a poset are both given as cover predecessor/successor
bitmasks over their cells or elements, and a set-valued filling is a walk up
the lattice of order ideals that may also stay put (linear extensions are the
walks with no stays).  The walker places the entries 1..n+k one at a time.
Each entry either opens the next unopened cell whose lower covers are already
open, or is appended to an open cell none of whose upper covers is open (such
an append can never be extended to a violation, so every leaf of the search is
a valid object and the enumeration has polynomial delay).  Trying targets in
index order (row-major for shapes, label order for posets) emits objects in
lexicographic order of the word that maps each entry to its cell index.

The move rule is stated once, in the per-ideal move table ``_Moves``, and
the walker and both ideal DPs read it; the colored-path step rule is stated
once, in ``_path_steps``, for the path walker and its DP, with the family's
restrictions from ``core.PATH_RULES``.  The DPs visit no object.  The tableau
count (``_count_walk``) is one sweep of the ideals in size order that gives
every number of appended entries k <= K at once: an ideal's series in x,
truncated at x^K, is the sum of its lower covers' series divided by
1 - m·x, for the m appends the move table allows there, and ``count_svsyt``
keeps each shape's counts.  The other DPs are forward passes of int weights
(``_forward``) over the walker's states, whose steps yield (exponent, next
state): the path count keeps one pass per family and resumes it for a longer
length.  Every comajor DP is its exponent rule and one ``_q_tally`` call, the
one packed pass, which alone sets the slot width, packs and unpacks:
``_comaj_walk`` here, over states that also record the cell the last entry
opened; the cut rule in ``posets``; and the q-Narayana row in ``stats``, over
``_path_steps``, whose oracle in ``verify`` is ``_comaj_walk`` summed over the
two-row rectangles.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from operator import add
from typing import Iterator

from .core import (
    PATH_RULES,
    ColoredPath,
    OutOfRange,
    Partition,
    Permutation,
    SetValuedTableau,
    SkewShape,
    _as_partition,
)
from .rings import QPoly

__all__ = [
    "as_skew",
    "gen_svsyt",
    "count_svsyt",
    "gen_two_row_union",
    "count_two_row_union",
    "gen_avoid321",
    "gen_paths",
    "count_paths",
    "gen_ballotlike",
]


def as_skew(shape) -> SkewShape:
    if isinstance(shape, SkewShape):
        return shape
    return SkewShape(_as_partition(shape))


@lru_cache(maxsize=256)
def _cell_masks(shape: SkewShape) -> tuple[dict[tuple[int, int], int], list[int], list[int]]:
    """Row-major cell index {cell: i} with bitmasks of cover predecessors/successors.

    Cached per shape, so callers only read the result.
    """
    index = {cell: i for i, cell in enumerate(shape.cells())}
    preds = [0] * len(index)
    succs = [0] * len(index)
    for (r, c), i in index.items():
        for nb in ((r, c - 1), (r - 1, c)):
            if nb in index:
                preds[i] |= 1 << index[nb]
        for nb in ((r, c + 1), (r + 1, c)):
            if nb in index:
                succs[i] |= 1 << index[nb]
    return index, preds, succs


class _Moves(dict):
    """Open ideal -> the walker's moves from it: the only statement of the rule.

    A move is (i, ideal after), in cell-index order: an unopened cell i whose
    lower covers are all open may be opened (ideal | 1 << i), and an open cell
    i none of whose upper covers is open may take an appended entry (the ideal
    stays).  An append is legal only while the entries after it can still
    open every unopened cell, so every walk ends in a valid filling.
    """

    def __init__(self, preds: list[int], succs: list[int]):
        super().__init__()
        self.cells = [(i, 1 << i, pred, succ) for i, (pred, succ) in enumerate(zip(preds, succs))]

    def __missing__(self, ideal: int) -> tuple[int, list, list]:
        moves, opens = [], []
        for i, bit, pred, succ in self.cells:
            if ideal & bit:
                if not succ & ideal:
                    moves.append((i, ideal))
            elif pred & ideal == pred:
                moves.append(move := (i, ideal | bit))
                opens.append(move)
        self[ideal] = value = len(self.cells) - ideal.bit_count(), moves, opens
        return value

    def legal(self, ideal: int, left: int) -> list[tuple[int, int]]:
        """The legal moves from the ideal when ``left`` entries follow this one."""
        unopened, moves, opens = self[ideal]
        return moves if left >= unopened else opens


def _walk(preds: list[int], succs: list[int], total: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Every filling of the cells by entries 1..total, as per-cell entry tuples.

    A depth-first search with one iterator of legal moves per placed entry
    on an explicit stack, so a leaf is handed out through one generator
    frame rather than a chain of ``total`` of them.
    """
    moves = _Moves(preds, succs)
    cells: list[list[int]] = [[] for _ in preds]
    if total == 0:
        yield tuple(map(tuple, cells))
        return
    stack = [iter(moves.legal(0, total - 1))]  # stack[e-1] places entry e
    placed: list[int] = []  # the cell of each entry placed, but the last
    while stack:
        e = len(stack)
        for i, up in stack[-1]:
            cells[i].append(e)
            if e < total:
                placed.append(i)
                stack.append(iter(moves.legal(up, total - e - 1)))
                break
            yield tuple(map(tuple, cells))
            cells[i].pop()
        else:
            stack.pop()
            if placed:
                cells[placed.pop()].pop()


def _forward(layer: dict, step, n: int, width: int = 0) -> dict:
    """The state -> int weight layer n steps after ``layer``.

    A weight w moves along each (exponent e, next state) of ``step(state,
    left)`` as w << width * e; ``left`` counts the steps after this one.
    """
    for left in range(n - 1, -1, -1):
        nxt: dict = {}
        for state, w in layer.items():
            for e, up in step(state, left):
                nxt[up] = nxt.get(up, 0) + (w << width * e)
        layer = nxt
    return layer


def _q_tally(start, step, n: int, key) -> dict:
    """key(final state) -> the tally of the walks ending there by exponent sum.

    A count pass at width 0 sets B, the walk count's bit length (at least 1);
    the packed pass holds the count of q^c in bits [cB, (c+1)B) of one int per
    state.  No walk may dead-end, so no count in a layer exceeds the walk count
    and no carry crosses a slot."""
    width = max(1, sum(_forward({start: 1}, step, n).values()).bit_length())
    slot = (1 << width) - 1
    packed: dict = {}
    for state, w in _forward({start: 1}, step, n, width).items():
        packed[key(state)] = packed.get(key(state), 0) + w
    return {g: QPoly(w >> c * width & slot for c in range(w.bit_length() // width + 1))
            for g, w in sorted(packed.items())}


def _count_walk(preds: list[int], succs: list[int], kmax: int) -> list[int]:
    """The number of leaves of ``_walk`` with k appended entries, for k = 0..kmax,
    without visiting them.

    A leaf is a walk up the lattice of ideals that stays put k times, each
    stay one of the m(I) appends ``_Moves`` allows at the ideal I it stays
    at.  (Its rule "left >= unopened" is "fewer than k appends so far", so
    every such walk is a leaf.)  The walks to I, by stays, have the series
        F(I) = (Σ over the lower covers I' of I of F(I')) / (1 - m(I)·x),
    truncated at x^kmax, and the counts are the coefficients of F(full).  One
    sweep of the ideals in size order gives them all: each ideal's series is
    complete once the layer below it has been pushed up, and the division is
    g_j = f_j + m·g_(j-1)."""
    moves = _Moves(preds, succs)
    layer: dict[int, list[int]] = {0: [1] + [0] * kmax}
    while True:
        nxt: dict[int, list[int]] = {}
        for ideal, f in layer.items():
            _unopened, legal, opens = moves[ideal]
            m = len(legal) - len(opens)
            if m and kmax:
                f = list(itertools.accumulate(f, lambda g, c: c + m * g))
            for _i, up in opens:
                g = nxt.get(up)
                nxt[up] = f if g is None else list(map(add, g, f))
        if not nxt:
            return f
        layer = nxt


def _comaj_walk(preds: list[int], succs: list[int], total: int) -> QPoly:
    """The comajor tally of ``_walk``'s leaves, without visiting them.

    Cells are labeled by index.  A descent j adds total - j to
    ``comaj_plus_k``, and the move that places entry j or j + 1 settles it:
    an appended entry e is a descent (total - e), and an entry e that opens
    cell i makes e - 1 a descent (total - e + 1) when e - 1 opened a cell of
    larger index.  So ``_count_walk``'s state gains the cell the last entry
    opened (-1 after an append and before entry 1).  Every walk ends in a leaf
    (``_Moves``), as ``_q_tally`` needs."""
    moves = _Moves(preds, succs)

    def step(state: tuple[int, int], left: int) -> Iterator[tuple[int, tuple[int, int]]]:
        ideal, last = state
        for i, up in moves.legal(ideal, left):
            yield (left, (up, -1)) if up == ideal else (left + 1 if i < last else 0, (up, i))

    return _q_tally((0, -1), step, total, lambda _state: 0).get(0, QPoly.zero())


def _repack(shape: SkewShape, flat: tuple[tuple[int, ...], ...]) -> SetValuedTableau:
    """The tableau of the shape whose cells, in row-major order, hold ``flat``,
    a valid filling (it is not checked)."""
    inner = shape.inner.parts
    rows = []
    i = 0
    for r, end in enumerate(shape.outer.parts):
        j = i + end - (inner[r] if r < len(inner) else 0)
        rows.append(flat[i:j])
        i = j
    return SetValuedTableau._trusted(shape, tuple(rows))


def gen_svsyt(shape, k: int) -> Iterator[SetValuedTableau]:
    """All set-valued standard tableaux of the shape with k extra entries."""
    sk = as_skew(shape)
    if sk.ncells == 0 or k < 0:
        raise OutOfRange(f"need a nonempty shape and k >= 0, got {shape}, k={k}")
    _, preds, succs = _cell_masks(sk)
    for flat in _walk(preds, succs, sk.ncells + k):
        yield _repack(sk, flat)


@lru_cache(maxsize=64)
def _shape_counts(shape: SkewShape) -> list[int]:
    """The shape's counts by k, k = 0..K, that ``count_svsyt`` has swept so
    far; empty until it is first asked, then replaced in place."""
    return []


def count_svsyt(shape, k: int) -> int:
    """The number of set-valued standard tableaux of the shape with k extras.

    One sweep of the shape's ideals gives every k <= K (``_count_walk``).  The
    first query sweeps to K = k; a later one past K sweeps again to
    max(k, 2·K), so asking k = 0, 1, 2, ... sweeps O(log k) times."""
    sk = as_skew(shape)
    if sk.ncells == 0 or k < 0:
        raise OutOfRange(f"need a nonempty shape and k >= 0, got {shape}, k={k}")
    counts = _shape_counts(sk)
    if k >= len(counts):
        counts[:] = _count_walk(*_cell_masks(sk)[1:], max(k, 2 * len(counts) - 2))
    return counts[k]


def _two_row_shapes(n: int) -> list[Partition]:
    if n < 2:
        raise OutOfRange(f"need n >= 2, got {n}")
    return [Partition((b, b)) for b in range(1, n // 2 + 1)]


def gen_two_row_union(n: int) -> Iterator[SetValuedTableau]:
    """Union over 2b+k = n of the 2-by-b rectangles with k extras, b ascending."""
    for lam in _two_row_shapes(n):
        yield from gen_svsyt(lam, n - lam.size)


def count_two_row_union(n: int) -> int:
    return sum(count_svsyt(lam, n - lam.size) for lam in _two_row_shapes(n))


def gen_avoid321(m: int) -> Iterator[Permutation]:
    """All 321-avoiding permutations of {1..m}, lexicographic in one-line form."""
    if m < 0:
        raise OutOfRange(f"m={m}")
    word: list[int] = []
    used = [False] * (m + 1)

    def rec(big: int, m2: int) -> Iterator[Permutation]:
        if len(word) == m:
            yield Permutation(tuple(word))
            return
        for v in range(1, m + 1):
            if used[v] or v < m2:
                continue
            used[v] = True
            word.append(v)
            yield from rec(max(big, v), max(m2, v) if v < big else m2)
            word.pop()
            used[v] = False

    return rec(0, 0)


@lru_cache(maxsize=None)
def _path_steps(h: int, seen_D: bool, r1: bool, r2: bool) -> tuple[tuple[str, int, bool], ...]:
    """The legal steps from a path state: the only statement of the step rule.

    A step is (letter, height after, D seen after), in the order U < D < u < d.
    D needs height > 0; r1 forbids u at height 0, and r2 forbids d before the
    first D.
    """
    steps = [("U", h + 1, seen_D)]
    if h > 0:
        steps.append(("D", h - 1, True))
    if not (r1 and h == 0):
        steps.append(("u", h, seen_D))
    if seen_D or not r2:
        steps.append(("d", h, seen_D))
    return tuple(steps)


def _gen_path_words(n: int, r1: bool, r2: bool, end: int | None) -> Iterator[str]:
    """DFS over ``_path_steps``; end is the required final height, or None for any."""
    buf: list[str] = []

    def rec(h: int, left: int, seen_D: bool) -> Iterator[str]:
        if left == 0:
            yield "".join(buf)
            return
        left -= 1
        for ch, nh, nD in _path_steps(h, seen_D, r1, r2):
            if end is None or abs(nh - end) <= left:
                buf.append(ch)
                yield from rec(nh, left, nD)
                buf.pop()

    return rec(0, n, False)


def _family_rules(family: str, n: int) -> tuple[bool, bool, int | None]:
    """(r1, r2, end) of ``_gen_path_words`` for the length-n paths of the family."""
    if family not in PATH_RULES:
        raise OutOfRange(f"unknown family {family!r}")
    if n < 0:
        raise OutOfRange(f"n={n}")
    r1, r2, ends_at_0 = PATH_RULES[family]
    return r1, r2, 0 if ends_at_0 else None


def gen_paths(family: str, n: int) -> Iterator[ColoredPath]:
    """All length-n paths of the family, lexicographic in step order U < D < u < d."""
    for w in _gen_path_words(n, *_family_rules(family, n)):
        yield ColoredPath(w)


@lru_cache(maxsize=len(PATH_RULES))
def _path_pass(family: str) -> list:
    """``count_paths``' kept pass of the family: [the counts by length so far,
    the (height, seen D) -> weight layer at the next length]."""
    return [[], {(0, False): 1}]


def count_paths(family: str, n: int) -> int:
    """The number of length-n paths of the family, by a DP over (height, seen D).

    One layer pass per family is kept, and a longer n resumes it, so the
    lengths 0..n together cost one pass to n."""
    r1, r2, end = _family_rules(family, n)
    kept = _path_pass(family)
    counts, layer = kept

    def step(state: tuple[int, bool], _left: int) -> list[tuple[int, tuple[int, bool]]]:
        return [(0, (nh, nD)) for _ch, nh, nD in _path_steps(*state, r1, r2)]

    while len(counts) <= n:
        counts.append(sum(w for (h, _), w in layer.items() if end is None or h == end))
        layer = kept[1] = _forward(layer, step, 1)
    return counts[n]


def gen_ballotlike(n: int, i: int) -> Iterator[ColoredPath]:
    """Ballot-like paths of length n ending at height i; none when i > n."""
    if n < 0 or i < 0:
        raise OutOfRange(f"need n, i >= 0, got {(n, i)}")
    if i > n:
        return
    r1, r2, _ends_at_0 = PATH_RULES["ballotlike"]
    for w in _gen_path_words(n, r1, r2, i):
        yield ColoredPath(w)
