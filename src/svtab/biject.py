"""Structure-preserving maps between tableaux, permutations, and paths.

Every map comes with its inverse.  A tableau is checked once, when it is made
(see ``core``), so a map checks only what its input type does not promise:
the shape, the path family, 321-avoidance, pick legality.  The maps build
their images through the trusted path, valid by construction; images and
roundtrips are checked by ``svtab verify`` over exhaustive small ranges.  All
functions take and return immutable values and never mutate their arguments.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, chain
from operator import or_

from .core import (
    ColoredPath,
    InvalidPick,
    Not321Avoiding,
    NotInFamily,
    NotInMotzET,
    NotInMotzT,
    OutOfRange,
    Partition,
    Permutation,
    SetValuedTableau,
    ShapeMismatch,
    ShapeNotTwoRowRectangular,
    SkewShape,
    _json_ints,
    path_family,
)
from .enumerate import _cell_masks, _repack

__all__ = [
    "Triple",
    "perm_from_tableau",
    "tableau_from_perm",
    "path_from_tableau",
    "tableau_from_path",
    "ballot_path_from_tableau",
    "tableau_from_ballot_path",
    "contract_path",
    "expand_path",
    "decompose",
    "compose",
    "rotate_complement",
]


def _require_two_row_rectangular(t: SetValuedTableau) -> int:
    """Return b for a straight 2-by-b tableau, else raise."""
    shape = t.shape
    if not shape.is_straight or shape.outer.nrows != 2:
        raise ShapeNotTwoRowRectangular(f"shape {tuple(shape.outer)} is not 2xb")
    b1, b2 = shape.outer.parts
    if b1 != b2:
        raise ShapeNotTwoRowRectangular(f"rows have unequal lengths {b1} != {b2}")
    return b1


@lru_cache(maxsize=64)
def _straight_shape(lengths: tuple[int, ...]) -> SkewShape:
    return SkewShape(Partition(lengths))


@lru_cache(maxsize=64)
def _notched_shape(w: int) -> SkewShape:
    return SkewShape(Partition((w, w)), Partition((1,)))


def _straight(rows: list[list[list[int]]]) -> SetValuedTableau:
    """The straight tableau of these rows, which form a valid filling."""
    shape = _straight_shape(tuple(map(len, rows)))
    return SetValuedTableau._trusted(shape, tuple(tuple(map(tuple, row)) for row in rows))


# ---------------------------------------------------------------------------
# tableau <-> 321-avoiding permutation


def perm_from_tableau(t: SetValuedTableau) -> Permutation:
    """Flatten a 2-by-b set-valued tableau into a 321-avoiding permutation.

    The largest entry n is removed (it always sits in the bottom-right cell),
    then the columns are read left to right, each contributing the top cell
    minus its maximum, the bottom cell, and finally the top maximum.  The
    result is a permutation of [n-1] whose right-to-left minima are exactly
    the top-row entries.  The shape check settles the shape of the word: a
    2-by-b shape has b >= 1, so n >= 2, and as a tableau's rows and columns
    strictly increase, n is the last entry of the bottom-right cell.
    """
    _require_two_row_rectangular(t)
    top, bot = t.rows
    word: list[int] = []
    for above, below in zip(top, bot):
        word.extend(above[:-1])
        word.extend(below)
        word.append(above[-1])
    del word[-2]  # n, which the last column read just before its top maximum
    return Permutation(tuple(word))


def _suffix_minima_mask(vals: tuple[int, ...]) -> list[bool]:
    mask = [False] * len(vals)
    running = len(vals) + 2
    for j in range(len(vals) - 1, -1, -1):
        if vals[j] < running:
            mask[j] = True
            running = vals[j]
    return mask


def tableau_from_perm(w: Permutation) -> SetValuedTableau:
    """Inverse of perm_from_tableau; builds the unique 2-row preimage.

    One pass over the word.  A right-to-left minimum joins the current top
    cell, and an inner valley closes that cell.  A non-minimum opens a bottom
    cell at position 1 or right after a minimum, and otherwise joins the
    current bottom cell.  The new largest entry m+1 opens a bottom cell when
    there are fewer bottom cells than top cells, and otherwise joins the
    last one.

    The 321 check makes this well formed.  In a 321-avoider every inner
    valley is a minimum, so the valleys split the minima into top cells, and
    the last value, a minimum, is not an inner valley, so the last top cell
    is not empty.  Each inner valley comes right after a non-minimum, and
    each run of non-minima ends in a descent onto a minimum, which is an
    inner valley unless it is the last value; so with b top cells there are
    b-1 or b bottom cells before m+1 is placed.
    """
    if not w.is_321_avoiding():
        raise Not321Avoiding(f"{w.to_text()} contains a 321 pattern")
    m = len(w)
    if m < 1:
        raise OutOfRange("need a permutation of length >= 1")
    vals = tuple(w)
    is_min = _suffix_minima_mask(vals)
    top: list[list[int]] = [[]]
    bot: list[list[int]] = []
    for j, v in enumerate(vals):
        if is_min[j]:
            top[-1].append(v)
            if 0 < j < m - 1 and vals[j - 1] > v:  # below vals[j + 1], as a minimum
                top.append([])
        elif j == 0 or is_min[j - 1]:
            bot.append([v])
        else:
            bot[-1].append(v)
    if len(bot) < len(top):
        bot.append([m + 1])
    else:
        bot[-1].append(m + 1)
    return _straight([top, bot])


# ---------------------------------------------------------------------------
# tableau <-> colored Motzkin / ballotlike path


def _word_from_two_row(t: SetValuedTableau) -> str:
    steps = {}
    for row, (opens, joins) in zip(t.rows, ("Uu", "Dd")):
        for entries in row:
            steps[entries[0]] = opens
            for e in entries[1:]:
                steps[e] = joins
    return "".join([steps[j] for j in range(1, len(steps) + 1)])


def path_from_tableau(t: SetValuedTableau) -> ColoredPath:
    """Encode a 2-by-b set-valued tableau as a restricted Motzkin path.

    Position j becomes U/D when j opens a top/bottom cell and u/d when j is a
    non-minimal top/bottom entry.
    """
    _require_two_row_rectangular(t)
    return ColoredPath(_word_from_two_row(t))


def ballot_path_from_tableau(t: SetValuedTableau) -> ColoredPath:
    """Same encoding on shapes (b, b-i); the path ends at height i."""
    shape = t.shape
    if not shape.is_straight or shape.outer.nrows > 2:
        raise ShapeMismatch(f"shape {tuple(shape.outer)} has more than two rows")
    return ColoredPath(_word_from_two_row(t))


def _tableau_from_word(word: str) -> SetValuedTableau:
    top: list[list[int]] = []
    bot: list[list[int]] = []
    for j, step in enumerate(word, start=1):
        if step == "U":
            top.append([j])
        elif step == "D":
            bot.append([j])
        elif step == "u":
            top[-1].append(j)
        else:
            bot[-1].append(j)
    return _straight([top, bot] if bot else [top])


def tableau_from_path(p: ColoredPath) -> SetValuedTableau:
    """Inverse of path_from_tableau on paths with both restrictions."""
    if "motzET" not in path_family(p):
        raise NotInMotzET(f"{p.word!r} violates a restriction or ends above 0")
    if len(p) < 2:
        raise OutOfRange("the empty path has no 2-row preimage")
    return _tableau_from_word(p.word)


def tableau_from_ballot_path(p: ColoredPath) -> SetValuedTableau:
    """Inverse of ballot_path_from_tableau; shape (b, b-i) with i the final height."""
    if "ballotlike" not in path_family(p):
        raise NotInFamily(f"{p.word!r} is not ballotlike")
    if len(p) < 1:
        raise OutOfRange("the empty path has no tableau preimage")
    return _tableau_from_word(p.word)


# ---------------------------------------------------------------------------
# path-length contraction


def contract_path(p: ColoredPath) -> ColoredPath:
    """Shorten a no-early-d Motzkin path by one step.

    The all-u path maps to the all-u path.  Otherwise the step pair ending at
    the first D collapses: (u,D) becomes D and (U,D) becomes d.  The image is
    an unrestricted bicolored Motzkin path one step shorter.  The family check
    settles the word's form: with no D it is all u, and the step before the
    first D is U or u.
    """
    if "motzT" not in path_family(p):
        raise NotInMotzT(f"{p.word!r} not in the no-early-d family")
    if len(p) < 1:
        raise OutOfRange("need length >= 1")
    word = p.word
    j = word.find("D")
    if j < 0:
        return ColoredPath("u" * (len(word) - 1))
    merged = "D" if word[j - 1] == "u" else "d"
    return ColoredPath(word[: j - 1] + merged + word[j + 1 :])


def expand_path(p: ColoredPath) -> ColoredPath:
    """Inverse of contract_path: split the first D-or-d back into two steps.

    A Motzkin path with no D or d is all u.
    """
    if "motz" not in path_family(p):
        raise NotInFamily(f"{p.word!r} is not a bicolored Motzkin path")
    word = p.word
    first = next((j for j, step in enumerate(word) if step in "Dd"), None)
    if first is None:
        return ColoredPath("u" * (len(word) + 1))
    pair = "uD" if word[first] == "D" else "UD"
    return ColoredPath(word[:first] + pair + word[first + 1 :])


# ---------------------------------------------------------------------------
# triple decomposition


@dataclass(frozen=True)
class Triple:
    """Standard base tableau plus cut values and pick cells for the extras.

    Cuts are weakly increasing in 1..n; pick i must be a maximal cell of the
    ideal of base cells holding values <= cuts[i].
    """

    base: SetValuedTableau
    cuts: tuple[int, ...]
    picks: tuple[tuple[int, int], ...]

    def to_json_dict(self) -> dict:
        return {
            "base": self.base.to_json_dict(),
            "cuts": list(self.cuts),
            "picks": [list(p) for p in self.picks],
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "Triple":
        return cls(
            SetValuedTableau.from_json_dict(d["base"]),
            _json_ints(d["cuts"]),
            tuple((r, c) for r, c in map(_json_ints, d["picks"])),
        )


def _peel(blocks: Sequence[Sequence[int]]) -> tuple[list[int], list[int], list[int]]:
    """Cut-and-pick decomposition of per-element entry lists; inverse of ``_insert``.

    Each block holds one element's entries in increasing order, and the
    blocks partition 1..n+k.  In closed form: let x_1 < ... < x_k be the
    non-minimal entries.  Then cut i is x_i - i and pick i is the block of
    x_i, and every element keeps its minimal entry v shifted down to
    v - #{j : x_j < v}.  As x_1 > 1 and the x_i are distinct, the cuts weakly
    increase and are >= 1.  Returns the kept entries, the cuts and the picks
    (as block indices).
    """
    extras = sorted([(e, x) for x, b in enumerate(blocks) for e in b[1:]])
    xs = [e for e, _ in extras]
    cuts = [e - i for i, e in enumerate(xs, start=1)]
    picks = [x for _, x in extras]
    return [b[0] - bisect_left(xs, b[0]) for b in blocks], cuts, picks


def _ideals(base: Sequence[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The part of ``_insert`` that depends only on the base: the elements in
    base-entry order and the prefix ideals (``ideal[t]`` is the bitmask of
    elements whose base entry is at most t)."""
    order = tuple(sorted(range(len(base)), key=base.__getitem__))
    return order, tuple(accumulate((1 << y for y in order), or_, initial=0))


def _frame(base: Sequence[int], cuts: tuple[int, ...], low: int) -> list[tuple[int]]:
    """The part of ``_insert`` that depends on the cuts.

    Raises unless the cuts weakly increase within low..n.  Returns every
    element's base entry v shifted up to v + #{i : cuts[i-1] < v}, as a 1-tuple.
    """
    n = len(base)
    if cuts and not (low <= min(cuts) and max(cuts) <= n):
        raise InvalidPick(f"cuts out of range {low}..{n}: {cuts}")
    if sorted(cuts) != list(cuts):
        raise InvalidPick(f"cuts must weakly increase: {cuts}")
    return [(v + bisect_left(cuts, v),) for v in base]


def _insert(
    base: list[int],
    succs: list[int],
    cuts: tuple[int, ...],
    picks: tuple,
    index: dict,
    noun: str,
) -> tuple[tuple[int, ...], ...]:
    """Inverse of ``_peel``: grow each pick's entries by the entry cut + i.

    ``base`` gives every element's entry in a standard filling (a permutation
    of 1..n) and ``succs`` the bitmask of its upper covers; ``index`` maps a
    pick (a ``noun`` such as a cell) to its element.  Pick i must be a maximal
    element of the ideal of elements whose base entry is at most cuts[i-1].
    Larger entries shift up to make room (``_frame``), so base entry v ends at
    v + #{i : cuts[i-1] < v} and the i-th extra entry is cuts[i-1] + i.
    Returns every element's entries, increasing: a pick's base entry is at
    most its cut, so it ends below the extra entries it takes.
    """
    if len(picks) != len(cuts):
        raise InvalidPick("cuts and picks must have equal length")
    blocks = _frame(base, cuts, 1)
    ideal = _ideals(base)[1]
    for i, (cut, p) in enumerate(zip(cuts, picks), start=1):
        x = index.get(p)
        if x is None:
            raise InvalidPick(f"no {noun} {p}")
        if base[x] > cut:
            raise InvalidPick(f"{noun} {p} is outside the ideal of cut {cut}")
        if succs[x] & ideal[cut]:
            raise InvalidPick(f"{noun} {p} is not maximal for cut {cut}")
        blocks[x] += (cut + i,)
    return tuple(blocks)


def _insert_all(
    base: Sequence[int],
    succs: list[int],
    cuts: tuple[int, ...],
    names: Sequence,
    ideals: tuple[tuple[int, ...], tuple[int, ...]] | None = None,
):
    """``_insert`` for every legal pick vector of these cuts at once.

    ``ideals`` is ``_ideals(base)``, built here unless a caller composing
    many cut vectors on one base passes it built once.  Yields (picks,
    blocks), a pick of element x named ``names[x]``: pick i ranges over the
    maximal elements of the ideal of cut i in base-entry order, and the
    vectors come in ``itertools.product`` order.  The frame is built once and
    the vectors grow stage by stage, so each extra entry is added once per
    prefix of picks; the blocks of every vector of these cuts are held at
    once.  Cuts out of 0..n or not weakly increasing raise as in ``_insert``;
    a cut of 0 has an empty ideal, hence no legal pick, so nothing more is
    done.
    """
    frame = _frame(base, cuts, 0)
    if cuts and not cuts[0]:
        return
    order, ideal = ideals or _ideals(base)
    grown = [((), frame)]  # every pick vector of the stages so far, with its blocks
    for i, cut in enumerate(cuts, start=1):
        pool = [x for x in order[:cut] if not succs[x] & ideal[cut]]
        grown = [
            (picks + (names[x],), _with_entry(blocks, x, cut + i))
            for picks, blocks in grown
            for x in pool
        ]
    for picks, blocks in grown:
        yield picks, tuple(blocks)


def _with_entry(blocks: list[tuple[int, ...]], x: int, entry: int) -> list:
    """A copy of ``blocks`` with ``entry`` appended to block x."""
    out = blocks.copy()
    out[x] += (entry,)
    return out


def decompose(t: SetValuedTableau) -> Triple:
    """Strip the k extra entries off a set-valued tableau, largest first.

    A thin adapter over the cut-and-pick codec ``_peel``, which
    ``posets.decompose_extension`` shares: the cells, in row-major order, are
    its elements.  The picks are cells and the base is a standard tableau of
    the same shape.
    """
    cells = t.shape.cells()
    base, cuts, picks = _peel(list(chain.from_iterable(t.rows)))
    out = _repack(t.shape, tuple((v,) for v in base))
    return Triple(out, tuple(cuts), tuple(cells[x] for x in picks))


def compose(tr: Triple) -> SetValuedTableau:
    """Rebuild the set-valued tableau from its triple; inverse of decompose."""
    base = tr.base
    if base.extras != 0:
        raise InvalidPick("base tableau must be standard (no extra entries)")
    index, _preds, succs = _cell_masks(base.shape)
    entries = [e for (e,) in chain.from_iterable(base.rows)]
    return _repack(base.shape, _insert(entries, succs, tr.cuts, tr.picks, index, "cell"))


# ---------------------------------------------------------------------------
# half-turn complement


def rotate_complement(t: SetValuedTableau) -> SetValuedTableau:
    """Rotate a two-row tableau a half turn and complement its entries.

    Exchanges straight shapes (b+1, b) with skew shapes (b+1, b+1)/(1); entry
    v becomes N+1-v where N is the total number of entries.  Applying the map
    twice gives back the original tableau.  The turned cells come out sorted,
    so the image is built from them and the other shape directly.
    """
    shape = t.shape
    w = shape.outer.part(1)
    if w >= 2 and shape == _straight_shape((w, w - 1)):
        image = _notched_shape(w)
    elif w >= 2 and shape == _notched_shape(w):
        image = _straight_shape((w, w - 1))
    else:
        raise ShapeMismatch(
            "expected (b+1,b) or (b+1,b+1)/(1), got "
            f"{tuple(shape.outer)}/{tuple(shape.inner)}"
        )
    total = t.nentries
    rows = tuple(
        tuple(tuple(total + 1 - v for v in reversed(cell)) for cell in reversed(row))
        for row in reversed(t.rows)
    )
    return SetValuedTableau._trusted(image, rows)
