"""Naturally labeled posets, set-valued linear extensions, and weight identities.

A poset here always carries labels 1..n with every cover increasing the label
(a natural labeling).  Set-valued linear extensions generalize linear
extensions by letting each element absorb extra entries.  Both are walks up
the lattice of order ideals, so both come from the walker in ``enumerate``
driven by the poset's cover bitmasks, and the cut-and-pick triple codec is the
one in ``biject``: ``compose_extension`` builds one object from its triple, and
``compose_extensions`` every object of one (extension, cuts) pair at once.
The cut-weight machinery expresses the comajor generating polynomial through
ordinary linear extensions; each quantity is computed one way here, and
``verify`` compares the routes.

The cut rule.  An extension with k weakly increasing cuts in {0..n} is a walk
of n + k steps, each opening an element as ``_Moves`` does or cutting at time
j = |ideal| after c = n + k - 1 - left - j cuts (``left`` steps follow).  In
``vartheta`` an uncut descent is worth (n - j) + (k - c) = left + 1, as in
``_comaj_walk``, and a cut n - j + c = 2(n - j) + k - 1 - left; a cut needs
left >= n - j (the append rule), and one per append weighs it by ddeg(ideal).
Its pass is ``enumerate._q_tally``, the packed pass of every comajor DP.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from functools import cached_property, lru_cache

from .biject import _ideals, _insert, _insert_all, _peel
from .core import (
    EmptyCell,
    InvalidPick,
    NotAPartitionOfRange,
    OrderViolation,
    OutOfRange,
    Partition,
    SvtabError,
)
from .enumerate import (
    _Moves, _cell_masks, _comaj_walk, _q_tally, _walk, as_skew, gen_svsyt
)
from .rings import QPoly
from .stats import descent_set_plus_k

__all__ = [
    "NotNaturallyLabeled",
    "Poset",
    "SetValuedLinearExtension",
    "chain",
    "antichain",
    "young_diagram",
    "relabel",
    "linear_extensions",
    "descent_positions",
    "comaj",
    "sv_linear_extensions",
    "decompose_extension",
    "compose_extension",
    "compose_extensions",
    "pi_perm",
    "vartheta",
    "qbinom",
    "sum_identity_check",
    "expected_ddeg",
    "equidistribution_check",
    "catalog",
]


class NotNaturallyLabeled(SvtabError):
    """Some relation edge decreases the label, so the labeling is not natural."""


@dataclass(frozen=True)
class Poset:
    """Finite poset on labels 1..n given by an edge list of its order relation.

    Edges may include transitively redundant pairs; the true cover relation is
    recovered internally.  Every edge must increase the label, which also
    guarantees acyclicity.
    """

    n: int
    covers: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.n < 0:
            raise OutOfRange(f"need n >= 0, got {self.n}")
        object.__setattr__(self, "covers", tuple((a, b) for a, b in self.covers))
        for a, b in self.covers:
            if not (1 <= a <= self.n and 1 <= b <= self.n):
                raise OutOfRange(f"edge {(a, b)} outside 1..{self.n}")
            if a >= b:
                raise NotNaturallyLabeled(f"edge {(a, b)} does not increase the label")

    @property
    def elements(self) -> range:
        return range(1, self.n + 1)

    @cached_property
    def above(self) -> dict[int, frozenset[int]]:
        """Strictly greater elements, from the transitive closure."""
        succ: dict[int, set[int]] = {x: set() for x in self.elements}
        for a, b in self.covers:
            succ[a].add(b)
        up: dict[int, frozenset[int]] = {}
        for x in range(self.n, 0, -1):
            acc: set[int] = set()
            for y in succ[x]:
                acc.add(y)
                acc |= up[y]
            up[x] = frozenset(acc)
        return up

    @cached_property
    def _cover_masks(self) -> tuple[list[int], list[int]]:
        """Bitmasks of lower and upper covers; bit x-1 stands for element x.

        y covers x when y is above x but above no other element above x.
        """
        preds = [0] * self.n
        succs = [0] * self.n
        for x, ups in self.above.items():
            for y in ups:
                if not any(y in self.above[z] for z in ups):
                    succs[x - 1] |= 1 << (y - 1)
                    preds[y - 1] |= 1 << (x - 1)
        return preds, succs

    @cached_property
    def _cover_pairs(self) -> tuple[tuple[int, int], ...]:
        """Every true cover (x, y), x < y, in label order."""
        succs = self._cover_masks[1]
        return tuple(
            (x, y)
            for x in self.elements
            for y in self.elements
            if succs[x - 1] >> (y - 1) & 1
        )

    @cached_property
    def _index(self) -> dict[int, int]:
        """Element x -> its index x-1 in block lists and bitmasks."""
        return {x: x - 1 for x in self.elements}


def chain(n: int) -> Poset:
    return Poset(n, tuple((i, i + 1) for i in range(1, n)))


def antichain(n: int) -> Poset:
    return Poset(n, ())


def young_diagram(shape) -> Poset:
    """Cells of the diagram ordered componentwise, labeled row-major."""
    index, _preds, succs = _cell_masks(as_skew(shape))
    n = len(index)
    edges = tuple((a + 1, b + 1) for a in range(n) for b in range(n) if succs[a] >> b & 1)
    return Poset(n, edges)


def relabel(poset: Poset, ext: tuple[int, ...]) -> Poset:
    """The order-isomorphic poset in which ext's j-th element gets label j."""
    if tuple(sorted(ext)) != tuple(poset.elements):
        raise InvalidPick(f"{ext} does not list each of 1..{poset.n} once")
    pos = {e: j for j, e in enumerate(ext, start=1)}
    return Poset(poset.n, tuple(sorted((pos[a], pos[b]) for a, b in poset.covers)))


# ---------------------------------------------------------------------------
# linear extensions, plain and set-valued


def linear_extensions(poset: Poset):
    """All linear extensions as label tuples, lexicographically smallest first.

    These are the order-ideal walks with no extra entries.
    """
    preds, succs = poset._cover_masks
    for blocks in _walk(preds, succs, poset.n):
        ext = [0] * poset.n
        for x, (time,) in enumerate(blocks, start=1):
            ext[time - 1] = x
        yield tuple(ext)


def descent_positions(ext: tuple[int, ...]) -> frozenset[int]:
    """Times j whose next element has a smaller label."""
    return frozenset(j for j in range(1, len(ext)) if ext[j] < ext[j - 1])


def comaj(ext: tuple[int, ...]) -> int:
    n = len(ext)
    return sum(n - j for j in descent_positions(ext))


@dataclass(frozen=True)
class SetValuedLinearExtension:
    """Assignment of disjoint nonempty entry sets to poset elements.

    The sets partition 1..n+k and comparable elements get fully separated
    ranges: p < q forces max S(p) < min S(q).
    """

    poset: Poset
    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        blocks = tuple(map(tuple, map(sorted, self.blocks)))
        object.__setattr__(self, "blocks", blocks)
        _check_blocks(self.poset, blocks)

    @classmethod
    def _trusted(cls, poset: Poset, blocks: tuple[tuple[int, ...], ...]):
        """The object of blocks known to be valid, built without checks."""
        s = object.__new__(cls)
        s.__dict__.update(poset=poset, blocks=blocks)
        return s

    @property
    def nentries(self) -> int:
        return sum(len(b) for b in self.blocks)

    @property
    def extras(self) -> int:
        return self.nentries - self.poset.n

    def labeled_blocks(self) -> list[tuple[int, tuple[int, ...]]]:
        return [(x, b) for x, b in enumerate(self.blocks, start=1)]

    def __str__(self) -> str:
        return " ".join(
            f"{x}:{{{','.join(map(str, b))}}}" for x, b in self.labeled_blocks()
        )


def _check_blocks(poset: Poset, blocks: tuple[tuple[int, ...], ...]) -> None:
    """Raise unless the sorted blocks make a set-valued linear extension.

    The checks, in this order: one block per element, no empty block, the
    entries partition 1..n+k, and every cover's blocks are separated.
    """
    if len(blocks) != poset.n:
        raise OutOfRange(f"expected {poset.n} blocks, got {len(blocks)}")
    if not all(blocks):
        x = blocks.index(()) + 1
        raise EmptyCell(f"element {x} received no entries")
    entries = sorted(itertools.chain.from_iterable(blocks))
    if entries != list(range(1, len(entries) + 1)):
        raise NotAPartitionOfRange(f"entries do not partition 1..{len(entries)}")
    # the covers suffice: the order is their transitive closure
    for a, b in poset._cover_pairs:
        if blocks[a - 1][-1] > blocks[b - 1][0]:
            raise OrderViolation(f"block of {a} must finish before block of {b} starts")


def _extension_times(poset: Poset, ext: tuple[int, ...]) -> list[int]:
    """The time of every element in ext (element x at index x-1); raises
    unless ext lists each element once and every cover in order."""
    if sorted(ext) != list(poset.elements):
        raise InvalidPick(f"{ext} is not a linear extension listing")
    time_of = [0] * poset.n
    for j, x in enumerate(ext, start=1):
        time_of[x - 1] = j
    for x, y in poset._cover_pairs:
        if time_of[y - 1] < time_of[x - 1]:
            raise InvalidPick(f"{ext} lists {y} before {x}")
    return time_of


@lru_cache(maxsize=1)
def _extension_frame(poset: Poset, ext: tuple[int, ...]):
    """``_extension_times`` and ``biject._ideals`` of one extension, as
    tuples, kept for its next cut vector: ``verify`` composes every cut
    vector of one extension in a row."""
    time_of = tuple(_extension_times(poset, ext))
    return time_of, _ideals(time_of)


def compose_extension(
    poset: Poset,
    ext: tuple[int, ...],
    cuts: tuple[int, ...],
    picks: tuple[int, ...],
) -> SetValuedLinearExtension:
    """Insert one extra entry per cut into a linear extension.

    Stage i grows the block of picks[i-1] by the entry cuts[i-1]+i, shifting
    larger entries up.  The pick must be a maximal element of the ideal formed
    by the first cuts[i-1] elements of ext.  The codec is ``biject._insert``,
    with element x at index x-1.
    """
    time_of = _extension_times(poset, ext)
    blocks = _insert(
        time_of, poset._cover_masks[1], cuts, picks, poset._index, "element"
    )
    _check_blocks(poset, blocks)  # the blocks are sorted, so not sorted again
    return SetValuedLinearExtension._trusted(poset, blocks)


def compose_extensions(poset: Poset, ext: tuple[int, ...], cuts: tuple[int, ...]):
    """Every object of one (ext, cuts), with its picks: ``compose_extension``
    for every legal pick vector at once.

    Yields (picks, object), pick i ranging over the maximal elements of the
    first cuts[i-1] elements of ext in the order ext lists them, the vectors
    in ``itertools.product`` order.  The extension's check and prefix ideals
    are built once per extension (``_extension_frame``) and the shifted base
    once per cut vector (``biject._insert_all``); every object is still
    checked.  A cut of 0 leaves no legal pick, so nothing is yielded.
    """
    time_of, ideals = _extension_frame(poset, ext)
    trusted = SetValuedLinearExtension._trusted
    succs = poset._cover_masks[1]
    for picks, blocks in _insert_all(time_of, succs, cuts, poset.elements, ideals):
        _check_blocks(poset, blocks)
        yield picks, trusted(poset, blocks)


def decompose_extension(
    s: SetValuedLinearExtension,
) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """Peel the extra entries off, largest non-minimal entry first.

    Returns (ext, cuts, picks) with compose_extension as exact inverse; the
    codec is ``biject._peel``, shared with ``biject.decompose``.
    """
    times, cuts, picks = _peel(s.blocks)
    ext = [0] * s.poset.n
    for x, time in enumerate(times, start=1):
        ext[time - 1] = x
    return tuple(ext), tuple(cuts), tuple(p + 1 for p in picks)


def _maximal_in_prefix(poset: Poset, ext: tuple[int, ...], t: int) -> list[int]:
    succs = poset._cover_masks[1]
    ideal = sum(1 << (x - 1) for x in ext[:t])
    return [x for x in ext[:t] if not succs[x - 1] & ideal]


def sv_linear_extensions(poset: Poset, k: int):
    """All set-valued linear extensions with k extra entries.

    Walks the lattice of order ideals with the walker of ``enumerate``:
    entries 1..n+k are placed in turn, each opening an element whose lower
    covers are open or joining an open element none of whose upper covers is
    open, elements tried in label order.  Every leaf of the walk is a valid
    object by construction (see ``enumerate``), so the objects are built
    without ``SetValuedLinearExtension``'s checks, as ``gen_svsyt`` hands out
    its tableaux; ``verify`` matches every one against a validated object.
    """
    if k < 0:
        raise OutOfRange(f"need k >= 0, got {k}")
    preds, succs = poset._cover_masks
    trusted = SetValuedLinearExtension._trusted
    for blocks in _walk(preds, succs, poset.n + k):
        yield trusted(poset, blocks)


# ---------------------------------------------------------------------------
# cut weights and the identities


def pi_perm(n: int, x_set, t: int) -> int:
    """Position of t under the cut permutation of {0..n} attached to x_set."""
    if not 0 <= t <= n:
        raise OutOfRange(f"need 0 <= t <= {n}, got {t}")
    xs = frozenset(x_set)
    if any(not 0 <= j <= n for j in xs):
        raise OutOfRange(f"need X within 0..{n}, got {sorted(xs)}")
    return sum(1 for j in xs if j < t) + (0 if t in xs else n - t)


def _check_cuts(n: int, cuts: tuple[int, ...]) -> None:
    if any(not 0 <= t <= n for t in cuts) or any(
        cuts[a] > cuts[a + 1] for a in range(len(cuts) - 1)
    ):
        raise OutOfRange(f"cuts must weakly increase within 0..{n}: {cuts}")


def vartheta(ext: tuple[int, ...], cuts: tuple[int, ...]) -> QPoly:
    """Cut weight of a linear extension: q to the shared set-valued comajor
    index of every extension compatible with these cuts.

    Inserting the extras puts entry t_i+i in the block of the i-th pick and
    pushes the base entry of time j up to j + #{i: t_i < j}; a descent of the
    extension at time j survives exactly when no cut equals j.  Summing the
    resulting comajor contributions gives the closed form used here, which is
    independent of the picks.
    """
    n = len(ext)
    k = len(cuts)
    _check_cuts(n, cuts)
    des = descent_positions(ext)
    cut_set = set(cuts)
    exp = k * (k - 1) // 2 + sum(n - t for t in cuts)
    for j in des:
        if j not in cut_set:
            exp += (n - j) + sum(1 for t in cuts if t > j)
    return QPoly.monomial(exp)


def qbinom(a: int, b: int) -> QPoly:
    """Gaussian binomial coefficient [a over b]_q, row by row by the q-Pascal
    rule [m, j] = [m - 1, j - 1] + q^j [m - 1, j]: no division."""
    if not 0 <= b <= a:
        raise OutOfRange(f"need 0 <= b <= a, got {(a, b)}")
    row = [QPoly.one()] + [QPoly.zero()] * b  # [m, j] for j <= b, from m = 0
    for m in range(1, a + 1):
        for j in range(min(m, b), 0, -1):
            row[j] = row[j - 1] + QPoly.monomial(j) * row[j]
    return row[b]


def _cut_weight_sum(poset: Poset, k: int, picks: bool) -> QPoly:
    """The cut rule's pass (module docstring), one cut move per pick if ``picks``
    else one; no walk dead-ends, as a nonempty full ideal has a maximal element."""
    if k < 0:
        raise OutOfRange(f"need k >= 0, got {k}")
    moves = _Moves(*poset._cover_masks)

    def step(state: tuple[int, int], left: int):
        ideal, last = state
        unopened, every, opens = moves[ideal]
        for i, up in opens:
            yield left + 1 if i < last else 0, (up, i)
        if left >= unopened:  # the append rule; with picks, a cut per append
            cuts = len(every) - len(opens) if picks else 1
            yield from [(2 * unopened + k - 1 - left, (ideal, -1))] * cuts

    return _q_tally((0, -1), step, poset.n + k, lambda _state: 0).get(0, QPoly.zero())


def sum_identity_check(poset: Poset, k: int) -> tuple[QPoly, QPoly]:
    """Total cut weight and its closed form, returned for the caller to compare.

    Summing vartheta over all linear extensions and all weakly increasing cut
    vectors in {0..n} (the cut rule, module docstring) equals q^(k choose 2)
    times the Gaussian binomial [n+k over k] times the plain comajor
    polynomial, which is the k = 0 comajor DP (``enumerate._comaj_walk``).
    """
    lhs = _cut_weight_sum(poset, k, False)
    n = poset.n
    rhs = (
        QPoly.monomial(k * (k - 1) // 2)
        * qbinom(n + k, k)
        * _comaj_walk(*poset._cover_masks, n)
    )
    return lhs, rhs


def expected_ddeg(poset: Poset, k: int) -> tuple[QPoly, QPoly]:
    """Numerator and denominator of the expected ideal-degree product.

    The expectation of prod ddeg(I_j) under the cut-weight distribution, on
    the multichain side by the cut rule (module docstring): the denominator is
    the total cut weight, and the numerator, each cut weighed by its ideal's
    degree, is the comajor tally of the set-valued extensions with k extras.
    """
    return _cut_weight_sum(poset, k, True), _cut_weight_sum(poset, k, False)


def equidistribution_check(shape, k: int):
    """Compare descent-set count tables of a shape and its conjugate.

    Returns (equal, table, conjugate_table) where each table maps a descent
    set to how many k-extra tableaux of that shape produce it.
    """
    p = shape if isinstance(shape, Partition) else Partition(tuple(shape))
    conj = p.conjugate()

    def table(sh: Partition) -> dict[frozenset[int], int]:
        out: Counter = Counter()
        for t in gen_svsyt(sh.parts, k):
            out[descent_set_plus_k(t)] += 1
        return dict(out)

    t1, t2 = table(p), table(conj)
    return t1 == t2, t1, t2


# ---------------------------------------------------------------------------
# deterministic test catalog


def _partitions(n: int):
    def rec(rest: int, cap: int, acc: tuple[int, ...]):
        if rest == 0:
            yield acc
            return
        for part in range(min(cap, rest), 0, -1):
            yield from rec(rest - part, part, acc + (part,))

    yield from rec(n, n, ())


def _column_major_extension(shape: Partition) -> tuple[int, ...]:
    index = _cell_masks(as_skew(shape))[0]
    return tuple(index[rc] + 1 for rc in sorted(index, key=lambda rc: (rc[1], rc[0])))


def catalog() -> list[tuple[str, Poset]]:
    """Fixed, deterministic poset list used by the identity sweeps."""
    out: list[tuple[str, Poset]] = []
    for n in range(1, 7):
        out.append((f"chain{n}", chain(n)))
    for n in range(1, 6):
        out.append((f"antichain{n}", antichain(n)))
    for n in range(1, 7):
        for parts in _partitions(n):
            name = "young-" + "-".join(map(str, parts))
            out.append((name, young_diagram(parts)))
    for parts in ((2, 2), (3, 1), (2, 1, 1), (3, 2, 1)):
        shape = Partition(parts)
        ext = _column_major_extension(shape)
        name = "young-" + "-".join(map(str, parts)) + "-colmajor"
        out.append((name, relabel(young_diagram(shape), ext)))
    out.append(("vee", Poset(3, ((1, 2), (1, 3)))))
    out.append(("wedge", Poset(3, ((1, 3), (2, 3)))))
    return out
