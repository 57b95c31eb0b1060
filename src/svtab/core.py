"""Exact domain types: shapes, set-valued tableaux, permutations, colored paths.

Conventions used throughout the package:

* Cells are addressed by 1-indexed (row, col) matrix coordinates.
* A set-valued tableau stores, for every cell of a (possibly skew) shape, a
  nonempty sorted tuple of positive integers; the cell sets partition
  {1..n+k} where n is the number of cells and k the number of extra entries.
* The order condition: whenever cell u lies weakly northwest of cell v
  (u != v), every entry of u is smaller than every entry of v.
* A ``SetValuedTableau`` is checked once, when it is made: the dataclass,
  ``from_rows`` and ``from_json_dict`` run ``validate_svsyt``, so every
  tableau is valid and the maps that take one do not check it again.  Code
  that builds a tableau valid by its construction uses ``_trusted``.
* Path words use the four-letter step alphabet U (up), D (down), u (level,
  first color), d (level, second color); heights never go negative.
* ``PATH_RULES`` is the one family table of the colored paths: each family's
  restrictions and whether it ends at height 0.  A path's one scan, when it
  is made, records the traits that ``path_family`` looks up.
* All types are immutable and hashable, safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, product
from typing import Iterator, Sequence

__all__ = [
    "SvtabError",
    "InvalidShape",
    "EmptyCell",
    "NotAPartitionOfRange",
    "OrderViolation",
    "NegativeHeight",
    "Not321Avoiding",
    "NotAPermutation",
    "ShapeNotTwoRowRectangular",
    "NotInFamily",
    "InvalidPick",
    "OutOfRange",
    "Partition",
    "SkewShape",
    "SetValuedTableau",
    "validate_svsyt",
    "Permutation",
    "ColoredPath",
    "PATH_RULES",
    "PATH_FAMILIES",
    "path_family",
]


class SvtabError(ValueError):
    """Base for all domain validation errors."""


class InvalidShape(SvtabError):
    pass


class EmptyCell(SvtabError):
    pass


class NotAPartitionOfRange(SvtabError):
    pass


class OrderViolation(SvtabError):
    pass


class NegativeHeight(SvtabError):
    pass


class Not321Avoiding(SvtabError):
    pass


class NotAPermutation(SvtabError):
    pass


class ShapeNotTwoRowRectangular(SvtabError):
    pass


class NotInFamily(SvtabError):
    pass


class NotInMotzET(NotInFamily):
    pass


class NotInMotzT(NotInFamily):
    pass


class ShapeMismatch(SvtabError):
    pass


class InconsistentType(SvtabError):
    pass


class InvalidPick(SvtabError):
    pass


class OutOfRange(SvtabError):
    pass


@dataclass(frozen=True)
class Partition:
    """Weakly decreasing tuple of positive parts; () is the empty partition."""

    parts: tuple[int, ...] = ()

    def __post_init__(self):
        ps = tuple(self.parts)
        object.__setattr__(self, "parts", ps)
        if ps and min(ps) <= 0:
            raise InvalidShape(f"parts must be positive: {ps}")
        if list(ps) != sorted(ps, reverse=True):
            raise InvalidShape(f"parts must weakly decrease: {ps}")

    @property
    def size(self) -> int:
        return sum(self.parts)

    @property
    def nrows(self) -> int:
        return len(self.parts)

    def part(self, r: int) -> int:
        """Length of row r (1-indexed), 0 beyond the last row."""
        return self.parts[r - 1] if 1 <= r <= len(self.parts) else 0

    def conjugate(self) -> "Partition":
        if not self.parts:
            return Partition()
        return Partition(
            tuple(
                sum(1 for p in self.parts if p >= c) for c in range(1, self.parts[0] + 1)
            )
        )

    def __iter__(self) -> Iterator[int]:
        return iter(self.parts)

    def __len__(self) -> int:
        return len(self.parts)


@dataclass(frozen=True)
class SkewShape:
    """Skew diagram outer/inner; inner may be empty for a straight shape."""

    outer: Partition
    inner: Partition = Partition()

    def __post_init__(self):
        if len(self.inner) > len(self.outer):
            raise InvalidShape("inner partition has more rows than outer")
        if any(i > o for i, o in zip(self.inner.parts, self.outer.parts)):
            raise InvalidShape("inner partition not contained in outer")

    @property
    def is_straight(self) -> bool:
        return not self.inner.parts

    @property
    def ncells(self) -> int:
        return self.outer.size - self.inner.size

    def row_span(self, r: int) -> range:
        """Columns of the cells present in row r (1-indexed)."""
        return range(self.inner.part(r) + 1, self.outer.part(r) + 1)

    def cells(self) -> list[tuple[int, int]]:
        return [
            (r, c)
            for r in range(1, self.outer.nrows + 1)
            for c in self.row_span(r)
        ]

    def contains(self, r: int, c: int) -> bool:
        return self.inner.part(r) < c <= self.outer.part(r)


def _as_partition(p) -> Partition:
    if isinstance(p, Partition):
        return p
    return Partition(tuple(p))


def _json_ints(values) -> tuple[int, ...]:
    """``values`` as a tuple of ints; TypeError for any other item, a bool or a
    float too, so JSON input is never rounded or coerced."""
    got = tuple(values)
    if any(type(v) is not int for v in got):
        raise TypeError(f"expected integers, got {list(got)!r}")
    return got


@dataclass(frozen=True)
class SetValuedTableau:
    """Set-valued filling of a (skew) shape; cell sets are sorted int tuples.

    Construction stores the rows as nested tuples, as given (cells are not
    sorted), and runs ``validate_svsyt``, so an invalid filling never becomes
    a tableau; only ``_trusted`` skips the check.
    """

    shape: SkewShape
    rows: tuple[tuple[tuple[int, ...], ...], ...]

    def __post_init__(self):
        object.__setattr__(
            self, "rows", tuple(tuple(map(tuple, row)) for row in self.rows)
        )
        validate_svsyt(self)

    @classmethod
    def _trusted(cls, shape: SkewShape, rows: tuple[tuple[tuple[int, ...], ...], ...]):
        """The tableau of rows known to be valid, built without checks."""
        t = object.__new__(cls)
        t.__dict__.update(shape=shape, rows=rows)
        return t

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[Sequence[int]]], inner=()) -> "SetValuedTableau":
        inner_p = _as_partition(inner)
        offs = inner_p.parts + (0,) * len(rows)
        outer = Partition(tuple(off + len(row) for off, row in zip(offs, rows)))
        shape = SkewShape(outer, inner_p)
        return cls(shape, [[sorted(cell) for cell in row] for row in rows])

    def cell(self, r: int, c: int) -> tuple[int, ...]:
        if not self.shape.contains(r, c):
            raise InvalidShape(f"no cell at {(r, c)}")
        return self.rows[r - 1][c - 1 - self.shape.inner.part(r)]

    def cells(self) -> Iterator[tuple[tuple[int, int], tuple[int, ...]]]:
        """Yield ((r, c), entries) in row-major order."""
        inner = self.shape.inner.parts
        for r, row in enumerate(self.rows, start=1):
            off = inner[r - 1] if r <= len(inner) else 0
            for c, entries in enumerate(row, start=off + 1):
                yield (r, c), entries

    @property
    def ncells(self) -> int:
        return self.shape.ncells

    @property
    def nentries(self) -> int:
        return sum(map(len, chain.from_iterable(self.rows)))

    @property
    def extras(self) -> int:
        """k, the number of non-minimal entries."""
        return self.nentries - self.ncells

    def to_json_dict(self) -> dict:
        return {
            "outer": list(self.shape.outer.parts),
            "inner": list(self.shape.inner.parts),
            "rows": [[list(cell) for cell in row] for row in self.rows],
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "SetValuedTableau":
        rows = [[_json_ints(cell) for cell in row] for row in d["rows"]]
        t = cls.from_rows(rows, inner=_json_ints(d.get("inner", ())))
        if t.shape.outer.parts != _json_ints(d["outer"]):
            raise InvalidShape(
                f"declared outer {d['outer']} != row lengths {t.shape.outer.parts}"
            )
        return t

    def __str__(self) -> str:
        return " / ".join(
            " ".join("{" + ",".join(map(str, cell)) + "}" for cell in row)
            for row in self.rows
        )


def validate_svsyt(t: SetValuedTableau) -> int:
    """Full validation in one pass over the rows; returns k (number of extra entries).

    Checks: the rows match the shape (their number and each one's length),
    nonempty cells, entries partition {1..n+k}, and the weak-northwest order
    condition.  Right- and down-neighbor checks suffice: any weakly northwest
    pair is connected by a staircase of such neighbor steps inside the
    diagram, and max(cell) < min(next cell) chains transitively.  The cell
    checks come first in row-major order, then the partition check, then the
    order checks in row-major order (right neighbor before down neighbor).
    """
    shape = t.shape
    ncells = shape.ncells
    if ncells == 0:
        raise InvalidShape("empty shape")
    rows = t.rows
    outer = shape.outer.parts
    if len(rows) != len(outer):
        raise InvalidShape(f"{len(rows)} rows for a shape of {len(outer)} rows")
    offs = shape.inner.parts + (0,) * (len(outer) - len(shape.inner))
    seen: list[int] = []
    for r, (row, off, end) in enumerate(zip(rows, offs, outer), start=1):
        if len(row) != end - off:
            raise InvalidShape(
                f"row {r} has {len(row)} cells where the shape has {end - off}"
            )
        for c, entries in enumerate(row, start=off + 1):
            if len(entries) != 1:
                if not entries:
                    raise EmptyCell(f"cell {(r, c)} is empty")
                if list(entries) != sorted(set(entries)):
                    raise NotAPartitionOfRange(
                        f"cell {(r, c)} entries not strictly sorted: {entries}"
                    )
        seen.extend(chain.from_iterable(row))
    m = len(seen)
    if sorted(seen) != list(range(1, m + 1)):
        raise NotAPartitionOfRange(
            f"entries do not partition 1..{m}: {sorted(seen)}"
        )
    for r, (row, off) in enumerate(zip(rows, offs), start=1):
        below, boff = (rows[r], offs[r]) if r < len(rows) else ((), 0)
        end, bend = off + len(row), boff + len(below)
        for c, entries in enumerate(row, start=off + 1):
            top = entries[-1]
            if c < end and top >= row[c - off][0]:
                raise OrderViolation(
                    f"max{entries} at {(r, c)} not below"
                    f" min{row[c - off]} at {(r, c + 1)}"
                )
            if boff < c <= bend and top >= below[c - 1 - boff][0]:
                raise OrderViolation(
                    f"max{entries} at {(r, c)} not below"
                    f" min{below[c - 1 - boff]} at {(r + 1, c)}"
                )
    return m - ncells


@dataclass(frozen=True)
class Permutation:
    """Permutation of {1..m} in one-line notation."""

    word: tuple[int, ...]

    def __post_init__(self):
        w = tuple(self.word)
        object.__setattr__(self, "word", w)
        if sorted(w) != list(range(1, len(w) + 1)):
            raise NotAPermutation(f"not a rearrangement of 1..{len(w)}: {w}")

    @classmethod
    def from_text(cls, text: str) -> "Permutation":
        return cls(tuple(int(x) for x in text.split()))

    def to_text(self) -> str:
        return " ".join(map(str, self.word))

    def __len__(self) -> int:
        return len(self.word)

    def __iter__(self) -> Iterator[int]:
        return iter(self.word)

    def is_321_avoiding(self) -> bool:
        # scan left to right; m2 = largest value seen that has something
        # bigger before it — any later smaller value completes a 321.
        m2 = 0
        big = 0
        for v in self.word:
            if v < m2:
                return False
            if v < big:
                m2 = max(m2, v)
            big = max(big, v)
        return True


# family -> (restriction 1, restriction 2, ends at height 0).  Restriction (1)
# forbids a u step at height 0, and restriction (2) a d step with no D anywhere
# before it.
PATH_RULES = {
    "motz": (False, False, True),
    "motzE": (True, False, True),
    "motzT": (False, True, True),
    "motzET": (True, True, True),
    "ballotlike": (True, True, False),
}
PATH_FAMILIES = tuple(PATH_RULES)

# (r1 holds, r2 holds, ends at 0) -> the families of a path with those traits
_PATH_TAGS = {
    traits: frozenset(
        family
        for family, needs in PATH_RULES.items()
        if all(has or not need for has, need in zip(traits, needs))
    )
    for traits in product((False, True), repeat=3)
}


@dataclass(frozen=True)
class ColoredPath:
    """Bicolored Motzkin-style step word; construction rejects negative heights
    and records the traits (r1 holds, r2 holds, ends at 0) of ``_PATH_TAGS``."""

    word: str

    def __post_init__(self):
        h = 0
        r1 = r2 = True
        seen_D = False
        for i, ch in enumerate(self.word):
            if ch == "U":
                h += 1
            elif ch == "D":
                if not h:
                    raise NegativeHeight(f"height dips below 0 at position {i + 1}")
                h -= 1
                seen_D = True
            elif ch == "u":
                r1 = r1 and h > 0
            elif ch == "d":
                r2 = r2 and seen_D
            else:
                raise NotInFamily(f"bad step {ch!r} at position {i + 1}")
        object.__setattr__(self, "_traits", (r1, r2, h == 0))

    def __len__(self) -> int:
        return len(self.word)

    def heights(self) -> tuple[int, ...]:
        """Height after each step (length = len(word))."""
        out = []
        h = 0
        for ch in self.word:
            if ch == "U":
                h += 1
            elif ch == "D":
                h -= 1
            out.append(h)
        return tuple(out)

    @property
    def final_height(self) -> int:
        return self.word.count("U") - self.word.count("D")


def path_family(p: ColoredPath) -> frozenset[str]:
    """Family tags of a path, from the traits its construction recorded."""
    return _PATH_TAGS[p._traits]
