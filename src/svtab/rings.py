"""Exact polynomial and truncated power-series arithmetic.

Everything here is integer-exact: no floats, and a division that leaves a
remainder, or divides by zero, raises ``InexactDivision`` (an ``SvtabError``).
QPoly, MultiPoly and TSeries share one base, ``_Ring``: each class states its
own ``+``, unary ``-``, ``*`` and ``_of_int`` (an int as an element of that
ring), and the base derives subtraction and the reflected operators from
them, so an int on either side is coerced through ``_of_int``.  TSeries is
generic over the coefficient rings QPoly and MultiPoly, which also give
``zero()``/``one()``/``from_int()`` classmethods, ``divexact_int`` and
``_dot(pairs)``, the sum of a*b over (a, b) pairs: each coefficient of a TSeries
product, inverse or square root is one ``_dot``; one helper, ``square_pairs``,
pairs each cross product of a square once (``s * s``, ``sqrt``, ``solve_E``).
MultiPoly's ``_dot``, its ``*`` too, is the one product kernel, but for a
one-term operand, which shifts the other's packed keys.  A term's key
is one int, the exponents of U, D, u, d in 32-bit fields (eU most significant);
exponents >= 2**31 in a product operand raise ``OutOfRange``.  The kernel is a
Kronecker substitution: within each group of terms that share eU, eD and
eu + ed, every run of consecutive u-exponents is one int with a coefficient in
each W-bit slot (a slice), so one big-int multiply of two slices convolves the
runs, and the slot sums are read back in balanced digits.  W, a multiple of 64,
bounds every output coefficient, and each MultiPoly caches its slices per W.
"""

from __future__ import annotations

from functools import partial, reduce
from operator import or_
from types import MappingProxyType
from typing import Iterable, Mapping

from .core import OutOfRange, SvtabError


class InexactDivision(SvtabError, ArithmeticError):
    """An exact division left a remainder, or a series lacks the unit constant term."""


class TruncationMismatch(SvtabError):
    """Two power series truncated at different orders were combined."""


def _divisor(d: int) -> None:
    if not d:
        raise InexactDivision(f"cannot divide exactly by the divisor {d}")


def square_pairs(a: list, twice: list, m: int, start: int = 0) -> list:
    """Pairs whose ``_dot`` is [t^m](Σ a_j·t^j)² less its terms with j or m - j < start:
    (a_j, twice[m-j] = 2·a_(m-j)) for j < m/2, then (a_(m/2), a_(m/2)) for even m."""
    middle = [(a[m // 2], a[m // 2])] if m % 2 == 0 else []
    return [*zip(a[start : (m + 1) // 2], twice[m - start :: -1]), *middle]


class _Ring:
    """Subtraction and the reflected operators, from ``+``, unary ``-``, ``*``
    and ``_of_int`` of the subclass."""

    __slots__ = ()  # empty, so the subclasses' instances keep no __dict__

    def _coerce(self, other):
        return self._of_int(other) if isinstance(other, int) else other

    def __radd__(self, other: int):
        return self + other

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other: int):
        return self._of_int(other) - self

    def __rmul__(self, other: int):
        return self * other

    @classmethod
    def _dot(cls, pairs: Iterable[tuple]):
        return sum((a * b for a, b in pairs), cls.zero())


class QPoly(_Ring):
    """Univariate polynomial in q with int coefficients, immutable."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def zero(cls) -> "QPoly":
        return cls()

    @classmethod
    def one(cls) -> "QPoly":
        return cls((1,))

    @classmethod
    def from_int(cls, c: int) -> "QPoly":
        return cls((c,))

    _of_int = from_int

    @classmethod
    def monomial(cls, exp: int, c: int = 1) -> "QPoly":
        return cls((0,) * exp + (c,))

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other: object) -> bool:
        other = self._coerce(other)
        return isinstance(other, QPoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs if len(self.coeffs) > 1 else self(0))

    def __add__(self, other: "QPoly | int") -> "QPoly":
        a, b = self.coeffs, self._coerce(other).coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return QPoly(out)

    def __neg__(self) -> "QPoly":
        return QPoly(tuple(-c for c in self.coeffs))

    def __mul__(self, other: "QPoly | int") -> "QPoly":
        if isinstance(other, int):
            return QPoly(tuple(c * other for c in self.coeffs))
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return QPoly()
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return QPoly(out)

    def divexact_int(self, d: int) -> "QPoly":
        _divisor(d)
        for c in self.coeffs:
            if c % d:
                raise InexactDivision(f"{c} not divisible by {d}")
        return QPoly(tuple(c // d for c in self.coeffs))

    def __call__(self, q: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * q + c
        return acc

    def coeff(self, exp: int) -> int:
        return self.coeffs[exp] if 0 <= exp < len(self.coeffs) else 0

    def __repr__(self) -> str:
        return f"QPoly({list(self.coeffs)})"

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for e in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[e]
            if not c:
                continue
            if e == 0:
                parts.append(f"{c}")
            else:
                var = "q" if e == 1 else f"q^{e}"
                parts.append(var if c == 1 else f"{c}*{var}")
        return " + ".join(parts)


MARKERS = ("U", "D", "u", "d")
_MASK = 0xFFFFFFFF
_HIGH = 0x80000000_80000000_80000000_80000000  # bit 31 of every field
_NEXT_SLOT = (1 << 32) - 1  # along a run of slots, eu goes up by one and ed down
_BORROWS = 1 << 32 | 1 << 64 | 1 << 96  # the lowest bit of each field but the last


def _pack(exp: tuple[int, int, int, int]) -> int:
    if not (isinstance(exp, tuple) and len(exp) == 4 and all(0 <= e < 1 << 31 for e in exp)):
        raise OutOfRange(f"a MultiPoly key is 4 exponents in [0, 2**31), got {exp!r}")
    return exp[0] << 96 | exp[1] << 64 | exp[2] << 32 | exp[3]


def _exponents(k: int) -> tuple[int, int, int, int]:
    return k >> 96, k >> 64 & _MASK, k >> 32 & _MASK, k & _MASK


def _run_order(k: int) -> int:
    """The sort key of a packed key by its group (eU, eD, eu + ed < 2**32), then eu."""
    return k >> 64 << 64 | ((k >> 32 & _MASK) + (k & _MASK)) << 32 | k >> 32 & _MASK


class MultiPoly(_Ring):
    """Polynomial in the four step markers U, D, u, d with int coefficients.

    Keys are exponent 4-tuples (eU, eD, eu, ed), held packed; zero coefficients
    are never stored.  Treated as immutable: all ops return fresh instances.
    """

    __slots__ = ("_terms", "_slices")

    def __init__(self, terms: dict[tuple[int, int, int, int], int] | None = None):
        terms = terms or {}
        self._terms = {k: v for k, v in zip(map(_pack, terms), terms.values()) if v}
        self._slices = None

    @classmethod
    def _packed(cls, terms: dict[int, int]) -> "MultiPoly":  # keeps the dict
        out = cls.__new__(cls)
        out._terms = {k: v for k, v in terms.items() if v} if 0 in terms.values() else terms
        out._slices = None
        return out

    @property
    def terms(self) -> Mapping[tuple[int, int, int, int], int]:
        return MappingProxyType(dict(zip(map(_exponents, self._terms), self._terms.values())))

    @classmethod
    def zero(cls) -> "MultiPoly":
        return cls()

    @classmethod
    def one(cls) -> "MultiPoly":
        return cls({(0, 0, 0, 0): 1})

    @classmethod
    def from_int(cls, c: int) -> "MultiPoly":
        return cls({(0, 0, 0, 0): c})

    _of_int = from_int

    @classmethod
    def gen(cls, marker: str) -> "MultiPoly":
        exp = [0, 0, 0, 0]
        exp[MARKERS.index(marker)] = 1
        return cls({tuple(exp): 1})

    @classmethod
    def from_word(cls, word: str) -> "MultiPoly":
        """Monomial recording the step multiset of a path word."""
        exp = [0, 0, 0, 0]
        for ch in word:
            exp[MARKERS.index(ch)] += 1
        return cls({tuple(exp): 1})

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        other = self._coerce(other)
        return isinstance(other, MultiPoly) and self._terms == other._terms

    def __hash__(self) -> int:
        t = self._terms
        return hash(frozenset(t.items()) if t.keys() - {0} else t.get(0, 0))

    def __add__(self, other: "MultiPoly | int") -> "MultiPoly":
        out = dict(self._terms)
        for k, v in self._coerce(other)._terms.items():
            out[k] = out.get(k, 0) + v
        return MultiPoly._packed(out)

    def __neg__(self) -> "MultiPoly":
        return MultiPoly._packed({k: -v for k, v in self._terms.items()})

    def __mul__(self, other: "MultiPoly | int") -> "MultiPoly":
        if isinstance(other, int):
            return MultiPoly._packed({k: v * other for k, v in self._terms.items()})
        a, m = (other, self) if len(self._terms) == 1 else (self, other)
        if len(m._terms) != 1:
            return MultiPoly._dot(((a, m),))
        a._cache(), m._cache()  # the operands' exponent check
        (km, cm), = m._terms.items()  # a monomial shifts each key; no field carries
        return MultiPoly._packed({k + km: v * cm for k, v in a._terms.items()})

    def _cache(self) -> tuple[int, dict[int, list[tuple[int, int]]]]:
        """(‖self‖₁, the sum of |c|; the slices made so far, by width), made
        when self is first a product operand, whose exponents are checked then."""
        if self._slices is None:
            if reduce(or_, self._terms, 0) & _HIGH:
                raise OutOfRange("a MultiPoly product operand has an exponent >= 2**31")
            self._slices = (sum(map(abs, self._terms.values())), {})
        return self._slices

    def _slices_at(self, width: int) -> list[tuple[int, int]]:
        """(key of the first term, Σ c·2**(width·(eu - first eu))) for each run
        of consecutive u-exponents in a group of equal (eU, eD, eu + ed); cached."""
        by_width = self._cache()[1]
        slices = by_width.get(width)
        if slices is None:
            runs: list[tuple[int, list[int]]] = []
            last = -2
            for order, k, c in sorted((_run_order(k), k, v) for k, v in self._terms.items()):
                if order == last + 1:
                    runs[-1][1].append(c)
                else:
                    runs.append((k, [c]))
                last = order
            slices = by_width[width] = [
                (k, reduce(lambda x, c: (x << width) + c, reversed(cs[:-1]), cs[-1]))
                for k, cs in runs
            ]
        return slices

    @classmethod
    def _dot(cls, pairs: Iterable[tuple["MultiPoly", "MultiPoly"]]) -> "MultiPoly":
        """Sum of a*b over the (a, b) pairs, one big-int multiply per pair of
        slices, summed under the key of the product's first term (its group
        and first eu, as no field carries).  No slot overflows: W is the least
        multiple of 64 with 2**(W-1) > Σ‖a‖₁·‖b‖₁, which bounds every
        coefficient of every partial sum."""
        pairs = list(pairs)
        bound = sum([a._cache()[0] * b._cache()[0] for a, b in pairs])
        width = (bound.bit_length() // 64 + 1) * 64
        acc: dict[int, int] = {}
        get = acc.get
        for a, b in pairs:
            sb = b._slices_at(width)
            for ka, xa in a._slices_at(width):
                for kb, xb in sb:
                    k = ka + kb
                    acc[k] = get(k, 0) + xa * xb
        out: dict[int, int] = {}
        get = out.get
        half, mask = 1 << width - 1, (1 << width) - 1
        for key, x in acc.items():
            if -half < x < half:  # one slot
                out[key] = get(key, 0) + x
                continue
            while x:
                c = (x + half & mask) - half
                if c:
                    out[key] = get(key, 0) + c
                x = x - c >> width
                key += _NEXT_SLOT
        return cls._packed(out)

    def divexact_int(self, d: int) -> "MultiPoly":
        _divisor(d)
        out = {}
        for k, v in self._terms.items():
            if v % d:
                raise InexactDivision(f"{v} not divisible by {d}")
            out[k] = v // d
        return MultiPoly._packed(out)

    def divexact_monomial(self, c: int, exp: tuple[int, int, int, int]) -> "MultiPoly":
        """The quotient by c times the monomial: each packed key less the
        monomial's, where no field borrows (bit 32·i of k - m is then that of
        k ^ m, and k - m >= 0)."""
        _divisor(c)
        m = _pack(exp)
        out = {}
        for k, v in self._terms.items():
            nk = k - m
            if nk < 0 or (nk ^ k ^ m) & _BORROWS or v % c:
                raise InexactDivision(f"term {_exponents(k)}:{v} not divisible by {c}*{exp}")
            out[nk] = v // c
        return MultiPoly._packed(out)

    def divexact_d_minus_u(self) -> "MultiPoly":
        """The quotient by d - u.  In a group of equal eU, eD and eu + ed = s,
        the coefficient p_j of u^j·d^(s-j) is q_j - q_(j-1), where q_j is the
        quotient's at u^j·d^(s-1-j) (the key less 1), so q_j = p_0 + ... + p_j,
        the running sum along eu, and q_s, the group's sum, must vanish."""
        out: dict[int, int] = {}
        group = acc = last = 0
        for order, k, c in sorted((_run_order(k), k, v) for k, v in self._terms.items()):
            if order >> 32 != group:
                if acc:
                    break
                group = order >> 32
            elif acc:  # the quotient's run goes on through the gap since the last term
                for gap in range(last + _NEXT_SLOT, k, _NEXT_SLOT):
                    out[gap - 1] = acc
            acc += c
            if acc:
                out[k - 1] = acc
            last = k
        if acc:
            raise InexactDivision(f"{self} not divisible by d - u")
        return MultiPoly._packed(out)

    def at_ones(self) -> int:
        """Specialize every marker to 1."""
        return sum(self._terms.values())

    def weighted_exponent_sum(self, marker: str) -> int:
        """Sum of coeff * exponent-of-marker over all terms (= d/dX at all ones)."""
        shift = 32 * (3 - MARKERS.index(marker))
        return sum(v * (k >> shift & _MASK) for k, v in self._terms.items())

    def swap(self, a: str, b: str) -> "MultiPoly":
        """The markers a and b exchanged: their two 32-bit key fields swapped."""
        si, sj = (32 * (3 - MARKERS.index(m)) for m in (a, b))
        keep = ~(_MASK << si | _MASK << sj)
        return MultiPoly._packed({
            k & keep | (k >> si & _MASK) << sj | (k >> sj & _MASK) << si: v
            for k, v in self._terms.items()
        })

    def sorted_terms(self) -> list[tuple[tuple[int, int, int, int], int]]:
        return sorted(self.terms.items())

    def __repr__(self) -> str:
        return f"MultiPoly({dict(self.sorted_terms())})"

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for k, v in self.sorted_terms():
            mono = "*".join(
                f"{m}^{e}" if e > 1 else m for m, e in zip(MARKERS, k) if e
            )
            if not mono:
                parts.append(str(v))
            elif v == 1:
                parts.append(mono)
            else:
                parts.append(f"{v}*{mono}")
        return " + ".join(parts)


class TSeries(_Ring):
    """Power series in t truncated at order N, coefficients in QPoly or MultiPoly.

    ``coeffs[n]`` is the coefficient of t^n; the list always has length N+1.
    Divisions require unit constant terms (or exact monomial/int division) and
    raise InexactDivision otherwise, so any conventions slip surfaces loudly.
    """

    __slots__ = ("ring", "order", "coeffs")

    def __init__(self, ring, order: int, coeffs: Iterable = ()):
        self.ring = ring
        self.order = order
        cs = [self._lift(c) for c in coeffs][: order + 1]
        cs += [ring.zero()] * (order + 1 - len(cs))
        self.coeffs = cs

    def _lift(self, c):
        return self.ring.from_int(c) if isinstance(c, int) else c

    @classmethod
    def const(cls, ring, order: int, c) -> "TSeries":
        return cls(ring, order, [c])

    def _of_int(self, c: int) -> "TSeries":
        return TSeries.const(self.ring, self.order, c)

    def coeff(self, n: int):
        if not 0 <= n <= self.order:
            raise OutOfRange(f"coefficient t^{n} beyond truncation {self.order}")
        return self.coeffs[n]

    def _same_order(self, other: "TSeries") -> None:
        if self.order != other.order:
            raise TruncationMismatch(f"orders differ: {self.order} != {other.order}")

    def __bool__(self) -> bool:
        return any(self.coeffs)

    def __eq__(self, other: object) -> bool:
        other = self._coerce(other)
        if not isinstance(other, TSeries):
            return NotImplemented
        self._same_order(other)
        return self.coeffs == other.coeffs

    def __add__(self, other: "TSeries | int"):
        other = self._coerce(other)
        self._same_order(other)
        return TSeries(
            self.ring, self.order, [a + b for a, b in zip(self.coeffs, other.coeffs)]
        )

    def __neg__(self) -> "TSeries":
        return TSeries(self.ring, self.order, [-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, TSeries):
            self._same_order(other)
            a, b, dot = self.coeffs, other.coeffs, self.ring._dot
            if other is self:  # a square: each cross product once, as CPython squares a long
                pairs = partial(square_pairs, a, [c * 2 for c in a])
                return TSeries(self.ring, self.order, [dot(pairs(m)) for m in range(len(a))])
            return TSeries(self.ring, self.order, [dot(zip(a, b[m::-1])) for m in range(len(a))])
        c = self._lift(other)
        return TSeries(self.ring, self.order, [a * c for a in self.coeffs])

    def shift_up(self, j: int) -> "TSeries":
        """Multiply by t^j (j >= 0)."""
        if j < 0:
            raise OutOfRange(f"shift needs j >= 0, got {j}")
        return TSeries(self.ring, self.order, [self.ring.zero()] * j + self.coeffs)

    def shift_down(self, j: int) -> "TSeries":
        """Divide by t^j (j >= 0); the dropped low-order coefficients, all of
        them when j passes the order, must vanish."""
        if j < 0:
            raise OutOfRange(f"shift needs j >= 0, got {j}")
        for n, c in enumerate(self.coeffs[:j]):
            if c:
                raise InexactDivision(f"coefficient of t^{n} nonzero, cannot divide by t^{j}")
        return TSeries(self.ring, self.order, self.coeffs[j:])

    def inverse(self) -> "TSeries":
        """Geometric inverse; needs constant term exactly 1."""
        one = self.ring.one()
        if self.coeffs[0] != one:
            raise InexactDivision("inverse needs constant term 1")
        c, inv = self.coeffs, [one]
        for _ in range(self.order):
            inv.append(-self.ring._dot(zip(c[1:], reversed(inv))))
        return TSeries(self.ring, self.order, inv)

    def sqrt(self) -> "TSeries":
        """Termwise square root with constant term 1; each halving must be exact."""
        if self.coeffs[0] != self.ring.one():
            raise InexactDivision("sqrt needs constant term 1")
        s, twice = [self.coeffs[0]], [self.coeffs[0] * 2]
        for m, c in enumerate(self.coeffs[1:], 1):  # [t^m]s² = 2·s_m + the pairs from j = 1
            s.append((c - self.ring._dot(square_pairs(s, twice, m, 1))).divexact_int(2))
            twice.append(s[-1] * 2)
        return TSeries(self.ring, self.order, s)

    def divexact_int(self, d: int) -> "TSeries":
        return TSeries(self.ring, self.order, [c.divexact_int(d) for c in self.coeffs])

    def __repr__(self) -> str:
        return f"TSeries(order={self.order}, {self.coeffs!r})"

    def __str__(self) -> str:  # its nonzero terms, "0" for the zero series
        return " + ".join(f"({c})*t^{n}" for n, c in enumerate(self.coeffs) if c) or "0"
