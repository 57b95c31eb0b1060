"""Truncated formal power series for the bicolored Motzkin path families.

Everything is exact: coefficients are integer polynomials in the four step
markers U, D, u, d (or in q for the valley-refined family), and every
division along the way is checked exact.  The four named series are

  E    -- all bicolored Motzkin paths ("motz"),
  E1   -- paths with no low-level u step ("motzE"),
  E2   -- paths with no d step before the first D ("motzT"),
  E12  -- paths obeying both restrictions ("motzET"),

each with [t^n] the generating polynomial of the length-n paths by step
multiset.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .core import OutOfRange
from .rings import MARKERS, MultiPoly, QPoly, TSeries, square_pairs

__all__ = [
    "SeriesContext",
    "solve_E",
    "derived_series",
    "closed_form_E",
    "expected_steps",
    "peaks_genfun_check",
]


_U = MultiPoly.gen("U")
_D = MultiPoly.gen("D")
_u = MultiPoly.gen("u")
_d = MultiPoly.gen("d")


def _excursion_block(e: TSeries) -> TSeries:
    """U·D·t²·E, the weight of one positive excursion returning to its level."""
    return (e * (_U * _D)).shift_up(2)


def solve_E(order: int) -> TSeries:
    """Solve E = 1 + (u+d)·t·E + U·D·t²·E² one coefficient at a time.

    Reading off t^n gives [t^n]E = (u+d)·[t^(n-1)]E + U·D·[t^(n-2)]E², one
    ``MultiPoly._dot`` of lower coefficients, where [t^(n-2)]E² is the ``_dot``
    of ``square_pairs``, so each cross product of E² is formed once.
    """
    if order < 0:
        raise OutOfRange(f"need order >= 0, got {order}")
    level, block, dot = _u + _d, _U * _D, MultiPoly._dot
    e, twice = [MultiPoly.one()], [MultiPoly.from_int(2)]
    for n in range(1, order + 1):
        e.append(dot(((level, e[n - 1]), (block, dot(square_pairs(e, twice, n - 2))))))
        twice.append(e[-1] * 2)
    return TSeries(MultiPoly, order, e)


def derived_series(e: TSeries) -> tuple[TSeries, TSeries, TSeries]:
    """The three restricted-family series (E1, E2, E12) built on top of E.

    E1 inverts 1 - (U·D·t²·E + d·t): a low level carries d steps and
    excursions but never u.  E2 inverts 1 - (u·t + U·D·t²·E): before the
    first D only u steps and excursions occur, so no early d is possible.
    E12 stacks one excursion factor over both restricted levels:
    E12 = U·D·t²·E1·E2.  E2 is read off E1 through the swap σ of u and d, which
    is exact: E's equation depends on u + d only, so σ fixes E; σ maps
    1 - (block + d·t) to 1 - (u·t + block); and inversion commutes with the
    ring automorphism σ.

    E12 needs no product.  The two inverted series differ by one term,
    1/E1 - 1/E2 = (1 - block - d·t) - (1 - u·t - block) = (u - d)·t, and
    multiplying by E1·E2 gives E1 - E2 = (d - u)·t·E1·E2.  So
    E12 = U·D·t·(E1 - E2)/(d - u): [t^n]E12 is U·D times [t^(n-1)](E1 - E2)
    divided exactly by d - u, and [t^0]E12 = 0.
    """
    order = e.order
    block = _excursion_block(e)
    e1 = (1 - (block + TSeries(MultiPoly, order, [0, _d]))).inverse()
    e2 = TSeries(MultiPoly, order, [c.swap("u", "d") for c in e1.coeffs])
    ud = _U * _D
    lower = zip(e1.coeffs[:order], e2.coeffs)  # [t^(n-1)] of E1 and E2, n = 1..order
    e12 = TSeries(MultiPoly, order, [0, *((a - b).divexact_d_minus_u() * ud for a, b in lower)])
    return e1, e2, e12


def closed_form_E(order: int) -> TSeries:
    """E via its algebraic closed form: (1-(u+d)t - sqrt(R)) / (2·U·D·t²).

    R = ((u+d)t - 1)² - 4·U·D·t².  The square root is the branch with
    constant term 1; the numerator is then exactly divisible by 2·U·D·t².
    """
    if order < 0:
        raise OutOfRange(f"need order >= 0, got {order}")
    # Work two degrees high so the division by t² leaves valid top terms.
    big = order + 2
    s = _u + _d
    radicand = TSeries(MultiPoly, big, [1, s * (-2), s * s - _U * _D * 4])
    root = radicand.sqrt()
    numer = 1 - TSeries(MultiPoly, big, [0, s]) - root
    halved = TSeries(
        MultiPoly,
        big,
        [c.divexact_monomial(2, (1, 1, 0, 0)) for c in numer.coeffs],
    )
    return TSeries(MultiPoly, order, halved.shift_down(2).coeffs[: order + 1])


@dataclass(frozen=True, eq=False)
class SeriesContext:
    """Immutable bundle of the four path series at a common truncation order."""

    order: int
    E: TSeries
    E1: TSeries
    E2: TSeries
    E12: TSeries

    @classmethod
    def build(cls, order: int) -> "SeriesContext":
        e = solve_E(order)
        return cls(order, e, *derived_series(e))

    def residuals(self) -> dict[str, TSeries]:
        """Defect of each series in its defining equation (all must be 0)."""
        order = self.order
        block = _excursion_block(self.E)
        t_u = TSeries(MultiPoly, order, [0, _u])
        t_d = TSeries(MultiPoly, order, [0, _d])
        level = TSeries(MultiPoly, order, [0, _u + _d])
        return {
            "E": self.E - (1 + level * self.E + block * self.E),
            "E1": self.E1 * (1 - (block + t_d)) - 1,
            "E2": self.E2 * (1 - (t_u + block)) - 1,
            "E12": self.E12 * (1 - (block + t_d)) * (1 - (t_u + block))
            - TSeries(MultiPoly, order, [0, 0, _U * _D]),
        }


_CTX: SeriesContext | None = None


def _shared_context(order: int) -> SeriesContext:
    global _CTX
    if _CTX is None or _CTX.order < order:
        _CTX = SeriesContext.build(max(order, 12))
    return _CTX


def expected_steps(n: int, step: str) -> Fraction:
    """Exact expected number of `step` letters in a uniform length-n motzET path.

    The denominator, [t^n]E12 at all ones, counts the length-n motzET paths,
    which is Catalan(n-1) >= 1 for n >= 2.
    """
    if n < 2:
        raise OutOfRange(f"need n >= 2, got {n}")
    if step not in MARKERS:
        raise OutOfRange(f"step must be one of {MARKERS}, got {step!r}")
    poly = _shared_context(n).E12.coeff(n)
    return Fraction(poly.weighted_exponent_sum(step), poly.at_ones())


def peaks_genfun_check(order: int) -> dict[int, QPoly]:
    """Length-by-length valley polynomials of 321-avoiding permutations.

    Expands 1 + (1-s)² / (4z·(1+(q-1)z)²) with s = sqrt(1-4z+4z²-4qz²) as a
    series in z over integer q-polynomials; the coefficient of q^k·z^n counts
    the 321-avoiders of n with k inner valleys.  Returns the table for
    n <= order; ``svtab verify`` compares it with exhaustive valley tallies.
    """
    if order < 2:
        raise OutOfRange(f"need order >= 2, got {order}")
    big = order + 1
    q = QPoly.monomial(1)
    radicand = TSeries(QPoly, big, [1, -4, 4 - q * 4])
    root = radicand.sqrt()
    lower = 1 - root
    numer = lower * lower
    den = TSeries(QPoly, big, [1, (q - 1) * 2, (q - 1) * (q - 1)])
    g_big = 1 + numer.divexact_int(4).shift_down(1) * den.inverse()
    return {n: g_big.coeff(n) for n in range(order + 1)}
