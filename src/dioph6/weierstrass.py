"""Elliptic curves over the rationals in the form y^2 = x^3 + a2 x^2 + a4 x + a6,
with the exact chord-and-tangent group law, an integer singularity check and
u-scaling coordinate changes.

Curves and points are immutable values.  Points carry no back-reference to a
curve, so every group operation takes the curve explicitly.

Membership is validated where a point enters the group law, once per point:
``add`` and ``mul`` check their input points (``require_on_curve``), which
keeps coordinate-change bugs from propagating silently.  Points the group
law returns lie on the curve by construction, so code that keeps computing
with them uses ``add_unchecked`` and, when only x is needed,
``add_x_unchecked``; these trust their inputs.  When both x(p + q) and
x(p - q) are needed, ``add_sub_x_unchecked`` computes their shared part once
over the integers (``_sum_x_parts``) and reduces the two at full size once:
x(p + q) usually needs only a half-size gcd after an exact division.  A
valuation needs no reduction, so the lemma tables read it off those unreduced
integers.  Membership is one exact integer test, ``_on_model``, on a model's
integers over any common denominator; ``contains`` runs it on a Curve's.

The chord-and-tangent rule runs on the numerators and denominators of the
coordinates, with the cancelling gcds of Fraction's own operators
(``exactnum._q_add`` and kin); lowest terms are unique, so every coordinate
is the Fraction that operator arithmetic would give.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .exactnum import (
    Rat,
    _as_rat,
    _coprime,
    _over_common_denominator,
    _q_add,
    _q_div,
    _q_mul,
    _Value,
    format_rat,
)

__all__ = ["Curve", "Point", "INFINITY"]


class Point(_Value):
    """An affine point ``[x, y]`` or the point at infinity (both fields None)."""

    __slots__ = _fields = ("x", "y")
    x: Rat | None
    y: Rat | None

    def __init__(self, x: Rat | None = None, y: Rat | None = None) -> None:
        if (x is None) != (y is None):
            raise ValueError("point needs both coordinates or neither")
        if x is not None:
            x, y = _as_rat(x), _as_rat(y)
        _Value.__init__(self, x, y)

    @property
    def is_infinity(self) -> bool:
        return self.x is None

    def __neg__(self) -> "Point":
        """[x, -y], the inverse on every curve of this module's shape."""
        if self.is_infinity:
            return self
        return _affine(self.x, -self.y)

    def __str__(self) -> str:
        if self.is_infinity:
            return "O"
        return f"[{format_rat(self.x)}, {format_rat(self.y)}]"


INFINITY = Point()


def _affine(x: Rat, y: Rat) -> Point:
    """The affine point [x, y] of two Fractions, without the coercion of
    Point's constructor."""
    pt = object.__new__(Point)
    object.__setattr__(pt, "x", x)
    object.__setattr__(pt, "y", y)
    return pt


def _cleared_discriminant(d: int, c2: int, c4: int, c6: int) -> int:
    """d^4 times the discriminant of the cubic x^3 + a2 x^2 + a4 x + a6 with
    a_i = c_i / d; the curve's discriminant is 16 times that of the cubic,
    so it vanishes exactly when this integer does."""
    return (
        c2 * c2 * c4 * c4 - 4 * d * c4**3 - 4 * c2**3 * c6
        + 18 * d * c2 * c4 * c6 - 27 * d * d * c6 * c6
    )


def _on_model(cleared: tuple[int, int, int, int], p: Point) -> bool:
    """True iff the affine point p lies on the model a_i = c_i/d given as
    ``cleared`` = (d, c2, c4, c6) over any common denominator d.

    With x = X/D, y = Y/E in lowest terms the cubic is N/(d D^3), where
    N = d X^3 + c2 X^2 D + c4 X D^2 + c6 D^3; since Y^2/E^2 is in lowest
    terms, y^2 = N/(d D^3) exactly when d D^3 = k E^2 and N = k Y^2 for an
    integer k.  No fraction is reduced on the way."""
    d, c2, c4, c6 = cleared
    xn, xd = p.x.numerator, p.x.denominator
    yn, yd = p.y.numerator, p.y.denominator
    xd2 = xd * xd
    xd3 = xd2 * xd
    k, rem = divmod(d * xd3, yd * yd)
    if rem:
        return False
    return ((d * xn + c2 * xd) * xn + c4 * xd2) * xn + c6 * xd3 == k * yn * yn


class Curve(_Value):
    """Nonsingular curve y^2 = x^3 + a2 x^2 + a4 x + a6 over the rationals.

    Only this shape (no xy or y term) is supported; it halves the group-law
    case analysis and covers every curve this package constructs.
    """

    _fields = ("a2", "a4", "a6")
    __slots__ = (*_fields, "_cleared", "_disc", "_coeffs")
    a2: Rat
    a4: Rat
    a6: Rat
    #: (d, d a2, d a4, d a6) for the least common denominator d of the
    #: coefficients; :func:`_on_model` works with these integers.
    _cleared: tuple[int, int, int, int]
    #: d^4 times the discriminant of the cubic (:func:`_cleared_discriminant`),
    #: so delta = 16 _disc / d^4.  Nonzero on every curve (the singularity
    #: check); reduction classification reads v_p(delta) off it.
    _disc: int
    #: (num a2, den a2, num a4, den a4) for the group law.
    _coeffs: tuple[int, int, int, int]

    def __init__(self, a2: Rat, a4: Rat, a6: Rat) -> None:
        a2, a4, a6 = _as_rat(a2), _as_rat(a4), _as_rat(a6)
        _Value.__init__(self, a2, a4, a6)
        object.__setattr__(self, "_coeffs", (a2.numerator, a2.denominator, a4.numerator, a4.denominator))
        cleared = _over_common_denominator(a2, a4, a6)
        object.__setattr__(self, "_cleared", cleared)
        disc = _cleared_discriminant(*cleared)
        if disc == 0:
            raise ValueError(f"singular curve: {self}")
        object.__setattr__(self, "_disc", disc)

    # -- membership ------------------------------------------------------

    def contains(self, p: Point) -> bool:
        """True iff p is O or y^2 equals the cubic at x (:func:`_on_model`)."""
        return p.is_infinity or _on_model(self._cleared, p)

    def require_on_curve(self, p: Point) -> None:
        """Raise ValueError unless p lies on this curve."""
        if not self.contains(p):
            raise ValueError(f"point {p} is not on {self}")

    # -- group law -------------------------------------------------------

    def _chord(self, p: Point, q: Point) -> tuple[int, int, int, int] | None:
        """Slope and x of the third intersection of the chord through affine
        p and q (the tangent when p = q), as (num, den, num, den) in lowest
        terms; None when q = -p.

        The slope is (y2 - y1)/(x2 - x1), or (3 x1^2 + 2 a2 x1 + a4)/(2 y1)
        for the tangent, and x = slope^2 - (a2 + x1 + x2).
        """
        x1, y1, x2, y2 = p.x, p.y, q.x, q.y
        xn1, xd1, yn1, yd1 = x1._numerator, x1._denominator, y1._numerator, y1._denominator
        xn2, xd2, yn2, yd2 = x2._numerator, x2._denominator, y2._numerator, y2._denominator
        a2n, a2d, a4n, a4d = self._coeffs
        if xn1 == xn2 and xd1 == xd2:
            if yn1 == -yn2 and yd1 == yd2:
                # inverse pair; covers doubling a 2-torsion point (y = 0)
                return None
            # (3 x1 + 2 a2) x1 + a4
            tn, td = _q_add(*_q_mul(3, 1, xn1, xd1), *_q_mul(2, 1, a2n, a2d))
            tn, td = _q_add(*_q_mul(tn, td, xn1, xd1), a4n, a4d)
            ln, ld = _q_div(tn, td, *_q_mul(2, 1, yn1, yd1))
        else:
            ln, ld = _q_div(*_q_add(yn2, yd2, -yn1, yd1), *_q_add(xn2, xd2, -xn1, xd1))
        sn, sd = _q_add(*_q_add(a2n, a2d, xn1, xd1), xn2, xd2)
        return (ln, ld, *_q_add(ln * ln, ld * ld, -sn, sd))

    def add_unchecked(self, p: Point, q: Point) -> Point:
        """Group sum of two points the caller knows to lie on this curve."""
        if p.is_infinity:
            return q
        if q.is_infinity:
            return p
        chord = self._chord(p, q)
        if chord is None:
            return INFINITY
        ln, ld, xn, xd = chord
        x1, y1 = p.x, p.y
        yn, yd = _q_add(
            *_q_mul(ln, ld, *_q_add(x1._numerator, x1._denominator, -xn, xd)),
            -y1._numerator, y1._denominator,
        )
        return _affine(_coprime(xn, xd), _coprime(yn, yd))

    def add_x_unchecked(self, p: Point, q: Point) -> Rat | None:
        """x(p + q) without its y, for points the caller knows to lie on this
        curve; None when p + q = O."""
        if p.is_infinity:
            return q.x
        if q.is_infinity:
            return p.x
        chord = self._chord(p, q)
        return None if chord is None else _coprime(chord[2], chord[3])

    def _sum_x_parts(self, p: Point, q: Point) -> tuple[int, int, int]:
        """(S - 2 j Y1 Y2, S + 2 j Y1 Y2, d (X1 D2 - X2 D1)^2) of
        :meth:`add_sub_x_unchecked`: x(p + q) and x(p - q) over one
        denominator, unreduced, for affine points of this curve with x1 != x2."""
        d, c2, c4, c6 = self._cleared
        xn1, xd1, xn2, xd2 = p.x.numerator, p.x.denominator, q.x.numerator, q.x.denominator
        xx = xn1 * xn2
        dd = xd1 * xd2
        dd2 = dd * dd
        shared = (d * xx + c4 * dd) * (xn1 * xd2 + xn2 * xd1) + 2 * (c2 * xx * dd + c6 * dd2)
        cross = 2 * (d * dd2 // (p.y.denominator * q.y.denominator)) * p.y.numerator * q.y.numerator
        gap = xn1 * xd2 - xn2 * xd1
        return shared - cross, shared + cross, d * gap * gap

    def add_sub_x_unchecked(self, p: Point, q: Point) -> tuple[Rat | None, Rat | None]:
        """(x(p + q), x(p - q)) for points the caller knows to lie on this
        curve, each None when that sum is O.

        For x1 != x2 both come from one expression,
        x(p +- q) = ((x1 x2 + a4)(x1 + x2) + 2 a2 x1 x2 + 2 a6 -+ 2 y1 y2) / (x1 - x2)^2,
        evaluated over the integers as in :func:`_on_model`: with x_i = X_i/D_i,
        y_i = Y_i/E_i in lowest terms and the coefficients over d, it is
        (S -+ 2 j Y1 Y2) / (d (X1 D2 - X2 D1)^2), where
        S = (d X1 X2 + A4 D1 D2)(X1 D2 + X2 D1) + 2 A2 X1 X2 D1 D2 + 2 A6 D1^2 D2^2
        and j = d D1^2 D2^2 / (E1 E2).  On the curve E_i^2 divides d D_i^3, so
        j^2 = D1 D2 (d D1^3 / E1^2)(d D2^3 / E2^2) is an integer, and hence so
        is j.  The shared part is computed once; when x1 = x2 (q = +-p) or a
        point is O, this falls back to :meth:`add_x_unchecked`.

        Only x(p - q) is reduced by a gcd with the full denominator D, leaving
        the denominator D_-.  The two results usually split D between their
        denominators, so that D_- divides x(p + q)'s numerator over D: then
        one exact division leaves x(p + q) over D / D_-, about half the size
        of D, and a gcd at that size reduces it.  On the induced curves of the
        family the division was exact in every cell measured; on other
        curves, where it leaves a remainder, x(p + q) is reduced by a gcd
        with D as well.  Both results are in lowest terms either way.
        """
        if p.is_infinity or q.is_infinity or p.x == q.x:
            return self.add_x_unchecked(p, q), self.add_x_unchecked(p, -q)
        plus, minus, den = self._sum_x_parts(p, q)
        g = gcd(minus, den)
        minus_den = den // g
        num, rem = divmod(plus, minus_den)
        plus_den = g
        if rem:
            num, plus_den = plus, den
        h = gcd(num, plus_den)
        return _coprime(num // h, plus_den // h), _coprime(minus // g, minus_den)

    def add(self, p: Point, q: Point) -> Point:
        """Group sum of two points on this curve."""
        self.require_on_curve(p)
        self.require_on_curve(q)
        return self.add_unchecked(p, q)

    def mul(self, k: int, p: Point) -> Point:
        """The k-fold sum [k]p via double-and-add; [0]p = O, [-k]p = -[k]p."""
        self.require_on_curve(p)
        if k < 0:
            k, p = -k, -p
        result = INFINITY
        while k:
            if k & 1:
                result = self.add_unchecked(result, p)
            k >>= 1
            if k:  # the doubling after the top bit would go unused
                p = self.add_unchecked(p, p)
        return result

    # -- coordinate changes ----------------------------------------------

    def scale(self, u) -> "Curve":
        """Image under (x, y) |-> (x/u^2, y/u^3).

        Coefficients become a2/u^2, a4/u^4, a6/u^6; delta scales by u^-12
        and c4 by u^-4.
        """
        u = Fraction(u)
        if u == 0:
            raise ValueError("scaling unit must be nonzero")
        return Curve(self.a2 / u**2, self.a4 / u**4, self.a6 / u**6)

    def scale_point(self, p: Point, u) -> Point:
        """Image of a point under the same coordinate change as :meth:`scale`."""
        u = Fraction(u)
        if u == 0:
            raise ValueError("scaling unit must be nonzero")
        if p.is_infinity:
            return INFINITY
        return Point(p.x / u**2, p.y / u**3)

    def __str__(self) -> str:
        return (
            f"y^2 = x^3 + ({format_rat(self.a2)})x^2"
            f" + ({format_rat(self.a4)})x + ({format_rat(self.a6)})"
        )
