"""Elliptic curves over the rationals in the form y^2 = x^3 + a2 x^2 + a4 x + a6,
with the exact chord-and-tangent group law, standard invariants and u-scaling
coordinate changes.

Curves and points are immutable values.  Points carry no back-reference to a
curve, so every group operation takes the curve explicitly.

Membership is validated where a point enters the group law, once per point:
``add``, ``mul``, ``neg`` and ``torsion_order_upto`` check their input points
(``require_on_curve``), which keeps coordinate-change bugs from propagating
silently.  Points the group law returns lie on the curve by construction, so
code that keeps computing with them uses ``add_unchecked`` and, when only x
is needed, ``add_x_unchecked``; these trust their inputs.  When both x(p + q)
and x(p - q) are needed, ``add_sub_x_unchecked`` computes their shared part
once over the integers.  ``contains`` is an exact integer test without
fraction reduction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

from .exactnum import Rat, format_rat

__all__ = [
    "Curve",
    "Point",
    "StdQuantities",
    "INFINITY",
    "point",
]


@dataclass(frozen=True)
class Point:
    """An affine point ``[x, y]`` or the point at infinity (both fields None)."""

    x: Rat | None = None
    y: Rat | None = None

    def __post_init__(self) -> None:
        if (self.x is None) != (self.y is None):
            raise ValueError("point needs both coordinates or neither")
        if self.x is not None:
            object.__setattr__(self, "x", Fraction(self.x))
            object.__setattr__(self, "y", Fraction(self.y))

    @property
    def is_infinity(self) -> bool:
        return self.x is None

    def __neg__(self) -> "Point":
        """[x, -y], the inverse on every curve of this module's shape."""
        return self if self.is_infinity else Point(self.x, -self.y)

    def __str__(self) -> str:
        if self.is_infinity:
            return "O"
        return f"[{format_rat(self.x)}, {format_rat(self.y)}]"


INFINITY = Point()


def point(x, y) -> Point:
    """Affine point with coordinates coerced to exact rationals."""
    return Point(Fraction(x), Fraction(y))


@dataclass(frozen=True)
class StdQuantities:
    """The standard b/c invariants and discriminant of a curve."""

    b2: Rat
    b4: Rat
    b6: Rat
    b8: Rat
    c4: Rat
    delta: Rat


def _std_quantities(a2: Rat, a4: Rat, a6: Rat) -> StdQuantities:
    b2 = 4 * a2
    b4 = 2 * a4
    b6 = 4 * a6
    b8 = 4 * a2 * a6 - a4 * a4
    c4 = b2 * b2 - 24 * b4
    delta = -b2 * b2 * b8 - 8 * b4**3 - 27 * b6 * b6 + 9 * b2 * b4 * b6
    return StdQuantities(b2, b4, b6, b8, c4, delta)


@dataclass(frozen=True)
class Curve:
    """Nonsingular curve y^2 = x^3 + a2 x^2 + a4 x + a6 over the rationals.

    Only this shape (no xy or y term) is supported; it halves the group-law
    case analysis and covers every curve this package constructs.
    """

    a2: Rat
    a4: Rat
    a6: Rat
    #: (d, d a2, d a4, d a6) for the least common denominator d of the
    #: coefficients; :meth:`contains` works with these integers.
    _cleared: tuple[int, int, int, int] = field(init=False, repr=False, compare=False)
    #: The b/c invariants and discriminant, computed once for the
    #: singularity check and returned by :meth:`std_quantities`.
    _std: StdQuantities = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "a2", Fraction(self.a2))
        object.__setattr__(self, "a4", Fraction(self.a4))
        object.__setattr__(self, "a6", Fraction(self.a6))
        coeffs = (self.a2, self.a4, self.a6)
        d = lcm(*(c.denominator for c in coeffs))
        object.__setattr__(
            self, "_cleared", (d, *(c.numerator * (d // c.denominator) for c in coeffs))
        )
        object.__setattr__(self, "_std", _std_quantities(*coeffs))
        if self._std.delta == 0:
            raise ValueError(f"singular curve: {self}")

    # -- invariants ------------------------------------------------------

    def std_quantities(self) -> StdQuantities:
        return self._std

    # -- membership ------------------------------------------------------

    def rhs(self, x: Rat) -> Rat:
        """The cubic x^3 + a2 x^2 + a4 x + a6."""
        return x**3 + self.a2 * x * x + self.a4 * x + self.a6

    def contains(self, p: Point) -> bool:
        """True iff p is O or y^2 equals the cubic at x.

        Write x = X/D, y = Y/E in lowest terms and the coefficients over
        their common denominator d.  The cubic is N/(d D^3) with the integer
        N = d X^3 + A2 X^2 D + A4 X D^2 + A6 D^3, and since Y^2/E^2 is in
        lowest terms, y^2 = N/(d D^3) exactly when d D^3 = k E^2 and
        N = k Y^2 for an integer k.  No fraction is reduced on the way.
        """
        if p.is_infinity:
            return True
        d, c2, c4, c6 = self._cleared
        xn, xd = p.x.numerator, p.x.denominator
        yn, yd = p.y.numerator, p.y.denominator
        xd2 = xd * xd
        xd3 = xd2 * xd
        k, rem = divmod(d * xd3, yd * yd)
        if rem:
            return False
        return ((d * xn + c2 * xd) * xn + c4 * xd2) * xn + c6 * xd3 == k * yn * yn

    def require_on_curve(self, p: Point) -> None:
        """Raise ValueError unless p lies on this curve."""
        if not self.contains(p):
            raise ValueError(f"point {p} is not on {self}")

    # -- group law -------------------------------------------------------

    def neg(self, p: Point) -> Point:
        self.require_on_curve(p)
        return -p

    def _chord(self, p: Point, q: Point) -> tuple[Rat, Rat] | None:
        """Slope and x of the third intersection of the chord through affine
        p and q (the tangent when p = q); None when q = -p."""
        x1, y1, x2, y2 = p.x, p.y, q.x, q.y
        if x1 == x2:
            if y1 == -y2:
                # inverse pair; covers doubling a 2-torsion point (y = 0)
                return None
            lam = (3 * x1**2 + 2 * self.a2 * x1 + self.a4) / (2 * y1)
        else:
            lam = (y2 - y1) / (x2 - x1)
        return lam, lam**2 - (self.a2 + x1 + x2)

    def add_unchecked(self, p: Point, q: Point) -> Point:
        """Group sum of two points the caller knows to lie on this curve."""
        if p.is_infinity:
            return q
        if q.is_infinity:
            return p
        chord = self._chord(p, q)
        if chord is None:
            return INFINITY
        lam, x3 = chord
        return Point(x3, lam * (p.x - x3) - p.y)

    def add_x_unchecked(self, p: Point, q: Point) -> Rat | None:
        """x(p + q) without its y, for points the caller knows to lie on this
        curve; None when p + q = O."""
        if p.is_infinity:
            return q.x
        if q.is_infinity:
            return p.x
        chord = self._chord(p, q)
        return None if chord is None else chord[1]

    def add_sub_x_unchecked(self, p: Point, q: Point) -> tuple[Rat | None, Rat | None]:
        """(x(p + q), x(p - q)) for points the caller knows to lie on this
        curve, each None when that sum is O.

        For x1 != x2 both come from one expression,
        x(p +- q) = ((x1 x2 + a4)(x1 + x2) + 2 a2 x1 x2 + 2 a6 -+ 2 y1 y2) / (x1 - x2)^2,
        evaluated over the integers as in :meth:`contains`: with x_i = X_i/D_i,
        y_i = Y_i/E_i in lowest terms and the coefficients over d, it is
        (S -+ 2 j Y1 Y2) / (d (X1 D2 - X2 D1)^2), where
        S = (d X1 X2 + A4 D1 D2)(X1 D2 + X2 D1) + 2 A2 X1 X2 D1 D2 + 2 A6 D1^2 D2^2
        and j = d D1^2 D2^2 / (E1 E2).  On the curve E_i^2 divides d D_i^3, so
        j^2 = D1 D2 (d D1^3 / E1^2)(d D2^3 / E2^2) is an integer, and hence so
        is j.  The shared part is computed once and each result is normalized
        once; when x1 = x2 (q = +-p) or a point is O, this falls back to
        :meth:`add_x_unchecked`.
        """
        if p.is_infinity or q.is_infinity or p.x == q.x:
            return self.add_x_unchecked(p, q), self.add_x_unchecked(p, -q)
        d, c2, c4, c6 = self._cleared
        xn1, xd1, xn2, xd2 = p.x.numerator, p.x.denominator, q.x.numerator, q.x.denominator
        xx = xn1 * xn2
        dd = xd1 * xd2
        dd2 = dd * dd
        shared = (d * xx + c4 * dd) * (xn1 * xd2 + xn2 * xd1) + 2 * (c2 * xx * dd + c6 * dd2)
        cross = 2 * (d * dd2 // (p.y.denominator * q.y.denominator)) * p.y.numerator * q.y.numerator
        gap = xn1 * xd2 - xn2 * xd1
        den = d * gap * gap
        return Fraction(shared - cross, den), Fraction(shared + cross, den)

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

    def torsion_order_upto(self, p: Point, bound: int = 12) -> int | None:
        """Smallest 1 <= k <= bound with [k]p = O, else None."""
        self.require_on_curve(p)
        if bound < 1:
            raise ValueError("bound must be >= 1")
        acc = p
        for k in range(1, bound):
            if acc.is_infinity:
                return k
            acc = self.add_unchecked(acc, p)
        return bound if acc.is_infinity else None

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
