"""The paper's intermediate identities, kept as checks of the construction.

The pipeline goes seed multiple -> 3-isogeny -> triple -> odd multiples on
the induced curve, and none of its steps needs the functions here: they
state the paper's per-t values as functions of t (the pipeline evaluates
them on t = p/q through the integer helpers of :mod:`dioph6.family`), the
order-3 polynomial of a triple and the b/c invariants of a curve, and they
restate what the paper proves along the way (the plane curve of the
two-torsion points, the discriminant quartic, the marked point of order 3
and its half, the closed-form invariants of the two-torsion model, the
product-3/4 reconstruction, the five points of the extension curve) so that
the tests can check the construction against them.  With them are the
helpers only such checks use: residues mod p, squarefree testing, torsion
orders up to a bound, and the closed forms a, b, c and d, e, f of t.  No
module of the package imports this one.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ConsistencyError, DegeneracyError
from .exactnum import (
    DEFAULT_FACTOR_BOUND,
    Rat,
    _over_common_denominator,
    _require_prime,
    _trial_divide,
    _unfactorable,
    _Value,
    sqrt_exact,
)
from .family import (
    TripleABC,
    _cleared_Epp,
    _curve_E,
    _curve_Estar,
    _order3,
    _point_Pstar,
    _point_R,
    _point_Tstar,
    _sigma1,
    _sigma2,
    _sigma3,
    _w_constants,
    require_param,
    triple_from_multiple,
)
from .paramfam import _elements
from .reduction_lab import require_base_point
from .sextuple_engine import induced_curve
from .weierstrass import Curve, Point


# ---------------------------------------------------------------------------
# the per-t values as functions of t
# ---------------------------------------------------------------------------

def curve_E(t) -> Curve:
    """Base curve: y^2 = x^3 + 3(t^2-3t+1)(t^2+3t+1) x^2 + 3(t^2+1)^4 x + (t^2+1)^6."""
    t = require_param(t)
    return _curve_E(t.numerator, t.denominator)


def point_R(t) -> Point:
    """The seed point [0, (t^2+1)^3] of infinite order on the base curve."""
    t = require_param(t)
    return _point_R(t.numerator, t.denominator)


def curve_Estar(t) -> Curve:
    """Companion curve, 3-isogenous to the base curve."""
    t = require_param(t)
    return _curve_Estar(t.numerator, t.denominator)


def point_Tstar(t) -> Point:
    """Order-3 point generating the isogeny kernel on the companion curve:
    [-(t^2-6t+1)(t^2+6t+1), 27t(t-1)^2(t+1)^2]."""
    t = require_param(t)
    return _point_Tstar(t.numerator, t.denominator)


def point_Pstar(t) -> Point:
    """Companion-curve point mapping to the seed point under the isogeny:
    [-(t^2+1)(t^2+18t+1), 27t(t+1)^2(t^2+1)]."""
    t = require_param(t)
    return _point_Pstar(t.numerator, t.denominator)


def _map_w_constants(p: int, q: int) -> tuple[Rat, Rat, Rat]:
    v, r2, s8 = _w_constants(p, q)
    qq = q * q
    return Fraction(v, 4 * qq * qq), Fraction(r2, 2 * qq), Fraction(s8, 8 * qq**3)


def _w_value(q: Point, star: Curve, v: Rat, r: Rat, s: Rat) -> Rat:
    """The w coordinate of an affine point of the companion curve ``star``,
    in rationals with the constants of :func:`_map_w_constants`: the
    reference for the pipeline's :func:`dioph6.family._w_pair`."""
    if q.is_infinity:
        raise DegeneracyError("w is undefined at the point at infinity")
    x, y = q.x, q.y
    if x != v:
        return (y + r * (x - v) + s) / (-6 * (x - v))
    if y == -s:
        slope = (3 * x * x + 2 * star.a2 * x + star.a4) / (2 * y)
        return (slope + r) / Fraction(-6)
    raise DegeneracyError(f"point {q} is the pole of the w map")


def map_w_constants(t) -> tuple[Rat, Rat, Rat]:
    """The constants (v, r, s) of the w coordinate map:
    v = (5t^4 + 118t^2 + 5)/4, r = -3(t^2+1)/2, s = -27(t-1)^2(t+1)^2(t^2+1)/8."""
    t = require_param(t)
    return _map_w_constants(t.numerator, t.denominator)


def curve_Epp(t, x) -> Curve:
    """Two-torsion model attached to a nonzero base-curve x-coordinate:
    y^2 = x^3 + (aa/x + 1)^2/4 x^2 + t^2 (aa/x^2 + 1/x)/2 x + t^4/(4x^2)
    with aa = (t^2+1)^2.

    Its cubic has roots -(P + 1) t^2/(t^2+1)^2 for P running over the pair
    products ab, ac, bc of the associated triple; whenever (x, y) lies on
    the base curve its discriminant is t^6 y^2 / x^6.
    """
    t = require_param(t)
    x = Fraction(x)
    if x == 0:
        raise ValueError("the two-torsion model needs x != 0")
    # the Curve of the pipeline's integers, the reference for its
    # classification from them
    d, c2, c4, c6, _ = _cleared_Epp(t.numerator, t.denominator, x)
    return Curve(Fraction(c2, d), Fraction(c4, d), Fraction(c6, d))


def sigma3(t) -> Rat:
    """sigma3 = (t^2 - 1)/(2t); then 1 + sigma3^2 = ((t^2+1)/(2t))^2."""
    t = require_param(t)
    return Fraction(*_sigma3(t.numerator, t.denominator))


def sigma1_from_x(t, x) -> Rat:
    """sigma1 attached to a base-curve x-coordinate (x must be nonzero):
    (-t^4 + 4t^2 - 1 - (t^2+1)^4/x) / ((t^2-1) t)."""
    t = require_param(t)
    x = Fraction(x)
    if x == 0:
        raise ValueError("sigma1 is undefined at x = 0 (the seed point itself)")
    return Fraction(*_sigma1(t.numerator, t.denominator, x.numerator, x.denominator))


def sigma2_from(s1, s3) -> Rat:
    """sigma2 forced by the order-3 condition, as a function of sigma1, sigma3:
    (s1^2 s3^2 - 12 s3^2 - 6 s1 s3 - 3) / (4 + 4 s3^2)."""
    s1 = Fraction(s1)
    s3 = Fraction(s3)
    return Fraction(*_sigma2(s1.numerator, s1.denominator, s3.numerator, s3.denominator))


def three_torsion_value(a, b, c) -> Rat:
    """The symmetric polynomial whose vanishing makes the induced order-3
    point genuine (see :func:`three_torsion_condition`).

    In the symmetric functions s1, s2, s3 of a, b, c it is
    s3^2 (12 + 4 s2 - s1^2) + 6 s1 s3 + 4 s2 + 3.
    """
    cleared = _over_common_denominator(Fraction(a), Fraction(b), Fraction(c))
    return Fraction(_order3(*cleared), cleared[0] ** 8)


def three_torsion_condition(a, b, c) -> bool:
    """True iff the triple satisfies the order-3 polynomial condition."""
    return three_torsion_value(a, b, c) == 0


# ---------------------------------------------------------------------------
# the standard invariants
# ---------------------------------------------------------------------------

class StdQuantities(_Value):
    """The standard b/c invariants and discriminant of a curve."""

    __slots__ = _fields = ("b2", "b4", "b6", "b8", "c4", "delta")
    b2: Rat
    b4: Rat
    b6: Rat
    b8: Rat
    c4: Rat
    delta: Rat


def _std_quantities(a2: Rat, a4: Rat, a6: Rat) -> StdQuantities:
    """The invariants of y^2 = x^3 + a2 x^2 + a4 x + a6 from its
    coefficients, singular or not."""
    b2 = 4 * a2
    b4 = 2 * a4
    b6 = 4 * a6
    b8 = 4 * a2 * a6 - a4 * a4
    c4 = b2 * b2 - 24 * b4
    delta = -b2 * b2 * b8 - 8 * b4**3 - 27 * b6 * b6 + 9 * b2 * b4 * b6
    return StdQuantities(b2, b4, b6, b8, c4, delta)


def std_quantities(curve: Curve) -> StdQuantities:
    """The standard b/c invariants and discriminant of a curve."""
    return _std_quantities(curve.a2, curve.a4, curve.a6)


# ---------------------------------------------------------------------------
# residues and squarefree testing
# ---------------------------------------------------------------------------

def mod_p(q: Rat | int, p: int) -> int:
    """Residue of a p-integral rational in ``[0, p)``.

    Computes ``num * den^(-1) mod p``; rejects inputs whose denominator is
    divisible by p.
    """
    q = Fraction(q)
    _require_prime(p)
    if q.denominator % p == 0:
        raise ValueError(f"{p} divides the denominator of {q}")
    return q.numerator * pow(q.denominator, -1, p) % p


def _iroot(n: int, k: int) -> tuple[int, bool]:
    """Floor k-th root of n >= 0 with exactness flag (pure integer bisection)."""
    if n < 0 or k < 1:
        raise ValueError("iroot needs n >= 0, k >= 1")
    if n in (0, 1) or k == 1:
        return n, True
    lo, hi = 1, 1 << (n.bit_length() // k + 1)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if mid**k <= n:
            lo = mid
        else:
            hi = mid - 1
    return lo, lo**k == n


def is_squarefree(n: int, bound: int = DEFAULT_FACTOR_BOUND) -> bool:
    """True iff no prime square divides the positive integer ``n``.

    Trial-divides up to ``bound``; a surviving composite cofactor that is a
    perfect power makes ``n`` non-squarefree, any other makes the test
    refuse with :class:`UnfactorableError` rather than guess.
    """
    if n < 1:
        raise ValueError(f"squarefree test needs a positive integer, got {n}")
    factors, cofactor = _trial_divide(n, bound)
    if any(e > 1 for e in factors.values()):
        return False
    if cofactor == 1:
        return True
    if any(_iroot(cofactor, k)[1] for k in range(2, cofactor.bit_length() + 1)):
        return False
    raise _unfactorable(n, cofactor, bound)


# ---------------------------------------------------------------------------
# torsion orders
# ---------------------------------------------------------------------------

def torsion_order_upto(curve: Curve, p: Point, bound: int = 12) -> int | None:
    """Smallest 1 <= k <= bound with [k]p = O on the curve, else None."""
    curve.require_on_curve(p)
    if bound < 1:
        raise ValueError("bound must be >= 1")
    acc = p
    for k in range(1, bound):
        if acc.is_infinity:
            return k
        acc = curve.add_unchecked(acc, p)
    return bound if acc.is_infinity else None


# ---------------------------------------------------------------------------
# the discriminant quartic and the plane-curve coordinates
# ---------------------------------------------------------------------------

def quartic_condition(s1, s3) -> tuple[Rat, bool]:
    """Evaluate the discriminant quartic and test it for squareness.

    The product must be a rational square for the monic cubic with
    symmetric functions (sigma1, sigma2, sigma3) to have rational roots.
    """
    s1 = Fraction(s1)
    s3 = Fraction(s3)
    value = (
        (s1**3 * s3 - 9 * s1 * s1 - 27 * s1 * s3 - 54 * s3 * s3 - 27)
        * (1 + s3 * s3)
        * (s1 * s3 + 2 * s3 * s3 - 1)
    )
    return value, sqrt_exact(value) is not None


def map_w(t, q: Point) -> Rat:
    """The w coordinate of an affine point of the companion curve at t, in
    rationals (:func:`_w_value`); the isogeny route computes it on integers
    (:func:`dioph6.family._w_pair`)."""
    t = require_param(t)
    return _w_value(q, curve_Estar(t), *map_w_constants(t))


def map_X(t, w) -> Rat:
    """First plane-curve coordinate: X(w) = -w^2 / (4(t^2+1)^2)."""
    t = require_param(t)
    w = Fraction(w)
    return -w * w / (4 * (t * t + 1) ** 2)


def map_u(t, w) -> Rat:
    """Second plane-curve coordinate; u(w)^-1 is a base-curve x-coordinate.

    Undefined at w = +-2t, where the denominator t^2 - w^2/4 vanishes.
    """
    t = require_param(t)
    w = Fraction(w)
    tt = t * t
    quad = -w * w / 4 + tt
    if quad == 0:
        raise ValueError(f"u is undefined at w = {w} (w = +-2t)")
    return (w - tt - 1) / ((tt + 1) * quad) * map_X(t, w)


def plane_curve_value(t, X, u) -> Rat:
    """Defining polynomial of the two-torsion plane curve, evaluated at (X, u)."""
    t = require_param(t)
    X = Fraction(X)
    u = Fraction(u)
    tt = t * t
    aa = (tt + 1) ** 2
    return (
        X**3
        + (aa * u + 1) ** 2 / 4 * X * X
        + tt * (aa * u * u + u) / 2 * X
        + tt * tt * u * u / 4
    )


# ---------------------------------------------------------------------------
# the marked point of the induced curve
# ---------------------------------------------------------------------------

def _rho_witnesses(a, b, c) -> tuple[Rat, Rat, Rat]:
    a, b, c = Fraction(a), Fraction(b), Fraction(c)
    roots = (sqrt_exact(a * b + 1), sqrt_exact(a * c + 1), sqrt_exact(b * c + 1))
    if None in roots:
        raise ValueError(
            f"({a}, {b}, {c}) is not a Diophantine triple: a pairwise product + 1 is not square"
        )
    return roots  # type: ignore[return-value]


def point_Sprime(a, b, c) -> Point:
    """The marked point [1, rho_ab rho_ac rho_bc] with nonnegative roots.

    Negating any root only swaps this point with its inverse; the sextuple
    produced downstream is the same set either way.
    """
    r1, r2, r3 = _rho_witnesses(a, b, c)
    return Point(Fraction(1), r1 * r2 * r3)


def point_half(a, b, c) -> Point:
    """The point whose double is the marked point (so S' is in 2E'(Q))."""
    r1, r2, r3 = _rho_witnesses(a, b, c)
    return Point(
        r1 * r2 + r1 * r3 + r2 * r3 + 1,
        (r1 + r2) * (r1 + r3) * (r2 + r3),
    )


def order3_check(a, b, c) -> bool:
    """True iff the marked point has exact order 3 under the group law."""
    curve = induced_curve(a, b, c)
    s = point_Sprime(a, b, c)
    return curve.mul(3, s).is_infinity and not s.is_infinity


def half_point_check(a, b, c) -> bool:
    """True iff doubling :func:`point_half` lands exactly on the marked point."""
    return induced_curve(a, b, c).mul(2, point_half(a, b, c)) == point_Sprime(a, b, c)


def square_product_check(curve: Curve, q: Point, r: Point) -> tuple[Rat, bool]:
    """Evaluate x(Q) x(T) x(Q+T) + a6 on a curve whose a6 is a square.

    For monic curves carrying a rational point [0, alpha] the value is
    always a perfect square; the boolean reports the exact test.
    """
    if sqrt_exact(curve.a6) is None:
        raise ValueError(
            f"a6 = {curve.a6} is not a perfect square; the curve has no point [0, alpha]"
        )
    for name, pt in (("q", q), ("r", r)):
        if pt.is_infinity:
            raise ValueError(f"{name} must be affine")
        if not curve.contains(pt):
            raise ValueError(f"{name} = {pt} is not on {curve}")
    total_x = curve.add_x_unchecked(q, r)
    if total_x is None:
        raise ValueError("q + r must be affine")
    value = q.x * r.x * total_x + curve.a6
    return value, sqrt_exact(value) is not None


# ---------------------------------------------------------------------------
# the product-3/4 reconstruction
# ---------------------------------------------------------------------------

#: Depressed model of the t = 2 member of the family (x shifted by -11) and
#: its rank-1 generator; the sixth multiple of the generator yields the
#: smallest all-positive order-3 triple with product 3/4.
PRODUCT34_CURVE = Curve(Fraction(0), Fraction(1512), Fraction(33588))
PRODUCT34_GENERATOR = Point(Fraction(-11), Fraction(125))
_PRODUCT34_SHIFT = Fraction(11)


def reconstruct_product34_triple() -> TripleABC:
    """Rebuild the product-3/4 triple from the depressed-curve generator.

    Computes the sixth multiple of the generator, translates it to the
    t = 2 member of the family, checks it agrees with [6]R there, and
    extracts the triple through the isogeny route.
    """
    sixth = PRODUCT34_CURVE.mul(6, PRODUCT34_GENERATOR)
    if sixth.is_infinity:
        raise ConsistencyError("generator unexpectedly has order dividing 6")
    base = curve_E(2)
    lifted = Point(sixth.x + _PRODUCT34_SHIFT, sixth.y)
    if not base.contains(lifted):
        raise ConsistencyError("shifted generator multiple left the family curve")
    if lifted != base.mul(6, point_R(2)):
        raise ConsistencyError("generator multiple does not match the seed multiple")
    triple = triple_from_multiple(2, 6)
    if triple.sigma3 != Fraction(3, 4):
        raise ConsistencyError("reconstructed triple has the wrong product")
    return triple


# ---------------------------------------------------------------------------
# the closed forms and extension-curve membership
# ---------------------------------------------------------------------------

def abc_closed_form(t) -> tuple[Rat, Rat, Rat]:
    """The triple attached to [2]R, as rational functions of t."""
    t = require_param(t)
    return tuple(Fraction(n, d) for n, d in _elements(t.numerator, t.denominator))[:3]


def def_closed_form(t) -> tuple[Rat, Rat, Rat]:
    """The extension elements attached to [3]P', [3]P'+S', [3]P'-S'."""
    t = require_param(t)
    return tuple(Fraction(n, d) for n, d in _elements(t.numerator, t.denominator))[3:]


def rank_curve_membership(t) -> list[tuple[Rat, bool]]:
    """Check the five designated x values on y^2 = (dx+1)(ex+1)(fx+1).

    The values are 0, 1/(def), a, b, c; membership means the right-hand
    side is an exact rational square.
    """
    a, b, c = abc_closed_form(t)
    d, e, f = def_closed_form(t)
    xs = (Fraction(0), 1 / (d * e * f), a, b, c)
    return [
        (x, sqrt_exact((d * x + 1) * (e * x + 1) * (f * x + 1)) is not None)
        for x in xs
    ]


# ---------------------------------------------------------------------------
# invariants of the two-torsion model
# ---------------------------------------------------------------------------

def epp_invariants(t, pt: Point) -> tuple[Rat, Rat]:
    """Closed-form discriminant and c4 of the two-torsion model at a
    base-curve point: delta = t^6 y^2 / x^6 and
    c4 = ((t^2+1)^2 x^-1 + 1)(y^2 + 3 x^2 t^2) / x^3."""
    t = require_param(t)
    require_base_point(t, pt)
    x, y = pt.x, pt.y
    tt = t * t
    delta = tt**3 * y * y / x**6
    c4 = ((tt + 1) ** 2 / x + 1) * (y * y + 3 * x * x * tt) / x**3
    return delta, c4
