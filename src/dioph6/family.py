"""The parametrized construction.

For a rational parameter t outside {-1, 0, 1} there is a base curve with a
seed point of infinite order at x = 0.  Each multiple [m]R of the seed (with
m > 1) determines symmetric functions (sigma1, sigma2, sigma3) of a rational
triple {a, b, c} whose pairwise products increased by 1 are perfect squares
and whose induced curve carries a rational point of order 3.  The triple is
recovered in closed form through a degree-3 isogeny from a companion curve:
the three preimage points of [m]R are mapped by a coordinate function w to
the three roots of the two-torsion cubic, which are (up to a shift and a
scale) the pair products ab, ac, bc.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .errors import ConsistencyError, DegeneracyError
from .exactnum import (
    Rat,
    _as_rat,
    _coprime,
    _over_common_denominator,
    _q_div,
    _q_mul,
    _Value,
    format_rat,
)
from .weierstrass import Curve, Point, _affine, _cleared_discriminant

#: Multiples beyond this make coordinate digit counts (which grow
#: quadratically in m) unpleasant at desk scale.
DEFAULT_MAX_MULTIPLE = 8


def require_param(t) -> Rat:
    """Coerce and validate the family parameter: any rational except -1, 0, 1."""
    t = _as_rat(t)
    if t.denominator == 1 and -1 <= t.numerator <= 1:
        raise ValueError(f"parameter t = {t} is excluded (t must avoid -1, 0, 1)")
    return t


# ---------------------------------------------------------------------------
# the per-t values over the integers
# ---------------------------------------------------------------------------
#
# With t = p/q in lowest terms (q > 0), a value of weight k in t is q^-k
# times a form of degree k in (p, q), as for the closed forms of
# :mod:`dioph6.paramfam`.  The helpers below take (p, q) of a parameter that
# :func:`require_param` has accepted and build each value from those
# integers with one reduction; the pipeline checks t once and calls them.
# E(t) is written once, as :func:`_cleared_E`'s integers, which build
# :func:`_curve_E` and against which ``reduce`` tests its base point.
# :mod:`dioph6.identities` states each value as a function of t, with its
# formula.  Throughout, s = p^2 + q^2 is the form of t^2 + 1.

def _cleared_E(p: int, q: int) -> tuple[int, int, int, int]:
    """E(t) as the integers (d, c2, c4, c6) over d = q^12:
    c2 = 3 q^8 (s^2 - 9 p^2 q^2), c4 = 3 q^4 s^4, c6 = s^6."""
    pp, qq = p * p, q * q
    ss = (pp + qq) ** 2
    q4 = qq * qq
    # (t^2 - 3t + 1)(t^2 + 3t + 1) = (t^2 + 1)^2 - 9t^2
    return q4**3, 3 * q4 * q4 * (ss - 9 * pp * qq), 3 * q4 * ss * ss, ss**3


def _curve_E(p: int, q: int) -> Curve:
    d, c2, c4, c6 = _cleared_E(p, q)
    return Curve(Fraction(c2, d), Fraction(c4, d), Fraction(c6, d))


def _point_R(p: int, q: int) -> Point:
    # s is prime to q, so s^3/q^6 is in lowest terms
    return _affine(Fraction(0), _coprime((p * p + q * q) ** 3, q**6))


# ---------------------------------------------------------------------------
# the sigma algebra
# ---------------------------------------------------------------------------

def _sigma3(p: int, q: int) -> tuple[int, int]:
    """sigma3 as a pair (num, den), not reduced."""
    return p * p - q * q, 2 * p * q


def _sigma1(p: int, q: int, xn: int, xd: int) -> tuple[int, int]:
    """sigma1 at x = xn/xd as a pair (num, den), not reduced; den = 0
    exactly when x = 0."""
    pp, qq = p * p, q * q
    q4 = qq * qq
    s = pp + qq
    return (
        (4 * pp * qq - pp * pp - q4) * q4 * xn - s**4 * xd,
        q4 * q * p * (pp - qq) * xn,
    )


def _sigma2(n1: int, d1: int, n3: int, d3: int) -> tuple[int, int]:
    """sigma2 from sigma1 = n1/d1 and sigma3 = n3/d3, as a pair (num, den)
    with den > 0 (for nonzero d1, d3), not reduced."""
    return (
        n1 * n1 * n3 * n3 - 12 * n3 * n3 * d1 * d1 - 6 * n1 * n3 * d1 * d3 - 3 * d1 * d1 * d3 * d3,
        4 * d1 * d1 * (d3 * d3 + n3 * n3),
    )


def _order3(den: int, na: int, nb: int, nc: int) -> int:
    """den^8 times the order-3 polynomial s3^2 (12 + 4 s2 - s1^2) +
    6 s1 s3 + 4 s2 + 3 in the symmetric functions of a = na/den,
    b = nb/den, c = nc/den."""
    d2 = den * den
    d4 = d2 * d2
    s1 = na + nb + nc
    s2 = na * nb + na * nc + nb * nc
    s3 = na * nb * nc
    return s3 * s3 * (12 * d2 + 4 * s2 - s1 * s1) + (6 * s1 * s3 + (4 * s2 + 3 * d2) * d2) * d4


# ---------------------------------------------------------------------------
# the isogenous companion curve and the w map
# ---------------------------------------------------------------------------

def _curve_Estar(p: int, q: int) -> Curve:
    pp, qq = p * p, q * q
    s = pp + qq
    p4, q4 = pp * pp, qq * qq
    return Curve(
        Fraction(3 * (s * s - 9 * pp * qq), q4),
        Fraction(3 * s * s * (p4 - 178 * pp * qq + q4), q4 * q4),
        Fraction((s * (p4 + 110 * pp * qq + q4)) ** 2, q4**3),
    )


def _point_Tstar(p: int, q: int) -> Point:
    pp, qq = p * p, q * q
    s = pp + qq
    # (t^2 - 6t + 1)(t^2 + 6t + 1) = (t^2 + 1)^2 - 36t^2, prime to q
    return _affine(
        _coprime(36 * pp * qq - s * s, qq * qq),
        Fraction(27 * p * (pp - qq) ** 2, q**5),
    )


def _point_Pstar(p: int, q: int) -> Point:
    pp, qq = p * p, q * q
    s = pp + qq
    # s (t^2 + 18t + 1) is prime to q
    return _affine(
        _coprime(-s * (pp + 18 * p * q + qq), qq * qq),
        Fraction(27 * p * (p + q) ** 2 * s, q**5),
    )


def _w_constants(p: int, q: int) -> tuple[int, int, int]:
    """(V, r2, s8) with v = V/(4q^4), r = r2/(2q^2), s = s8/(8q^6) for the
    constants (v, r, s) of the w map."""
    pp, qq = p * p, q * q
    s = pp + qq
    return 5 * pp * pp + 118 * pp * qq + 5 * qq * qq, -3 * s, -27 * (pp - qq) ** 2 * s


def _w_pair(p: int, q: int, pt: Point, star: Curve) -> tuple[int, int]:
    """The w coordinate of an affine point of ``star`` = E*(t), t = p/q, as
    a pair (num, den) in lowest terms with den > 0.

    w = (y + r(x - v) + s) / (-6(x - v)) with the constants of
    :func:`_w_constants`.  With x = X/D and y = Y/E in lowest terms and
    G = 4 q^4 X - V D, w = (D (8 q^6 Y + s8 E) + r2 G E) / (-12 q^2 E G).
    At x = v (G = 0, met by every m = 3 triple), (v, s) is the pole, and
    at (v, -s) the conjugate form (y + s)(y - s) = f(x) - f(v) resolves
    0/0 to the tangent-slope value (slope + r)/(-6).
    """
    if pt.is_infinity:
        raise DegeneracyError("w is undefined at the point at infinity")
    v, r2, s8 = _w_constants(p, q)
    qq = q * q
    q4 = qq * qq
    x, y = pt.x, pt.y
    xn, xd, yn, yd = x.numerator, x.denominator, y.numerator, y.denominator
    gap = 4 * q4 * xn - v * xd
    lift = 8 * q4 * qq * yn + s8 * yd  # 8 q^6 E (y + s)
    if gap == 0:
        if lift != 0:
            raise DegeneracyError(f"point {pt} is the pole of the w map")
        slope = (3 * x * x + 2 * star.a2 * x + star.a4) / (2 * y)
        w = (slope + Fraction(r2, 2 * qq)) / -6
        return w.numerator, w.denominator
    num = xd * lift + r2 * gap * yd
    den = 12 * qq * yd * gap
    g = gcd(num, den)
    # w = num / (-den)
    return (num // g, -den // g) if den < 0 else (-num // g, den // g)


def _cleared_Epp(p: int, q: int, x: Rat) -> tuple[int, int, int, int, int]:
    """The two-torsion model at t = p/q for a nonzero x = X/D as integers
    (d, c2, c4, c6, disc): a_i = c_i/d over d = 4 q^8 X^2 (not always the
    least common denominator) with s = p^2 + q^2, k = s^2 D + q^4 X, c2 = k^2,
    c4 = 2 q^2 p^2 D k, c6 = q^4 p^4 D^2, and disc = d^4 times the cubic's
    discriminant.  A singular model raises :class:`Curve`'s own error."""
    xn, xd = x.numerator, x.denominator
    pp, qq = p * p, q * q
    q4 = qq * qq
    k = (pp + qq) ** 2 * xd + q4 * xn
    d, c2, c4, c6 = 4 * q4 * q4 * xn * xn, k * k, 2 * qq * pp * xd * k, q4 * (pp * xd) ** 2
    disc = _cleared_discriminant(d, c2, c4, c6)
    if disc == 0:  # the Curve of these coefficients names them in its error
        Curve(Fraction(c2, d), Fraction(c4, d), Fraction(c6, d))
    return d, c2, c4, c6, disc


# ---------------------------------------------------------------------------
# the validated triple
# ---------------------------------------------------------------------------

class TripleABC(_Value):
    """A rational triple {a, b, c} with square pairwise products + 1.

    Carries the nonnegative square-root witnesses rho_* of ab+1, ac+1,
    bc+1, and (when known) the family parameter t and multiple index m it
    was constructed from.  All constructed triples satisfy the order-3
    polynomial condition.
    """

    _fields = ("a", "b", "c", "rho_ab", "rho_ac", "rho_bc", "t", "m")
    __slots__ = (*_fields, "_cleared")
    a: Rat
    b: Rat
    c: Rat
    rho_ab: Rat
    rho_ac: Rat
    rho_bc: Rat
    t: Rat | None
    m: int | None
    #: (den, na, nb, nc) with a = na/den, b = nb/den, c = nc/den over the
    #: least common denominator; the checks and the symmetric functions work
    #: with these integers.
    _cleared: tuple[int, int, int, int]

    def __init__(
        self, a: Rat, b: Rat, c: Rat, rho_ab: Rat, rho_ac: Rat, rho_bc: Rat,
        t: Rat | None = None, m: int | None = None,
    ) -> None:
        a, b, c = _as_rat(a), _as_rat(b), _as_rat(c)
        rhos = (_as_rat(rho_ab), _as_rat(rho_ac), _as_rat(rho_bc))
        _Value.__init__(self, a, b, c, *rhos, None if t is None else _as_rat(t), m)
        if 0 in (a, b, c):
            raise ValueError("triple elements must be nonzero")
        cleared = _over_common_denominator(a, b, c)
        object.__setattr__(self, "_cleared", cleared)
        den, na, nb, nc = cleared
        if na == nb or na == nc or nb == nc:
            raise ValueError("triple elements must be pairwise distinct")
        dd = den * den
        for rho, prod in zip(rhos, (na * nb, na * nc, nb * nc)):
            # rho^2 = prod/den^2 + 1
            if rho < 0 or rho.numerator**2 * dd != rho.denominator**2 * (prod + dd):
                raise ValueError(f"witness {rho} does not square to {Fraction(prod, dd)} + 1")
        if _order3(*cleared) != 0:
            raise ValueError("triple does not satisfy the order-3 condition")

    @property
    def elements(self) -> tuple[Rat, Rat, Rat]:
        return (self.a, self.b, self.c)

    @property
    def sigma1(self) -> Rat:
        den, na, nb, nc = self._cleared
        return Fraction(na + nb + nc, den)

    @property
    def sigma2(self) -> Rat:
        den, na, nb, nc = self._cleared
        return Fraction(na * nb + na * nc + nb * nc, den * den)

    @property
    def sigma3(self) -> Rat:
        den, na, nb, nc = self._cleared
        return Fraction(na * nb * nc, den**3)

    def to_json_dict(self) -> dict:
        keys = ("a", "b", "c", "rho_ab", "rho_ac", "rho_bc", "sigma1", "sigma2", "sigma3")
        return {key: format_rat(getattr(self, key)) for key in keys}


# ---------------------------------------------------------------------------
# triple extraction
# ---------------------------------------------------------------------------

def triple_from_multiple(t, m: int) -> TripleABC:
    """Recover the triple attached to the multiple [m]R of the seed point.

    The three preimages of [m]R under the 3-isogeny are [m-1]P*, [m-1]P*+T*
    and [m-1]P*+2T*.  Each preimage's w value gives a witness
    rho = |w|/(2|t|) and the pair product rho^2 - 1: X1 = ab, X2 = ac and
    X3 = bc, the roots of the two-torsion cubic of the induced curve.  By
    Vieta their product is sigma3(t)^2, which is checked once; then
    a = sigma3/X3, b = sigma3/X2 and c = sigma3/X1, so that abc = sigma3.
    No square root is taken: :class:`TripleABC` squares the witnesses back
    and checks the order-3 condition.

    t is validated once; everything after works on t = p/q, the rationals
    as (num, den) pairs in lowest terms.
    """
    t = require_param(t)
    if m < 2:
        raise ValueError(f"multiple index must be at least 2, got {m}")
    if m > DEFAULT_MAX_MULTIPLE:
        raise ValueError(f"multiple index {m} exceeds the desk-scale cap {DEFAULT_MAX_MULTIPLE}")
    p, q = t.numerator, t.denominator
    star = _curve_Estar(p, q)
    kernel = _point_Tstar(p, q)
    base = star.mul(m - 1, _point_Pstar(p, q))
    star.require_on_curve(kernel)
    second = star.add_unchecked(base, kernel)
    third = star.add_unchecked(second, kernel)
    # the pair product is -lam^2 X(w) - 1 with lam = (t^2+1)/t, and
    # -lam^2 X(w) = w^2 lam^2 / (4(t^2+1)^2) = w^2 / (4t^2).  1/(2|t|) is
    # in lowest terms once both parts are halved when q is even, so each
    # witness is, and rho^2 - 1 over its denominator squared is too
    g = gcd(q, 2)
    inv2t = (q // g, 2 * abs(p) // g)
    rhos, products = [], []
    for pt in (base, second, third):
        if pt.is_infinity:
            raise DegeneracyError(f"isogeny preimage of [{m}]R is at infinity")
        wn, wd = _w_pair(p, q, pt, star)
        rn, rd = _q_mul(abs(wn), wd, *inv2t)
        rhos.append((rn, rd))
        products.append((rn * rn - rd * rd, rd * rd))
    x_ab, x_ac, x_bc = products
    if any(num == 0 for num, _ in products):
        raise DegeneracyError(f"degenerate pair product for (t, m) = ({t}, {m})")

    s3 = Fraction(*_sigma3(p, q))
    n3, d3 = s3.numerator, s3.denominator
    if x_ab[0] * x_ac[0] * x_bc[0] * d3 * d3 != n3 * n3 * x_ab[1] * x_ac[1] * x_bc[1]:
        raise ConsistencyError(
            f"pair products at (t, m) = ({t}, {m}) do not multiply to sigma3^2"
        )
    a, b, c = (_q_div(n3, d3, *x) for x in (x_bc, x_ac, x_ab))
    if len({a, b, c}) != 3:
        raise DegeneracyError(f"triple elements collide at (t, m) = ({t}, {m})")
    triple = TripleABC(*(_coprime(*x) for x in (a, b, c, *rhos)), t=t, m=m)

    # cross-check sigma1 and sigma2 against the base-curve side (abc =
    # sigma3 holds by construction): with the triple over its common
    # denominator, compare by cross-multiplication
    x_m = _curve_E(p, q).mul(m, _point_R(p, q)).x
    n1, d1 = _sigma1(p, q, x_m.numerator, x_m.denominator)
    n2, d2 = _sigma2(n1, d1, n3, d3)
    den, na, nb, nc = triple._cleared
    if (
        (na + nb + nc) * d1 != n1 * den
        or (na * nb + na * nc + nb * nc) * d2 != n2 * den * den
    ):
        raise ConsistencyError(
            f"triple at (t, m) = ({t}, {m}) disagrees with its symmetric functions"
        )
    return triple
