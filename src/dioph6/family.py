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

from dataclasses import dataclass
from fractions import Fraction

from .errors import ConsistencyError, DegeneracyError
from .exactnum import Rat, format_rat, sqrt_exact
from .weierstrass import Curve, Point

#: Multiples beyond this make coordinate digit counts (which grow
#: quadratically in m) unpleasant at desk scale.
DEFAULT_MAX_MULTIPLE = 8

EXCLUDED_PARAMS = (Fraction(-1), Fraction(0), Fraction(1))


def require_param(t) -> Rat:
    """Coerce and validate the family parameter: any rational except -1, 0, 1."""
    t = Fraction(t)
    if t in EXCLUDED_PARAMS:
        raise ValueError(f"parameter t = {t} is excluded (t must avoid -1, 0, 1)")
    return t


# ---------------------------------------------------------------------------
# the base curve and its seed point
# ---------------------------------------------------------------------------

def curve_E(t) -> Curve:
    """Base curve: y^2 = x^3 + 3(t^2-3t+1)(t^2+3t+1) x^2 + 3(t^2+1)^4 x + (t^2+1)^6."""
    t = require_param(t)
    tt = t * t
    return Curve(
        3 * (tt - 3 * t + 1) * (tt + 3 * t + 1),
        3 * (tt + 1) ** 4,
        (tt + 1) ** 6,
    )


def point_R(t) -> Point:
    """The seed point [0, (t^2+1)^3] of infinite order on the base curve."""
    t = require_param(t)
    return Point(Fraction(0), (t * t + 1) ** 3)


# ---------------------------------------------------------------------------
# the sigma algebra
# ---------------------------------------------------------------------------

def sigma3(t) -> Rat:
    """sigma3 = (t^2 - 1)/(2t); then 1 + sigma3^2 = ((t^2+1)/(2t))^2."""
    t = require_param(t)
    return (t * t - 1) / (2 * t)


def sigma1_from_x(t, x) -> Rat:
    """sigma1 attached to a base-curve x-coordinate (x must be nonzero)."""
    t = require_param(t)
    x = Fraction(x)
    if x == 0:
        raise ValueError("sigma1 is undefined at x = 0 (the seed point itself)")
    tt = t * t
    return (-tt * tt + 4 * tt - 1 - (tt + 1) ** 4 / x) / ((tt - 1) * t)


def sigma2_from(s1, s3) -> Rat:
    """sigma2 forced by the order-3 condition, as a function of sigma1, sigma3."""
    s1 = Fraction(s1)
    s3 = Fraction(s3)
    return (s1 * s1 * s3 * s3 - 12 * s3 * s3 - 6 * s1 * s3 - 3) / (4 + 4 * s3 * s3)


def three_torsion_value(a, b, c) -> Rat:
    """The symmetric polynomial whose vanishing makes the induced order-3
    point genuine (see :func:`three_torsion_condition`).

    In the symmetric functions s1, s2, s3 of a, b, c it is
    s3^2 (12 + 4 s2 - s1^2) + 6 s1 s3 + 4 s2 + 3.
    """
    a = Fraction(a)
    b = Fraction(b)
    c = Fraction(c)
    s1 = a + b + c
    s2 = a * b + a * c + b * c
    s3 = a * b * c
    return s3 * s3 * (12 + 4 * s2 - s1 * s1) + 6 * s1 * s3 + 4 * s2 + 3


def three_torsion_condition(a, b, c) -> bool:
    """True iff the triple satisfies the order-3 polynomial condition."""
    return three_torsion_value(a, b, c) == 0


# ---------------------------------------------------------------------------
# the isogenous companion curve and the w map
# ---------------------------------------------------------------------------

def curve_Estar(t) -> Curve:
    """Companion curve, 3-isogenous to the base curve."""
    t = require_param(t)
    tt = t * t
    return Curve(
        3 * (tt - 3 * t + 1) * (tt + 3 * t + 1),
        3 * (tt + 1) ** 2 * (tt * tt - 178 * tt + 1),
        (tt + 1) ** 2 * (tt * tt + 110 * tt + 1) ** 2,
    )


def point_Tstar(t) -> Point:
    """Order-3 point generating the isogeny kernel on the companion curve."""
    t = require_param(t)
    tt = t * t
    return Point(-(tt - 6 * t + 1) * (tt + 6 * t + 1), 27 * t * (t - 1) ** 2 * (t + 1) ** 2)


def point_Pstar(t) -> Point:
    """Companion-curve point mapping to the seed point under the isogeny."""
    t = require_param(t)
    tt = t * t
    return Point(-(tt + 1) * (tt + 18 * t + 1), 27 * t * (t + 1) ** 2 * (tt + 1))


def map_w_constants(t) -> tuple[Rat, Rat, Rat]:
    """The constants (v, r, s) of the w coordinate map."""
    t = require_param(t)
    tt = t * t
    v = Fraction(5, 4) * tt * tt + Fraction(59, 2) * tt + Fraction(5, 4)
    r = -Fraction(3, 2) * (tt + 1)
    s = -Fraction(27, 8) * (t - 1) ** 2 * (t + 1) ** 2 * (tt + 1)
    return v, r, s


def _w_value(q: Point, star: Curve, v: Rat, r: Rat, s: Rat) -> Rat:
    """The w coordinate of an affine point of the companion curve ``star``.

    w = (y + r(x - v) + s) / (-6(x - v)) with (v, r, s) from
    :func:`map_w_constants`.  At x = v the expression is 0/0 when y = -s;
    there it is resolved through the conjugate form
    (y + s)(y - s) = f(x) - f(v), which yields the tangent-slope value.
    The single genuine pole (v, s) is rejected.
    """
    if q.is_infinity:
        raise DegeneracyError("w is undefined at the point at infinity")
    x, y = q.x, q.y
    if x != v:
        return (y + r * (x - v) + s) / (-6 * (x - v))
    if y == -s:
        slope = (3 * x * x + 2 * star.a2 * x + star.a4) / (2 * y)
        return (slope + r) / Fraction(-6)
    raise DegeneracyError(f"point {q} is the pole of the w map")


def curve_Epp(t, x) -> Curve:
    """Two-torsion model attached to a nonzero base-curve x-coordinate.

    Its cubic has roots -(P + 1) t^2/(t^2+1)^2 for P running over the pair
    products ab, ac, bc of the associated triple; whenever (x, y) lies on
    the base curve its discriminant is t^6 y^2 / x^6.
    """
    t = require_param(t)
    x = Fraction(x)
    if x == 0:
        raise ValueError("the two-torsion model needs x != 0")
    tt = t * t
    aa = (tt + 1) ** 2
    return Curve(
        (aa / x + 1) ** 2 / 4,
        tt * (aa / (x * x) + 1 / x) / 2,
        tt * tt / (4 * x * x),
    )


# ---------------------------------------------------------------------------
# the validated triple
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TripleABC:
    """A rational triple {a, b, c} with square pairwise products + 1.

    Carries the nonnegative square-root witnesses rho_* of ab+1, ac+1,
    bc+1, and (when known) the family parameter t and multiple index m it
    was constructed from.  All constructed triples satisfy the order-3
    polynomial condition.
    """

    a: Rat
    b: Rat
    c: Rat
    rho_ab: Rat
    rho_ac: Rat
    rho_bc: Rat
    t: Rat | None = None
    m: int | None = None

    def __post_init__(self) -> None:
        for name in ("a", "b", "c", "rho_ab", "rho_ac", "rho_bc"):
            object.__setattr__(self, name, Fraction(getattr(self, name)))
        if self.t is not None:
            object.__setattr__(self, "t", Fraction(self.t))
        a, b, c = self.a, self.b, self.c
        if 0 in (a, b, c):
            raise ValueError("triple elements must be nonzero")
        if len({a, b, c}) != 3:
            raise ValueError("triple elements must be pairwise distinct")
        for rho, prod in ((self.rho_ab, a * b), (self.rho_ac, a * c), (self.rho_bc, b * c)):
            if rho < 0 or rho * rho != prod + 1:
                raise ValueError(f"witness {rho} does not square to {prod} + 1")
        if not three_torsion_condition(a, b, c):
            raise ValueError("triple does not satisfy the order-3 condition")

    @property
    def elements(self) -> tuple[Rat, Rat, Rat]:
        return (self.a, self.b, self.c)

    @property
    def sigma1(self) -> Rat:
        return self.a + self.b + self.c

    @property
    def sigma2(self) -> Rat:
        return self.a * self.b + self.a * self.c + self.b * self.c

    @property
    def sigma3(self) -> Rat:
        return self.a * self.b * self.c

    def to_json_dict(self) -> dict:
        keys = ("a", "b", "c", "rho_ab", "rho_ac", "rho_bc", "sigma1", "sigma2", "sigma3")
        return {key: format_rat(getattr(self, key)) for key in keys}


# ---------------------------------------------------------------------------
# triple extraction
# ---------------------------------------------------------------------------

def triple_from_multiple(t, m: int) -> TripleABC:
    """Recover the triple attached to the multiple [m]R of the seed point.

    The three preimages of [m]R under the 3-isogeny are [m-1]P*, [m-1]P*+T*
    and [m-1]P*+2T*; their w values give the three shifted, scaled pair
    products X1 = ab, X2 = ac, X3 = bc, from which
    a = sqrt(X1 X2 / X3), b = sqrt(X1 X3 / X2), c = sqrt(X2 X3 / X1).
    Square-root signs are fixed by the products themselves, up to one
    global flip resolved by abc = sigma3(t).
    """
    t = require_param(t)
    if m < 2:
        raise ValueError(f"multiple index must be at least 2, got {m}")
    if m > DEFAULT_MAX_MULTIPLE:
        raise ValueError(f"multiple index {m} exceeds the desk-scale cap {DEFAULT_MAX_MULTIPLE}")
    star = curve_Estar(t)
    kernel = point_Tstar(t)
    base = star.mul(m - 1, point_Pstar(t))
    star.require_on_curve(kernel)
    second = star.add_unchecked(base, kernel)
    third = star.add_unchecked(second, kernel)
    w_consts = map_w_constants(t)
    # the pair product is -lam^2 X(w) - 1 with lam = (t^2+1)/t, and
    # -lam^2 X(w) = w^2 lam^2 / (4(t^2+1)^2) = w^2 / (4t^2)
    scale = 1 / (4 * t * t)
    products = []
    for q in (base, second, third):
        if q.is_infinity:
            raise DegeneracyError(f"isogeny preimage of [{m}]R is at infinity")
        w = _w_value(q, star, *w_consts)
        products.append(w * w * scale - 1)
    x_ab, x_ac, x_bc = products
    if 0 in products:
        raise DegeneracyError(f"degenerate pair product for (t, m) = ({t}, {m})")

    mags = (
        sqrt_exact(x_ab * x_ac / x_bc),
        sqrt_exact(x_ab * x_bc / x_ac),
        sqrt_exact(x_ac * x_bc / x_ab),
    )
    if None in mags:
        raise ConsistencyError(
            f"non-square ratio extracting the triple at (t, m) = ({t}, {m}); "
            "the construction guarantees rational roots for multiples of the seed"
        )
    a = mags[0]
    b = mags[1] if x_ab > 0 else -mags[1]
    c = mags[2] if x_ac > 0 else -mags[2]
    s3 = sigma3(t)
    if a * b * c != s3:
        a, b, c = -a, -b, -c
    if a * b * c != s3 or a * b != x_ab or a * c != x_ac or b * c != x_bc:
        raise ConsistencyError(
            f"sign assignment failed at (t, m) = ({t}, {m}): products do not match"
        )

    rhos = tuple(sqrt_exact(p + 1) for p in (x_ab, x_ac, x_bc))
    if None in rhos:
        raise ConsistencyError(
            f"pair product + 1 is not a square at (t, m) = ({t}, {m})"
        )
    if len({a, b, c}) != 3:
        raise DegeneracyError(f"triple elements collide at (t, m) = ({t}, {m})")
    triple = TripleABC(a, b, c, *rhos, t=t, m=m)

    # cross-check the sigma algebra against the base-curve side
    x_m = curve_E(t).mul(m, point_R(t)).x
    s1 = sigma1_from_x(t, x_m)
    if (triple.sigma1, triple.sigma2, triple.sigma3) != (s1, sigma2_from(s1, s3), s3):
        raise ConsistencyError(
            f"triple at (t, m) = ({t}, {m}) disagrees with its symmetric functions"
        )
    return triple
