import random
from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from dioph6 import family
from dioph6.errors import ConsistencyError, DegeneracyError
from dioph6.exactnum import sqrt_exact
from dioph6.family import (
    TripleABC,
    _w_pair,
    require_param,
    triple_from_multiple,
)
from dioph6.identities import (
    _w_value,
    curve_E,
    curve_Epp,
    curve_Estar,
    map_u,
    map_w,
    map_w_constants,
    map_X,
    plane_curve_value,
    point_Pstar,
    point_R,
    point_Tstar,
    quartic_condition,
    sigma1_from_x,
    sigma2_from,
    sigma3,
    std_quantities,
    three_torsion_condition,
    three_torsion_value,
)
from dioph6.weierstrass import INFINITY, Curve, Point


def _abc_closed(t):
    a = 18 * t * (t - 1) * (t + 1) / ((t * t - 6 * t + 1) * (t * t + 6 * t + 1))
    b = (t - 1) * (t * t + 6 * t + 1) ** 2 / (6 * t * (t + 1) * (t * t - 6 * t + 1))
    c = (t + 1) * (t * t - 6 * t + 1) ** 2 / (6 * t * (t - 1) * (t * t + 6 * t + 1))
    return a, b, c


# ---------------------------------------------------------------------------
# parameter domain and the base curve
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("bad", [-1, 0, 1, F(1), F(-1)])
def test_excluded_parameters(bad):
    with pytest.raises(ValueError):
        require_param(bad)
    with pytest.raises(ValueError):
        curve_E(bad)


def test_curve_E_fixture():
    e2 = curve_E(2)
    assert (e2.a2, e2.a4, e2.a6) == (-33, 1875, 15625)
    assert curve_E(6).contains(point_R(6))


def test_point_R_values():
    assert point_R(2) == Point(0, 125)  # 5^3
    assert point_R(6) == Point(0, 50653)  # 37^3


# ---------------------------------------------------------------------------
# sigma algebra
# ---------------------------------------------------------------------------

def test_sigma3_values():
    assert sigma3(6) == F(35, 12)
    assert 1 + sigma3(6) ** 2 == F(37, 12) ** 2
    assert sigma3(2) == F(3, 4)
    with pytest.raises(ValueError):
        sigma3(-1)


def test_sigma1_from_x_oracle():
    # oracle: sum of the closed-form triple at t = 2
    a, b, c = _abc_closed(F(2))
    assert (a, b, c) == (F(-108, 119), F(-289, 252), F(49, 68))
    x = curve_E(2).mul(2, point_R(2)).x
    assert x == F(357, 4)
    assert sigma1_from_x(2, x) == a + b + c
    with pytest.raises(ValueError):
        sigma1_from_x(2, 0)


def test_sigma2_oracle():
    # oracle: elementary symmetric function of the closed-form triple
    a, b, c = _abc_closed(F(2))
    s1, s3 = a + b + c, a * b * c
    assert a * b + a * c + b * c == F(51, 49) - F(189, 289) - F(119, 144)
    assert sigma2_from(s1, s3) == a * b + a * c + b * c
    assert sigma2_from(0, 0) == F(-3, 4)


def test_sigma2_matches_product34_value():
    # the triple with product 3/4 satisfies the same relation
    tri = triple_from_multiple(2, 6)
    assert tri.sigma3 == F(3, 4)
    assert sigma2_from(tri.sigma1, tri.sigma3) == tri.sigma2


def test_sigma_triple_validation():
    s3 = sigma3(2)
    assert s3 == F(3, 4)
    assert sqrt_exact(1 + s3 * s3) is not None
    s1 = sigma1_from_x(2, F(357, 4))
    assert s1 == triple_from_multiple(2, 2).sigma1
    assert sigma2_from(s1, s3) == triple_from_multiple(2, 2).sigma2


def test_quartic_condition():
    for t in (F(2), F(6)):
        x = curve_E(t).mul(2, point_R(t)).x
        value, square = quartic_condition(sigma1_from_x(t, x), sigma3(t))
        assert square, (t, value)
    value, square = quartic_condition(0, 0)
    assert value == 27 and not square  # (-27)(1)(-1)


def test_three_torsion_polynomial():
    t6 = triple_from_multiple(6, 2)
    assert three_torsion_condition(*t6.elements)
    assert three_torsion_value(1, 3, 8) == 6479
    assert not three_torsion_condition(1, 3, 8)
    assert three_torsion_value(0, 0, 0) == 3


def _three_torsion_expanded(a, b, c):
    return (
        -(a**4) * b**2 * c**2
        + 2 * a**3 * b**3 * c**2
        + 2 * a**3 * b**2 * c**3
        - a**2 * b**4 * c**2
        + 2 * a**2 * b**3 * c**3
        - a**2 * b**2 * c**4
        + 12 * a**2 * b**2 * c**2
        + 6 * a**2 * b * c
        + 6 * a * b**2 * c
        + 6 * a * b * c**2
        + 4 * a * b
        + 4 * a * c
        + 4 * b * c
        + 3
    )


_FRACTIONS = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**4)


@given(_FRACTIONS, _FRACTIONS, _FRACTIONS)
def test_three_torsion_value_matches_expanded_polynomial(a, b, c):
    assert three_torsion_value(a, b, c) == _three_torsion_expanded(a, b, c)


# ---------------------------------------------------------------------------
# companion curve and coordinate maps
# ---------------------------------------------------------------------------

def test_curve_Estar_fixture():
    star = curve_Estar(2)
    assert (star.a2, star.a4, star.a6) == (-33, -52125, 5221225)
    with pytest.raises(ValueError):
        curve_Estar(0)


def test_companion_points():
    star = curve_Estar(2)
    kernel = point_Tstar(2)
    seed = point_Pstar(2)
    assert kernel == Point(119, 486)
    assert 486**2 == 236196  # equation check witness
    assert seed == Point(-205, 2430)
    assert 2430**2 == 5904900
    assert star.contains(kernel) and star.contains(seed)
    assert star.mul(3, kernel) == INFINITY


def test_map_w_constants():
    assert map_w_constants(2) == (F(557, 4), F(-15, 2), F(-1215, 8))


def test_map_X_and_u_values():
    assert map_X(2, 10) == -1
    assert map_u(2, 10) == F(1, 21)
    assert map_X(2, 0) == 0
    with pytest.raises(ValueError):
        map_u(2, 4)  # w = 2t


def test_map_w_isogeny_compatibility():
    # u(w(Q))^-1 equals x of the isogeny image translated by the seed
    for t in (F(2), F(6), F(5, 4)):
        base = curve_E(t)
        star = curve_Estar(t)
        pstar = point_Pstar(t)
        kernel = point_Tstar(t)
        seed = point_R(t)
        for k in range(1, 5):
            for j in range(3):
                q = star.add(star.mul(k, pstar), star.mul(j, kernel))
                u = map_u(t, map_w(t, q))
                assert 1 / u == base.mul(k + 1, seed).x, (t, k, j)


def test_map_w_removable_point():
    # [2]P* + T* at t = 2 sits exactly on the 0/0 point of the w formula
    star = curve_Estar(2)
    v, r, s = map_w_constants(2)
    q = star.add(star.mul(2, point_Pstar(2)), point_Tstar(2))
    assert q.x == v and q.y == -s
    assert map_w(2, q) == F(119, 40)


def test_map_w_pole_rejected():
    v, _, s = map_w_constants(2)
    star = curve_Estar(2)
    pole = Point(v, s)
    assert star.contains(pole)
    with pytest.raises(DegeneracyError):
        map_w(2, pole)
    with pytest.raises(DegeneracyError):
        map_w(2, INFINITY)


def test_w_image_lies_on_plane_curve():
    rng = random.Random(2)
    for t in (F(2), F(3), F(7, 2)):
        star = curve_Estar(t)
        pstar = point_Pstar(t)
        kernel = point_Tstar(t)
        for _ in range(6):
            k = rng.randint(1, 4)
            j = rng.randint(0, 2)
            q = star.add(star.mul(k, pstar), star.mul(j, kernel))
            w = map_w(t, q)
            assert plane_curve_value(t, map_X(t, w), map_u(t, w)) == 0


# ---------------------------------------------------------------------------
# the two-torsion model
# ---------------------------------------------------------------------------

def test_curve_Epp_delta_and_c4_identities():
    for t, m in ((F(2), 2), (F(3), 2), (F(6), 3)):
        base = curve_E(t)
        pt = base.mul(m, point_R(t))
        model = curve_Epp(t, pt.x)
        sq = std_quantities(model)
        assert sq.delta == t**6 * pt.y**2 / pt.x**6
        assert sq.c4 == ((t * t + 1) ** 2 / pt.x + 1) * (pt.y**2 + 3 * pt.x**2 * t * t) / pt.x**3


def test_curve_Epp_roots_are_shifted_products(t2_triple):
    # oracle: apply the shift and scale to the induced-curve roots
    t = F(2)
    x = curve_E(t).mul(2, point_R(t)).x
    model = curve_Epp(t, x)
    scale2 = (t / (t * t + 1)) ** 2
    a, b, c = t2_triple.elements
    for prod in (a * b, a * c, b * c):
        root = -(prod + 1) * scale2
        assert root**3 + model.a2 * root**2 + model.a4 * root + model.a6 == 0


def test_curve_Epp_rejects_zero():
    with pytest.raises(ValueError):
        curve_Epp(2, 0)


# ---------------------------------------------------------------------------
# triple extraction
# ---------------------------------------------------------------------------

def test_triple_t2_matches_closed_forms(t2_triple):
    assert set(t2_triple.elements) == {F(-108, 119), F(-289, 252), F(49, 68)}
    # direct multiplication oracle for the witnesses (labels inside the set
    # are conventional, the witness multiset is not)
    assert {t2_triple.rho_ab, t2_triple.rho_ac, t2_triple.rho_bc} == {
        F(10, 7), F(10, 17), F(5, 12),
    }
    a, b, c = F(-108, 119), F(-289, 252), F(49, 68)
    assert a * b + 1 == F(10, 7) ** 2
    assert a * c + 1 == F(10, 17) ** 2
    assert b * c + 1 == F(5, 12) ** 2
    assert t2_triple.rho_ab**2 == t2_triple.a * t2_triple.b + 1
    assert t2_triple.rho_ac**2 == t2_triple.a * t2_triple.c + 1
    assert t2_triple.rho_bc**2 == t2_triple.b * t2_triple.c + 1


def test_triple_t6_printed_values(t6_triple):
    assert set(t6_triple.elements) == {F(3780, 73), F(26645, 252), F(7, 13140)}


def test_triple_closed_form_agreement_across_t():
    for t in (F(3), F(7), F(5, 4), F(-3)):
        assert set(triple_from_multiple(t, 2).elements) == set(_abc_closed(t))


def test_triple_rejects_bad_m():
    with pytest.raises(ValueError):
        triple_from_multiple(2, 1)
    with pytest.raises(ValueError):
        triple_from_multiple(2, 9)
    assert triple_from_multiple(2, 8) is not None


def test_triple_invariants_random_sample():
    rng = random.Random(99)
    pool = [F(n, d) for n in range(-9, 10) for d in (1, 2, 3, 4)]
    pool = [t for t in pool if t not in (-1, 0, 1)]
    done = 0
    while done < 8:
        t = rng.choice(pool)
        m = rng.randint(2, 5)
        tri = triple_from_multiple(t, m)
        s1 = sigma1_from_x(t, curve_E(t).mul(m, point_R(t)).x)
        s3 = sigma3(t)
        assert (tri.sigma1, tri.sigma2, tri.sigma3) == (s1, sigma2_from(s1, s3), s3)
        assert three_torsion_condition(*tri.elements)
        _, square = quartic_condition(tri.sigma1, tri.sigma3)
        assert square
        for prod in (tri.a * tri.b, tri.a * tri.c, tri.b * tri.c):
            assert sqrt_exact(prod + 1) is not None
        done += 1


def _rational_roots(s1, s2, s3):
    """The rational roots of z^3 - s1 z^2 + s2 z - s3 by sympy, or None
    where sympy is not installed."""
    try:
        import sympy
    except ImportError:
        return None
    z = sympy.Symbol("z")
    s1, s2, s3 = (sympy.Rational(x.numerator, x.denominator) for x in (s1, s2, s3))
    roots = sympy.Poly(z**3 - s1 * z**2 + s2 * z - s3, z).ground_roots()
    return {F(int(r.p), int(r.q)): k for r, k in roots.items()}


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=-10**4, max_value=10**4),
    st.integers(min_value=1, max_value=10**3),
    st.integers(min_value=2, max_value=6),
)
@example(-39, 4, 2)
@example(-8, 5, 3)
def test_triple_labels_match_the_rational_preimages(p, q, m):
    """Each pair product is w^2/(4t^2) - 1 of its own preimage, in the
    order (ab, ac, bc), and each witness is |w|/(2|t|) in lowest terms."""
    t = F(p, q)
    assume(t not in (-1, 0, 1))
    star, kernel = curve_Estar(t), point_Tstar(t)
    base = star.mul(m - 1, point_Pstar(t))
    second = star.add(base, kernel)
    preimages = (base, second, star.add(second, kernel))
    try:
        ws = [map_w(t, pt) for pt in preimages]
    except DegeneracyError:
        with pytest.raises(DegeneracyError):
            triple_from_multiple(t, m)
        return
    tri = triple_from_multiple(t, m)
    a, b, c = tri.elements
    assert (a * b, a * c, b * c) == tuple(w * w / (4 * t * t) - 1 for w in ws)
    rhos = (tri.rho_ab, tri.rho_ac, tri.rho_bc)
    assert rhos == tuple(abs(w) / (2 * abs(t)) for w in ws)
    for x in (a, b, c, *rhos):
        assert x.denominator > 0 and gcd(x.numerator, x.denominator) == 1
    s1 = sigma1_from_x(t, curve_E(t).mul(m, point_R(t)).x)
    s3 = sigma3(t)
    roots = _rational_roots(s1, sigma2_from(s1, s3), s3)
    assert roots is None or roots == {a: 1, b: 1, c: 1}


# ---------------------------------------------------------------------------
# the integer forms against the rational-function bodies
# ---------------------------------------------------------------------------
# The functions below evaluate each per-t value as a rational function of t
# in Fraction arithmetic; the package evaluates them on t = p/q over the
# integers, and the two must agree everywhere.

def _rational_curve_E(t):
    tt = t * t
    return Curve(3 * (tt - 3 * t + 1) * (tt + 3 * t + 1), 3 * (tt + 1) ** 4, (tt + 1) ** 6)


def _rational_curve_Estar(t):
    tt = t * t
    return Curve(
        3 * (tt - 3 * t + 1) * (tt + 3 * t + 1),
        3 * (tt + 1) ** 2 * (tt * tt - 178 * tt + 1),
        (tt + 1) ** 2 * (tt * tt + 110 * tt + 1) ** 2,
    )


def _rational_points(t):
    """R, T* and P*."""
    tt = t * t
    return (
        Point(F(0), (tt + 1) ** 3),
        Point(-(tt - 6 * t + 1) * (tt + 6 * t + 1), 27 * t * (t - 1) ** 2 * (t + 1) ** 2),
        Point(-(tt + 1) * (tt + 18 * t + 1), 27 * t * (t + 1) ** 2 * (tt + 1)),
    )


def _rational_w_constants(t):
    tt = t * t
    return (
        F(5, 4) * tt * tt + F(59, 2) * tt + F(5, 4),
        -F(3, 2) * (tt + 1),
        -F(27, 8) * (t - 1) ** 2 * (t + 1) ** 2 * (tt + 1),
    )


def _rational_sigma1(t, x):
    tt = t * t
    return (-tt * tt + 4 * tt - 1 - (tt + 1) ** 4 / x) / ((tt - 1) * t)


def _rational_sigma2(s1, s3):
    return (s1 * s1 * s3 * s3 - 12 * s3 * s3 - 6 * s1 * s3 - 3) / (4 + 4 * s3 * s3)


def _rational_three_torsion(a, b, c):
    s1, s2, s3 = a + b + c, a * b + a * c + b * c, a * b * c
    return s3 * s3 * (12 + 4 * s2 - s1 * s1) + 6 * s1 * s3 + 4 * s2 + 3


def _rational_curve_Epp(t, x):
    tt = t * t
    aa = (tt + 1) ** 2
    return Curve((aa / x + 1) ** 2 / 4, tt * (aa / (x * x) + 1 / x) / 2, tt * tt / (4 * x * x))


_WIDE_PARAMS = st.fractions(min_value=-10**4, max_value=10**4, max_denominator=10**3).filter(
    lambda t: t not in (-1, 0, 1)
)
_NONZERO = _FRACTIONS.filter(bool)


@given(_WIDE_PARAMS, _NONZERO)
def test_per_t_values_match_rational_bodies(t, x):
    for integer, rational in ((curve_E(t), _rational_curve_E(t)), (curve_Estar(t), _rational_curve_Estar(t))):
        assert (integer.a2, integer.a4, integer.a6) == (rational.a2, rational.a4, rational.a6)
    assert (point_R(t), point_Tstar(t), point_Pstar(t)) == _rational_points(t)
    assert map_w_constants(t) == _rational_w_constants(t)
    assert sigma3(t) == (t * t - 1) / (2 * t)
    assert sigma1_from_x(t, x) == _rational_sigma1(t, x)
    model, rational = curve_Epp(t, x), _rational_curve_Epp(t, x)
    assert (model.a2, model.a4, model.a6) == (rational.a2, rational.a4, rational.a6)


@given(_FRACTIONS, _FRACTIONS, _FRACTIONS)
def test_sigma2_and_order3_match_rational_bodies(a, b, c):
    assert sigma2_from(a, b) == _rational_sigma2(a, b)
    assert three_torsion_value(a, b, c) == _rational_three_torsion(a, b, c)
    assert three_torsion_condition(a, b, c) == (_rational_three_torsion(a, b, c) == 0)


@settings(max_examples=40, deadline=None)
@given(_WIDE_PARAMS, st.integers(min_value=0, max_value=4), st.integers(min_value=0, max_value=2))
def test_w_pair_matches_rational_w(t, k, j):
    star = curve_Estar(t)
    pt = star.add(star.mul(k, point_Pstar(t)), star.mul(j, point_Tstar(t)))
    consts = _rational_w_constants(t)
    p, q = t.numerator, t.denominator
    try:
        want = _w_value(pt, star, *consts)
    except DegeneracyError:
        with pytest.raises(DegeneracyError):
            _w_pair(p, q, pt, star)
        return
    assert _w_pair(p, q, pt, star) == (want.numerator, want.denominator)


@given(_WIDE_PARAMS)
def test_w_pair_at_x_equal_v_matches_rational_w(t):
    """The two points of E*(t) with x = v: (v, -s) takes the identities'
    tangent-slope value and (v, s) is the pole, for every t."""
    star = curve_Estar(t)
    v, r, s = map_w_constants(t)
    removable, pole = Point(v, -s), Point(v, s)
    assert star.contains(removable) and star.contains(pole)
    want = _w_value(removable, star, v, r, s)
    assert _w_pair(t.numerator, t.denominator, removable, star) == (want.numerator, want.denominator)
    with pytest.raises(DegeneracyError, match="pole of the w map"):
        _w_pair(t.numerator, t.denominator, pole, star)


def test_w_pair_at_the_removable_point_and_the_pole():
    star = curve_Estar(2)
    q = star.add(star.mul(2, point_Pstar(2)), point_Tstar(2))  # x = v, y = -s
    assert _w_pair(2, 1, q, star) == (119, 40)
    v, _, s = map_w_constants(2)
    with pytest.raises(DegeneracyError):
        _w_pair(2, 1, Point(v, s), star)
    with pytest.raises(DegeneracyError):
        _w_pair(2, 1, INFINITY, star)


def test_triple_checks_on_integers_still_reject():
    tri = triple_from_multiple(F(9, 8), 3)
    a, b, c = tri.elements
    rhos = (tri.rho_ab, tri.rho_ac, tri.rho_bc)
    with pytest.raises(ValueError, match=f"^witness {rhos[1] + 1} does not square to {a * c} \\+ 1$"):
        TripleABC(a, b, c, rhos[0], rhos[1] + 1, rhos[2])
    with pytest.raises(ValueError, match="does not square"):
        TripleABC(a, b, c, -rhos[0], *rhos[1:])
    # (1, 3, 8) has square pair products + 1 but fails the order-3 condition
    with pytest.raises(ValueError, match="order-3 condition"):
        TripleABC(1, 3, 8, 2, 3, 5)
    assert (tri.sigma1, tri.sigma2, tri.sigma3) == (a + b + c, a * b + a * c + b * c, a * b * c)


def test_triple_sigma_cross_check_still_fires(monkeypatch):
    sigma1 = family._sigma1
    monkeypatch.setattr(family, "_sigma1", lambda p, q, xn, xd: sigma1(p, q, xn + xd, xd))
    with pytest.raises(ConsistencyError, match="disagrees with its symmetric functions"):
        triple_from_multiple(F(9, 8), 3)


def test_triple_vieta_check_still_fires(monkeypatch):
    monkeypatch.setattr(family, "_sigma3", lambda p, q: (p * p - q * q, p * q))
    with pytest.raises(ConsistencyError, match="do not multiply to sigma3"):
        triple_from_multiple(F(9, 8), 3)
