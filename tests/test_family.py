import random
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from dioph6.errors import DegeneracyError
from dioph6.exactnum import is_square
from dioph6.family import (
    SigmaTriple,
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
    require_param,
    sigma1_from_x,
    sigma2_from,
    sigma3,
    sigma_triple_from_x,
    three_torsion_condition,
    three_torsion_value,
    triple_from_multiple,
)
from dioph6.weierstrass import INFINITY, point


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
    assert point_R(2) == point(0, 125)  # 5^3
    assert point_R(6) == point(0, 50653)  # 37^3


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
    with pytest.raises(ValueError):
        SigmaTriple(0, F(-3, 4), F(1, 3))  # 1 + (1/3)^2 is not a square
    with pytest.raises(ValueError):
        SigmaTriple(0, 0, F(3, 4))  # sigma2 relation violated
    sig = sigma_triple_from_x(2, F(357, 4))
    assert sig.s3 == F(3, 4)


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
    assert kernel == point(119, 486)
    assert 486**2 == 236196  # equation check witness
    assert seed == point(-205, 2430)
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
    pole = point(v, s)
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
        sq = model.std_quantities()
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
        assert model.rhs(root) == 0


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
        sig = sigma_triple_from_x(t, curve_E(t).mul(m, point_R(t)).x)
        assert (tri.sigma1, tri.sigma2, tri.sigma3) == (sig.s1, sig.s2, sig.s3)
        assert three_torsion_condition(*tri.elements)
        _, square = quartic_condition(tri.sigma1, tri.sigma3)
        assert square
        for prod in (tri.a * tri.b, tri.a * tri.c, tri.b * tri.c):
            assert is_square(prod + 1)
        done += 1
