import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from dioph6.family import curve_E, curve_Estar, point_R, point_Tstar, triple_from_multiple
from dioph6.family import curve_Epp
from dioph6.sextuple_engine import induced_curve, point_Pprime, point_Sprime
from dioph6.weierstrass import Curve, INFINITY, Point, StdQuantities, point

REMARK_CURVE = Curve(0, 1512, 33588)
GEN = point(-11, 125)


# ---------------------------------------------------------------------------
# construction and membership
# ---------------------------------------------------------------------------

def test_singular_construction_rejected():
    with pytest.raises(ValueError):
        Curve(0, 0, 0)  # y^2 = x^3
    with pytest.raises(ValueError):
        Curve(0, -3, 2)  # double root at x = 1


def test_contains_examples():
    assert REMARK_CURVE.contains(GEN)
    e2 = curve_E(2)
    assert (e2.a2, e2.a4, e2.a6) == (-33, 1875, 15625)
    assert e2.contains(point(0, 125))  # x = 0 gives y^2 = a6 = (t^2+1)^6
    assert not e2.contains(point(0, 124))
    assert e2.contains(INFINITY)


_PARAMS = st.fractions(min_value=-12, max_value=12, max_denominator=6).filter(
    lambda t: t not in (-1, 0, 1)
)
_RATIONALS = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**4)


@st.composite
def _curve_and_point(draw):
    """A curve with non-integral coefficients and a point [k]G on it: G is
    P' on the induced curve of a family triple, or the image of the seed
    under curve_E(t).scale(u)."""
    t = draw(_PARAMS)
    k = draw(st.integers(min_value=-6, max_value=6))
    if draw(st.booleans()):
        a, b, c = triple_from_multiple(t, draw(st.integers(min_value=2, max_value=3))).elements
        curve, gen = induced_curve(a, b, c), point_Pprime(a, b, c)
    else:
        u = draw(st.fractions(min_value=-30, max_value=30, max_denominator=30).filter(bool))
        curve, gen = curve_E(t).scale(u), curve_E(t).scale_point(point_R(t), u)
    return curve, curve.mul(k, gen)


@settings(max_examples=60, deadline=None)
@given(_curve_and_point(), _RATIONALS, _RATIONALS)
def test_contains_matches_rhs_oracle(curve_and_point, dx, dy):
    curve, on = curve_and_point
    assert curve.contains(on)
    candidates = [Point(dx, dy)]
    if not on.is_infinity:
        candidates += [
            on,
            -on,
            Point(on.x, on.y + 1),  # same y denominator, other numerator
            Point(on.x, on.y + dy),
            Point(on.x + dx, on.y),
            Point(on.x * 2, on.y * 2),
        ]
    for p in candidates:
        assert curve.contains(p) == (p.y * p.y == curve.rhs(p.x)), (curve, p)


def test_point_validation():
    with pytest.raises(ValueError):
        Point(F(1), None)
    assert str(INFINITY) == "O"
    assert str(point(-11, 125)) == "[-11, 125]"


# ---------------------------------------------------------------------------
# group law
# ---------------------------------------------------------------------------

def test_double_generator_hand_oracle():
    # independent hand evaluation of the tangent rule at U = [-11, 125]
    lam = (3 * F(-11) ** 2 + 1512) / (2 * F(125))
    assert lam == F(15, 2)
    x3 = lam * lam - 2 * F(-11)
    y3 = lam * (F(-11) - x3) - 125
    assert (x3, y3) == (F(313, 4), F(-6355, 8))
    assert REMARK_CURVE.add(GEN, GEN) == point(F(313, 4), F(-6355, 8))


def test_identity_and_inverse():
    assert REMARK_CURVE.add(GEN, INFINITY) == GEN
    assert REMARK_CURVE.add(INFINITY, GEN) == GEN
    assert REMARK_CURVE.add(GEN, point(-11, -125)) == INFINITY
    assert REMARK_CURVE.neg(GEN) == point(-11, -125) == -GEN
    assert -INFINITY == INFINITY


def test_two_torsion_doubling_is_infinity():
    curve = induced_curve(1, 3, 8)  # full rational 2-torsion
    two_torsion = point(-3, 0)
    assert curve.contains(two_torsion)
    assert curve.add(two_torsion, two_torsion) == INFINITY
    assert curve.mul(2, two_torsion) == INFINITY


def test_add_rejects_off_curve():
    with pytest.raises(ValueError):
        REMARK_CURVE.add(GEN, point(1, 1))
    with pytest.raises(ValueError):
        REMARK_CURVE.mul(2, point(1, 1))
    for check in (REMARK_CURVE.neg, REMARK_CURVE.torsion_order_upto, REMARK_CURVE.require_on_curve):
        with pytest.raises(ValueError, match="is not on"):
            check(point(1, 1))


def test_unchecked_sums_match_add():
    pts = [INFINITY] + [REMARK_CURVE.mul(k, GEN) for k in (-2, -1, 1, 2, 3)]
    for p in pts:
        for q in pts:
            total = REMARK_CURVE.add(p, q)
            assert REMARK_CURVE.add_unchecked(p, q) == total
            assert REMARK_CURVE.add_x_unchecked(p, q) == total.x


@st.composite
def _curve_and_two_points(draw):
    """Two points [k1]G, [k2]G and, on induced curves, the order-3 point S'
    beside them: G is P' on the induced curve of a family triple (m = 2..5)
    or the image of the seed under curve_E(t).scale(u)."""
    t = draw(_PARAMS)
    if draw(st.booleans()):
        a, b, c = triple_from_multiple(t, draw(st.integers(min_value=2, max_value=5))).elements
        curve, gen = induced_curve(a, b, c), point_Pprime(a, b, c)
        extra = [point_Sprime(a, b, c)]
    else:
        u = draw(st.fractions(min_value=-30, max_value=30, max_denominator=30).filter(bool))
        curve, gen = curve_E(t).scale(u), curve_E(t).scale_point(point_R(t), u)
        extra = []
    k1, k2 = (draw(st.integers(min_value=-5, max_value=5)) for _ in range(2))
    return curve, [curve.mul(k1, gen), curve.mul(k2, gen), *extra]


@settings(max_examples=30, deadline=None)
@given(_curve_and_two_points())
def test_add_sub_x_matches_add_x(curve_and_points):
    curve, pts = curve_and_points
    p = pts[0]
    for q in (*pts, p, -p, INFINITY):
        expected = (curve.add_x_unchecked(p, q), curve.add_x_unchecked(p, -q))
        assert curve.add_sub_x_unchecked(p, q) == expected, (curve, p, q)
        assert curve.add_sub_x_unchecked(q, p) == (expected[0], curve.add_x_unchecked(q, -p))


def _x2R_closed(t):
    return -F(3, 4) * (t * t - 6 * t + 1) * (t * t + 6 * t + 1)


def _x3R_closed(t):
    tt = t * t
    return (
        -F(8, 9) * (tt + 1) ** 4 * (tt - 18 * t + 1) * (tt + 18 * t + 1)
        / ((tt - 6 * t + 1) ** 2 * (tt + 6 * t + 1) ** 2)
    )


def test_mul_examples():
    e3 = curve_E(3)
    r3 = point_R(3)
    assert _x2R_closed(F(3)) == 168
    assert e3.mul(2, r3).x == 168
    assert _x3R_closed(F(3)) == F(220000, 441)
    assert e3.mul(3, r3).x == F(220000, 441)
    assert e3.mul(1, r3) == r3
    assert e3.mul(0, r3) == INFINITY
    assert e3.mul(-2, r3) == e3.neg(e3.mul(2, r3))


@settings(max_examples=30, deadline=None)
@given(
    st.fractions(min_value=-40, max_value=40, max_denominator=8).filter(
        lambda t: t not in (-1, 0, 1)
    )
)
def test_seed_point_and_doubling_closed_form(t):
    curve = curve_E(t)
    seed = point_R(t)
    assert curve.contains(seed)
    assert curve.mul(2, seed).x == _x2R_closed(t)


def _sample_points(curve, generators, span=3):
    pts = []
    for i in range(-span, span + 1):
        acc = curve.mul(i, generators[0])
        for g in generators[1:]:
            for j in range(2):
                if j:
                    acc = curve.add(acc, g)
                pts.append(acc)
        pts.append(acc)
    return pts


def test_group_axioms_sampled():
    rng = random.Random(20250810)
    curves = []
    e2 = curve_E(2)
    curves.append((e2, [point_R(2)]))
    curves.append((REMARK_CURVE, [GEN]))
    tri = induced_curve(1, 3, 8)
    curves.append((tri, [point(0, 24), point(-3, 0)]))
    for curve, gens in curves:
        pool = [p for p in _sample_points(curve, gens) if not p.is_infinity]
        for _ in range(12):
            p, q, r = (rng.choice(pool) for _ in range(3))
            assert curve.add(p, q) == curve.add(q, p)
            assert curve.add(curve.add(p, q), r) == curve.add(p, curve.add(q, r))
            assert curve.contains(curve.add(p, q))


def test_mul_matches_iterated_add(t6_triple):
    # on the induced curve k runs to +-16: at k = 2, 4, 8, 16 the ladder
    # ends on a doubling, the one after which mul used to double once more
    a, b, c = t6_triple.elements
    induced = induced_curve(a, b, c)
    cases = [
        (REMARK_CURVE, GEN, 8),
        (induced, point_Pprime(a, b, c), 16),
        (induced, point_Sprime(a, b, c), 16),
    ]
    for curve, base, top in cases:
        acc = INFINITY
        for k in range(top + 1):
            assert curve.mul(k, base) == acc
            assert curve.mul(-k, base) == curve.neg(acc)
            acc = curve.add(acc, base)


def _record_unchecked_adds(monkeypatch):
    calls = []
    add_unchecked = Curve.add_unchecked

    def recording(self, p, q):
        calls.append((p, q))
        return add_unchecked(self, p, q)

    monkeypatch.setattr(Curve, "add_unchecked", recording)
    return calls


def test_mul_doubles_only_what_it_adds(monkeypatch):
    calls = _record_unchecked_adds(monkeypatch)
    for k in range(1, 17):
        calls.clear()
        REMARK_CURVE.mul(k, GEN)
        assert sum(p == q for p, q in calls) == k.bit_length() - 1, k


def test_torsion_order_stops_at_bound(monkeypatch):
    calls = _record_unchecked_adds(monkeypatch)
    assert REMARK_CURVE.torsion_order_upto(GEN, bound=5) is None
    assert len(calls) == 4  # [2]p .. [5]p, never [6]p


# ---------------------------------------------------------------------------
# invariants and scaling
# ---------------------------------------------------------------------------

def test_std_quantities_formulas():
    sq = REMARK_CURVE.std_quantities()
    assert sq.b2 == 0
    assert sq.b4 == 2 * 1512
    assert sq.b6 == 4 * 33588
    assert sq.b8 == -(1512**2)
    assert sq.c4 == -24 * sq.b4
    assert sq.delta == -8 * sq.b4**3 - 27 * sq.b6**2


def test_std_quantities_stored_at_construction(t6_triple):
    def fresh(curve):
        a2, a4, a6 = curve.a2, curve.a4, curve.a6
        b2, b4, b6, b8 = 4 * a2, 2 * a4, 4 * a6, 4 * a2 * a6 - a4 * a4
        delta = -b2 * b2 * b8 - 8 * b4**3 - 27 * b6 * b6 + 9 * b2 * b4 * b6
        return StdQuantities(b2, b4, b6, b8, b2 * b2 - 24 * b4, delta)

    t = F(6)
    curves = [
        curve_E(2).scale(F(3, 5)),
        REMARK_CURVE.scale(7),
        induced_curve(*t6_triple.elements),
        curve_Epp(t, curve_E(t).mul(3, point_R(t)).x),
    ]
    for curve in curves:
        assert curve.std_quantities() is curve.std_quantities()
        assert curve.std_quantities() == fresh(curve)
        assert "_std" not in repr(curve)


def test_scale_identity_and_inverse():
    e2 = curve_E(2)
    assert e2.scale(1) == e2
    assert e2.scale(F(3, 5)).scale(F(5, 3)) == e2
    with pytest.raises(ValueError):
        e2.scale(0)


@settings(max_examples=25, deadline=None)
@given(st.fractions(min_value=-20, max_value=20, max_denominator=10).filter(lambda u: u != 0))
def test_scale_laws_and_point_transport(u):
    curve = curve_E(2)
    seed = point_R(2)
    scaled = curve.scale(u)
    sq, ssq = curve.std_quantities(), scaled.std_quantities()
    assert ssq.delta == sq.delta / u**12
    assert ssq.c4 == sq.c4 / u**4
    image = curve.scale_point(seed, u)
    assert scaled.contains(image)
    assert curve.scale_point(curve.mul(2, seed), u) == scaled.mul(2, image)


# ---------------------------------------------------------------------------
# torsion orders
# ---------------------------------------------------------------------------

def test_torsion_orders(t2_triple):
    a, b, c = t2_triple.elements
    curve = induced_curve(a, b, c)
    assert curve.torsion_order_upto(point_Sprime(a, b, c)) == 3
    assert curve.torsion_order_upto(point_Sprime(a, b, c), bound=3) == 3
    assert curve.torsion_order_upto(point_Sprime(a, b, c), bound=2) is None
    star = curve_Estar(2)
    assert star.torsion_order_upto(point_Tstar(2)) == 3
    assert curve_E(2).torsion_order_upto(point_R(2), bound=12) is None
    assert curve.torsion_order_upto(INFINITY) == 1
    assert curve.torsion_order_upto(point_Pprime(a, b, c), bound=10) is None


def test_curve_text_form():
    assert str(curve_E(2)) == "y^2 = x^3 + (-33)x^2 + (1875)x + (15625)"
    assert (
        str(REMARK_CURVE) == "y^2 = x^3 + (0)x^2 + (1512)x + (33588)"
    )
