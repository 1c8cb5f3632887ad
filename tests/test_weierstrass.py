import math
import random
from collections import Counter
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from dioph6 import weierstrass
from dioph6.family import triple_from_multiple
from dioph6.identities import (
    StdQuantities,
    _std_quantities,
    curve_E,
    curve_Epp,
    curve_Estar,
    point_Pstar,
    point_R,
    point_Sprime,
    point_Tstar,
    std_quantities,
    torsion_order_upto,
)
from dioph6.sextuple_engine import induced_curve, point_Pprime
from dioph6.weierstrass import Curve, INFINITY, Point
from model_change import change_model

REMARK_CURVE = Curve(0, 1512, 33588)
GEN = Point(-11, 125)


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
    assert e2.contains(Point(0, 125))  # x = 0 gives y^2 = a6 = (t^2+1)^6
    assert not e2.contains(Point(0, 124))
    assert e2.contains(INFINITY)


_PARAMS = st.fractions(min_value=-12, max_value=12, max_denominator=6).filter(
    lambda t: t not in (-1, 0, 1)
)
_RATIONALS = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**4)


@st.composite
def _curve_and_point(draw):
    """A curve with non-integral coefficients and a point [k]G on it: G is
    P' on the induced curve of a family triple, or the image of the seed
    on curve_E(t) moved by x = u^2 x' + r, y = u^3 y'."""
    t = draw(_PARAMS)
    k = draw(st.integers(min_value=-6, max_value=6))
    if draw(st.booleans()):
        a, b, c = triple_from_multiple(t, draw(st.integers(min_value=2, max_value=3))).elements
        curve, gen = induced_curve(a, b, c), point_Pprime(a, b, c)
    else:
        u = draw(st.fractions(min_value=-30, max_value=30, max_denominator=30).filter(bool))
        r = draw(st.fractions(min_value=-30, max_value=30, max_denominator=30))
        curve, gen = change_model(curve_E(t), u, r, point_R(t))
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
        cubic = p.x**3 + curve.a2 * p.x**2 + curve.a4 * p.x + curve.a6
        assert curve.contains(p) == (p.y * p.y == cubic), (curve, p)


def test_point_validation():
    with pytest.raises(ValueError):
        Point(F(1), None)
    assert str(INFINITY) == "O"
    assert str(Point(-11, 125)) == "[-11, 125]"


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
    assert REMARK_CURVE.add(GEN, GEN) == Point(F(313, 4), F(-6355, 8))


def test_identity_and_inverse():
    assert REMARK_CURVE.add(GEN, INFINITY) == GEN
    assert REMARK_CURVE.add(INFINITY, GEN) == GEN
    assert REMARK_CURVE.add(GEN, Point(-11, -125)) == INFINITY
    assert -GEN == Point(-11, -125)
    assert REMARK_CURVE.contains(-GEN)
    assert REMARK_CURVE.add_unchecked(GEN, -GEN) == INFINITY
    assert REMARK_CURVE.add_x_unchecked(GEN, -GEN) is None
    assert REMARK_CURVE.add_x_unchecked(INFINITY, GEN) == GEN.x
    assert -INFINITY == INFINITY


def test_two_torsion_doubling_is_infinity():
    curve = induced_curve(1, 3, 8)  # full rational 2-torsion
    two_torsion = Point(-3, 0)
    assert curve.contains(two_torsion)
    assert curve.add(two_torsion, two_torsion) == INFINITY
    assert curve.add_x_unchecked(two_torsion, two_torsion) is None
    assert curve.mul(2, two_torsion) == INFINITY


def test_add_rejects_off_curve():
    with pytest.raises(ValueError):
        REMARK_CURVE.add(GEN, Point(1, 1))
    with pytest.raises(ValueError):
        REMARK_CURVE.mul(2, Point(1, 1))
    with pytest.raises(ValueError, match="is not on"):
        torsion_order_upto(REMARK_CURVE, Point(1, 1))
    with pytest.raises(ValueError, match="is not on"):
        REMARK_CURVE.require_on_curve(Point(1, 1))


def test_unchecked_sums_match_add():
    pts = [INFINITY] + [REMARK_CURVE.mul(k, GEN) for k in (-2, -1, 1, 2, 3)]
    for p in pts:
        for q in pts:
            total = REMARK_CURVE.add(p, q)
            assert REMARK_CURVE.add_unchecked(p, q) == total
            assert REMARK_CURVE.add_x_unchecked(p, q) == total.x


def _two_points(kind, t, m_or_u, k1, k2):
    """(kind, curve, [[k1]G, [k2]G, ...]): on the "induced" curve of the
    family triple at (t, m), G is P' and the order-3 point S' comes after the
    two multiples; on the "scaled" curve, curve_E(t) with x = u^2 x',
    y = u^3 y', G is the image of the seed."""
    if kind == "induced":
        a, b, c = triple_from_multiple(t, m_or_u).elements
        curve, gen, extra = induced_curve(a, b, c), point_Pprime(a, b, c), [point_Sprime(a, b, c)]
    else:
        curve, gen = change_model(curve_E(t), m_or_u, point=point_R(t))
        extra = []
    return kind, curve, [curve.mul(k1, gen), curve.mul(k2, gen), *extra]


_MULTIPLES = st.integers(min_value=-5, max_value=5)
_curve_and_two_points = st.one_of(
    st.builds(_two_points, st.just("induced"), _PARAMS, st.integers(2, 5), _MULTIPLES, _MULTIPLES),
    st.builds(
        _two_points, st.just("scaled"), _PARAMS,
        st.fractions(min_value=-30, max_value=30, max_denominator=30).filter(bool),
        _MULTIPLES, _MULTIPLES,
    ),
)


def test_add_sub_x_matches_add_x():
    """Both x-coordinates equal add_x_unchecked's, in lowest terms, along
    both reductions of x(p + q): the exact division by x(p - q)'s
    denominator, which the induced curves take, and the full-size gcd after
    a division that leaves a remainder, which some scaled curves take."""
    branches = Counter()

    def counted_divmod(a, b):
        quotient, remainder = divmod(a, b)
        branches[kind, "fallback" if remainder else "exact"] += 1
        return quotient, remainder

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(_curve_and_two_points)
    @example(_two_points("induced", F(2), 2, 3, 1))
    @example(_two_points("scaled", F(2), F(2), 1, 3))  # a division with a remainder
    def check(drawn):
        nonlocal kind
        kind, curve, pts = drawn
        p = pts[0]
        with mock.patch.object(weierstrass, "divmod", counted_divmod, create=True):
            for q in (*pts, p, -p, INFINITY):
                expected = (curve.add_x_unchecked(p, q), curve.add_x_unchecked(p, -q))
                for got, want in zip(curve.add_sub_x_unchecked(p, q), expected):
                    assert got == want, (curve, p, q)
                    assert got is None or math.gcd(got.numerator, got.denominator) == 1
                swapped = (expected[0], curve.add_x_unchecked(q, -p))
                assert curve.add_sub_x_unchecked(q, p) == swapped, (curve, q, p)

    kind = None
    check()
    assert branches["induced", "exact"] and not branches["induced", "fallback"], branches
    assert branches["scaled", "fallback"], branches


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
    assert e3.mul(-2, r3) == -e3.mul(2, r3)


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
    curves.append((tri, [Point(0, 24), Point(-3, 0)]))
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
            assert curve.mul(-k, base) == -acc
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
    assert torsion_order_upto(REMARK_CURVE, GEN, bound=5) is None
    assert len(calls) == 4  # [2]p .. [5]p, never [6]p


# ---------------------------------------------------------------------------
# the group law on integer pairs against the Fraction chord-and-tangent rule
# ---------------------------------------------------------------------------

def _fraction_add(curve, p, q):
    """The chord-and-tangent sum in Fraction operators, the reference for
    the group law, which works on (numerator, denominator) pairs."""
    if p.is_infinity:
        return q
    if q.is_infinity:
        return p
    x1, y1, x2, y2 = p.x, p.y, q.x, q.y
    if x1 == x2:
        if y1 == -y2:
            return INFINITY
        lam = (3 * x1**2 + 2 * curve.a2 * x1 + curve.a4) / (2 * y1)
    else:
        lam = (y2 - y1) / (x2 - x1)
    x3 = lam**2 - (curve.a2 + x1 + x2)
    return Point(x3, lam * (x1 - x3) - y1)


def _fraction_mul(curve, k, p):
    """[k]p by k - 1 reference sums, no ladder."""
    if k < 0:
        k, p = -k, (p if p.is_infinity else Point(p.x, -p.y))
    acc = INFINITY
    for _ in range(k):
        acc = _fraction_add(curve, acc, p)
    return acc


@st.composite
def _family_curve_and_generators(draw):
    """A curve of the construction and points on it: E(t) with R, E*(t)
    with P* and T*, the induced curve of a constructed triple with P' and
    S', or the two-torsion model E''(t, x([m]R)), whose coefficients are
    not integral, with its three points of order 2."""
    t = draw(_PARAMS)
    kind = draw(st.sampled_from(("E", "E*", "induced", "E''")))
    if kind == "E":
        return curve_E(t), [point_R(t)]
    if kind == "E*":
        return curve_Estar(t), [point_Pstar(t), point_Tstar(t)]
    m = draw(st.integers(min_value=2, max_value=3))
    tri = triple_from_multiple(t, m)
    a, b, c = tri.elements
    if kind == "induced":
        return induced_curve(a, b, c), [point_Pprime(a, b, c), point_Sprime(a, b, c)]
    curve = curve_Epp(t, curve_E(t).mul(m, point_R(t)).x)
    shift = t * t / (t * t + 1) ** 2
    return curve, [Point(-(prod + 1) * shift, 0) for prod in (a * b, a * c, b * c)]


@settings(max_examples=60, deadline=None)
@given(_family_curve_and_generators(), st.data())
def test_group_law_matches_fraction_reference(curve_and_gens, data):
    curve, gens = curve_and_gens
    ks = st.integers(min_value=-4, max_value=4)
    pts = [_fraction_mul(curve, data.draw(ks), g) for g in gens]
    pts.append(_fraction_add(curve, pts[0], pts[-1]))
    for p in pts:
        assert curve.contains(p)
        # sums with O, with -p (the inverse pair) and with p (doubling,
        # which is O at a point with y = 0)
        for q in (*pts, INFINITY, -p, p):
            want = _fraction_add(curve, p, q)
            assert curve.add_unchecked(p, q) == want, (curve, p, q)
            assert curve.add_x_unchecked(p, q) == want.x, (curve, p, q)
    for g in gens:
        for k in range(-3, 7):
            assert curve.mul(k, g) == _fraction_mul(curve, k, g), (curve, g, k)


# ---------------------------------------------------------------------------
# invariants and scaling
# ---------------------------------------------------------------------------

def test_std_quantities_formulas():
    sq = std_quantities(REMARK_CURVE)
    assert sq.b2 == 0
    assert sq.b4 == 2 * 1512
    assert sq.b6 == 4 * 33588
    assert sq.b8 == -(1512**2)
    assert sq.c4 == -24 * sq.b4
    assert sq.delta == -8 * sq.b4**3 - 27 * sq.b6**2


def test_std_quantities_of_derived_curves(t6_triple):
    def fresh(curve):
        a2, a4, a6 = curve.a2, curve.a4, curve.a6
        b2, b4, b6, b8 = 4 * a2, 2 * a4, 4 * a6, 4 * a2 * a6 - a4 * a4
        delta = -b2 * b2 * b8 - 8 * b4**3 - 27 * b6 * b6 + 9 * b2 * b4 * b6
        return StdQuantities(b2, b4, b6, b8, b2 * b2 - 24 * b4, delta)

    t = F(6)
    curves = [
        change_model(curve_E(2), F(3, 5))[0],
        change_model(REMARK_CURVE, 7, F(-2, 3))[0],
        induced_curve(*t6_triple.elements),
        curve_Epp(t, curve_E(t).mul(3, point_R(t)).x),
    ]
    for curve in curves:
        assert std_quantities(curve) == fresh(curve)


def _singular_coefficients(r: F, s: F) -> tuple[F, F, F]:
    """The coefficients of (x - r)^2 (x - s), a cubic with a double root."""
    return -(2 * r + s), r * r + 2 * r * s, -r * r * s


coefficients = st.fractions(min_value=-30, max_value=30, max_denominator=12)


@settings(max_examples=100, deadline=None)
@given(
    st.tuples(coefficients, coefficients, coefficients)
    | st.builds(_singular_coefficients, coefficients, coefficients)
)
def test_singularity_test_on_cleared_coefficients(coeffs):
    singular = _std_quantities(*coeffs).delta == 0
    try:
        curve = Curve(*coeffs)
    except ValueError as exc:
        assert singular
        assert str(exc).startswith("singular curve: y^2 = x^3 + (")
    else:
        assert not singular
        assert std_quantities(curve).delta != 0


@settings(max_examples=100, deadline=None)
@given(st.tuples(coefficients, coefficients, coefficients))
def test_cleared_discriminant_slot_gives_delta(coeffs):
    try:
        curve = Curve(*coeffs)
    except ValueError:
        return
    d, c2, c4, _ = curve._cleared
    sq = std_quantities(curve)
    assert sq.delta == F(16 * curve._disc, d**4)
    assert sq.c4 == F(16 * (c2 * c2 - 3 * d * c4), d * d)
    assert "_disc" not in repr(curve)


@settings(max_examples=25, deadline=None)
@given(
    st.fractions(min_value=-20, max_value=20, max_denominator=10).filter(lambda u: u != 0),
    st.fractions(min_value=-20, max_value=20, max_denominator=10),
)
def test_change_model_moves_points_and_invariants(u, r):
    # the tests' coordinate change: delta and c4 scale by u^-12 and u^-4
    # whatever r is, and the point map commutes with the group law
    curve = curve_E(2)
    seed = point_R(2)
    moved, image = change_model(curve, u, r, seed)
    sq, msq = std_quantities(curve), std_quantities(moved)
    assert msq.delta == sq.delta / u**12
    assert msq.c4 == sq.c4 / u**4
    assert moved.contains(image)
    assert change_model(curve, u, r, curve.mul(2, seed))[1] == moved.mul(2, image)
    assert change_model(curve, 1, 0) == (curve, INFINITY)


# ---------------------------------------------------------------------------
# torsion orders
# ---------------------------------------------------------------------------

def test_torsion_orders(t2_triple):
    a, b, c = t2_triple.elements
    curve = induced_curve(a, b, c)
    assert torsion_order_upto(curve, point_Sprime(a, b, c)) == 3
    assert torsion_order_upto(curve, point_Sprime(a, b, c), bound=3) == 3
    assert torsion_order_upto(curve, point_Sprime(a, b, c), bound=2) is None
    star = curve_Estar(2)
    assert torsion_order_upto(star, point_Tstar(2)) == 3
    assert torsion_order_upto(curve_E(2), point_R(2), bound=12) is None
    assert torsion_order_upto(curve, INFINITY) == 1
    assert torsion_order_upto(curve, point_Pprime(a, b, c), bound=10) is None


def test_curve_text_form():
    assert str(curve_E(2)) == "y^2 = x^3 + (-33)x^2 + (1875)x + (15625)"
    assert (
        str(REMARK_CURVE) == "y^2 = x^3 + (0)x^2 + (1512)x + (33588)"
    )
