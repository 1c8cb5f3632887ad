import functools
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from dioph6.errors import ConsistencyError, UnfactorableError
from dioph6.exactnum import DEFAULT_FACTOR_BOUND, _rat_vp, is_prime, odd_prime_divisors, vp
from dioph6.family import _cleared_E, _cleared_Epp, require_param, triple_from_multiple
from dioph6.reduction_lab import (
    ADDITIVE,
    GOOD,
    MULTIPLICATIVE,
    BadPrimesReport,
    ReductionReport,
    ValuationRow,
    _classified,
    _sum_vp,
    bad_primes_epp,
    classify,
    mod3_sign_table,
    nonsingular_residues,
    p_minimal_model,
    require_base_point,
    require_odd_prime,
    valuation_table,
)
from dioph6.identities import curve_E, curve_Epp, epp_invariants, point_R, std_quantities
from dioph6.sextuple_engine import induced_curve, point_Pprime
from dioph6.weierstrass import INFINITY, Curve, Point, _cleared_discriminant, _on_model

T31_POINT = Point(-150072, 682327360)
T17_POINT = Point(35000, 40986000)


# ---------------------------------------------------------------------------
# invariants of the two-torsion model
# ---------------------------------------------------------------------------

def test_epp_invariants_cross_oracle():
    for t, m in ((F(2), 2), (F(3), 2)):
        base = curve_E(t)
        pt = base.mul(m, point_R(t))
        delta, c4 = epp_invariants(t, pt)
        sq = std_quantities(curve_Epp(t, pt.x))
        assert (delta, c4) == (sq.delta, sq.c4)


def test_epp_invariants_t3_values():
    base = curve_E(3)
    pt = base.mul(2, point_R(3))
    assert pt.x == 168
    delta, _ = epp_invariants(3, pt)
    assert delta == 3**6 * pt.y**2 / 168**6


def test_epp_invariants_rejects():
    with pytest.raises(ValueError):
        epp_invariants(3, Point(0, 1000))
    with pytest.raises(ValueError):
        epp_invariants(3, Point(1, 1))  # not on the curve


def test_one_base_point_check():
    # its callers reject the point at infinity, x = 0 and off-curve points alike
    for pt in (INFINITY, Point(0, 1000), Point(1, 1)):
        for check in (require_base_point, epp_invariants, bad_primes_epp):
            with pytest.raises(ValueError, match="^point is not an admissible base-curve point$"):
                check(3, pt)
    assert require_base_point(3, curve_E(3).mul(2, point_R(3))) is None


def _on_E_in_fractions(t, pt):
    """y^2 = x^3 + a2 x^2 + a4 x + a6 at the affine pt, in Fractions, with the
    coefficients of tests/test_family.py::_rational_curve_E."""
    tt = t * t
    a2, a4, a6 = 3 * (tt - 3 * t + 1) * (tt + 3 * t + 1), 3 * (tt + 1) ** 4, (tt + 1) ** 6
    return pt.y * pt.y == ((pt.x + a2) * pt.x + a4) * pt.x + a6


@settings(max_examples=80, deadline=None)
@given(
    st.fractions(min_value=-40, max_value=40, max_denominator=40).filter(
        lambda t: t.denominator > 1
    ),
    st.integers(1, 4),
    st.booleans(),
    st.fractions(min_value=-3, max_value=3, max_denominator=3),
    st.fractions(min_value=-3, max_value=3, max_denominator=3),
)
# 3 | q: a2 and a4 lose a factor 3 in lowest terms, and the test runs on the
# integers over q^12 all the same
@example(F(2, 3), 2, False, F(1, 3), F(0))
@example(F(-5, 9), 3, True, F(0), F(-1, 3))
@example(F(7, 6), 2, True, F(-2), F(1))
def test_base_point_check_matches_fraction_equation(t, m, negate, dx, dy):
    # require_base_point's verdict, and the membership test on E(t)'s
    # cleared integers, against E(t)'s equation evaluated in Fractions, at
    # rational t on [m]R and -[m]R and at copies moved off it in x or y
    pt = curve_E(t).mul(m, point_R(t))
    pt = -pt if negate else pt
    cleared = _cleared_E(t.numerator, t.denominator)
    for moved in (pt, Point(pt.x + dx, pt.y), Point(pt.x, pt.y + dy)):
        on_curve = _on_E_in_fractions(t, moved)
        assert _on_model(cleared, moved) is on_curve, (t, moved)
        try:
            require_base_point(t, moved)
            admitted = True
        except ValueError:
            admitted = False
        assert admitted is (on_curve and moved.x != 0), (t, moved)
    assert _on_E_in_fractions(t, pt)


#: Points (x, 0) of order 2 on E(t), where the two-torsion model is
#: singular: t = +-8 and +-27 and their values at 1/t.
SINGULAR_POINTS = (
    (F(8), F(-2197)), (F(-8), F(-2197)), (F(27), F(-389017)), (F(-27), F(-389017)),
    (F(1, 8), F(-2197, 4096)), (F(-1, 8), F(-2197, 4096)),
    (F(27, 8), F(-226981, 4096)), (F(-27, 8), F(-226981, 4096)),
)


@given(st.sampled_from(SINGULAR_POINTS))
def test_singular_model_keeps_curve_text(point):
    # the cleared model of an order-2 point refuses with the text of the
    # Curve its coefficients make, the rational formula's
    t, x = point
    pt = Point(x, 0)
    require_base_point(t, pt)
    tt = t * t
    aa = (tt + 1) ** 2
    coeffs = ((aa / x + 1) ** 2 / 4, tt * (aa / (x * x) + 1 / x) / 2, tt * tt / (4 * x * x))
    with pytest.raises(ValueError) as expected:
        Curve(*coeffs)
    assert str(expected.value).startswith("singular curve: y^2 = x^3 + (")
    with pytest.raises(ValueError) as got:
        _cleared_Epp(t.numerator, t.denominator, x)
    assert str(got.value) == str(expected.value)
    if t.denominator == 1:
        with pytest.raises(ValueError, match=r"^singular curve: "):
            bad_primes_epp(t.numerator, pt)


def test_require_odd_prime():
    for p in (3, 5, 13):
        assert require_odd_prime(p) is None
    with pytest.raises(ValueError, match="^p = 2 is out of scope"):
        require_odd_prime(2)
    for p in (0, 1, -5, 9):
        with pytest.raises(ValueError, match=f"^{p} is not prime$"):
            require_odd_prime(p)


# ---------------------------------------------------------------------------
# minimal models and classification
# ---------------------------------------------------------------------------

def test_p_minimal_model_already_minimal():
    curve = Curve(0, 1512, 33588)
    model, k = p_minimal_model(curve, 5)
    assert k == 0 and model == curve


def test_p_minimal_model_roundtrip():
    # one u = p step applied to the coefficients is undone with exponent -1
    curve = Curve(0, 1512, 33588)
    scaled = curve.scale(7)
    model, k = p_minimal_model(scaled, 7)
    assert k == -1
    assert model == curve
    # and an inflated model is deflated with a positive exponent
    inflated = curve.scale(F(1, 7))
    model, k = p_minimal_model(inflated, 7)
    assert k == 1
    assert model == curve


def test_p_minimal_model_copies_only_to_scale():
    # k = 0 hands back the curve itself; k != 0 gives the same model and
    # report as scaling by p^k and classifying from fresh invariants
    seen = set()
    for t, m in ((3, 2), (3, 3), (7, 3), (31, 2)):
        model = curve_Epp(F(t), curve_E(t).mul(m, point_R(t)).x)
        for curve in (model, model.scale(F(1, 5)), model.scale(F(1, 3))):
            for p in (3, 5, 7, 13, 31, 37):
                got, k = p_minimal_model(curve, p)
                seen.add(k > 0 if k else 0)
                if k == 0:
                    assert got is curve
                    continue
                scaled = curve.scale(F(p) ** k)
                assert got == scaled
                fresh = std_quantities(Curve(scaled.a2, scaled.a4, scaled.a6))
                v_c4 = vp(fresh.c4, p) if fresh.c4 else None
                report = classify(curve, p)
                assert (report.v_delta, report.v_c4, report.scaling_exponent) == (
                    vp(fresh.delta, p), v_c4, k
                )
    assert seen == {0, True, False}


def test_p_minimal_model_rejects_two():
    with pytest.raises(ValueError):
        p_minimal_model(Curve(0, 1512, 33588), 2)
    with pytest.raises(ValueError):
        classify(Curve(0, 1512, 33588), 2)


def test_classify_t31_additive_fixture():
    assert curve_E(31).contains(T31_POINT)
    model = curve_Epp(F(31), T31_POINT.x)
    for p in (13, 31, 37):
        report = classify(model, p)
        assert report.type == "add", (p, report)
        assert report.v_delta > 0
        assert report.v_c4 is None or report.v_c4 > 0
    # supporting facts
    assert vp(T31_POINT.x, 13) == 2
    assert vp(T31_POINT.x, 37) == 1
    assert (-150072) % 31 == 30
    assert 31**2 + 1 == 2 * 13 * 37


def test_classify_t17_additive_at_3():
    assert curve_E(17).contains(T17_POINT)
    report = classify(curve_Epp(F(17), T17_POINT.x), 3)
    assert report.type == "add"
    assert vp(T17_POINT.y, 3) > 0  # the hypothesis failure that allows it


def test_classify_t3_multiples_never_additive_at_5():
    base = curve_E(3)
    seed = point_R(3)
    for m in range(2, 6):
        x = base.mul(m, seed).x
        report = classify(curve_Epp(F(3), x), 5)
        assert report.type in ("good", "mult"), (m, report)


def test_classification_invariant_under_coprime_scaling():
    model = curve_Epp(F(3), curve_E(3).mul(2, point_R(3)).x)
    for p in (3, 5, 7):
        base_report = classify(model, p)
        for u in (F(2), F(11, 2), F(1, 13)):
            scaled_report = classify(model.scale(u), p)
            assert (base_report.type, base_report.v_delta, base_report.v_c4) == (
                scaled_report.type,
                scaled_report.v_delta,
                scaled_report.v_c4,
            )


def _reference_p_minimal_model(curve: Curve, p: int) -> tuple[Curve, int]:
    """The earlier p_minimal_model body, kept verbatim as the reference."""
    require_odd_prime(p)
    exponents = [
        vp(coeff, p) // i
        for i, coeff in ((2, curve.a2), (4, curve.a4), (6, curve.a6))
        if coeff != 0
    ]
    k = min(exponents)
    return (curve.scale(F(p) ** k) if k else curve), k


def _reference_scaled_classify(curve: Curve, p: int) -> ReductionReport:
    """The earlier classify body, kept verbatim as the reference: it builds
    the scaled model and takes the valuations of its own invariants."""
    model, k = _reference_p_minimal_model(curve, p)
    sq = std_quantities(model)
    v_delta = vp(sq.delta, p)
    v_c4 = vp(sq.c4, p) if sq.c4 != 0 else None
    if v_delta == 0:
        kind = GOOD
    elif v_c4 == 0:
        kind = MULTIPLICATIVE
    else:
        kind = ADDITIVE
    return ReductionReport(p, kind, v_delta, v_c4, k)


@functools.cache
def _epp_at_multiple(t: int, m: int) -> tuple[Curve, tuple[int, ...]]:
    """The two-torsion model at x([m]R) and its bad primes: the odd primes
    of t(t^2 + 1) and those below 1000 of the coordinates of [m]R."""
    pt = curve_E(t).mul(m, point_R(t))
    coords = abs(pt.x.numerator * pt.x.denominator * pt.y.numerator * pt.y.denominator)
    primes = set(odd_prime_divisors(t * (t * t + 1)))
    primes |= {p for p in range(3, 1000) if coords % p == 0 and is_prime(p)}
    return curve_Epp(F(t), pt.x), tuple(sorted(primes))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 60),
    st.integers(2, 4),
    st.data(),
    st.fractions(min_value=-50, max_value=50, max_denominator=50).filter(lambda u: u != 0),
)
def test_classify_matches_reference(t, m, data, u):
    model, primes = _epp_at_multiple(t, m)
    p = data.draw(st.sampled_from(primes))
    j = data.draw(st.integers(-2, 2))
    for curve in (model, model.scale(u), model.scale(u * F(p) ** j)):
        assert classify(curve, p) == _reference_scaled_classify(curve, p)
        assert p_minimal_model(curve, p) == _reference_p_minimal_model(curve, p)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 60), st.integers(2, 5), st.booleans())
def test_classified_from_cleared_model_matches_classify(t, m, negate):
    # the pipeline's rows, from the integers of the point's model, against
    # classify on the model as a Curve at every bad prime of [m]R
    model, primes = _epp_at_multiple(t, m)
    pt = curve_E(t).mul(m, point_R(t))
    sign = -1 if negate else 1
    rows = list(_classified(_cleared_Epp(sign * t, 1, pt.x), primes))
    assert [ReductionReport(*row) for row in rows] == [classify(model, p) for p in primes]
    assert [ReductionReport(*row) for row in rows] == [
        classify(curve_Epp(F(sign * t), pt.x), p) for p in primes
    ]


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 60), st.integers(2, 5), st.data())
def test_classified_ignores_a_common_factor(t, m, data):
    # any common denominator gives the same rows: scale d and every c_i by
    # g, a product of bad primes and one more integer
    _, primes = _epp_at_multiple(t, m)
    d, c2, c4, c6, disc = model = _cleared_Epp(t, 1, curve_E(t).mul(m, point_R(t)).x)
    powers = data.draw(st.lists(st.tuples(st.sampled_from(primes), st.integers(1, 6)), max_size=3))
    g = math.prod(p**e for p, e in powers) * data.draw(st.integers(1, 10**6))
    scaled = (g * d, g * c2, g * c4, g * c6)
    assert _cleared_discriminant(*scaled) == g**4 * disc
    assert list(_classified((*scaled, g**4 * disc), primes)) == list(_classified(model, primes))


def _reference_classify(curve: Curve, p: int) -> ReductionReport:
    """The Fraction classify body, kept as the reference for the one on the
    cleared integers: k from the valuations of a2, a4, a6, and v(delta),
    v(c4) from ``std_quantities(curve)``."""
    require_odd_prime(p)
    k = min(
        _rat_vp(coeff, p) // i
        for i, coeff in ((2, curve.a2), (4, curve.a4), (6, curve.a6))
        if coeff != 0
    )
    sq = std_quantities(curve)
    v_delta = _rat_vp(sq.delta, p) - 12 * k
    v_c4 = _rat_vp(sq.c4, p) - 4 * k if sq.c4 != 0 else None
    if v_delta == 0:
        kind = GOOD
    elif v_c4 == 0:
        kind = MULTIPLICATIVE
    else:
        kind = ADDITIVE
    return ReductionReport(p, kind, v_delta, v_c4, k)


CLASSIFY_PRIMES = (3, 5, 7, 11, 13)


def _prime_power_product(sign: int, num: list, den: list) -> F:
    return sign * F(math.prod(p**e for p, e in num), math.prod(p**e for p, e in den))


_prime_powers = st.lists(
    st.tuples(st.sampled_from((2, *CLASSIFY_PRIMES)), st.integers(0, 9)), max_size=3
)
#: Rationals whose numerators and denominators are products of prime powers
#: at the primes tested, so that valuations well away from 0 are common.
prime_power_rationals = st.builds(
    _prime_power_product, st.sampled_from((1, -1)), _prime_powers, _prime_powers
)
classify_coefficients = (
    st.just(F(0))
    | prime_power_rationals
    | st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**4)
)


def _c4_zero_coefficients(s: F, a6: F) -> tuple[F, F, F]:
    """a2 = 3s, a4 = 3s^2: x^3 + a2 x^2 + a4 x + a6 = (x + s)^3 + a6 - s^3,
    whose c4 = 16 (a2^2 - 3 a4) vanishes."""
    return 3 * s, 3 * s * s, a6


@settings(max_examples=300, deadline=None)
@given(
    st.tuples(classify_coefficients, classify_coefficients, classify_coefficients)
    | st.tuples(st.just(F(0)), st.just(F(0)), classify_coefficients)
    | st.builds(_c4_zero_coefficients, classify_coefficients, classify_coefficients),
    prime_power_rationals,
)
def test_classify_on_cleared_integers_matches_fraction_invariants(coeffs, u):
    try:
        curve = Curve(*coeffs)
    except ValueError:
        assume(False)
    for model in (curve, curve.scale(u)):
        for p in CLASSIFY_PRIMES:
            want = _reference_classify(model, p)
            assert classify(model, p) == want
            assert p_minimal_model(model, p)[1] == want.scaling_exponent


def _random_integral_coefficients(rng: random.Random, p: int) -> tuple[int, int, int]:
    """a2, a4, a6 with small cofactors of random powers of p; one draw in
    four has c4 = 0 (a2 = 3s, a4 = 3s^2), so j = 0."""
    a2, a4, a6 = (rng.randint(-30, 30) * p ** rng.randint(0, 2) for _ in range(3))
    if rng.random() < 0.25:
        a2 = 3 * rng.randint(-10, 10) * p ** rng.randint(0, 1)
        a4 = a2 * a2 // 3
    return a2, a4, a6


def test_classify_matches_sympy_discriminant_and_j():
    # an independent oracle; integral coefficients only, because sympy's
    # EllipticCurve truncates rational ones
    sympy = pytest.importorskip("sympy")
    from sympy.ntheory.elliptic_curve import EllipticCurve

    def v(n, p):
        return sympy.multiplicity(p, abs(n))

    rng = random.Random(16)
    checked = 0
    while checked < 400:
        p = rng.choice(CLASSIFY_PRIMES)
        a2, a4, a6 = _random_integral_coefficients(rng, p)
        e = rng.randint(0, 2)
        a2, a4, a6 = a2 * p ** (2 * e), a4 * p ** (4 * e), a6 * p ** (6 * e)
        oracle = EllipticCurve(a4, a6, a2=a2)
        if oracle.discriminant == 0:
            continue
        report = classify(Curve(a2, a4, a6), p)
        assert report.v_delta == v(oracle.discriminant, p) - 12 * report.scaling_exponent
        j = sympy.Rational(oracle.j_invariant)
        if j == 0:
            assert report.v_c4 is None
        else:
            assert report.v_c4 is not None
            assert 3 * report.v_c4 == v(j.p, p) - v(j.q, p) + report.v_delta
        checked += 1


@pytest.mark.xfail(
    strict=True, reason="p_minimal_model only u-scales; this model needs x -> x - 1 first"
)
def test_classify_needs_translation_before_scaling():
    # after x -> x - 1 the curve is y^2 = x^3 + 5^4 x + 5^6, i.e. x^3 + x + 1 at u = 5
    assert classify(Curve(3, 3 + 5**4, 1 + 5**4 + 5**6), 5).type == "good"


def test_report_json_shape():
    report = classify(curve_Epp(F(31), T31_POINT.x), 13)
    data = report.to_json_dict()
    assert list(data) == ["p", "type", "v_delta", "v_c4", "scaling_exponent"]
    assert data["type"] == "add"


# ---------------------------------------------------------------------------
# bad-prime scan
# ---------------------------------------------------------------------------

def test_bad_primes_t3_candidates():
    pt = curve_E(3).mul(2, point_R(3))
    report = bad_primes_epp(3, pt)
    assert report.candidates == (3, 5)  # odd primes of t(t^2+1) = 30
    assert report.additive == ()
    assert report.prop_applicable and report.prop_holds
    classified = dict(report.entries)
    assert set(classified) >= {3, 5}
    for extra in set(classified) - {3, 5}:
        assert classified[extra].v_delta > 0


def test_bad_primes_t31_fixture():
    report = bad_primes_epp(31, T31_POINT)
    assert report.candidates == (13, 31, 37)
    assert report.additive == (13, 31, 37)
    assert report.prop_applicable and report.prop_holds


def test_bad_primes_t17_exception():
    report = bad_primes_epp(17, T17_POINT)
    assert not report.prop_applicable  # v_3(y) > 0
    assert report.prop_holds is None
    assert 3 in report.additive
    assert 3 not in report.candidates


def test_bad_primes_factor_bound():
    with pytest.raises(UnfactorableError):
        bad_primes_epp(3, curve_E(3).mul(2, point_R(3)), bound=2)


def test_bad_primes_rejects_off_curve():
    with pytest.raises(ValueError):
        bad_primes_epp(31, Point(-150072, 1))


def _reference_bad_primes_epp(
    t: int, pt, bound: int = DEFAULT_FACTOR_BOUND
) -> BadPrimesReport:
    """The earlier bad_primes_epp body, kept verbatim as the reference: it
    also factors the denominator of y.  Its entries become the report's
    rows at the end."""
    if not isinstance(t, int):
        raise ValueError("integer parameter required for the bad-prime scan")
    tq = require_param(t)
    require_base_point(tq, pt)
    x, y = pt.x, pt.y
    model = curve_Epp(tq, x)

    candidates = tuple(odd_prime_divisors(t * (t * t + 1), bound))
    extra_sources = (x.numerator, x.denominator, y.numerator, y.denominator)
    extras = sorted(
        {
            p
            for source in extra_sources
            if source not in (1, -1)
            for p in odd_prime_divisors(source, bound)
        }
        - set(candidates)
    )

    entries: list[tuple[int, ReductionReport]] = []
    for p in candidates:
        entries.append((p, classify(model, p)))
    for p in extras:
        report = classify(model, p)
        if report.v_delta > 0:
            entries.append((p, report))
    entries.sort(key=lambda item: item[0])

    additive = tuple(p for p, rep in entries if rep.type == ADDITIVE)
    applicable = vp(y, 3) <= 0 if y != 0 else False
    holds: bool | None = None
    if applicable:
        holds = set(additive) <= set(candidates)
        if not holds:
            raise ConsistencyError(
                f"additive primes {additive} escape the candidate set "
                f"{candidates} at t = {t} despite v_3(y) <= 0"
            )
    return BadPrimesReport(
        t=t,
        x=x,
        y=y,
        rows=tuple((rep.p, rep.type, rep.v_delta, rep.v_c4, rep.scaling_exponent) for _, rep in entries),
        candidates=candidates,
        additive=additive,
        prop_applicable=applicable,
        prop_holds=holds,
    )


def _outcome(scan, *args):
    """The report of a bad-prime scan, or the type and text of its refusal."""
    try:
        return scan(*args)
    except (UnfactorableError, ConsistencyError) as exc:
        return type(exc), str(exc)


def test_bad_primes_match_reference():
    # on the integral base curve x = X/e^2 and y = Y/e^3, so y's denominator
    # adds no prime, and a refusal on it would come from x's first
    refused = 0
    for t in range(2, 61):
        for m in range(2, 5):
            pt = curve_E(t).mul(m, point_R(t))
            got = _outcome(bad_primes_epp, t, pt)
            assert got == _outcome(_reference_bad_primes_epp, t, pt), (t, m)
            refused += isinstance(got, tuple)
    assert 0 < refused < 177  # both answers and refusals were compared


# ---------------------------------------------------------------------------
# valuation tables
# ---------------------------------------------------------------------------

def test_valuation_table_t3_p5_values():
    rows = valuation_table(3, 5, m_max=4)
    by_part = {}
    for row in rows:
        by_part.setdefault(row.lemma_part, []).append(row)
    assert by_part["v(x([2]R))"][0].observed == 0  # x = 168
    assert by_part["v(x([3]R))"][0].observed == 4  # x = 220000/441
    assert all(row.passed for row in rows)


@pytest.mark.parametrize("t, p", [(3, 5), (8, 13), (4, 17)])
def test_valuation_tables_pass(t, p):
    rows = valuation_table(t, p, m_max=4)
    assert rows and all(row.passed for row in rows)


def test_valuation_table_t4_p17_fourth_multiple():
    rows = valuation_table(4, 17, m_max=1)
    parts = {row.lemma_part: row for row in rows if row.m == 4}
    assert parts["v(x([4]R))"].observed == -2
    assert parts["v(y([4]R))"].observed == -3


def test_valuation_table_preconditions():
    with pytest.raises(ValueError):
        valuation_table(7, 5, m_max=2)  # 50 = 2 * 5^2: not exact division
    with pytest.raises(ValueError):
        valuation_table(3, 7, m_max=2)  # 7 does not divide 10
    with pytest.raises(ValueError):
        valuation_table(3, 2, m_max=2)  # p = 2 out of scope
    with pytest.raises(ValueError):
        valuation_table(3, 5, m_max=100)  # beyond desk scale


def test_mod3_sign_tables():
    for t in (2, 3, 5):
        rows = mod3_sign_table(t, m_max=3)
        assert rows and all(row.passed for row in rows)


def test_mod3_sign_table_t3_witness():
    # v_3(x([3]R)) at t = 3: x = 220000/441 and 441 = 3^2 * 49
    assert vp(F(220000, 441), 3) == -2
    rows = mod3_sign_table(3, m_max=1)
    first = {row.lemma_part: row for row in rows}
    assert first["sign v3(x([m][3]R))"].observed == -1


_SMALL_ODD_PRIMES = [p for p in range(3, 200) if is_prime(p)]


@st.composite
def _sum_case(draw):
    """(curve, s, q, p): s = [i]G and q = [j]G on a curve with integral
    coefficients (the base curve at an integer t), a u-scaled one or an
    induced one (d > 1), with j free, j = i (x1 = x2), j = 0 (q = O) or
    i + j = 1 (the sum is R, whose x is 0), and p = 3, a prime of x(s + q)'s
    denominator or numerator, or a small prime."""
    kind = draw(st.sampled_from(["integral", "scaled", "induced"]))
    if kind == "integral":
        t = draw(st.integers(min_value=2, max_value=40))
        curve, gen = curve_E(t), point_R(t)
    else:
        t = draw(st.fractions(min_value=-12, max_value=12, max_denominator=6).filter(
            lambda t: t not in (-1, 0, 1)))
        if kind == "scaled":
            u = draw(st.fractions(min_value=-30, max_value=30, max_denominator=30).filter(bool))
            curve, gen = curve_E(t).scale(u), curve_E(t).scale_point(point_R(t), u)
        else:
            a, b, c = triple_from_multiple(t, 2).elements
            curve, gen = induced_curve(a, b, c), point_Pprime(a, b, c)
    i = draw(st.integers(min_value=-5, max_value=5).filter(bool))
    relation = draw(st.sampled_from(["free", "same", "infinity", "zero"]))
    j = {"free": draw(st.integers(min_value=-5, max_value=5)), "same": i, "infinity": 0,
         "zero": 1 - i}[relation]
    s, q = curve.mul(i, gen), curve.mul(j, gen)
    x = curve.add_x_unchecked(s, q)
    assume(x is not None)
    primes = [3, 5, 7]
    if x:
        primes += [p for p in _SMALL_ODD_PRIMES if (x.numerator * x.denominator) % p == 0]
    return curve, s, q, draw(st.sampled_from(primes))


def test_sum_valuation_matches_reduced_sum():
    """The valuation of x(s + q) read off its unreduced integers equals that
    of the reduced Fraction, on integral curves and curves with d > 1, at
    primes of the denominator (v < 0) and at p = 3; the x1 = x2 fallback
    and a zero sum (the same error) are met too."""
    seen = set()

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(_sum_case())
    def check(case):
        curve, s, q, p = case
        seen.add("d > 1" if curve._cleared[0] > 1 else "d = 1")
        if q.is_infinity or s.x == q.x:
            seen.add("fallback")
        else:
            plus, minus, den = curve._sum_x_parts(s, q)
            assert (F(plus, den), F(minus, den)) == curve.add_sub_x_unchecked(s, q)
        try:
            want = _rat_vp(curve.add_x_unchecked(s, q), p)
        except ValueError as exc:
            seen.add("zero")
            with pytest.raises(ValueError) as info:
                _sum_vp(curve, s, q, p)
            assert str(info.value) == str(exc) == "valuation of 0 is undefined"
            return
        assert _sum_vp(curve, s, q, p) == want, (curve, s, q, p)
        seen.update(["v < 0"] * (want < 0) + ["p = 3"] * (p == 3))

    check()
    assert seen == {"d = 1", "d > 1", "fallback", "zero", "v < 0", "p = 3"}, seen


def _reference_tables(t: int, p: int, m_max: int) -> list[ValuationRow]:
    """The lemma table at (t, p) as the reduced Fraction path builds it: each
    sum by the checked group law on the identities' base curve, its
    valuation by vp of the reduced x."""
    curve, seed = curve_E(t), point_R(t)
    step = 3 if p == 3 else 4
    multiples = [INFINITY]
    for _ in range(step):
        multiples.append(curve.add(multiples[-1], seed))

    def x_vp(s, q):
        return vp(curve.add(s, q).x, p)

    def sign(v):
        return (v > 0) - (v < 0)

    rows = []
    if p != 3:
        r2, r3, r4 = multiples[2:]
        rows += [
            ValuationRow(2, 0, vp(r2.x, p), "v(x([2]R))"),
            ValuationRow(3, 4, vp(r3.x, p), "v(x([3]R))"),
            ValuationRow(4, -2, vp(r4.x, p), "v(x([4]R))"),
            ValuationRow(4, -3, vp(r4.y, p), "v(y([4]R))"),
        ]
    q = INFINITY
    for m in range(1, m_max + 1):
        q = curve.add(q, multiples[step])
        if p == 3:
            rows += [
                ValuationRow(m, -1, sign(vp(q.x, 3)), "sign v3(x([m][3]R))"),
                ValuationRow(m, 1, sign(x_vp(seed, q)), "sign v3(x(R+[m][3]R))"),
                ValuationRow(m, 1, sign(x_vp(multiples[2], q)), "sign v3(x([2]R+[m][3]R))"),
            ]
            continue
        vm = vp(m, p)
        rows += [
            ValuationRow(m, -2 * vm - 2, vp(q.x, p), "v(x([4m]R))"),
            ValuationRow(m, 4 + vm, x_vp(seed, q), "v(x(R+[m][4]R))"),
            ValuationRow(m, 0, x_vp(multiples[2], q), "v(x([2]R+[m][4]R))"),
            ValuationRow(m, 4 + vp(m + 1, p), x_vp(multiples[3], q), "v(x([3]R+[m][4]R))"),
        ]
    return rows


def test_lemma_tables_match_reduced_reference_for_t_to_60():
    """Every integer t in 2..60 at m_max = 6: the mod-3 sign table, and the
    valuation table at every odd prime that exactly divides t^2 + 1, equal
    the reference row for row, JSON form included."""
    tables = 0
    for t in range(2, 61):
        exact = [p for p in odd_prime_divisors(t * t + 1) if vp(t * t + 1, p) == 1]
        for p, table in [(3, mod3_sign_table(t, 6))] + [(p, valuation_table(t, p, 6)) for p in exact]:
            want = _reference_tables(t, p, 6)
            assert table == want, (t, p)
            assert [row.to_json_dict() for row in table] == [row.to_json_dict() for row in want]
            tables += 1
    assert tables > 59


@pytest.mark.parametrize("table", [valuation_table, nonsingular_residues])
@pytest.mark.parametrize(("t", "p", "message"), [
    (0, 4, "4 is not prime"),
    (F(1, 2), 9, "9 is not prime"),
    (1, 2, "p = 2 is out of scope"),
    (3, 0, "0 is not prime"),
])
def test_tables_check_the_prime_before_t(table, t, p, message):
    with pytest.raises(ValueError, match=message):
        table(t, p, m_max=100)


def test_nonsingular_residues():
    assert nonsingular_residues(3, 3, m_max=6)
    assert nonsingular_residues(6, 3, m_max=6)
    assert nonsingular_residues(5, 5, m_max=6)
    with pytest.raises(ValueError):
        nonsingular_residues(3, 5, m_max=4)  # 5 does not divide 3
