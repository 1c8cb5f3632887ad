import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from dioph6 import paramfam
from dioph6.exactnum import Rat, sqrt_exact
from dioph6.family import require_param, triple_from_multiple
from dioph6.identities import (
    PRODUCT34_CURVE,
    PRODUCT34_GENERATOR,
    abc_closed_form,
    def_closed_form,
    rank_curve_membership,
    reconstruct_product34_triple,
    sigma3,
    torsion_order_upto,
)
from dioph6.paramfam import catalog, catalog_entry, family_point, family_triple
from dioph6.sextuple_engine import extend_to_sextuple, verify_tuple

PRODUCT34_TRIPLE = (
    F(36534805866201747, 2323780774755404),
    F(1065197767305747, 13609226201091404),
    F(3802080647508196, 6238332600753747),
)


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def test_abc_closed_form_values():
    assert abc_closed_form(6) == (F(3780, 73), F(26645, 252), F(7, 13140))
    assert abc_closed_form(2) == (F(-108, 119), F(-289, 252), F(49, 68))
    with pytest.raises(ValueError):
        abc_closed_form(1)


def test_def_closed_form_t6(t6_printed):
    d, e, f = def_closed_form(6)
    assert d == t6_printed[3]
    assert e == t6_printed[4]
    assert f == t6_printed[5]


def test_routes_agree():
    # closed forms must match the group-law pipeline elementwise
    for t in (F(2), F(5, 4), F(7)):
        tri = triple_from_multiple(t, 2)
        record = extend_to_sextuple(tri, 1)
        assert set(abc_closed_form(t)) == set(tri.elements)
        assert set(def_closed_form(t)) == {record.d, record.e, record.f}


# The closed forms as plain rational functions of t, kept as the reference
# for the integer evaluation in paramfam.

def _reference_abc_closed_form(t) -> tuple[Rat, Rat, Rat]:
    """The triple attached to [2]R, as rational functions of t."""
    t = require_param(t)
    tt = t * t
    down = tt - 6 * t + 1
    up = tt + 6 * t + 1
    if down == 0 or up == 0:
        raise ValueError(f"family denominator vanishes at t = {t}")
    a = 18 * t * (t - 1) * (t + 1) / (down * up)
    b = (t - 1) * up**2 / (6 * t * (t + 1) * down)
    c = (t + 1) * down**2 / (6 * t * (t - 1) * up)
    return a, b, c


def _reference_def_closed_form(t) -> tuple[Rat, Rat, Rat]:
    """The extension elements attached to [3]P', [3]P'+S', [3]P'-S'."""
    t = require_param(t)
    d1 = (
        6 * (t + 1) * (t - 1) * (t**2 + 6 * t + 1) * (t**2 - 6 * t + 1)
        * (8 * t**6 + 27 * t**5 + 24 * t**4 - 54 * t**3 + 24 * t**2 + 27 * t + 8)
        * (8 * t**6 - 27 * t**5 + 24 * t**4 + 54 * t**3 + 24 * t**2 - 27 * t + 8)
        * (t**8 + 22 * t**6 - 174 * t**4 + 22 * t**2 + 1)
    )
    d2 = t * (37 * t**12 - 885 * t**10 + 9735 * t**8 - 13678 * t**6 + 9735 * t**4 - 885 * t**2 + 37) ** 2
    e1 = (
        -2 * t * (4 * t**6 - 111 * t**4 + 18 * t**2 + 25)
        * (3 * t**7 + 14 * t**6 - 42 * t**5 + 30 * t**4 + 51 * t**3 + 18 * t**2 - 12 * t + 2)
        * (3 * t**7 - 14 * t**6 - 42 * t**5 - 30 * t**4 + 51 * t**3 - 18 * t**2 - 12 * t - 2)
        * (t**2 + 3 * t - 2) * (t**2 - 3 * t - 2)
        * (2 * t**2 + 3 * t - 1) * (2 * t**2 - 3 * t - 1)
        * (t**2 + 7) * (7 * t**2 + 1)
    )
    e2 = (
        3 * (t + 1) * (t**2 - 6 * t + 1) * (t - 1) * (t**2 + 6 * t + 1)
        * (16 * t**14 + 141 * t**12 - 1500 * t**10 + 7586 * t**8 - 2724 * t**6 + 165 * t**4 + 424 * t**2 - 12) ** 2
    )
    f1 = (
        2 * t * (25 * t**6 + 18 * t**4 - 111 * t**2 + 4)
        * (2 * t**7 - 12 * t**6 + 18 * t**5 + 51 * t**4 + 30 * t**3 - 42 * t**2 + 14 * t + 3)
        * (2 * t**7 + 12 * t**6 + 18 * t**5 - 51 * t**4 + 30 * t**3 + 42 * t**2 + 14 * t - 3)
        * (2 * t**2 + 3 * t - 1) * (2 * t**2 - 3 * t - 1)
        * (t**2 - 3 * t - 2) * (t**2 + 3 * t - 2)
        * (t**2 + 7) * (7 * t**2 + 1)
    )
    f2 = (
        3 * (t + 1) * (t**2 - 6 * t + 1) * (t - 1) * (t**2 + 6 * t + 1)
        * (12 * t**14 - 424 * t**12 - 165 * t**10 + 2724 * t**8 - 7586 * t**6 + 1500 * t**4 - 141 * t**2 - 16) ** 2
    )
    if d2 == 0 or e2 == 0 or f2 == 0:
        raise ValueError(f"family denominator vanishes at t = {t}")
    return d1 / d2, e1 / e2, f1 / f2


@settings(max_examples=150, deadline=None)
@given(st.integers(-10**30, 10**30), st.integers(1, 10**30))
@example(-1, 1)
@example(0, 1)
@example(1, 1)
@example(6, 1)
@example(-17, 13)
@example(-10**30, 10**30 - 1)
def test_closed_forms_match_reference(p, q):
    t = F(p, q)
    for fast, reference in (
        (abc_closed_form, _reference_abc_closed_form),
        (def_closed_form, _reference_def_closed_form),
    ):
        try:
            expected = reference(t)
        except ValueError as exc:
            with pytest.raises(ValueError) as info:
                fast(t)
            assert str(info.value) == str(exc)
        else:
            assert fast(t) == expected


@pytest.mark.parametrize("t", [-1, 0, 1])
def test_closed_forms_reject_excluded_t_like_reference(t):
    with pytest.raises(ValueError) as want:
        _reference_abc_closed_form(t)
    for fn in (abc_closed_form, def_closed_form, family_point, family_triple):
        with pytest.raises(ValueError) as got:
            fn(t)
        assert str(got.value) == str(want.value)


@pytest.fixture(scope="module")
def sympy():
    return pytest.importorskip("sympy")


# Each coefficient tuple beside its factor as written in the reference above.
_TRANSCRIBED_FACTORS = [
    (paramfam._DOWN, "t**2 - 6 * t + 1"),
    (paramfam._UP, "t**2 + 6 * t + 1"),
    (paramfam._D1_FACTORS[0], "8 * t**6 + 27 * t**5 + 24 * t**4 - 54 * t**3 + 24 * t**2 + 27 * t + 8"),
    (paramfam._D1_FACTORS[1], "8 * t**6 - 27 * t**5 + 24 * t**4 + 54 * t**3 + 24 * t**2 - 27 * t + 8"),
    (paramfam._D1_FACTORS[2], "t**8 + 22 * t**6 - 174 * t**4 + 22 * t**2 + 1"),
    (paramfam._D2_ROOT,
     "37 * t**12 - 885 * t**10 + 9735 * t**8 - 13678 * t**6 + 9735 * t**4 - 885 * t**2 + 37"),
    (paramfam._EF_QUADRATICS[0], "t**2 + 3 * t - 2"),
    (paramfam._EF_QUADRATICS[1], "t**2 - 3 * t - 2"),
    (paramfam._EF_QUADRATICS[2], "2 * t**2 + 3 * t - 1"),
    (paramfam._EF_QUADRATICS[3], "2 * t**2 - 3 * t - 1"),
    (paramfam._EF_QUADRATICS[4], "t**2 + 7"),
    (paramfam._EF_QUADRATICS[5], "7 * t**2 + 1"),
    (paramfam._E1_FACTORS[0], "4 * t**6 - 111 * t**4 + 18 * t**2 + 25"),
    (paramfam._E1_FACTORS[1],
     "3 * t**7 + 14 * t**6 - 42 * t**5 + 30 * t**4 + 51 * t**3 + 18 * t**2 - 12 * t + 2"),
    (paramfam._E1_FACTORS[2],
     "3 * t**7 - 14 * t**6 - 42 * t**5 - 30 * t**4 + 51 * t**3 - 18 * t**2 - 12 * t - 2"),
    (paramfam._E2_ROOT,
     "16 * t**14 + 141 * t**12 - 1500 * t**10 + 7586 * t**8 - 2724 * t**6 + 165 * t**4 + 424 * t**2 - 12"),
    (paramfam._F1_FACTORS[0], "25 * t**6 + 18 * t**4 - 111 * t**2 + 4"),
    (paramfam._F1_FACTORS[1],
     "2 * t**7 - 12 * t**6 + 18 * t**5 + 51 * t**4 + 30 * t**3 - 42 * t**2 + 14 * t + 3"),
    (paramfam._F1_FACTORS[2],
     "2 * t**7 + 12 * t**6 + 18 * t**5 - 51 * t**4 + 30 * t**3 + 42 * t**2 + 14 * t - 3"),
    (paramfam._F2_ROOT,
     "12 * t**14 - 424 * t**12 - 165 * t**10 + 2724 * t**8 - 7586 * t**6 + 1500 * t**4 - 141 * t**2 - 16"),
]


@pytest.mark.parametrize(
    "coeffs, text", _TRANSCRIBED_FACTORS, ids=[text for _, text in _TRANSCRIBED_FACTORS]
)
def test_coefficient_tuple_matches_sympy(sympy, coeffs, text):
    t, p, q = sympy.symbols("t p q")
    poly = sympy.Poly(sympy.sympify(text, locals={"t": t}), t)
    assert tuple(poly.all_coeffs()) == coeffs
    homogenized = sympy.expand(q ** poly.degree() * poly.as_expr().subs(t, p / q))
    assert sympy.expand(paramfam._hom(coeffs, p, q) - homogenized) == 0


def test_family_point_verifies():
    fp = family_point(6)
    assert fp.negatives == 0
    assert fp.report.all_pass
    assert verify_tuple(fp.elements).all_pass


def test_family_triple_carries_provenance():
    tri = family_triple(6)
    assert (tri.t, tri.m) == (6, 2)
    assert tri.sigma3 == sigma3(6)


@pytest.mark.parametrize("t", [F(6), F(2), F(-17, 13), F(9, 8), F(-5, 3)])
def test_family_point_triple_is_family_triple(t):
    # family_point's certificate holds family_triple's elements and, as the
    # roots of the pairs (1, 2), (1, 3) and (2, 3), its witnesses
    point, triple = family_point(t), family_triple(t)
    assert point.elements[:3] == triple.elements
    roots = [w.square_root for w in point.report.pair_results if w.j <= 3]
    assert roots == [triple.rho_ab, triple.rho_ac, triple.rho_bc]


def test_family_soundness_random_sample():
    rng = random.Random(13)
    count = 0
    while count < 50:
        t = F(rng.randint(-400, 400), rng.randint(1, 40))
        if t in (-1, 0, 1):
            continue
        try:
            fp = family_point(t)
        except ValueError:
            continue  # family denominator vanished; inadmissible point
        assert fp.report.all_pass
        count += 1


# ---------------------------------------------------------------------------
# sign regions
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "t, negatives",
    [(F(6), 0), (F(7), 1), (F(5, 4), 2), (F(2), 3)],
)
def test_sign_signature_fixtures(t, negatives):
    assert family_point(t).negatives == negatives


def _interior_samples(lo, hi, count=8):
    step = (hi - lo) / (count + 1)
    return [lo + step * (i + 1) for i in range(count)]


def test_sign_signature_constant_on_regions():
    regions = [
        (F(59, 10), F(68, 10), 0),
        (F(7), F(14), 1),  # unbounded region sampled on a finite window
        (F(101, 100), F(131, 100), 2),
        (F(27, 20), F(49, 20), 3),
    ]
    for lo, hi, expected in regions:
        for t in _interior_samples(lo, hi):
            assert family_point(t).negatives == expected, (lo, hi, t)


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

def test_catalog_entries_verify():
    entries = {e.name: e for e in catalog()}
    assert set(entries) == {
        "diophantus",
        "fermat",
        "euler",
        "gibbs",
        "family-t6",
        "product34-triple",
        "product34-sextuple",
    }
    for entry in entries.values():
        assert verify_tuple(entry.elements).all_pass
    assert entries["fermat"].elements == (1, 3, 8, 120)
    assert len(entries["product34-sextuple"].elements) == 6


def test_catalog_entry_lookup(gibbs_sextuple):
    assert catalog_entry("gibbs").elements == gibbs_sextuple
    with pytest.raises(KeyError):
        catalog_entry("nope")


def test_catalog_entry_verifies_only_its_entry(monkeypatch):
    checked = []

    def counted(elements):
        checked.append(elements)
        return verify_tuple(elements)

    monkeypatch.setattr(paramfam, "verify_tuple", counted)
    entry = catalog_entry("euler")
    assert checked == [entry.elements]
    assert entry == {e.name: e for e in catalog()}["euler"]
    checked.clear()
    with pytest.raises(KeyError):
        catalog_entry("nope")
    assert checked == []


# ---------------------------------------------------------------------------
# product-3/4 reconstruction
# ---------------------------------------------------------------------------

def test_product34_reconstruction():
    tri = reconstruct_product34_triple()
    assert set(tri.elements) == set(PRODUCT34_TRIPLE)
    assert tri.sigma3 == F(3, 4)
    for x, y in ((tri.a, tri.b), (tri.a, tri.c), (tri.b, tri.c)):
        assert sqrt_exact(x * y + 1) is not None
    assert all(e > 0 for e in tri.elements)


def test_product34_generator_fixture():
    assert PRODUCT34_CURVE.contains(PRODUCT34_GENERATOR)
    assert str(PRODUCT34_CURVE) == "y^2 = x^3 + (0)x^2 + (1512)x + (33588)"
    # the generator is not torsion of small order
    assert torsion_order_upto(PRODUCT34_CURVE, PRODUCT34_GENERATOR, bound=12) is None


def test_product34_sextuple_catalog_matches_triple():
    entry = catalog_entry("product34-sextuple")
    assert entry.elements[:3] == PRODUCT34_TRIPLE
    assert verify_tuple(entry.elements).all_pass


# ---------------------------------------------------------------------------
# extension-curve membership
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("t", [F(2), F(6)])
def test_rank_curve_membership(t):
    results = rank_curve_membership(t)
    assert len(results) == 5
    assert results[0][0] == 0
    for x, on_curve in results:
        assert on_curve, (t, x)


def test_rank_membership_x_zero_is_trivial():
    # (d*0+1)(e*0+1)(f*0+1) = 1 is always a square
    d, e, f = def_closed_form(11)
    assert (d * 0 + 1) * (e * 0 + 1) * (f * 0 + 1) == 1
