import random
from fractions import Fraction as F

import pytest

from dioph6.exactnum import is_square
from dioph6.family import sigma3, triple_from_multiple
from dioph6.paramfam import (
    PRODUCT34_CURVE,
    PRODUCT34_GENERATOR,
    abc_closed_form,
    catalog,
    catalog_entry,
    def_closed_form,
    family_point,
    family_triple,
    rank_curve_membership,
    reconstruct_product34_triple,
)
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


def test_family_point_verifies():
    fp = family_point(6)
    assert fp.negatives == 0
    assert fp.report.all_pass
    assert verify_tuple(fp.elements).all_pass


def test_family_triple_carries_provenance():
    tri = family_triple(6)
    assert (tri.t, tri.m) == (6, 2)
    assert tri.sigma3 == sigma3(6)


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


# ---------------------------------------------------------------------------
# product-3/4 reconstruction
# ---------------------------------------------------------------------------

def test_product34_reconstruction():
    tri = reconstruct_product34_triple()
    assert set(tri.elements) == set(PRODUCT34_TRIPLE)
    assert tri.sigma3 == F(3, 4)
    for x, y in ((tri.a, tri.b), (tri.a, tri.c), (tri.b, tri.c)):
        assert is_square(x * y + 1)
    assert all(e > 0 for e in tri.elements)


def test_product34_generator_fixture():
    assert PRODUCT34_CURVE.contains(PRODUCT34_GENERATOR)
    assert str(PRODUCT34_CURVE) == "y^2 = x^3 + (0)x^2 + (1512)x + (33588)"
    # the generator is not torsion of small order
    assert PRODUCT34_CURVE.torsion_order_upto(PRODUCT34_GENERATOR, bound=12) is None


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
