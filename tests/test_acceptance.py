"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria complete.  Expected values are frozen from independent oracles or
embedded reference data; runtimes are asserted against the stated budgets.
"""

import json
import random
import time
from contextlib import contextmanager
from fractions import Fraction as F

from dioph6.cli import main as cli_main
from dioph6.exactnum import sqrt_exact, vp
from dioph6.family import triple_from_multiple
from dioph6.identities import (
    curve_E,
    curve_Epp,
    half_point_check,
    is_squarefree,
    mod_p,
    order3_check,
    point_R,
    point_Sprime,
    rank_curve_membership,
    reconstruct_product34_triple,
    square_product_check,
    three_torsion_condition,
)
from dioph6.paramfam import catalog_entry, family_point
from dioph6.reduction_lab import (
    classify,
    mod3_sign_table,
    valuation_table,
)
from dioph6.sextuple_engine import induced_curve, point_Pprime, verify_tuple
from dioph6.weierstrass import Point

T6_PRINTED = [
    "3780/73",
    "26645/252",
    "7/13140",
    "791361752602550684660/1827893092234556692801",
    "95104852709815809228981184/351041911654651335633266955",
    "3210891270762333567521084544/21712719223923581005355",
]


@contextmanager
def budget(number, label, seconds):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"[criterion {number:02d}] FAIL {label}")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < seconds, f"criterion {number} overran: {elapsed:.1f}s >= {seconds}s"
    print(f"[criterion {number:02d}] PASS {label} ({elapsed:.2f}s)")


def test_criterion_01_golden_verification():
    with budget(1, "golden verification of the four reference tuples", 1.0):
        for name in ("diophantus", "fermat", "euler", "gibbs"):
            entry = catalog_entry(name)
            report = verify_tuple(entry.elements)
            assert report.all_pass, name
            for witness in report.pair_results:
                assert witness.square_root is not None
                assert witness.square_root**2 == witness.product_plus_one


def test_criterion_02_t6_end_to_end(capsys):
    with budget(2, "t = 6 end to end, both routes, exact strings", 10.0):
        for route in ("isogeny", "closed-form"):
            code = cli_main(
                ["generate", "--t", "6", "--m", "2", "--n", "1", "--route", route]
            )
            out = capsys.readouterr().out
            assert code == 0, route
            data = json.loads(out)
            assert sorted(data["elements"]) == sorted(T6_PRINTED), route
        # the closed-form route reproduces the printed order exactly
        cli_main(["generate", "--t", "6", "--route", "closed-form"])
        data = json.loads(capsys.readouterr().out)
        assert data["elements"] == T6_PRINTED


def test_criterion_03_sign_regions():
    with budget(3, "sign regions: 0/1/2/3 negatives, constant on intervals", 30.0):
        fixtures = [(F(6), 0), (F(7), 1), (F(5, 4), 2), (F(2), 3)]
        for t, expected in fixtures:
            assert family_point(t).negatives == expected, t
        regions = [
            (F(59, 10), F(68, 10), 0),
            (F(7), F(14), 1),
            (F(101, 100), F(131, 100), 2),
            (F(27, 20), F(49, 20), 3),
        ]
        for lo, hi, expected in regions:
            step = (hi - lo) / 9
            for i in range(1, 9):  # 8 strictly interior samples
                t = lo + step * i
                assert family_point(t).negatives == expected, (lo, hi, t)


def test_criterion_04_square_product_property():
    with budget(4, ">= 100 random square-product checks on >= 5 curves", 60.0):
        rng = random.Random(20160404)
        params = (F(2), F(3), F(5), F(6), F(5, 4))
        assert len(params) >= 5
        checked = 0
        for t in params:
            tri = triple_from_multiple(t, 2)
            a, b, c = tri.elements
            curve = induced_curve(a, b, c)
            base = point_Pprime(a, b, c)
            marked = point_Sprime(a, b, c)
            pool = []
            for i in range(-3, 4):
                for j in range(3):
                    q = curve.add(curve.mul(i, base), curve.mul(j, marked))
                    if not q.is_infinity:
                        pool.append(q)
            done = 0
            while done < 21:
                q, r = rng.choice(pool), rng.choice(pool)
                if curve.add(q, r).is_infinity:
                    continue
                value, square = square_product_check(curve, q, r)
                assert square, (t, q, r, value)
                done += 1
            checked += done
        assert checked >= 100


def test_criterion_05_order3_and_half_point():
    with budget(5, "order-3 and half-point checks on the (t, m) grid", 60.0):
        for t in (F(2), F(3), F(5), F(6)):
            for m in (2, 3):
                tri = triple_from_multiple(t, m)
                a, b, c = tri.elements
                assert order3_check(a, b, c)
                assert three_torsion_condition(a, b, c)
                assert half_point_check(a, b, c)
        assert not three_torsion_condition(1, 3, 8)


def test_criterion_06_reduction_fixtures():
    with budget(6, "reduction fixtures at t = 31 and t = 17", 5.0):
        t31_point = Point(-150072, 682327360)
        assert curve_E(31).contains(t31_point)
        model = curve_Epp(F(31), t31_point.x)
        candidates = (13, 31, 37)  # odd primes of 31 * (31^2 + 1)
        additive = tuple(p for p in candidates if classify(model, p).type == "add")
        assert additive == (13, 31, 37)
        # no other odd bad prime turns additive
        from dioph6.reduction_lab import bad_primes_epp

        report = bad_primes_epp(31, t31_point)
        assert report.additive == (13, 31, 37)
        # supporting facts
        assert vp(t31_point.x, 13) == 2
        assert vp(t31_point.x, 37) == 1
        assert mod_p(t31_point.x, 31) == 31 - 1
        # t = 17 exception: additive at 3
        t17_point = Point(35000, 40986000)
        assert curve_E(17).contains(t17_point)
        assert classify(curve_Epp(F(17), t17_point.x), 3).type == "add"


def test_criterion_07_valuation_tables():
    with budget(7, "valuation tables at (3,5), (8,13), (4,17) and mod-3 signs", 60.0):
        for t, p in ((3, 5), (8, 13), (4, 17)):
            rows = valuation_table(t, p, m_max=4)
            assert rows and all(row.passed for row in rows), (t, p)
        # the stated witness for (3, 5)
        x3 = curve_E(3).mul(3, point_R(3)).x
        assert x3 == F(220000, 441)
        assert vp(x3, 5) == 4
        for t in (2, 3, 5):
            rows = mod3_sign_table(t, m_max=3)
            assert rows and all(row.passed for row in rows), t


def test_criterion_08_squarefree_family_property():
    with budget(8, "triples and no additive candidate primes for t = 2..20", 300.0):
        from dioph6.exactnum import odd_prime_divisors

        tested = 0
        for t in range(2, 21):
            if not is_squarefree(t * t + 1):
                continue  # t = 7 (50) and t = 18 (325)
            base = curve_E(t)
            seed = point_R(t)
            for m in (2, 3, 4):
                tri = triple_from_multiple(t, m)  # raises if the construction's checks fail
                for prod in (tri.a * tri.b, tri.a * tri.c, tri.b * tri.c):
                    assert sqrt_exact(prod + 1) is not None
                x = base.mul(m, seed).x
                model = curve_Epp(F(t), x)
                for p in odd_prime_divisors(t * (t * t + 1)):
                    assert classify(model, p).type != "add", (t, m, p)
                tested += 1
        assert tested == 17 * 3  # t^2+1 squarefree for all but t = 7, 18


def test_criterion_09_product34_reconstruction():
    with budget(9, "product-3/4 triple reconstruction and 6-element check", 10.0):
        printed = catalog_entry("product34-triple").elements
        tri = reconstruct_product34_triple()
        assert set(tri.elements) == set(printed)
        assert tri.elements[0].numerator != 0  # exact fractions, not floats
        sextuple = catalog_entry("product34-sextuple").elements
        assert sextuple[:3] == printed
        assert verify_tuple(sextuple).all_pass


def test_criterion_10_extension_curve_membership():
    with budget(10, "extension-curve membership of the five x values", 30.0):
        for t in (F(2), F(6)):
            results = rank_curve_membership(t)
            assert len(results) == 5
            for x, on_curve in results:
                assert on_curve, (t, x)
