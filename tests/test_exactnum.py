import math
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from dioph6 import exactnum
from dioph6.errors import UnfactorableError
from dioph6.exactnum import (
    _int_vp,
    _trial_divide,
    factorize,
    format_rat,
    is_prime,
    is_square,
    is_squarefree,
    isqrt,
    mod_p,
    odd_prime_divisors,
    parse_rat,
    sqrt_exact,
    vp,
)

rationals = st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**4)
nonzero_rationals = rationals.filter(lambda q: q != 0)
small_primes = st.sampled_from([2, 3, 5, 7, 11, 13, 31, 37])


# ---------------------------------------------------------------------------
# isqrt
# ---------------------------------------------------------------------------

def test_isqrt_examples():
    assert isqrt(49) == (7, True)
    assert isqrt(50) == (7, False)
    # oracle: long multiplication
    assert 37 * 37 == 1369
    assert isqrt(1369) == (37, True)
    assert isqrt(0) == (0, True)


def test_isqrt_rejects_negative():
    with pytest.raises(ValueError):
        isqrt(-1)


@given(st.integers(min_value=0, max_value=10**30))
def test_isqrt_floor_property(n):
    root, exact = isqrt(n)
    assert root * root <= n < (root + 1) * (root + 1)
    assert exact == (root * root == n)


# ---------------------------------------------------------------------------
# is_square / sqrt_exact
# ---------------------------------------------------------------------------

def test_is_square_examples():
    # oracle: (37/12)^2 expanded by hand
    assert F(37, 12) ** 2 == F(1369, 144)
    assert is_square(F(1369, 144))
    # oracle: ab + 1 for the closed-form triple at t = 2
    t = F(2)
    a = 18 * t * (t - 1) * (t + 1) / ((t * t - 6 * t + 1) * (t * t + 6 * t + 1))
    b = (t - 1) * (t * t + 6 * t + 1) ** 2 / (6 * t * (t + 1) * (t * t - 6 * t + 1))
    assert a * b + 1 == F(100, 49)
    assert is_square(F(100, 49))
    # 1*2 + 1 for the non-Diophantine pair {1, 2}
    assert not is_square(F(3))


def test_sqrt_exact_examples():
    assert sqrt_exact(F(0)) == 0
    assert sqrt_exact(F(1369, 144)) == F(37, 12)
    assert sqrt_exact(F(-4)) is None
    assert sqrt_exact(F(2)) is None


@given(rationals)
def test_square_roundtrip(q):
    root = sqrt_exact(q * q)
    assert root == abs(q)


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(
        rationals,
        st.integers(),
        st.builds(F, st.integers(-(10**3000), 10**3000), st.integers(1, 10**3000)),
    )
)
def test_sqrt_exact_root_is_canonical(r):
    r = F(r)
    root = sqrt_exact(r * r)
    expected = F(abs(r.numerator), r.denominator)
    assert root == expected
    assert hash(root) == hash(expected)
    assert str(root) == str(expected)
    assert math.gcd(root.numerator, root.denominator) == 1
    assert root.denominator > 0
    if r != 0:
        assert sqrt_exact(-r * r) is None
        assert sqrt_exact(r * r * 2) is None


@given(rationals)
def test_is_square_iff_sqrt_exact(q):
    root = sqrt_exact(q)
    assert is_square(q) == (root is not None)
    if root is not None:
        assert root >= 0
        assert root * root == q


# ---------------------------------------------------------------------------
# vp
# ---------------------------------------------------------------------------

def _x3R_closed(t):
    # closed form for the x-coordinate of the third seed multiple
    tt = t * t
    return (
        -F(8, 9)
        * (tt + 1) ** 4
        * (tt - 18 * t + 1)
        * (tt + 18 * t + 1)
        / ((tt - 6 * t + 1) ** 2 * (tt + 6 * t + 1) ** 2)
    )


def test_vp_examples():
    assert vp(F(50, 3), 5) == 2
    assert vp(F(3, 50), 5) == -2
    # oracle: substitute t = 3 into the closed form for x([3]R)
    assert _x3R_closed(F(3)) == F(220000, 441)
    assert vp(F(220000, 441), 5) == 4


def test_vp_rejects_zero_and_composite():
    with pytest.raises(ValueError):
        vp(F(0), 5)
    with pytest.raises(ValueError):
        vp(F(3), 4)


@given(nonzero_rationals, nonzero_rationals, small_primes)
def test_vp_additive_over_products(a, b, p):
    assert vp(a * b, p) == vp(a, p) + vp(b, p)


@given(nonzero_rationals, nonzero_rationals, small_primes)
def test_vp_ultrametric(a, b, p):
    if a + b == 0:
        return
    va, vb = vp(a, p), vp(b, p)
    assert vp(a + b, p) >= min(va, vb)
    if va != vb:
        assert vp(a + b, p) == min(va, vb)


# ---------------------------------------------------------------------------
# mod_p
# ---------------------------------------------------------------------------

def test_mod_p_examples():
    assert mod_p(F(-150072), 31) == 30  # i.e. -1 mod 31
    assert mod_p(F(7, 2), 5) == 1  # 7 * 3 = 21 = 1
    assert mod_p(F(0), 7) == 0


def test_mod_p_rejects_bad_denominator():
    with pytest.raises(ValueError):
        mod_p(F(1, 5), 5)


@given(rationals, rationals, small_primes)
def test_mod_p_ring_homomorphism(a, b, p):
    if a.denominator % p == 0 or b.denominator % p == 0:
        return
    assert mod_p(a + b, p) == (mod_p(a, p) + mod_p(b, p)) % p
    assert mod_p(a * b, p) == (mod_p(a, p) * mod_p(b, p)) % p


# ---------------------------------------------------------------------------
# squarefree / factorization
# ---------------------------------------------------------------------------

def test_is_squarefree_examples():
    assert is_squarefree(10)
    assert not is_squarefree(50)
    # oracle: 65 = 5 * 13 by trial division
    assert 5 * 13 == 65
    assert is_squarefree(65)
    assert is_squarefree(1)


def test_is_squarefree_bound_behaviour():
    assert not is_squarefree(121, bound=10)  # perfect square beyond the bound
    assert not is_squarefree(11**3, bound=10)  # perfect cube beyond the bound
    # 143 = 11 * 13: both factors exceed bound 10, not a perfect power,
    # certified composite, so the test must refuse rather than guess
    with pytest.raises(UnfactorableError):
        is_squarefree(143, bound=10)


def test_factorize():
    assert factorize(360) == {2: 3, 3: 2, 5: 1}
    assert factorize(31 * (31**2 + 1)) == {2: 1, 13: 1, 31: 1, 37: 1}
    assert odd_prime_divisors(30) == [3, 5]
    with pytest.raises(UnfactorableError):
        factorize(143, bound=10)


@pytest.mark.parametrize("bound", [0, -5, -20])
def test_factor_bound_must_be_positive(bound):
    # a bound below 1 would make "cofactor <= bound^2" certify 25 or 385 as prime
    for n in (25, 385):
        with pytest.raises(ValueError, match="bound") as info:
            factorize(n, bound=bound)
        assert not isinstance(info.value, UnfactorableError)
        with pytest.raises(ValueError, match="bound"):
            is_squarefree(n, bound=bound)


def _reference_trial_divide(n: int, bound: int) -> tuple[dict[int, int], int]:
    """The earlier trial-division loop, kept verbatim as the reference."""
    if bound < 1:
        raise ValueError(f"trial-division bound must be at least 1, got {bound}")
    factors: dict[int, int] = {}
    m = n
    for p in (2, 3):
        if m % p == 0:
            factors[p] = e = _int_vp(m, p)
            m //= p**e
    d = 5
    while d * d <= m and d <= bound:
        for cand in (d, d + 2):
            if m % cand == 0:
                factors[cand] = e = _int_vp(m, cand)
                m //= cand**e
        d += 6
    if m > 1 and (m <= bound * bound or is_prime(m)):
        factors[m] = 1
        m = 1
    return factors, m


def _outcome(fn, *args):
    """A call's result, or the type and text of the error it raised; dicts
    become item lists so that key order counts."""
    try:
        result = fn(*args)
    except ValueError as exc:
        return type(exc).__name__, str(exc)
    return list(result.items()) if isinstance(result, dict) else result


#: Primes on either side of the trial-division bounds below, so that
#: factors sit just inside, on and just past the limit of the loop.
EDGE_PRIMES = (2, 3, 5, 7, 11, 13, 991, 997, 1009, 999983, 1000003)
edge_powers = st.tuples(st.sampled_from(EDGE_PRIMES), st.integers(1, 2)).map(lambda pe: pe[0] ** pe[1])
edge_products = st.builds(
    lambda powers, r: math.prod(powers) * r,
    st.lists(edge_powers, max_size=4),
    st.integers(1, 10**6) | st.integers(10**12, 10**14),
)
trial_bounds = st.integers(1, 12) | st.sampled_from([997, 999983, 999995, 10**6])


@settings(max_examples=80, deadline=None)
@given(edge_products, trial_bounds)
@example(997 * 1009, 997)
@example(999983 * 1000003, 999983)
@example(999983 * 1000003, 999995)
@example(999983**2 * 1000003**2, 10**6)
@example(1000003**2, 999995)
@example(1000003 * (10**12 + 39), 10**6)
def test_trial_division_matches_reference(n, bound):
    expected = _reference_trial_divide(n, bound)
    factors, cofactor = _trial_divide(n, bound)
    assert (list(factors.items()), cofactor) == (list(expected[0].items()), expected[1])
    with mock.patch.object(exactnum, "_trial_divide", lambda *_: expected):
        want = [_outcome(fn, n, bound) for fn in (factorize, is_squarefree)]
    assert [_outcome(fn, n, bound) for fn in (factorize, is_squarefree)] == want


@pytest.fixture(scope="module")
def sympy():
    return pytest.importorskip("sympy")


@settings(max_examples=40, deadline=None)
@given(edge_products)
def test_factorize_matches_sympy(sympy, n):
    bound = exactnum.DEFAULT_FACTOR_BOUND
    truth = sympy.factorint(n)
    try:
        factors = factorize(n)
    except UnfactorableError as exc:
        cofactor = int(str(exc).split(" has a cofactor ")[1].split()[0])
        assert str(exc) == (
            f"{n} has a cofactor {cofactor} unfactorable at desk scale (bound {bound})"
        )
        # the refused cofactor is composite and free of primes up to the bound
        assert n % cofactor == 0 and not sympy.isprime(cofactor)
        assert min(sympy.factorint(cofactor)) > bound
        return
    assert factors == truth
    assert list(factors) == sorted(factors)


def test_is_prime():
    assert [n for n in range(2, 40) if is_prime(n)] == [
        2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37,
    ]
    assert is_prime(10**9 + 7)
    assert not is_prime(10**12 + 1)


# ---------------------------------------------------------------------------
# text form
# ---------------------------------------------------------------------------

def test_parse_and_format():
    assert parse_rat("3/4") == F(3, 4)
    assert parse_rat("-3/4") == F(-3, 4)
    assert parse_rat("6") == 6
    assert format_rat(F(-3, 4)) == "-3/4"
    assert format_rat(F(8, 2)) == "4"


@pytest.mark.parametrize("bad", ["1/0", "3.5", "a", "1 / 2", "--3", "+3", ""])
def test_parse_rejects(bad):
    with pytest.raises(ValueError):
        parse_rat(bad)


@given(rationals)
def test_parse_format_roundtrip(q):
    assert parse_rat(format_rat(q)) == q
