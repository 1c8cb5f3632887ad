import json
import math
import random
from fractions import Fraction as F
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from dioph6 import exactnum, identities
from dioph6.errors import UnfactorableError
from dioph6.exactnum import (
    _format_coprime,
    _format_square,
    _int_vp,
    _rat_vp,
    _refuse_past_limit,
    _trial_divide,
    factorize,
    format_rat,
    is_prime,
    odd_prime_divisors,
    parse_rat,
    sqrt_exact,
    vp,
)
from dioph6.identities import is_squarefree, mod_p
from dioph6.sextuple_engine import verify_tuple

rationals = st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**4)
nonzero_rationals = rationals.filter(lambda q: q != 0)
small_primes = st.sampled_from([2, 3, 5, 7, 11, 13, 31, 37])


# ---------------------------------------------------------------------------
# integer square roots: math.isqrt below exactnum._SQRTREM_BITS and the
# recursive exactnum._sqrtrem from there on propose the root under
# sqrt_exact, and squaring it back certifies it
# ---------------------------------------------------------------------------

def test_isqrt_examples():
    assert math.isqrt(49) == 7 and sqrt_exact(49) == 7
    assert math.isqrt(50) == 7 and sqrt_exact(50) is None
    # oracle: long multiplication
    assert 37 * 37 == 1369
    assert sqrt_exact(1369) == 37
    assert sqrt_exact(0) == 0


def test_isqrt_rejects_negative():
    with pytest.raises(ValueError):
        math.isqrt(-1)
    assert sqrt_exact(-1) is None


@given(st.integers(min_value=0, max_value=10**30))
def test_isqrt_floor_property(n):
    root = math.isqrt(n)
    assert root * root <= n < (root + 1) * (root + 1)
    assert sqrt_exact(n) == (root if root * root == n else None)


#: bit lengths 4a to 4a + 3 for each anchor 4a: all four residues mod 4 of
#: the normalizing shift, below the crossover, at it and up to 130,000 bits
_ROOT_BIT_ANCHORS = (
    8, 1000, exactnum._SQRTREM_BITS - 4, exactnum._SQRTREM_BITS, 2 * exactnum._SQRTREM_BITS,
    4 * exactnum._SQRTREM_BITS, 33_000, 130_000,
)


@st.composite
def sqrtrem_inputs(draw):
    """r*r, r*r - 1, r*r + 1 and r*r + 2r (the largest n with root r) for a
    random r of about half the drawn bit length, or a random n of exactly
    that bit length."""
    bits = draw(st.sampled_from(_ROOT_BIT_ANCHORS)) + draw(st.integers(0, 3))
    rng = random.Random(draw(st.integers(0, 2**32)))
    kind = draw(st.sampled_from(("r*r", "r*r - 1", "r*r + 1", "r*r + 2r", "random")))
    if kind == "random":
        return rng.getrandbits(bits - 1) | 1 << (bits - 1)
    half = (bits + 1) // 2
    r = rng.getrandbits(half - 1) | 1 << (half - 1)
    return r * r + {"r*r": 0, "r*r - 1": -1, "r*r + 1": 1, "r*r + 2r": 2 * r}[kind]


# 200 inputs up to 130,000 bits: about 1 s on a 2-vCPU host
@settings(max_examples=200, deadline=None, derandomize=True)
@given(sqrtrem_inputs())
@example(0)
@example(1)
@example((1 << exactnum._SQRTREM_BITS) - 1)
@example(1 << exactnum._SQRTREM_BITS)
def test_sqrtrem_matches_math_isqrt(n):
    s, r = exactnum._sqrtrem(n)
    assert s == math.isqrt(n)
    assert r == n - s * s


def _large_certificate():
    """The elements of the sextuple at (t, m, n) = (-9/8, 5, 4): 24 of the
    30 parts of its products + 1 have 3,000 bits or more, up to 2,760
    digits."""
    data = Path(__file__).parent / "data" / "sextuple_t-9_8_m5_n4.json"
    return [F(e) for e in json.loads(data.read_text())]


def test_large_certificate_rows_take_the_recursive_root(monkeypatch):
    """Every part of a product + 1 from the crossover on gets its root from
    _sqrtrem, and the rows still pass."""
    asked = []
    kernel = exactnum._sqrtrem

    def counted(n):
        asked.append(n)
        return kernel(n)

    report = verify_tuple(_large_certificate())
    large = [
        part
        for _, _, num, den, _, _ in report.rows
        for part in (num, den)
        if part.bit_length() >= exactnum._SQRTREM_BITS
    ]
    monkeypatch.setattr(exactnum, "_sqrtrem", counted)
    assert verify_tuple(_large_certificate()) == report
    assert report.all_pass and len(large) >= 10
    assert set(large) <= set(asked)


def test_a_proposed_root_is_never_trusted_unsquared(monkeypatch):
    """A kernel that proposes root + 1 makes every square from the
    crossover on fail the test, and the certificate with it."""
    kernel = exactnum._sqrtrem
    monkeypatch.setattr(exactnum, "_sqrtrem", lambda n: (kernel(n)[0] + 1, 0))
    big = 3**2000 + 1
    assert exactnum._coprime_sqrt(big * big, 1) is None
    assert exactnum._coprime_sqrt(1, big * big) is None
    assert exactnum._coprime_sqrt(49, 4) == (7, 2)  # below the crossover
    assert not verify_tuple(_large_certificate()).all_pass


def test_a_proposed_denominator_root_is_squared_back():
    """A caller's denominator root is taken only when it squares to the
    denominator; otherwise the root test takes the root itself."""
    big = 3**2000 + 1
    assert exactnum._coprime_sqrt(49, 4, 2) == (7, 2)
    assert exactnum._coprime_sqrt(49, 4, 3) == (7, 2)
    assert exactnum._coprime_sqrt(49, 5, 2) is None
    assert exactnum._coprime_sqrt(1, big * big, big - 1) == (1, big)
    assert exactnum._coprime_sqrt(1, big * big + 2, big) is None
    assert exactnum._coprime_sqrt(2, 9, 3) is None  # the numerator decides first


# ---------------------------------------------------------------------------
# sqrt_exact
# ---------------------------------------------------------------------------

def test_is_square_examples():
    # oracle: (37/12)^2 expanded by hand
    assert F(37, 12) ** 2 == F(1369, 144)
    assert sqrt_exact(F(1369, 144)) is not None
    # oracle: ab + 1 for the closed-form triple at t = 2
    t = F(2)
    a = 18 * t * (t - 1) * (t + 1) / ((t * t - 6 * t + 1) * (t * t + 6 * t + 1))
    b = (t - 1) * (t * t + 6 * t + 1) ** 2 / (6 * t * (t + 1) * (t * t - 6 * t + 1))
    assert a * b + 1 == F(100, 49)
    assert sqrt_exact(F(100, 49)) is not None
    # 1*2 + 1 for the non-Diophantine pair {1, 2}
    assert sqrt_exact(F(3)) is None


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
    # oracle: q in lowest terms is a square iff q >= 0 and its numerator and
    # denominator are perfect squares
    root = sqrt_exact(q)
    square = q >= 0 and all(math.isqrt(n) ** 2 == n for n in (q.numerator, q.denominator))
    assert square == (root is not None)
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


def test_private_valuations_reject_zero():
    # the callers that check p once call these directly; on 0 they must
    # fail as vp does rather than divide by p forever
    for p in (3, 5, 1000003):
        with pytest.raises(ValueError, match="^valuation of 0 is undefined$"):
            _int_vp(0, p)
        with pytest.raises(ValueError, match="^valuation of 0 is undefined$"):
            _rat_vp(F(0), p)
    assert _int_vp(-250, 5) == 3
    assert _rat_vp(F(-7, 250), 5) == -3


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
#: factors sit just inside, on and just past the limit of the loop, and
#: around the edges of the blocks of the prime table: the leading blocks
#: double from 16 pairs, so block 0 ends with the pair (95, 97), block 1
#: with (287, 289) and block 2 with (671, 673), and the blocks reach full
#: size at the seam between block 7, ending with (24479, 24481), and block
#: 8, the first of 2,731 pairs, ending with (40865, 40867).  16381 to 32779
#: sit inside blocks 7 and 8.
EDGE_PRIMES = (
    2, 3, 5, 7, 11, 13, 97, 101, 103, 283, 293, 673, 677, 991, 997, 1009,
    16381, 16411, 24481, 24499, 32749, 32771, 32779, 40867, 40879, 999983, 1000003,
)
edge_powers = st.tuples(st.sampled_from(EDGE_PRIMES), st.integers(1, 2)).map(lambda pe: pe[0] ** pe[1])
edge_products = st.builds(
    lambda powers, r: math.prod(powers) * r,
    st.lists(edge_powers, max_size=4),
    st.integers(1, 10**6) | st.integers(10**12, 10**14),
)
trial_bounds = st.integers(1, 12) | st.sampled_from(
    [
        94, 95, 96, 97, 101, 283, 287, 288, 293, 671, 673, 677, 997,
        16379, 16383, 16384, 16385, 16391, 24479, 24480, 24481, 24485, 32771,
        40865, 40867, 40871, 999983, 999995, 10**6,
    ]
)


@settings(max_examples=80, deadline=None)
@given(edge_products, trial_bounds)
@example(997 * 1009, 997)
@example(999983 * 1000003, 999983)
@example(999983 * 1000003, 999995)
@example(999983**2 * 1000003**2, 10**6)
@example(1000003**2, 999995)
@example(1000003 * (10**12 + 39), 10**6)
# the loop tests d + 2 for the last d <= bound: bound 12 finds 13, bound 95
# finds 97, the last prime of the table's first block, and bound 24479
# finds 24481, the last prime before the blocks reach full size
@example(13 * 1000003**2, 12)
@example(13**2 * 17 * 1000003**2, 11)
@example(97 * 1000003**2, 95)
@example(97 * 101 * (10**12 + 39), 96)
@example(24481 * 1000003**2, 24479)
@example(24481 * 24499 * (10**12 + 39), 24485)
@example(40867 * 40879 * (10**12 + 39), 40867)
@example(16381 * 1000003**2, 16379)
@example(16381 * 16411 * (10**12 + 39), 16385)
# a bound on the first d of a block still tests that pair
@example(5 * 7 * 1000003**2, 5)
@example(103 * 1000003**2, 101)
@example(32779 * 1000003**2, 32777)
def test_trial_division_matches_reference(n, bound):
    expected = _reference_trial_divide(n, bound)
    factors, cofactor = _trial_divide(n, bound)
    assert (list(factors.items()), cofactor) == (list(expected[0].items()), expected[1])
    with mock.patch.object(exactnum, "_trial_divide", lambda *_: expected), \
            mock.patch.object(identities, "_trial_divide", lambda *_: expected):
        want = [_outcome(fn, n, bound) for fn in (factorize, is_squarefree)]
    assert [_outcome(fn, n, bound) for fn in (factorize, is_squarefree)] == want


#: Numbers divided through the whole table, or stopped in its first blocks.
DEEP_CASES = [
    (1000003 * (10**12 + 39), 10**6),
    (3212661731160556373551965516441997, 10**6),
    (16381 * 16411 * 32771 * 999983 * (10**12 + 39), 10**6),
    (5 * 7 * 16381 * 1000003**2, 16385),
    (13 * 1000003**2, 12),
    (32771 * 32779 * 1000003**2, 32771),
    # factors in the leading blocks, several to a block, then the whole table
    (5 * 7**2 * 97 * 101 * 103 * 283**2 * 293 * 673 * 677 * 1000003**2, 10**6),
    # stopped at the seam, after factors in the leading blocks
    (97 * 101 * 24481 * 24499, 999983),
]


@pytest.mark.parametrize("n, bound", DEEP_CASES)
def test_trial_division_with_the_table_unbuilt_traversed_and_built(monkeypatch, n, bound):
    table = exactnum._PrimeTable()
    monkeypatch.setattr(exactnum, "_PRIMES", table)
    expected = _reference_trial_divide(n, bound)
    for _ in range(4):  # candidate by candidate twice, then building, then built
        factors, cofactor = _trial_divide(n, bound)
        assert (list(factors.items()), cofactor) == (list(expected[0].items()), expected[1])
    if bound == 10**6:
        assert len(table.products) == exactnum._TABLE_BLOCKS


@pytest.mark.parametrize("n, asked, walked", [
    (5 * 100000000003, [], 17),  # prime below bound^2: walked to its square root
    (5 * 100003 * 999983, [], 4),  # composite: walked up to 100003
    (7 * (10**12 + 39), [10**12 + 39], 60),  # above bound^2: asked once, after the table
])
def test_cofactor_below_bound_squared_asked_once(monkeypatch, n, asked, walked):
    """A cofactor is certified in one place, after the table: one at or
    below bound^2 is never asked is_prime, and one above it is asked once."""
    table = exactnum._PrimeTable()
    monkeypatch.setattr(exactnum, "_PRIMES", table)
    calls = []
    monkeypatch.setattr(exactnum, "is_prime", lambda m: calls.append(m) or is_prime(m))
    assert _trial_divide(n, 10**6) == _reference_trial_divide(n, 10**6)
    assert calls == asked
    full = exactnum._TABLE_BLOCKS - exactnum._LEADING_BLOCKS
    assert table.passes == [1] * (exactnum._LEADING_BLOCKS + walked) + [0] * (full - walked)


def _block_range(k: int) -> range:
    """The integers of block k: its pairs and the multiples of 2 or 3 between."""
    first, last = exactnum._PrimeTable.pairs(k)
    return range(first - 1, last + 5)


def test_prime_table_blocks():
    """The blocks double from 16 pairs up to _BLOCK_PAIRS, stay there, and
    tile the pairs of the table with no gap and no overlap."""
    table = exactnum._PrimeTable()
    last_block = exactnum._TABLE_BLOCKS - 1
    table.passes = [2] * exactnum._TABLE_BLOCKS
    blocks = [exactnum._PrimeTable.pairs(k) for k in range(exactnum._TABLE_BLOCKS)]
    assert tuple(blocks) == exactnum._BLOCKS
    sizes = [(last - first) // 6 + 1 for first, last in blocks]
    seam = sizes.index(exactnum._BLOCK_PAIRS)
    assert sizes[:seam] == [16 << k for k in range(seam)] == [16, 32, 64, 128, 256, 512, 1024, 2048]
    assert set(sizes[seam:-1]) == {exactnum._BLOCK_PAIRS} and 0 < sizes[-1] <= exactnum._BLOCK_PAIRS
    assert _block_range(0).start == 4  # 2 and 3 are divided out before the table
    assert all(_block_range(k + 1).start == _block_range(k).stop for k in range(last_block))
    assert sum(sizes) == exactnum._TABLE_PAIRS
    assert _block_range(last_block)[-1] <= exactnum.DEFAULT_FACTOR_BOUND < exactnum._TABLE_END
    assert exactnum._PrimeTable.pairs(exactnum._TABLE_BLOCKS)[0] >= exactnum._TABLE_END
    # the first block, a doubling block, the last one short of full size,
    # the first full-size one and the last block
    for k in (0, 1, seam - 1, seam, last_block):
        assert table.product(k, True) == math.prod(n for n in _block_range(k) if is_prime(n)), k
    assert blocks[0] == (5, 95) and blocks[seam] == (24485, 40865)


def test_prime_table_blocks_match_sympy(sympy):
    table = exactnum._PrimeTable()
    table.passes = [2] * exactnum._TABLE_BLOCKS
    for k in range(exactnum._TABLE_BLOCKS):
        span = _block_range(k)
        assert table.product(k, True) == math.prod(sympy.sieve.primerange(span.start, span.stop)), k


def test_large_bound_leaves_the_table_at_the_default_bound(monkeypatch):
    table = exactnum._PrimeTable()
    monkeypatch.setattr(exactnum, "_PRIMES", table)
    n = 10000019 * 10000079  # no prime factor up to 10^7
    for _ in range(3):  # the third call builds the table
        with pytest.raises(UnfactorableError, match="bound 10000000"):
            factorize(n, bound=10**7)
    assert len(table.products) == exactnum._TABLE_BLOCKS
    assert exactnum._PrimeTable.pairs(exactnum._TABLE_BLOCKS - 1)[1] <= exactnum.DEFAULT_FACTOR_BOUND
    assert sum(p.bit_length() for p in table.products) < 200 * 8 * 1024
    assert table._sieve == (bytearray(), bytearray())


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


#: The least strong pseudoprimes to the first twelve and the first thirteen
#: prime bases (Sorenson and Webster, Math. Comp. 2017).
PSI12 = 318665857834031151167461
PSI13 = 3317044064679887385961981


def test_is_prime_rejects_psi12():
    assert PSI12 == 399165290221 * 798330580441
    assert all(exactnum._miller_rabin(PSI12, base) for base in exactnum._MR_BASES[:-1])
    assert not is_prime(PSI12)
    with pytest.raises(UnfactorableError, match=f"cofactor {PSI12} "):
        factorize(PSI12)
    # above psi_13 the test is probable: psi_13 passes all thirteen bases
    assert PSI13 == 1287836182261 * 2575672364521
    assert all(exactnum._miller_rabin(PSI13, base) for base in exactnum._MR_BASES)


def test_is_prime_matches_sympy(sympy):
    rng = random.Random(1123)
    odd = [rng.randrange(10**23, 10**30) | 1 for _ in range(2000)]
    near_primes = [sympy.nextprime(n) for n in odd[:50]]
    # above psi_13 the strong Lucas test decides: squares of primes, products
    # of two primes of 13 and 14 digits, psi_13 itself
    squares = [p * p for p in near_primes[:5]]
    semiprimes = [sympy.nextprime(n % 10**13) * sympy.nextprime(n % 10**14) for n in odd[:20]]
    for n in (*odd, *near_primes, *squares, *semiprimes, PSI12, PSI12 + 2, PSI13):
        assert is_prime(n) == sympy.isprime(n), n


def test_is_prime_rejects_psi13():
    # psi_13 passes all thirteen Miller-Rabin bases; the strong Lucas test
    # of Baillie-PSW rejects it
    assert not exactnum._strong_lucas(PSI13)
    assert not is_prime(PSI13)
    with pytest.raises(UnfactorableError, match=f"cofactor {PSI13} "):
        factorize(PSI13)
    # the least prime above psi_13 is psi_13 + 142 (sympy.nextprime)
    assert [k for k in range(0, 143, 2) if is_prime(PSI13 + k)] == [142]


def test_strong_lucas_pseudoprimes_below_30000():
    # the strong Lucas pseudoprimes with Selfridge's parameters, OEIS A217255
    # (the test takes odd n > 41 that are not squares)
    composite = [
        n for n in range(43, 30000, 2)
        if math.isqrt(n) ** 2 != n and not is_prime(n) and exactnum._strong_lucas(n)
    ]
    assert composite == [5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199]
    assert all(exactnum._strong_lucas(n) for n in range(43, 30000, 2) if is_prime(n))


# ---------------------------------------------------------------------------
# text form
# ---------------------------------------------------------------------------

def test_parse_and_format():
    assert parse_rat("3/4") == F(3, 4)
    assert parse_rat("-3/4") == F(-3, 4)
    assert parse_rat("6") == 6
    assert format_rat(F(-3, 4)) == "-3/4"
    assert format_rat(F(8, 2)) == "4"


@pytest.mark.parametrize(
    "bad",
    # the last four are non-ASCII digits, which int() would read:
    # ARABIC-INDIC SIX, FULLWIDTH ONE/TWO, ARABIC-INDIC TWO and THREE
    ["1/0", "3.5", "a", "1 / 2", "--3", "+3", "", "\u0666", "\uff11/\uff12", "1/\u0662", "-\u0663"],
)
def test_parse_rejects(bad):
    with pytest.raises(ValueError):
        parse_rat(bad)


@given(rationals)
def test_parse_format_roundtrip(q):
    assert parse_rat(format_rat(q)) == q


@given(st.one_of(rationals, st.integers(-(10**30), 10**30)))
def test_format_rat_is_str_of_fraction(q):
    assert format_rat(q) == str(F(q))
    if isinstance(q, int):
        assert format_rat(F(q)) == format_rat(q)


# ---------------------------------------------------------------------------
# certificate squares written from their roots' digits
# ---------------------------------------------------------------------------

def _text_outcome(write):
    """What ``write()`` returns, or the text of the ValueError it raises (a
    number past the interpreter's int/str digit limit)."""
    try:
        return write()
    except ValueError as exc:
        return str(exc)


#: roots of 0 to 2,200 digits, with 10^k - 1, 10^k and 10^k + 1: the squares
#: reach past the default 4,300-digit limit
root_parts = st.one_of(
    st.just(0),
    st.integers(1, 2200).flatmap(lambda d: st.integers(10 ** (d - 1), 10**d - 1)),
    st.builds(lambda k, s: 10**k + s, st.integers(1, 2200), st.sampled_from((-1, 0, 1))),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(root_parts, st.one_of(st.just(1), root_parts.filter(bool)))
# both sides of the decimal crossover, for the numerator and the denominator
@example(2**999 - 1, 1)
@example(2**999, 1)
@example(3, 2**999 - 1)
@example(3, 2**999)
# squares of 4,299, 4,300 and 4,301 digits
@example(10**2149 * 4, 1)
@example(10**2150 - 1, 7)
@example(10**2150, 7)
def test_format_square_is_format_coprime_of_the_square(rn, rd):
    """A square within the live limit is written as ``_format_coprime``
    writes it; one past the limit is refused first, with the same error."""
    g = math.gcd(rn, rd)
    rn, rd = rn // g, rd // g
    num, den = rn * rn, rd * rd
    want = _text_outcome(lambda: (_format_coprime(num, den), _format_coprime(rn, rd)))
    refusal = _text_outcome(lambda: _refuse_past_limit(max(num, den)))
    assert (_format_square(num, den, rn, rd) if refusal is None else refusal) == want


def _square_of_ten_power_plus_one(k):
    """The text of (10^k + 1)^2 = 10^2k + 2 10^k + 1, written out."""
    zeros = "0" * (k - 1)
    return f"1{zeros}2{zeros}1"


@pytest.mark.parametrize(
    "k, rd, squared_in_decimal",
    [
        (299, 1, 0),  # below the crossover
        (1000, 1, 1),
        (1000, 3, 2),  # both parts of the root's text
        (2500, 1, 1),  # past the default limit: the caller refuses first
    ],
)
def test_format_square_squares_the_root_text(monkeypatch, k, rd, squared_in_decimal):
    """From the crossover on, each part of the root's text is squared in
    decimal; the square has the digits of ``str()`` of the square."""
    squared = []
    exact = exactnum._EXACT

    class Counted:
        def multiply(self, x, y):
            squared.append(x)
            return exact.multiply(x, y)

    monkeypatch.setattr(exactnum, "_EXACT", Counted())
    root = 10**k + 1
    root_text = f"1{'0' * (k - 1)}1"
    want = (_square_of_ten_power_plus_one(k), root_text)
    if rd != 1:
        want = (f"{want[0]}/{rd * rd}", f"{root_text}/{rd}")
    assert _format_square(root * root, rd * rd, root, rd) == want
    assert len(squared) == squared_in_decimal


@pytest.mark.parametrize(
    "limit, n, converted",
    [
        (0, 10**5000, False),  # no limit
        (4300, 10**4299 - 1, False),  # 4,299 digits
        (4300, 10**4299, False),  # 4,300 digits, 14,281 bits
        (4300, 2**14284, True),  # 4,300 digits, but may have 4,301
        (4300, 10**4300, True),
        (2000, 10**1999 * 5, False),
        (2000, 10**2000, True),
    ],
    ids=["none", "4299", "4300", "4300-14285-bits", "4301", "2000", "2001"],
)
def test_refuse_past_limit_reads_the_live_limit(monkeypatch, limit, n, converted):
    """The limit is read on each call, 0 meaning none, and a number is
    converted, which raises past the interpreter's limit, only when its bit
    length allows more digits than the limit."""
    seen = []
    monkeypatch.setattr(exactnum, "_max_str_digits", lambda: limit)
    monkeypatch.setattr(exactnum, "str", seen.append, raising=False)
    _refuse_past_limit(n)
    assert seen == ([n] if converted else [])


# ---------------------------------------------------------------------------
# Fraction internals the integer fast paths rely on
# ---------------------------------------------------------------------------
# _coprime builds a Fraction by setting its two slots, and the group law
# reads them back; these tests fail if a Python release changes either.

def _same_fraction(q, num, den):
    ref = F(num, den)
    return (
        type(q) is F and q == ref and hash(q) == hash(ref) and str(q) == str(ref)
        and (q.numerator, q.denominator) == (ref.numerator, ref.denominator)
        and q + F(1, 3) == ref + F(1, 3) and q * 7 == ref * 7
    )


@given(st.integers(-(10**40), 10**40), st.integers(1, 10**30))
@example(0, 1)
@example(-5, 1)
@example(-3, 4)
@example(7, 1)
def test_coprime_is_the_reduced_fraction(num, den):
    g = math.gcd(num, den)
    num, den = num // g, den // g
    q = exactnum._coprime(num, den)
    assert _same_fraction(q, num, den)
    assert (q._numerator, q._denominator) == (num, den)


def test_group_law_coordinates_are_plain_fractions():
    from dioph6.weierstrass import Curve, Point

    curve = Curve(0, 1512, 33588)
    gen = Point(-11, 125)
    pts = [curve.mul(k, gen) for k in range(-6, 7) if k]
    pts += [curve.add_unchecked(pts[0], pts[-2]), -pts[3]]  # [-6]G + [5]G, -[-3]G
    coords = [c for pt in pts for c in (pt.x, pt.y)]
    coords += [curve.add_x_unchecked(pts[1], pts[2]), *curve.add_sub_x_unchecked(pts[4], pts[8])]
    assert any(c < 0 for c in coords) and any(c.denominator == 1 for c in coords)
    for c in coords:
        assert _same_fraction(c, c.numerator, c.denominator), c


_pairs = st.tuples(st.integers(-(10**30), 10**30), st.integers(1, 10**20)).map(
    lambda nd: (nd[0] // math.gcd(*nd), nd[1] // math.gcd(*nd))
)


@given(_pairs, _pairs)
@example((0, 1), (5, 6))
@example((1, 6), (-1, 6))
@example((-2, 3), (3, 4))
def test_pair_arithmetic_matches_fraction(a, b):
    fa, fb = F(*a), F(*b)
    for got, want in (
        (exactnum._q_add(*a, *b), fa + fb),
        (exactnum._q_mul(*a, *b), fa * fb),
    ):
        assert got == (want.numerator, want.denominator)
    if b[0]:
        want = fa / fb
        assert exactnum._q_div(*a, *b) == (want.numerator, want.denominator)
