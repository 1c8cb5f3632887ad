"""Exact arithmetic over the rationals: exact square roots, p-adic valuations,
primality, factorization by trial division and the canonical text form, and
the base of the package's immutable value types.

Every scalar in this package is a :class:`fractions.Fraction` (aliased as
``Rat``), which is always kept in lowest terms with a positive denominator,
so canonical form never has to be re-established by hand.  Hot paths
compute on (numerator, denominator) pairs with the private ``_q_*``
helpers and build their results with ``_coprime``.  Everything here is
exact arithmetic; no floating point is used anywhere.  The one decimal
computation, squaring a large root's digits in ``_format_square``, runs in
a context that traps any rounding.

The one exact root test, ``_coprime_sqrt``, serves ``sqrt_exact`` and the
certificate; the isogeny triple takes no root.  It takes the root of a part
of at least ``_SQRTREM_BITS`` bits by Zimmermann's recursive square root
(``_sqrtrem``) instead of ``math.isqrt``, and certifies it by squaring it
back, as it does the root of a smaller part.
"""

from __future__ import annotations

import math
import operator
import re
import sys
from _thread import allocate_lock
from decimal import MAX_EMAX, MAX_PREC, Context, Decimal, Inexact
from fractions import Fraction
from itertools import compress, count, takewhile

from .errors import UnfactorableError

Rat = Fraction

#: Default trial-division bound for factorization.
#: Every prime this package meets in practice is tiny; the bound exists so
#: that a pathological input fails loudly instead of spinning.
DEFAULT_FACTOR_BOUND = 10**6

_RAT_RE = re.compile(r"^-?[0-9]+(?:/[0-9]+)?$")


class _Value:
    """Base of the package's immutable value types.

    A subclass lists its fields in ``_fields`` and declares them (and any
    cache it keeps) in ``__slots__``.  This base's constructor takes the
    fields by position or keyword, each exactly once, and stores them as
    given; a subclass that coerces or checks its arguments does so in its
    own ``__init__`` and passes the final values to ``_Value.__init__``.
    Equality (same class only), hash, repr and copying or pickling (through
    the constructor) are over ``_fields``; every other assignment and every
    deletion raises AttributeError.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init__(self, *args, **kwargs) -> None:
        fields = self._fields
        if kwargs:
            # what is left of kwargs is a field given twice or an unknown one
            args = (*args, *[kwargs.pop(name) for name in fields[len(args):] if name in kwargs])
        if len(args) != len(fields) or kwargs:
            raise TypeError(
                f"{self.__class__.__qualname__}() takes ({', '.join(fields)}), "
                "each once, by position or keyword"
            )
        for name, value in zip(fields, args):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, self._values()

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


def _as_rat(x) -> Rat:
    """``x`` itself when it is a Fraction, else ``Fraction(x)``.

    The coercion of every value constructor: ``Fraction(q)`` of a Fraction
    builds a copy after an ABC ``isinstance`` check, which costs more than
    the rest of a small constructor.
    """
    return x if type(x) is Fraction else Fraction(x)


def sqrt_exact(q: Rat | int) -> Rat | None:
    """The nonnegative rational square root of ``q``, or None.

    Returns ``r >= 0`` with ``r*r == q`` when ``q`` is a perfect square,
    and None otherwise (negative inputs are never squares).
    """
    q = _as_rat(q)
    roots = _coprime_sqrt(q.numerator, q.denominator)
    return None if roots is None else _coprime(*roots)


def _coprime_sqrt(num: int, den: int, den_root: int | None = None) -> tuple[int, int] | None:
    """The square root of num/den, for coprime num and den > 0, as the
    coprime pair (root_num, root_den), or None: the package's one exact
    root test, which :func:`sqrt_exact` and the certificate share.

    Each part's candidate root is ``math.isqrt`` of it below
    _SQRTREM_BITS and the recursive :func:`_sqrtrem` from there on; either
    way the candidate only proposes, and squaring it back certifies.  A
    caller may propose den's root as ``den_root``; it is squared back like
    any other candidate, and den's root is taken as above when it fails."""
    if num < 0:
        return None
    r = math.isqrt(num) if num.bit_length() < _SQRTREM_BITS else _sqrtrem(num)[0]
    if r * r != num:
        return None
    if den_root is not None and den_root * den_root == den:
        return r, den_root
    s = math.isqrt(den) if den.bit_length() < _SQRTREM_BITS else _sqrtrem(den)[0]
    return (r, s) if s * s == den else None


#: Square roots of integers of at least this many bits are taken by the
#: recursion of :func:`_sqrtrem`, smaller ones by ``math.isqrt``, which
#: costs about one full-size division.  From here on the recursion proposes
#: the root in 0.98-1.04x the time of ``math.isqrt`` at 3,000 bits,
#: 0.88-0.96x at 4,000, 0.61-0.68x at 8,000 and 0.53-0.59x from 16,000 on.
#: A crossover at 2,000 or 2,500 bits loses up to 22% below 3,000 bits,
#: where the halves are too small for the recursion to pay; one at 4,000
#: gives up 10 points at 6,000 bits (timeit, CPython 3.10.13, 3.11.7,
#: 3.12.1 and 3.13.0 alike).
_SQRTREM_BITS = 3000


def _sqrtrem(n: int) -> tuple[int, int]:
    """(s, n - s*s) for s = isqrt(n) and n >= 0, by Zimmermann's recursion
    (Karatsuba Square Root, INRIA RR-3805, 1999): the root of the top half
    of n, then one division by twice that root for the next quarter of the
    bits, and at most one correction.

    Each level divides a half-size number by a quarter-size one, where
    ``math.isqrt`` ends in one full-size division.  The split needs n's top
    quarter to hold at least 2**(k - 2) for k-bit quarters; a bit length of
    4k - 2 or 4k - 3 gets it by a shift of two bits, undone on the root and
    the remainder.
    """
    bits = n.bit_length()
    if bits < _SQRTREM_BITS:
        s = math.isqrt(n)
        return s, n - s * s
    if bits % 4 in (1, 2):
        # 4n = s*s + r with s = 2 isqrt(n) + e, e in {0, 1}
        s, r = _sqrtrem(n << 2)
        e = s & 1
        return s >> 1, (r + e * (2 * s - 1)) >> 2
    k = (bits + 1) >> 2  # n has 4k or 4k - 1 bits
    mask = (1 << k) - 1
    s1, r1 = _sqrtrem(n >> 2 * k)
    q, u = divmod((r1 << k) | ((n >> k) & mask), s1 << 1)
    s = (s1 << k) + q
    r = ((u << k) | (n & mask)) - q * q
    if r < 0:
        r += 2 * s - 1
        s -= 1
    return s, r


def _coprime(num: int, den: int) -> Rat:
    """The Fraction num/den for coprime num and den > 0, built without the
    gcd that the Fraction constructor would spend on normalizing it."""
    q = object.__new__(Fraction)
    q._numerator = num
    q._denominator = den
    return q


def _format_coprime(num: int, den: int) -> str:
    """The text of every rational a command writes, :func:`format_rat`'s too,
    for coprime num and den > 0: ``num`` when den is 1, else ``num/den``.
    Only a certificate's squares are written otherwise, by
    :func:`_format_square`, to the same text."""
    return str(num) if den == 1 else f"{num}/{den}"


#: Decimal arithmetic that is exact on integers of any size: a result that
#: would need rounding raises instead.
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, traps=[Inexact])

#: A square with a part of at least this many bits is written by squaring
#: its root's digits in decimal; a smaller one with ``str()``.  CPython's
#: int-to-str is quadratic and decimal's parse and print are linear, but
#: decimal costs more per call: 1.4 against 0.4 us for a 5-digit root,
#: break-even near 250-digit roots, and 0.83x the time of ``str(r * r)`` at
#: 300-digit roots (about 2,000 bits squared), 0.5x at 1,000 and 0.45x at
#: 2,150 (timeit, CPython 3.11.7; 3.10.13, 3.12.1 and 3.13.0 alike).
_DECIMAL_SQUARE_BITS = 2000

#: The interpreter's int/str digit limit, read on each call (0: none).
_max_str_digits = getattr(sys, "get_int_max_str_digits", lambda: 0)


def _refuse_past_limit(n: int) -> None:
    """Raise ``str(n)``'s own ValueError if n >= 0 has more digits than the
    interpreter's live int/str digit limit allows, so that a writer can
    refuse before it writes any text.  n is converted only when it may be
    past the limit: below 2**bits it has at most bits * log10(2) + 1
    digits, and 0.30103 > log10(2)."""
    limit = _max_str_digits()
    if limit and n.bit_length() * 30103 // 100000 >= limit:
        str(n)


def _format_square(num: int, den: int, rn: int, rd: int) -> tuple[str, str]:
    """``(_format_coprime(num, den), _format_coprime(rn, rd))`` for coprime
    rn >= 0 and rd > 0 and num/den = (rn/rd)**2, with num and den within
    the interpreter's int/str digit limit (:func:`_refuse_past_limit`).
    From the crossover on, the square is written by squaring the digits of
    the root's text, part by part."""
    root = _format_coprime(rn, rd)
    if num.bit_length() < _DECIMAL_SQUARE_BITS and den.bit_length() < _DECIMAL_SQUARE_BITS:
        return _format_coprime(num, den), root
    return "/".join([str(_EXACT.multiply(x, x)) for x in map(Decimal, root.split("/"))]), root


def _over_common_denominator(a: Rat, b: Rat, c: Rat) -> tuple[int, int, int, int]:
    """(den, na, nb, nc) with a = na/den, b = nb/den, c = nc/den and den the
    least common denominator."""
    den = math.lcm(a.denominator, b.denominator, c.denominator)
    return (den, *(x.numerator * (den // x.denominator) for x in (a, b, c)))


# Arithmetic on (numerator, denominator) pairs in lowest terms with positive
# denominators.  Each helper applies the rule that Fraction applies to the
# same operation (Henrici's: a gcd of the denominators for a sum, two cross
# gcds for a product; Knuth, TAOCP Vol. 2, 4.5.1), so the work on the
# integers is the same and only the operator dispatch and the object
# building around it are saved.  Results are again in lowest terms.

def _q_add(an: int, ad: int, bn: int, bd: int) -> tuple[int, int]:
    """an/ad + bn/bd."""
    g = math.gcd(ad, bd)
    if g == 1:
        return an * bd + ad * bn, ad * bd
    s = ad // g
    t = an * (bd // g) + bn * s
    g2 = math.gcd(t, g)
    if g2 == 1:
        return t, s * bd
    return t // g2, s * (bd // g2)


def _q_mul(an: int, ad: int, bn: int, bd: int) -> tuple[int, int]:
    """an/ad * bn/bd."""
    g1 = math.gcd(an, bd)
    if g1 > 1:
        an //= g1
        bd //= g1
    g2 = math.gcd(bn, ad)
    if g2 > 1:
        bn //= g2
        ad //= g2
    return an * bn, ad * bd


def _q_div(an: int, ad: int, bn: int, bd: int) -> tuple[int, int]:
    """an/ad / (bn/bd) for bn != 0."""
    if bn < 0:
        bn, bd = -bn, -bd
    return _q_mul(an, ad, bd, bn)


def _miller_rabin(n: int, base: int) -> bool:
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    x = pow(base, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


#: The first thirteen primes: trial divisors of every n, and Miller-Rabin
#: bases above 10^6.  As bases they make the test exact below
#: psi_13 = 3317044064679887385961981 = 1287836182261 * 2575672364521;
#: without 41 the composite psi_12 = 318665857834031151167461 passes
#: (Sorenson and Webster, "Strong pseudoprimes to twelve prime bases",
#: Math. Comp. 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PSI_13 = 3317044064679887385961981


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _strong_lucas(n: int) -> bool:
    """Strong Lucas probable-prime test of an odd n > 41 that is not a
    square, with Selfridge's parameters: D the first of 5, -7, 9, -11, ...
    with (D/n) = -1, P = 1 and Q = (1 - D)/4 (Baillie and Wagstaff, "Lucas
    pseudoprimes", Math. Comp. 1980).

    With n + 1 = k 2^s, k odd, n passes iff U_k = 0 or V_(k 2^r) = 0 (mod n)
    for some 0 <= r < s.
    """
    d = 5
    while (j := _jacobi(d, n)) != -1:
        if j == 0 and abs(d) != n:
            return False  # d shares a factor with n
        d = -d - 2 if d > 0 else -d + 2
    q = (1 - d) // 4
    k = (n + 1) >> 1
    s = 1
    while k % 2 == 0:
        k >>= 1
        s += 1
    # U_j, V_j and Q^j (mod n) from j = 1, doubling and stepping along the
    # bits of k: U_2j = U_j V_j, V_2j = V_j^2 - 2 Q^j,
    # U_(j+1) = (U_j + V_j)/2, V_(j+1) = (D U_j + V_j)/2 for P = 1
    u, v, qj = 1, 1, q % n
    for bit in bin(k)[3:]:
        u, v, qj = u * v % n, (v * v - 2 * qj) % n, qj * qj % n
        if bit == "1":
            u, v = (u + v) % n, (d * u + v) % n
            u = (u + n if u % 2 else u) // 2
            v = (v + n if v % 2 else v) // 2
            qj = qj * q % n
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        v, qj = (v * v - 2 * qj) % n, qj * qj % n
        if v == 0:
            return True
    return False


def is_prime(n: int) -> bool:
    """Primality test: trial division for small n, Miller-Rabin above, and
    a strong Lucas test as well from psi_13 on (Baillie-PSW).

    The thirteen Miller-Rabin bases make the answer a proof for
    n < psi_13 = 3317044064679887385961981.  From psi_13 on it is
    BPSW-probable: Miller-Rabin (base 2 among the thirteen) together with
    the strong Lucas test of :func:`_strong_lucas`, which no composite is
    known to pass.  Trial division asks it about cofactors above
    ``bound**2``, and on ``reduce``'s coordinates (t <= 60, [m]R for
    m <= 5) these reach 10^47.
    """
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n < 10**6:
        d = 43
        while d * d <= n:
            if n % d == 0:
                return False
            d += 2
        return True
    if not all(_miller_rabin(n, base) for base in _MR_BASES):
        return False
    if n < _PSI_13:
        return True
    return math.isqrt(n) ** 2 != n and _strong_lucas(n)


def _require_prime(p: int) -> None:
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")


def _int_vp(n: int, p: int) -> int:
    """Exponent of the prime p in the nonzero integer n."""
    if not n:
        raise ValueError("valuation of 0 is undefined")
    n = abs(n)
    count = 0
    while n % p == 0:
        n //= p
        count += 1
    return count


def vp(q: Rat | int, p: int) -> int:
    """The p-adic valuation of a nonzero rational.

    ``vp(q, p) = vp(num) - vp(den)``; additive over products.  The
    valuation of zero is deliberately an error, not a sentinel: every
    caller is expected to branch on zero first.
    """
    q = Fraction(q)
    if q == 0:
        raise ValueError("valuation of 0 is undefined")
    _require_prime(p)
    return _rat_vp(q, p)


def _rat_vp(q: Rat, p: int) -> int:
    """:func:`vp` of a nonzero Fraction at a prime the caller has checked."""
    return _int_vp(q.numerator, p) - _int_vp(q.denominator, p)


#: Candidate pairs (d, d + 2), d = 5 (mod 6), in the first block of the
#: prime table: the primes below 100.  Each block after it holds twice the
#: pairs of the one before while that stays below _BLOCK_PAIRS, and every
#: block from there on _BLOCK_PAIRS, 6 * 2731 = 16,386 integers.  Larger
#: blocks cost fewer gcd calls per number; smaller ones, less to build and
#: less to divide for a number that needs only the small primes.
_FIRST_PAIRS = 16
_BLOCK_PAIRS = 2731
_LEADING_BLOCKS = (_BLOCK_PAIRS // _FIRST_PAIRS).bit_length()  # blocks below full size
#: The table holds the primes of the pairs with d <= DEFAULT_FACTOR_BOUND.
#: Past it, trial division goes on one candidate at a time from d =
#: _TABLE_END, so no pair is split between the two.
_TABLE_PAIRS = (DEFAULT_FACTOR_BOUND + 1) // 6
_TABLE_END = 6 * _TABLE_PAIRS + 5


def _product(xs: list[int]) -> int:
    """The product of a nonempty list, by a balanced tree of multiplications."""
    while len(xs) > 1:
        xs = [*map(operator.mul, xs[::2], xs[1::2]), *xs[len(xs) & ~1:]]
    return xs[0]


class _PrimeTable:
    """Products of the primes below _TABLE_END in blocks of candidate pairs
    (:meth:`pairs`), built lazily and in order.

    Most numbers need only the small primes: of the 305 numbers that the
    answered reduce operations of one benchmark pass factor (seed 1), 160
    need no candidate above 100 and 240 none above 1,000.  So the blocks
    start with the 16 pairs below 100, a product of 119 bits, and double up
    to _BLOCK_PAIRS: with the table built, such a number takes 7 to 12 us
    where one gcd with a first block of 2,731 pairs, a product of 23,449
    bits, made it 15 to 31 us (CPython 3.11.7).  Past the leading blocks
    every block is _BLOCK_PAIRS long: blocks that doubled to the end of the
    table would make the last of them half the table, and a number divided
    through all of it would take 605 us instead of 327.

    Building a block costs about as much as dividing two numbers through it
    candidate by candidate (0.7 against 0.4 ms for a full block), and most
    numbers stop inside the first blocks.  So block k is built only after
    two numbers have been divided through all of it (``passes``),
    and then only for a number whose limit lies past it; until then
    :meth:`product` returns None and the caller divides by the candidates.
    The blocks come from a sieve over the pairs, doubled in length as the
    blocks need and dropped when the last block is built: what stays is the
    products, about 180 KB in all.
    """

    def __init__(self) -> None:
        self.products: list[int] = []
        #: how many numbers have been divided through each block whole
        self.passes = [0] * _TABLE_BLOCKS
        self._sieve: tuple[bytearray, bytearray] = (bytearray(), bytearray())
        self._lock = allocate_lock()

    @staticmethod
    def pairs(k: int) -> tuple[int, int]:
        """The first and the last d of the pairs (d, d + 2) in block k.

        Blocks 0, 1, ... hold _FIRST_PAIRS times 1, 2, 4, ... pairs while
        that is less than _BLOCK_PAIRS, and _BLOCK_PAIRS from then on; the
        last block ends with the table.
        """
        leading = _LEADING_BLOCKS

        def start(j: int) -> int:  # the row of block j's first pair
            return _FIRST_PAIRS * ((1 << min(j, leading)) - 1) + _BLOCK_PAIRS * max(j - leading, 0)

        return 6 * start(k) + 5, 6 * min(start(k + 1), _TABLE_PAIRS) - 1

    def product(self, k: int, whole: bool) -> int | None:
        """The product of the primes of block k, or None while it is not
        built; ``whole`` says that the caller's limit, min(bound, isqrt(m)),
        lies past the block."""
        if k < len(self.products):
            return self.products[k]
        if not whole or self.passes[k] < 2:
            return None
        with self._lock:
            while len(self.products) <= k:
                self.products.append(self._build(len(self.products)))
            if len(self.products) == _TABLE_BLOCKS:
                self._sieve = (bytearray(), bytearray())
        return self.products[k]

    def _build(self, k: int) -> int:
        first, last = _BLOCKS[k]
        rows = slice((first - 5) // 6, (last - 5) // 6 + 1)
        size = len(self._sieve[0])
        if size < rows.stop:  # doubled, so all the sieving costs about two full sieves
            self._sieve = _pair_sieve(min(max(rows.stop, 2 * size), _TABLE_PAIRS))
        low, high = self._sieve
        return _product(
            [*compress(range(first, last + 1, 6), low[rows]),
             *compress(range(first + 2, last + 3, 6), high[rows])]
        )


#: (first, last) of each block of the prime table, by :meth:`_PrimeTable.pairs`.
_BLOCKS = tuple(takewhile(lambda block: block[0] < _TABLE_END, map(_PrimeTable.pairs, count())))
_TABLE_BLOCKS = len(_BLOCKS)


def _pair_sieve(pairs: int) -> tuple[bytearray, bytearray]:
    """Sieve of Eratosthenes over the pairs: ``low[j]`` is 1 iff 6j + 5 is
    prime, ``high[j]`` iff 6j + 7 is, for j < pairs."""
    low = bytearray([1]) * pairs
    high = bytearray([1]) * pairs
    top = 6 * pairs + 5
    for j in range((math.isqrt(top) - 5) // 6 + 1):
        for p, is_p in ((6 * j + 5, low[j]), (6 * j + 7, high[j])):
            if not is_p or p * p > top:
                continue
            # the multiples p c, c >= p, in each class: step 6p, so p pairs
            c = p + 2 if p % 6 == 5 else p + 4  # p c = 5 (mod 6)
            for row, start in ((low, (p * c - 5) // 6), (high, (p * p - 7) // 6)):
                row[start::p] = bytes(len(range(start, pairs, p)))
    return low, high


_PRIMES = _PrimeTable()


def _candidate_loop(m: int, d: int, bound: int, factors: dict[int, int]) -> int:
    """Divide out of m the candidates d and d + 2 for d = 5 (mod 6) from the
    given d on, while d <= bound and d * d <= m; record them in ``factors``
    and return what is left of m.

    The inner loop only tests; the limit is recomputed only after a factor
    has made m smaller.
    """
    limit = min(bound, math.isqrt(m))
    while d <= limit:
        for d in range(d, limit + 1, 6):
            if not (m % d and m % (d + 2)):
                break
        else:
            break
        for cand in (d, d + 2):
            if m % cand == 0:
                factors[cand] = e = _int_vp(m, cand)
                m //= cand**e
        d += 6
        limit = min(bound, math.isqrt(m))
    return m


def _table_divide(m: int, bound: int, factors: dict[int, int]) -> int:
    """:func:`_candidate_loop` from d = 5 up to _TABLE_END, by one gcd per
    block of the prime table where the block is built.

    The loop tests the pair (d, d + 2) while d <= bound and d * d <= m, m
    having lost every prime below d.  So a prime p of m, reached as d = p
    or d = p - 2, is divided out iff that test holds for its d, and the
    first prime that fails it ends the division.  Here the test of p = d + 2
    comes after d itself has been divided out; if that makes it fail, m is
    p alone, a cofactor below bound^2 that counts as a factor all the same.

    It asks no primality test: a cofactor left after the table, prime or
    not, is certified in one place, the last step of :func:`_trial_divide`.
    """
    for k, (first, last) in enumerate(_BLOCKS):
        if first > bound or first * first > m:
            break
        product = _PRIMES.product(k, last <= bound and last * last <= m)
        if product is None:
            m = _candidate_loop(m, first, min(bound, last), factors)
            if last <= bound and last * last <= m:
                # m passed every block before k whole as well, so the
                # table builds its blocks in order
                _PRIMES.passes[k] += 1
            continue
        g = math.gcd(m, product)
        if g == 1:
            continue
        # g is squarefree, usually one prime; the loop splits it otherwise
        parts: dict[int, int] = {}
        g = _candidate_loop(g, first, g, parts)
        for p in (*parts, g) if g > 1 else parts:
            d = p - 2 if p % 6 == 1 else p
            if d > bound or d * d > m:
                return m
            factors[p] = e = _int_vp(m, p)
            m //= p**e
    return m


def _trial_divide(n: int, bound: int) -> tuple[dict[int, int], int]:
    """Split a positive integer into its prime factors up to ``bound``.

    Returns the factors found and the cofactor left over, which is 1 when
    the factorization is complete.  A cofactor that is certifiably prime
    (at most ``bound**2`` with no factor up to ``bound``, or passing
    :func:`is_prime`) counts as a factor; what is left is composite.

    Candidates are 2, 3, then d and d + 2 for d = 5 (mod 6) while
    d <= bound and d * d <= m; up to DEFAULT_FACTOR_BOUND they are taken a
    block of primes at a time (:func:`_table_divide`), past it one by one.
    """
    if bound < 1:
        raise ValueError(f"trial-division bound must be at least 1, got {bound}")
    factors: dict[int, int] = {}
    m = n
    for p in (2, 3):
        if m % p == 0:
            factors[p] = e = _int_vp(m, p)
            m //= p**e
    m = _table_divide(m, bound, factors)
    m = _candidate_loop(m, _TABLE_END, bound, factors)
    if m > 1 and (m <= bound * bound or is_prime(m)):
        factors[m] = 1
        m = 1
    return factors, m


def _unfactorable(n: int, cofactor: int, bound: int) -> UnfactorableError:
    return UnfactorableError(
        f"{n} has a cofactor {cofactor} unfactorable at desk scale (bound {bound})"
    )


def factorize(n: int, bound: int = DEFAULT_FACTOR_BOUND) -> dict[int, int]:
    """Prime factorization of a positive integer by trial division.

    Raises :class:`UnfactorableError` when a cofactor survives whose
    primality cannot be certified within the bound.
    """
    if n < 1:
        raise ValueError(f"cannot factor {n}; need a positive integer")
    factors, cofactor = _trial_divide(n, bound)
    if cofactor > 1:
        raise _unfactorable(n, cofactor, bound)
    return factors


def odd_prime_divisors(n: int, bound: int = DEFAULT_FACTOR_BOUND) -> list[int]:
    """Sorted odd prime divisors of a nonzero integer."""
    if n == 0:
        raise ValueError("0 has every prime divisor")
    return sorted(p for p in factorize(abs(n), bound) if p != 2)


def parse_rat(text: str) -> Rat:
    """Parse the canonical text form: ``num/den`` or bare ``num``.

    Accepts an optional leading minus sign and nothing else; a zero
    denominator is rejected.
    """
    s = text.strip()
    if not _RAT_RE.match(s):
        raise ValueError(f"not a rational: {text!r}")
    if "/" in s:
        num_s, den_s = s.split("/")
        den = int(den_s)
        if den == 0:
            raise ValueError(f"zero denominator in {text!r}")
        return Fraction(int(num_s), den)
    return Fraction(int(s))


def format_rat(q: Rat | int) -> str:
    """Canonical text form of a rational: ``num/den`` in lowest terms, or ``num``."""
    q = _as_rat(q)
    return _format_coprime(q._numerator, q._denominator)
