"""Exact arithmetic over the rationals: square detection, p-adic valuations,
modular residues and squarefree testing.

Every scalar in this package is a :class:`fractions.Fraction` (aliased as
``Rat``), which is always kept in lowest terms with a positive denominator,
so canonical form never has to be re-established by hand.  Everything here
is pure integer arithmetic; no floating point is used anywhere.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from .errors import UnfactorableError

Rat = Fraction

#: Default trial-division bound for factorization and squarefree tests.
#: Every prime this package meets in practice is tiny; the bound exists so
#: that a pathological input fails loudly instead of spinning.
DEFAULT_FACTOR_BOUND = 10**6

_RAT_RE = re.compile(r"^-?\d+(?:/\d+)?$")


def isqrt(n: int) -> tuple[int, bool]:
    """Return ``(floor(sqrt(n)), exact)`` for a nonnegative integer ``n``.

    ``exact`` is true iff ``n`` is a perfect square.
    """
    if n < 0:
        raise ValueError(f"isqrt of negative integer {n}")
    root = math.isqrt(n)
    return root, root * root == n


def is_square(q: Rat | int) -> bool:
    """True iff ``q`` is the square of a rational."""
    return sqrt_exact(q) is not None


def sqrt_exact(q: Rat | int) -> Rat | None:
    """The nonnegative rational square root of ``q``, or None.

    Returns ``r >= 0`` with ``r*r == q`` when ``q`` is a perfect square,
    and None otherwise (negative inputs are never squares).
    """
    q = Fraction(q)
    num = q.numerator
    if num < 0:
        return None
    num_root = math.isqrt(num)
    if num_root * num_root != num:
        return None
    den = q.denominator
    den_root = math.isqrt(den)
    if den_root * den_root != den:
        return None
    # q is in lowest terms, so its roots are coprime as well
    return _coprime(num_root, den_root)


def _coprime(num: int, den: int) -> Rat:
    """The Fraction num/den for coprime num and den > 0, built without the
    gcd that the Fraction constructor would spend on normalizing it."""
    q = object.__new__(Fraction)
    q._numerator = num
    q._denominator = den
    return q


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


#: Witness set making Miller-Rabin deterministic for n < 3.3 * 10^24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Primality test: trial division for small n, Miller-Rabin above.

    The twelve Miller-Rabin bases make the answer exact for n < 3.3 * 10^24.
    Above that the test is probabilistic: a composite is reported as prime
    only if all twelve bases are strong liars for it.  Trial division asks
    it about cofactors above ``bound**2``, and on ``reduce``'s coordinates
    (t <= 60, [m]R for m <= 5) these reach 10^47.
    """
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    if n < 10**6:
        d = 41
        while d * d <= n:
            if n % d == 0:
                return False
            d += 2
        return True
    return all(_miller_rabin(n, base) for base in _MR_BASES)


def _require_prime(p: int) -> None:
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")


def _int_vp(n: int, p: int) -> int:
    """Exponent of the prime p in the nonzero integer n."""
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
    return _int_vp(q.numerator, p) - _int_vp(q.denominator, p)


def mod_p(q: Rat | int, p: int) -> int:
    """Residue of a p-integral rational in ``[0, p)``.

    Computes ``num * den^(-1) mod p``; rejects inputs whose denominator is
    divisible by p.
    """
    q = Fraction(q)
    _require_prime(p)
    if q.denominator % p == 0:
        raise ValueError(f"{p} divides the denominator of {q}")
    return q.numerator * pow(q.denominator, -1, p) % p


def _trial_divide(n: int, bound: int) -> tuple[dict[int, int], int]:
    """Split a positive integer into its prime factors up to ``bound``.

    Returns the factors found and the cofactor left over, which is 1 when
    the factorization is complete.  A cofactor that is certifiably prime
    (at most ``bound**2`` with no factor up to ``bound``, or passing
    :func:`is_prime`) counts as a factor; what is left is composite.
    """
    if bound < 1:
        raise ValueError(f"trial-division bound must be at least 1, got {bound}")
    factors: dict[int, int] = {}
    m = n
    for p in (2, 3):
        if m % p == 0:
            factors[p] = e = _int_vp(m, p)
            m //= p**e
    # Candidates are d and d + 2 for d = 5 (mod 6), while d <= bound and
    # d * d <= m.  The inner loop only tests; the limit is recomputed only
    # after a factor has made m smaller.
    d = 5
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


def _iroot(n: int, k: int) -> tuple[int, bool]:
    """Floor k-th root of n >= 0 with exactness flag (pure integer bisection)."""
    if n < 0 or k < 1:
        raise ValueError("iroot needs n >= 0, k >= 1")
    if n in (0, 1) or k == 1:
        return n, True
    lo, hi = 1, 1 << (n.bit_length() // k + 1)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if mid**k <= n:
            lo = mid
        else:
            hi = mid - 1
    return lo, lo**k == n


def is_squarefree(n: int, bound: int = DEFAULT_FACTOR_BOUND) -> bool:
    """True iff no prime square divides the positive integer ``n``.

    Trial-divides up to ``bound``; a surviving composite cofactor that is a
    perfect power makes ``n`` non-squarefree, any other makes the test
    refuse with :class:`UnfactorableError` rather than guess.
    """
    if n < 1:
        raise ValueError(f"squarefree test needs a positive integer, got {n}")
    factors, cofactor = _trial_divide(n, bound)
    if any(e > 1 for e in factors.values()):
        return False
    if cofactor == 1:
        return True
    if any(_iroot(cofactor, k)[1] for k in range(2, cofactor.bit_length() + 1)):
        return False
    raise _unfactorable(n, cofactor, bound)


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
    return str(Fraction(q))
