"""Closed-form evaluation of the one-parameter sextuple family, sign-region
classification and the catalog of named examples.

Each polynomial factor of the closed forms is a tuple of integer
coefficients, highest degree first.  With t = p/q in lowest terms, a factor
f of degree k is evaluated homogeneously as F(p, q) = q^k f(p/q) by one
Horner pass over each half of its table (every other coefficient) in
(p^2, q^2), which also gives F(p, -q), its partner at -t; a factor of even
powers takes its even half alone.  f = -e(1/t) is e with its E factors at
(q, p).  The elements come out as coprime integer pairs, which the
certificate takes as they are.  The tables are locked by the t = 6 golden
test, a plain rational-function reference, a symbolic check of each factor
as evaluated, and ``tests/test_family_proof.py``, which proves in Q(t) that
the family is a sextuple at every t :func:`require_param` accepts.
"""

from __future__ import annotations

from collections.abc import Iterator
from fractions import Fraction
from itertools import islice
from math import gcd

from .errors import ConsistencyError
from .exactnum import Rat, _coprime, _Value, format_rat, sqrt_exact
from .family import TripleABC, require_param
from .sextuple_engine import VerificationReport, _certify, verify_tuple

# Factors of the closed forms, as coefficients of t, highest degree first;
# a partner at -t comes from _pm, and f's factors are E factors at (q, p).
_DOWN = (1, -6, 1)  # t^2 - 6t + 1, with its partner t^2 + 6t + 1
_D1_FACTORS = (
    (8, 27, 24, -54, 24, 27, 8),  # with its partner
    (1, 0, 22, 0, -174, 0, 22, 0, 1),
)
_D2_ROOT = (37, 0, -885, 0, 9735, 0, -13678, 0, 9735, 0, -885, 0, 37)
#: The quadratics that divide both e1 and f1: two with their partners, and
#: t^2 + 7 with 7t^2 + 1, its value at (q, p).
_EF_QUADRATICS = ((1, 3, -2), (2, 3, -1), (1, 0, 7))
_E1_FACTORS = (
    (4, 0, -111, 0, 18, 0, 25),
    (3, 14, -42, 30, 51, 18, -12, 2),  # with its partner
)
_E2_ROOT = (16, 0, 141, 0, -1500, 0, 7586, 0, -2724, 0, 165, 0, 424, 0, -12)


def _hom(coeffs: tuple[int, ...], p: int, q: int) -> int:
    """q^k f(p/q) for the degree-k polynomial f with these coefficients."""
    acc = coeffs[0]
    qk = 1
    for c in coeffs[1:]:
        qk *= q
        acc = acc * p + c * qk
    return acc


def _pm(coeffs: tuple[int, ...], p: int, q: int, pp: int, qq: int) -> tuple[int, int]:
    """F(p, q) and F(p, -q) = (-1)^k q^k f(-p/q) for F(p, q) = q^k f(p/q),
    from one :func:`_hom` of each half of the table in (pp, qq) = (p^2, q^2)."""
    even, odd = _hom(coeffs[::2], pp, qq), _hom(coeffs[1::2], pp, qq)
    if len(coeffs) % 2:  # k even: the odd powers of t carry p q
        odd *= p * q
    else:
        even, odd = even * p, odd * q
    return even + odd, even - odd


def _lowest(num: int, den: int) -> tuple[int, int]:
    """num/den in lowest terms, the denominator positive."""
    g = gcd(num, den) if den > 0 else -gcd(num, den)
    return num // g, den // g


def _elements(p: int, q: int) -> Iterator[tuple[int, int]]:
    """a, b, c, then d, e, f at t = p/q (lowest terms, q > 0, t not in
    {-1, 0, 1}) as :func:`_lowest` pairs, so that the triple stops after
    three.  Homogenized, d is d1/(q d2) (degrees 26 over 25) and e is
    q e1/e2 (33 over 34).  f = -e(1/t) is e's formula with its E factors at
    (q, p): -2pq and the quadratics' product are the same there, and the
    core's change of sign takes up the minus."""
    pp, qq, pq = p * p, q * q, p * q
    down, up = _pm(_DOWN, p, q, pp, qq)
    yield _lowest(18 * pq * (pp - qq), down * up)
    yield _lowest((p - q) * up * up, 6 * pq * (p + q) * down)
    yield _lowest((p + q) * down * down, 6 * pq * (p - q) * up)
    core = (pp - qq) * down * up  # (t^2 - 1)(t^2 - 6t + 1)(t^2 + 6t + 1)
    d1a, d1b = _pm(_D1_FACTORS[0], p, q, pp, qq)
    d2 = _hom(_D2_ROOT[::2], pp, qq)
    yield _lowest(6 * core * d1a * d1b * _hom(_D1_FACTORS[1][::2], pp, qq), pq * d2 * d2)
    (u, v), (w, x) = (_pm(c, p, q, pp, qq) for c in _EF_QUADRATICS[:2])
    seven = _EF_QUADRATICS[2][::2]
    shared = -2 * pq * u * v * w * x * _hom(seven, pp, qq) * _hom(seven, qq, pp)
    e1a, e2 = _E1_FACTORS[0][::2], _E2_ROOT[::2]
    e1b, e1c = _pm(_E1_FACTORS[1], p, q, pp, qq)
    root = _hom(e2, pp, qq)
    yield _lowest(shared * _hom(e1a, pp, qq) * e1b * e1c, 3 * core * root * root)
    f1b, f1c = _pm(_E1_FACTORS[1], q, p, qq, pp)
    root = _hom(e2, qq, pp)
    yield _lowest(shared * _hom(e1a, qq, pp) * f1b * f1c, 3 * core * root * root)


def family_triple(t) -> TripleABC:
    """The closed-form triple as a validated :class:`TripleABC` (m = 2)."""
    t = require_param(t)
    a, b, c = (_coprime(*pair) for pair in islice(_elements(t.numerator, t.denominator), 3))
    roots = tuple(sqrt_exact(p + 1) for p in (a * b, a * c, b * c))
    if None in roots:
        raise ConsistencyError(f"closed-form triple at t = {t} is not Diophantine")
    return TripleABC(a, b, c, *roots, t=t, m=2)


class FamilyPoint(_Value):
    """The six closed-form family values at one parameter, self-verified."""

    __slots__ = _fields = ("t", "a", "b", "c", "d", "e", "f", "negatives", "report")
    t: Rat
    a: Rat
    b: Rat
    c: Rat
    d: Rat
    e: Rat
    f: Rat
    negatives: int
    report: VerificationReport

    @property
    def elements(self) -> tuple[Rat, ...]:
        return (self.a, self.b, self.c, self.d, self.e, self.f)


def family_point(t) -> FamilyPoint:
    t = require_param(t)
    parts = list(_elements(t.numerator, t.denominator))
    report = _certify(parts)
    if not report.all_pass:
        raise ConsistencyError(f"closed-form family values at t = {t} failed to verify")
    return FamilyPoint(
        t, *[_coprime(n, d) for n, d in parts], sum(1 for n, _ in parts if n < 0), report
    )


# ---------------------------------------------------------------------------
# catalog of named examples
# ---------------------------------------------------------------------------

class CatalogEntry(_Value):
    __slots__ = _fields = ("name", "elements", "source")
    name: str
    elements: tuple[Rat, ...]
    source: str

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "elements": [format_rat(e) for e in self.elements],
            "source": self.source,
        }


_CATALOG_DATA = (
    (
        "diophantus",
        (Fraction(1, 16), Fraction(33, 16), Fraction(17, 4), Fraction(105, 16)),
        "Diophantus; the first known rational quadruple",
    ),
    (
        "fermat",
        (Fraction(1), Fraction(3), Fraction(8), Fraction(120)),
        "Fermat's integer quadruple",
    ),
    (
        "euler",
        (Fraction(1), Fraction(3), Fraction(8), Fraction(120), Fraction(777480, 8288641)),
        "Euler's rational extension of Fermat's quadruple",
    ),
    (
        "gibbs",
        (
            Fraction(11, 192), Fraction(35, 192), Fraction(155, 27),
            Fraction(512, 27), Fraction(1235, 48), Fraction(180873, 16),
        ),
        "Gibbs (1999); the first known rational sextuple",
    ),
    (
        "family-t6",
        (
            Fraction(3780, 73),
            Fraction(26645, 252),
            Fraction(7, 13140),
            Fraction(791361752602550684660, 1827893092234556692801),
            Fraction(95104852709815809228981184, 351041911654651335633266955),
            Fraction(3210891270762333567521084544, 21712719223923581005355),
        ),
        "the parametric family at t = 6; all elements positive",
    ),
    (
        "product34-triple",
        (
            Fraction(36534805866201747, 2323780774755404),
            Fraction(1065197767305747, 13609226201091404),
            Fraction(3802080647508196, 6238332600753747),
        ),
        "smallest all-positive order-3 triple with product 3/4",
    ),
    (
        "product34-sextuple",
        (
            Fraction(36534805866201747, 2323780774755404),
            Fraction(1065197767305747, 13609226201091404),
            Fraction(3802080647508196, 6238332600753747),
            Fraction(143947705777192337861060209232361164451, 159554724645105598216911731751641945996),
            Fraction(27566706033755538837165550223247346480484, 28811406145997336392588207503703089363),
            Fraction(5959833363761715860447368794188813530156, 3132578990197106752312648160330628526617),
        ),
        "a sextuple extension of the product-3/4 triple",
    ),
)


def _verified_entry(name: str, elements: tuple[Rat, ...], source: str) -> CatalogEntry:
    if not verify_tuple(elements).all_pass:
        raise ConsistencyError(f"catalog entry {name!r} failed verification")
    return CatalogEntry(name, elements, source)


def catalog() -> list[CatalogEntry]:
    """Embedded fixtures, each re-verified on the way out."""
    return [_verified_entry(*data) for data in _CATALOG_DATA]


def catalog_entry(name: str) -> CatalogEntry:
    """The named fixture, re-verified on the way out (the others are not)."""
    for data in _CATALOG_DATA:
        if data[0] == name:
            return _verified_entry(*data)
    raise KeyError(name)
