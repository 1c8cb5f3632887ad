"""Closed-form evaluation of the one-parameter sextuple family, sign-region
classification and the catalog of named examples.

Each polynomial factor of the closed forms is a tuple of integer
coefficients, highest degree first.  With t = p/q in lowest terms, a factor
f of degree k is evaluated homogeneously as the integer q^k f(p/q), and each
element is assembled from these integers with a single reduction to lowest
terms.  The tuples are transcribed once and locked by the t = 6 golden test
(a single transcription error breaks an exact multi-hundred-digit string
comparison), by a comparison with the plain rational-function form, and by
a symbolic check of every tuple.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ConsistencyError
from .exactnum import Rat, _Value, format_rat, sqrt_exact
from .family import TripleABC, require_param
from .sextuple_engine import VerificationReport, verify_tuple

# Factors of the closed forms, as coefficients of t, highest degree first.
_DOWN = (1, -6, 1)  # t^2 - 6t + 1
_UP = (1, 6, 1)  # t^2 + 6t + 1
_D1_FACTORS = (
    (8, 27, 24, -54, 24, 27, 8),
    (8, -27, 24, 54, 24, -27, 8),
    (1, 0, 22, 0, -174, 0, 22, 0, 1),
)
_D2_ROOT = (37, 0, -885, 0, 9735, 0, -13678, 0, 9735, 0, -885, 0, 37)
#: The quadratics that divide both e1 and f1.
_EF_QUADRATICS = ((1, 3, -2), (1, -3, -2), (2, 3, -1), (2, -3, -1), (1, 0, 7), (7, 0, 1))
_E1_FACTORS = (
    (4, 0, -111, 0, 18, 0, 25),
    (3, 14, -42, 30, 51, 18, -12, 2),
    (3, -14, -42, -30, 51, -18, -12, -2),
)
_E2_ROOT = (16, 0, 141, 0, -1500, 0, 7586, 0, -2724, 0, 165, 0, 424, 0, -12)
_F1_FACTORS = (
    (25, 0, 18, 0, -111, 0, 4),
    (2, -12, 18, 51, 30, -42, 14, 3),
    (2, 12, 18, -51, 30, 42, 14, -3),
)
_F2_ROOT = (12, 0, -424, 0, -165, 0, 2724, 0, -7586, 0, 1500, 0, -141, 0, -16)


def _hom(coeffs: tuple[int, ...], p: int, q: int) -> int:
    """q^k f(p/q) for the degree-k polynomial f with these coefficients."""
    acc = coeffs[0]
    qk = 1
    for c in coeffs[1:]:
        qk *= q
        acc = acc * p + c * qk
    return acc


def _prod_hom(factors, p: int, q: int) -> int:
    acc = 1
    for coeffs in factors:
        acc *= _hom(coeffs, p, q)
    return acc


def _vanishes(p: int, q: int) -> ValueError:
    return ValueError(f"family denominator vanishes at t = {Fraction(p, q)}")


def _abc(p: int, q: int) -> tuple[Rat, Rat, Rat]:
    """a, b, c at t = p/q (lowest terms, q > 0, t not in {-1, 0, 1})."""
    minus, plus = p - q, p + q
    down, up = _hom(_DOWN, p, q), _hom(_UP, p, q)
    if down == 0 or up == 0:
        raise _vanishes(p, q)
    pq = p * q
    return (
        Fraction(18 * pq * minus * plus, down * up),
        Fraction(minus * up * up, 6 * pq * plus * down),
        Fraction(plus * down * down, 6 * pq * minus * up),
    )


def _def(p: int, q: int) -> tuple[Rat, Rat, Rat]:
    """d, e, f at t = p/q (lowest terms, q > 0, t not in {-1, 0, 1}).

    d = d1/d2 with deg d1 = 26 and deg d2 = 25, so d is d1/(q d2) in the
    homogenized integers; e = e1/e2 and f = f1/f2 have degrees 33 over 34,
    so e is q e1/e2 and f is q f1/f2.
    """
    # (t - 1)(t + 1)(t^2 - 6t + 1)(t^2 + 6t + 1), shared by d1, e2 and f2
    core = (p - q) * (p + q) * _hom(_DOWN, p, q) * _hom(_UP, p, q)
    d1 = 6 * core * _prod_hom(_D1_FACTORS, p, q)
    d2 = p * _hom(_D2_ROOT, p, q) ** 2
    quadratics = _prod_hom(_EF_QUADRATICS, p, q)
    e1 = -2 * p * _prod_hom(_E1_FACTORS, p, q) * quadratics
    e2 = 3 * core * _hom(_E2_ROOT, p, q) ** 2
    f1 = 2 * p * _prod_hom(_F1_FACTORS, p, q) * quadratics
    f2 = 3 * core * _hom(_F2_ROOT, p, q) ** 2
    if d2 == 0 or e2 == 0 or f2 == 0:
        raise _vanishes(p, q)
    return Fraction(d1, q * d2), Fraction(e1 * q, e2), Fraction(f1 * q, f2)


def family_triple(t) -> TripleABC:
    """The closed-form triple as a validated :class:`TripleABC` (m = 2)."""
    t = require_param(t)
    a, b, c = _abc(t.numerator, t.denominator)
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
    p, q = t.numerator, t.denominator
    elements = _abc(p, q) + _def(p, q)
    a, b, c, d, e, f = elements
    report = verify_tuple(elements)
    if not report.all_pass:
        raise ConsistencyError(f"closed-form family values at t = {t} failed to verify")
    return FamilyPoint(
        t, a, b, c, d, e, f, sum(1 for x in elements if x.numerator < 0), report
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
