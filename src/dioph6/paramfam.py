"""Closed-form evaluation of the one-parameter sextuple family, sign-region
classification, the catalog of named examples, and the membership check for
the five extra rational points on the extension curve.

The big numerator/denominator polynomials below are transcribed once as
explicit expressions and locked by the t = 6 golden test: a single
transcription error breaks an exact multi-hundred-digit string comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ConsistencyError
from .exactnum import Rat, format_rat, is_square, sqrt_exact
from .family import TripleABC, curve_E, point_R, require_param, triple_from_multiple
from .sextuple_engine import VerificationReport, verify_tuple
from .weierstrass import Curve, Point


def abc_closed_form(t) -> tuple[Rat, Rat, Rat]:
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


def def_closed_form(t) -> tuple[Rat, Rat, Rat]:
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


def family_triple(t) -> TripleABC:
    """The closed-form triple as a validated :class:`TripleABC` (m = 2)."""
    t = require_param(t)
    a, b, c = abc_closed_form(t)
    roots = tuple(sqrt_exact(p + 1) for p in (a * b, a * c, b * c))
    if None in roots:
        raise ConsistencyError(f"closed-form triple at t = {t} is not Diophantine")
    return TripleABC(a, b, c, *roots, t=t, m=2)


@dataclass(frozen=True)
class FamilyPoint:
    """The six closed-form family values at one parameter, self-verified."""

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
    a, b, c = abc_closed_form(t)
    d, e, f = def_closed_form(t)
    elements = (a, b, c, d, e, f)
    report = verify_tuple(elements)
    if not report.all_pass:
        raise ConsistencyError(f"closed-form family values at t = {t} failed to verify")
    return FamilyPoint(
        t, a, b, c, d, e, f, sum(1 for x in elements if x < 0), report
    )


# ---------------------------------------------------------------------------
# catalog of named examples
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CatalogEntry:
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


def catalog() -> list[CatalogEntry]:
    """Embedded fixtures, each re-verified on the way out."""
    entries = []
    for name, elements, source in _CATALOG_DATA:
        if not verify_tuple(elements).all_pass:
            raise ConsistencyError(f"catalog entry {name!r} failed verification")
        entries.append(CatalogEntry(name, elements, source))
    return entries


def catalog_entry(name: str) -> CatalogEntry:
    for entry in catalog():
        if entry.name == name:
            return entry
    raise KeyError(name)


# ---------------------------------------------------------------------------
# the product-3/4 reconstruction
# ---------------------------------------------------------------------------

#: Depressed model of the t = 2 member of the family (x shifted by -11) and
#: its rank-1 generator; the sixth multiple of the generator yields the
#: smallest all-positive order-3 triple with product 3/4.
PRODUCT34_CURVE = Curve(Fraction(0), Fraction(1512), Fraction(33588))
PRODUCT34_GENERATOR = Point(Fraction(-11), Fraction(125))
_PRODUCT34_SHIFT = Fraction(11)


def reconstruct_product34_triple() -> TripleABC:
    """Rebuild the product-3/4 triple from the depressed-curve generator.

    Computes the sixth multiple of the generator, translates it to the
    t = 2 member of the family, checks it agrees with [6]R there, and
    extracts the triple through the isogeny route.
    """
    sixth = PRODUCT34_CURVE.mul(6, PRODUCT34_GENERATOR)
    if sixth.is_infinity:
        raise ConsistencyError("generator unexpectedly has order dividing 6")
    base = curve_E(2)
    lifted = Point(sixth.x + _PRODUCT34_SHIFT, sixth.y)
    if not base.contains(lifted):
        raise ConsistencyError("shifted generator multiple left the family curve")
    if lifted != base.mul(6, point_R(2)):
        raise ConsistencyError("generator multiple does not match the seed multiple")
    triple = triple_from_multiple(2, 6)
    if triple.sigma3 != Fraction(3, 4):
        raise ConsistencyError("reconstructed triple has the wrong product")
    return triple


# ---------------------------------------------------------------------------
# extension-curve membership
# ---------------------------------------------------------------------------

def rank_curve_membership(t) -> list[tuple[Rat, bool]]:
    """Check the five designated x values on y^2 = (dx+1)(ex+1)(fx+1).

    The values are 0, 1/(def), a, b, c; membership means the right-hand
    side is an exact rational square.
    """
    t = require_param(t)
    a, b, c = abc_closed_form(t)
    d, e, f = def_closed_form(t)
    xs = (Fraction(0), 1 / (d * e * f), a, b, c)
    return [
        (x, is_square((d * x + 1) * (e * x + 1) * (f * x + 1)))
        for x in xs
    ]
