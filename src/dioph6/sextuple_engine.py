"""Induced curves of a Diophantine triple, the order-3 point on them,
extension of qualifying triples to rational Diophantine sextuples via odd
multiples of the base point, and the universal square-certificate verifier.

All curve work happens on the monic induced model y^2 = (x+ab)(x+ac)(x+bc);
the non-monic model's coordinates are recovered by dividing x by abc at the
boundary, which is where the sextuple elements d, e, f come from.  e and f
are the x-coordinates of [2n+1]P' + S' and [2n+1]P' - S', taken together
from one x-only sum-and-difference (``Curve.add_sub_x_unchecked``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import ConsistencyError, DegeneracyError
from .exactnum import Rat, format_rat, is_square, sqrt_exact
from .family import TripleABC
from .weierstrass import Curve, Point

#: Extension multiples [2n+1]P' beyond this are past desk scale.
DEFAULT_MAX_ODD_INDEX = 6


@dataclass(frozen=True)
class PairWitness:
    """One pairwise check: elements i, j (1-based), their product + 1, and
    its square root when it exists."""

    i: int
    j: int
    product_plus_one: Rat
    square_root: Rat | None

    @property
    def ok(self) -> bool:
        return self.square_root is not None


@dataclass(frozen=True)
class VerificationReport:
    """Full certificate for a candidate tuple: every pairwise product + 1
    together with its square-root witness."""

    pair_results: tuple[PairWitness, ...]
    nonzero: bool
    distinct: bool

    @property
    def all_pass(self) -> bool:
        return self.nonzero and self.distinct and all(p.ok for p in self.pair_results)

    @property
    def failing_pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple((p.i, p.j) for p in self.pair_results if not p.ok)

    def to_json_dict(self, elements: Sequence[Rat] | None = None) -> dict:
        out: dict = {}
        if elements is not None:
            out["elements"] = [format_rat(e) for e in elements]
        out["all_pass"] = self.all_pass
        out["nonzero"] = self.nonzero
        out["distinct"] = self.distinct
        out["pairs"] = [
            {
                "i": p.i,
                "j": p.j,
                "product_plus_one": format_rat(p.product_plus_one),
                "square_root": None if p.square_root is None else format_rat(p.square_root),
            }
            for p in self.pair_results
        ]
        return out


def verify_tuple(elements: Iterable[Rat | int | str]) -> VerificationReport:
    """Exhaustively check the defining property of a Diophantine tuple.

    Failures are reported as data, never raised: the report carries one
    witness row per pair plus nonzero/distinct flags.
    """
    els = [Fraction(e) for e in elements]
    pairs = []
    for i in range(len(els)):
        for j in range(i + 1, len(els)):
            value = els[i] * els[j] + 1
            pairs.append(PairWitness(i + 1, j + 1, value, sqrt_exact(value)))
    return VerificationReport(
        pair_results=tuple(pairs),
        nonzero=all(e != 0 for e in els),
        distinct=len(set(els)) == len(els),
    )


# ---------------------------------------------------------------------------
# the induced curve and its marked points
# ---------------------------------------------------------------------------

def _coerced(a, b, c) -> tuple[Rat, Rat, Rat]:
    return Fraction(a), Fraction(b), Fraction(c)


def induced_curve(a, b, c) -> Curve:
    """Monic induced curve y^2 = (x + ab)(x + ac)(x + bc) of a triple."""
    a, b, c = _coerced(a, b, c)
    if 0 in (a, b, c):
        raise ValueError("induced curve needs nonzero elements")
    ab, ac, bc = a * b, a * c, b * c
    if len({ab, ac, bc}) != 3:
        raise ValueError(
            f"induced curve of ({a}, {b}, {c}) is singular: repeated pair product"
        )
    return Curve(ab + ac + bc, ab * ac + ab * bc + ac * bc, (a * b * c) ** 2)


def point_Pprime(a, b, c) -> Point:
    """The base point [0, abc] used for extension multiples."""
    a, b, c = _coerced(a, b, c)
    return Point(Fraction(0), a * b * c)


def _rho_witnesses(a, b, c) -> tuple[Rat, Rat, Rat]:
    roots = (sqrt_exact(a * b + 1), sqrt_exact(a * c + 1), sqrt_exact(b * c + 1))
    if None in roots:
        raise ValueError(
            f"({a}, {b}, {c}) is not a Diophantine triple: a pairwise product + 1 is not square"
        )
    return roots  # type: ignore[return-value]


def point_Sprime(a, b, c) -> Point:
    """The marked point [1, rho_ab rho_ac rho_bc] with nonnegative roots.

    Negating any root only swaps this point with its inverse; the sextuple
    produced downstream is the same set either way.
    """
    a, b, c = _coerced(a, b, c)
    r1, r2, r3 = _rho_witnesses(a, b, c)
    return Point(Fraction(1), r1 * r2 * r3)


def point_half(a, b, c) -> Point:
    """The point whose double is the marked point (so S' is in 2E'(Q))."""
    a, b, c = _coerced(a, b, c)
    r1, r2, r3 = _rho_witnesses(a, b, c)
    return Point(
        r1 * r2 + r1 * r3 + r2 * r3 + 1,
        (r1 + r2) * (r1 + r3) * (r2 + r3),
    )


def order3_check(a, b, c) -> bool:
    """True iff the marked point has exact order 3 under the group law."""
    a, b, c = _coerced(a, b, c)
    curve = induced_curve(a, b, c)
    s = point_Sprime(a, b, c)
    return curve.mul(3, s).is_infinity and not s.is_infinity


def half_point_check(a, b, c) -> bool:
    """True iff doubling :func:`point_half` lands exactly on the marked point."""
    a, b, c = _coerced(a, b, c)
    curve = induced_curve(a, b, c)
    return curve.mul(2, point_half(a, b, c)) == point_Sprime(a, b, c)


def square_product_check(curve: Curve, q: Point, r: Point) -> tuple[Rat, bool]:
    """Evaluate x(Q) x(T) x(Q+T) + a6 on a curve whose a6 is a square.

    For monic curves carrying a rational point [0, alpha] the value is
    always a perfect square; the boolean reports the exact test.
    """
    if not is_square(curve.a6):
        raise ValueError(
            f"a6 = {curve.a6} is not a perfect square; the curve has no point [0, alpha]"
        )
    for name, pt in (("q", q), ("r", r)):
        if pt.is_infinity:
            raise ValueError(f"{name} must be affine")
        if not curve.contains(pt):
            raise ValueError(f"{name} = {pt} is not on {curve}")
    total_x = curve.add_x_unchecked(q, r)
    if total_x is None:
        raise ValueError("q + r must be affine")
    value = q.x * r.x * total_x + curve.a6
    return value, is_square(value)


# ---------------------------------------------------------------------------
# sextuple extension
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SextupleRecord:
    """A constructed sextuple with provenance and its full certificate."""

    t: Rat | None
    m: int | None
    n: int
    triple: TripleABC
    d: Rat
    e: Rat
    f: Rat
    report: VerificationReport

    def __post_init__(self) -> None:
        if not self.report.all_pass:
            raise ValueError("sextuple record requires a passing certificate")

    @property
    def elements(self) -> tuple[Rat, ...]:
        return (*self.triple.elements, self.d, self.e, self.f)

    def to_json_dict(self, route: str | None = None) -> dict:
        out: dict = {
            "t": None if self.t is None else format_rat(self.t),
            "m": self.m,
            "n": self.n,
        }
        if route is not None:
            out["route"] = route
        d, e, f = (format_rat(x) for x in (self.d, self.e, self.f))
        out["elements"] = [*(format_rat(x) for x in self.triple.elements), d, e, f]
        out["triple"] = self.triple.to_json_dict()
        out["d"] = d
        out["e"] = e
        out["f"] = f
        out["verification"] = self.report.to_json_dict()
        return out


def extend_to_sextuple(triple: TripleABC, n: int) -> SextupleRecord:
    """Extend an order-3 triple to a sextuple via the odd multiple [2n+1]P'.

    d, e, f are x([2n+1]P')/abc, x([2n+1]P'+S')/abc, x([2n+1]P'-S')/abc.
    Degenerate configurations (a point at infinity, a zero x-coordinate,
    or colliding elements) raise :class:`DegeneracyError` naming the
    offending point; a failed certificate on non-degenerate input raises
    :class:`ConsistencyError` since the construction guarantees it passes.
    """
    if n < 1:
        raise DegeneracyError(
            f"n = {n} is degenerate: [1]P' has x = 0, which would make d = 0"
        )
    if n > DEFAULT_MAX_ODD_INDEX:
        raise ValueError(f"n = {n} exceeds the desk-scale cap {DEFAULT_MAX_ODD_INDEX}")
    a, b, c = triple.elements
    curve = induced_curve(a, b, c)
    abc = a * b * c
    base = point_Pprime(a, b, c)
    # S' from the witnesses the triple already carries (see point_Sprime)
    marked = Point(Fraction(1), triple.rho_ab * triple.rho_ac * triple.rho_bc)
    if not curve.mul(3, marked).is_infinity:
        raise ValueError("triple does not carry a point of order 3; cannot extend")
    # S' passed the check in mul(3, S') and [2n+1]P' comes out of the group
    # law, so the sums with +-S' skip the membership checks and stop at x
    center = curve.mul(2 * n + 1, base)
    xs = (center.x, *curve.add_sub_x_unchecked(center, marked))
    for name, x in zip((f"[{2*n+1}]P'", f"[{2*n+1}]P'+S'", f"[{2*n+1}]P'-S'"), xs):
        if x is None:
            raise DegeneracyError(f"{name} is the point at infinity")
        if x == 0:
            raise DegeneracyError(f"{name} coincides with +-P' (x = 0)")
    d, e, f = (x / abc for x in xs)
    elements = (a, b, c, d, e, f)
    if len(set(elements)) != 6:
        raise DegeneracyError(
            f"extension of ({a}, {b}, {c}) with n = {n} repeats an element"
        )
    report = verify_tuple(elements)
    if not report.all_pass:
        raise ConsistencyError(
            f"certificate failed for ({a}, {b}, {c}) extended with n = {n}: "
            f"pairs {report.failing_pairs}"
        )
    return SextupleRecord(
        t=triple.t, m=triple.m, n=n, triple=triple, d=d, e=e, f=f, report=report
    )
