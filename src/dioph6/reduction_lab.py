"""Reduction analysis of the two-torsion model: p-integral and p-minimal
models, good/multiplicative/additive classification at odd primes, and
empirical tables for the p-adic valuation patterns of seed-point multiples.

Classification uses the (v_p(delta), v_p(c4)) criterion on the model
reached by u-scaling alone.  That model is p-minimal only when no change of
coordinates x -> x - r is needed before scaling, so a curve that must first
be translated can be reported as additive at a prime of good or
multiplicative reduction, for p >= 5 as well as p = 3.  p = 2 is out of
scope and rejected everywhere.

The valuations come from a model's cleared integers (d, c2, c4, c6, D):
its coefficients a_i = c_i/d over any common denominator d, and D = d^4
times the discriminant of its cubic.  At odd p, where 16 is a unit,
delta = 16 D/d^4 and c4 = 16 (c2^2 - 3 d c4)/d^2, whose valuations no
common factor of d and the c_i moves.  A :class:`Curve` holds these
integers; the bad-prime scan and ``reduce --p`` take the two-torsion
model's from the point (:func:`dioph6.family._cleared_Epp`) once the
membership test has checked it on E(t)'s integers (``family._cleared_E``),
and build no Curve.  A model's integers are taken once for all the primes it
is classified at.  The bad-prime scan's report has as its field one row (p,
type, v_delta, v_c4, scaling_exponent) per classified prime; a
:class:`ReductionReport` is built only by :func:`classify`, ``reduce --p``,
or from a row on each read of ``BadPrimesReport.entries``.

The valuation tables need a sum s + q of multiples of R only for its
valuation: v(num) - v(den) of the unreduced integers ``Curve._sum_x_parts``
gives, the formula that ``Curve.add_sub_x_unchecked`` reduces, with no gcd.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from fractions import Fraction

from .errors import ConsistencyError
from .exactnum import (
    DEFAULT_FACTOR_BOUND,
    Rat,
    _int_vp,
    _rat_vp,
    _require_prime,
    _Value,
    format_rat,
    odd_prime_divisors,
)
from .family import _cleared_E, _cleared_Epp, _curve_E, _point_R, require_param
from .weierstrass import Curve, INFINITY, Point, _on_model

#: Coordinate digit counts grow quadratically in the multiple index; tables
#: beyond this are past desk scale.
DEFAULT_TABLE_MAX = 6
HARD_TABLE_MAX = 12

GOOD = "good"
MULTIPLICATIVE = "mult"
ADDITIVE = "add"


class ReductionReport(_Value):
    """Reduction data of a curve at one odd prime, on the model of
    :func:`p_minimal_model`.

    ``v_c4`` is None when c4 = 0 (infinite valuation).  ``scaling_exponent``
    is the k with u = p^k applied to reach that model.
    """

    __slots__ = _fields = ("p", "type", "v_delta", "v_c4", "scaling_exponent")
    p: int
    type: str
    v_delta: int
    v_c4: int | None
    scaling_exponent: int

    def to_json_dict(self) -> dict:
        return dict(zip(self._fields, self._values()))


class ValuationRow(_Value):
    """One predicted-vs-observed valuation (or valuation-sign) comparison."""

    __slots__ = _fields = ("m", "predicted", "observed", "lemma_part")
    m: int
    predicted: int
    observed: int
    lemma_part: str

    @property
    def passed(self) -> bool:
        return self.predicted == self.observed

    def to_json_dict(self) -> dict:
        return {
            "m": self.m,
            "lemma_part": self.lemma_part,
            "predicted": self.predicted,
            "observed": self.observed,
            "pass": self.passed,
        }


def require_odd_prime(p: int) -> None:
    """Reject p = 2, which is out of scope here, and every p that is not prime."""
    if p == 2:
        raise ValueError("p = 2 is out of scope for reduction analysis")
    _require_prime(p)


def require_base_point(t, pt: Point) -> None:
    """Reject an excluded t, and a point that is not admissible on the base
    curve at t: the point at infinity, a point with x = 0, or a point off
    the base curve E(t)."""
    t = require_param(t)
    if pt.is_infinity or pt.x == 0 or not _on_model(_cleared_E(t.numerator, t.denominator), pt):
        raise ValueError("point is not an admissible base-curve point")


def p_minimal_model(curve: Curve, p: int) -> tuple[Curve, int]:
    """Scale by u = p^k as far as p-integrality allows; return the model and k.

    k is the largest exponent keeping all coefficients p-integral, i.e.
    min over i in {2, 4, 6} of floor(v_p(a_i)/i); when k = 0 the model is
    ``curve`` itself.  Only u-scalings are tried, so the result need not be
    p-minimal: y^2 = x^3 + 3x^2 + (3+5^4)x + 1+5^4+5^6 stays as it is at
    p = 5, yet x -> x - 1 followed by u = 5 turns it into y^2 = x^3 + x + 1,
    which has good reduction there.
    """
    require_odd_prime(p)
    k = next(_classified((*curve._cleared, curve._disc), (p,)))[4]
    return (curve.scale(Fraction(p) ** k) if k else curve), k


def classify(curve: Curve, p: int) -> ReductionReport:
    """Reduction type of a curve at an odd prime, on the model of
    :func:`p_minimal_model`.

    Scaling by u = p^k divides the discriminant by u^12 and c4 by u^4, so
    their valuations on that model are read off the curve's own invariants,
    and those off its cleared integers: with a_i = c_i/d and D =
    ``curve._disc``, delta = 16 D/d^4 and c4 = 16 (c2^2 - 3 d c4)/d^2.
    """
    require_odd_prime(p)
    return ReductionReport(*next(_classified((*curve._cleared, curve._disc), (p,))))


def _classified(model: tuple[int, int, int, int, int], primes: Iterable[int]) -> Iterator[tuple]:
    """The fields (p, type, v_delta, v_c4, scaling_exponent) of
    :func:`classify` at each of the odd primes, which the caller has
    checked, for a model (d, c2, c4, c6, D) with a_i = c_i/d over any
    common denominator d and D = ``_cleared_discriminant(d, c2, c4, c6)``.

    With v_d = v_p(d), v_p(a_i) = v_p(c_i) - v_d, which gives the k of
    :func:`p_minimal_model`.
    """
    d, c2, c4, c6, disc = model
    c4_cleared = c2 * c2 - 3 * d * c4
    coeffs = [(i, c) for i, c in ((2, c2), (4, c4), (6, c6)) if c]
    for p in primes:
        v_d = _int_vp(d, p)
        k = min([(_int_vp(c, p) - v_d) // i for i, c in coeffs])
        v_delta = _int_vp(disc, p) - 4 * v_d - 12 * k
        v_c4 = _int_vp(c4_cleared, p) - 2 * v_d - 4 * k if c4_cleared else None
        if v_delta == 0:
            kind = GOOD
        elif v_c4 == 0:
            kind = MULTIPLICATIVE
        else:
            kind = ADDITIVE
        yield p, kind, v_delta, v_c4, k


# ---------------------------------------------------------------------------
# bad primes of the two-torsion model at a point
# ---------------------------------------------------------------------------

class BadPrimesReport(_Value):
    """Classification of the two-torsion model at every relevant odd prime.

    ``candidates`` are the odd primes dividing t(t^2+1) - the only primes
    where additive reduction can occur when t is an integer and
    v_3(y) <= 0.  ``rows`` classifies these and every other odd prime
    where the minimal discriminant has positive valuation, one row (p,
    type, v_delta, v_c4, scaling_exponent) per prime in ascending p: the
    fields of its :class:`ReductionReport`.  The JSON form reads the rows;
    ``entries`` builds the (p, report) pairs from them on each read.
    """

    __slots__ = _fields = (
        "t", "x", "y", "rows", "candidates", "additive", "prop_applicable", "prop_holds",
    )
    t: int
    x: Rat
    y: Rat
    rows: tuple[tuple[int, str, int, int | None, int], ...]
    candidates: tuple[int, ...]
    additive: tuple[int, ...]
    prop_applicable: bool
    prop_holds: bool | None

    @property
    def entries(self) -> tuple[tuple[int, ReductionReport], ...]:
        return tuple((row[0], ReductionReport(*row)) for row in self.rows)

    def to_json_dict(self) -> dict:
        return {
            "t": self.t,
            "x": format_rat(self.x),
            "y": format_rat(self.y),
            "candidates": list(self.candidates),
            "entries": [dict(zip(ReductionReport._fields, row)) for row in self.rows],
            "additive": list(self.additive),
            "containment_applicable": self.prop_applicable,
            "containment_holds": self.prop_holds,
        }


def bad_primes_epp(
    t: int, pt: Point, bound: int = DEFAULT_FACTOR_BOUND
) -> BadPrimesReport:
    """Classify the two-torsion model at every odd prime that matters.

    Classifies all odd primes dividing t(t^2+1) (the additive candidates)
    plus every other odd prime where the minimal discriminant has positive
    valuation.  When v_3(y) <= 0 the additive set must be contained in the
    candidates; a violation raises :class:`ConsistencyError`.  When
    v_3(y) > 0 the containment is not asserted (3 can then turn additive),
    and the report records that the guarantee did not apply.
    """
    if not isinstance(t, int):
        raise ValueError("integer parameter required for the bad-prime scan")
    require_base_point(t, pt)
    x, y = pt.x, pt.y
    model = _cleared_Epp(t, 1, x)

    candidates = tuple(odd_prime_divisors(t * (t * t + 1), bound))
    # on the integral model x = X/e^2 and y = Y/e^3: y's denominator has the
    # primes of x's, which is factored (or refused) first
    extra_sources = (x.numerator, x.denominator, y.numerator)
    extras = sorted(
        {
            p
            for source in extra_sources
            if source not in (1, -1)
            for p in odd_prime_divisors(source, bound)
        }
        - set(candidates)
    )

    # odd_prime_divisors has proven each of these primes prime: no second check
    rows = list(_classified(model, candidates))
    rows += [row for row in _classified(model, extras) if row[2] > 0]
    rows.sort()  # by p, which no two rows share
    additive = tuple(row[0] for row in rows if row[1] == ADDITIVE)
    applicable = _rat_vp(y, 3) <= 0 if y != 0 else False
    holds: bool | None = None
    if applicable:
        holds = set(additive) <= set(candidates)
        if not holds:
            raise ConsistencyError(
                f"additive primes {additive} escape the candidate set "
                f"{candidates} at t = {t} despite v_3(y) <= 0"
            )
    return BadPrimesReport(t, x, y, tuple(rows), candidates, additive, applicable, holds)


# ---------------------------------------------------------------------------
# valuation tables for seed-point multiples
# ---------------------------------------------------------------------------

def _check_table_args(t, m_max: int) -> Rat:
    tq = require_param(t)
    if not isinstance(t, int):
        raise ValueError("valuation tables need an integer parameter")
    if m_max < 1:
        raise ValueError("m_max must be at least 1")
    if m_max > HARD_TABLE_MAX:
        raise ValueError(
            f"m_max = {m_max} exceeds the desk-scale cap {HARD_TABLE_MAX}; "
            "coordinate sizes grow quadratically in the multiple"
        )
    return tq


def _seed_multiples(t: Rat, k: int) -> tuple[Curve, list[Point]]:
    """The base curve at a checked t and the seed multiples [1]R, ..., [k]R
    on it.

    The seed is checked against the curve here, once: the tables add only
    points derived from it, through the unchecked group law.
    """
    base = _curve_E(t.numerator, t.denominator)
    seed = _point_R(t.numerator, t.denominator)
    base.require_on_curve(seed)
    multiples = [seed]
    while len(multiples) < k:
        multiples.append(base.add_unchecked(multiples[-1], seed))
    return base, multiples


def _sum_vp(curve: Curve, s: Point, q: Point, p: int) -> int:
    """v_p(x(s + q)) for points of the curve, off unreduced integers; where
    x(s) = x(q) (or a point is O), off the reduced sum."""
    if s.is_infinity or q.is_infinity or s.x == q.x:
        return _rat_vp(curve.add_x_unchecked(s, q), p)
    num, _, den = curve._sum_x_parts(s, q)
    return _int_vp(num, p) - _int_vp(den, p)


def valuation_table(t: int, p: int, m_max: int = DEFAULT_TABLE_MAX) -> list[ValuationRow]:
    """Predicted vs observed p-adic valuations for seed-point multiples.

    Requires an odd prime that exactly divides t^2 + 1.  The predictions:
    v(x([2]R)) = 0, v(x([3]R)) = 4, v(x([4]R)) = -2, v(y([4]R)) = -3, and
    for each m:  v(x([4m]R)) = -2 v_p(m) - 2,  v(x(R+[m][4]R)) = 4 + v_p(m),
    v(x([2]R+[m][4]R)) = 0,  v(x([3]R+[m][4]R)) = 4 + v_p(m+1).  The sums'
    valuations come from their unreduced integers (:func:`_sum_vp`).
    """
    require_odd_prime(p)
    tq = _check_table_args(t, m_max)
    e = _int_vp(t * t + 1, p)
    if e == 0:
        raise ValueError(f"{p} does not divide t^2 + 1 = {t * t + 1}")
    if e > 1:
        raise ValueError(f"{p}^2 divides t^2 + 1 = {t * t + 1}; need exact division")

    base, (seed, r2, r3, r4) = _seed_multiples(tq, 4)
    rows = [
        ValuationRow(2, 0, _rat_vp(r2.x, p), "v(x([2]R))"),
        ValuationRow(3, 4, _rat_vp(r3.x, p), "v(x([3]R))"),
        ValuationRow(4, -2, _rat_vp(r4.x, p), "v(x([4]R))"),
        ValuationRow(4, -3, _rat_vp(r4.y, p), "v(y([4]R))"),
    ]
    q = INFINITY
    for m in range(1, m_max + 1):
        q = base.add_unchecked(q, r4)
        vm = _int_vp(m, p)
        rows.append(ValuationRow(m, -2 * vm - 2, _rat_vp(q.x, p), "v(x([4m]R))"))
        rows.append(ValuationRow(m, 4 + vm, _sum_vp(base, seed, q, p), "v(x(R+[m][4]R))"))
        rows.append(ValuationRow(m, 0, _sum_vp(base, r2, q, p), "v(x([2]R+[m][4]R))"))
        rows.append(
            ValuationRow(m, 4 + _int_vp(m + 1, p), _sum_vp(base, r3, q, p), "v(x([3]R+[m][4]R))")
        )
    return rows


def _sign(v: int) -> int:
    return (v > 0) - (v < 0)


def mod3_sign_table(t: int, m_max: int = DEFAULT_TABLE_MAX) -> list[ValuationRow]:
    """Signs of 3-adic valuations along multiples of [3]R.

    Predictions: v_3(x([m][3]R)) < 0, v_3(x(R+[m][3]R)) > 0 and
    v_3(x([2]R+[m][3]R)) > 0; rows carry the signs (-1 / +1), the sums'
    from their unreduced integers (:func:`_sum_vp`).
    """
    base, (seed, r2, r3) = _seed_multiples(_check_table_args(t, m_max), 3)
    rows = []
    q = INFINITY
    for m in range(1, m_max + 1):
        q = base.add_unchecked(q, r3)
        rows.append(ValuationRow(m, -1, _sign(_rat_vp(q.x, 3)), "sign v3(x([m][3]R))"))
        rows.append(ValuationRow(m, 1, _sign(_sum_vp(base, seed, q, 3)), "sign v3(x(R+[m][3]R))"))
        rows.append(ValuationRow(m, 1, _sign(_sum_vp(base, r2, q, 3)), "sign v3(x([2]R+[m][3]R))"))
    return rows


def nonsingular_residues(t: int, q: int, m_max: int = DEFAULT_TABLE_MAX) -> bool:
    """True iff no multiple [m]R, 1 <= m <= m_max, reduces to the singular
    residue x = -1 modulo the odd prime q dividing t.

    Multiples with v_q(x) < 0 reduce to the point at infinity and count as
    automatically non-congruent.
    """
    require_odd_prime(q)
    tq = _check_table_args(t, m_max)
    if t % q != 0:
        raise ValueError(f"{q} does not divide t = {t}")
    for acc in _seed_multiples(tq, m_max)[1]:
        x = acc.x
        if x == 0:
            continue
        if _rat_vp(x, q) < 0:
            continue
        if x.numerator * pow(x.denominator, -1, q) % q == q - 1:
            return False
    return True
