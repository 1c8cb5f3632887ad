"""Induced curves of a Diophantine triple, extension of qualifying triples
to rational Diophantine sextuples via odd multiples of the base point, and
the universal square-certificate verifier.

All curve work happens on the monic induced model y^2 = (x+ab)(x+ac)(x+bc);
the non-monic model's coordinates are recovered by dividing x by abc at the
boundary, which is where the sextuple elements d, e, f come from.  e and f
are the x-coordinates of [2n+1]P' + S' and [2n+1]P' - S', taken together
from one x-only sum-and-difference (``Curve.add_sub_x_unchecked``).

The certificate works on the numerators and denominators of the elements:
each product + 1 comes out in lowest terms without a gcd of its own, and
its witness is the pair of exact integer square roots that
``exactnum._coprime_sqrt``, the package's one root test, gives for them.
When one element's denominator is much smaller than the largest, as a, b
and c are beside d, e and f, the rows are anchored on it: its rows come
first, and each passing one, with d_k d_j = s^2 G (s the denominator's root,
G the two cross gcds), gives every other row (i, j) its cross gcds against
a half-size G s (:func:`_gcd_times_square`) and a proposed
denominator root s_ki s_kj sqrt(G_ki G_kj G_ij) / (d_k G_ij).  Both are
exact: d_j divides G s^2, and the proposal is squared back like any other
candidate root.
The report's field is the certificate as integer rows, which the verdict
reads and the JSON form writes: a passing row's square and root with
``exactnum._format_square``, which writes the square from the root's
digits, and a failing row's product + 1 with ``exactnum._format_coprime``,
the text rule of every other rational.  A product + 1 past the
interpreter's int/str digit limit refuses the JSON form, and a sextuple's,
before any of its text is written (``exactnum._refuse_past_limit``).  The
:class:`PairWitness` objects are built from the rows on each read of
``VerificationReport.pair_results``.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from fractions import Fraction
from math import gcd, isqrt

from .errors import ConsistencyError, DegeneracyError
from .exactnum import (
    Rat,
    _as_rat,
    _coprime,
    _coprime_sqrt,
    _format_coprime,
    _format_square,
    _over_common_denominator,
    _refuse_past_limit,
    _Value,
    format_rat,
)
from .family import TripleABC
from .weierstrass import Curve, Point

#: Extension multiples [2n+1]P' beyond this are past desk scale.
DEFAULT_MAX_ODD_INDEX = 6


class PairWitness(_Value):
    """One pairwise check: elements i, j (1-based), their product + 1, and
    its square root when it exists."""

    __slots__ = _fields = ("i", "j", "product_plus_one", "square_root")
    i: int
    j: int
    product_plus_one: Rat
    square_root: Rat | None

    @property
    def ok(self) -> bool:
        return self.square_root is not None


class VerificationReport(_Value):
    """Full certificate for a candidate tuple: every pairwise product + 1
    together with its square-root witness.

    ``rows`` holds one integer row (i, j, num, den, root_num, root_den) per
    pair i < j: the product + 1 num/den and its root root_num/root_den in
    lowest terms, the root parts None when there is no root.  The verdict
    and the JSON form read the rows; ``pair_results`` builds the
    :class:`PairWitness` values from them on each read.
    """

    __slots__ = _fields = ("rows", "nonzero", "distinct")
    rows: tuple[tuple[int, int, int, int, int | None, int | None], ...]
    nonzero: bool
    distinct: bool

    @property
    def pair_results(self) -> tuple[PairWitness, ...]:
        return tuple(
            PairWitness(i, j, _coprime(num, den), None if rn is None else _coprime(rn, rd))
            for i, j, num, den, rn, rd in self.rows
        )

    @property
    def all_pass(self) -> bool:
        return self.nonzero and self.distinct and all(row[4] is not None for row in self.rows)

    @property
    def failing_pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple((row[0], row[1]) for row in self.rows if row[4] is None)

    def to_json_dict(self, elements: Sequence[Rat] | None = None) -> dict:
        rows = self.rows
        # the largest positive part of a product + 1: past the int/str digit
        # limit it refuses the certificate before any text is written (a
        # failing row's negative numerator is left to str())
        _refuse_past_limit(max([n if n > d else d for _, _, n, d, _, _ in rows], default=1))
        out: dict = {}
        if elements is not None:
            out["elements"] = [format_rat(e) for e in elements]
        out["all_pass"] = self.all_pass
        out["nonzero"] = self.nonzero
        out["distinct"] = self.distinct
        pairs = out["pairs"] = []
        for i, j, num, den, rn, rd in rows:
            if rn is None:
                square, root = _format_coprime(num, den), None
            else:
                square, root = _format_square(num, den, rn, rd)
            pairs.append({"i": i, "j": j, "product_plus_one": square, "square_root": root})
        return out


#: verify_tuple anchors the certificate on one element (:func:`_anchor`)
#: when the largest denominator has at least _ANCHOR_BITS bits and at least
#: _ANCHOR_RATIO times as many as the anchor's.  Constructed sextuples past
#: 6,000 bits have them 37x or more apart.  On regular quadruples, about 6x
#: apart, the half-size gcd does not pay, and below 6,000 bits it saves
#: under 0.4% of a construct pass (ROADMAP.md, "Measured and dropped").
_ANCHOR_BITS = 6000
_ANCHOR_RATIO = 16


def verify_tuple(elements: Iterable[Rat | int | str]) -> VerificationReport:
    """Exhaustively check the defining property of a Diophantine tuple.

    Failures are reported as data, never raised: the report carries one
    integer row per pair plus nonzero/distinct flags.
    """
    return _certify([(q.numerator, q.denominator) for q in map(_as_rat, elements)])


def _certify(parts: list[tuple[int, int]]) -> VerificationReport:
    """:func:`verify_tuple`'s report from the elements' coprime (numerator,
    denominator > 0) pairs: equal pairs are equal rationals, unhashed."""
    k = _anchor(parts)
    if k is not None:
        rows = _anchored_rows(parts, k)
    else:
        rows = []
        for i, (ni, di) in enumerate(parts, 1):
            for j, (nj, dj) in enumerate(parts[i:], i + 1):
                # cancelling g1 and g2 leaves the product in lowest terms, and
                # num/den + 1 = (num + den)/den keeps them coprime; _row's body,
                # inline so that the family rows' small tuples pay no call per row
                g1, g2 = gcd(ni, dj), gcd(nj, di)
                den = (di // g2) * (dj // g1)
                num = (ni // g1) * (nj // g2) + den
                rows.append((i, j, num, den, *(_coprime_sqrt(num, den) or (None, None))))
    return VerificationReport(
        tuple(rows), all(n != 0 for n, _ in parts), len(set(parts)) == len(parts)
    )


def _anchor(parts: list[tuple[int, int]]) -> int | None:
    """The index of the nonzero element with the smallest denominator, when
    the certificate is worth anchoring on it; else None.  (A zero anchor
    would give G s = d_j, no smaller than a direct gcd's operand.)"""
    for _, d in parts:
        if d.bit_length() >= _ANCHOR_BITS:
            break
    else:
        return None  # every small tuple leaves here: family and scan rows pay one loop
    top = max(d.bit_length() for _, d in parts)
    k = min(range(len(parts)), key=lambda i: (parts[i][0] == 0, parts[i][1].bit_length()))
    return k if top >= _ANCHOR_RATIO * parts[k][1].bit_length() else None


def _anchored_rows(parts: list[tuple[int, int]], k: int) -> list[tuple]:
    """verify_tuple's rows, with element k's rows taken first.

    A passing row (k, j) gives d_k d_j = s_kj^2 G_kj, with s_kj its
    denominator's root and G_kj its two cross gcds.  The row (i, j) then
    takes gcd(n_i, d_j) as gcd(gcd(n_i, G_kj s_kj^2), d_j), since d_j
    divides d_k d_j, and its denominator d_i d_j / G_ij is
    (s_ki s_kj / d_k)^2 G_ki G_kj / G_ij, whose root
    s_ki s_kj sqrt(G_ki G_kj G_ij) / (d_k G_ij) it proposes to
    ``_coprime_sqrt``, which squares it back."""
    nk, dk = parts[k]
    anchor = {}  # j: the row (k, j)
    roots = {}  # j: (s_kj, G_kj) of a passing row (k, j)
    for j, (nj, dj) in enumerate(parts):
        if j != k:
            g1, g2 = gcd(nk, dj), gcd(nj, dk)
            anchor[j] = row = _row(nk, dk, nj, dj, g1, g2)
            if row[2] is not None:
                roots[j] = row[3], g1 * g2
    rows = []
    for i, (ni, di) in enumerate(parts):
        for j, (nj, dj) in enumerate(parts[i + 1 :], i + 1):
            if k == i or k == j:
                row = anchor[i + j - k]
            elif i in roots and j in roots:
                (si, ci), (sj, cj) = roots[i], roots[j]
                g1 = gcd(_gcd_times_square(ni, cj, sj), dj)
                g2 = gcd(_gcd_times_square(nj, ci, si), di)
                g = g1 * g2
                row = _row(ni, di, nj, dj, g1, g2, si * sj * isqrt(ci * cj * g) // (dk * g))
            else:
                row = _row(ni, di, nj, dj, gcd(ni, dj), gcd(nj, di))
            rows.append((i + 1, j + 1, *row))
    return rows


def _gcd_times_square(n: int, c: int, s: int) -> int:
    """``gcd(n, c*s*s)`` for c, s > 0, as u * gcd(n/u, gcd(u, s)) with
    u = gcd(n, c*s): a prime p with p^a in n and p^b in c*s has
    p^min(a, b + v_p(s)) in both.  The one gcd against a full-size n takes
    c*s, of about half the size of c*s*s when c is small."""
    u = gcd(n, c * s)
    v = gcd(u, s)
    return u if v == 1 else u * gcd(n // u, v)


def _row(ni: int, di: int, nj: int, dj: int, g1: int, g2: int, den_root: int | None = None):
    """(num, den, root_num, root_den) of ni/di * nj/dj + 1, given the cross
    gcds g1 = gcd(ni, dj) and g2 = gcd(nj, di)."""
    den = (di // g2) * (dj // g1)
    num = (ni // g1) * (nj // g2) + den
    return num, den, *(_coprime_sqrt(num, den, den_root) or (None, None))


# ---------------------------------------------------------------------------
# the induced curve and its marked points
# ---------------------------------------------------------------------------

def _coerced(a, b, c) -> tuple[Rat, Rat, Rat]:
    return _as_rat(a), _as_rat(b), _as_rat(c)


def induced_curve(a, b, c) -> Curve:
    """Monic induced curve y^2 = (x + ab)(x + ac)(x + bc) of a triple, that is
    y^2 = x^3 + sigma2 x^2 + sigma1 sigma3 x + sigma3^2.

    With the elements over their least common denominator, a = na/den and
    so on, the coefficients are integers over den^2, den^4 and den^6, and
    the pair products are na nb, na nc and nb nc over den^2.
    """
    a, b, c = _coerced(a, b, c)
    den, na, nb, nc = _over_common_denominator(a, b, c)
    if 0 in (na, nb, nc):
        raise ValueError("induced curve needs nonzero elements")
    ab, ac, bc = na * nb, na * nc, nb * nc
    if ab == ac or ab == bc or ac == bc:
        raise ValueError(
            f"induced curve of ({a}, {b}, {c}) is singular: repeated pair product"
        )
    s3 = ab * nc
    dd = den * den
    # sigma3^2 in lowest terms from sigma3 = s3/den^3 in lowest terms
    g = gcd(s3, dd * den)
    n3, d3 = s3 // g, dd * den // g
    return Curve(
        Fraction(ab + ac + bc, dd),
        Fraction(s3 * (na + nb + nc), dd * dd),
        _coprime(n3 * n3, d3 * d3),
    )


def point_Pprime(a, b, c) -> Point:
    """The base point [0, abc] used for extension multiples."""
    a, b, c = _coerced(a, b, c)
    return Point(Fraction(0), a * b * c)


# ---------------------------------------------------------------------------
# sextuple extension
# ---------------------------------------------------------------------------

class SextupleRecord(_Value):
    """A constructed sextuple with provenance and its full certificate."""

    __slots__ = _fields = ("t", "m", "n", "triple", "d", "e", "f", "report")
    t: Rat | None
    m: int | None
    n: int
    triple: TripleABC
    d: Rat
    e: Rat
    f: Rat
    report: VerificationReport

    def __init__(self, *args, **kwargs) -> None:
        _Value.__init__(self, *args, **kwargs)
        if not self.report.all_pass:
            raise ValueError("sextuple record requires a passing certificate")

    @property
    def elements(self) -> tuple[Rat, ...]:
        return (*self.triple.elements, self.d, self.e, self.f)

    def to_json_dict(self, route: str | None = None) -> dict:
        # the certificate first: it refuses before any text is written
        verification = self.report.to_json_dict()
        out: dict = {
            "t": None if self.t is None else format_rat(self.t),
            "m": self.m,
            "n": self.n,
        }
        if route is not None:
            out["route"] = route
        triple = self.triple.to_json_dict()
        d, e, f = (format_rat(x) for x in (self.d, self.e, self.f))
        out["elements"] = [triple["a"], triple["b"], triple["c"], d, e, f]
        out["triple"] = triple
        out["d"] = d
        out["e"] = e
        out["f"] = f
        out["verification"] = verification
        return out


def extend_to_sextuple(triple: TripleABC, n: int) -> SextupleRecord:
    """Extend an order-3 triple to a sextuple via the odd multiple [2n+1]P'.

    d, e, f are x([2n+1]P')/abc, x([2n+1]P'+S')/abc, x([2n+1]P'-S')/abc.
    S' comes from the triple's witnesses, and its order 3 is the condition
    :class:`TripleABC` certifies, so no group-law check repeats it.
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
    base = point_Pprime(a, b, c)
    abc = base.y
    # S' = [1, rho_ab rho_ac rho_bc] (a negated root swaps S' and -S') has
    # y^2 = f(1) = (1 + ab)(1 + ac)(1 + bc), so it is on the curve.  With
    # f(1) = 1 + s2 + s1 s3 + s3^2 and f'(1) = 3 + 2 s2 + s1 s3, the tangent
    # rule gives x([2]S') = f'(1)^2/(4 f(1)) - s2 - 2, and f'(1)^2 -
    # 4 f(1)(s2 + 3) is minus the order-3 polynomial TripleABC checked: so
    # x([2]S') = 1 and [3]S' = O.  (f(1) = 0 needs a pair product -1, and the
    # polynomial is then -f'(1)^2, zero only at a repeated pair product.)
    # [2n+1]P' comes out of the group law: the sums skip membership checks
    marked = Point(Fraction(1), triple.rho_ab * triple.rho_ac * triple.rho_bc)
    center = curve.mul(2 * n + 1, base)
    xs = (center.x, *curve.add_sub_x_unchecked(center, marked))
    for name, x in zip((f"[{2*n+1}]P'", f"[{2*n+1}]P'+S'", f"[{2*n+1}]P'-S'"), xs):
        if x is None:
            raise DegeneracyError(f"{name} is the point at infinity")
        if x == 0:
            raise DegeneracyError(f"{name} coincides with +-P' (x = 0)")
    d, e, f = (x / abc for x in xs)
    elements = (a, b, c, d, e, f)
    report = verify_tuple(elements)
    if not report.distinct:
        raise DegeneracyError(
            f"extension of ({a}, {b}, {c}) with n = {n} repeats an element"
        )
    if not report.all_pass:
        raise ConsistencyError(
            f"certificate failed for ({a}, {b}, {c}) extended with n = {n}: "
            f"pairs {report.failing_pairs}"
        )
    return SextupleRecord(triple.t, triple.m, n, triple, d, e, f, report)
