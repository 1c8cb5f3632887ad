"""The closed-form family proved once in Q(t), with the standard library alone.

``paramfam`` evaluates the six elements at t = p/q as ratios of two integer
forms of the same degree in (p, q).  Here the same forms are built as
polynomials, from paramfam's own tables and through the same reflections:
a factor's partner at -t is F(p, -q), and f's E factors are e's at (q, p).
The proof then shows:

- each of the 15 products + 1 is a square in Q(t): with the elements
  n_i/d_i, the form (n_i n_j + d_i d_j) d_i d_j has an exact integer root,
  which is squared back;
- the only rational zeros of the 12 numerators and denominators and of the
  15 differences n_i d_j - n_j d_i are -1, 0 and 1, the t that
  ``require_param`` rejects.

So at every other rational t the six values are defined, nonzero, distinct
and a rational Diophantine sextuple, and as a(t) is not constant the family
holds infinitely many of them.  The roots, evaluated at sampled t, must also
be the witnesses of ``family_point``'s certificate.  ``ci/check.sh`` runs
both tests under ``python -S``, so this module imports nothing but the
standard library and dioph6.
"""

from fractions import Fraction
from math import gcd, isqrt

from dioph6 import paramfam
from dioph6.paramfam import family_point

# A form of degree k in (p, q) is the list of its k + 1 coefficients, of
# p^k, p^(k-1) q, ..., q^k: the polynomial in t = p/q, highest degree first.


def _mul(*forms):
    out = [1]
    for form in forms:
        acc = [0] * (len(out) + len(form) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(form):
                acc[i + j] += a * b
        out = acc
    return out


def _add(f, g):
    assert len(f) == len(g), "forms of different degree"
    return [a + b for a, b in zip(f, g)]


def _even(coeffs):
    """A table of even powers only, as paramfam takes it: its even half."""
    assert not any(coeffs[1::2])
    return list(coeffs)


def _partner(coeffs):
    """F(p, -q): the odd powers of q change sign."""
    return [-c if i % 2 else c for i, c in enumerate(coeffs)]


def _at_qp(form):
    """F(q, p): the coefficient of p^(k-i) q^i becomes that of p^i q^(k-i)."""
    return form[::-1]


def _value(form, p, q):
    k = len(form) - 1
    return sum(c * p ** (k - i) * q**i for i, c in enumerate(form))


def family_forms():
    """The six elements as (numerator, denominator) forms of equal degree,
    built as ``paramfam._elements`` builds their integers."""
    pq, minus, plus = [0, 1, 0], [1, -1], [1, 1]  # p q, p - q, p + q
    down = list(paramfam._DOWN)
    up = _partner(down)
    core = _mul(minus, plus, down, up)
    d1a, d1c = list(paramfam._D1_FACTORS[0]), _even(paramfam._D1_FACTORS[1])
    d2 = _even(paramfam._D2_ROOT)
    quads = [list(c) for c in paramfam._EF_QUADRATICS[:2]]
    seven = _even(paramfam._EF_QUADRATICS[2])
    shared = _mul([-2], pq, *quads, *map(_partner, quads), seven, _at_qp(seven))
    e1a, e1b = _even(paramfam._E1_FACTORS[0]), list(paramfam._E1_FACTORS[1])
    e2 = _even(paramfam._E2_ROOT)
    f1a, f1b, f1c, f2 = _at_qp(e1a), _at_qp(e1b), _at_qp(_partner(e1b)), _at_qp(e2)
    return [
        (_mul([18], pq, minus, plus), _mul(down, up)),
        (_mul(minus, up, up), _mul([6], pq, plus, down)),
        (_mul(plus, down, down), _mul([6], pq, minus, up)),
        (_mul([6], core, d1a, _partner(d1a), d1c), _mul(pq, d2, d2)),
        (_mul(shared, e1a, e1b, _partner(e1b)), _mul([3], core, e2, e2)),
        (_mul(shared, f1a, f1b, f1c), _mul([3], core, f2, f2)),
    ]


def _root(form):
    """The form r with r r = form, or None: r's top coefficients are taken
    one by one from form's, and r is then squared back."""
    nonzero = [i for i, c in enumerate(form) if c]
    z, w = nonzero[0], len(form) - 1 - nonzero[-1]  # powers of q and of p
    g = form[z : len(form) - w]
    if z % 2 or w % 2 or len(g) % 2 == 0 or g[0] < 0 or isqrt(g[0]) ** 2 != g[0]:
        return None
    r = [isqrt(g[0])]
    for k in range(1, len(g) // 2 + 1):
        rest = g[k] - sum(r[i] * r[k - i] for i in range(1, k))
        if rest % (2 * r[0]):
            return None
        r.append(rest // (2 * r[0]))
    r = [0] * (z // 2) + r + [0] * (w // 2)
    return r if _mul(r, r) == form else None


def _divisors(n):
    n = abs(n)
    small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    return sorted({*small, *(n // d for d in small)})


def _rational_zeros(form):
    """Every t = p/q at which the form vanishes, as Fractions.

    Factors of q (leading zeros) have no finite zero.  The zeros 0, 1 and
    -1 are divided out; a zero a/b of what is left, in lowest terms, has a
    dividing its constant and b its leading coefficient, and (b t - a)
    divides it over the integers, so b - a divides its value at 1 and
    a + b its value at -1, which are no longer 0."""
    g = form[next(i for i, c in enumerate(form) if c) :]
    zeros = set()
    while g[-1] == 0:
        g, zeros = g[:-1], zeros | {0}
    for r in (1, -1):
        while _value(g, r, 1) == 0:
            quotient = [g[0]]
            for c in g[1:-1]:
                quotient.append(c + r * quotient[-1])
            g, zeros = quotient, zeros | {r}
    at_one, at_minus_one = _value(g, 1, 1), _value(g, -1, 1)
    for b in _divisors(g[0]):
        for a in (s * d for d in _divisors(g[-1]) for s in (1, -1)):
            if (
                gcd(a, b) == 1
                and abs(a) != b  # 1 and -1 are divided out
                and at_one % (b - a) == 0
                and at_minus_one % (a + b) == 0
                and _value(g, a, b) == 0
            ):
                zeros.add(Fraction(a, b))
    return zeros


def _pair_forms(forms):
    """(i, j, N, D) for each pair i < j (1-based), product + 1 = N/D."""
    return [
        (i + 1, j + 1, _add(_mul(ni, nj), _mul(di, dj)), _mul(di, dj))
        for i, (ni, di) in enumerate(forms)
        for j, (nj, dj) in enumerate(forms[i + 1 :], i + 1)
    ]


def test_family_is_a_sextuple_in_qt():
    forms = family_forms()
    assert all(len(n) == len(d) for n, d in forms)
    for i, j, num, den in _pair_forms(forms):
        assert _root(_mul(num, den)) is not None, (i, j)
    differences = [
        _add(_mul(ni, dj), _mul([-1], nj, di))
        for k, (ni, di) in enumerate(forms)
        for nj, dj in forms[k + 1 :]
    ]
    zeros = [_rational_zeros(form) for pair in forms for form in pair]
    zeros += [_rational_zeros(form) for form in differences]
    assert len(zeros) == 27
    assert set().union(*zeros) == {-1, 0, 1}
    # a(t) is not constant, so the family has infinitely many sextuples
    (na, da) = forms[0]
    assert _value(na, 2, 1) * _value(da, 3, 1) != _value(na, 3, 1) * _value(da, 2, 1)


def test_roots_are_the_certificate_witnesses():
    forms = family_forms()
    rows = [(i, j, num, den, _root(_mul(num, den))) for i, j, num, den in _pair_forms(forms)]
    for t in (Fraction(6), Fraction(-44, 35), Fraction(2, 9), Fraction(-7), Fraction(-(10**20) - 3, 10**19)):
        p, q = t.numerator, t.denominator
        point = family_point(t)
        assert point.elements == tuple(Fraction(_value(n, p, q), _value(d, p, q)) for n, d in forms)
        want = []
        for i, j, num, den, root in rows:
            square = Fraction(_value(num, p, q), _value(den, p, q))
            witness = abs(Fraction(_value(root, p, q), _value(den, p, q)))
            want.append((i, j, square.numerator, square.denominator, witness.numerator, witness.denominator))
        assert list(point.report.rows) == want, t
