import contextlib
import functools
import itertools
import json
import math
import pickle
import random
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from dioph6 import family, sextuple_engine
from dioph6.errors import DegeneracyError
from dioph6.exactnum import format_rat, sqrt_exact
from dioph6.family import triple_from_multiple
from dioph6.paramfam import family_triple
from dioph6.identities import (
    half_point_check,
    order3_check,
    point_half,
    point_Sprime,
    square_product_check,
    three_torsion_condition,
)
from dioph6.sextuple_engine import (
    PairWitness,
    VerificationReport,
    extend_to_sextuple,
    induced_curve,
    point_Pprime,
    verify_tuple,
)
from dioph6.weierstrass import Curve, INFINITY, Point

GIBBS = (F(11, 192), F(35, 192), F(155, 27), F(512, 27), F(1235, 48), F(180873, 16))
DIOPHANTUS = (F(1, 16), F(33, 16), F(17, 4), F(105, 16))
EULER = (F(1), F(3), F(8), F(120), F(777480, 8288641))


# ---------------------------------------------------------------------------
# verify_tuple
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("elements", [GIBBS, DIOPHANTUS, EULER])
def test_verify_catalog_examples(elements):
    report = verify_tuple(elements)
    assert report.all_pass
    for witness in report.pair_results:
        assert witness.square_root is not None
        assert witness.square_root**2 == witness.product_plus_one


def test_verify_failure_names_pair():
    report = verify_tuple([1, 2, 3])
    assert not report.all_pass
    assert (1, 2) in report.failing_pairs  # 1*2 + 1 = 3 is not a square


def test_verify_symmetry_properties():
    rng = random.Random(5)
    base = list(GIBBS)
    for _ in range(5):
        perm = base[:]
        rng.shuffle(perm)
        assert verify_tuple(perm).all_pass
    negated = [-e for e in base]
    assert verify_tuple(negated).all_pass
    # permutation/negation invariance also preserves failures
    assert not verify_tuple([-1, -2, -3]).all_pass


def test_dioph_tuple_validation():
    gibbs = verify_tuple(GIBBS)
    assert gibbs.nonzero and gibbs.distinct
    with_zero = verify_tuple((F(1), F(0)))
    assert not with_zero.nonzero and with_zero.distinct and not with_zero.all_pass
    repeated = verify_tuple((F(1), F(1)))
    assert repeated.nonzero and not repeated.distinct and not repeated.all_pass


def _reference_verify_tuple(elements):
    """The earlier verify_tuple body, kept verbatim as the reference: it
    multiplies Fractions and takes each root with sqrt_exact.  Its
    witnesses become the report's rows at the end."""
    els = [F(e) for e in elements]
    pairs = []
    for i in range(len(els)):
        for j in range(i + 1, len(els)):
            value = els[i] * els[j] + 1
            pairs.append(PairWitness(i + 1, j + 1, value, sqrt_exact(value)))
    return VerificationReport(
        rows=tuple(_witness_row(w) for w in pairs),
        nonzero=all(e != 0 for e in els),
        distinct=len(set(els)) == len(els),
    )


def _witness_row(w):
    q, r = w.product_plus_one, w.square_root
    root = (None, None) if r is None else (r.numerator, r.denominator)
    return (w.i, w.j, q.numerator, q.denominator, *root)


@functools.cache
def _real_tuples():
    """Diophantine tuples from the catalog and from the construction; the
    last has numerators and denominators of about 2,100 digits."""
    data = Path(__file__).parent / "data" / "sextuple_t-9_8_m5_n4.json"
    large = tuple(F(e) for e in json.loads(data.read_text()))
    largest = extend_to_sextuple(triple_from_multiple(F(-9, 8), 6), 4).elements
    return GIBBS, DIOPHANTUS, EULER, large, largest


SMALL = st.fractions(min_value=-60, max_value=60, max_denominator=60)
#: up to 2,000 more digits on each side: scaled elements of about 4,000 digits
BIG = st.integers(1, 10**2000)


@st.composite
def certificate_inputs(draw):
    """Real tuples, subsets, scaled or perturbed copies and small random
    tuples, with zeros, repeats and partners -1/x mixed in, each element
    passed as a Fraction, as text, or as an int when it is integral."""
    if draw(st.booleans()):
        els = list(draw(st.sampled_from(_real_tuples())))
        els = draw(st.permutations(els))[: draw(st.integers(1, len(els)))]
    else:
        els = draw(st.lists(SMALL, max_size=6))
    if draw(st.booleans()):
        scale = F(draw(BIG), draw(BIG)) * draw(st.sampled_from((1, -1)))
        els = [e * scale for e in els]
    if els and draw(st.booleans()):
        k = draw(st.integers(0, len(els) - 1))
        els[k] += draw(SMALL)
    for kind in draw(st.lists(st.sampled_from(("zero", "repeat", "partner")), max_size=3)):
        if kind == "zero" or not els:
            extra = F(0)
        else:
            x = draw(st.sampled_from(els))
            extra = x if kind == "repeat" or x == 0 else -1 / x
        els.insert(draw(st.integers(0, len(els))), extra)
    out = []
    for e in els:
        form = draw(st.sampled_from(("fraction", "text", "int")))
        if form == "text":
            out.append(str(e))
        elif form == "int" and e.denominator == 1:
            out.append(int(e))
        else:
            out.append(e)
    return out


def _canonical_parts(q):
    assert type(q) is F
    assert q.denominator > 0 and math.gcd(q.numerator, q.denominator) == 1
    return q.numerator, q.denominator


@contextlib.contextmanager
def _anchored(on=True):
    """With ``on``, every nonempty tuple anchors its certificate (the
    crossover at 0); without it, none does."""
    saved = sextuple_engine._ANCHOR_BITS, sextuple_engine._ANCHOR_RATIO
    sextuple_engine._ANCHOR_BITS, sextuple_engine._ANCHOR_RATIO = (0, 0) if on else (math.inf, 0)
    try:
        yield
    finally:
        sextuple_engine._ANCHOR_BITS, sextuple_engine._ANCHOR_RATIO = saved


#: each certificate test runs on the rows as built by default, by the loop
#: over all pairs, and anchored on the nonzero element of least denominator
PATHS = (contextlib.nullcontext, functools.partial(_anchored, False), _anchored)


@settings(max_examples=200, deadline=None)
@given(certificate_inputs())
def test_verify_tuple_matches_reference(elements):
    want = _reference_verify_tuple(elements)
    for path in PATHS:
        with path():
            got = verify_tuple(elements)
        assert (got.all_pass, got.nonzero, got.distinct) == (
            want.all_pass,
            want.nonzero,
            want.distinct,
        )
        assert len(got.pair_results) == len(want.pair_results)
        for g, w in zip(got.pair_results, want.pair_results):
            assert (g.i, g.j) == (w.i, w.j)
            assert _canonical_parts(g.product_plus_one) == _canonical_parts(w.product_plus_one)
            if w.square_root is None:
                assert g.square_root is None
            else:
                assert _canonical_parts(g.square_root) == _canonical_parts(w.square_root)


@contextlib.contextmanager
def _counted_witnesses():
    """Record the (i, j) of every PairWitness built inside the block."""
    built = []
    init = PairWitness.__init__

    def counted(self, *args):
        built.append(args[:2])
        init(self, *args)

    PairWitness.__init__ = counted
    try:
        yield built
    finally:
        del PairWitness.__init__


def _json_outcome(build):
    """The JSON dict that ``build()`` returns, or the text of the ValueError
    it raises (a product + 1 past the int-to-text digit limit)."""
    try:
        return build()
    except ValueError as exc:
        return str(exc)


def _reference_json(report, elements):
    """The certificate's JSON form, built from the witnesses with format_rat."""
    out = {"elements": [format_rat(e) for e in elements]}
    out["all_pass"] = report.nonzero and report.distinct and all(w.ok for w in report.pair_results)
    out["nonzero"] = report.nonzero
    out["distinct"] = report.distinct
    out["pairs"] = [
        {
            "i": w.i,
            "j": w.j,
            "product_plus_one": format_rat(w.product_plus_one),
            "square_root": None if w.square_root is None else format_rat(w.square_root),
        }
        for w in report.pair_results
    ]
    return out


@settings(max_examples=100, deadline=None)
@given(certificate_inputs())
# 1 * x + 1 = 10^102 / (10^101 + 1): a square numerator over a large non-square
@example([1, F(10**102 - 10**101 - 1, 10**101 + 1)])
def test_certificate_rows_match_reference_witnesses(elements):
    """The verdict and the JSON form of a report whose witnesses were never
    built agree with the reference witnesses, and such a report compares,
    hashes and pickles like the report built from those witnesses."""
    want = _reference_verify_tuple(elements)
    for path in PATHS:
        with path(), _counted_witnesses() as built:
            fresh = verify_tuple(elements)
            all_pass, failing, got_json = (
                fresh.all_pass,
                fresh.failing_pairs,
                _json_outcome(lambda: fresh.to_json_dict(elements)),
            )
        assert built == []  # nothing above built a witness
        assert all_pass == (
            want.nonzero and want.distinct and all(w.ok for w in want.pair_results)
        )
        assert failing == tuple((w.i, w.j) for w in want.pair_results if not w.ok)
        assert got_json == _json_outcome(lambda: _reference_json(want, elements))
        with _counted_witnesses() as built:
            first, second = fresh.pair_results, fresh.pair_results
        # each read builds one witness per row
        assert first == second == want.pair_results
        assert built == [row[:2] for row in fresh.rows] * 2

        with path():
            assert verify_tuple(elements) == want
            assert hash(verify_tuple(elements)) == hash(want)
            twin = pickle.loads(pickle.dumps(verify_tuple(elements)))
        assert twin == want and hash(twin) == hash(want)
        assert all(type(w) is PairWitness for w in twin.pair_results)


@st.composite
def triples_with_strays(draw):
    """The Diophantine triple {k - 1, k + 1, 4k} for a rational k of up to
    2,200 digits a side, whose three products + 1 are the squares k^2,
    (2k - 1)^2 and (2k + 1)^2, shuffled among up to three other elements."""
    part = st.integers(0, 2200).flatmap(lambda d: st.integers(1, 10**d))
    k = F(draw(part), draw(part)) * draw(st.sampled_from((1, -1)))
    strays = draw(st.lists(st.one_of(SMALL, st.builds(F, part, part)), max_size=3))
    return draw(st.permutations([k - 1, k + 1, 4 * k, *strays]))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(triples_with_strays())
# k = 10^2160 + 3: the square k^2 of 4,321 digits is past the default limit
@example([F(10**2160 + 2), F(10**2160 + 4), F(4 * 10**2160 + 12), F(1, 3)])
def test_certificate_json_matches_row_text(elements):
    """Passing rows, whose squares are written from their roots, and failing
    rows print as ``format_rat`` writes each witness, or refuse alike."""
    report = verify_tuple(elements)
    assert sum(row[4] is not None for row in report.rows) >= 3
    assert _json_outcome(lambda: report.to_json_dict(elements)) == _json_outcome(
        lambda: _reference_json(report, elements)
    )


_WIDE_TRIPLE = [F(10**2160 + 2), F(10**2160 + 4), F(4 * 10**2160 + 12)]
#: (1 - D)/D * (1 + D)/D + 1 = 1/D^2: only the denominator is past the limit
_WIDE_DENOMINATOR = [F(1 - 10**2200, 10**2200), F(1 + 10**2200, 10**2200)]


@pytest.mark.parametrize(
    "build, args",
    [
        # a certificate row past the limit, with elements of up to 2,161 digits
        (lambda: verify_tuple(_WIDE_TRIPLE), (_WIDE_TRIPLE,)),
        (lambda: verify_tuple(_WIDE_DENOMINATOR), (_WIDE_DENOMINATOR,)),
        # a cell in the caps whose elements are within the limit but whose
        # certificate is not (ROADMAP item 1)
        (lambda: extend_to_sextuple(triple_from_multiple(F(6), 8), 5), ("isogeny",)),
    ],
    ids=["verify", "verify-denominator", "generate"],
)
def test_square_past_the_limit_refuses_before_any_text(monkeypatch, build, args):
    """A certificate square past the int/str digit limit refuses the JSON
    form with ``str()``'s own error before any rational is written."""
    limit = sys.get_int_max_str_digits()
    if not limit:
        pytest.skip("no int/str digit limit in this interpreter")
    value = build()
    with pytest.raises(ValueError) as want:
        str(10**limit)
    written = []
    for module, name in [
        (sextuple_engine, "format_rat"),
        (sextuple_engine, "_format_coprime"),
        (sextuple_engine, "_format_square"),
        (family, "format_rat"),
    ]:
        monkeypatch.setattr(module, name, lambda *_, name=name: written.append(name))
    with pytest.raises(ValueError) as got:
        value.to_json_dict(*args)
    assert str(got.value) == str(want.value)
    assert written == []


def test_verify_tuple_reference_cases():
    # a zero, a repeat and the products + 1 that are 0 (x * y = -1)
    report = verify_tuple([2, "-1/2", 0, F(2)])
    assert (report.nonzero, report.distinct, report.all_pass) == (False, False, False)
    values = [(w.product_plus_one, w.square_root) for w in report.pair_results]
    assert values == [(0, 0), (1, 1), (5, None), (1, 1), (0, 0), (1, 1)]
    for elements in ([F(-3, 7), F(7, 3)], [0, 0], _real_tuples()[4]):
        assert verify_tuple(elements) == _reference_verify_tuple(elements)


def _parts(elements):
    return [(F(e).numerator, F(e).denominator) for e in elements]


def _regular_quadruple(a, r):
    """{a, b, c, d} from ab + 1 = r^2: c = a + b + 2r and
    d = a + b + c + 2abc + 2rst with s = a + r and t = b + r."""
    b = (r * r - 1) / a
    c = a + b + 2 * r
    return [a, b, c, a + b + c + 2 * a * b * c + 2 * r * (a + r) * (b + r)]


def test_only_tuples_with_a_much_smaller_denominator_are_anchored():
    """The sextuple at (-9/8, 6, 4) anchors on one of a, b, c (parts of
    about 120 bits against 7,078); the one at (-9/8, 5, 4) is below
    _ANCHOR_BITS, and a regular quadruple of about 4,000 digits, whose
    denominators are 6x apart in size, is below _ANCHOR_RATIO."""
    assert sextuple_engine._anchor(_parts(_real_tuples()[4])) in (0, 1, 2)
    assert sextuple_engine._anchor(_parts(_real_tuples()[3])) is None
    quadruple = _regular_quadruple(F(3**1200 + 1, 7**680), F(5**820, 3**1190 + 2))
    assert verify_tuple(quadruple).all_pass
    parts = _parts(quadruple)
    assert max(d for _, d in parts).bit_length() >= sextuple_engine._ANCHOR_BITS
    assert sextuple_engine._anchor(parts) is None
    assert sextuple_engine._anchor(_parts(GIBBS)) is None
    assert sextuple_engine._anchor([]) is None


#: prime powers that n, c and s share or not
_prime_powers = st.lists(st.sampled_from([1, 2, 3, 4, 8, 9, 27, 5, 25, 7, 11]), max_size=5)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(-(10**30), 10**30),
    st.integers(1, 10**20),
    st.integers(1, 10**20),
    _prime_powers,
    _prime_powers,
    _prime_powers,
)
@example(0, 1, 1, [], [], [])
@example(0, 3, 4, [], [], [])
@example(-(2**10), 2, 2**3, [], [], [])
def test_gcd_times_square_matches_math_gcd(n, c, s, pn, pc, ps):
    n *= math.prod(pn)
    c *= math.prod(pc)
    s *= math.prod(ps)
    assert sextuple_engine._gcd_times_square(n, c, s) == math.gcd(n, c * s * s)


def _bent(elements, k):
    return [e + 1 if i == k else e for i, e in enumerate(elements)]


@pytest.mark.parametrize(
    "change", [None, lambda s: s + 1, lambda s: None], ids=["exact", "off-by-one", "missing"]
)
def test_a_derived_denominator_root_is_never_trusted_unsquared(monkeypatch, change):
    """An anchored certificate proposes the denominator root of each row off
    the anchor; a proposal that is off by one, or missing, changes no row,
    because the root test squares every proposal back and otherwise takes
    the root itself.  Copies with the anchor, or another element, bent
    fail the rows through it and take those rows' roots directly."""
    sextuple = _real_tuples()[4]
    k = sextuple_engine._anchor(_parts(sextuple))
    proposed = []
    row = sextuple_engine._row

    def patched(*args):
        if len(args) == 7:
            proposed.append(args[6])
            if change is not None:
                args = (*args[:6], change(args[6]))
        return row(*args)

    monkeypatch.setattr(sextuple_engine, "_row", patched)
    report = verify_tuple(sextuple)
    assert report == _reference_verify_tuple(sextuple) and report.all_pass
    # the 10 rows off the anchor had a proposal, and it was their root
    assert proposed == [r[5] for r in report.rows if k + 1 not in r[:2]]
    for elements in (_bent(sextuple, k), _bent(sextuple, 5)):
        assert verify_tuple(elements) == _reference_verify_tuple(elements)


# ---------------------------------------------------------------------------
# induced curve and marked points
# ---------------------------------------------------------------------------

def test_induced_curve_t2(t2_triple):
    a, b, c = t2_triple.elements
    curve = induced_curve(a, b, c)
    assert curve.contains(Point(0, F(3, 4)))  # x = 0 gives y^2 = (abc)^2
    # oracle: (1 + 51/49)(1 - 189/289)(1 - 119/144) = (500/1428)^2
    lhs = (1 + F(51, 49)) * (1 - F(189, 289)) * (1 - F(119, 144))
    assert lhs == F(500, 1428) ** 2
    assert curve.contains(Point(1, F(125, 357)))


def test_induced_curve_rejects_degenerate():
    with pytest.raises(ValueError):
        induced_curve(1, 1, 2)
    with pytest.raises(ValueError):
        induced_curve(0, 3, 8)


def test_marked_points_t2(t2_triple):
    a, b, c = t2_triple.elements
    assert point_Pprime(a, b, c) == Point(0, F(3, 4))  # abc = sigma3(2)
    # oracle: (10/7)(10/17)(5/12) = 125/357
    assert F(10, 7) * F(10, 17) * F(5, 12) == F(125, 357)
    assert point_Sprime(a, b, c) == Point(1, F(125, 357))


def test_Sprime_rejects_non_diophantine():
    with pytest.raises(ValueError):
        point_Sprime(1, 2, 3)  # 1*2 + 1 is not a square


# ---------------------------------------------------------------------------
# order-3 and half-point checks
# ---------------------------------------------------------------------------

def test_order3_fixtures(t6_triple):
    assert order3_check(*t6_triple.elements)
    assert not order3_check(1, 3, 8)


def test_order3_agrees_with_polynomial_condition():
    rng = random.Random(11)
    pool = [F(n, d) for n in range(-8, 9) for d in (1, 2, 3)]
    pool = [t for t in pool if t not in (-1, 0, 1)]
    seen = 0
    while seen < 50:
        t = rng.choice(pool)
        m = rng.randint(2, 3)
        tri = triple_from_multiple(t, m)
        assert order3_check(*tri.elements) == three_torsion_condition(*tri.elements)
        assert order3_check(*tri.elements)
        seen += 1
    # and on a triple that fails the polynomial
    assert not three_torsion_condition(1, 3, 8)
    assert order3_check(1, 3, 8) == three_torsion_condition(1, 3, 8)


def _order3_polynomial(s1, s2, s3):
    return s3 * s3 * (12 + 4 * s2 - s1 * s1) + 6 * s1 * s3 + 4 * s2 + 3


def test_order3_condition_is_the_tangent_rule_at_Sprime():
    # extend_to_sextuple trusts S' = [1, rho_ab rho_ac rho_bc] to have order
    # 3.  On y^2 = f(x) = x^3 + s2 x^2 + s1 s3 x + s3^2 the tangent at S'
    # gives x([2]S') = f'(1)^2/(4 f(1)) - s2 - 2, which is x(S') = 1 exactly
    # when f'(1)^2 - 4 f(1)(s2 + 3) = 0.  That polynomial is minus the
    # order-3 polynomial: both sides have degree at most 2 in each of s1, s2
    # and s3, so agreeing on a 4 x 4 x 4 grid proves it
    for s1, s2, s3 in itertools.product(range(-1, 3), repeat=3):
        f1 = 1 + s2 + s1 * s3 + s3 * s3
        df1 = 3 + 2 * s2 + s1 * s3
        assert df1 * df1 - 4 * f1 * (s2 + 3) == -_order3_polynomial(s1, s2, s3)
    # ... and TripleABC's constructor checks den^8 times it
    rng = random.Random(3)
    for _ in range(200):
        den = rng.randint(1, 10**6)
        na, nb, nc = (rng.randint(-(10**9), 10**9) for _ in range(3))
        s1, s2, s3 = F(na + nb + nc, den), F(na * nb + na * nc + nb * nc, den**2), F(na * nb * nc, den**3)
        assert family._order3(den, na, nb, nc) == den**8 * _order3_polynomial(s1, s2, s3)


@settings(max_examples=50, deadline=None)
@given(st.integers(-1000, 1000), st.integers(1, 100), st.integers(2, 5))
@example(6, 1, 2)
@example(-44, 35, 3)
def test_Sprime_of_every_triple_has_order_3(p, q, m):
    # the group-law check that extend_to_sextuple leaves to TripleABC's
    # constructor, on the triples of both routes
    t = F(p, q)
    assume(t not in (-1, 0, 1))
    triples = [family_triple(t)]
    with contextlib.suppress(DegeneracyError):
        triples.append(triple_from_multiple(t, m))
    for triple in triples:
        curve = induced_curve(*triple.elements)
        marked = Point(F(1), triple.rho_ab * triple.rho_ac * triple.rho_bc)
        assert curve.contains(marked)
        assert curve.mul(3, marked) == INFINITY


def test_extend_runs_one_group_law_multiple(monkeypatch, t2_triple):
    # S' is trusted: [2n+1]P' is the one multiple an extension computes
    calls = []
    mul = Curve.mul
    monkeypatch.setattr(Curve, "mul", lambda self, k, pt: calls.append(k) or mul(self, k, pt))
    for n in (1, 2):
        extend_to_sextuple(t2_triple, n)
    assert calls == [3, 5]


def test_half_point_fixtures(t2_triple, t6_triple):
    assert half_point_check(*t2_triple.elements)
    assert half_point_check(*t6_triple.elements)
    assert half_point_check(F(11, 192), F(35, 192), F(155, 27))  # Gibbs triple


def test_half_point_is_on_curve(t2_triple):
    a, b, c = t2_triple.elements
    curve = induced_curve(a, b, c)
    half = point_half(a, b, c)
    assert curve.contains(half)
    assert curve.mul(2, half) == point_Sprime(a, b, c)


# ---------------------------------------------------------------------------
# square-product identity
# ---------------------------------------------------------------------------

def test_square_product_examples(t2_triple):
    a, b, c = t2_triple.elements
    curve = induced_curve(a, b, c)
    base = point_Pprime(a, b, c)
    value, square = square_product_check(curve, base, base)
    assert square
    # with one argument the marked point (x = 1), the value reproduces the
    # pairwise pattern (abc)^2 (d * e + 1) for the extension elements
    abc = a * b * c
    center = curve.mul(3, base)
    marked = point_Sprime(a, b, c)
    value, square = square_product_check(curve, center, marked)
    assert square
    d = center.x / abc
    e = curve.add(center, marked).x / abc
    assert value == abc**2 * (d * e + 1)


def test_square_product_rejects_nonsquare_a6():
    remark = Curve(0, 1512, 33588)  # a6 = 33588 is not a square
    gen = Point(-11, 125)
    with pytest.raises(ValueError):
        square_product_check(remark, gen, gen)


def test_square_product_rejects_infinity(t2_triple):
    a, b, c = t2_triple.elements
    curve = induced_curve(a, b, c)
    base = point_Pprime(a, b, c)
    with pytest.raises(ValueError):
        square_product_check(curve, base, INFINITY)
    with pytest.raises(ValueError):
        square_product_check(curve, base, -base)  # sum at infinity


def test_square_product_random_pairs():
    rng = random.Random(33)
    checked = 0
    for t in (F(2), F(3), F(6)):
        tri = triple_from_multiple(t, 2)
        a, b, c = tri.elements
        curve = induced_curve(a, b, c)
        base = point_Pprime(a, b, c)
        marked = point_Sprime(a, b, c)
        pool = []
        for i in range(-3, 4):
            for j in range(3):
                q = curve.add(curve.mul(i, base), curve.mul(j, marked))
                if not q.is_infinity:
                    pool.append(q)
        for _ in range(12):
            q, r = rng.choice(pool), rng.choice(pool)
            if curve.add(q, r).is_infinity:
                continue
            _, square = square_product_check(curve, q, r)
            assert square
            checked += 1
    assert checked >= 30


# ---------------------------------------------------------------------------
# sextuple extension
# ---------------------------------------------------------------------------

def test_extend_t6_reproduces_printed(t6_triple, t6_printed):
    record = extend_to_sextuple(t6_triple, 1)
    assert sorted(record.elements) == sorted(t6_printed)
    assert record.d == F(791361752602550684660, 1827893092234556692801)
    assert record.report.all_pass
    assert len(record.report.pair_results) == 15


def test_extend_t2_passes(t2_triple):
    record = extend_to_sextuple(t2_triple, 1)
    assert record.report.all_pass
    assert record.n == 1 and record.m == 2 and record.t == 2


@pytest.mark.parametrize("t", [F(6), F(-9, 8)])
@pytest.mark.parametrize("m, n", [(2, 1), (5, 3), (8, 6)])
def test_extend_matches_public_group_law(t, m, n):
    # e and f come from x-only sums; the full checked group law must agree
    triple = triple_from_multiple(t, m)
    record = extend_to_sextuple(triple, n)
    a, b, c = triple.elements
    abc = a * b * c
    curve = induced_curve(a, b, c)
    center = curve.mul(2 * n + 1, point_Pprime(a, b, c))
    marked = point_Sprime(a, b, c)
    assert record.d == center.x / abc
    assert record.e == curve.add(center, marked).x / abc
    assert record.f == curve.add(center, -marked).x / abc


def test_extend_rejects_degenerate_n(t2_triple):
    with pytest.raises(DegeneracyError):
        extend_to_sextuple(t2_triple, 0)  # x([1]P') = 0 would give d = 0
    with pytest.raises(ValueError):
        extend_to_sextuple(t2_triple, 99)


def test_extend_refuses_repeated_elements_from_the_certificate(monkeypatch, t2_triple):
    # make x([3]P' + S') = x([3]P' - S') = x([3]P'), so that d = e = f
    monkeypatch.setattr(
        Curve, "add_sub_x_unchecked", lambda self, center, marked: (center.x, center.x)
    )
    a, b, c = t2_triple.elements
    with pytest.raises(DegeneracyError) as info:
        extend_to_sextuple(t2_triple, 1)
    assert str(info.value) == f"extension of ({a}, {b}, {c}) with n = 1 repeats an element"


def test_extend_requires_order3():
    # a Diophantine triple without the order-3 property cannot extend
    roots = [sqrt_exact(p + 1) for p in (F(3), F(8), F(24))]
    assert None not in roots
    import dioph6.family as fam

    with pytest.raises(ValueError):
        tri = fam.TripleABC(1, 3, 8, *roots)  # constructor already refuses
    # going through the engine directly also refuses
    assert not order3_check(1, 3, 8)


def test_construction_soundness_random():
    rng = random.Random(77)
    pool = [F(n, d) for n in range(-7, 8) for d in (1, 2, 3)]
    pool = [t for t in pool if t not in (-1, 0, 1)]
    done = 0
    while done < 6:
        t = rng.choice(pool)
        m = rng.randint(2, 4)
        n = rng.randint(1, 3)
        tri = triple_from_multiple(t, m)
        try:
            record = extend_to_sextuple(tri, n)
        except DegeneracyError:
            continue  # legitimate degenerate configuration, not a bug
        assert verify_tuple(record.elements).all_pass
        done += 1
