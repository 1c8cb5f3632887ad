"""Independent output oracle for the dioph6 benchmark.

Nothing here imports dioph6.  Square claims are re-derived with
``math.isqrt``, curve points with a separate chord-and-tangent group law,
and reduction types from the textbook invariants of the two-torsion model.
Golden strings and the catalog are pinned as data.

Every check takes the operation (its inputs and expectations) and the
exit code and stdout of ``dioph6.cli.main`` and returns ``None`` when the
output is right, or a one-line description of the first disagreement.
Integers are parsed, never printed, so that a number past CPython's
4300-digit conversion limit can only reach the oracle through a program
output, which would already have failed.
"""

from __future__ import annotations

import functools
import json
import math
import re
import sys
from fractions import Fraction

T6_ELEMENTS = (
    "3780/73",
    "26645/252",
    "7/13140",
    "791361752602550684660/1827893092234556692801",
    "95104852709815809228981184/351041911654651335633266955",
    "3210891270762333567521084544/21712719223923581005355",
)

CATALOG = (
    ("diophantus", ("1/16", "33/16", "17/4", "105/16")),
    ("fermat", ("1", "3", "8", "120")),
    ("euler", ("1", "3", "8", "120", "777480/8288641")),
    ("gibbs", ("11/192", "35/192", "155/27", "512/27", "1235/48", "180873/16")),
    ("family-t6", T6_ELEMENTS),
    (
        "product34-triple",
        (
            "36534805866201747/2323780774755404",
            "1065197767305747/13609226201091404",
            "3802080647508196/6238332600753747",
        ),
    ),
    (
        "product34-sextuple",
        (
            "36534805866201747/2323780774755404",
            "1065197767305747/13609226201091404",
            "3802080647508196/6238332600753747",
            "143947705777192337861060209232361164451/159554724645105598216911731751641945996",
            "27566706033755538837165550223247346480484/28811406145997336392588207503703089363",
            "5959833363761715860447368794188813530156/3132578990197106752312648160330628526617",
        ),
    ),
)

#: Points of the README reduction fixtures and the additive primes there.
T31_POINT = (Fraction(-150072), Fraction(682327360))
T31_ADDITIVE = [13, 31, 37]
T17_POINT = (Fraction(35000), Fraction(40986000))

_CANONICAL = re.compile(r"-?(0|[1-9][0-9]*)(/[1-9][0-9]*)?")


class Mismatch(Exception):
    """The program's output disagrees with the oracle."""


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise Mismatch(what)


def parse(text) -> Fraction:
    """Parse a canonical ``num/den`` string, rejecting any other spelling."""
    _require(isinstance(text, str) and _CANONICAL.fullmatch(text) is not None,
             f"not a canonical rational: {str(text)[:40]!r}")
    if text == "-0":
        raise Mismatch("negative zero")
    if "/" in text:
        num, den = text.split("/")
        num, den = int(num), int(den)
        _require(den > 1 and math.gcd(num, den) == 1, f"not in lowest terms: {text[:40]}")
        return Fraction(num, den)
    return Fraction(int(text))


def sqrt_rat(q: Fraction) -> Fraction | None:
    """The nonnegative rational square root of q, or None."""
    if q < 0:
        return None
    num, den = math.isqrt(q.numerator), math.isqrt(q.denominator)
    if num * num != q.numerator or den * den != q.denominator:
        return None
    return Fraction(num, den)


def is_tuple(elements) -> bool:
    """True iff the elements are nonzero, distinct, and every pairwise product + 1 is a square."""
    els = list(elements)
    if any(e == 0 for e in els) or len(set(els)) != len(els):
        return False
    return all(
        sqrt_rat(els[i] * els[j] + 1) is not None
        for i in range(len(els)) for j in range(i + 1, len(els))
    )


def height_digits(q: Fraction) -> int:
    """Decimal digits of the larger of |numerator| and denominator."""
    n = max(abs(q.numerator), q.denominator)
    d = int(n.bit_length() * 0.3010299956639812)
    return d + (n >= 10**d)


# ---------------------------------------------------------------------------
# the base curve y^2 = x^3 + a2 x^2 + a4 x + a6 of the family, own group law
# ---------------------------------------------------------------------------

def base_curve(t: Fraction) -> tuple[Fraction, Fraction, Fraction]:
    tt = t * t
    return (3 * (tt - 3 * t + 1) * (tt + 3 * t + 1), 3 * (tt + 1) ** 4, (tt + 1) ** 6)


def seed_point(t: Fraction) -> tuple[Fraction, Fraction]:
    return (Fraction(0), (t * t + 1) ** 3)


def add(curve, p, q):
    """Chord-and-tangent sum; None is the point at infinity."""
    if p is None:
        return q
    if q is None:
        return p
    a2, a4, _ = curve
    (x1, y1), (x2, y2) = p, q
    if x1 == x2:
        if y1 == -y2:
            return None
        lam = (3 * x1 * x1 + 2 * a2 * x1 + a4) / (2 * y1)
    else:
        lam = (y2 - y1) / (x2 - x1)
    x3 = lam * lam - a2 - x1 - x2
    return (x3, lam * (x1 - x3) - y1)


def multiples(t: Fraction, kmax: int) -> list:
    """[0]R, [1]R, ..., [kmax]R on the base curve at t."""
    curve = base_curve(t)
    seed = seed_point(t)
    out = [None]
    for _ in range(kmax):
        out.append(add(curve, out[-1], seed))
    return out


# ---------------------------------------------------------------------------
# valuations, small factorizations and reduction types
# ---------------------------------------------------------------------------

def _ivp(n: int, p: int) -> int:
    n, e = abs(n), 0
    while n % p == 0:
        n //= p
        e += 1
    return e


def vp(q: Fraction, p: int) -> int:
    return _ivp(q.numerator, p) - _ivp(q.denominator, p)


def prime_powers(n: int) -> dict[int, int]:
    """Factorization of a small positive integer by trial division."""
    out, d = {}, 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def odd_primes(n: int) -> list[int]:
    return sorted(p for p in prime_powers(abs(n)) if p != 2)


def _probable_prime(n: int) -> bool:
    """Miller-Rabin with the first twelve primes as bases: exact below 3.3e24,
    a strong probable-prime test above."""
    if n < 2:
        return False
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n in bases:
        return True
    if any(n % b == 0 for b in bases):
        return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in bases:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _split(n: int) -> int:
    """A nontrivial factor of the odd composite n, by Pollard's rho (Floyd)."""
    for c in range(1, 200):
        x = y = 2
        d = 1
        for _ in range(1 << 20):
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(x - y, n)
            if d != 1:
                break
        if 1 < d < n:
            return d
    raise Mismatch(f"the oracle cannot factor a {n.bit_length()}-bit number")


def primes_of(n: int) -> set[int]:
    """The prime divisors of a nonzero integer of the size the reduce
    workload reaches (a few dozen digits, one large prime factor at most)."""
    n, out = abs(n), set()
    for p in range(2, 1000):
        if n % p == 0:
            out.add(p)
            while n % p == 0:
                n //= p
    stack = [n] if n > 1 else []
    while stack:
        k = stack.pop()
        if _probable_prime(k):
            out.add(k)
        else:
            d = _split(k)
            stack += [d, k // d]
    return out


def reduction(t: Fraction, x: Fraction, p: int) -> dict:
    """Reduction data of the two-torsion model at x, p-minimal by u-scaling."""
    tt = t * t
    aa = (tt + 1) ** 2
    a2 = (aa / x + 1) ** 2 / 4
    a4 = tt * (aa / (x * x) + 1 / x) / 2
    a6 = tt * tt / (4 * x * x)
    k = min(vp(a, p) // i for i, a in ((2, a2), (4, a4), (6, a6)) if a != 0)
    b2, b4, b6 = 4 * a2, 2 * a4, 4 * a6
    b8 = 4 * a2 * a6 - a4 * a4
    c4 = b2 * b2 - 24 * b4
    delta = -b2 * b2 * b8 - 8 * b4**3 - 27 * b6 * b6 + 9 * b2 * b4 * b6
    v_delta = vp(delta, p) - 12 * k
    v_c4 = None if c4 == 0 else vp(c4, p) - 4 * k
    kind = "good" if v_delta == 0 else "mult" if v_c4 == 0 else "add"
    return {"p": p, "type": kind, "v_delta": v_delta, "v_c4": v_c4, "scaling_exponent": k}


# ---------------------------------------------------------------------------
# checks, one per operation kind
# ---------------------------------------------------------------------------

_INT_STR_LIMIT = re.compile(r"Exceeds the limit \((\d+) digits\) for integer string conversion")
_UNFACTORABLE = re.compile(r"(\d+) has a cofactor (\d+) unfactorable at desk scale \(bound (\d+)\)")


@functools.cache
def _primorial(bound: int) -> int:
    """The product of the primes up to ``bound``, by a sieve and a product tree."""
    sieve = bytearray([1]) * (bound + 1)
    sieve[:2] = b"\0\0"
    for i in range(2, math.isqrt(bound) + 1):
        if sieve[i]:
            sieve[i * i::i] = bytes(len(range(i * i, bound + 1, i)))
    xs = [i for i in range(bound + 1) if sieve[i]]
    while len(xs) > 1:
        xs = [math.prod(xs[i:i + 2]) for i in range(0, len(xs), 2)]
    return xs[0]


def refusal(kind: str, message: str) -> bool:
    """True when an exit code of 2 is one of the program's documented
    refusals, confirmed here: CPython's int/str conversion limit of this
    process (ROADMAP item 2), or an ``UnfactorableError`` whose cofactor
    really is composite, past the square of the bound and free of primes up
    to the bound.  Any other exit code of 2 is a failed operation."""
    if kind == "ValueError" and (hit := _INT_STR_LIMIT.match(message)):
        return int(hit[1]) == sys.get_int_max_str_digits()
    if kind == "UnfactorableError" and (hit := _UNFACTORABLE.fullmatch(message)):
        n, m, bound = map(int, hit.groups())
        return (n % m == 0 and m > bound * bound and not _probable_prime(m)
                and math.gcd(m, _primorial(bound)) == 1)
    return False


def _check_certificate(elements: list[Fraction], ver: dict) -> bool:
    """Compare a verification block with the oracle's own witnesses; return its verdict."""
    n = len(elements)
    pairs = ver["pairs"]
    _require(len(pairs) == n * (n - 1) // 2, "wrong number of witnesses")
    k = 0
    squares = True
    for i in range(n):
        for j in range(i + 1, n):
            row = pairs[k]
            k += 1
            _require((row["i"], row["j"]) == (i + 1, j + 1), f"witness {k} names the wrong pair")
            value = elements[i] * elements[j] + 1
            _require(parse(row["product_plus_one"]) == value, f"wrong product + 1 for pair ({i+1}, {j+1})")
            root = sqrt_rat(value)
            if root is None:
                squares = False
                _require(row["square_root"] is None, f"false square root for pair ({i+1}, {j+1})")
            else:
                _require(row["square_root"] is not None and parse(row["square_root"]) == root,
                         f"missing or wrong square root for pair ({i+1}, {j+1})")
    nonzero = all(e != 0 for e in elements)
    distinct = len(set(elements)) == n
    _require(ver["nonzero"] is nonzero and ver["distinct"] is distinct, "wrong nonzero/distinct flags")
    verdict = nonzero and distinct and squares
    _require(ver["all_pass"] is verdict, "wrong all_pass verdict")
    return verdict


def _check_generate(op, data) -> None:
    x = op.data
    _require(parse(data["t"]) == x["t"] and data["m"] == x["m"] and data["n"] == x["n"],
             "wrong (t, m, n) echo")
    _require(data["route"] == x["route"], "wrong route echo")
    els = [parse(e) for e in data["elements"]]
    _require(len(els) == 6, "a sextuple needs six elements")
    tri = data["triple"]
    a, b, c = (parse(tri[k]) for k in ("a", "b", "c"))
    _require(els[:3] == [a, b, c], "elements do not start with the triple")
    _require(els[3:] == [parse(data[k]) for k in ("d", "e", "f")], "elements do not end with d, e, f")
    for name, prod in (("rho_ab", a * b), ("rho_ac", a * c), ("rho_bc", b * c)):
        rho = parse(tri[name])
        _require(rho >= 0 and rho * rho == prod + 1, f"bad triple witness {name}")
    _require(parse(tri["sigma1"]) == a + b + c and parse(tri["sigma2"]) == a * b + a * c + b * c
             and parse(tri["sigma3"]) == a * b * c, "wrong symmetric functions")
    _require(_check_certificate(els, data["verification"]), "certificate of a constructed sextuple fails")
    if x["t"] == 6 and x["m"] == 2 and x["n"] == 1:
        if x["route"] == "closed-form":
            _require(tuple(data["elements"]) == T6_ELEMENTS, "t = 6 closed-form golden strings differ")
        else:
            _require(sorted(data["elements"]) == sorted(T6_ELEMENTS), "t = 6 golden strings differ")


def _check_verify(op, data) -> None:
    els = op.data["elements"]
    _require([parse(e) for e in data["elements"]] == els, "elements echo differs from the input")
    _check_certificate(els, data)


def _check_catalog(op, data) -> None:
    _require([(e["name"], tuple(e["elements"])) for e in data] == list(CATALOG), "catalog differs from the pinned entries")
    for name, elements in CATALOG:
        _require(is_tuple([parse(e) for e in elements]), f"catalog entry {name} is not a Diophantine tuple")


def _check_family_row(row: dict, t: Fraction) -> None:
    _require(parse(row["t"]) == t, "wrong t in a family row")
    els = [parse(e) for e in row["elements"]]
    _require(len(els) == 6 and is_tuple(els), f"family values at t = {t} are not a sextuple")
    _require(row["negatives"] == sum(1 for e in els if e < 0), "wrong count of negative elements")
    if t == 6:
        _require(tuple(row["elements"]) == T6_ELEMENTS, "t = 6 family golden strings differ")


def _check_family(op, data) -> None:
    _check_family_row(data, op.data["t"])


def _check_scan(op, text: str) -> None:
    lines = text.splitlines()
    ts = op.data["ts"]
    _require(len(lines) == len(ts), "wrong number of scan rows")
    for line, t in zip(lines, ts):
        row = json.loads(line)
        if t in (-1, 0, 1):
            _require(set(row) == {"t", "skipped"} and parse(row["t"]) == t, f"t = {t} should be skipped")
        else:
            _check_family_row(row, t)


def _check_reduce(op, data) -> None:
    t, x, y = op.data["t"], op.data["x"], op.data["y"]
    _require(data["t"] == t and parse(data["x"]) == x and parse(data["y"]) == y, "wrong point echo")
    if op.data.get("p") is not None:
        _require(data["report"] == reduction(Fraction(t), x, op.data["p"]), "wrong reduction report")
        if (t, x, y, op.data["p"]) == (17, *T17_POINT, 3):
            _require(data["report"]["type"] == "add", "t = 17 fixture is not additive at 3")
        return
    candidates = odd_primes(t * (t * t + 1))
    _require(data["candidates"] == candidates, "wrong candidate primes")
    primes = [e["p"] for e in data["entries"]]
    _require(primes == sorted(set(primes)) and set(candidates) <= set(primes), "entries miss a candidate")
    for entry in data["entries"]:
        expect = reduction(Fraction(t), x, entry["p"])
        _require(entry == expect, f"wrong reduction report at p = {entry['p']}")
    extras = set().union(*(primes_of(k) for k in (x.numerator, x.denominator, y.numerator, y.denominator) if k))
    bad_extras = {p for p in extras - set(candidates) - {2} if reduction(Fraction(t), x, p)["v_delta"] > 0}
    _require(set(primes) - set(candidates) == bad_extras, "the extra primes listed are not the bad ones")
    additive = [e["p"] for e in data["entries"] if e["type"] == "add"]
    _require(data["additive"] == additive, "wrong additive list")
    applicable = y != 0 and vp(y, 3) <= 0
    _require(data["containment_applicable"] is applicable, "wrong containment applicability")
    holds = set(additive) <= set(candidates) if applicable else None
    _require(data["containment_holds"] is holds, "wrong containment verdict")
    if (t, x, y) == (31, *T31_POINT):
        _require(additive == T31_ADDITIVE, "t = 31 fixture additive primes differ")


def _valuation_rows(t: int, p: int, m_max: int) -> list[dict]:
    pts = multiples(Fraction(t), 4 * m_max + 3)
    x = lambda k: pts[k][0]  # noqa: E731
    rows = [
        (2, 0, vp(x(2), p), "v(x([2]R))"),
        (3, 4, vp(x(3), p), "v(x([3]R))"),
        (4, -2, vp(x(4), p), "v(x([4]R))"),
        (4, -3, vp(pts[4][1], p), "v(y([4]R))"),
    ]
    for m in range(1, m_max + 1):
        vm = _ivp(m, p)
        rows += [
            (m, -2 * vm - 2, vp(x(4 * m), p), "v(x([4m]R))"),
            (m, 4 + vm, vp(x(4 * m + 1), p), "v(x(R+[m][4]R))"),
            (m, 0, vp(x(4 * m + 2), p), "v(x([2]R+[m][4]R))"),
            (m, 4 + _ivp(m + 1, p), vp(x(4 * m + 3), p), "v(x([3]R+[m][4]R))"),
        ]
    return [{"m": m, "lemma_part": part, "predicted": pred, "observed": obs, "pass": pred == obs}
            for m, pred, obs, part in rows]


def _mod3_rows(t: int, m_max: int) -> list[dict]:
    pts = multiples(Fraction(t), 3 * m_max + 2)
    sign = lambda k: (lambda v: (v > 0) - (v < 0))(vp(pts[k][0], 3))  # noqa: E731
    rows = []
    for m in range(1, m_max + 1):
        rows += [
            (m, -1, sign(3 * m), "sign v3(x([m][3]R))"),
            (m, 1, sign(3 * m + 1), "sign v3(x(R+[m][3]R))"),
            (m, 1, sign(3 * m + 2), "sign v3(x([2]R+[m][3]R))"),
        ]
    return [{"m": m, "lemma_part": part, "predicted": pred, "observed": obs, "pass": pred == obs}
            for m, pred, obs, part in rows]


def _residues_pass(t: int, q: int, m_max: int) -> bool:
    for pt in multiples(Fraction(t), m_max)[1:]:
        x = pt[0]
        if x == 0 or vp(x, q) < 0:
            continue
        if x.numerator * pow(x.denominator, -1, q) % q == q - 1:
            return False
    return True


def _check_lemmas(op, data) -> None:
    t, p, m_max, table = op.data["t"], op.data["p"], op.data["max_m"], op.data["table"]
    _require((data["t"], data["p"], data["max_m"], data["table"]) == (t, p, m_max, table), "wrong table header")
    if table == "nonsingular-residues":
        _require(data["all_pass"] is _residues_pass(t, p, m_max), "wrong residue verdict")
        return
    rows = _valuation_rows(t, p, m_max) if table == "valuations" else _mod3_rows(t, m_max)
    _require(data["rows"] == rows, "table rows differ from the oracle's")
    _require(data["all_pass"] is all(r["pass"] for r in rows), "wrong all_pass verdict")


_CHECKS = {
    "generate": _check_generate,
    "verify": _check_verify,
    "catalog": _check_catalog,
    "family": _check_family,
    "reduce": _check_reduce,
    "lemmas": _check_lemmas,
}


def check(op, code: int, out: str) -> str | None:
    """None when the output and exit code of ``op`` are right, else the disagreement."""
    try:
        _require(code == op.expect_code, f"exit code {code}, expected {op.expect_code}")
        if op.kind == "scan":
            _check_scan(op, out)
        else:
            _CHECKS[op.kind](op, json.loads(out))
    except Mismatch as exc:
        return str(exc)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"malformed output: {type(exc).__name__}: {exc}"
    return None
