"""Seeded inputs for the three workloads.

Each workload is one fixed-length list of CLI operations (a "pass").  The
seed chooses the inputs; it never changes how many operations a pass has,
so percentiles are taken over the same number of samples on every seed.
Inputs and oracle expectations are computed here with the oracle's own
arithmetic, never with dioph6.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

import oracle

CONSTRUCT_M = range(2, 9)  # the documented caps: m <= 8, n <= 6
CONSTRUCT_N = range(1, 7)
#: Parameter classes per construct pass, one from the middle of each stratum.
CONSTRUCT_PARAMETERS = 4
#: Parameters per reduce pass, one drawn from each stratum of the 42 that qualify.
REDUCE_STRATA = 35
LEMMA_MAX_M = 4
#: Largest element of each benchmark-built quadruple, in digits.
QUADRUPLE_DIGITS = (20, 40, 80, 160, 320, 640, 1000, 1600, 2500, 4000)
FAMILY_OPS = 40
SCAN_OPS = 22
SCAN_ROWS = 5


@dataclass
class Op:
    """One CLI call: its argv, where it sits in the (t, m, n, p) grid, and
    what the oracle expects of it."""

    kind: str
    argv: list[str]
    where: dict
    expect_code: int = 0
    data: dict = field(default_factory=dict)


def _generate(t: Fraction, m: int, n: int, route: str) -> Op:
    argv = ["generate", f"--t={t}", "--m", str(m), "--n", str(n)]
    if route != "isogeny":
        argv += ["--route", route]
    return Op("generate", argv, {"t": str(t), "m": m, "n": n, "route": route},
              data={"t": t, "m": m, "n": n, "route": route})


def _parameter_classes() -> list[Fraction]:
    """p/q with 2 <= p <= 12, 1 <= q < p, gcd 1: the parameters of height at
    most 12 up to t -> -t and t -> 1/t, which leave the amount of arithmetic
    unchanged."""
    return [Fraction(p, q) for p in range(2, 13) for q in range(1, p) if math.gcd(p, q) == 1]


def construct(rng: random.Random) -> list[Op]:
    """The full cap grid at CONSTRUCT_PARAMETERS seeded parameters, the
    closed-form route at (2, 1) for each, and the t = 6 golden pair.

    Cell cost, and which cells pass the 4300-digit limit, follow the size of
    the seed point's multiples.  So the classes are sorted by the digits of
    x([4]R) and split into CONSTRUCT_PARAMETERS equal strata, and the class
    at the middle of each stratum is taken: a pass spans small to large
    parameters.  Even neighbouring classes differ in cost by a quarter,
    which would make a seed's draw of classes, not the program, decide the
    pass's cost; so the seed picks only which of t, -t, 1/t, -1/t
    represents each class, which changes every number the program computes
    but not which cells fail, and hardly the amount of arithmetic.
    """
    classes = sorted(_parameter_classes(),
                     key=lambda t: (oracle.height_digits(oracle.multiples(t, 4)[4][0]), t))
    size = len(classes) / CONSTRUCT_PARAMETERS
    ops = []
    for k in range(CONSTRUCT_PARAMETERS):
        base = classes[round((k + 0.5) * size)]
        t = rng.choice((base, -base, 1 / base, -1 / base))
        ops += [_generate(t, m, n, "isogeny") for m in CONSTRUCT_M for n in CONSTRUCT_N]
        ops.append(_generate(t, 2, 1, "closed-form"))
    six = Fraction(6)
    return ops + [_generate(six, 2, 1, "isogeny"), _generate(six, 2, 1, "closed-form")]


def _random_rat(rng: random.Random, digits: int, above_one: bool = False) -> Fraction:
    lo, hi = 10 ** (digits - 1), 10**digits - 1
    num, den = rng.randint(lo, hi), rng.randint(lo, hi)
    if above_one and num <= den:
        num, den = den + 1, num
    return Fraction(num, den)


def _quadruple(rng: random.Random, digits: int) -> list[Fraction]:
    """A regular Diophantine quadruple whose largest element has about ``digits`` digits.

    From {a, b} with ab + 1 = r^2: c = a + b + 2r, then
    d = a + b + c + 2abc + 2rst with s = a + r, t = b + r.  The elements
    have about k, 3k, 3k and 7k digits when a and r have k.
    """
    k = max(1, round(digits / 7))
    a = _random_rat(rng, k)
    r = _random_rat(rng, k, above_one=True)
    b = (r * r - 1) / a
    c = a + b + 2 * r
    s, t = a + r, b + r
    d = a + b + c + 2 * a * b * c + 2 * r * s * t
    return [a, b, c, d]


def _verify(elements: list[Fraction], label: str) -> Op:
    return Op("verify", ["verify", "--", *map(str, elements)],
              {"candidate": label, "digits": max(map(oracle.height_digits, elements))},
              expect_code=0 if oracle.is_tuple(elements) else 1,
              data={"elements": elements})


def _small_rat(rng: random.Random) -> Fraction:
    while True:
        t = Fraction(rng.randint(-20, 20), rng.randint(1, 20))
        if t not in (-1, 0, 1):
            return t


def certify(rng: random.Random) -> list[Op]:
    """Verify the catalog, benchmark-built quadruples from tens of digits up
    to QUADRUPLE_DIGITS[-1], and two one-element-perturbed copies of each;
    then closed-form family rows and scans over seeded parameters."""
    ops = [Op("catalog", ["catalog"], {})]
    for name, elements in oracle.CATALOG:
        ops.append(_verify([oracle.parse(e) for e in elements], name))
    for digits in QUADRUPLE_DIGITS:
        quad = _quadruple(rng, digits)
        ops.append(_verify(quad, f"quadruple-{digits}"))
        for i in rng.sample(range(4), 2):
            bent = list(quad)
            bent[i] += 1
            ops.append(_verify(bent, f"quadruple-{digits}-perturbed-{i + 1}"))
    for _ in range(FAMILY_OPS):
        t = _small_rat(rng)
        ops.append(Op("family", ["family", f"--t={t}"], {"t": str(t)}, data={"t": t}))
    for _ in range(SCAN_OPS):
        start = _small_rat(rng)
        step = Fraction(1, rng.randint(2, 9))
        stop = start + (SCAN_ROWS - 1) * step
        ops.append(Op("scan", ["scan", f"--from={start}", f"--to={stop}", f"--step={step}"],
                      {"t": str(start)},
                      data={"ts": [start + i * step for i in range(SCAN_ROWS)]}))
    return ops


def _reduce_parameters() -> list[int]:
    """t in 2..60 for which all three lemma tables apply: an odd prime
    divides t^2 + 1 exactly, and an odd prime other than 3 divides t."""
    keep = []
    for t in range(2, 61):
        exact = [p for p, e in oracle.prime_powers(t * t + 1).items() if p != 2 and e == 1]
        if exact and [p for p in oracle.odd_primes(t) if p != 3]:
            keep.append(t)
    return keep


def _reduce(t: int, pt, p: int | None, m=None) -> Op:
    x, y = pt
    argv = ["reduce", "--t", str(t), f"--x={x}", f"--y={y}"]
    if p is not None:
        argv += ["--p", str(p)]
    return Op("reduce", argv, {"t": t, "m": m, "p": p}, data={"t": t, "x": x, "y": y, "p": p})


def _lemmas(t: int, p: int, table: str) -> Op:
    return Op("lemmas", ["lemmas", "--t", str(t), "--p", str(p), "--max-m", str(LEMMA_MAX_M)],
              {"t": t, "p": p, "table": table},
              data={"t": t, "p": p, "max_m": LEMMA_MAX_M, "table": table})


def reduce(rng: random.Random) -> list[Op]:
    """Reduction at [m]R, m = 2..4, for one seeded t from each stratum of
    2..60: all bad primes, and one seeded candidate prime; the three lemma
    tables at each t; and the README fixtures at t = 31 and t = 17."""
    params = _reduce_parameters()
    size = len(params) / REDUCE_STRATA
    ops = []
    for k in range(REDUCE_STRATA):
        t = rng.choice(params[round(k * size):round((k + 1) * size)])
        pts = oracle.multiples(Fraction(t), 4)
        candidates = oracle.odd_primes(t * (t * t + 1))
        for m in (2, 3, 4):
            ops.append(_reduce(t, pts[m], None, m))
            ops.append(_reduce(t, pts[m], rng.choice(candidates), m))
        exact = [p for p, e in oracle.prime_powers(t * t + 1).items() if p != 2 and e == 1]
        ops.append(_lemmas(t, rng.choice(exact), "valuations"))
        ops.append(_lemmas(t, 3, "mod3-signs"))
        ops.append(_lemmas(t, rng.choice([p for p in oracle.odd_primes(t) if p != 3]), "nonsingular-residues"))
    ops.append(_reduce(31, oracle.T31_POINT, None))
    ops.append(_reduce(31, oracle.T31_POINT, 13))
    ops.append(_reduce(17, oracle.T17_POINT, 3))
    return ops


WORKLOADS = {"construct": construct, "certify": certify, "reduce": reduce}


def build(workload: str, seed: int) -> list[Op]:
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))


def digest(ops: list[Op]) -> str:
    """sha256 of the argv of every operation, in order."""
    h = hashlib.sha256()
    for op in ops:
        h.update("\0".join(op.argv).encode())
        h.update(b"\n")
    return h.hexdigest()
