#!/usr/bin/env bash
# The package-import and console-script checks of CI, for one interpreter:
#
#     ci/check.sh PY        e.g. ci/check.sh python3.12
#
# Runs from the repository root whatever the working directory. `dioph6` is
# the console script that `PY -m pip install -e .` put beside PY; where PY
# has none, it is `PY -m dioph6.cli` on the checkout's src/. Stops at the
# first failing command or check and exits non-zero.
set -e
PY=${1:?usage: ci/check.sh PY}
cd "$(dirname "$0")/.."
script="$("$PY" -c "import sysconfig; print(sysconfig.get_path('scripts'))")/dioph6"
if [ -x "$script" ]; then
  dioph6() { "$script" "$@"; }
else
  src="$PWD/src"
  dioph6() { PYTHONPATH="$src${PYTHONPATH:+:$PYTHONPATH}" "$PY" -m dioph6.cli "$@"; }
fi

# -- package imports with the standard library alone ------------------------
PYTHONPATH=src "$PY" -S -c "import dioph6, dioph6.cli, dioph6.identities"
# the command's import path loads no dataclasses, inspect, typing or threading
PYTHONPATH=src "$PY" -S -c "import sys, dioph6, dioph6.cli; loaded = [m for m in ('dataclasses', 'inspect', 'typing', 'threading') if m in sys.modules]; assert not loaded, loaded"
# the exact root test, as numerator and as denominator, and the recursive
# root under it agree with math.isqrt on r^2 - 1, r^2, r^2 + 1 and r^2 + 2r
# of 300 digits (below the recursion's crossover) and of 1,000 to 40,000
# digits (above it): a check of the kernel that runs where Tier-1 cannot
PYTHONPATH=src "$PY" -S -c "
import math
from dioph6.exactnum import _SQRTREM_BITS, _coprime_sqrt, _sqrtrem
sizes = set()
for digits in (300, 1000, 2000, 4400, 8800, 15500, 40000):
    r = 3 ** (digits * 1048 // 1000) + digits  # about digits / 2 digits
    for n in (r * r - 1, r * r, r * r + 1, r * r + 2 * r):
        s = math.isqrt(n)
        want = (s, 1) if s * s == n else None
        assert _sqrtrem(n) == (s, n - s * s), digits
        assert _coprime_sqrt(n, 1) == want and _coprime_sqrt(1, n) == (want and want[::-1]), digits
        sizes.add(n.bit_length() >= _SQRTREM_BITS)
assert sizes == {False, True}
"
# the certificate anchored on its smallest element (a, b and c of about 120
# bits beside d, e and f of about 14,700) agrees row by row with cross gcds,
# math.isqrt and squaring, on the (-9/8, 6, 6) sextuple and on a copy with
# its smallest element bent, whose rows through it fail; its half-size gcd
# agrees with math.gcd where s holds more of a prime than c*s shares with n,
# and a wrong root proposed for a denominator is not taken
PYTHONPATH=src "$PY" -S -c "
import math
from fractions import Fraction
from dioph6.exactnum import _coprime_sqrt
from dioph6.family import triple_from_multiple
from dioph6.sextuple_engine import _anchor, _gcd_times_square, extend_to_sextuple, verify_tuple

for n, c, s in ((2**9 * 3, 1, 2**3), (-(5**7), 5, 25), (0, 3, 4), (7**5 * 11, 7, 7**2 * 11)):
    assert _gcd_times_square(n, c, s) == math.gcd(n, c * s * s), (n, c, s)
assert _coprime_sqrt(49, 4, 3) == (7, 2) and _coprime_sqrt(49, 4, None) == (7, 2)

def root(n):
    s = math.isqrt(n) if n >= 0 else -1
    return s if s * s == n else None

def naive(elements):
    parts = [(e.numerator, e.denominator) for e in elements]
    rows = []
    for i, (ni, di) in enumerate(parts):
        for j, (nj, dj) in enumerate(parts[i + 1:], i + 1):
            g1, g2 = math.gcd(ni, dj), math.gcd(nj, di)
            den = di // g2 * (dj // g1)
            num = ni // g1 * (nj // g2) + den
            rn, rd = root(num), root(den)
            ok = rn is not None and rd is not None
            rows.append((i + 1, j + 1, num, den, rn if ok else None, rd if ok else None))
    return tuple(rows)

sextuple = list(extend_to_sextuple(triple_from_multiple(Fraction(-9, 8), 6), 6).elements)
k = _anchor([(e.numerator, e.denominator) for e in sextuple])
assert k is not None
bent = list(sextuple)
bent[k] += 1
for elements in (sextuple, bent):
    assert verify_tuple(elements).rows == naive(elements)
assert verify_tuple(sextuple).all_pass and not verify_tuple(bent).all_pass
"
# the lemma tables' x-sum valuations, read off unreduced integers with no
# gcd, agree with the valuations of the reduced sums: s in R, [2]R, [3]R and
# q = [4m]R (or [m][3]R at p = 3), m = 1..6, on the base curve at fixed
# (t, p) and on a u-scaled copy of it (coefficients with d > 1)
PYTHONPATH=src "$PY" -S -c "
from fractions import Fraction
from dioph6.exactnum import _rat_vp
from dioph6.family import _curve_E, _point_R
from dioph6.reduction_lab import _sum_vp
from dioph6.weierstrass import INFINITY

u = Fraction(2, 15)
for t, p in ((3, 5), (8, 13), (31, 37), (17, 29), (2, 3), (7, 3)):
    base, seed = _curve_E(t, 1), _point_R(t, 1)
    for curve, r in ((base, seed), (base.scale(u), base.scale_point(seed, u))):
        rs = [r]
        while len(rs) < 4:
            rs.append(curve.add(rs[-1], r))
        step, q = rs[2 if p == 3 else 3], INFINITY
        for m in range(1, 7):
            q = curve.add(q, step)
            for s in rs[:3]:
                assert _sum_vp(curve, s, q, p) == _rat_vp(curve.add_x_unchecked(s, q), p), (t, p, m)
"
# reduce's integers against independent paths at t = 31, -9/8, 2/3 and 27/8:
# the membership test on E(t)'s cleared integers against E(t)'s equation
# evaluated in Fractions on R, [m]R and -[m]R (m = 2..4) and on copies moved
# off the curve, and the rows classified from the two-torsion model's cleared
# integers against classify on the model built as a Curve from its rational
# formula, at every odd prime below 1000
PYTHONPATH=src "$PY" -S -c "
from fractions import Fraction
from dioph6.family import _cleared_E, _cleared_Epp, _curve_E, _point_R
from dioph6.reduction_lab import _classified, classify
from dioph6.weierstrass import Curve, Point, _on_model

primes = [p for p in range(3, 1000, 2) if all(p % r for r in range(3, p, 2))]
checked = 0
for t in (Fraction(31), Fraction(-9, 8), Fraction(2, 3), Fraction(27, 8)):
    p, q = t.numerator, t.denominator
    base, r, tt = _curve_E(p, q), _point_R(p, q), t * t
    a2, a4, a6 = 3 * (tt - 3 * t + 1) * (tt + 3 * t + 1), 3 * (tt + 1) ** 4, (tt + 1) ** 6
    points = [r] + [base.mul(m, r) for m in (2, 3, 4)]
    for pt in points + [-pt for pt in points]:
        for moved in (pt, Point(pt.x, pt.y + 1), Point(pt.x + Fraction(1, 3), pt.y)):
            x = moved.x
            on_curve = moved.y ** 2 == ((x + a2) * x + a4) * x + a6
            assert _on_model(_cleared_E(p, q), moved) is on_curve, (t, moved)
            checked += on_curve
        if pt.x == 0:
            continue
        x, aa = pt.x, (tt + 1) ** 2
        curve = Curve((aa / x + 1) ** 2 / 4, tt * (aa / (x * x) + 1 / x) / 2, tt * tt / (4 * x * x))
        rows = list(_classified(_cleared_Epp(p, q, x), primes))
        assert rows == [tuple(classify(curve, ell)._values()) for ell in primes], (t, x)
assert checked == 4 * 2 * 4, checked
"
# the closed-form family proved once in Q(t) (tests/test_family_proof.py):
# its 15 products + 1 are squares of rational functions, the numerators,
# denominators and differences of its elements vanish only at t = -1, 0, 1,
# and the roots at sampled t are family_point's certificate witnesses
PYTHONPATH=src:tests "$PY" -S -c "
import test_family_proof as proof
proof.test_family_is_a_sextuple_in_qt()
proof.test_roots_are_the_certificate_witnesses()
"

# -- console script ------------------------------------------------------------
dioph6 family --t 6
dioph6 catalog
dioph6 scan --from 11/8 --to 12/5 --step 1/8
dioph6 generate --t 6 --route closed-form
dioph6 triple --t 2
dioph6 reduce --t 31 --x -150072 --y 682327360
dioph6 reduce --t 31 --x -150072 --y 682327360 --p 13
dioph6 lemmas --t 31 --p 13
dioph6 reduce --t 81 --x=-151114833807437138470625976/4403749235540328025 --y=-198233143917514773432929819565756159232/9241317070754070234434739875
dioph6 verify 11/192 35/192 155/27 512/27 1235/48 180873/16
# a sextuple written with --out verifies when read back with --file
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
dioph6 generate --t 6 --m 3 --n 2 --out "$tmp/g.json"
"$PY" -c "import json, sys; json.dump(json.load(open(sys.argv[1]))['elements'], open(sys.argv[2], 'w'))" "$tmp/g.json" "$tmp/elements.json"
dioph6 verify --file "$tmp/elements.json"
# every rational the commands print is canonical: each "num/den" string
# is str(Fraction) of itself.  The triple, the closed forms and the
# certificate build their Fractions with exactnum._coprime, which skips
# normalization, so a part left unreduced would show here as printed
i=0
for line in "generate --t=-39/2 --m 3 --n 1" "generate --t=-39/4 --route closed-form" \
    "triple --t=-39/4 --m 2" "triple --t=-9/8 --m 3" "family --t=-39/4" \
    "scan --from=-10 --to=-19/2 --step 1/4" "catalog" \
    "verify 11/192 35/192 155/27 512/27 1235/48 180873/16"; do
  i=$((i + 1))
  # shellcheck disable=SC2086  # the line is split into its words on purpose
  dioph6 $line > "$tmp/canonical_$i.json"
done
"$PY" -S -c "
import json, re, sys
from fractions import Fraction

def rationals(x):
    if isinstance(x, dict):
        x = list(x.values())
    if isinstance(x, list):
        for v in x:
            yield from rationals(v)
    elif isinstance(x, str) and re.fullmatch(r'-?[0-9]+/[0-9]+', x):
        yield x

for path in sys.argv[1:]:
    text = open(path).read()
    try:
        docs = [json.loads(text)]
    except ValueError:  # JSONL
        docs = [json.loads(line) for line in text.splitlines()]
    found = list(rationals(docs))
    assert found, path
    for s in found:
        assert str(Fraction(s)) == s, (path, s)
" "$tmp"/canonical_*.json
# a command line read from the option table prints what argparse's
# reading of an equivalent one prints: an abbreviation, the other
# value form, and a repeated option (the last one wins)
dioph6 reduce --t 31 --x -150072 --y 682327360 --factor-bound=1000 > "$tmp/table.json"
dioph6 reduce --t 31 --x -150072 --y 682327360 --fac 1000 > "$tmp/argparse.json"
cmp "$tmp/table.json" "$tmp/argparse.json"
dioph6 reduce --t 31 --x=-150072 --y=682327360 > "$tmp/table.json"
dioph6 reduce --t 31 --x -150072 --y 682327360 > "$tmp/argparse.json"
cmp "$tmp/table.json" "$tmp/argparse.json"
dioph6 family --t 6 > "$tmp/table.json"
dioph6 family --t 2 --t 6 > "$tmp/argparse.json"
cmp "$tmp/table.json" "$tmp/argparse.json"
# a failing certificate exits 1 (a failed check), not 2 (bad input)
code=0; dioph6 verify -- 1 3 8 121 || code=$?
test "$code" -eq 1
# a composite --p is bad input: 399165290221 * 798330580441 passes
# Miller-Rabin to the twelve prime bases up to 37, not to 41
code=0; dioph6 reduce --t 31 --x -150072 --y 682327360 --p 318665857834031151167461 || code=$?
test "$code" -eq 2
# 1287836182261 * 2575672364521 passes all thirteen bases up to 41;
# the strong Lucas test of Baillie-PSW rejects it
code=0; dioph6 reduce --t 31 --x -150072 --y 682327360 --p 3317044064679887385961981 || code=$?
test "$code" -eq 2
# usage errors: a negative value after "=", an unknown option after
# a command (reported by the top-level parser) and no command at all
dioph6 generate --t=-5/3
code=0; err=$(dioph6 reduce --t 31 --x -150072 --y 682327360 --bogus 2>&1 >/dev/null) || code=$?
test "$code" -eq 2
printf '%s\n' "$err" | grep -qF 'usage: dioph6 [-h]'
code=0; dioph6 || code=$?
test "$code" -eq 2
# "--" after "=" is an option given no value: exit 2 with the command's
# usage and one error line, no traceback, and no file named "--"
for line in "family --t=--" "generate --t 6 --m=--" "lemmas --t 3 --p=--" \
    "reduce --t=-- --x 1 --y 1" "catalog --out=--"; do
  # shellcheck disable=SC2086  # the line is split into its words on purpose
  code=0; err=$(cd "$tmp" && dioph6 $line 2>&1 >/dev/null) || code=$?
  test "$code" -eq 2
  case $err in *Traceback*) exit 1 ;; esac
  test "$(printf '%s\n' "$err" | grep -c 'error: ')" -eq 1
  printf '%s\n' "$err" | grep -qx "dioph6 ${line%% *}: error: argument --[a-z]*: expected one argument"
done
test ! -e "$tmp/--"
# lemmas checks --p before --t, and p = 0 never reaches t % p
code=0; err=$(dioph6 lemmas --t 0 --p 4 2>&1 >/dev/null) || code=$?
test "$code" -eq 2
printf '%s\n' "$err" | grep -qxF 'error: 4 is not prime'
code=0; dioph6 lemmas --t 31 --p 0 || code=$?
test "$code" -eq 2
# the documented refusal: y's numerator keeps a composite cofactor
# with no prime up to the bound, so the command divides it through
# the whole prime table, candidate by candidate, before it refuses
code=0; err=$(dioph6 reduce --t 21 --x=47258069343691701/8210172100 --y=-10790725316327890280638199/743923693981000 2>&1 >/dev/null) || code=$?
test "$code" -eq 2
printf '%s\n' "$err" | grep -q 'unfactorable at desk scale (bound 1000000)$'
# a cell the README calls in range whose certificate crosses CPython's
# int/str digit limit (4300, the default), and a large sextuple's
# certificate under a limit lowered to 2000: exit 2 with the interpreter's
# one error line and no traceback
for line in "4300 generate --t 6 --m 8 --n 5" \
    "2000 verify --file tests/data/sextuple_t-9_8_m5_n4.json"; do
  # shellcheck disable=SC2086  # the line is split into its words on purpose
  code=0; err=$(PYTHONINTMAXSTRDIGITS=${line%% *} dioph6 ${line#* } 2>&1 >/dev/null) || code=$?
  test "$code" -eq 2
  case $err in *Traceback*) exit 1 ;; esac
  test "$(printf '%s\n' "$err" | grep -c 'error: ')" -eq 1
  printf '%s\n' "$err" | grep -qF 'Exceeds the limit'
done
