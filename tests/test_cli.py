import argparse
import contextlib
import hashlib
import io
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from dioph6 import cli, exactnum, paramfam, weierstrass
from dioph6.cli import build_parser, main
from dioph6.paramfam import family_triple
from dioph6.reduction_lab import ReductionReport, bad_primes_epp
from dioph6.sextuple_engine import PairWitness, verify_tuple
from dioph6.weierstrass import Point


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_bad_input(capsys, message, *argv):
    """The command exits 2 and prints exactly ``error: <message>`` to stderr."""
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------

def test_generate_t6_isogeny(capsys, t6_printed):
    code, out, _ = run_cli(capsys, "generate", "--t", "6", "--m", "2", "--n", "1")
    assert code == 0
    data = json.loads(out)
    printed = sorted(str(e) for e in t6_printed)
    assert sorted(data["elements"]) == printed
    assert data["route"] == "isogeny"
    assert len(data["verification"]["pairs"]) == 15
    assert data["verification"]["all_pass"] is True


def test_generate_t6_closed_form(capsys, t6_printed):
    code, out, _ = run_cli(
        capsys, "generate", "--t", "6", "--m", "2", "--n", "1", "--route", "closed-form"
    )
    assert code == 0
    data = json.loads(out)
    assert data["elements"] == [str(e) for e in t6_printed]


@pytest.mark.parametrize("t", ["6", "-17/13", "2", "9/8", "-5/3"])
def test_generate_closed_form_record_carries_family_triple(capsys, t):
    code, out, _ = run_cli(capsys, "generate", f"--t={t}", "--route", "closed-form")
    assert code == 0
    record = json.loads(out)
    triple = family_triple(Fraction(t))
    assert (record["t"], record["m"], record["triple"]) == (t, 2, triple.to_json_dict())
    # its witnesses are the certificate's roots of the pairs (1, 2), (1, 3), (2, 3)
    roots = [pair["square_root"] for pair in record["verification"]["pairs"] if pair["j"] <= 3]
    assert roots == [record["triple"][key] for key in ("rho_ab", "rho_ac", "rho_bc")]


def test_generate_closed_form_does_not_call_family_triple(capsys, monkeypatch):
    # the route takes its triple from family_point's a, b, c and certificate
    argv = ("generate", "--t=-44/35", "--route", "closed-form")
    expected = run_cli(capsys, *argv)

    def refuse(t):
        raise AssertionError("family_triple called")

    monkeypatch.setattr(paramfam, "family_triple", refuse)
    assert run_cli(capsys, *argv) == expected


def test_generate_t2_three_negatives(capsys):
    code, out, _ = run_cli(capsys, "generate", "--t", "2", "--m", "2", "--n", "1")
    assert code == 0
    data = json.loads(out)
    from dioph6.exactnum import parse_rat

    negatives = sum(1 for e in data["elements"] if parse_rat(e) < 0)
    assert negatives == 3
    assert data["verification"]["all_pass"] is True


def test_generate_rejects_bad_t(capsys):
    code, _, err = run_cli(capsys, "generate", "--t", "1", "--m", "2", "--n", "1")
    assert code == 2
    assert "excluded" in err


def test_negative_fraction_arguments(capsys):
    # argparse reads "-5/3" as an option, so the README forms are "--t=" and "--"
    code, out, _ = run_cli(capsys, "generate", "--t=-5/3")
    assert code == 0
    assert json.loads(out)["t"] == "-5/3"
    code, out, _ = run_cli(capsys, "verify", "--", "1/2", "-3/2")
    assert code == 0
    assert json.loads(out)["elements"] == ["1/2", "-3/2"]


def test_generate_closed_form_requires_m2_n1(capsys):
    message = "the closed-form route is only defined for m = 2, n = 1"
    for m, n in (("3", "1"), ("2", "2")):
        assert_bad_input(
            capsys, message, "generate", "--t", "6", "--m", m, "--n", n, "--route", "closed-form"
        )


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_gibbs(capsys, gibbs_sextuple):
    code, out, _ = run_cli(capsys, "verify", *[str(e) for e in gibbs_sextuple])
    assert code == 0
    assert json.loads(out)["all_pass"] is True


def test_verify_failure_lists_pair(capsys):
    code, out, _ = run_cli(capsys, "verify", "1", "2", "3")
    assert code == 1
    data = json.loads(out)
    assert data["all_pass"] is False
    failing = [(p["i"], p["j"]) for p in data["pairs"] if p["square_root"] is None]
    assert (1, 2) in failing


def test_verify_malformed_input(capsys):
    code, _, err = run_cli(capsys, "verify", "1/0")
    assert code == 2
    assert "error" in err


def test_verify_from_file(capsys, tmp_path):
    path = tmp_path / "tuple.json"
    path.write_text(json.dumps(["1", "3", "8", "120"]))
    code, out, _ = run_cli(capsys, "verify", "--file", str(path))
    assert code == 0
    assert json.loads(out)["all_pass"] is True


def test_verify_empty_file(capsys, tmp_path):
    path = tmp_path / "tuple.json"
    path.write_text("[]")
    assert_bad_input(
        capsys,
        "no elements given (pass them as arguments or via --file)",
        "verify", "--file", str(path),
    )


def test_verify_file_and_arguments(capsys, tmp_path):
    path = tmp_path / "tuple.json"
    path.write_text(json.dumps(["1", "3", "8", "120"]))
    assert_bad_input(
        capsys,
        "give the elements as arguments or via --file, not both",
        "verify", "--file", str(path), "1/2", "3",
    )


def test_verify_no_elements(capsys):
    code, _, err = run_cli(capsys, "verify")
    assert code == 2


# ---------------------------------------------------------------------------
# triple
# ---------------------------------------------------------------------------

def test_triple_command_routes_agree(capsys):
    code, out1, _ = run_cli(capsys, "triple", "--t", "6", "--m", "2", "--route", "closed-form")
    assert code == 0
    data1 = json.loads(out1)
    code, out2, _ = run_cli(capsys, "triple", "--t", "6", "--m", "2")
    assert code == 0
    data2 = json.loads(out2)
    assert {data1["a"], data1["b"], data1["c"]} == {data2["a"], data2["b"], data2["c"]}
    assert data1["sigma3"] == "35/12"


def test_triple_closed_form_requires_m2(capsys):
    assert_bad_input(
        capsys,
        "the closed-form route is only defined for m = 2",
        "triple", "--t", "6", "--m", "3", "--route", "closed-form",
    )


# ---------------------------------------------------------------------------
# family and scan
# ---------------------------------------------------------------------------

def test_family_t6(capsys):
    code, out, _ = run_cli(capsys, "family", "--t", "6")
    assert code == 0
    data = json.loads(out)
    assert data["negatives"] == 0
    assert data["elements"][0] == "3780/73"


def test_family_rejects_t1(capsys):
    code, _, _ = run_cli(capsys, "family", "--t", "1")
    assert code == 2
    # a non-ASCII digit (ARABIC-INDIC SIX) is no rational, although int() reads it
    with pytest.raises(SystemExit) as info:
        main(["family", "--t", "\u0666"])
    assert info.value.code == 2
    assert "not a rational: '\u0666'" in capsys.readouterr().err


def test_scan_three_negative_region(capsys):
    code, out, _ = run_cli(
        capsys, "scan", "--from", "11/8", "--to", "12/5", "--step", "1/8"
    )
    assert code == 0
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert len(rows) == 9  # 11/8, 12/8, ..., 19/8
    assert all(row["negatives"] == 3 for row in rows)
    from dioph6.exactnum import parse_rat

    ts = [parse_rat(row["t"]) for row in rows]
    assert ts == sorted(ts)


def test_scan_rows_sorted_and_skip_logged(capsys):
    code, out, _ = run_cli(capsys, "scan", "--from", "1/2", "--to", "3/2", "--step", "1/2")
    assert code == 0
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert [row["t"] for row in rows] == ["1/2", "1", "3/2"]
    assert "skipped" in rows[1]  # t = 1 is inadmissible
    assert "negatives" in rows[0] and "negatives" in rows[2]


def test_scan_skips_only_excluded_parameters(capsys):
    """A row that fails for any reason but an excluded t is the command's
    error: at t = 10^130 + 7 the elements cross CPython's int/str digit
    limit, and scan exits 2 with the line family prints, no skipped row."""
    t = str(10**130 + 7)
    code, out, err = run_cli(capsys, "scan", "--from", t, "--to", t, "--step", "1")
    assert (code, out) == (2, "")
    assert err.startswith("error: Exceeds the limit") and err.count("\n") == 1
    assert run_cli(capsys, "family", "--t", t) == (code, out, err)


def test_scan_empty_range(capsys):
    assert_bad_input(capsys, "empty scan range", "scan", "--from", "3", "--to", "2", "--step", "1")


def test_scan_rejects_zero_step(capsys):
    assert_bad_input(
        capsys, "--step must be positive", "scan", "--from", "1", "--to", "2", "--step", "0"
    )


def test_scan_writes_file(capsys, tmp_path):
    path = tmp_path / "rows.jsonl"
    code, out, _ = run_cli(
        capsys, "scan", "--from", "2", "--to", "3", "--step", "1", "--out", str(path)
    )
    assert code == 0 and out == ""
    rows = [json.loads(line) for line in path.read_text().strip().splitlines()]
    assert [row["t"] for row in rows] == ["2", "3"]


# ---------------------------------------------------------------------------
# reduce and lemmas
# ---------------------------------------------------------------------------

def test_reduce_t31(capsys):
    code, out, _ = run_cli(
        capsys, "reduce", "--t", "31", "--x", "-150072", "--y", "682327360"
    )
    assert code == 0
    data = json.loads(out)
    assert data["additive"] == [13, 31, 37]
    assert data["candidates"] == [13, 31, 37]
    assert data["containment_applicable"] is True


def test_reduce_single_prime(capsys):
    code, out, _ = run_cli(
        capsys, "reduce", "--t", "31", "--x", "-150072", "--y", "682327360", "--p", "13"
    )
    assert code == 0
    data = json.loads(out)
    assert data["report"]["type"] == "add"


def test_reduce_rejects_off_curve_point(capsys):
    for x, y in (("-150072", "1"), ("0", "1")):  # off the curve; x = 0
        for one_prime in ((), ("--p", "13")):
            assert_bad_input(
                capsys,
                "point is not an admissible base-curve point",
                "reduce", "--t", "31", "--x", x, "--y", y, *one_prime,
            )


def test_reduce_builds_no_curve(capsys, monkeypatch):
    # the base point is checked on E(t)'s cleared integers and the model is
    # classified from its own
    base = ("reduce", "--t", "31", "--x", "-150072", "--y", "682327360")
    off_curve = ("reduce", "--t", "31", "--x", "1", "--y", "1")
    lines = (base, (*base, "--p", "13"), (*base, "--p", "5"), off_curve)
    expected = [run_cli(capsys, *argv) for argv in lines]

    def refuse(self, *args):
        raise AssertionError("Curve built")

    monkeypatch.setattr(weierstrass.Curve, "__init__", refuse)
    assert [run_cli(capsys, *argv) for argv in lines] == expected


def test_reduce_singular_model_keeps_curve_text(capsys):
    # (-2197, 0) has order 2 on E(8), where the two-torsion model is
    # singular: the model is refused after the base point and before --p
    for one_prime in ((), ("--p", "2"), ("--p", "13")):
        assert_bad_input(
            capsys,
            "singular curve: y^2 = x^3 + (36/169)x^2 + (384/28561)x + (1024/4826809)",
            "reduce", "--t", "8", "--x", "-2197", "--y", "0", *one_prime,
        )


def test_lemmas_valuation_table(capsys):
    code, out, _ = run_cli(capsys, "lemmas", "--t", "3", "--p", "5", "--max-m", "4")
    assert code == 0
    data = json.loads(out)
    assert data["table"] == "valuations"
    assert data["all_pass"] is True
    assert all(row["pass"] for row in data["rows"])


def test_lemmas_mod3_dispatch(capsys):
    code, out, _ = run_cli(capsys, "lemmas", "--t", "2", "--p", "3", "--max-m", "3")
    assert code == 0
    data = json.loads(out)
    assert data["table"] == "mod3-signs"
    assert data["all_pass"] is True


def test_lemmas_t_divisor_dispatch(capsys):
    code, out, _ = run_cli(capsys, "lemmas", "--t", "5", "--p", "5", "--max-m", "4")
    assert code == 0
    data = json.loads(out)
    assert data["table"] == "nonsingular-residues"
    assert data["all_pass"] is True


def test_lemmas_bad_prime(capsys):
    code, _, _ = run_cli(capsys, "lemmas", "--t", "3", "--p", "7", "--max-m", "2")
    assert code == 2  # 7 divides neither t nor t^2+1


def test_lemmas_rejects_p_zero(capsys):
    code, _, err = run_cli(capsys, "lemmas", "--t", "3", "--p", "0")
    assert code == 2
    assert err.startswith("error: ")


def test_reduce_and_lemmas_reject_psi12(capsys):
    # 399165290221 * 798330580441, the least strong pseudoprime to the twelve
    # prime bases up to 37, which is_prime let through without base 41
    psi12 = "318665857834031151167461"
    for argv in (
        ("reduce", "--t", "31", "--x", "-150072", "--y", "682327360", "--p", psi12),
        ("lemmas", "--t", "31", "--p", psi12),
    ):
        assert_bad_input(capsys, f"{psi12} is not prime", *argv)


def test_reduce_and_lemmas_reject_psi13(capsys):
    # 1287836182261 * 2575672364521 passes Miller-Rabin to the thirteen prime
    # bases up to 41; the strong Lucas test rejects it
    psi13 = "3317044064679887385961981"
    for argv in (
        ("reduce", "--t", "31", "--x", "-150072", "--y", "682327360", "--p", psi13),
        ("lemmas", "--t", "31", "--p", psi13),
    ):
        assert_bad_input(capsys, f"{psi13} is not prime", *argv)


@pytest.mark.parametrize(
    ("t", "p", "checks"),
    [("3", "5", 1), ("5", "5", 1), ("31", "13", 1), ("3", "7", 1), ("2", "3", 0), ("3", "9", 1)],
)
def test_lemmas_checks_its_prime_once(capsys, monkeypatch, t, p, checks):
    # the table that runs checks p; the command does not check it first
    calls, is_prime = [], exactnum.is_prime

    def counting(n):
        calls.append(n)
        return is_prime(n)

    monkeypatch.setattr(exactnum, "is_prime", counting)
    run_cli(capsys, "lemmas", "--t", t, "--p", p, "--max-m", "2")
    assert len(calls) == checks


PSI12 = "318665857834031151167461"
#: Each bad --p with the error it must give, whatever --t and --max-m are.
BAD_LEMMAS_PRIMES = {
    "0": "0 is not prime",
    "1": "1 is not prime",
    "2": "p = 2 is out of scope for reduction analysis",
    "4": "4 is not prime",
    "9": "9 is not prime",
    "-3": "-3 is not prime",
    "-5": "-5 is not prime",
    "-13": "-13 is not prime",
    PSI12: f"{PSI12} is not prime",
}


@pytest.mark.parametrize("p", BAD_LEMMAS_PRIMES)
def test_lemmas_bad_prime_reported_whatever_t(capsys, p):
    for t in ("0", "1", "-1", "2", "3", "5", "13", "31", "-31"):
        for max_m in ("0", "2", "13"):
            assert_bad_input(
                capsys, BAD_LEMMAS_PRIMES[p], "lemmas", f"--t={t}", f"--p={p}", "--max-m", max_m
            )


def test_reduce_rejects_nonpositive_factor_bound(capsys):
    code, _, err = run_cli(
        capsys, "reduce", "--t", "31", "--x", "-150072", "--y", "682327360", "--factor-bound=-5"
    )
    assert code == 2
    assert "bound" in err


@pytest.mark.parametrize(
    "bound_args, cofactor, bound",
    [((), 1164476740865017, 1000000), (("--factor-bound=1000",), 250947100379718378619493, 1000)],
)
def test_reduce_refuses_unfactorable_coordinate(capsys, bound_args, cofactor, bound):
    # y's numerator is 43 * 1531 * 140759 * 5268539 * 221024603: the
    # cofactor left by trial division is composite, with no prime factor
    # up to the bound, so reduce refuses instead of guessing.
    assert_bad_input(
        capsys,
        f"10790725316327890280638199 has a cofactor {cofactor} "
        f"unfactorable at desk scale (bound {bound})",
        "reduce", "--t", "21", "--x=47258069343691701/8210172100",
        "--y=-10790725316327890280638199/743923693981000", *bound_args,
    )


# ---------------------------------------------------------------------------
# catalog and output determinism
# ---------------------------------------------------------------------------

def test_catalog_command(capsys):
    code, out, _ = run_cli(capsys, "catalog")
    assert code == 0
    data = json.loads(out)
    names = [entry["name"] for entry in data]
    assert "gibbs" in names and "family-t6" in names
    gibbs = next(e for e in data if e["name"] == "gibbs")
    assert gibbs["elements"][0] == "11/192"


def test_output_deterministic(capsys):
    _, out1, _ = run_cli(capsys, "family", "--t", "6")
    _, out2, _ = run_cli(capsys, "family", "--t", "6")
    assert out1 == out2
    _, out3, _ = run_cli(capsys, "verify", "1", "3", "8", "120")
    _, out4, _ = run_cli(capsys, "verify", "1", "3", "8", "120")
    assert out3 == out4


GOLDEN_VERIFY_123 = """\
{
  "elements": [
    "1",
    "2",
    "3"
  ],
  "all_pass": false,
  "nonzero": true,
  "distinct": true,
  "pairs": [
    {
      "i": 1,
      "j": 2,
      "product_plus_one": "3",
      "square_root": null
    },
    {
      "i": 1,
      "j": 3,
      "product_plus_one": "4",
      "square_root": "2"
    },
    {
      "i": 2,
      "j": 3,
      "product_plus_one": "7",
      "square_root": null
    }
  ]
}
"""


def test_golden_verify_json(capsys):
    _, out, _ = run_cli(capsys, "verify", "1", "2", "3")
    assert out == GOLDEN_VERIFY_123


#: The sextuple of ``generate --t=-9/8 --m 5 --n 4``: its last three
#: elements have numerators and denominators of 1,347 to 1,382 digits.
LARGE_SEXTUPLE = tuple(
    json.loads((Path(__file__).parent / "data" / "sextuple_t-9_8_m5_n4.json").read_text())
)


#: The digest of ``generate --t 6 --m 8 --n 5``'s refusal, CPython's int/str
#: digit-limit error, which 3.10 words "limit (4300)" and 3.11 on "limit
#: (4300 digits)".
_T6_M8_N5_REFUSAL = (
    "c397b8162457a6d4a551ba6de893c842e6a2c3ddfb2c49eb6eb31c442e614743"
    if sys.version_info < (3, 11)
    else "1132317b5f48e6921441bed3ae25f262a4a8b505cd54166c0df9acefe2573bd1"
)

#: (argv, exit code, sha256 of stdout) for the README commands; pins every
#: byte of the JSON so that refactors cannot drift the output format.
GOLDEN_CLI_DIGESTS = [
    (("generate", "--t", "6", "--m", "2", "--n", "1"), 0,
     "597499615e644910cf717d9bd4e821196bfb4064269eb5528e0526271d94a28f"),
    (("generate", "--t", "6", "--m", "2", "--n", "1", "--route", "closed-form"), 0,
     "c13309c35cf8886963adcf9458fdf432eb9dcbe9d350ca71fd94f171b8eac576"),
    # m = 3: one isogeny preimage has x = v, where w takes the tangent slope
    (("generate", "--t", "6", "--m", "3", "--n", "2"), 0,
     "57b55764666fd4e66bec25f40cd33dea7d9b5e1668f465a8a955aa56ce12022b"),
    (("generate", "--t=5/3", "--m", "4", "--n", "3"), 0,
     "10e7ff9f3b2fd7d5ae92d560735f4ff8b4acf307bdca4123983e94d517ab5345"),
    (("triple", "--t", "2", "--m", "2"), 0,
     "374b4d05b4fa4df616211522ab8d2843025f90a59931974cb0d3e7d7089ea157"),
    (("verify", "11/192", "35/192", "155/27", "512/27", "1235/48", "180873/16"), 0,
     "9e3f379f175c4623f104674b9e91e41462acb883c167348957a8aa32c3c3bb7f"),
    (("family", "--t", "6"), 0,
     "30c1f39a79dc6d8054bcfd85c87432ed0209b648a65b146e07aacfd55c24c97d"),
    (("scan", "--from", "11/8", "--to", "12/5", "--step", "1/8"), 0,
     "427441424c6dbb57d645f21aaf660134420cb764e8671558a00d2ae3193be745"),
    # negative t with q > 1, and a scan across the excluded t = -1, 0, 1
    (("family", "--t=-17/13"), 0,
     "d084aa9c4818bb50d9304a9af47759f2b59db12529de1a48669444deefb62dfd"),
    (("scan", "--from=-3/2", "--to=3/2", "--step=1/2"), 0,
     "ddf929fc5bf285a82efbb64a18baca4dff1ee09db8f095477b22c2184c74ff3c"),
    (("reduce", "--t", "31", "--x", "-150072", "--y", "682327360"), 0,
     "49a26c63cf1a38c8cc26955100c3fe8a080041640897b9d95f267f5c66a42c49"),
    (("reduce", "--t", "31", "--x", "-150072", "--y", "682327360", "--p", "13"), 0,
     "0d93acf58b8b581257ff09dbd5d8612301c7b30a57827c030eb633fec6e658ab"),
    # [4]R at t = 81: primes in six trial-division blocks and a prime
    # cofactor above 10^12; [4]R at t = 30: a refusal, digested on stderr
    (("reduce", "--t", "81", "--x=-151114833807437138470625976/4403749235540328025",
      "--y=-198233143917514773432929819565756159232/9241317070754070234434739875"), 0,
     "f5bf31f00414f920a1cafa5d9b2f26e80c6db8d9d455b5893296678b77697939"),
    (("reduce", "--t", "30", "--x=4239306332146890561578385/3514891553257795216",
      "--y=-18848686376718984243629381684965196399/6589734163630115018286931264"), 2,
     "e8b7e17cb655220568862af6a3696ed3dc8309794374e3139e9bcf5876d5bfac"),
    (("lemmas", "--t", "3", "--p", "5", "--max-m", "4"), 0,
     "0d139a349f416da8c2914fe67fe7a499c298073d6c2254ba9b9a1a2036ac1e23"),
    (("lemmas", "--t", "2", "--p", "3", "--max-m", "3"), 0,
     "a476453f9609cbc8eabcf3e9b0edc9890475e06bf4c8e5009dc9340be23c12dd"),
    (("lemmas", "--t", "5", "--p", "5", "--max-m", "6"), 0,
     "6199f22eff1e4a216559d9c670eb2c0414c58079345f7b7e7f7e898529df60d6"),
    (("catalog",), 0,
     "ef385a310e15b60d84d068aa26346878b9074fe3569dc1643e748f7f40126ef9"),
    # certificates: three failing pairs; a zero element, a repeated element
    # and two products + 1 equal to 0; a passing sextuple of large elements
    (("verify", "--", "1", "3", "8", "121"), 1,
     "90769ad26229f9f145a2a89f172faed1d1fc2ca1668d0f24c80308db7e28b6c2"),
    (("verify", "--", "2", "-1/2", "0", "2"), 1,
     "a797f7f8db8e9bf9640f861a36efc197122e9a35ea9636a7bbd4ff9714f299fa"),
    (("verify", "--", *LARGE_SEXTUPLE), 0,
     "79d3364d7dcf2a76960514fe32ac7e71e1f89be469d9ba7e0048170367270cf5"),
    # certificate squares of up to 4,260 digits, just under the int/str
    # digit limit; a cell in the caps whose certificate crosses the limit
    # (ROADMAP item 1), a refusal digested on stderr
    (("generate", "--t=-9/8", "--m", "6", "--n", "4"), 0,
     "dc03f2d0960269022df635297ff288c598059c0bc13c777561629e556f855725"),
    (("generate", "--t", "6", "--m", "8", "--n", "5"), 2, _T6_M8_N5_REFUSAL),
]


def _case_id(argv) -> str:
    """The argv as one line, with arguments past 200 characters cut short."""
    return " ".join(a if len(a) <= 200 else f"{a[:16]}...[{len(a)} chars]" for a in argv)


@pytest.mark.parametrize(
    "argv, code, digest", GOLDEN_CLI_DIGESTS, ids=[_case_id(c[0]) for c in GOLDEN_CLI_DIGESTS]
)
def test_golden_cli_bytes(capsys, argv, code, digest):
    got_code, out, err = run_cli(capsys, *argv)
    assert got_code == code
    # an answer writes only to stdout and a refusal only to stderr
    assert hashlib.sha256((out + err).encode()).hexdigest() == digest


def test_no_command_builds_a_pair_witness(capsys, monkeypatch):
    """The commands read the certificate's integer rows and the bad-prime
    scan's rows; witnesses and reduction reports are built only when
    pair_results or entries is read, anew on each read, and a report by
    classify."""
    built, reports = [], []
    init, report_init = PairWitness.__init__, ReductionReport.__init__

    def counted(self, *args):
        built.append(args[:2])
        init(self, *args)

    def counted_report(self, *args):
        reports.append(args[0])
        report_init(self, *args)

    monkeypatch.setattr(PairWitness, "__init__", counted)
    monkeypatch.setattr(ReductionReport, "__init__", counted_report)
    for argv, code, _ in GOLDEN_CLI_DIGESTS:
        before = len(reports)
        assert run_cli(capsys, *argv)[0] == code
        assert len(reports) - before == (argv[0] == "reduce" and "--p" in argv), argv
    assert built == []
    assert reports == [13]
    report = verify_tuple([1, 3, 8])
    witnesses = report.pair_results
    assert all(type(w) is PairWitness for w in witnesses)
    assert built == [(1, 2), (1, 3), (2, 3)]
    assert report.pair_results == witnesses and built == [(1, 2), (1, 3), (2, 3)] * 2
    scan = bad_primes_epp(31, Point(-150072, 682327360))
    assert reports == [13]
    entries = scan.entries
    assert [p for p, _ in entries] == reports[1:] == [3, 5, 11, 13, 31, 37]
    assert all(type(rep) is ReductionReport and rep.p == p for p, rep in entries)
    assert scan.entries == entries and reports[7:] == reports[1:7]


def test_parser_is_built_once():
    assert build_parser() is build_parser()


_REDUCE_31 = ("reduce", "--t", "31", "--x", "-150072", "--y", "682327360")
COMMANDS = ("generate", "verify", "triple", "family", "scan", "reduce", "lemmas", "catalog")

#: Valid and malformed calls for the two parse routes of ``main``.
PARSE_CORPUS = [
    # no command, an unknown command, and help at the top level
    (), ("bogus",), ("bogus", "--t", "6"), ("-h",), ("--help",), ("--", "family", "--t", "6"),
    # help at the command level
    *((name, "--help") for name in COMMANDS),
    ("family", "-h"), ("family", "--t=6", "-h"), ("family", "--he"),
    # a missing required option, a missing value, an unknown option, a stray positional
    ("family",), ("reduce", "--t", "31", "--x", "-150072"), ("family", "--t"),
    ("family", "--t", "6", "--out"),
    ("family", "--t", "6", "--bogus"), (*_REDUCE_31, "--bogus"), (*_REDUCE_31, "--bogus", "x"),
    ("family", "--t", "6", "extra"), ("catalog", "extra"), ("catalog", "--bogus", "-1"),
    # values that are rejected when converted or when the command runs
    ("generate", "--t", "abc"), ("family", "--t", "-5/3"), ("family", "--t", "1"), ("verify",),
    # abbreviations, repeats, negative values and "--"
    (*_REDUCE_31, "--fac", "1000"), (*_REDUCE_31, "--p", "13"), ("family", "--t", "2", "--t", "6"),
    ("family", "--t=-5/3"), ("generate", "--t=-5/3"), ("triple", "--t", "2", "--ro", "closed-form"),
    ("verify", "--", "1/2", "-3/2"), ("verify", "1", "3", "8", "120"),
    ("scan", "--from=-1/2", "--to", "1/2", "--step", "1/4"), ("lemmas", "--t", "31", "--p", "13"),
    ("catalog",),
    # the table's edges: full names in both forms, negative integers in their
    # own token, values that int() reads and parse_rat does not, empty values
    (*_REDUCE_31, "--factor-bound=1000"), (*_REDUCE_31, "--factor-bound", "1000", "--fac", "1000"),
    ("reduce", "--t", "31", "--x=-150072", "--y=682327360"), ("family", "--t", "-150072"),
    ("reduce", "--t", "٣١", "--x", "-150072", "--y", "682327360", "--p", "1_3"),
    ("lemmas", "--t", "+5", "--p", " 5 ", "--max-m", "3"), ("family", "--t", " 7 "),
    ("family", "--t", "٣١"), ("family", "--t", "-٣"), ("family", "--t", "1_000"),
    ("family", "--t", "-"), ("family", "--t="), ("family", "--t", ""), ("catalog", "--out="),
    ("scan", "--from", "-1", "--to", "1", "--step", "1/2"),
    ("generate", "--t", "6", "--route=bogus"), ("lemmas", "--t", "3", "--p", "5", "--m", "4"),
    ("family", "--t=6", "--t=6"), ("reduce", "--t", "31", "--x=-150072"),
    # "--" in other places than right after verify
    ("verify", "--"), ("verify", "1", "--", "3"), ("verify", "--", "1", "--", "3"),
    ("verify", "--", "--", "1"),
    ("verify", "--", "1", "3", "--out"), ("family", "--", "--t", "6"), ("family", "--t", "6", "--"),
    ("family", "--t", "--", "6"), ("catalog", "--"),
    # "--" as the value after "=": an option given no value, on every interpreter
    ("family", "--t=--"), ("generate", "--t", "6", "--m=--"), ("lemmas", "--t", "3", "--p=--"),
    ("reduce", "--t=--", "--x", "1", "--y", "1"), ("catalog", "--out=--"),
]


@pytest.mark.parametrize("argv", PARSE_CORPUS, ids=[" ".join(argv) or "(none)" for argv in PARSE_CORPUS])
def test_parse_routes_agree(capsys, monkeypatch, argv):
    """``main`` reads a well-formed call from the option table and leaves
    every other call to argparse; the reference route parses every call with
    ``build_parser().parse_args`` before ``main`` calls ``args.func``.  Both
    give the same exit code, stdout, stderr and namespace."""
    routes = {"main": cli._parse, "top-level": lambda argv: build_parser().parse_args(argv)}
    results = {}
    for name, parse in routes.items():
        namespaces = []

        def recording(argv, parse=parse):
            args = parse(argv)
            namespaces.append(vars(args))
            return args

        monkeypatch.setattr(cli, "_parse", recording)
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        results[name] = (code, *capsys.readouterr(), namespaces)
    assert results["main"] == results["top-level"]


#: Each command's options, and a value each accepts.
OPTIONS = {
    "generate": {"--t": "6", "--m": "3", "--n": "2", "--route": "closed-form", "--out": "o.json"},
    "verify": {"--file": "e.json", "--out": "o.json"},
    "triple": {"--t": "2", "--m": "3", "--route": "isogeny", "--out": "o.json"},
    "family": {"--t": "-17/13", "--out": "o.json"},
    "scan": {"--from": "1/2", "--to": "3", "--step": "1/4", "--out": "o.json"},
    "reduce": {"--t": "31", "--x": "-150072", "--y": "682327360", "--p": "13",
               "--factor-bound": "1000", "--out": "o.json"},
    "lemmas": {"--t": "31", "--p": "13", "--max-m": "4", "--out": "o.json"},
    "catalog": {"--out": "o.json"},
}
REQUIRED = {"--t", "--x", "--y", "--from", "--to", "--step"}  # and lemmas' --p
VALUES = ("", "-150072", "-5/3", "٣١", "1_000", "+5", " 7 ", "6", "-", "--", "-h", "isogeny")
#: Words out of place: abbreviations, help, unknown names, "--", a stray value.
NOISE = ("bogus", "fam", "--fac", "--ro", "--m", "--fr", "--st", "-h", "--help", "--bogus", "-t",
         "--", "x", *{name for options in OPTIONS.values() for name in options})


@st.composite
def command_lines(draw):
    """A well-formed command line, its options in any order and form, with
    up to three edits: a value swapped for a doubtful one, an option dropped
    or repeated, a word inserted anywhere (the command's place included)."""
    command = draw(st.sampled_from(list(OPTIONS)))
    options = OPTIONS[command]
    names = [name for name in draw(st.permutations(list(options)))
             if name in REQUIRED or (command, name) == ("lemmas", "--p") or draw(st.booleans())]
    values = [options[name] for name in names]
    inserts = []
    for _ in range(draw(st.integers(0, 3))):
        edit = draw(st.sampled_from(("value", "drop", "repeat", "insert")))
        k = draw(st.integers(0, len(names)))
        if edit == "insert":
            inserts.append((k, draw(st.sampled_from(NOISE))))
        elif k < len(names) and edit == "value":
            values[k] = draw(st.sampled_from(VALUES))
        elif k < len(names) and edit == "drop":
            del names[k], values[k]
        elif k < len(names):
            names.append(names[k])
            values.append(draw(st.sampled_from((options[names[k]], *VALUES))))
    words = []
    for name, value in zip(names, values):
        words += [f"{name}={value}"] if draw(st.booleans()) else [name, value]
    if command == "verify":
        elements = st.sampled_from(("1", "3", "8", "120", "-1/2", ""))
        elements = draw(st.lists(elements, min_size=1, max_size=4))
        lead = ["--"] if draw(st.booleans()) else []
        words = [*lead, *elements, *words] if draw(st.booleans()) else [*words, *lead, *elements]
    argv = [command, *words]
    for k, word in inserts:
        argv.insert(min(k, len(argv)), word)
    return argv


def _parse_outcome(parse, argv):
    """The namespace's attributes, or argparse's exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return vars(parse(argv))
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue()


@settings(max_examples=600, deadline=None, derandomize=True)
@given(command_lines())
def test_table_parse_agrees_with_argparse(argv):
    """``cli._parse`` reads a well-formed command line from the table and
    leaves every other to argparse: either way it gives what
    ``build_parser().parse_args`` gives."""
    assert _parse_outcome(cli._parse, argv) == _parse_outcome(build_parser().parse_args, argv)


#: Every option of every command given as ``--opt=--``, after the
#: command's other required options.
DASH_VALUES = [
    (command, *(f"{other}={value}" for other, value in options.items() if other != name
                and (other in REQUIRED or (command, other) == ("lemmas", "--p"))), f"{name}=--")
    for command, options in OPTIONS.items() for name in options
]


@pytest.mark.parametrize("argv", DASH_VALUES, ids=" ".join)
def test_dash_dash_after_equals_is_a_missing_value(capsys, monkeypatch, tmp_path, argv):
    """``--opt=--`` exits 2 with the command's usage and one error line,
    and writes no file: argparse before CPython 3.13 drops the ``--`` and
    stores [], and 3.13 reads ``--`` as the value."""
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as info:
        main(list(argv))
    out, err = capsys.readouterr()
    command, option = argv[0], argv[-1].removesuffix("=--")
    assert (info.value.code, out) == (2, "")
    assert err.startswith(f"usage: dioph6 {command} [-h]")
    assert err.endswith(f"\ndioph6 {command}: error: argument {option}: expected one argument\n")
    assert err.count("error:") == 1
    assert list(tmp_path.iterdir()) == []


#: One command line of each shape the benchmark runs.
BENCH_SHAPES = [
    ("generate", "--t=-5/3", "--m", "3", "--n", "2"),
    ("generate", "--t=6", "--m", "2", "--n", "1", "--route", "closed-form"),
    ("verify", "--", "1", "3", "8", "120"),
    ("family", "--t=-17/13"),
    ("scan", "--from=-3/2", "--to=-1", "--step=1/8"),
    ("reduce", "--t", "31", "--x=-150072", "--y=682327360"),
    ("reduce", "--t", "31", "--x=-150072", "--y=682327360", "--p", "13"),
    ("lemmas", "--t", "31", "--p", "13", "--max-m", "4"),
    ("catalog",),
]


def test_well_formed_command_lines_skip_argparse(capsys, monkeypatch):
    """The golden command lines and the benchmark's shapes are read from the
    table: with argparse's parsing disabled they print the same bytes."""
    expected = [run_cli(capsys, *argv) for argv in BENCH_SHAPES]

    def refuse(*args, **kwargs):
        raise AssertionError("argparse parsed a well-formed command line")

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", refuse)
    for argv, code, digest in GOLDEN_CLI_DIGESTS:
        got_code, out, err = run_cli(capsys, *argv)
        assert (got_code, hashlib.sha256((out + err).encode()).hexdigest()) == (code, digest)
    assert [run_cli(capsys, *argv) for argv in BENCH_SHAPES] == expected
    with pytest.raises(AssertionError, match="argparse parsed"):
        main(["family", "--t", "2", "--t", "6"])


def test_parser_reused_after_rejection(capsys):
    with pytest.raises(SystemExit) as info:
        main(["generate", "--t", "abc"])
    assert info.value.code == 2
    assert "not a rational: 'abc'" in capsys.readouterr().err
    argv, code, digest = GOLDEN_CLI_DIGESTS[0]
    assert argv == ("generate", "--t", "6", "--m", "2", "--n", "1")
    got_code, out, _ = run_cli(capsys, *argv)
    assert got_code == code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_console_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "dioph6.cli", "family", "--t", "6"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["negatives"] == 0


def test_lowered_digit_limit_refuses_the_certificate():
    """Under ``-X int_max_str_digits=2000`` the large sextuple's elements
    (up to 1,382 digits) are read, but its certificate's products + 1 are
    past the limit: the command refuses with the interpreter's own message,
    as ``str()`` does, however its squares are written."""
    limit = ["-X", "int_max_str_digits=2000"]
    probe = subprocess.run(
        [sys.executable, *limit, "-c", "str(10**2000)"], capture_output=True, text=True
    )
    message = probe.stderr.strip().splitlines()[-1].removeprefix("ValueError: ")
    assert message.startswith("Exceeds the limit (2000")
    result = subprocess.run(
        [sys.executable, *limit, "-m", "dioph6.cli", "verify", "--", *LARGE_SEXTUPLE],
        capture_output=True,
        text=True,
    )
    assert (result.returncode, result.stdout, result.stderr) == (2, "", f"error: {message}\n")
