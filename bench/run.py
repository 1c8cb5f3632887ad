"""The dioph6 benchmark.

    python3 bench/run.py --workload construct --seed 1 --seconds 10 --trace 0

Run from a checkout of the repository: the program is imported from its
``src/`` directory.  One client drives ``dioph6.cli.main([...])`` in a
closed loop, in this process, with stdout and stderr captured: each
operation starts when the previous one has returned.  A workload is a
fixed list of operations (a pass) built from the seed; the loop runs
whole passes until ``--seconds`` have passed and at least MIN_PASSES are
complete.

Each operation's time is the lower quartile of its repeats in the run.  On
a shared host the speed of this process drifts by tens of percent for
seconds at a time, whatever the program does; repeats spread over the
run and a low quantile of them give the op's service time without most
of that drift.  Unlike the fastest repeat, a quantile does not fall as
the number of repeats grows, so a faster program, which fits more passes
into the run, is not favoured by its extra repeats.  The median and tail
are then taken across the operations of one pass, and ``ok_share`` is the
share of them that were never refused and never failed.

The host also runs slower or faster by up to a third for minutes at a
time, longer than a run.  So the run times a fixed probe computation that
shares no code with dioph6 between operations, and every reported time
is scaled to a host on which the probe takes PROBE_S: an op time is its
measured time divided by the probe's lower quartile over the run, in
units of PROBE_S.  A change to the program moves the reported times in
full; a change of host speed moves op and probe alike and cancels, as
far as the probe does the same kind of work as the workload
(RUN_PROBES).  ``setup_s`` is scaled by group-law probes taken beside the
imports.  The unscaled values and the host factors are in the report.

Every operation's exit code and output are checked by an oracle that
shares no code with dioph6 (``oracle.py``).  An exit code of 2 is a
refusal when the oracle confirms it as one the program documents: the
4300-digit int/str conversion limit (ROADMAP item 2) or an
``UnfactorableError`` past the trial-division bound.  Refused operations
count against ``ok_share`` and ``ok_ops_per_s`` and are listed with their
(t, m, n, p), but are not failed.  An operation fails when it raises,
exits 2 in any other way, or disagrees with the oracle (wrong output or
wrong verdict); only the last two make the run incorrect and its exit
code 1.

The last line of stdout is the result: with ``--trace 0`` the end-to-end
metrics below, with ``--trace 1`` the per-layer metrics of a traced run.
The line before it is a report: the sha256 of the inputs, every refusal
and failure with its (t, m, n, p), a table of every operation with its
repeats, its lower-quartile, fastest and median time (unscaled) and its
largest output digit count, and in traced runs the acceptance suite's
timing lines.  Traced runs also write their spans to
``bench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import math
import os
import re
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import oracle
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Set-up (a fresh import of dioph6) is timed this many times before the
#: measurement and as many after it; setup_s is the lower quartile of all,
#: as for operations, since file access makes single imports vary by half.
#: Building the inputs is benchmark work and is reported, ungated, as
#: inputs_build_s.
SETUP_REPEATS = 15
MIN_PASSES = 4
#: The host-speed probe runs between operations at most this often.
PROBE_EVERY = 0.2
#: Reported times are scaled to a host on which the probe takes this long.
PROBE_S = 1e-3
#: The run re-executes itself under this hash seed: CPython salts string
#: hashes per process, and the salt alone moves reduce's times by a tenth.
HASH_SEED = "0"
TAIL_LADDER = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10

#: Per workload: ok_ops_per_s is construct.sextuples_per_s,
#: certify.tuples_per_s and reduce.ops_per_s; ok_share is 1 - fail_share.
END_TO_END = {
    "setup_s": "s",
    "ok_ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "ok_share": "ratio",
    "peak_rss_mb": "MB",
}

#: Counts and times are per traced pass; trace.overhead_share compares
#: traced with plain passes, each scaled by the host factor of its own probes.
PER_LAYER = {
    "weierstrass.add.calls": "count",
    "weierstrass.mul.calls": "count",
    "weierstrass.mul.k_sum": "count",
    "weierstrass.self_s": "s",
    "weierstrass.max_coord_digits": "digits",
    "family.triple.calls": "count",
    "family.triple.self_s": "s",
    "family.self_s": "s",
    "sextuple_engine.extend.calls": "count",
    "sextuple_engine.extend.self_s": "s",
    "sextuple_engine.verify.pairs": "count",
    "sextuple_engine.verify.square_share": "ratio",
    "sextuple_engine.verify.self_s": "s",
    "sextuple_engine.self_s": "s",
    "exactnum.sqrt_exact.calls": "count",
    "exactnum.sqrt_exact.self_s": "s",
    "exactnum.factor.calls": "count",
    "exactnum.factor.self_s": "s",
    "exactnum.factor.refused": "count",
    "exactnum.vp.calls": "count",
    "exactnum.vp.self_s": "s",
    "exactnum.text.self_s": "s",
    "exactnum.text.max_digits": "digits",
    "exactnum.self_s": "s",
    "paramfam.family_point.calls": "count",
    "paramfam.family_point.self_s": "s",
    "paramfam.self_s": "s",
    "reduction_lab.classify.calls": "count",
    "reduction_lab.tables.self_s": "s",
    "reduction_lab.self_s": "s",
    "cli.self_s": "s",
    "cli.bytes_out": "bytes",
    "trace.overhead_share": "ratio",
    "trace.self_share": "ratio",
}


class ProgramMissing(Exception):
    """The checkout holds no dioph6 sources to benchmark."""


def load_program():
    """Import ``dioph6.cli`` afresh from the checkout's ``src/``."""
    src = ROOT / "src"
    if not (src / "dioph6" / "cli.py").is_file():
        raise ProgramMissing(f"no dioph6 sources under {src}")
    if sys.path[0] != str(src):
        sys.path.insert(0, str(src))
    for name in [n for n in sys.modules if n == "dioph6" or n.startswith("dioph6.")]:
        del sys.modules[name]
    cli = importlib.import_module("dioph6.cli")
    if Path(cli.__file__).resolve().parent != src / "dioph6":
        raise ProgramMissing(f"dioph6 was imported from {cli.__file__}, not from {src}")
    return cli


def probe() -> float:
    """Time one run of the host-speed probe: the oracle's own group law on
    the first sixteen multiples of a fixed point, Fraction arithmetic from a
    few digits to a few hundred, as the program does.  The probe shares no
    code with dioph6, so its time moves with the host and not with the program."""
    start = time.perf_counter()
    oracle.multiples(Fraction(7, 5), 16)
    return time.perf_counter() - start


_BIG = (3**9000 + 12345, 7**7000 + 999)  # about 4,300 and 5,900 digits


def probe_bignum() -> float:
    """Time one run of the large-number probe: the integer square root of
    a fixed product of about 10,000 digits, arithmetic in C on numbers the
    size of construct's largest cells."""
    start = time.perf_counter()
    math.isqrt(_BIG[0] * _BIG[1])
    return time.perf_counter() - start


#: The probe that scales each workload's times.  A loaded host slows
#: interpreted code on small numbers more than C arithmetic on numbers of
#: thousands of digits: construct's time is mostly the latter and slows about
#: half as much as the group-law probe, so the group-law probe would
#: overcorrect it; certify and reduce track the group-law probe.
RUN_PROBES = {"construct": probe_bignum, "certify": probe, "reduce": probe}


def setup() -> tuple[object, list[float], list[float]]:
    """Import the program SETUP_REPEATS times, each followed by a probe;
    return it, the time of each import and the time of each probe."""
    times, probes = [], []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        cli = load_program()
        times.append(time.perf_counter() - start)
        probes.append(probe())
    return cli, times, probes


def lower_quartile(values: list[float]) -> float:
    return statistics.quantiles(values, n=4, method="inclusive")[0] if len(values) > 1 else values[0]


def _first_line(text: str) -> str:
    return text.strip().splitlines()[0] if text.strip() else ""


class Runner:
    """Runs operations one after another and keeps their samples and outcomes."""

    def __init__(self, cli, ops, workload: str):
        self.cli = cli
        self.ops = ops
        self.workload = workload
        self.samples: list[list[float]] = [[] for _ in ops]
        self.out_bytes = [0] * len(ops)
        self.out_digits: list[int | None] = [None] * len(ops)
        self.verified: list[set[bytes]] = [set() for _ in ops]  # sha256 of (code, out) checked
        self.failures: dict[int, dict] = {}
        self.refusals: dict[int, dict] = {}
        self.diagnoses: dict[tuple, tuple[str, str, bool]] = {}
        self.attempted = 0
        self.failed = 0
        self.refused = 0
        self.wrong = 0
        self.probe = RUN_PROBES[workload]
        self.probes: list[float] = []
        self.last_probe = 0.0

    def call(self, argv):
        """One timed ``main`` call: (exit code or None, seconds, stdout, stderr, exception)."""
        out, err = io.StringIO(), io.StringIO()
        code, raised = None, None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = self.cli.main(argv)
            except SystemExit as exc:  # argparse rejects the arguments
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception as exc:  # an op that raises is a failed op, not the end of the run
                raised = exc
            elapsed = time.perf_counter() - start
        return code, elapsed, out.getvalue(), err.getvalue(), raised

    def diagnose(self, op, err: str) -> tuple[str, str, bool]:
        """Exception type and message behind an exit code of 2, and whether
        the oracle confirms it as a documented refusal.

        ``main`` prints only the message, so the command is run once more,
        untimed, without ``main``'s handler.  Results are cached by message;
        a traced run diagnoses them in its first, plain pass.
        """
        key = (op.kind, _first_line(err))
        if key not in self.diagnoses:
            found = ("exit 2", _first_line(err))
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                try:
                    args = self.cli.build_parser().parse_args(op.argv)
                    args.func(args)
                except SystemExit:
                    pass
                except Exception as exc:
                    found = (type(exc).__name__, _first_line(str(exc)))
            self.diagnoses[key] = (*found, oracle.refusal(*found))
        return self.diagnoses[key]

    def _record(self, table: dict[int, dict], i: int, kind: str, message: str) -> None:
        record = table.get(i)
        if record is None:
            where = self.ops[i].where
            record = {"workload": self.workload, **{k: where.get(k) for k in ("t", "m", "n", "p")},
                      **where, "type": kind, "message": message[:300], "count": 0}
            table[i] = record
        record["count"] += 1

    def _fail(self, i: int, kind: str, message: str) -> None:
        self.failed += 1
        self._record(self.failures, i, kind, message)

    def run_op(self, i: int) -> float:
        op = self.ops[i]
        code, elapsed, out, err, raised = self.call(op.argv)
        self.samples[i].append(elapsed)
        if time.perf_counter() - self.last_probe >= PROBE_EVERY:
            self.probes.append(self.probe())
            self.last_probe = time.perf_counter()
        self.attempted += 1
        self.out_bytes[i] = len(out)
        if raised is not None:
            self._fail(i, type(raised).__name__, _first_line(str(raised)))
        elif code == 2:
            kind, message, refused = self.diagnose(op, err)
            if refused:
                self.refused += 1
                self._record(self.refusals, i, kind, message)
            else:
                self._fail(i, kind, message)
        elif (key := hashlib.sha256(f"{code}\0{out}".encode()).digest()) not in self.verified[i]:
            problem = oracle.check(op, code, out)
            if problem is None:
                self.verified[i].add(key)
                self.out_digits[i] = max(map(len, re.findall(r"\d+", out)), default=0)
            else:
                self.wrong += 1
                self._fail(i, "wrong output" if code == op.expect_code else "wrong verdict", problem)
        return elapsed

    def run_pass(self) -> float:
        return sum(self.run_op(i) for i in range(len(self.ops)))


def measure(runner: Runner, seconds: float, min_passes: int = MIN_PASSES) -> tuple[int, float]:
    """Run whole passes until ``seconds`` have passed and ``min_passes`` are
    complete; return the number of passes and the peak RSS after the first
    ``min_passes``.  The allocator keeps some of the memory freed by large
    integers, so the process grows by up to a megabyte a pass: read at the
    end, a faster program, which runs more passes, would look larger."""
    deadline = time.perf_counter() + seconds
    passes = 0
    while passes < min_passes or time.perf_counter() < deadline:
        runner.run_pass()
        passes += 1
        if passes == min_passes:
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return passes, rss_mb


def measure_traced(runner: Runner, seconds: float):
    """Alternate plain and traced passes until ``seconds`` have passed and
    each kind has run once; return the tracer and, for both kinds, each
    pass's time and the host factor of the probes taken during it."""
    tracer = tracing.Tracer()
    plain: list[tuple[float, float]] = []
    traced: list[tuple[float, float]] = []

    def timed_pass() -> tuple[float, float]:
        first = len(runner.probes)
        seconds = runner.run_pass()
        return seconds, lower_quartile(runner.probes[first:] or runner.probes[-1:]) / PROBE_S

    deadline = time.perf_counter() + seconds
    while not (plain and traced and time.perf_counter() >= deadline):
        if len(traced) < len(plain):
            tracer.install()
            try:
                traced.append(timed_pass())
            finally:
                tracer.uninstall()
        else:
            plain.append(timed_pass())
    return tracer, plain, traced


def tail_percentile(values: list[float]) -> tuple[float, float]:
    """The highest percentile in TAIL_LADDER with at least TAIL_BEYOND
    samples above its nearest rank, and its value; the median below 20 samples."""
    xs = sorted(values)
    n = len(xs)
    for q in TAIL_LADDER:
        rank = math.ceil(q / 100 * n)
        if n - rank >= TAIL_BEYOND:
            return q, xs[rank - 1]
    return 50.0, statistics.median(xs)


def end_to_end(runner: Runner, setup_times: list[float], setup_probes: list[float],
               rss_mb: float) -> tuple[dict, dict]:
    """The end-to-end metrics, with every time scaled by the host's speed in
    its own phase of the run; the unscaled values go into the report."""
    measured = [lower_quartile(s) for s in runner.samples]
    q = tail_percentile(measured)[0]
    ok_share = 1 - len(runner.failures.keys() | runner.refusals.keys()) / len(runner.ops)

    def values(run_host: float, setup_host: float) -> dict:
        times = [t / run_host for t in measured]
        return {
            "setup_s": lower_quartile(setup_times) / setup_host,
            "ok_ops_per_s": ok_share * len(times) / sum(times),
            "op_p50_ms": statistics.median(times) * 1e3,
            "op_tail_ms": tail_percentile(times)[1] * 1e3,
            "ok_share": ok_share,
            "peak_rss_mb": rss_mb,
        }

    run_host = lower_quartile(runner.probes) / PROBE_S
    setup_host = lower_quartile(setup_probes) / PROBE_S
    notes = {"tail_percentile": q, "samples": len(measured), "probes": len(runner.probes),
             "host_factor": run_host, "setup_host_factor": setup_host, "unscaled": values(1.0, 1.0)}
    return values(run_host, setup_host), notes


def layer_metrics(runner: Runner, tracer: tracing.Tracer, plain: list[tuple[float, float]],
                  traced: list[tuple[float, float]]) -> dict:
    k = len(traced)
    self_s, entries, root_total = tracer.self_times()
    module_s = dict.fromkeys(tracing.LAYERS, 0.0)
    for group, seconds in self_s.items():
        module_s[group.split(".")[0]] += seconds
    group_s = lambda g: self_s.get(g, 0.0) / k  # noqa: E731
    scaled = lambda passes: statistics.median(seconds / host for seconds, host in passes)  # noqa: E731
    c = tracer.counts
    pairs = c["verify.pairs"]
    return {
        "weierstrass.add.calls": entries["weierstrass.add"] / k,
        "weierstrass.mul.calls": entries["weierstrass.mul"] / k,
        "weierstrass.mul.k_sum": c["mul.k_sum"] / k,
        "weierstrass.self_s": module_s["weierstrass"] / k,
        "weierstrass.max_coord_digits": tracer.max_coord_digits,
        "family.triple.calls": entries["family.triple"] / k,
        "family.triple.self_s": group_s("family.triple"),
        "family.self_s": module_s["family"] / k,
        "sextuple_engine.extend.calls": entries["sextuple_engine.extend"] / k,
        "sextuple_engine.extend.self_s": group_s("sextuple_engine.extend"),
        "sextuple_engine.verify.pairs": pairs / k,
        "sextuple_engine.verify.square_share": c["verify.squares"] / pairs if pairs else 0.0,
        "sextuple_engine.verify.self_s": group_s("sextuple_engine.verify"),
        "sextuple_engine.self_s": module_s["sextuple_engine"] / k,
        "exactnum.sqrt_exact.calls": entries["exactnum.sqrt_exact"] / k,
        "exactnum.sqrt_exact.self_s": group_s("exactnum.sqrt_exact"),
        "exactnum.factor.calls": entries["exactnum.factor"] / k,
        "exactnum.factor.self_s": group_s("exactnum.factor"),
        "exactnum.factor.refused": tracer.errors[("exactnum.factor", "UnfactorableError")] / k,
        "exactnum.vp.calls": entries["exactnum.vp"] / k,
        "exactnum.vp.self_s": group_s("exactnum.vp"),
        "exactnum.text.self_s": group_s("exactnum.text"),
        "exactnum.text.max_digits": tracer.max_text_digits,
        "exactnum.self_s": module_s["exactnum"] / k,
        "paramfam.family_point.calls": entries["paramfam.family_point"] / k,
        "paramfam.family_point.self_s": group_s("paramfam.family_point"),
        "paramfam.self_s": module_s["paramfam"] / k,
        "reduction_lab.classify.calls": entries["reduction_lab.classify"] / k,
        "reduction_lab.tables.self_s": group_s("reduction_lab.tables"),
        "reduction_lab.self_s": module_s["reduction_lab"] / k,
        "cli.self_s": module_s["cli"] / k,
        "cli.bytes_out": sum(runner.out_bytes),
        "trace.overhead_share": scaled(traced) / scaled(plain) - 1,
        "trace.self_share": root_total / sum(seconds for seconds, _ in traced),
    }


def acceptance_lines() -> dict:
    """The acceptance suite's ``[criterion NN]`` lines, from a pytest subprocess."""
    suite = ROOT / "tests" / "test_acceptance.py"
    if not suite.is_file():
        return {"error": "tests/test_acceptance.py not found"}
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cmd = [sys.executable, "-m", "pytest", str(suite), "-q", "-s",
           "-p", "no:cacheprovider", "-p", "no:hypothesispytest"]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    except (OSError, subprocess.TimeoutExpired) as exc:
        return {"error": f"{type(exc).__name__}: {exc}"}
    lines = re.findall(r"\[criterion \d+\] [^\n]*", proc.stdout)
    return {"exit_code": proc.returncode, "lines": lines}


def op_table(runner: Runner) -> list[dict]:
    rows = []
    for i, op in enumerate(runner.ops):
        if i in runner.failures:
            status = runner.failures[i]["type"]
        elif i in runner.refusals:
            status = "refused: " + runner.refusals[i]["type"]
        else:
            status = "ok"
        rows.append({**op.where, "repeats": len(runner.samples[i]),
                     "q1_ms": lower_quartile(runner.samples[i]) * 1e3,
                     "best_ms": min(runner.samples[i]) * 1e3,
                     "median_ms": statistics.median(runner.samples[i]) * 1e3,
                     "digits": runner.out_digits[i],
                     "status": status})
    return rows


def with_units(values: dict, units: dict) -> dict:
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        cli, setup_times, setup_probes = setup()
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    start = time.perf_counter()
    ops = workloads.build(args.workload, args.seed)
    inputs_build_s = time.perf_counter() - start
    runner = Runner(cli, ops, args.workload)
    runner.call(ops[0].argv)  # warm-up, not counted
    gc.collect()

    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "inputs_sha256": workloads.digest(ops), "ops_per_pass": len(ops),
              "inputs_build_s": inputs_build_s}
    if args.trace:
        t0 = time.perf_counter()
        tracer, plain, traced = measure_traced(runner, args.seconds)
        metrics = with_units(layer_metrics(runner, tracer, plain, traced), PER_LAYER)
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"spans-{args.workload}-{args.seed}.jsonl"
        tracer.write_spans(spans_path, t0)
        report.update(plain_passes=plain, traced_passes=traced, spans=len(tracer.spans),
                      spans_file=str(spans_path.relative_to(ROOT)), acceptance=acceptance_lines())
    else:
        passes, rss_mb = measure(runner, args.seconds)
        _, times, probes = setup()
        values, notes = end_to_end(runner, setup_times + times, setup_probes + probes, rss_mb)
        metrics = with_units(values, END_TO_END)
        report.update(notes, passes=passes)
    report.update(refused=runner.refused, refusals=list(runner.refusals.values()),
                  failures=list(runner.failures.values()), ops=op_table(runner))
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": runner.wrong == 0, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0 if runner.wrong == 0 else 1


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, "PYTHONHASHSEED": HASH_SEED})
    sys.exit(main())
