#!/usr/bin/env python3
"""Benchmark for the wps toolkit: closed-loop, single-process workloads.

    python3 bench/run.py --workload oracle-batch --seed 1 --seconds 30 --trace 0

One client runs one operation at a time, with no threads, for --seconds.
Times are scaled to a reference speed by a calibration kernel (see Clock).
Every answer is checked against bench/reference.py after the timed phase.
With --trace 0 the result carries the end-to-end metrics; with --trace 1
it carries per-layer metrics from spans around each wps function
(bench/tracing.py) and the tracing overhead.  The last line of stdout is
the result object; the line before it is a JSON report with provenance,
the input digest and every count behind the metrics.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import gc
import os
import pickle
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"  # spans, and the outputs spooled for checking
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402
import workloads  # noqa: E402

BUDGET_S = 10.0  # per operation, enforced with an interval timer
# Times are scaled to a reference speed: the CPU this runs on drifts by
# +-25% over seconds, so a fixed kernel runs every CALIBRATE_EVERY_S between
# operations, and each time is multiplied by REF_KERNEL_S / (the median of
# the nearest kernel times).  1 ms then means 1 ms on a machine where the
# kernel takes REF_KERNEL_S.
REF_KERNEL_S = 0.0025
CALIBRATE_EVERY_S = 0.05
MIN_OPS = 100  # p90 then has at least 10 samples beyond it
POOL = {"oracle-batch": 2000, "truncate-sweep": 3000, "cli-mix": 4000}
SETUP_PROBES = 7
# A traced run replays a fixed prefix of the inputs (whole rounds of the
# workload's slots), so its counts repeat exactly for a seed.
TRACED_OPS = {"oracle-batch": 70, "truncate-sweep": 60, "cli-mix": 210}

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}
# (metric, unit): "<span>.calls" and "<span>.self_s" come from the spans
# named by the prefix; the rest are computed in per_layer().
PER_LAYER = [
    ("oracle.ClosureEquality.equal.calls", "count"),
    ("oracle.ClosureEquality.equal.self_s", "s"),
    ("oracle.pairs.equal_ratio", "ratio"),
    ("oracle.enumerate_wps_points.vectors", "count"),
    ("oracle.enumerate_wps_points.self_s", "s"),
    ("oracle.enumerate.useful_ratio", "ratio"),
    ("geometry.eq_geometric.calls", "count"),
    ("geometry.eq_geometric.self_s", "s"),
    ("geometry.normalize.calls", "count"),
    ("geometry.normalize.self_s", "s"),
    ("geometry.eq_rational.self_s", "s"),
    ("exactmath.fpelem.created", "count"),
    ("exactmath.PrimeField.units.self_s", "s"),
    ("exactmath.is_prime.self_s", "s"),
    ("exactmath.upoly_gcd.calls", "count"),
    ("exactmath.upoly_gcd.self_s", "s"),
    ("truncation.graded_piece_basis.calls", "count"),
    ("truncation.graded_piece_basis.monomials", "count"),
    ("truncation.graded_piece_basis.self_s", "s"),
    ("truncation.veronese_generators.self_s", "s"),
    ("truncation.veronese.useful_ratio", "ratio"),
    ("wpoly.evaluate.calls", "count"),
    ("wpoly.evaluate.self_s", "s"),
    ("wpoly.WPolynomial.mul.calls", "count"),
    ("wpoly.WPolynomial.mul.self_s", "s"),
    ("curves.sufficiently_general.calls", "count"),
    ("curves.branch_census.self_s", "s"),
    ("parser.parse_polynomial.self_s", "s"),
    ("weights.well_form.self_s", "s"),
    ("hilbert.numerator_from_sequence.self_s", "s"),
    ("hilbert.expand.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("trace.overhead_frac", "ratio"),
]


class OverBudget(BaseException):
    """Raised by the per-operation timer; a BaseException, so no handler in
    the program can swallow it."""


def _on_alarm(signum, frame):
    raise OverBudget


def kernel() -> float:
    """Seconds taken by fixed pure-Python work: tuples, a dict, modular
    powers and a sort, like the interpreter work of the workloads."""
    t0 = perf_counter()
    d: dict = {}
    for i in range(3000):
        t = (i % 7, i % 11, pow(i, 3, 13))
        d[t] = d.get(t, 0) + sum(t)
    sorted(d.items())
    return perf_counter() - t0


class Clock:
    """Kernel samples over a run, to scale times to the reference speed."""

    def __init__(self):
        self.at: list[float] = []
        self.took: list[float] = []

    def sample(self) -> None:
        self.at.append(perf_counter())
        self.took.append(kernel())

    def due(self) -> bool:
        return not self.at or perf_counter() - self.at[-1] >= CALIBRATE_EVERY_S

    def scale(self, t: float) -> float:
        """REF_KERNEL_S over the median of the 5 kernel times nearest to t."""
        j = bisect.bisect(self.at, t)
        near = self.took[max(0, j - 3) : j + 2]
        return REF_KERNEL_S / statistics.median(near)


def setup(workload: str, seed: int):
    """Import wps and build the workload's inputs; returns the elapsed time too."""
    t0 = perf_counter()
    import wps
    import wps.cli

    build, prepare, _, _ = workloads.WORKLOADS[workload]
    specs = build(random.Random(seed), POOL[workload])
    items = prepare(specs, wps)
    return wps, specs, items, perf_counter() - t0


def probe_setup(workload: str, seed: int) -> list[float]:
    """setup() in fresh interpreters, one after another, each scaled by the
    kernel times measured right after it."""
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--setup-probe"],
            capture_output=True, text=True, timeout=120, cwd=ROOT, check=True,
        )
        out.append(float(proc.stdout.split()[-1]))
    return out


def timed(call, item):
    """(start, latency_s, output, error) of one operation under the budget."""
    t0 = perf_counter()
    signal.setitimer(signal.ITIMER_REAL, BUDGET_S)
    try:
        out, err = call(item), None
    except OverBudget:
        out, err = None, f"over the {BUDGET_S:g} s budget"
    except Exception as exc:  # a traceback is an error answer, not a crash
        out, err = None, f"{type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return t0, perf_counter() - t0, out, err


def run_ops(call, items, seconds: float, clock: Clock, spool):
    """Closed loop until `seconds` and MIN_OPS are both reached, never
    longer than 4 x seconds, with kernel samples in between.

    Outputs go to `spool` for checking later, so holding them adds nothing
    to the peak memory of the loop.  Returns (start, latency_s, error).
    """
    results = []
    start = perf_counter()
    while True:
        now = perf_counter() - start
        if now >= 4 * seconds or (now >= seconds and len(results) >= MIN_OPS):
            clock.sample()
            return results
        if clock.due():
            clock.sample()
        t0, latency, out, err = timed(call, items[len(results) % len(items)])
        pickle.dump(out, spool)
        results.append((t0, latency, err))


def run_traced(tracer, call, items, count: int, seconds: float, spool):
    """Each of the first `count` operations twice, untraced and traced, in
    alternating order so drift and warm-up fall on both sides alike.
    Stops early after 4 x seconds.  Traced outputs go to `spool`."""
    plain, traced = [], []
    start = perf_counter()
    for i in range(count):
        if perf_counter() - start >= 4 * seconds:
            break
        for on in (False, True) if i % 2 == 0 else (True, False):
            if not on:
                plain.append(timed(call, items[i])[1])
                continue
            tracer.enable()
            try:
                t0, latency, out, err = timed(lambda item: tracer.request(call, item), items[i])
            finally:
                tracer.disable()
            pickle.dump(out, spool)
            traced.append((t0, latency, err))
    return plain[: len(traced)], traced


def judge(workload: str, specs, items, results, spool) -> tuple[Counter, list[str]]:
    """Verdict per operation: right, wrong, a known defect, or error."""
    check = workloads.WORKLOADS[workload][3]
    verdicts: Counter = Counter()
    examples = []
    spool.seek(0)
    for i, (_, _, err) in enumerate(results):
        out = pickle.load(spool)  # written by this process
        k = i % len(items)
        verdict = "error" if err else check(specs[k], items[k], out)
        verdicts[verdict] += 1
        if verdict in ("error", workloads.WRONG) and len(examples) < 5:
            examples.append(f"{verdict}: {json.dumps(specs[k])[:200]} {err or ''}")
    return verdicts, examples


def end_to_end(results, clock: Clock, setup_s: float) -> dict[str, float]:
    lat_ms = [r[1] * clock.scale(r[0]) * 1000 for r in results]
    return {
        "setup_s": setup_s,
        "ops_per_s": 1000 * len(results) / sum(lat_ms),
        "latency_p50_ms": statistics.median(lat_ms),
        "latency_p90_ms": statistics.quantiles(lat_ms, n=10, method="inclusive")[8],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(tracer: tracing.Tracer, overhead: float) -> dict[str, float]:
    agg = tracer.aggregate()
    tally = tracer.tally

    def span(name: str, key: str) -> float:
        return agg.get(name, {}).get(key, 0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    vectors = span("oracle.enumerate_wps_points", "count")
    candidates = tracer.child_count("truncation.veronese_generators", "truncation.graded_piece_basis")
    special = {
        "oracle.pairs.equal_ratio": ratio(tally["oracle.pairs.equal"], span("oracle.ClosureEquality.equal", "calls")),
        "oracle.enumerate_wps_points.vectors": vectors,
        "oracle.enumerate.useful_ratio": ratio(tally["oracle.enumerate.reps"], vectors),
        "exactmath.fpelem.created": tally["exactmath.fpelem.created"],
        "truncation.graded_piece_basis.monomials": span("truncation.graded_piece_basis", "count"),
        "truncation.veronese.useful_ratio": ratio(span("truncation.veronese_generators", "count"), candidates),
        "trace.overhead_frac": overhead,
    }
    out = {}
    for name, _ in PER_LAYER:
        if name in special:
            out[name] = special[name]
        else:
            prefix, key = name.rsplit(".", 1)
            out[name] = span(prefix, key)
    return out


def provenance(n_ops: int) -> dict:
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT, check=True, timeout=30
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    src = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit,
        "src_sha256": src.hexdigest()[:16],
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "budget_s": BUDGET_S,
        "operations": n_ops,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "wps" / "__init__.py").is_file():
        print(f"error: no wps sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    wps, specs, items, own_setup_s = setup(args.workload, args.seed)
    if args.setup_probe:
        print(f"{own_setup_s * REF_KERNEL_S / statistics.median(kernel() for _ in range(5))!r}")
        return 0

    run = workloads.WORKLOADS[args.workload][2]
    digest = hashlib.sha256(json.dumps(specs, sort_keys=True).encode()).hexdigest()[:16]
    signal.signal(signal.SIGALRM, _on_alarm)

    def untraced(item):
        return run(item, wps)

    # The input pool is the benchmark's, not the program's: keep the
    # collector from rescanning it on every collection.
    gc.freeze()
    OUT.mkdir(exist_ok=True)
    unscaled = {}
    with tempfile.TemporaryFile(dir=OUT) as spool:
        if args.trace == 0:
            clock = Clock()
            results = run_ops(untraced, items, args.seconds, clock, spool)
            probes = probe_setup(args.workload, args.seed)
            metrics = end_to_end(results, clock, statistics.median(probes))
            units = END_TO_END
            lat_ms = [r[1] * 1000 for r in results]
            unscaled = {
                "ops_per_s": 1000 * len(lat_ms) / sum(lat_ms),
                "latency_p50_ms": statistics.median(lat_ms),
                "kernel_median_s": statistics.median(clock.took),
            }
        else:
            tracer = tracing.Tracer(wps)
            plain, results = run_traced(tracer, untraced, items, TRACED_OPS[args.workload], args.seconds, spool)
            overhead = (sum(r[1] for r in results) - sum(plain)) / sum(plain)
            metrics = per_layer(tracer, overhead)
            tracer.write(OUT / f"spans-{args.workload}.tsv.gz")
            units = dict(PER_LAYER)
            probes = []
        verdicts, examples = judge(args.workload, specs, items, results, spool)
    n = len(results)
    # Not result metrics, as they are 0 on some workloads; the result carries
    # them as `failed` and `correct`.
    shares = {
        "error_frac": verdicts["error"] / n,
        "wrong_frac": (n - verdicts["error"] - verdicts[workloads.RIGHT]) / n,
    }
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": provenance(n),
        "input_digest": digest,
        "inputs_in_pool": len(specs),
        "samples": n,
        "verdicts": dict(verdicts),
        "shares": shares,
        "setup_probes_s": probes,
        "unscaled": unscaled,
        "examples": examples,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    for k, v in metrics.items():
        print(f"{k:42s} {v:14.6g} {units[k]}")
    for k, v in shares.items():
        print(f"{k:42s} {v:14.6g} share of {n} operations")
    print(json.dumps(report))
    result = {
        "correct": verdicts[workloads.WRONG] == 0,
        "attempted": n,
        "failed": verdicts["error"],
        "metrics": report["metrics"],
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
