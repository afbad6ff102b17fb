#!/usr/bin/env python3
"""Paired A/B timing gate: this checkout against a base source tree.

Run from the root of the checkout under test:

    mkdir -p /tmp/perf-base && git archive <base-sha> | tar -x -C /tmp/perf-base
    python3 ci/perf_ab.py /tmp/perf-base

The base tree first gets this checkout's perfbench/ and BENCHMARK.json,
so both sides build and run identical benchmark code over their own
src/ (the base must therefore build this checkout's perfbench). Then,
for every BENCHMARK.json workload, PAIRS pairs of

    python3 perfbench/run.py --workload W --seed S --seconds SECONDS --trace 0

run one side after the other, alternating which side goes first, with
one seed per pair. Each side builds into its own .bench_build/.

A pair's ratio is the change's value over the base's, inverted for a
metric whose `better` is "lower", so a ratio above 1 always means the
change did better. A (workload, end-to-end metric) fails when the
median ratio is below 1 - margin and the change also loses at least
LOSS_SHARE of the pairs. A single slow pair cannot fail the gate, and a
loss small against the runner's own spread cannot either.

TRACED_PAIRS traced pairs of TRACED_WORKLOAD then compare the cost of
the fleet's telemetry: the gate fails when the change's median
`obs.overhead_frac` exceeds the base's by more than OVERHEAD_MARGIN.

A check that fails over its first pairs runs as many pairs again, on
new seeds, and is judged over all of them: a burst of load on a shared
host can skew a few seconds of runs, but a regression shows in both
halves. Any run that exits non-zero, or that is not `correct` with 0
failed operations, fails the gate outright. The exit status is 1 on
any failure, else 0.

The constants come from runs of identical code on a shared 4-vCPU VM,
8 pairs per workload at --seconds 2. Single pairs read throughput
ratios of 0.56-1.70 and medians over 8 pairs 0.81-1.16; the medians
over 16 pairs that the second round judged read 0.90-0.94. The two
sides' median telemetry costs differed by up to 0.054 over 4 pairs and
0.018 over 8. Injected faults: a tenant serve that computes its latency
stats twice read 0.77 on tenant-mix, and eight telemetry records per
fleet step raised the median telemetry cost from 0.165 to 0.258. A
run takes 3-8 s, so the gate runs for 5-9 minutes, plus one perfbench
build per side of about a minute.
"""

import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

PAIRS = 8
SECONDS = 2
LOSS_SHARE = Fraction(2, 3)
# Largest tolerated drop of the median ratio, per end-to-end metric.
# Each is at most the metric's BENCHMARK.json bound, which is the
# margin of a metric not listed here. At 0.12 a uniform 15% throughput
# drop fails, while the 16-pair medians of identical code stay above
# 0.88.
MARGINS = {
    "ops_per_s": 0.12,
    "cached_ops_per_s": 0.12,
    "peak_rss_mb": 0.10,
}
TRACED_WORKLOAD = "fleet-balanced"
TRACED_PAIRS = 4
# Largest tolerated rise of the median telemetry cost, as a fraction
# of untraced fleet throughput.
OVERHEAD_MARGIN = 0.05


def ratio(base, change, better):
    """The change's value relative to the base's, above 1 when better."""
    if base == change:
        return 1.0
    good, bad = (change, base) if better == "higher" else (base, change)
    return good / bad if bad else math.inf


def judge(name, better, margin, pairs):
    """Why the change fails `name` over `pairs` of (base, change)
    values, or None. A value missing on either side fails."""
    if any(b is None or c is None for b, c in pairs):
        return "%s: missing on one side" % name
    ratios = [ratio(b, c, better) for b, c in pairs]
    med = statistics.median(ratios)
    losses = sum(r < 1.0 for r in ratios)
    if med < 1.0 - margin and losses >= LOSS_SHARE * len(ratios):
        return ("%s: median ratio %.3f < %.3f and the change lost %d of "
                "%d pairs" % (name, med, 1.0 - margin, losses, len(ratios)))
    return None


def judge_overhead(pairs):
    """Why the change's telemetry cost fails over `pairs` of (base,
    change) `obs.overhead_frac` values, or None."""
    if any(b is None or c is None for b, c in pairs):
        return "obs.overhead_frac: missing on one side"
    base = statistics.median(b for b, _ in pairs)
    change = statistics.median(c for _, c in pairs)
    if change - base > OVERHEAD_MARGIN:
        return ("obs.overhead_frac: median %.3f exceeds the base's %.3f by "
                "more than %.2f" % (change, base, OVERHEAD_MARGIN))
    return None


def run_failure(result):
    """Why one run's result line is not a clean run, or None."""
    if result.get("correct") is not True or result.get("failed") != 0:
        return "correct=%s failed=%s" % (result.get("correct"),
                                         result.get("failed"))
    return None


def values(pairs, name):
    """(base, change) values of metric `name`, None where missing."""
    get = lambda r: r["metrics"].get(name, {}).get("value")  # noqa: E731
    return [(get(b), get(c)) for b, c in pairs]


def margin_of(metric):
    return min(MARGINS.get(metric["name"], metric["bound"]),
               metric["bound"])


def problems(metrics, pairs):
    """Why the change fails each end-to-end metric over `pairs`."""
    found = (judge(m["name"], m["better"], margin_of(m),
                   values(pairs, m["name"])) for m in metrics)
    return [p for p in found if p]


def overhead_problems(pairs):
    problem = judge_overhead(values(pairs, "obs.overhead_frac"))
    return [problem] if problem else []


def prepare(base):
    """Give the base tree this checkout's benchmark code."""
    if not (os.path.isfile(os.path.join(base, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(base, "src"))):
        sys.exit("perf_ab: %s is not a DiVa source tree" % base)
    if os.path.realpath(base) == os.path.realpath(ROOT):
        sys.exit("perf_ab: the base tree is this checkout")
    shutil.rmtree(os.path.join(base, "perfbench"), ignore_errors=True)
    shutil.copytree(os.path.join(ROOT, "perfbench"),
                    os.path.join(base, "perfbench"))
    shutil.copy2(os.path.join(ROOT, "BENCHMARK.json"), base)


def run(side, workload, seed, trace):
    """One perfbench run on `side`: (result dict or None, seconds, log)."""
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(SECONDS),
         "--trace", str(trace)],
        cwd=side, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    took = time.monotonic() - t0
    if proc.returncode != 0:
        return None, took, proc.stdout + proc.stderr
    return json.loads(proc.stdout.rstrip("\n").split("\n")[-1]), took, ""


def run_pairs(sides, workload, seeds, trace, failures):
    """One pair per seed, the base first on odd seeds: a list of (base,
    change) result dicts, cut short at the first run that is not clean."""
    pairs = []
    for seed in seeds:
        order = ["base", "change"] if seed % 2 else ["change", "base"]
        results = {}
        for name in order:
            result, took, log = run(sides[name], workload, seed, trace)
            problem = "exited non-zero" if result is None \
                else run_failure(result)
            print("  %s trace %d seed %2d %-6s %5.1f s%s"
                  % (workload, trace, seed, name, took,
                     "  " + problem if problem else ""), flush=True)
            if problem:
                sys.stdout.write(log[-4000:])
                failures.append("%s (trace %d) seed %d on %s: %s"
                                % (workload, trace, seed, name, problem))
                return pairs
            results[name] = result
        pairs.append((results["base"], results["change"]))
    return pairs


def run_confirmed(sides, workload, count, trace, check, failures):
    """`count` pairs, and `count` more on new seeds when `check` finds a
    problem in the first ones; returns every clean pair run."""
    pairs = run_pairs(sides, workload, range(1, count + 1), trace, failures)
    found = check(pairs) if len(pairs) == count else []
    if found:
        print("%s: %s; %d more pairs to confirm"
              % (workload, "; ".join(found), count), flush=True)
        pairs += run_pairs(sides, workload, range(count + 1, 2 * count + 1),
                           trace, failures)
    return pairs


def report(workload, metrics, pairs):
    """Print one row per end-to-end metric over `pairs`."""
    print("%s: %d pairs" % (workload, len(pairs)))
    print("  %-18s %12s %12s %7s %13s %6s %6s" % (
        "metric", "base med", "change med", "ratio", "min-max",
        "losses", "margin"))
    for m in metrics:
        vals = values(pairs, m["name"])
        if any(b is None or c is None for b, c in vals):
            continue
        ratios = [ratio(b, c, m["better"]) for b, c in vals]
        print("  %-18s %12.6g %12.6g %7.3f %6.3f-%-6.3f %3d/%-2d %6.2f" % (
            m["name"], statistics.median(b for b, _ in vals),
            statistics.median(c for _, c in vals), statistics.median(ratios),
            min(ratios), max(ratios), sum(r < 1.0 for r in ratios),
            len(ratios), margin_of(m)))


def main():
    if len(sys.argv) != 2:
        sys.exit("usage: perf_ab.py BASE_DIR")
    t0 = time.monotonic()
    sides = {"base": os.path.abspath(sys.argv[1]), "change": ROOT}
    prepare(sides["base"])
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    metrics = bench["end_to_end"]

    failures = []
    for w in (w["name"] for w in bench["workloads"]):
        pairs = run_confirmed(sides, w, PAIRS, 0,
                              lambda p: problems(metrics, p), failures)
        if pairs:
            report(w, metrics, pairs)
            failures += [w + " " + p for p in problems(metrics, pairs)]

    pairs = run_confirmed(sides, TRACED_WORKLOAD, TRACED_PAIRS, 1,
                          overhead_problems, failures)
    if pairs:
        show = lambda side: " ".join(  # noqa: E731
            "-" if v is None else "%.3f" % v for v in side)
        vals = values(pairs, "obs.overhead_frac")
        print("%s traced: obs.overhead_frac base %s, change %s" % (
            TRACED_WORKLOAD, show(b for b, _ in vals),
            show(c for _, c in vals)))
        failures += [TRACED_WORKLOAD + " " + p
                     for p in overhead_problems(pairs)]

    print("perf_ab: %.0f s" % (time.monotonic() - t0))
    for f in failures:
        print("FAIL " + f)
    print("perf_ab: %s" % ("FAIL" if failures else "pass"))
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
