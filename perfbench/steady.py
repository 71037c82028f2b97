#!/usr/bin/env python3
"""Steadiness and trace-consistency checks for the benchmark.

Run from the root of a checkout:

    python3 perfbench/steady.py run --runs 10 --out A.json [--workloads w1,w2] [--seed0 1]
    python3 perfbench/steady.py compare A.json B.json
    python3 perfbench/steady.py tracecheck [--seed 7] [--pairs 3] [--seconds 30] [--workloads w1,w2]

`run` runs every workload of BENCHMARK.json (or --workloads) --runs times, each with its own seed, and prints
the median and quartiles of every end-to-end metric.  The spread of a metric
is (Q3 - Q1) / median; it must stay within the metric's bound from
BENCHMARK.json (setup_s excepted), and the benchmark aims at a third of it.

`compare` checks two sets of runs against each other: every spread within
its bound, no median worse than the other set's by more than the bound, and
the same share of failed operations.

`tracecheck` runs each workload untraced and traced, --pairs times each in
alternating order, on one seed: every answer digest must match (the
wrappers pass values through), the seam counts of the traced runs must be
equal, and the tracing overhead on the median latency is printed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC = json.load(open(os.path.join(HERE, "..", "BENCHMARK.json")))


def bench(workload, seed, seconds, trace):
    """One run: (result object, summary object, wall seconds)."""
    t0 = time.time()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True)
    wall = time.time() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    summary = next(json.loads(l[len("# summary "):]) for l in lines if l.startswith("# summary "))
    return json.loads(lines[-1]), summary, wall


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def report(results):
    """Prints median/quartiles per metric; returns False if a spread is out of bound."""
    ok = True
    for workload, runs in results.items():
        print(f"\n{workload}: {len(runs['metrics'])} runs, failed share "
              f"{runs['failed_share']}, wall {statistics.median(runs['wall']):.1f} s/run")
        for spec in SPEC["end_to_end"]:
            name = spec["name"]
            values = [m[name] for m in runs["metrics"]]
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med
            mark = "ok"
            if name != "setup_s" and spread > spec["bound"]:
                mark, ok = "OUT OF BOUND", False
            elif name != "setup_s" and spread > spec["bound"] / 3:
                mark = "above bound/3"
            print(f"  {name:20s} median {med:12.6g}  Q1 {q1:12.6g}  Q3 {q3:12.6g}  "
                  f"spread {spread:6.3f} (bound {spec['bound']})  {mark}")
    return ok


def cmd_run(args):
    results = {}
    for workload in workloads(args):
        runs = {"metrics": [], "wall": [], "attempted": 0, "failed": 0}
        for i in range(args.runs):
            result, _, wall = bench(workload, args.seed0 + i, args.seconds, 0)
            if not result["correct"]:
                raise SystemExit(f"{workload} seed {args.seed0 + i}: output check failed")
            runs["metrics"].append({k: v["value"] for k, v in result["metrics"].items()})
            runs["wall"].append(wall)
            runs["attempted"] += result["attempted"]
            runs["failed"] += result["failed"]
            print(f"{workload} seed {args.seed0 + i}: {wall:.1f} s", file=sys.stderr)
        runs["failed_share"] = runs["failed"] / runs["attempted"]
        results[workload] = runs
    with open(args.out, "w") as f:
        json.dump(results, f, indent=1)
    return 0 if report(results) else 1


def cmd_compare(args):
    a, b = (json.load(open(p)) for p in (args.first, args.second))
    ok = report(a) & report(b)
    print()
    for workload in a:
        if a[workload]["failed_share"] != b[workload]["failed_share"]:
            print(f"{workload}: failed share differs ({a[workload]['failed_share']} vs "
                  f"{b[workload]['failed_share']})")
            ok = False
        for spec in SPEC["end_to_end"]:
            name = spec["name"]
            m1 = statistics.median(m[name] for m in a[workload]["metrics"])
            m2 = statistics.median(m[name] for m in b[workload]["metrics"])
            worse = (m2 - m1) / m1 if spec["better"] == "lower" else (m1 - m2) / m1
            mark = "ok" if worse <= spec["bound"] else "WORSE THAN BOUND"
            ok &= worse <= spec["bound"]
            print(f"{workload:18s} {name:20s} {m1:12.6g} -> {m2:12.6g}  worse by "
                  f"{worse:+.3f} (bound {spec['bound']})  {mark}")
    return 0 if ok else 1


def workloads(args):
    return args.workloads.split(",") if args.workloads else [w["name"] for w in SPEC["workloads"]]


def cmd_tracecheck(args):
    ok = True
    for workload in workloads(args):
        plain, traced = [], []
        # Alternate which mode runs first: the machine's speed drifts.
        for i in range(args.pairs):
            for trace in ((0, 1) if i % 2 == 0 else (1, 0)):
                (traced if trace else plain).append(bench(workload, args.seed, args.seconds, trace)[1])
        same_bits = len({s["digest"] for s in plain + traced}) == 1
        same_counts = all(t["counts"] == traced[0]["counts"] for t in traced)
        p_plain = statistics.median(s["latency_ms.p50"] for s in plain)
        p_traced = statistics.median(s["latency_ms.p50"] for s in traced)
        gram = traced[0]["counts"]["trace.gram_calls"] / traced[0]["requests"]
        print(f"{workload:18s} digest {'equal' if same_bits else 'DIFFERS'}  counts "
              f"{'repeat' if same_counts else 'DIFFER'}  gram calls/request {gram:.3g}  "
              f"p50 {p_plain:.4g} ms untraced, {p_traced:.4g} ms traced "
              f"({p_traced / p_plain - 1:+.1%}, medians of {args.pairs})")
        ok &= same_bits and same_counts
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    run = sub.add_parser("run")
    run.add_argument("--runs", type=int, default=10)
    run.add_argument("--seed0", type=int, default=1)
    run.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    run.add_argument("--workloads")
    run.add_argument("--out", required=True)
    compare = sub.add_parser("compare")
    compare.add_argument("first")
    compare.add_argument("second")
    tracecheck = sub.add_parser("tracecheck")
    tracecheck.add_argument("--seed", type=int, default=7)
    tracecheck.add_argument("--pairs", type=int, default=3)
    tracecheck.add_argument("--workloads")
    tracecheck.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    args = parser.parse_args()
    return {"run": cmd_run, "compare": cmd_compare, "tracecheck": cmd_tracecheck}[args.cmd](args)


if __name__ == "__main__":
    sys.exit(main())
