#!/usr/bin/env python3
"""Steadiness of the replay benchmark's end-to-end metrics.

Run every workload N times, each with another seed, and print each
end-to-end metric's median, quartiles and spread (interquartile range
over median) against its bound in BENCHMARK.json:

    python3 specbench/steady.py --runs 10 --save set1.json

Compare two saved sets the way a regression gate would: every spread
within its bound, no second median worse than the
first by more than the bound, and the same share of failed operations:

    python3 specbench/steady.py --compare set1.json set2.json

Run from the repository root. Saved sets record host_cores and the
command line of every run. Exit code 0 when every check passes.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(spec, workload, seed):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]),
                             "--trace", "0"]
    start = time.monotonic()
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, timeout=900)
    wall = time.monotonic() - start
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return {"cmd": cmd, "exit": done.returncode, "wall_s": wall,
            "result": result}


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf")}


def report(spec, runs_by_workload):
    """Print the summary table; returns (ok, summaries)."""
    ok = True
    summaries = {}
    print("%-12s %-20s %12s %12s %12s %8s %6s  %s" %
          ("workload", "metric", "median", "q1", "q3", "spread", "bound",
           "verdict"))
    for workload, runs in runs_by_workload.items():
        summaries[workload] = {}
        results = [r["result"] for r in runs]
        if any(r is None or r["exit"] != 0 for r in runs):
            print("%-12s a run failed or printed no result" % workload)
            ok = False
            continue
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            s = summarize([r["metrics"][name]["value"] for r in results])
            summaries[workload][name] = s
            if s["spread"] > bound:
                verdict, ok = "OVER BOUND", False
            elif s["spread"] > bound / 3:
                verdict = "over bound/3"
            else:
                verdict = "ok"
            print("%-12s %-20s %12.6g %12.6g %12.6g %8.4f %6.3f  %s" %
                  (workload, name, s["median"], s["q1"], s["q3"], s["spread"],
                   bound, verdict))
        shares = {r["failed"] / r["attempted"] for r in results}
        summaries[workload]["failed_share"] = sorted(shares)
        print("%-12s failed share %s, wall per run %.1f-%.1f s" %
              (workload, sorted(shares), min(r["wall_s"] for r in runs),
               max(r["wall_s"] for r in runs)))
    return ok, summaries


def compare(spec, first, second):
    ok = True
    for workload, metrics in first["summaries"].items():
        other = second["summaries"].get(workload)
        if other is None:
            print("%s: missing from the second set" % workload)
            ok = False
            continue
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            if name not in metrics or name not in other:
                print("%s %s: missing" % (workload, name))
                ok = False
                continue
            a, b = metrics[name]["median"], other[name]["median"]
            worse = (b - a) / a if metric["better"] == "lower" else (a - b) / a
            spread_ok = max(metrics[name]["spread"],
                            other[name]["spread"]) <= bound
            verdict = "ok" if worse <= bound and spread_ok else "FAIL"
            ok &= verdict == "ok"
            print("%-12s %-20s %12.6g -> %12.6g  worse by %+7.4f (bound %.3f)"
                  "  spreads %.4f/%.4f  %s" %
                  (workload, name, a, b, worse, bound, metrics[name]["spread"],
                   other[name]["spread"], verdict))
        if metrics.get("failed_share") != other.get("failed_share"):
            print("%s: failed shares differ: %s vs %s" %
                  (workload, metrics.get("failed_share"),
                   other.get("failed_share")))
            ok = False
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--save", help="write the runs and summaries here")
    parser.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    args = parser.parse_args()
    spec = load_spec()

    if args.compare:
        with open(args.compare[0]) as f:
            first = json.load(f)
        with open(args.compare[1]) as f:
            second = json.load(f)
        print("host_cores %s / %s" % (first.get("host_cores"),
                                      second.get("host_cores")))
        sys.exit(0 if compare(spec, first, second) else 1)

    runs_by_workload = {}
    for name in (w["name"] for w in spec["workloads"]):
        runs_by_workload[name] = []
        for i in range(args.runs):
            run = run_once(spec, name, args.seed_base + i)
            runs_by_workload[name].append(run)
            print("  %s seed %d: exit %d, %.1f s" %
                  (name, args.seed_base + i, run["exit"], run["wall_s"]),
                  file=sys.stderr)
    print("host_cores %d, %d runs per workload" % (os.cpu_count(), args.runs))
    ok, summaries = report(spec, runs_by_workload)
    if args.save:
        with open(args.save, "w") as f:
            json.dump({"host_cores": os.cpu_count(), "runs": runs_by_workload,
                       "summaries": summaries}, f, indent=1)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
