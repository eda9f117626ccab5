#!/usr/bin/env python3
"""Self-tests of the replay benchmark.

    python3 specbench/selftest.py

Run from the repository root; builds like run.py. Checks that
  1. the reference evaluator matches hand-counted answers on a tiny
     hand-built database and decodes bulk-loaded pages unchanged
     (the specbench_selftest binary);
  2. every metric a run prints is declared in BENCHMARK.json with the
     same unit, and every declared metric is printed (--trace 0 for the
     end-to-end metrics, --trace 1 for the per-layer ones);
  3. a failed check makes the benchmark exit non-zero with
     "correct": false (reference counts shifted by one on purpose).
Takes about a minute: three one-round runs of fig4-memory.
"""
import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

WORKLOAD = "fig4-memory"


def bench(binary, trace, extra=()):
    cmd = [binary, "--workload", WORKLOAD, "--seed", "42", "--seconds", "1",
           "--trace", str(trace)] + list(extra)
    done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=run.run_timeout(1))
    lines = done.stdout.strip().splitlines()
    return done.returncode, (json.loads(lines[-1]) if lines else None)


def main():
    failures = []
    out_dir = run.build_dir()
    binary = run.build(out_dir)

    done = subprocess.run([os.path.join(out_dir, "specbench_selftest")])
    if done.returncode != 0:
        failures.append("reference evaluator self-test failed")

    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        declared = {m["name"]: m["unit"] for m in spec[key]}
        code, result = bench(binary, trace)
        if code != 0 or result is None or not result["correct"]:
            failures.append("--trace %d run failed (exit %d)" % (trace, code))
            continue
        printed = {k: v["unit"] for k, v in result["metrics"].items()}
        for name in sorted(set(printed) - set(declared)):
            failures.append("printed but not in BENCHMARK.json: " + name)
        for name in sorted(set(declared) - set(printed)):
            failures.append("in BENCHMARK.json but not printed: " + name)
        for name in sorted(set(printed) & set(declared)):
            if printed[name] != declared[name]:
                failures.append("unit of %s: printed %s, declared %s" %
                                (name, printed[name], declared[name]))
        print("ok   --trace %d prints %d metrics" % (trace, len(printed)))

    code, result = bench(binary, 0, ["--corrupt-reference", "1"])
    if code == 0 or result is None or result["correct"] or \
            result["failed"] != result["attempted"]:
        failures.append("a failed check did not fail the run (exit %d, %s)" %
                        (code, result))
    else:
        print("ok   failed checks exit %d with %d/%d failed" %
              (code, result["failed"], result["attempted"]))

    for f in failures:
        print("FAIL " + f)
    print("selftest passed" if not failures else "selftest FAILED")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
