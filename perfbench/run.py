#!/usr/bin/env python3
"""Build and run the end-to-end benchmark, or compare two sets of runs.

Run one workload, from the root of a source checkout:

    python3 perfbench/run.py --workload batch_mixed --seed 1 --seconds 20 --trace 0

The OCaml program (perfbench/benchmark.ml) is built with dune first. Its
standard output passes through unchanged; the last line is the JSON
result. The run's record (host block and every sample) is also written to
perfbench/results/<set>/, and with --trace 1 a Chrome trace beside it.

Compare two sets of runs, workload by workload and metric by metric,
against the bounds in BENCHMARK.json:

    python3 perfbench/run.py --compare perfbench/results/a perfbench/results/b
"""

import argparse
import glob
import json
import os
import statistics
import subprocess
import sys

TARGET = "./perfbench/benchmark.exe"
EXE = "_build/default/perfbench/benchmark.exe"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def commit():
    # Stop git at the checkout root: outside a repository this reports
    # "unknown" rather than some enclosing repository's commit.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(os.getcwd()))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], env=env, timeout=10,
                             capture_output=True, text=True)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run(args):
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("run.py: no dune-project and lib/ here; run from the root of a "
              "source checkout", file=sys.stderr)
        return 2
    # The shared dune cache lives outside the checkout; keep every build
    # artefact inside it.
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(["dune", "build", "--root", ".", TARGET], env=env,
                               stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print("run.py: build failed: %s" % e, file=sys.stderr)
        return 2
    if build.returncode != 0:
        return build.returncode
    out = os.path.join("perfbench", "results", args.set)
    os.makedirs(out, exist_ok=True)
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", out, "--commit", commit()]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("run.py: benchmark exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3


def records(path):
    files = [path] if os.path.isfile(path) else sorted(
        glob.glob(os.path.join(path, "*-trace0.json")))
    recs = []
    for f in files:
        with open(f) as fh:
            recs.append(json.load(fh))
    return recs


def spread(values):
    """Interquartile range as a share of the median (0 for one value)."""
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(med)


def compare(path_a, path_b):
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    sides = [(path_a, records(path_a)), (path_b, records(path_b))]
    for path, recs in sides:
        if not recs:
            print("run.py: no trace-0 run records in %s" % path, file=sys.stderr)
            return 2
        hosts = sorted({(r["host"]["nproc"], r["host"]["ocaml"], r["host"]["commit"])
                        for r in recs})
        print("%s: %d runs; nproc/ocaml/commit %s" % (path, len(recs), hosts))
    envs = {json.dumps(r["host"]["lowpower_env"], sort_keys=True)
            for _, recs in sides for r in recs}
    if len(envs) > 1:
        print("incomparable: the runs differ in LOWPOWER_* settings: %s"
              % sorted(envs))
        return 2
    print("%-17s %-20s %12s %7s %12s %7s %8s %6s" % (
        "workload", "metric", "median A", "IQR A", "median B", "IQR B",
        "change", "bound"))
    flagged = 0
    for w in bench["workloads"]:
        for m in bench["end_to_end"]:
            vals = [[r["result"]["metrics"][m["name"]]["value"] for r in recs
                     if r["workload"] == w["name"]
                     and m["name"] in r["result"]["metrics"]] for _, recs in sides]
            if not all(vals):
                print("%-17s %-20s missing" % (w["name"], m["name"]))
                flagged += 1
                continue
            ma, mb = statistics.median(vals[0]), statistics.median(vals[1])
            change = (mb - ma) / abs(ma) if ma else 0.0
            worse = change > 0 if m["better"] == "lower" else change < 0
            flag = ""
            if abs(change) > m["bound"]:
                flag = "WORSE" if worse else "BETTER"
                flagged += 1
            print("%-17s %-20s %12.6g %6.1f%% %12.6g %6.1f%% %+7.1f%% %5.0f%% %s" % (
                w["name"], m["name"], ma, 100 * spread(vals[0]), mb,
                100 * spread(vals[1]), 100 * change, 100 * m["bound"], flag))
    failed = [r for _, recs in sides for r in recs if not r["result"]["correct"]]
    for r in failed:
        print("incorrect run: %s seed %s" % (r["workload"], r["seed"]))
    return 1 if flagged or failed else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--set", default="default",
                   help="results subdirectory for this run's record")
    p.add_argument("--compare", nargs=2, metavar=("A", "B"),
                   help="compare two run records or directories of them")
    args = p.parse_args()
    if args.compare:
        return compare(*args.compare)
    if not args.workload:
        p.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
