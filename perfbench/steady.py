#!/usr/bin/env python3
"""Steadiness check for the end-to-end benchmark.

    python3 perfbench/steady.py --workload kv [--runs 10] [--sets 2]
                                [--first-seed 1] [--seconds S]

Runs the workload --runs times per set, each with its own seed, and prints
for every end-to-end metric the median, the quartiles (statistics.quantiles,
n=4) and the spread (q3 - q1) / median next to the metric's bound in
BENCHMARK.json. Every spread but setup_s's must stay within its bound;
setup_s's spread is printed and flagged but not counted, because set-up
(on `ship`, eight sensor nodes' 40,000-entry transactions) follows the host's
load from run to run far more than the timed work does; setup_s is held to
its bound through the agreement of medians instead. With --sets 2 it also
says whether the two sets agree: the two medians of every metric, setup_s's
too, within the bound of each other in either direction,
|m2 - m1| / m1 <= bound, and the same share of failed operations. Exits 0
when everything checked holds.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def one_run(workload, seed, seconds):
    out = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                          "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                         cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit("run failed (workload %s, seed %d, exit %d)" % (workload, seed, out.returncode))
    return json.loads(lines[-1])


def summarize(results, bench):
    rows = {}
    for metric in bench["end_to_end"]:
        values = [r["metrics"][metric["name"]]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        rows[metric["name"]] = (values, q1, med, q3, (q3 - q1) / med)
    return rows


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, choices=[1, 2], default=1)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]

    ok = True
    sets = []
    for s in range(args.sets):
        results = []
        for i in range(args.runs):
            seed = args.first_seed + s * args.runs + i
            r = one_run(args.workload, seed, seconds)
            results.append(r)
            print("set %d seed %d: correct=%s attempted=%d failed=%d %s" % (
                s + 1, seed, r["correct"], r["attempted"], r["failed"],
                " ".join("%s=%.6g" % (k, v["value"]) for k, v in r["metrics"].items())),
                flush=True)
            ok &= r["correct"]
        rows = summarize(results, bench)
        print("\nset %d of %s (%d runs, %g s each):" % (s + 1, args.workload, args.runs, seconds))
        print("  %-24s %14s %14s %14s %8s %7s" % ("metric", "q1", "median", "q3", "spread",
                                                  "bound"))
        for metric in bench["end_to_end"]:
            _, q1, med, q3, spread = rows[metric["name"]]
            wide = spread > metric["bound"]
            counted = metric["name"] != "setup_s"
            ok &= not (wide and counted)
            print("  %-24s %14.6g %14.6g %14.6g %7.3f%% %6.1f%%%s" % (
                metric["name"], q1, med, q3, 100 * spread, 100 * metric["bound"],
                "" if not wide else "  WIDER THAN BOUND" if counted else
                "  wider than bound (setup_s spread: shown, not counted)"))
        share = sum(r["failed"] for r in results) / sum(r["attempted"] for r in results)
        sets.append((rows, [r["failed"] / r["attempted"] for r in results], share))
        print("  failed share %.6g" % share)

    if args.sets == 2:
        print("\nagreement of set 2 with set 1:")
        for metric in bench["end_to_end"]:
            m1 = sets[0][0][metric["name"]][2]
            m2 = sets[1][0][metric["name"]][2]
            change = (m2 - m1) / m1
            apart = abs(change) > metric["bound"]
            ok &= not apart
            print("  %-24s %14.6g -> %14.6g  change %+7.3f%% (bound %.1f%%)%s" % (
                metric["name"], m1, m2, 100 * change, 100 * metric["bound"],
                "  DISAGREE" if apart else ""))
        same = sets[0][2] == sets[1][2]
        ok &= same
        print("  failed share %.6g vs %.6g%s" % (sets[0][2], sets[1][2], "" if same else
                                                 "  DISAGREE"))
    print("\n%s" % ("steady: all checks hold" if ok else "NOT steady"))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
