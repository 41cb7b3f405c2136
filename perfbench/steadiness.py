#!/usr/bin/env python3
"""Runs the benchmark over several seeds and prints, for every end-to-end
metric, the median, the quartiles and the quartile spread as a share of the
median (statistics.quantiles(values, n=4)), next to the metric's bound.

    python3 perfbench/steadiness.py --workload scale-sparse --seeds 1-10 --save a.json
    python3 perfbench/steadiness.py --compare a.json b.json

--save keeps every run's values and stderr summary line; --compare reads
two saved sets of the same workload and prints, per metric,
median(B) / median(A) - 1 (how the second set moved against the first)
next to its bound, and the failed share of each set. Run from the root of
a checkout, like run.py.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_bench():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        return json.load(f)


def run_set(workload, seeds, seconds):
    values, shares, summaries = {}, [], []
    for seed in seeds:
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, check=True)
        # The run's own summary line (set-up, unscaled figures, pass times).
        summaries.append(next((line for line in reversed(out.stderr.splitlines())
                               if line.startswith(workload + ":")), ""))
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: correct is false", file=sys.stderr)
        shares.append(result["failed"] / result["attempted"])
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed} done", file=sys.stderr, flush=True)
    return {"workload": workload, "seeds": list(seeds), "failed_shares": shares,
            "values": values, "summaries": summaries}


def print_spreads(data, bounds):
    print(f"{data['workload']}: {len(data['seeds'])} runs, failed shares "
          f"{sorted(set(data['failed_shares']))}")
    print(f"{'metric':<16} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
    for name, vals in data["values"].items():
        q1, _, q3 = statistics.quantiles(vals, n=4)
        med = statistics.median(vals)
        spread = (q3 - q1) / med if med else float("nan")
        print(f"{name:<16} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {spread:>8.4f} "
              f"{bounds.get(name, float('nan')):>6}")


def print_comparison(a, b, bench):
    if a["workload"] != b["workload"]:
        sys.exit("the two sets are of different workloads")
    share_a = sum(a["failed_shares"]) / len(a["failed_shares"])
    share_b = sum(b["failed_shares"]) / len(b["failed_shares"])
    print(f"{a['workload']}: failed share A {share_a:g}, B {share_b:g}")
    print(f"{'metric':<16} {'median A':>14} {'median B':>14} {'B/A - 1':>9} {'worse by':>9} "
          f"{'bound':>6}")
    for m in bench["end_to_end"]:
        name = m["name"]
        ma = statistics.median(a["values"][name])
        mb = statistics.median(b["values"][name])
        change = mb / ma - 1
        worse = change if m["better"] == "lower" else -change
        flag = "  OVER" if worse > m["bound"] else ""
        print(f"{name:<16} {ma:>14.6g} {mb:>14.6g} {change:>+9.4f} {worse:>+9.4f} "
              f"{m['bound']:>6}{flag}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--save", help="write the set's values to this JSON file")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"),
                    help="compare two saved sets instead of running one")
    args = ap.parse_args()
    bench = load_bench()
    if args.compare:
        sets = []
        for path in args.compare:
            with open(path) as f:
                sets.append(json.load(f))
        print_comparison(sets[0], sets[1], bench)
        return 0
    if not args.workload:
        ap.error("--workload is required unless --compare is given")
    lo, hi = (int(x) for x in args.seeds.split("-"))
    data = run_set(args.workload, range(lo, hi + 1), args.seconds or bench["run_seconds"])
    if args.save:
        with open(args.save, "w") as f:
            json.dump(data, f)
    print_spreads(data, {m["name"]: m["bound"] for m in bench["end_to_end"]})
    return 0


if __name__ == "__main__":
    sys.exit(main())
