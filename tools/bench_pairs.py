"""Alternating parent/change runs of the benchmark, with a verdict per metric.

Usage, from any directory:

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload mk-closed-loop \
        [--pairs 10] [--seconds 40] [--out pairs.json]

PARENT_DIR and CHANGE_DIR are two checkouts of the repository.  Each pair
runs ``perfbench/run.py --trace 0`` once from each, one process at a time;
the parent runs first in odd pairs and the change first in even ones.  The
last line of a run's output is its JSON result.  For each end-to-end metric
of CHANGE_DIR's ``BENCHMARK.json`` the script prints each side's median and
quartiles (``statistics.quantiles``, exclusive method), how many pairs the
change won (ties count for neither side) and a verdict:

- gain: the change won at least 9 in 10 pairs, and the medians differ by
  more than the parent's interquartile range (IQR);
- worse: the change's median is worse than the parent's by more than the
  metric's bound, a fraction of the parent's median;
- unresolved: the parent's IQR is wider than the bound, and not every run
  of the change reads better than every run of the parent;
- unchanged: otherwise.

It also prints each side's failed and attempted operations.  --out writes
every sample, quartile and verdict as JSON.  The exit code is 1 when any
run reports ``correct`` false, else 0.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def quartiles(samples):
    """(Q1, median, Q3) of at least two samples, by the exclusive method."""
    return tuple(statistics.quantiles(samples, n=4, method="exclusive"))


def wins(parent, change, better):
    """The pairs (parent[i], change[i]) in which the change reads better."""
    sign = 1 if better == "lower" else -1
    return sum(sign * (p - c) > 0 for p, c in zip(parent, change))


def verdict(parent, change, better, bound):
    """gain, worse, unresolved or unchanged, for the paired samples of one
    metric whose ``better`` direction is "lower" or "higher"."""
    sign = 1 if better == "lower" else -1  # sign * (a - b) > 0: b reads better than a
    q1, median, q3 = quartiles(parent)
    change_median = quartiles(change)[1]
    if 10 * wins(parent, change, better) >= 9 * len(parent) and (
            sign * (median - change_median) > q3 - q1):
        return "gain"
    if sign * (change_median - median) > bound * abs(median):
        return "worse"
    if q3 - q1 > bound * abs(median) and not all(
            sign * (p - c) > 0 for p in parent for c in change):
        return "unresolved"
    return "unchanged"


def run_once(checkout, workload, seconds):
    """The JSON result of one untraced benchmark run from ``checkout``."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=False,
    )
    lines = done.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.exit(f"error: no result from {checkout} (exit {done.returncode}):\n{done.stderr}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_dir", type=Path)
    parser.add_argument("change_dir", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2: quartiles need two samples")
    spec = json.loads((args.change_dir / "BENCHMARK.json").read_text(encoding="utf-8"))
    dirs = dict(zip(SIDES, (args.parent_dir, args.change_dir)))

    results = {side: [] for side in SIDES}
    for i in range(args.pairs):
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            results[side].append(run_once(dirs[side], args.workload, args.seconds))
            print(f"pair {i + 1}/{args.pairs}: {side} done", file=sys.stderr)

    report = {"workload": args.workload, "pairs": args.pairs, "seconds": args.seconds,
              "metrics": {}, "failed": {}}
    for metric in spec["end_to_end"]:
        name = metric["name"]
        samples = {side: [r["metrics"][name]["value"] for r in results[side]] for side in SIDES}
        row = {side: {"quartiles": quartiles(samples[side]), "samples": samples[side]}
               for side in SIDES}
        row["change_won"] = wins(samples["parent"], samples["change"], metric["better"])
        row["bound"] = metric["bound"]
        row["verdict"] = verdict(samples["parent"], samples["change"], metric["better"],
                                 metric["bound"])
        report["metrics"][name] = row
        parent_q, change_q = row["parent"]["quartiles"], row["change"]["quartiles"]
        print(f"{name:<14} parent {parent_q[1]:.6g} [{parent_q[0]:.6g}, {parent_q[2]:.6g}]  "
              f"change {change_q[1]:.6g} [{change_q[0]:.6g}, {change_q[2]:.6g}]  "
              f"({(change_q[1] / parent_q[1] - 1) * 100:+.1f}%)  "
              f"change won {row['change_won']}/{args.pairs}  {row['verdict']}")
    for side in SIDES:
        failed = sum(r["failed"] for r in results[side])
        attempted = sum(r["attempted"] for r in results[side])
        report["failed"][side] = [failed, attempted]
        print(f"fail_ratio {side} {failed}/{attempted}")
    incorrect = [side for side in SIDES for r in results[side] if not r["correct"]]
    for side in incorrect:
        print(f"error: a {side} run reported correct=false", file=sys.stderr)
    if args.out is not None:
        args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 1 if incorrect else 0


if __name__ == "__main__":
    sys.exit(main())
