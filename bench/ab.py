"""A/B runs of the end-to-end benchmark: a parent checkout against this one.

    python3 bench/ab.py --parent PATH --workload realize [--seed 1]

PATH is the root of the parent checkout.  Each side runs its own
`e2ebench/run.py` in a fresh process, from its own root, for the
`run_seconds` of this checkout's BENCHMARK.json.  There are always PAIRS
(10, from bench/report.py) pairs of runs: pair k uses seed SEED + k on both
sides, and the side that runs first alternates from pair to pair.  Every
run must report `correct: true` and 0 failed operations; otherwise the
script stops with an error.

For each end-to-end metric of BENCHMARK.json it prints each side's median
and quartiles over the runs, the pairs the change wins (ties count for
neither side), the verdict of bench/report.py (`claim` needs at least nine
tenths of the pairs won and a median better by more than the parent's IQR)
and the bound check: `ok` when the change's median is no worse than the
parent's by more than the metric's bound, `over` when it is, and
`unresolved` when the parent's IQR is wider than the bound and not every
change run beats every parent run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from report import PAIRS, verdict  # noqa: E402


def run_side(root, workload, seed, seconds):
    """The metrics of one run of root's e2ebench/run.py, checked."""
    proc = subprocess.run([sys.executable, os.path.join("e2ebench", "run.py"),
                           "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds)],
                          cwd=root, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit("ab: %s seed %d: correct=%s, %d of %d operations failed"
                         % (root, seed, result["correct"], result["failed"], result["attempted"]))
    return {name: m["value"] for name, m in result["metrics"].items()}


def compare(metric, parent, change):
    """Medians, quartiles, wins, verdict and bound check of one metric, whose
    values over the pairs are the lists parent and change."""
    sign = 1.0 if metric["better"] == "higher" else -1.0
    gains = [sign * (c - p) for p, c in zip(parent, change)]
    wins, losses = sum(g > 0 for g in gains), sum(g < 0 for g in gains)
    mp, mc = statistics.median(parent), statistics.median(change)
    pq, cq = quartiles(parent), quartiles(change)
    iqr = pq[1] - pq[0]
    worse = -sign * (mc - mp) / mp
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if iqr / mp > metric["bound"] and not all_better:
        bound = "unresolved"
    else:
        bound = "ok" if worse <= metric["bound"] else "over"
    return {"parent": mp, "change": mc, "parent_q": pq, "change_q": cq, "wins": wins,
            "verdict": verdict(wins, losses, sign * (mc - mp), iqr),
            "bound": bound}


def quartiles(values):
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--parent", required=True, help="root of the parent checkout")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    args = p.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    roots = {"parent": os.path.abspath(args.parent), "change": ROOT}
    runs = {side: [] for side in roots}
    for k in range(PAIRS):
        order = ["parent", "change"] if k % 2 == 0 else ["change", "parent"]
        for side in order:
            runs[side].append(run_side(roots[side], args.workload, args.seed + k,
                                       bench["run_seconds"]))
        print("# pair %d (seed %d, %s first): %s" % (
            k, args.seed + k, order[0],
            "  ".join("%s %.4g -> %.4g" % (name, runs["parent"][-1][name], runs["change"][-1][name])
                      for name in runs["change"][-1])), flush=True)
    print("workload %s, %d pairs, %g s runs, seeds %d-%d"
          % (args.workload, PAIRS, bench["run_seconds"], args.seed, args.seed + PAIRS - 1))
    print("%-16s %-6s %24s %24s %7s %5s %-10s %s" % ("metric", "unit", "parent median [q1, q3]",
                                                      "change median [q1, q3]", "ratio", "wins",
                                                      "verdict", "bound"))
    for metric in bench["end_to_end"]:
        name = metric["name"]
        row = compare(metric, [r[name] for r in runs["parent"]], [r[name] for r in runs["change"]])
        print("%-16s %-6s %8.4g [%6.4g, %6.4g] %8.4g [%6.4g, %6.4g] %7.3f %2d/%-2d %-10s %s (%g)"
              % (name, metric["unit"], row["parent"], *row["parent_q"], row["change"],
                 *row["change_q"], row["change"] / row["parent"], row["wins"], PAIRS,
                 row["verdict"], row["bound"], metric["bound"]))


if __name__ == "__main__":
    main()
