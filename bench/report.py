"""Run the layer benchmarks on a parent checkout and on this one, and write
the medians side by side.

    python bench/report.py --parent PATH --out BENCH_8.json

PATH is the root of the parent checkout; the benchmark files of this
checkout time both, each side in its own pytest process with BLAS pinned to
one thread.  The PAIRS pairs of runs alternate which side runs first.  Per
case and side the file holds the median over runs of each run's median and
IQR (seconds), the IQR of the run medians, and the output checksum of the
first run; `checksum_rel_diff` compares the two sides' checksums.

Per case, `wins` counts the pairs whose change run has the lower median, and
`verdict` reads `claim` when the change wins at least 9 pairs in 10 and its
median beats the parent's by more than the IQR of the parent's run medians,
`regress` when the parent does so against the change, and `unresolved`
otherwise.
"""

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile

import numpy
import scipy

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
PAIRS = 10
DECISIVE_WINS = math.ceil(0.9 * PAIRS)


def run_iqr(values):
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def verdict(wins, losses, gain, parent_iqr):
    """claim, regress or unresolved: `claim` when the change wins at least
    DECISIVE_WINS of the PAIRS pairs and its median is better than the
    parent's by more than parent_iqr (gain is that difference, positive when
    the change is better), `regress` when the parent does so against the
    change; ties count for neither side."""
    if wins >= DECISIVE_WINS and gain > parent_iqr:
        return "claim"
    if losses >= DECISIVE_WINS and -gain > parent_iqr:
        return "regress"
    return "unresolved"


def run_side(src, path):
    env = dict(os.environ, **{v: "1" for v in THREAD_VARS})
    subprocess.run([sys.executable, "-m", "pytest", HERE, "-q", "-p", "no:cacheprovider",
                    "--src", src, "--benchmark-json", path],
                   cwd=ROOT, env=env, check=True, stdout=subprocess.DEVNULL)
    with open(path) as fh:
        return {b["fullname"].split("::", 1)[1]: b for b in json.load(fh)["benchmarks"]}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--parent", required=True, help="root of the parent checkout")
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)
    sides = {"parent": os.path.join(os.path.abspath(args.parent), "src"),
             "change": os.path.join(ROOT, "src")}
    runs = {side: [] for side in sides}
    with tempfile.TemporaryDirectory() as tmp:
        for k in range(PAIRS):
            order = ["parent", "change"] if k % 2 == 0 else ["change", "parent"]
            for side in order:
                runs[side].append(run_side(sides[side], os.path.join(tmp, "%s-%d.json" % (side, k))))
    cases = {}
    for name in runs["change"][0]:
        row = {}
        for side in sides:
            stats = [r[name]["stats"] for r in runs[side]]
            medians = [s["median"] for s in stats]
            row[side] = {"median_s": statistics.median(medians),
                         "iqr_s": statistics.median(s["iqr"] for s in stats),
                         "run_iqr_s": run_iqr(medians),
                         "run_medians_s": medians,
                         "rounds": [s["rounds"] for s in stats],
                         "checksum": runs[side][0][name]["extra_info"]["checksum"]}
        a, b = row["parent"]["checksum"], row["change"]["checksum"]
        row["speedup"] = row["parent"]["median_s"] / row["change"]["median_s"]
        row["checksum_rel_diff"] = abs(a - b) / max(abs(a), abs(b), 1e-300)
        pairs = list(zip(row["parent"]["run_medians_s"], row["change"]["run_medians_s"]))
        row["wins"] = sum(c < p for p, c in pairs)
        row["verdict"] = verdict(row["wins"], sum(c > p for p, c in pairs),
                                 row["parent"]["median_s"] - row["change"]["median_s"],
                                 row["parent"]["run_iqr_s"])
        cases[name] = row
    report = {"host": {"cpu_count": os.cpu_count(), "machine": platform.machine(),
                       "python": platform.python_version(), "numpy": numpy.__version__,
                       "scipy": scipy.__version__, "blas_threads": 1},
              "pairs": PAIRS, "cases": cases}
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for name, row in cases.items():
        print("%-32s parent %10.1f us (IQR %7.1f)  change %10.1f us (IQR %7.1f)  x%.2f"
              "  wins %2d/%d  %-10s  checksum diff %.1e"
              % (name, 1e6 * row["parent"]["median_s"], 1e6 * row["parent"]["run_iqr_s"],
                 1e6 * row["change"]["median_s"], 1e6 * row["change"]["run_iqr_s"],
                 row["speedup"], row["wins"], PAIRS, row["verdict"], row["checksum_rel_diff"]))


if __name__ == "__main__":
    main()
