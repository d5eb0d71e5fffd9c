"""Run the layer benchmarks on a parent checkout and on this one, and write
the medians side by side.

    python bench/report.py --parent PATH --out BENCH_8.json

PATH is the root of the parent checkout; the benchmark files of this
checkout time both, each side in its own pytest process with BLAS pinned to
one thread.  The PAIRS pairs of runs alternate which side runs first.  Per
case and side the file holds the median over runs of each run's median and
IQR (seconds), and the output checksum of the first run; `checksum_rel_diff`
compares the two sides' checksums.
"""

import argparse
import json
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
            row[side] = {"median_s": statistics.median(s["median"] for s in stats),
                         "iqr_s": statistics.median(s["iqr"] for s in stats),
                         "run_medians_s": [s["median"] for s in stats],
                         "rounds": [s["rounds"] for s in stats],
                         "checksum": runs[side][0][name]["extra_info"]["checksum"]}
        a, b = row["parent"]["checksum"], row["change"]["checksum"]
        row["speedup"] = row["parent"]["median_s"] / row["change"]["median_s"]
        row["checksum_rel_diff"] = abs(a - b) / max(abs(a), abs(b), 1e-300)
        cases[name] = row
    report = {"host": {"cpu_count": os.cpu_count(), "machine": platform.machine(),
                       "python": platform.python_version(), "numpy": numpy.__version__,
                       "scipy": scipy.__version__, "blas_threads": 1},
              "pairs": PAIRS, "cases": cases}
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for name, row in cases.items():
        print("%-32s parent %10.1f us  change %10.1f us  x%.2f  checksum diff %.1e"
              % (name, 1e6 * row["parent"]["median_s"], 1e6 * row["change"]["median_s"],
                 row["speedup"], row["checksum_rel_diff"]))


if __name__ == "__main__":
    main()
