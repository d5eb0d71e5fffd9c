"""End-to-end benchmark of qschur: one workload, one run.

    python3 e2ebench/run.py --workload spectral|kernel|realize \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout: the package is imported from ./src, never
from an installed copy.  One in-process caller runs a fixed number of whole
rounds (S * ROUNDS_PER_SECOND, rounded) in a closed loop with no think time,
then checks every output against independent numpy computations.  The last
line of stdout is a JSON object with `correct`, `attempted`, `failed` and
`metrics`: the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1.  See README.md.
"""

from __future__ import annotations

import os

# Fixed before numpy loads, so BLAS and OpenMP never pick their own count.
BLAS_THREADS = min(1, os.cpu_count() or 1)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

# Whole rounds per requested second: a round takes 1.5-3 s on the reference
# host, depending on how busy the host is, and --seconds 30 gives the 10
# rounds that README.md's percentiles assume.
ROUNDS_PER_SECOND = 1 / 3
# Set-up (inputs plus warm-up) is repeated and its median reported.
SETUP_REPS = 3
# Stop after the current round past this, to stay inside a 180 s limit.
LOOP_LIMIT_S = 150.0
# Samples that must lie beyond the tail percentile.
TAIL_BEYOND = 10

# Every timing metric is read from the process's CPU clock.  The benchmark
# is one thread (BLAS is pinned to one), so on an idle machine this clock
# and the wall clock agree.  On a shared virtual machine they do not: the
# hypervisor hands the vCPU to other guests for stretches of seconds, which
# stretches wall time, while a kernel with paravirtual steal accounting
# leaves that stolen time out of the process's CPU clock; so does time the
# process waits while other processes of the machine run.  Wall times are
# still printed in the `#` lines.
CLOCK = time.process_time


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=("spectral", "kernel", "realize"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_qschur():
    """Import the package from this checkout's src/ and time it."""
    if not os.path.isfile(os.path.join(SRC, "qschur", "__init__.py")):
        raise SystemExit("e2ebench: no qschur sources under %s" % SRC)
    sys.path.insert(0, SRC)
    t0 = CLOCK()
    import qschur
    import qschur.cli  # noqa: F401
    elapsed = CLOCK() - t0
    if not os.path.abspath(qschur.__file__).startswith(SRC + os.sep):
        raise SystemExit("e2ebench: qschur was imported from %s" % qschur.__file__)
    return elapsed


def host_probe_ms():
    """CPU and wall time of a fixed interpreter-plus-BLAS task, to tell a slow
    host from a slow program when two runs differ."""
    import numpy as np

    t0, w0 = CLOCK(), time.perf_counter()
    acc = 0
    for i in range(1500000):
        acc += i * i % 7
    a = np.random.default_rng(0).normal(size=(64, 64))
    for _ in range(1500):
        a = a @ a
        a /= np.linalg.norm(a)
    return 1e3 * (CLOCK() - t0), 1e3 * (time.perf_counter() - w0)


def steal_s():
    """Seconds the hypervisor has taken from this machine's vCPUs, summed
    over all of them (the `steal` column of /proc/stat); None if unknown."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def run_loop(wl, rounds, tracer):
    """Time `rounds` whole rounds; with a tracer, odd rounds are traced.

    Returns the records (op, output, error, latency_s, traced), with the
    latency on CLOCK, and each round as (traced, CLOCK seconds, wall
    seconds)."""
    records = []
    round_times = []
    t_loop = time.perf_counter()
    for r in range(rounds):
        traced = tracer is not None and r % 2 == 1
        if traced:
            tracer.install()
        t_round, w_round = CLOCK(), time.perf_counter()
        for op in wl.round(r):
            if traced:
                tracer.op = len(records)
            t0 = CLOCK()
            try:
                out, err = op.run(), None
            except Exception as exc:  # a refused operation counts as failed
                out, err = None, "%s: %s" % (type(exc).__name__, exc)
            records.append((op, out, err, CLOCK() - t0, traced))
        round_times.append((traced, CLOCK() - t_round, time.perf_counter() - w_round))
        if traced:
            tracer.uninstall()
        if time.perf_counter() - t_loop > LOOP_LIMIT_S:
            print("# stopped after %d of %d rounds (time limit)" % (r + 1, rounds))
            break
    return records, round_times


def check_all(wl, records):
    """Returns (failed, wrong, done, notes); wrong counts outputs that came
    back but failed a check."""
    failed = wrong = 0
    done, notes = [], []
    for op, out, err, _, _ in records:
        problems = [err] if err else op.check(out)
        if problems:
            failed += 1
            wrong += err is None
            if len(notes) < 5:
                notes.append("%s: %s" % (op.kind, "; ".join(problems)))
        else:
            done.append((op, out))
    return failed, wrong, done, notes


def main(argv=None):
    args = parse_args(argv)
    t_import = import_qschur()
    sys.path.insert(0, HERE)
    import workloads

    workdir = os.path.join(OUT, "work")
    os.makedirs(workdir, exist_ok=True)
    setups = []
    for _ in range(SETUP_REPS):
        t0 = CLOCK()
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        for op in wl.warmup_ops():
            op.run()
        setups.append(CLOCK() - t0)
    setup_s = t_import + statistics.median(setups)

    tracer = None
    if args.trace:
        import tracer as tracing
        tracer = tracing.Tracer()

    rounds = max(1, round(args.seconds * ROUNDS_PER_SECOND))
    gc.collect()
    probe_before = host_probe_ms()
    steal_before = steal_s()
    records, round_times = run_loop(wl, rounds, tracer)
    steal_after = steal_s()
    probe_after = host_probe_ms()
    attempted = len(records)
    failed, wrong, done, notes = check_all(wl, records)
    try:
        controls = wl.negative_controls(done)
    except StopIteration:
        controls = [("no passing output of every kind to perturb", False)]
    rejected = sum(1 for _, ok in controls if ok)
    correct = wrong == 0 and rejected == len(controls)

    lat = sorted(rec[3] for rec in records if not rec[4])
    n = len(lat)
    tail_rank = max(1, n - TAIL_BEYOND)   # 1-based rank with TAIL_BEYOND above it
    print("# workload=%s seed=%d rounds=%d operations=%d blas_threads=%d trace=%d"
          % (args.workload, args.seed, rounds, attempted, BLAS_THREADS, args.trace))
    print("# host probe (CPU/wall ms): %.1f/%.1f before the loop, %.1f/%.1f after"
          % (probe_before + probe_after))
    if steal_before is not None and steal_after is not None:
        print("# vCPU time stolen by the hypervisor during the loop: %.1f s (all vCPUs)"
              % (steal_after - steal_before))
    print("# round CPU times (s): %s" % " ".join("%.2f" % c for _, c, _ in round_times))
    print("# round wall times (s): %s" % " ".join("%.2f" % w for _, _, w in round_times))
    print("# latency_tail_ms is p%.2f (rank %d of %d untraced samples)"
          % (100.0 * tail_rank / n, tail_rank, n))
    for c in wl.classes:
        own = sorted(rec[3] for rec in records if not rec[4] and rec[0].kind == c.label)
        if own:
            print("#   class %-16s %4d samples, min %.1f ms, median %.1f ms, max %.1f ms"
                  % (c.label, len(own), 1e3 * own[0], 1e3 * statistics.median(own), 1e3 * own[-1]))
    print("# negative controls rejected: %d of %d" % (rejected, len(controls)))
    for label, ok in controls:
        if not ok:
            print("#   NOT rejected: %s" % label)
    for note in notes:
        print("# failed: %s" % note)

    if tracer is None:
        metrics = {
            "setup_s": (setup_s, "s"),
            # every round is the same work: the median round discounts host
            # stalls that a plain total would charge to the program
            "ops_per_s": ((attempted - failed) / (len(round_times) * statistics.median(c for _, c, _ in round_times)), "1/s"),
            "latency_p50_ms": (1e3 * statistics.median(lat), "ms"),
            "latency_tail_ms": (1e3 * lat[tail_rank - 1], "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    else:
        traced_ops = sum(1 for rec in records if rec[4])
        metrics = tracing.per_layer(tracer, traced_ops)
        untraced_ops = attempted - traced_ops
        traced_cpu = sum(c for traced, c, _ in round_times if traced)
        untraced_cpu = sum(c for traced, c, _ in round_times if not traced)
        traced_rate = traced_ops / traced_cpu if traced_cpu else 0.0
        untraced_rate = untraced_ops / untraced_cpu if untraced_cpu else 0.0
        metrics["trace.traced_ops_per_s"] = (traced_rate, "1/s")
        metrics["trace.untraced_ops_per_s"] = (untraced_rate, "1/s")
        metrics["trace.overhead_ratio"] = (
            traced_rate / untraced_rate if untraced_rate else 0.0, "ratio")
        tracer.dump(os.path.join(OUT, "trace-%s-seed%d.json" % (args.workload, args.seed)))

    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    with open(os.path.join(OUT, "result-%s-seed%d-trace%d.json"
                           % (args.workload, args.seed, args.trace)), "w") as fh:
        json.dump(result, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
