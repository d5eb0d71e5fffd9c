"""Spans and counters around qschur's public functions, installed from outside.

Modules import functions by name (`from .qmatrix import solve`), so a
function is replaced at every qschur module's own binding of it, not only
where it is defined.  Functions in SPANNED get a span (name, operation id,
parent span, start, end); the tiny hot methods in COUNTED only count calls,
since a span per call would cost more than the call.  Spans are kept in
memory and written out once, when the run ends.

Only runs with --trace 1 import this module.
"""

from __future__ import annotations

import io
import json
import sys
import time
from collections import defaultdict

SPANNED = {
    "qmatrix": ["solve", "solve_right", "inverse", "herm_eig", "gram_schmidt_columns",
                "indefinite_gram_schmidt", "right_eigen_spheres", "right_eigen_decomposition",
                "null_basis", "range_basis", "char_operator", "is_invertible"],
    "sresolvent": ["s_resolvent_left", "s_resolvent_right", "riesz_projector", "spectral_split"],
    "series": ["star_mul", "star_solve_left", "star_inverse", "star_left_eval"],
    "kernels": ["neg_squares", "KernelCoeffs.block_matrix", "KernelCoeffs.value"],
    "blaschke": ["blaschke_product", "blaschke_reciprocal"],
    "realization": ["stein_solve", "j_unitary_complete", "krein_langer_factor",
                    "kernel_identity_residuals"],
    "cli": ["main"],
}

# Spans are timed on the process's CPU clock, like the end-to-end metrics
# in run.py, so that time the vCPU spends on other work is not charged to a
# layer.
CLOCK = time.process_time

COUNTED = {"quat.mul": ("quat", "Quaternion.__mul__"),
           "qmatrix.matmul": ("qmatrix", "QMatrix.__matmul__")}


class Tracer:
    def __init__(self):
        self.names = []          # span name per span
        self.ops = []            # operation id per span
        self.parents = []        # index of the enclosing span, -1 at top level
        self.starts = []
        self.ends = []
        self.stack = []
        self.op = -1
        self.counts = defaultdict(float)
        self._patches = []

    # -- installation -----------------------------------------------------------

    def install(self):
        mods = {name.split(".", 1)[1]: mod for name, mod in sys.modules.items()
                if name.startswith("qschur.") and mod is not None}
        everywhere = [m for name, m in sys.modules.items()
                      if (name == "qschur" or name.startswith("qschur.")) and m is not None]
        for short, funcs in SPANNED.items():
            for fname in funcs:
                owner, attr = _resolve(mods[short], fname)
                orig = getattr(owner, attr)
                wrapped = self._span("%s.%s" % (short, fname.split(".")[-1]), orig)
                if owner is mods[short]:
                    for m in everywhere:
                        for key, val in list(vars(m).items()):
                            if val is orig:
                                self._patch(m, key, wrapped)
                else:
                    self._patch(owner, attr, wrapped)
        for label, (short, fname) in COUNTED.items():
            owner, attr = _resolve(mods[short], fname)
            self._patch(owner, attr, self._counter(label, getattr(owner, attr)))
        kc = mods["kernels"].KernelCoeffs
        self._patch(kc, "coeff", self._coeff_counter(kc.coeff))

    def uninstall(self):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    # -- wrappers ------------------------------------------------------------------

    def _span(self, name, fn):
        tracer = self
        extra = _EXTRAS.get(name)

        def wrapper(*args, **kwargs):
            idx = len(tracer.names)
            tracer.names.append(name)
            tracer.ops.append(tracer.op)
            tracer.parents.append(tracer.stack[-1] if tracer.stack else -1)
            tracer.starts.append(0.0)
            tracer.ends.append(0.0)
            tracer.stack.append(idx)
            before = extra.before(args) if extra else None
            t0 = CLOCK()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = CLOCK()
                tracer.stack.pop()
                tracer.starts[idx] = t0
                tracer.ends[idx] = t1
                if extra:
                    extra.after(tracer.counts, args, before)

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, label, fn):
        counts = self.counts
        key = label + ".calls"

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _coeff_counter(self, fn):
        counts = self.counts

        def coeff(kc, n, m):
            counts["kernels.coeff.calls"] += 1
            if (n, m) in kc._cache:
                counts["kernels.coeff.hits"] += 1
            return fn(kc, n, m)

        return coeff

    # -- results -------------------------------------------------------------------

    def self_ms(self):
        """Total self time per span name, in ms: duration minus the part
        covered by child spans."""
        dur = [e - s for s, e in zip(self.starts, self.ends)]
        child = [0.0] * len(dur)
        for i, p in enumerate(self.parents):
            if p >= 0:
                child[p] += dur[i]
        out = defaultdict(float)
        calls = defaultdict(int)
        for i, name in enumerate(self.names):
            out[name] += 1e3 * (dur[i] - child[i])
            calls[name] += 1
        return out, calls

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"names": self.names, "op": self.ops, "parent": self.parents,
                       "start": self.starts, "end": self.ends,
                       "counts": dict(self.counts)}, fh)


def _resolve(module, dotted):
    owner = module
    parts = dotted.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class _SteinKron:
    """Computed size of the Kronecker system in the direct Stein solve:
    (2n)^2 x (2n)^2 complex128 entries, (2n)^4 * 16 bytes."""

    def before(self, args):
        return None

    def after(self, counts, args, before):
        counts["realization.stein_solve.kron_mb"] += (2 * args[0].rows) ** 4 * 16 / 1e6


class _StdoutBytes:
    """Characters cli.main writes to stdout (captured in a StringIO)."""

    def before(self, args):
        return sys.stdout.tell() if isinstance(sys.stdout, io.StringIO) else None

    def after(self, counts, args, before):
        if before is not None:
            counts["cli.json_bytes"] += sys.stdout.tell() - before


_EXTRAS = {"realization.stein_solve": _SteinKron(), "cli.main": _StdoutBytes()}


def per_layer(tracer, traced_ops):
    """Per-operation layer metrics of the traced operations."""
    self_ms, calls = tracer.self_ms()
    c = tracer.counts
    per = 1.0 / max(traced_ops, 1)
    coeff_calls = c["kernels.coeff.calls"]
    m = {
        "quat.mul.calls": (c["quat.mul.calls"] * per, "count"),
        "qmatrix.matmul.calls": (c["qmatrix.matmul.calls"] * per, "count"),
        "qmatrix.solve.calls": (calls["qmatrix.solve"] * per, "count"),
        "qmatrix.solve.self_ms": (self_ms["qmatrix.solve"] * per, "ms"),
        "qmatrix.herm_eig.calls": (calls["qmatrix.herm_eig"] * per, "count"),
        "qmatrix.herm_eig.self_ms": (self_ms["qmatrix.herm_eig"] * per, "ms"),
        "qmatrix.gram_schmidt.self_ms": (
            (self_ms["qmatrix.gram_schmidt_columns"] + self_ms["qmatrix.indefinite_gram_schmidt"]) * per, "ms"),
        "qmatrix.right_eigen.self_ms": (
            (self_ms["qmatrix.right_eigen_spheres"] + self_ms["qmatrix.right_eigen_decomposition"]) * per, "ms"),
        "qmatrix.null_basis.self_ms": (self_ms["qmatrix.null_basis"] * per, "ms"),
        "qmatrix.range_basis.self_ms": (self_ms["qmatrix.range_basis"] * per, "ms"),
        "sresolvent.s_resolvent_left.calls": (calls["sresolvent.s_resolvent_left"] * per, "count"),
        "sresolvent.riesz_projector.self_ms": (self_ms["sresolvent.riesz_projector"] * per, "ms"),
        "sresolvent.spectral_split.self_ms": (self_ms["sresolvent.spectral_split"] * per, "ms"),
        "series.star_mul.calls": (calls["series.star_mul"] * per, "count"),
        "series.star_mul.self_ms": (self_ms["series.star_mul"] * per, "ms"),
        "series.star_solve_left.self_ms": (self_ms["series.star_solve_left"] * per, "ms"),
        "series.star_left_eval.calls": (calls["series.star_left_eval"] * per, "count"),
        "kernels.coeff.calls": (coeff_calls * per, "count"),
        "kernels.coeff.hit_ratio": (c["kernels.coeff.hits"] / coeff_calls if coeff_calls else 0.0, "ratio"),
        "kernels.block_matrix.self_ms": (self_ms["kernels.block_matrix"] * per, "ms"),
        "kernels.neg_squares.self_ms": (self_ms["kernels.neg_squares"] * per, "ms"),
        "kernels.value.self_ms": (self_ms["kernels.value"] * per, "ms"),
        "blaschke.build.self_ms": (
            (self_ms["blaschke.blaschke_product"] + self_ms["blaschke.blaschke_reciprocal"]) * per, "ms"),
        "realization.stein_solve.self_ms": (self_ms["realization.stein_solve"] * per, "ms"),
        "realization.stein_solve.kron_mb": (c["realization.stein_solve.kron_mb"] * per, "MB_computed"),
        "realization.j_unitary_complete.self_ms": (self_ms["realization.j_unitary_complete"] * per, "ms"),
        "realization.krein_langer_factor.self_ms": (self_ms["realization.krein_langer_factor"] * per, "ms"),
        "realization.kernel_identity_residuals.self_ms": (
            self_ms["realization.kernel_identity_residuals"] * per, "ms"),
        "cli.main.self_ms": (self_ms["cli.main"] * per, "ms"),
        "cli.json_bytes": (c["cli.json_bytes"] * per, "bytes"),
        "trace.spans": (len(tracer.names) * per, "count"),
    }
    return m
