"""Command-line front end.

Subcommands
-----------
spectrum   eigenvalue spheres of a quaternionic matrix
sspec      S-resolvent residuals of a matrix at a point
negsq      negative-square counts of a series kernel
blaschke   build a product with prescribed zeros
realize    J-unitary completion of an (A, C, sigma) pair
kl-factor  split a realized function into reciprocal product and plain part
verify     run the built-in self-check suites

Exit codes: 0 success, 1 numeric failure, 2 unreadable input, 3 usage.

Matrices, series and realizations travel as JSON files in the formats
produced by their to_dict methods; quaternions on the command line are
comma-separated components "w,x,y,z" (trailing zeros may be omitted).
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys

import numpy as np

from .errors import QschurError, ShapeError
from .quat import Quaternion, Sphere, UnitImaginary
from .qmatrix import QMatrix, right_eigen_spheres
from .series import SliceSeries, star_mul
from .sresolvent import resolvent_eq_residuals, s_resolvent_left
from .kernels import neg_squares
from .blaschke import DEFAULT_DEGREE, blaschke_product
from .realization import (
    Realization,
    blaschke_reciprocal_realization,
    cascade,
    j_unitary_complete,
    krein_langer_factor,
    realization_sigma_I,
    realization_series,
    stein_solve,
)
from . import sampling
from .verify import RunConfig, SUITES, run_suites


class CLIParseError(ValueError):
    """Bad payload or malformed value on the command line (exit code 2)."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write("%s: error: %s\n" % (self.prog, message))
        sys.exit(3)


SLICES = {"i": UnitImaginary(1, 0, 0), "j": UnitImaginary(0, 1, 0),
          "k": UnitImaginary(0, 0, 1)}


def parse_quaternion(text):
    parts = [t for t in text.split(",") if t.strip() != ""]
    if not 1 <= len(parts) <= 4:
        raise CLIParseError("expected 1..4 comma-separated components, got %r" % text)
    try:
        vals = [float(t) for t in parts]
    except ValueError as exc:
        raise CLIParseError("bad quaternion %r: %s" % (text, exc)) from exc
    if not all(math.isfinite(v) for v in vals):
        raise CLIParseError("quaternion components must be finite, got %r" % text)
    vals += [0.0] * (4 - len(vals))
    return Quaternion(*vals)


def parse_zero(text):
    text = text.strip()
    if text.startswith("sphere:"):
        body = text[len("sphere:"):]
        try:
            re_, im_ = (float(t) for t in body.split(",")[:2])
        except ValueError as exc:
            raise CLIParseError("bad sphere zero %r" % text) from exc
        if not (math.isfinite(re_) and math.isfinite(im_)):
            raise CLIParseError("sphere zero components must be finite, got %r" % text)
        if im_ < 0:
            raise CLIParseError("sphere imaginary magnitude must be >= 0")
        return Sphere(re_, im_)
    return parse_quaternion(text)


def load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CLIParseError("cannot read %s: %s" % (path, exc)) from exc


def load_matrix(path):
    try:
        return QMatrix.from_dict(load_json(path))
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, CLIParseError):
            raise
        raise CLIParseError("not a matrix payload: %s" % exc) from exc


def load_series(path):
    try:
        return SliceSeries.from_dict(load_json(path))
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, CLIParseError):
            raise
        raise CLIParseError("not a series payload: %s" % exc) from exc


def load_realization(path):
    d = load_json(path)
    if not all(k in d for k in ("A", "B", "C", "D")):
        raise CLIParseError("realization payload needs A, B, C and D blocks")
    try:
        return Realization.from_dict(d)
    except (KeyError, TypeError, ValueError) as exc:
        raise CLIParseError("not a realization payload: %s" % exc) from exc


def demo_matrix(name, seed):
    gen = sampling.rng(seed)
    if name == "two-clusters":
        pts = [Quaternion(0.3, 0.4), Quaternion(0.3, 0.0, 0.24, 0.32),
               Quaternion(-0.2, 0.0, 0.35), Quaternion(1.8, 0.6),
               Quaternion(-1.9, 0.0, 0.0, 0.4)]
        return sampling.matrix_with_spectrum(gen, pts)
    if name == "hermitian":
        return sampling.random_hermitian(gen, 4)
    raise CLIParseError("unknown demo matrix %r (try two-clusters, hermitian)" % name)


def demo_realization(name, seed):
    if name == "moebius":
        return realization_sigma_I(QMatrix.scalar(Quaternion(0.5)),
                                   QMatrix.scalar(Quaternion(1.0)))
    if name == "reciprocal":
        R1 = blaschke_reciprocal_realization(Quaternion(0.25, 0.4, 0.1))
        R2 = realization_sigma_I(QMatrix.scalar(Quaternion(0.4)),
                                 QMatrix.scalar(Quaternion(1.0)))
        # cascade attaches no P; both factors are unitary for diag(P_i, 1), so
        # the cascade is unitary for its Stein solution diag(P1, P2)
        R = cascade(R1, R2)
        R.P, _ = stein_solve(R.A, R.C, R.sigma)
        return R
    raise CLIParseError("unknown demo realization %r (try moebius, reciprocal)" % name)


def _get_matrix(args):
    if getattr(args, "input", None):
        return load_matrix(args.input)
    if getattr(args, "demo", None):
        return demo_matrix(args.demo, args.seed)
    if getattr(args, "random", None):
        return sampling.random_qmatrix(sampling.rng(args.seed), args.random)
    raise CLIParseError("no matrix given: use --input, --demo or --random")


def emit(args, payload, lines, rows=None):
    fmt = getattr(args, "format", "text")
    if fmt == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    elif fmt == "csv":
        if rows is None:
            raise CLIParseError("csv output is not available for this command")
        w = csv.writer(sys.stdout)
        for row in rows:
            w.writerow(row)
    else:
        for ln in lines:
            print(ln)


def _fmt_q(q):
    return "%.12g,%.12g,%.12g,%.12g" % (q.x0, q.x1, q.x2, q.x3)


# -- subcommand handlers ------------------------------------------------------------


def cmd_spectrum(args):
    T = _get_matrix(args)
    spheres = right_eigen_spheres(T, cluster_tol=args.tol)
    payload = {"spheres": [{"re": s.re, "im": s.im_mag,
                            "modulus": s.modulus(), "mult": m}
                           for s, m in spheres]}
    lines = ["%-14.8g %-14.8g %-14.8g %d" % (s.re, s.im_mag, s.modulus(), m)
             for s, m in spheres]
    lines.insert(0, "%-14s %-14s %-14s %s" % ("re", "im", "modulus", "mult"))
    rows = [("re", "im", "modulus", "mult")] + [
        (s.re, s.im_mag, s.modulus(), m) for s, m in spheres]
    emit(args, payload, lines, rows)
    return 0


def cmd_sspec(args):
    T = _get_matrix(args)
    s = parse_quaternion(args.point)
    SL = s_resolvent_left(s, T, rtol=args.tol)
    left, right = resolvent_eq_residuals(s, T)
    payload = {"point": s.to_list(), "left_residual": left,
               "right_residual": right, "resolvent_norm": SL.norm()}
    lines = ["s               = %s" % _fmt_q(s),
             "left residual   = %.6e" % left,
             "right residual  = %.6e" % right,
             "resolvent norm  = %.6e" % SL.norm()]
    emit(args, payload, lines,
         [("left_residual", "right_residual", "resolvent_norm"),
          (left, right, SL.norm())])
    return 0


def cmd_negsq(args):
    S = load_series(args.input)
    res = neg_squares(S, mu_max=args.mu_max,
                      tol=args.tol if args.tol > 0 else None)
    payload = {"counts": res.counts, "kappa": res.kappa,
               "stabilized": res.stabilized, "window": res.window}
    lines = ["%-4s %s" % ("mu", "negatives")]
    lines += ["%-4d %d" % (mu, c) for mu, c in res.table()]
    lines.append("kappa = %d (%s)" % (
        res.kappa, "stabilized" if res.stabilized else "NOT stabilized"))
    rows = [("mu", "negatives")] + list(res.table())
    emit(args, payload, lines, rows)
    return 0


def cmd_blaschke(args):
    zeros = [parse_zero(t) for t in args.zeros.split(";") if t.strip()]
    if not zeros:
        raise CLIParseError("no zeros given")
    prod = blaschke_product(zeros, degree=args.degree)
    checks = []
    for z in zeros:
        pt = z.representative() if isinstance(z, Sphere) else z
        checks.append(abs(prod.value(pt)))
    head = min(args.degree, 8)
    payload = {
        "factors": [{"kind": k,
                     "parameter": (p.to_list() if k == "point"
                                   else [p.re, p.im_mag])}
                    for k, p in prod.factors],
        "coefficients": [prod.series.coeff(n).item().to_list()
                         for n in range(head + 1)],
        "zero_residuals": checks,
    }
    lines = ["factor %d: %s %s" % (i, k, (_fmt_q(p) if k == "point" else p))
             for i, (k, p) in enumerate(prod.factors)]
    lines += ["c[%d] = %s" % (n, _fmt_q(prod.series.coeff(n).item()))
              for n in range(head + 1)]
    lines += ["|B(z_%d)| = %.3e" % (i, v) for i, v in enumerate(checks)]
    rows = [("n", "w", "x", "y", "z")] + [
        tuple([n] + prod.series.coeff(n).item().to_list())
        for n in range(args.degree + 1)]
    emit(args, payload, lines, rows)
    return 0 if all(v <= 1e-8 for v in checks) else 1


def cmd_realize(args):
    if args.demo:
        R = demo_realization(args.demo, args.seed)
    else:
        d = load_json(args.input)
        try:
            A = QMatrix.from_dict(d["A"])
            C = QMatrix.from_dict(d["C"])
            sigma = QMatrix.from_dict(d["sigma"]) if "sigma" in d else QMatrix.eye(C.rows)
        except (KeyError, TypeError, ValueError) as exc:
            raise CLIParseError("need A and C blocks: %s" % exc) from exc
        try:
            R = j_unitary_complete(A, C, sigma)
        except ShapeError as exc:
            raise CLIParseError("bad pair payload: %s" % exc) from exc
    stein = R.stein_residual()
    juni = R.junitary_residual()
    S = realization_series(R, min(args.degree, 8))
    payload = R.to_dict()
    payload["stein_residual"] = stein
    payload["junitary_residual"] = juni
    payload["series_head"] = S.to_dict()
    lines = ["state dimension   = %d" % R.state_dim,
             "stein residual    = %.6e" % stein,
             "junitary residual = %.6e" % juni]
    lines += ["s[%d] head entry = %s" % (n, _fmt_q(S.coeff(n).entry(0, 0)))
              for n in range(min(args.degree, 8) + 1)]
    emit(args, payload, lines,
         [("stein_residual", "junitary_residual"), (stein, juni)])
    return 0 if max(stein, juni) <= max(args.tol, 1e-8) else 1


def cmd_kl_factor(args):
    if args.demo:
        R = demo_realization(args.demo, args.seed)
    else:
        R = load_realization(args.input)
    fac = krein_langer_factor(R, degree=args.degree)
    S = realization_series(R, args.degree)
    recon = star_mul(fac.w_series, fac.schur_series)
    resid = float(np.max((recon - S).coeff_norms() / (1.0 + S.coeff_norms())))
    payload = {"kappa": fac.kappa,
               "zero_spheres": [{"re": s.re, "im": s.im_mag, "mult": m}
                                for s, m in fac.zero_spheres],
               "reconstruction_residual": resid}
    lines = ["kappa = %d" % fac.kappa]
    lines += ["zero sphere: re=%.12g im=%.12g mult=%d" % (s.re, s.im_mag, m)
              for s, m in fac.zero_spheres]
    lines.append("reconstruction residual = %.6e" % resid)
    rows = [("re", "im", "mult")] + [(s.re, s.im_mag, m)
                                     for s, m in fac.zero_spheres]
    emit(args, payload, lines, rows)
    return 0 if resid <= max(args.tol, 1e-7) else 1


def cmd_verify(args):
    names = args.suite or list(SUITES)
    if args.list:
        for n in SUITES:
            print(n)
        return 0
    cfg = RunConfig(seed=args.seed, degree=args.degree, nodes=args.nodes,
                    mu_max=args.mu_max, tol_factor=args.tol)
    try:
        results = run_suites(cfg, names)
    except KeyError as exc:
        raise CLIParseError(str(exc)) from exc
    failed = [r for r in results if not r.passed]
    if args.format == "json":
        print(json.dumps({"results": [r.__dict__ for r in results],
                          "failed": len(failed)}, indent=2, sort_keys=True))
    else:
        for r in results:
            print(r.line())
        print("%d checks, %d failed" % (len(results), len(failed)))
    return 1 if failed else 0


# -- parser ----------------------------------------------------------------------


def _number(convert, accept, rule):
    """argparse type: convert the text, then require accept(value); a value
    that fails either is a usage error (exit 3)."""
    def parse(text):
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                "invalid %s value: %r" % (convert.__name__, text)) from None
        if not accept(value):
            raise argparse.ArgumentTypeError("must be %s, got %r" % (rule, text))
        return value
    return parse


_count = _number(int, lambda v: v >= 0, ">= 0")            # --degree, --mu-max
_size = _number(int, lambda v: v >= 1, ">= 1")             # --random
_nodes = _number(int, lambda v: v >= 16 and v % 2 == 0,    # --nodes, as ContourSpec
                 "an even integer >= 16")
_tol = _number(float, lambda v: math.isfinite(v) and v >= 0, "a finite number >= 0")


def _add_common(p, fmt=True, seed=True, tol=None):
    if fmt:
        p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    if seed:
        p.add_argument("--seed", type=int, default=0)
    if tol is not None:
        p.add_argument("--tol", type=_tol, default=tol)


@functools.lru_cache(maxsize=None)
def build_parser():
    """The argument parser, built once per process; parse_args returns a
    fresh Namespace on every call."""
    top = _Parser(prog="qschur",
                  description="quaternionic slice-function toolkit")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="eigenvalue spheres of a matrix",
                       parents=[], description="List right-spectrum spheres.")
    p.add_argument("--input", help="matrix JSON file")
    p.add_argument("--demo", help="built-in demo matrix name")
    p.add_argument("--random", type=_size, help="random matrix of this size")
    _add_common(p, tol=1e-8)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("sspec", help="S-resolvent residuals at a point")
    p.add_argument("--input", help="matrix JSON file")
    p.add_argument("--demo", help="built-in demo matrix name")
    p.add_argument("--random", type=_size, help="random matrix of this size")
    p.add_argument("--point", required=True, help="quaternion w,x,y,z")
    _add_common(p, tol=1e-12)
    p.set_defaults(func=cmd_sspec)

    p = sub.add_parser("negsq", help="negative squares of a series kernel")
    p.add_argument("--input", required=True, help="series JSON file")
    p.add_argument("--mu-max", type=_count, default=12)
    _add_common(p, seed=False, tol=0.0)
    p.set_defaults(func=cmd_negsq)

    p = sub.add_parser("blaschke", help="product with prescribed zeros")
    p.add_argument("--zeros", required=True,
                   help="semicolon-separated zeros: w,x,y,z or sphere:re,im")
    p.add_argument("--degree", type=_count, default=DEFAULT_DEGREE)
    _add_common(p, seed=False)
    p.set_defaults(func=cmd_blaschke)

    p = sub.add_parser("realize", help="J-unitary completion of (A, C, sigma)")
    p.add_argument("--input", help="JSON file with A, C and optional sigma")
    p.add_argument("--demo", help="built-in demo realization name")
    p.add_argument("--degree", type=_count, default=8)
    _add_common(p, tol=1e-8)
    p.set_defaults(func=cmd_realize)

    p = sub.add_parser("kl-factor", help="reciprocal/plain factorization")
    p.add_argument("--input", help="realization JSON file")
    p.add_argument("--demo", help="built-in demo realization name")
    p.add_argument("--degree", type=_count, default=DEFAULT_DEGREE)
    _add_common(p, tol=1e-7)
    p.set_defaults(func=cmd_kl_factor)

    p = sub.add_parser("verify", help="run built-in self-check suites")
    p.add_argument("--suite", action="append",
                   help="suite name (repeatable; default all)")
    p.add_argument("--list", action="store_true", help="list suite names")
    p.add_argument("--nodes", type=_nodes, default=256)
    p.add_argument("--degree", type=_count, default=40)
    p.add_argument("--mu-max", type=_count, default=8)
    _add_common(p, tol=1.0)
    p.set_defaults(func=cmd_verify)
    return top


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CLIParseError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except (QschurError, ZeroDivisionError) as exc:
        print("numeric failure: %s" % exc, file=sys.stderr)
        return 1


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
