"""The three workloads: fixed operation lists, their inputs and their checks.

Each workload is a list of size classes.  A class holds a pool of fixed
operations; one round runs `per_round` of them, the classes interleaved
round-robin, and every run is a whole number of identical rounds.  The
mixes are chosen so that the median latency falls well inside one class
and the tail percentile well inside the slowest one (see README.md).

Inputs come from numpy generators seeded by --seed; every check recomputes
what it needs with numpy (quatnp) or from theory, never from stored output.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os

import numpy as np

import qschur
import qschur.cli

import quatnp as qn


class Op:
    """One benchmark operation: `run()` is timed, `check(out)` is not.

    check returns a list of problems; an empty list means the output is
    correct.
    """

    def __init__(self, kind, run, check):
        self.kind = kind
        self.run = run
        self.check = check


class SizeClass:
    def __init__(self, label, per_round, pool):
        self.label = label
        self.per_round = per_round
        self.pool = pool  # list of Op

    def op(self, rnd, slot):
        return self.pool[(rnd * self.per_round + slot) % len(self.pool)]


class Workload:
    """Size classes plus `negative_controls(done)`: it feeds the checks
    deliberately wrong outputs built from `done`, a list of (Op, output) that
    passed, and returns a list of (label, rejected)."""

    def __init__(self, classes, negative_controls):
        self.classes = classes
        self.negative_controls = negative_controls

    def warmup_ops(self):
        return [c.pool[0] for c in self.classes]

    def round(self, rnd):
        """The operations of round `rnd`, classes interleaved evenly."""
        keyed = []
        for ci, c in enumerate(self.classes):
            for j in range(c.per_round):
                keyed.append(((j + 0.5) / c.per_round, ci, c.op(rnd, j)))
        keyed.sort(key=lambda t: (t[0], t[1]))
        return [op for _, _, op in keyed]


def _components(M):
    comp = M.to_components()
    return comp[..., 0] + 1j * comp[..., 1], comp[..., 2] + 1j * comp[..., 3]


def _bad(problems, ok, what):
    if not ok:
        problems.append(what)


# -- spectral -------------------------------------------------------------------

SPECTRAL_CLASSES = [(8, 3), (16, 11), (32, 2)]  # (n, operations per round)
SPECTRAL_NODES = 256
SPECTRAL_GAP = 0.3


def _spectral_op(gen, n, units):
    # a fixed half inside: the cost of extracting ran(P) grows with its rank,
    # so a rank drawn from the seed would make the run time depend on it
    n_in = n // 2
    pts = []
    for i in range(n):
        modulus = (gen.uniform(0.1, 1.0 - SPECTRAL_GAP) if i < n_in
                   else gen.uniform(1.0 + SPECTRAL_GAP, 2.0))
        pts.append(qn.point_on_sphere(gen, modulus, gen.uniform(0.0, math.pi)))
    a, b = qn.with_spectrum(gen, pts)
    T = qschur.QMatrix(a, b)
    chiT = qn.chi(a, b)
    mods = np.linalg.norm(np.asarray(pts), axis=1)
    rho = max(float(np.max(mods[:n_in])), float(np.max(1.0 / mods[n_in:])))
    # trapezoid error of the projector decays like rho^N; the floor covers
    # rounding in the N resolvent solves, each of norm up to 1/gap
    tol = 2 * n * rho ** SPECTRAL_NODES / (1.0 - rho ** SPECTRAL_NODES) + 1e-11 * n * SPECTRAL_NODES
    ref = {}
    spec = qschur.ContourSpec(0.0, 1.0, SPECTRAL_NODES)

    def reference():
        if "P" not in ref:
            w, X = np.linalg.eig(chiT)
            inside = np.abs(w) < 1.0
            ref["P"] = X[:, inside] @ np.linalg.inv(X)[inside, :]
        return ref["P"]

    def make(unit):
        def run():
            split = qschur.spectral_split(T, spec, unit)
            return {"P": qn.chi(*_components(split.projector)), "rank": split.rank}

        return run

    def check(out):
        P = out["P"]
        problems = []
        sv = np.linalg.svd(P, compute_uv=False)
        _bad(problems, out["rank"] == n_in, "rank %d != %d points inside" % (out["rank"], n_in))
        _bad(problems, int(np.sum(sv > 0.5)) == 2 * n_in, "numpy rank of P differs")
        _bad(problems, qn.qnorm(P @ P - P) <= tol, "P^2 != P")
        _bad(problems, qn.qnorm(P @ chiT - chiT @ P) <= tol * (1.0 + qn.qnorm(chiT)), "PT != TP")
        _bad(problems, qn.qnorm(P - reference()) <= tol, "P differs from the eigenvector projector")
        first = ref.setdefault("first", P)  # checked first, in whichever slice
        _bad(problems, qn.qnorm(P - first) <= 2 * tol, "P depends on the slice")
        return problems

    return [Op("n=%d" % n, make(u), check) for u in units]


def _spectral_controls(done):
    out = []
    op, res = done[0]
    bumped = dict(res, P=res["P"] + 1e-6 * np.eye(res["P"].shape[0]))
    out.append(("spectral: perturbed projector", bool(op.check(bumped))))
    out.append(("spectral: rank off by one", bool(op.check(dict(res, rank=res["rank"] + 1)))))
    other = next(r for o, r in done if o.check is not op.check and r["P"].shape == res["P"].shape)
    out.append(("spectral: projector of another matrix", bool(op.check(dict(other)))))
    return out


def spectral(seed, workdir):
    gen = np.random.default_rng(seed)
    random_unit = qschur.UnitImaginary.normalized(*gen.normal(size=3))
    units = [qschur.UnitImaginary(1, 0, 0), qschur.UnitImaginary(0, 1, 0),
             qschur.UnitImaginary(0, 0, 1), random_unit]
    classes = []
    for n, per_round in SPECTRAL_CLASSES:
        per_matrix = [_spectral_op(gen, n, units) for _ in range(per_round)]
        # slot j of round r runs matrix j in slice (r + j) % 4, so every
        # matrix meets all four slices every four rounds
        pool = [per_matrix[j][(r + j) % 4] for r in range(4) for j in range(per_round)]
        classes.append(SizeClass("n=%d" % n, per_round, pool))
    return Workload(classes, _spectral_controls)


# -- kernel ------------------------------------------------------------------------

# (mu_max, operations per round, pool, moduli of the reciprocal-factor zeros).
# Zeros nearer the sphere need more sections before kappa shows; nearer the
# origin the coefficients grow faster and push eigenvalues towards the
# relative zero threshold.  These ranges reach kappa by section 8 (mu 12) and
# 14 (mu 20), with every negative eigenvalue at least 1.7 times away from the
# threshold, over seeds 0-599 and 0-499.
NEGSQ_CLASSES = [(12, 8, 4, (0.5, 0.7)), (20, 2, 4, (0.7, 0.85))]
KID_DEGREE = 40
KID_PER_ROUND = 2
KID_TOL = 1e-8


def _section_negatives(coeffs, mu):
    """Negative squares of the section A_mu = I - L L*, L the lower-triangular
    Toeplitz matrix of the scalar coefficients, from numpy eigvalsh."""
    c = coeffs[:mu + 1]
    idx = np.subtract.outer(np.arange(mu + 1), np.arange(mu + 1))
    lower = idx >= 0
    La = np.where(lower, c[np.clip(idx, 0, None), 0], 0)
    Lb = np.where(lower, c[np.clip(idx, 0, None), 1], 0)
    L = qn.chi(La, Lb)
    return qn.inertia(np.eye(L.shape[0]) - L @ L.conj().T)[1]


def _negsq_op(gen, mu, k, moduli):
    recips = [qn.random_quaternion(gen, gen.uniform(*moduli)) for _ in range(k)]
    zeros = [qn.random_quaternion(gen, gen.uniform(0.2, 0.8)) for _ in range(2)]
    const = qn.random_quaternion(gen, 0.8)
    Q = qschur.Quaternion

    def run():
        S = qschur.SliceSeries.one(mu)
        for a in recips:
            S = qschur.star_mul(S, qschur.blaschke_reciprocal(Q(*a), mu).series)
        S = qschur.star_mul(S, qschur.blaschke_product([Q(*z) for z in zeros], mu).series)
        S = S * Q(*const)
        res = qschur.neg_squares(S, mu_max=mu)
        return {"counts": list(res.counts), "kappa": res.kappa,
                "stabilized": res.stabilized, "series": S}

    def check(out):
        problems = []
        _bad(problems, out["kappa"] == k, "kappa %d != %d reciprocal factors" % (out["kappa"], k))
        _bad(problems, out["stabilized"], "counts did not stabilize")
        _bad(problems, len(out["counts"]) == mu + 1, "wrong number of sections")
        coeffs = np.array([[x[0, 0] for x in _components(c)] for c in out["series"].coeffs()])
        for m, count in enumerate(out["counts"]):
            ref = _section_negatives(coeffs, m)
            if count != ref:
                problems.append("section %d: %d negatives, numpy eigvalsh gives %d" % (m, count, ref))
                break
        return problems

    return Op("negsq mu=%d" % mu, run, check)


def _kid_op(gen, n):
    pts = [qn.point_on_sphere(gen, gen.uniform(0.2, 0.7), gen.uniform(0.0, math.pi))
           for _ in range(n)]
    A = qschur.QMatrix(*qn.with_spectrum(gen, pts))
    C = qschur.QMatrix(*qn.random_matrix(gen, 1, n))
    R = qschur.j_unitary_complete(A, C, qschur.QMatrix.eye(1))
    Q = qschur.Quaternion
    pairs = [(Q(*qn.random_quaternion(gen, gen.uniform(0.1, 0.5))),
              Q(*qn.random_quaternion(gen, gen.uniform(0.1, 0.5)))) for _ in range(2)]

    def run():
        return {"residuals": list(qschur.kernel_identity_residuals(R, pairs, KID_DEGREE))}

    def check(out):
        worst = max(out["residuals"])
        return [] if worst <= KID_TOL else ["kernel identity residual %.3g > %g" % (worst, KID_TOL)]

    return Op("kernel-identity", run, check)


def _kernel_controls(done):
    out = []
    neg = next((o, r) for o, r in done if o.kind.startswith("negsq"))
    kid = next((o, r) for o, r in done if o.kind == "kernel-identity")
    op, res = neg
    out.append(("kernel: kappa off by one", bool(op.check(dict(res, kappa=res["kappa"] + 1)))))
    counts = list(res["counts"])
    counts[len(counts) // 2] += 1
    out.append(("kernel: one section count off by one",
                bool(op.check(dict(res, counts=counts, kappa=max(counts))))))
    op, res = kid
    out.append(("kernel: identity residual 1e-6",
                bool(op.check({"residuals": res["residuals"] + [1e-6]}))))
    return out


def kernel(seed, workdir):
    gen = np.random.default_rng(seed)
    classes = []
    for mu, per_round, pool_size, moduli in NEGSQ_CLASSES:
        pool = [_negsq_op(gen, mu, j % 4, moduli) for j in range(pool_size)]
        classes.append(SizeClass("negsq mu=%d" % mu, per_round, pool))
    classes.append(SizeClass("kernel-identity", KID_PER_ROUND,
                             [_kid_op(gen, 1 + j) for j in range(KID_PER_ROUND)]))
    return Workload(classes, _kernel_controls)


# -- realize ----------------------------------------------------------------------

# (state dimension n, [(k spheres outside the ball, outputs m) per slot]).
# k = 0 skips the Krein-Langer completion and runs about three times faster,
# so it stays out of the n = 12 class, where the median falls.
REALIZE_CLASSES = [
    (4, [(0, 1), (1, 2), (2, 1), (3, 2)]),
    (12, [(1, 1), (2, 2), (3, 1), (1, 2), (2, 1), (3, 2), (1, 1), (2, 2)]),
    (20, [(3, 1), (2, 2)]),
]
REALIZE_TOL = 1e-8


def run_cli(argv):
    """qschur.cli.main in process with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = qschur.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _realize_op(gen, n, k, m, workdir, tag):
    # angles spread over (0, pi) keep the Stein solution well conditioned and
    # rule out the resonance lambda_i conj(lambda_j) = 1
    angles = (np.arange(n) + gen.uniform(0.25, 0.75, size=n)) * math.pi / n
    gen.shuffle(angles)
    mods = np.concatenate([gen.uniform(1.1, 1.25, size=k), gen.uniform(0.8, 0.9, size=n - k)])
    pts = [qn.point_on_sphere(gen, r, t) for r, t in zip(mods, angles)]
    a, b = qn.with_spectrum(gen, pts)
    ca, cb = qn.random_matrix(gen, m, n)
    pair_path = os.path.join(workdir, "pair-%s.json" % tag)
    r_path = os.path.join(workdir, "R-%s.json" % tag)
    with open(pair_path, "w") as fh:
        json.dump({"A": qn.to_dict(a, b), "C": qn.to_dict(ca, cb)}, fh)
    chiA, chiC = qn.chi(a, b), qn.chi(ca, cb)
    expected = sorted((p[0] / r ** 2, float(np.linalg.norm(p[1:])) / r ** 2)
                      for p, r in zip(pts[:k], mods[:k]))

    def run():
        code1, out1, err1 = run_cli(["realize", "--input", pair_path, "--format", "json"])
        if code1 != 0:
            return {"codes": (code1, None), "stderr": err1}
        with open(r_path, "w") as fh:
            fh.write(out1)
        code2, out2, err2 = run_cli(["kl-factor", "--input", r_path, "--format", "json"])
        return {"codes": (code1, code2), "realize": out1, "kl": out2, "stderr": err1 + err2}

    def check(out):
        if out["codes"] != (0, 0):
            return ["exit codes %s: %s" % (out["codes"], out["stderr"].strip())]
        problems = []
        R = json.loads(out["realize"])
        kl = json.loads(out["kl"])
        A, B, C, D, P, sigma = (qn.chi_of_dict(R[key]) for key in ("A", "B", "C", "D", "P", "sigma"))
        _bad(problems, np.allclose(A, chiA, rtol=0, atol=1e-12) and np.allclose(C, chiC, rtol=0, atol=1e-12),
             "emitted A or C differs from the input")
        stein = qn.qnorm(P - A.conj().T @ P @ A - C.conj().T @ sigma @ C)
        _bad(problems, stein <= REALIZE_TOL * (1.0 + qn.qnorm(P)), "Stein residual %.3g" % stein)
        U = np.block([[A, B], [C, D]])
        H = np.block([[P, np.zeros((P.shape[0], sigma.shape[1]))],
                      [np.zeros((sigma.shape[0], P.shape[1])), sigma]])
        junit = qn.qnorm(U.conj().T @ H @ U - H)
        _bad(problems, junit <= REALIZE_TOL * (1.0 + qn.qnorm(H)), "J-unitary residual %.3g" % junit)
        _bad(problems, qn.inertia(P) == (n - k, k, 0),
             "inertia of P %s, expected %s" % (qn.inertia(P), (n - k, k, 0)))
        _bad(problems, kl["kappa"] == k, "kappa %d != %d" % (kl["kappa"], k))
        got = sorted((s["re"], s["im"]) for s in kl["zero_spheres"])
        _bad(problems, len(got) == k and all(s["mult"] == 1 for s in kl["zero_spheres"])
             and all(abs(g[0] - e[0]) <= 1e-8 and abs(g[1] - e[1]) <= 1e-8
                     for g, e in zip(got, expected)),
             "zero spheres %s, expected %s" % (got, expected))
        return problems

    return Op("n=%d" % n, run, check)


def _perturb(text, block, delta):
    d = json.loads(text)
    d[block]["entries"][0][0] += delta
    return json.dumps(d)


def _realize_controls(done):
    op, res = next((o, r) for o, r in done if json.loads(r["kl"])["kappa"] > 0)
    kl = json.loads(res["kl"])
    shifted = dict(kl, zero_spheres=[dict(s, re=s["re"] + 1e-3) for s in kl["zero_spheres"]])
    return [
        ("realize: broken B block", bool(op.check(dict(res, realize=_perturb(res["realize"], "B", 1e-3))))),
        ("realize: broken P", bool(op.check(dict(res, realize=_perturb(res["realize"], "P", 1e-3))))),
        ("realize: kappa off by one",
         bool(op.check(dict(res, kl=json.dumps(dict(kl, kappa=kl["kappa"] + 1)))))),
        ("realize: shifted zero sphere", bool(op.check(dict(res, kl=json.dumps(shifted))))),
        ("realize: exit code 1", bool(op.check(dict(res, codes=(0, 1))))),
    ]


def realize(seed, workdir):
    gen = np.random.default_rng(seed)
    classes = []
    for n, slots in REALIZE_CLASSES:
        pool = [_realize_op(gen, n, k, m, workdir, "n%d-%d" % (n, j))
                for j, (k, m) in enumerate(slots)]
        classes.append(SizeClass("n=%d" % n, len(pool), pool))
    return Workload(classes, _realize_controls)


WORKLOADS = {"spectral": spectral, "kernel": kernel, "realize": realize}
