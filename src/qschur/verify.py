"""Built-in self-check suites, exposed through the `verify` subcommand.

Every suite is a function cfg -> [CheckResult]; most checks compare a
computed residual against a tolerance scaled by cfg.tol_factor, so the
whole battery can be tightened or loosened from the command line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .quat import QI, QJ, QK, Quaternion, UnitImaginary, slice_decompose, sphere_of
from .qmatrix import QMatrix, right_eigen_spheres
from .series import (
    SliceSeries,
    star_mul,
    star_resolvent,
    star_resolvent_eval,
    star_left_eval,
)
from .sresolvent import (
    ContourSpec,
    resolvent_eq_residuals,
    riesz_projector,
    riesz_s_part,
    s_resolvent_left,
    spectral_split,
)
from .kernels import neg_squares
from .blaschke import (
    blaschke_point,
    blaschke_product,
    blaschke_reciprocal,
    blaschke_value,
    tail_bound,
)
from .realization import (
    blaschke_reciprocal_realization,
    cascade,
    j_unitary_complete,
    kernel_identity_residuals,
    krein_langer_factor,
    realization_eval,
    realization_series,
    realization_sigma_I,
)
from . import sampling


@dataclass
class RunConfig:
    seed: int = 1234
    degree: int = 40
    mu_max: int = 8
    tol_factor: float = 1.0


@dataclass
class CheckResult:
    name: str
    passed: bool
    value: float
    tol: float
    detail: str = ""

    def line(self):
        mark = "PASS" if self.passed else "FAIL"
        extra = " (%s)" % self.detail if self.detail else ""
        return "[%s] %-42s value=%.3e tol=%.3e%s" % (mark, self.name, self.value,
                                                     self.tol, extra)


def _res(name, value, tol, detail=""):
    return CheckResult(name, value <= tol, float(value), float(tol), detail)


def _flag(name, cond, detail=""):
    return CheckResult(name, bool(cond), 0.0 if cond else 1.0, 0.5, detail)


def suite_quat(cfg):
    gen = sampling.rng(cfg.seed)
    out = []
    h = max((QI * QJ - QK).norm_sq(), (QJ * QK - QI).norm_sq(),
            (QK * QI - QJ).norm_sq(), (QI * QI + Quaternion(1)).norm_sq())
    out.append(_res("hamilton-table", math.sqrt(h), 0.0))
    worst_assoc = 0.0
    worst_mod = 0.0
    for _ in range(50):
        p, q, r = (sampling.random_quaternion(gen) for _ in range(3))
        worst_assoc = max(worst_assoc, abs((p * q) * r - p * (q * r)))
        worst_mod = max(worst_mod, abs(abs(p * q) - abs(p) * abs(q)))
    out.append(_res("associativity", worst_assoc, 1e-12 * cfg.tol_factor))
    out.append(_res("modulus-multiplicative", worst_mod, 1e-12 * cfg.tol_factor))
    worst = 0.0
    for _ in range(20):
        p = sampling.random_quaternion(gen)
        x, y, unit = slice_decompose(p)
        if unit is not None:
            worst = max(worst, abs(Quaternion(x) + unit.as_quaternion() * y - p))
    out.append(_res("slice-reconstruction", worst, 1e-12 * cfg.tol_factor))
    return out


def suite_adjoint(cfg):
    import numpy as np
    gen = sampling.rng(cfg.seed + 1)
    out = []
    worst_mul = worst_adj = 0.0
    for _ in range(20):
        M = sampling.random_qmatrix(gen, 4)
        N = sampling.random_qmatrix(gen, 4)
        d = (M @ N).complex_adjoint() - M.complex_adjoint() @ N.complex_adjoint()
        worst_mul = max(worst_mul, float(np.linalg.norm(d)))
        d2 = M.adjoint().complex_adjoint() - M.complex_adjoint().conj().T
        worst_adj = max(worst_adj, float(np.linalg.norm(d2)))
    out.append(_res("chi-multiplicative", worst_mul, 1e-12 * cfg.tol_factor))
    out.append(_res("chi-star", worst_adj, 1e-13 * cfg.tol_factor))
    return out


def suite_resolvent(cfg):
    gen = sampling.rng(cfg.seed + 2)
    out = []
    worst_l = worst_r = 0.0
    for _ in range(10):
        T = sampling.random_qmatrix(gen, 4)
        s = sampling.random_quaternion(gen)
        s = s * ((T.norm2() + 1.5) / abs(s))  # safely off the spectrum
        l, r = resolvent_eq_residuals(s, T)
        worst_l = max(worst_l, l)
        worst_r = max(worst_r, r)
    out.append(_res("left-resolvent-equation", worst_l, 1e-9 * cfg.tol_factor))
    out.append(_res("right-resolvent-equation", worst_r, 1e-9 * cfg.tol_factor))
    return out


def _two_cluster_matrix(gen):
    pts = [Quaternion(0.3, 0.4, 0.0, 0.0),
           Quaternion(0.3, 0.0, 0.24, 0.32),   # same sphere as the first
           Quaternion(-0.2, 0.0, 0.35, 0.0),
           Quaternion(1.8, 0.6, 0.0, 0.0),
           Quaternion(-1.9, 0.0, 0.0, 0.4)]
    return sampling.matrix_with_spectrum(gen, pts)


def suite_projector(cfg):
    gen = sampling.rng(cfg.seed + 3)
    T = _two_cluster_matrix(gen)
    spec = ContourSpec(0.0, 1.0)
    P = riesz_projector(T, spec)
    out = []
    out.append(_res("projector-idempotent", (P @ P - P).norm(), 1e-8 * cfg.tol_factor))
    out.append(_res("projector-commutes", (P @ T - T @ P).norm(), 1e-8 * cfg.tol_factor))
    out.append(_res("projector-s-part", (riesz_s_part(T, spec) - T @ P).norm(),
                    1e-7 * cfg.tol_factor))
    split = spectral_split(T, spec)
    out.append(_flag("split-rank", split.rank == 3,
                     "rank %d, expected 3" % split.rank))
    inner = [sph for sph, _ in split.inside]
    restr = [sph for sph, _ in right_eigen_spheres(split.restriction)]
    ok = len(restr) == len(inner) and all(
        any(a.isclose(b, 1e-6) for b in inner) for a in restr)
    out.append(_flag("restriction-spectrum", ok))
    return out


def suite_quadrature(cfg):
    """The node-by-node trapezoid rule: 256 nodes give a projector, 16 nodes
    do not when the contour passes close to the spectrum."""
    gen = sampling.rng(cfg.seed + 4)
    pts = [Quaternion(0.0, 1.05, 0.0, 0.0), Quaternion(1.30, 0.4, 0.0, 0.0)]
    T = sampling.matrix_with_spectrum(gen, pts)
    Pc = _riesz_by_resolvents(T, ContourSpec(0.0, 1.2, 16), None)
    Pf = _riesz_by_resolvents(T, ContourSpec(0.0, 1.2, 256), None)
    ec = (Pc @ Pc - Pc).norm()
    ef = (Pf @ Pf - Pf).norm()
    out = [_res("fine-grid-idempotent", ef, 1e-6 * cfg.tol_factor),
           _flag("coarse-grid-inadequate", ec > 100 * max(ef, 1e-15),
                 "coarse %.2e vs fine %.2e" % (ec, ef))]
    return out


def _riesz_by_resolvents(T, spec, unit):
    """Slow reference for riesz_projector: the N-node trapezoid rule of the
    contour integral, summed node by node.

    Sums S_L^{-1}(s_k, T) e_k over the quaternionic nodes of spec in the
    slice of unit, so it depends on the slice wherever the projector would;
    its error against the exact projector decays like rho^N for normal T.
    """
    acc = QMatrix.zeros(T.rows, T.rows)
    for s, e in spec.points(unit):
        acc = acc + s_resolvent_left(s, T) * e
    return acc * (spec.radius / spec.nodes)


def suite_slices(cfg):
    gen = sampling.rng(cfg.seed + 5)
    T = _two_cluster_matrix(gen)
    spec = ContourSpec(0.0, 1.0)
    P = riesz_projector(T, spec)
    worst = 0.0
    units = [UnitImaginary(0, 1, 0), UnitImaginary(0, 0, 1),
             sampling.random_unit_imaginary(gen)]
    for u in units:
        worst = max(worst, (_riesz_by_resolvents(T, spec, u) - P).norm())
    return [_res("slice-independence", worst, 1e-9 * cfg.tol_factor)]


def suite_star(cfg):
    gen = sampling.rng(cfg.seed + 6)
    out = []
    worst = 0.0
    for _ in range(5):
        f = sampling.random_scalar_series(gen, 8)
        g = sampling.random_scalar_series(gen, 8)
        h = sampling.random_scalar_series(gen, 8)
        d = star_mul(star_mul(f, g), h) - star_mul(f, star_mul(g, h))
        worst = max(worst, max(c.norm() for c in d.coeffs()))
    out.append(_res("star-associative", worst, 1e-10 * cfg.tol_factor))
    # at real points the star product is the pointwise product
    f = sampling.random_scalar_series(gen, 6).pad(12)
    g = sampling.random_scalar_series(gen, 6).pad(12)
    x = Quaternion(0.7)
    d = (star_mul(f, g).eval(x) - f.eval(x) @ g.eval(x)).norm()
    out.append(_res("star-real-point", d, 1e-10 * cfg.tol_factor))
    # and elsewhere it composes through the conjugated point
    p = Quaternion(0.2, 0.3, -0.1, 0.4)
    fp = f.eval(p).item()
    q = fp.inverse() * p * fp
    d2 = (star_mul(f, g).eval(p).item() - fp * g.eval(q).item())
    out.append(_res("star-composition-rule", abs(d2), 1e-9 * cfg.tol_factor))
    # closed resolvent forms against their truncated series
    A = sampling.random_qmatrix(gen, 3) * 0.2
    C = sampling.random_qmatrix(gen, 2, 3)
    pt = Quaternion(0.3, 0.2, 0.1, -0.2)
    ser = star_resolvent(A, 60)
    d3 = (ser.eval(pt) - star_resolvent_eval(A, pt)).norm()
    out.append(_res("resolvent-closed-form", d3, 1e-9 * cfg.tol_factor))
    lser = SliceSeries([C @ c for c in ser.coeffs()])
    d4 = (lser.eval(pt) - star_left_eval(C, A, pt)).norm()
    out.append(_res("left-eval-closed-form", d4, 1e-9 * cfg.tol_factor))
    return out


def suite_blaschke(cfg):
    gen = sampling.rng(cfg.seed + 7)
    a = Quaternion(0.35, 0.3, -0.2, 0.1)
    deg = max(cfg.degree, 48)
    B = blaschke_point(a, deg)
    out = []
    tb = tail_bound(a, deg)
    out.append(_res("factor-vanishes-at-zero", abs(B.eval(a).item()),
                    tb + 1e-12 * cfg.tol_factor))
    u = sampling.random_quaternion(gen)
    u = u * (1.0 / abs(u))
    out.append(_res("boundary-modulus-one", abs(abs(blaschke_value(a, u)) - 1.0),
                    1e-12 * cfg.tol_factor))
    p = sampling.ball_point(gen, 0.8)
    out.append(_res("closed-form-matches-series",
                    abs(B.eval(p).item() - blaschke_value(a, p)),
                    tb + 1e-12 * cfg.tol_factor))
    # reciprocal coefficients grow like |1/a|^n, so check the identity at a
    # degree where float cancellation stays far below the tolerance
    rec = blaschke_reciprocal(a, 12)
    unit = star_mul(B.truncate(12), rec.series)
    d = (unit - SliceSeries.one(12)).norm_tail()
    out.append(_res("reciprocal-inverts", d, 1e-10 * cfg.tol_factor))
    out.append(_res("reciprocal-zero", abs(rec.value(rec.zero)), 1e-12 * cfg.tol_factor))
    zs = [Quaternion(0.4, 0.1, 0.0, 0.0), Quaternion(-0.1, 0.0, 0.45, 0.0)]
    prod = blaschke_product(zs, deg)
    worst = max(abs(prod.value(z)) for z in zs)
    out.append(_res("product-zeros", worst, 1e-12 * cfg.tol_factor))
    return out


def suite_negsq(cfg):
    out = []
    deg = max(cfg.degree, 30)
    zs = [Quaternion(0.4, 0.1, 0.0, 0.0), Quaternion(0.2, -0.3, 0.1, 0.0)]
    S = blaschke_product(zs, deg).series
    r0 = neg_squares(S, mu_max=cfg.mu_max)
    out.append(_flag("schur-kappa-zero", r0.kappa == 0 and r0.stabilized,
                     "counts %s" % r0.counts))
    b = Quaternion(0.3, 0.4, 0.0, 0.0)
    rec = blaschke_reciprocal(b, deg)
    S1 = star_mul(rec.series, SliceSeries.constant(Quaternion(0.3), deg))
    r1 = neg_squares(S1, mu_max=cfg.mu_max)
    out.append(_flag("reciprocal-kappa-one", r1.kappa == 1 and r1.stabilized,
                     "counts %s" % r1.counts))
    return out


def suite_realize(cfg):
    gen = sampling.rng(cfg.seed + 8)
    out = []
    R = realization_sigma_I(QMatrix.scalar(Quaternion(0.5)),
                            QMatrix.scalar(Quaternion(1.0)))
    out.append(_res("scalar-junitary", R.junitary_residual(), 1e-12 * cfg.tol_factor))
    S = realization_series(R, 20)
    worst = abs(S.coeff(0).item() + Quaternion(0.5))
    for n in range(1, 21):
        expect = Quaternion(0.75 * 0.5 ** (n - 1))
        worst = max(worst, abs(S.coeff(n).item() - expect))
    out.append(_res("scalar-moebius-series", worst, 1e-12 * cfg.tol_factor))
    p = sampling.ball_point(gen, 0.6)
    mob = (Quaternion(1) - p * Quaternion(0.5)).inverse() * (p - Quaternion(0.5))
    out.append(_res("scalar-moebius-value",
                    abs(realization_eval(R, p).item() - mob), 1e-12 * cfg.tol_factor))
    A = QMatrix.diag([Quaternion(0.1, 0.4, 0.0, 0.0), Quaternion(-0.3, 0.0, 0.2, 0.0)])
    C = sampling.random_qmatrix(gen, 1, 2)
    R2 = j_unitary_complete(A, C, QMatrix.eye(1))
    out.append(_res("completion-stein", R2.stein_residual(), 1e-10 * cfg.tol_factor))
    out.append(_res("completion-junitary", R2.junitary_residual(), 1e-9 * cfg.tol_factor))
    worst = 0.0
    for _ in range(2):
        pp = sampling.ball_point(gen, 0.5)
        qq = sampling.ball_point(gen, 0.5)
        worst = max(worst, kernel_identity_residuals(R2, [(pp, qq)], degree=48)[0])
    out.append(_res("kernel-identity", worst, 1e-8 * cfg.tol_factor))
    return out


def suite_klfactor(cfg):
    gen = sampling.rng(cfg.seed + 9)
    out = []
    b = Quaternion(0.25, 0.4, 0.1, 0.0)
    R1 = blaschke_reciprocal_realization(b, Quaternion(0.8, 0.1, 0.0, 0.0))
    R2 = realization_sigma_I(QMatrix.scalar(Quaternion(0.4)),
                             QMatrix.scalar(Quaternion(1.0)))
    R = cascade(R1, R2)
    fac = krein_langer_factor(R, degree=cfg.degree)
    out.append(_flag("kappa-counts-outside", fac.kappa == 1))
    ok = len(fac.zero_spheres) == 1 and fac.zero_spheres[0][0].isclose(sphere_of(b), 1e-8)
    out.append(_flag("zero-sphere-recovered", ok))
    S = realization_series(R, cfg.degree)
    recon = star_mul(fac.w_series, fac.schur_series)
    # relative per-coefficient residual: w_series entries grow geometrically
    d = max((recon.coeff(n) - S.coeff(n)).norm() / (1.0 + S.coeff(n).norm())
            for n in range(cfg.degree + 1))
    out.append(_res("factor-reconstructs", d, 1e-10 * cfg.tol_factor))
    r = neg_squares(fac.schur_series, mu_max=min(cfg.mu_max, 6))
    out.append(_flag("schur-part-plain", r.kappa == 0, "counts %s" % r.counts))
    return out


SUITES = {
    "quat": suite_quat,
    "adjoint": suite_adjoint,
    "resolvent": suite_resolvent,
    "projector": suite_projector,
    "quadrature": suite_quadrature,
    "slices": suite_slices,
    "star": suite_star,
    "blaschke": suite_blaschke,
    "negsq": suite_negsq,
    "realize": suite_realize,
    "klfactor": suite_klfactor,
}


def run_suites(cfg, names=None):
    names = list(SUITES) if not names else list(names)
    results = []
    for name in names:
        if name not in SUITES:
            raise KeyError("unknown suite %r" % name)
        for r in SUITES[name](cfg):
            r.name = "%s/%s" % (name, r.name)
            results.append(r)
    return results
