"""Acceptance battery: one test and one printed pass/fail line per criterion.

Run with  pytest tests/test_acceptance.py -v -s  to see the lines; each
criterion asserts its stated tolerance, so a plain pytest run fails loudly
on any regression.  The whole battery is budgeted well under two minutes.
"""

import math
import time

import numpy as np

from qschur import (
    ContourSpec,
    KernelCoeffs,
    QMatrix,
    Quaternion,
    SliceSeries,
    blaschke_point,
    blaschke_product,
    blaschke_reciprocal,
    blaschke_reciprocal_realization,
    cascade,
    char_operator,
    herm_eig,
    j_unitary_complete,
    kernel_identity_residuals,
    krein_langer_factor,
    lower_toeplitz,
    neg_squares,
    quaternion_in_slice,
    range_basis,
    realization_series,
    realization_sigma_I,
    resolvent_eq_residuals,
    riesz_projector,
    right_eigen_decomposition,
    right_eigen_spheres,
    s_eigencheck,
    s_resolvent_left,
    smallest_singular_value,
    spectral_split,
    sphere_of,
    star_inverse,
    star_mul,
    tail_bound,
)
from qschur.sampling import (
    ball_point,
    matrix_with_spectrum,
    random_qmatrix,
    random_quaternion,
    random_scalar_series,
    random_unit_imaginary,
    rng,
)
from qschur.verify import _riesz_by_resolvents


def report(num, name, worst, tol, extra=""):
    flag = "PASS" if worst < tol else "FAIL"
    print("[%s] criterion-%d %-26s worst=%.3e tol=%.1e %s"
          % (flag, num, name, worst, tol, extra))
    assert worst < tol, "criterion %d (%s): %g not below %g" % (num, name, worst, tol)


def off_spectrum_point(gen, T, margin):
    spheres = right_eigen_spheres(T)
    while True:
        s = random_quaternion(gen, 1.2)
        x, y = s.real, s.imag_norm()
        if all(math.hypot(x - sp.re, y - sp.im_mag) > margin for sp, _ in spheres):
            return s


def test_criterion_1_resolvent_equations():
    g = rng(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        T = random_qmatrix(g, 5)
        s = off_spectrum_point(g, T, 0.1)
        left, right = resolvent_eq_residuals(s, T)
        worst = max(worst, max(left, right) / (1.0 + T.norm()))
    elapsed = time.perf_counter() - start
    report(1, "resolvent-equations", worst, 1e-10,
           "(200 cases, %.2f s)" % elapsed)
    assert elapsed < 5.0


def separated_case(gen, dim):
    """dim distinct spheres whose moduli sit 0.22 apart, split mid-ladder."""
    pts = []
    for k in range(dim):
        r = 0.3 + 0.22 * k
        u = random_quaternion(gen)
        pts.append(u * (r / abs(u)))
    T = matrix_with_spectrum(gen, pts)
    cut = (dim + 1) // 2
    radius = 0.3 + 0.22 * (cut - 1) + 0.11
    return T, ContourSpec(0.0, radius, nodes=256), cut


def test_criterion_2_riesz_projectors():
    g = rng(102)
    worst_proj = 0.0
    worst_ident = 0.0
    worst_slice = 0.0
    for case in range(20):
        dim = 4 + case % 5
        T, spec, _ = separated_case(g, dim)
        P = riesz_projector(T, spec)
        worst_proj = max(worst_proj, (P @ P - P).norm(), (T @ P - P @ T).norm())
        lam = off_spectrum_point(g, T, 0.15)
        S = s_resolvent_left(lam, T)
        for proj in (P, QMatrix.eye(dim) - P):
            lhs = (proj @ S) * lam - (T @ proj) @ S
            worst_ident = max(worst_ident, (lhs - proj).norm())
        if case < 4:  # slice independence probed on a subset (it is slow)
            for _ in range(5):
                Pu = _riesz_by_resolvents(T, spec, random_unit_imaginary(g))
                worst_slice = max(worst_slice, (Pu - P).norm())
    report(2, "riesz-projector", worst_proj, 1e-8, "(P^2-P, TP-PT)")
    report(2, "projector-resolvent", worst_ident, 1e-7)
    report(2, "slice-independence", worst_slice, 1e-8)


def spheres_key(spheres):
    return sorted((round(s.re, 6), round(s.im_mag, 6)) for s, _ in spheres)


def test_criterion_3_spectral_split_union():
    g = rng(103)
    worst = 0.0
    for case in range(20):
        dim = 4 + case % 5
        T, spec, cut = separated_case(g, dim)
        split = spectral_split(T, spec)
        assert split.rank == cut
        comp = QMatrix.eye(dim) - split.projector
        basis2, rank2 = range_basis(comp, 1e-7)
        assert rank2 == dim - cut
        restr2 = basis2.adjoint() @ T @ basis2
        got = (right_eigen_spheres(split.restriction)
               + right_eigen_spheres(restr2))
        want = right_eigen_spheres(T)
        assert len(got) == len(want) == dim
        for (gr, gi), (wr, wi) in zip(spheres_key(got), spheres_key(want)):
            worst = max(worst, math.hypot(gr - wr, gi - wi))
    report(3, "split-spectrum-union", worst, 1e-6, "(20 cases)")


def test_criterion_4_point_spectrum_is_right_spectrum():
    g = rng(104)
    worst_char = 0.0
    worst_eig = 0.0
    for _ in range(50):
        T = random_qmatrix(g, 4)
        for sphere, _ in right_eigen_spheres(T):
            rep = sphere.representative()
            worst_char = max(
                worst_char, smallest_singular_value(char_operator(T, rep)))
        parts, _ = right_eigen_decomposition(T)
        for sphere, rep, basis in parts:
            for j in range(basis.cols):
                worst_eig = max(worst_eig, s_eigencheck(T, basis.column(j), rep))
    report(4, "char-operator-singular", worst_char, 1e-8, "(50 cases)")
    report(4, "eigenvector-residual", worst_eig, 1e-8)


def test_criterion_5_star_algebra():
    g = rng(105)
    worst_assoc = 0.0
    for _ in range(20):
        f = random_scalar_series(g, 16, scale=0.8)
        h = random_scalar_series(g, 16, scale=0.8)
        k = random_scalar_series(g, 16, scale=0.8)
        a1 = star_mul(star_mul(f, h), k)
        a2 = star_mul(f, star_mul(h, k))
        d1 = star_mul(f, h + k)
        d2 = star_mul(f, h) + star_mul(f, k)
        for n in range(17):
            worst_assoc = max(worst_assoc,
                              (a1.coeff(n) - a2.coeff(n)).norm(),
                              (d1.coeff(n) - d2.coeff(n)).norm())
    report(5, "star-assoc-distrib", worst_assoc, 1e-12, "(degree 16)")
    worst_inv = 0.0
    for _ in range(100):
        f = random_scalar_series(g, 16, scale=0.3, floor=0.6)
        one = star_mul(f, star_inverse(f))
        gap = max(abs(one.coeff(0).item() - Quaternion(1.0)),
                  max(abs(one.coeff(n).item()) for n in range(1, 17)))
        worst_inv = max(worst_inv, gap)
    report(5, "star-inverse-identity", worst_inv, 1e-10, "(100 series)")


def test_criterion_6_blaschke():
    g = rng(106)
    worst = -1.0
    for a in (Quaternion(0.8), Quaternion(0.3, 0.4, 0.1, -0.2),
              Quaternion(0.1, -0.55, 0.3, 0.2)):
        deg = 48
        B = blaschke_point(a, degree=deg)
        tb = tail_bound(a, deg)
        units = [random_unit_imaginary(g) for _ in range(4)]
        for unit in units:
            for k in range(16):
                theta = 2 * math.pi * k / 16
                p = quaternion_in_slice(math.cos(theta), math.sin(theta), unit)
                err = abs(abs(B.eval(p).item()) - 1.0) - tb
                worst = max(worst, err)
    report(6, "boundary-modulus", worst, 1e-10,
           "(beyond tail bound; 64 samples x 4 slices per point)")
    zeros = [Quaternion(0.5, 0.1, 0.0, -0.2),
             sphere_of(Quaternion(0.2, 0.0, 0.3)),
             Quaternion(-0.3, 0.2, 0.1, 0.1)]
    built = blaschke_product(zeros, degree=48)
    worst_zero = 0.0
    for z in zeros:
        pt = z.representative() if hasattr(z, "representative") else z
        worst_zero = max(worst_zero, abs(built.series.eval(pt).item()),
                         abs(built.value(pt)))
    report(6, "product-zeros", worst_zero, 1e-8, "(degree 48)")


def test_criterion_7_negative_squares():
    res_id = neg_squares(SliceSeries.variable(12), mu_max=10)
    ok_id = 0.0 if (res_id.kappa == 0 and res_id.stabilized) else 1.0
    report(7, "identity-kappa-0", ok_id, 0.5, "(counts %s)" % res_id.counts)

    a = Quaternion(0.25, 0.4, 0.1)
    c = Quaternion(0.6, 0.8)
    S = blaschke_reciprocal(a, degree=14).series * c
    res = neg_squares(S, mu_max=10)
    ok = 0.0 if (res.kappa == 1 and res.stabilized
                 and all(x <= 1 for x in res.counts)) else 1.0
    report(7, "reciprocal-kappa-1", ok, 0.5, "(counts %s)" % res.counts)

    g = rng(107)
    A = KernelCoeffs(S).block_matrix(6)
    base, _ = herm_eig(A)
    bad = 0
    for _ in range(20):
        alpha = random_scalar_series(g, 6, scale=0.7, floor=0.6)
        L = lower_toeplitz(alpha, 6)
        spec, _ = herm_eig(L @ A @ L.adjoint())
        if spec.signature != base.signature:
            bad += 1
    report(7, "congruence-invariance", float(bad), 0.5,
           "(20 random factors, signature %s)" % (base.signature,))


def test_criterion_8_realization():
    g = rng(108)
    A = random_qmatrix(g, 2, scale=0.3)
    C = QMatrix.from_entries([[random_quaternion(g), random_quaternion(g)]])
    R = j_unitary_complete(A, C, QMatrix.eye(1))
    report(8, "stein-residual", R.stein_residual(), 1e-10)
    report(8, "junitary-residual", R.junitary_residual(), 1e-8)
    pairs = [(ball_point(g, 0.5), ball_point(g, 0.5)) for _ in range(50)]
    worst = max(kernel_identity_residuals(R, pairs, degree=48))
    report(8, "kernel-identity", worst, 1e-8, "(50 point pairs)")
    shift = j_unitary_complete(QMatrix.scalar(0.0), QMatrix.scalar(1.0),
                               QMatrix.eye(1))
    S = realization_series(shift, 8)
    exact = max((S.coeff(n) - SliceSeries.variable(8).coeff(n)).norm()
                for n in range(9))
    report(8, "canonical-shift-exact", exact, 1e-14, "(S(p) = p)")


def kl_model(bs, a):
    R = realization_sigma_I(QMatrix.scalar(a), QMatrix.scalar(1.0))
    for b in bs:
        R = cascade(blaschke_reciprocal_realization(b), R)
    return R


def test_criterion_9_krein_langer_roundtrip():
    cases = [
        ([Quaternion(0.25, 0.4, 0.1)], 0.4, 1),
        ([Quaternion(0.25, 0.4, 0.1), Quaternion(-0.35, 0.0, 0.0, 0.3)], 0.3, 2),
    ]
    worst_sphere = 0.0
    for bs, a, want_kappa in cases:
        R = kl_model(bs, a)
        f = krein_langer_factor(R, degree=40)
        assert f.kappa == want_kappa, "kappa %d != %d" % (f.kappa, want_kappa)
        got = sorted((s.re, s.im_mag) for s, _ in f.zero_spheres)
        want = sorted((sphere_of(b).re, sphere_of(b).im_mag) for b in bs)
        for (gr, gi), (wr, wi) in zip(got, want):
            worst_sphere = max(worst_sphere, math.hypot(gr - wr, gi - wi))
        plain = neg_squares(f.schur_series.truncate(12), mu_max=8)
        assert plain.kappa == 0, "S0 kept %d negative squares" % plain.kappa
    report(9, "kl-roundtrip", worst_sphere, 1e-6,
           "(degree 1 and 2; kappa and zero spheres recovered, kappa(S0)=0)")
