"""Slow per-object references that the array paths in src/ replaced.

Each is the loop, or the older algorithm, that the library ran before its
current form; tests pin the current form to it.
"""

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.linalg import schur, solve_sylvester, solve_triangular

from qschur import (
    BadSignatureError,
    CompletionFailureError,
    HermSpectrum,
    NegSquares,
    NotHermitianError,
    QMatrix,
    Quaternion,
    Realization,
    SliceSeries,
    star_inverse,
    star_mul,
)
from qschur.qmatrix import (
    _column_echelon,
    _columns_from_complex,
    block,
    from_complex_adjoint,
    gram_schmidt_columns,
    herm_eig,
    hstack,
    indefinite_gram_schmidt,
    inverse,
    null_basis,
    solve,
    vstack,
)
from qschur.realization import _phase_normalize_columns
from qschur.kernels import KernelCoeffs
from qschur.series import lower_toeplitz


def star_solve_left_by_degree(f, g):
    """f * x = g by block forward substitution, one coefficient per step:
    x_n = f_0^{-1} (g_n - [f_n ... f_1] [x_0; ...; x_{n-1}])."""
    c0_inv = inverse(f.coeff(0))
    d = min(f.degree, g.degree)
    L = lower_toeplitz(f, d)
    r = f.rows
    x = c0_inv @ g.coeff(0)
    for n in range(1, d + 1):
        rhs = g.coeff(n) - L[n * r:(n + 1) * r, :n * r] @ x
        x = vstack([x, c0_inv @ rhs])
    return SliceSeries._from_stacked(x, d)


def realization_series_by_degree(A, B, C, D, degree):
    """D, CB, CAB, ... with one QMatrix product per coefficient."""
    coeffs = [D]
    left = C
    for _ in range(degree):
        coeffs.append(left @ B)
        left = left @ A
    return SliceSeries(coeffs)


def herm_eig_by_groups(H, tol=None):
    """herm_eig with one Gram-Schmidt call and one QMatrix per column for
    every eigenvalue group of chi(H)."""
    n = H.rows
    w, U = np.linalg.eigh(H.complex_adjoint())
    scale = float(np.max(np.abs(w))) if len(w) else 0.0
    if tol is None:
        tol = 1e-8 * scale
    gap = 1e-12 * (1.0 + scale)
    groups = []
    start = 0
    for i in range(1, 2 * n + 1):
        if i == 2 * n or w[i] - w[i - 1] > gap:
            groups.append(list(range(start, i)))
            start = i
    while any(len(g) % 2 for g in groups):
        i = next(k for k, g in enumerate(groups) if len(g) % 2)
        if i + 1 < len(groups) and (i == 0 or
                w[groups[i + 1][0]] - w[groups[i][-1]]
                <= w[groups[i][0]] - w[groups[i - 1][-1]]):
            groups[i] = groups[i] + groups.pop(i + 1)
        else:
            groups[i - 1] = groups[i - 1] + groups.pop(i)
    eigs = []
    plus, minus, zero = [], [], []
    for grp in groups:
        lam = float(np.mean(w[grp]))
        mult = len(grp) // 2
        basis, got = gram_schmidt_columns(_columns_from_complex(U[:, grp], n), rtol=1e-8)
        if got < mult:
            raise NotHermitianError("eigenspace extraction failed (defective input?)")
        eigs.extend([lam] * mult)
        for j in range(mult):
            c = basis.column(j)
            if lam > tol:
                plus.append((lam, c * math.sqrt(lam)))
            elif lam < -tol:
                minus.append((lam, c * math.sqrt(-lam)))
            else:
                zero.append((lam, c))
    plus.sort(key=lambda t: -t[0])
    minus.sort(key=lambda t: t[0])
    V = hstack([c for _, c in plus] + [c for _, c in minus] + [c for _, c in zero])
    return HermSpectrum(sorted(eigs), (len(plus), len(minus), len(zero))), V


def indefinite_gram_schmidt_loop(M, J, neutral_tol=1e-10):
    """indefinite_gram_schmidt by pivoted Gram-Schmidt, one QMatrix per
    column: each step takes the remaining column of largest |[v, v]|,
    normalizes it and projects it out of the others."""
    cols = [M.column(j) for j in range(M.cols)]
    scale = max([c.norm() for c in cols], default=1.0)
    chosen = []
    signs = []
    while cols:
        ips = [((c.adjoint() @ (J @ c)).item().x0) for c in cols]
        k = int(np.argmax(np.abs(ips)))
        ip = ips[k]
        if abs(ip) <= neutral_tol * (scale ** 2):
            raise CompletionFailureError(
                "neutral direction met in indefinite Gram-Schmidt "
                "(|[v,v]| = %g)" % abs(ip))
        v = cols.pop(k)
        s = 1.0 if ip > 0 else -1.0
        q = v * (1.0 / math.sqrt(abs(ip)))
        chosen.append(q)
        signs.append(s)
        cols = [c - q * ((q.adjoint() @ (J @ c)).item() * s) for c in cols]
    order = sorted(range(len(chosen)), key=lambda i: -signs[i])
    Y = hstack([chosen[i] for i in order]) if chosen else QMatrix.zeros(M.rows, 0)
    return Y, [signs[i] for i in order]


def phase_normalize_columns_loop(Y):
    """_phase_normalize_columns one entry at a time: each column times
    conj(lead) / |lead| for its first entry of largest modulus."""
    cols = []
    for j in range(Y.cols):
        v = Y.column(j)
        entries = [v.entry(i, 0) for i in range(v.rows)]
        lead = max(entries, key=abs)
        if abs(lead) > 0.0:
            v = v * (lead.conj() * (1.0 / abs(lead)))
        cols.append(v)
    return hstack(cols) if cols else Y


def projectors_by_cluster(spec, V, cluster, tol=None):
    """[(eigenvalue, mask, P)] over the eigenvalues in the column order of
    herm_eig (positive descending, negative ascending, zero): mask picks the
    columns V_l of V that carry it, P = V_l (V_l* V_l)^{-1} V_l* projects onto
    their span.

    An eigenvalue within cluster of the one before it joins that entry:
    eigenvalues a distance delta apart have eigenvectors fixed only to about
    eps ||H|| / delta, while the span of all of them stays well determined.
    """
    lam = np.array(spec.eigenvalues)
    if tol is None:
        tol = 1e-8 * float(np.max(np.abs(lam), initial=0.0))
    labels = np.concatenate([np.sort(lam[lam > tol])[::-1], np.sort(lam[lam < -tol]),
                             lam[np.abs(lam) <= tol]])
    entries = []
    for l in dict.fromkeys(labels.tolist()):
        if entries and abs(l - last) <= cluster:
            entries[-1][1] |= labels == l
        else:
            entries.append([l, labels == l])
        last = l
    out = []
    for l, mask in entries:
        Vl = QMatrix(V._a[:, mask], V._b[:, mask])
        out.append((l, mask, Vl @ solve(Vl.adjoint() @ Vl, Vl.adjoint())))
    return out


def riesz_rule_closed_form(T, spec):
    """The N-node trapezoid rule of the Riesz projector, which
    verify._riesz_by_resolvents sums node by node, in closed form.

    With W = (chi(T) - cI)/r and omega = exp(2 pi i/N), the identity
    sum_k 1/(1 - z omega^-k) = N/(1 - z^N) gives the rule as P_N = (I - W^N)^{-1}
    (Trefethen and Weideman, SIAM Rev. 56, 2014).  It is evaluated on a
    complex Schur form sorted so that the k eigenvalues inside the contour
    come first, where W^N stays bounded in both diagonal blocks: F11 =
    (I - W11^N)^{-1}, F22 = -V^N (I - V^N)^{-1} for V = W22^{-1}, and F12
    solves W11 F12 - F12 W22 = F11 W12 - W12 F22, since F commutes with W.
    """
    c, r, N = spec.center, spec.radius, spec.nodes
    R, U, k = schur(T.complex_adjoint(), output="complex", sort=lambda z: abs(z - c) < r)
    n = len(R)
    W = (R - c * np.eye(n)) / r
    F = np.zeros_like(W)
    if k:
        F[:k, :k] = np.linalg.inv(np.eye(k) - np.linalg.matrix_power(W[:k, :k], N))
    if k < n:
        VN = np.linalg.matrix_power(np.linalg.inv(W[k:, k:]), N)
        F[k:, k:] = -VN @ np.linalg.inv(np.eye(n - k) - VN)
    if 0 < k < n:
        W12 = W[:k, k:]
        F[:k, k:] = solve_sylvester(W[:k, :k], -W[k:, k:], F[:k, :k] @ W12 - W12 @ F[k:, k:])
    return from_complex_adjoint(U @ F @ U.conj().T)


def stein_solve_by_columns(A, C, sigma):
    """P - A* P A = C* sigma C by the column recursion on the complex Schur
    form chi(A) = U R U*, one scipy solve_triangular per column: column j of
    Y = U* P U solves (I - R_jj R*) y = F_j + R* (Y_{<j} R_{<j, j})."""
    R, U = schur(A.complex_adjoint(), output="complex")
    F = U.conj().T @ (C.adjoint() @ sigma @ C).complex_adjoint() @ U
    Rh = R.conj().T
    eye = np.eye(len(R))
    Y = np.zeros_like(F)
    for j in range(len(R)):
        rhs = F[:, j] + Rh @ (Y[:, :j] @ R[:j, j])
        Y[:, j] = solve_triangular(eye - R[j, j] * Rh, rhs, lower=True)
    P = from_complex_adjoint(U @ Y @ U.conj().T)
    return (P + P.adjoint()) * 0.5


def j_unitary_complete_by_null_basis(A, C, sigma):
    """j_unitary_complete through the metric complement: [B; D] from a null
    basis of [A; C]* H, H = diag(P, sigma), made H-orthonormal by
    indefinite_gram_schmidt, then brought to the same canonical form
    (definite sigma) or phase-normalized and multiplied by W* for
    sigma = W diag(I, -I) W* (indefinite sigma).

    Raises BadSignatureError when the null basis does not have sigma's
    dimension, or the complement not sigma's signature."""
    n, m = A.rows, C.rows
    P = stein_solve_by_columns(A, C, sigma)
    H = block([[P, QMatrix.zeros(n, m)], [QMatrix.zeros(m, n), sigma]])
    N = null_basis(vstack([A, C]).adjoint() @ H)
    if N.cols != m:
        raise BadSignatureError("metric complement has dimension %d, expected %d" % (N.cols, m))
    Y, signs = indefinite_gram_schmidt(N, H)
    w, U = np.linalg.eigh(sigma.complex_adjoint())
    t, s = int(np.sum(w > 0)) // 2, int(np.sum(w < 0)) // 2
    if (signs.count(1.0), signs.count(-1.0)) != (t, s):
        raise BadSignatureError("complement signature does not match sigma's")
    if t and s:
        _, W = herm_eig(sigma)
        Z = _phase_normalize_columns(Y) @ W.adjoint()
    else:
        Z = _column_echelon(Y) @ from_complex_adjoint((U * np.sqrt(np.abs(w))) @ U.conj().T)
    return Realization(A, Z[:n, :], C, Z[n:, :], sigma=sigma, P=P)


def blaschke_point_by_degree(a, degree):
    """Point factor series one Quaternion product per coefficient:
    c_0 = |a|, c_n = conj(a)^{n-1} (|a|^2 - 1) conj(a)/|a|."""
    if a.is_zero():
        return SliceSeries.variable(degree)
    m = abs(a)
    ac = a.conj()
    u = ac * (1.0 / m)
    coeffs = [Quaternion(m)]
    pw = Quaternion(1.0)
    for _ in range(degree):
        coeffs.append(pw * (m * m - 1.0) * u)
        pw = pw * ac
    return SliceSeries.polynomial([QMatrix.scalar(c) for c in coeffs])


def blaschke_sphere_by_division(sphere, degree):
    """(p^2 - 2 Re(a) p + |a|^2) * (1 - 2 Re(a) p + |a|^2 p^2)^{-*} by a star
    division of the two polynomials."""
    m, x = sphere.modulus(), sphere.re
    num = SliceSeries.polynomial([m * m, -2.0 * x, 1.0], degree)
    den = SliceSeries.polynomial([1.0, -2.0 * x, m * m], degree)
    return star_mul(star_inverse(den), num)


def blaschke_value_closed_form(a, p):
    """B_a(p) = (w a - p w) conj(a)/|a| with w = d^{-1} (1 - p a) and
    d = 1 - 2 Re(a) p + |a|^2 p^2; None on the pole sphere (d = 0)."""
    if a.is_zero():
        return p
    m = abs(a)
    d = Quaternion(1.0) - (2.0 * a.x0) * p + (m * m) * p * p
    if d.is_zero():
        return None
    w = d.inverse() * (Quaternion(1.0) - p * a)
    return (w * a - p * w) * (a.conj() * (1.0 / m))


def blaschke_sphere_value_closed_form(sphere, p):
    """(p^2 - 2 Re(a) p + |a|^2)(1 - 2 Re(a) p + |a|^2 p^2)^{-1}; None on
    the pole sphere."""
    m, x = sphere.modulus(), sphere.re
    den = Quaternion(1.0) - (2.0 * x) * p + (m * m) * p * p
    if den.is_zero():
        return None
    return (p * p - (2.0 * x) * p + Quaternion(m * m)) * den.inverse()


def blaschke_reciprocal_value_closed_form(a, p):
    """W - p W conj(a) for W = (|a|^2 - 2 Re(a) p + p^2)^{-1} (|a| - p a/|a|);
    None on the sphere of a."""
    m = abs(a)
    d = Quaternion(m * m) - (2.0 * a.x0) * p + p * p
    if d.is_zero():
        return None
    W = d.inverse() * (Quaternion(m) - p * a * (1.0 / m))
    return W - p * W * a.conj()


def blaschke_product_value_by_composition(factors, p):
    """Product value factor by factor: (f * g)(p) = f(p) g(f(p)^{-1} p f(p))
    where f(p) != 0, for factors ("point", a) or ("sphere", Sphere)."""
    val = Quaternion(1.0)
    q = p
    for kind, par in factors:
        w = (blaschke_value_closed_form(par, q) if kind == "point"
             else blaschke_sphere_value_closed_form(par, q))
        if abs(w) <= 1e-13 * (1.0 + abs(q)):
            # hit a zero: the remaining factors only multiply by O(1)
            return val * w
        val = val * w
        q = w.inverse() * q * w
    return val


def section_by_windows(blocks, mu):
    """_section as the gather of the sliding windows of the reversed, padded
    stack: each window is one block row [Z[mu + n - m]]_m."""
    k, p, q = blocks.shape
    Z = np.zeros((2 * mu + 1, p, q), dtype=blocks.dtype)
    Z[mu:mu + min(k, mu + 1)] = blocks[:mu + 1]
    rows = sliding_window_view(Z[::-1], mu + 1, axis=0)[::-1]
    return rows.transpose(0, 1, 3, 2).reshape((mu + 1) * p, (mu + 1) * q)


def kernel_value_by_horner(kc, p, q, degree):
    """sum_{n,m<=degree} p^n a_{n,m} conj(q)^m by Horner sweeps over A_degree:
    block rows with p, then block columns with conj(q)."""
    qc = Quaternion._coerce(q).conj()
    r = kc.series.rows
    A = kc.block_matrix(degree)
    row = A[degree * r:, :]
    for n in range(degree - 1, -1, -1):
        row = A[n * r:(n + 1) * r, :] + p * row
    acc = row[:, degree * r:]
    for m in range(degree - 1, -1, -1):
        acc = row[:, m * r:(m + 1) * r] + acc * qc
    return acc


def neg_squares_by_section(S, sigma1=None, sigma2=None, mu_max=12, window=3):
    """neg_squares with one QMatrix section, its own complex adjoint and its
    own term norms per section index mu."""
    mu_max = min(mu_max, S.degree)
    diag, prod = KernelCoeffs(S, sigma1, sigma2)._terms(max(mu_max, 0))
    A = diag - prod
    counts, tols = [], []
    for mu in range(mu_max + 1):
        k = (mu + 1) * S.rows
        w = np.linalg.eigvalsh(A[:k, :k].complex_adjoint())
        lam = w.reshape(-1, 2).mean(axis=1)
        noise = 2 * k * np.finfo(float).eps * (diag[:k, :k].norm() + prod[:k, :k].norm())
        t = max(1e-8 * float(np.max(np.abs(lam))), noise)
        counts.append(int(np.sum(lam < -t)))
        tols.append(t)
    kappa = max(counts)
    stabilized = len(counts) >= window and all(c == kappa for c in counts[-window:])
    return NegSquares(counts, kappa, stabilized, window, tols)
