"""State-space realizations S(p) = D + p C * (I - pA)^{-*} * B and their
Stein-equation certificates.

The Taylor coefficients of such an S are s_0 = D and s_n = C A^{n-1} B.
Everything here revolves around the Hermitian solution P of the Stein
equation

    P - A* P A = C* sigma C,

which certifies the metric structure: when (B, D) complete the column
[A; C] to a matrix U = [[A, B], [C, D]] with U* diag(P, sigma) U =
diag(P, sigma), the kernel coefficients of S are carried by P alone, and
the number of its negative eigenvalues counts the negative squares.

Completion is performed constructively: factor P = V eps V*, take the
metric-orthogonal complement of [V* A; C], orthonormalize it in the
indefinite metric, and rotate it onto a factorization of sigma.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_triangular

from .errors import (
    BadSignatureError,
    NotHermitianError,
    NotObservableError,
    RankDeficiencyError,
    ShapeError,
    SpectrumOnUnitSphereError,
    SteinSingularError,
)
from .quat import Quaternion, sphere_of
from .qmatrix import (
    QMatrix,
    _columns_from_complex,
    _schur_spheres,
    as_qmatrix,
    block,
    from_complex_adjoint,
    gram_schmidt_columns,
    herm_eig,
    hstack,
    indefinite_gram_schmidt,
    inverse,
    is_invertible,
    null_basis,
    solve,
    vstack,
)
from .series import SliceSeries, star_inverse, star_left_eval, star_mul, star_solve_left
from . import kernels as _kernels


@dataclass
class Realization:
    """Quaternionic state-space data (A, B, C, D) with optional metric."""

    A: QMatrix
    B: QMatrix
    C: QMatrix
    D: QMatrix
    sigma: QMatrix = None
    P: QMatrix = None

    def __post_init__(self):
        n = self.A.rows
        if not self.A.is_square():
            raise ShapeError("state matrix must be square")
        if self.B.rows != n or self.C.cols != n:
            raise ShapeError("B/C dimensions incompatible with the state space")
        if self.D.shape != (self.C.rows, self.B.cols):
            raise ShapeError("D must be (outputs x inputs)")

    @property
    def state_dim(self):
        return self.A.rows

    def system_matrix(self):
        return block([[self.A, self.B], [self.C, self.D]])

    def stein_residual(self):
        """||P - A*PA - C* sigma C|| for the stored P and sigma."""
        lhs = self.P - self.A.adjoint() @ self.P @ self.A
        return (lhs - self.C.adjoint() @ self.sigma @ self.C).norm()

    def junitary_residual(self):
        """||U* H U - H|| with H = diag(P, sigma)."""
        n, m = self.state_dim, self.D.cols
        H = block([[self.P, QMatrix.zeros(n, self.D.cols)],
                   [QMatrix.zeros(self.C.rows, n), self.sigma]])
        U = self.system_matrix()
        return (U.adjoint() @ H @ U - H).norm()

    def series(self, degree):
        return realization_series(self, degree)

    def eval(self, p):
        return realization_eval(self, p)

    def to_dict(self):
        d = {"A": self.A.to_dict(), "B": self.B.to_dict(),
             "C": self.C.to_dict(), "D": self.D.to_dict()}
        if self.sigma is not None:
            d["sigma"] = self.sigma.to_dict()
        if self.P is not None:
            d["P"] = self.P.to_dict()
        return d

    @classmethod
    def from_dict(cls, d):
        get = lambda k: QMatrix.from_dict(d[k]) if k in d else None
        return cls(get("A"), get("B"), get("C"), get("D"), get("sigma"), get("P"))


def stein_solve(A, C, sigma, rtol=1e-10):
    """Hermitian solution of P - A* P A = C* sigma C.

    Solved on the complex adjoint from its complex Schur form
    chi(A) = U R U* (Kitagawa 1977): Y = U* P U satisfies Y - R* Y R = U* Q U,
    which fixes the columns of Y in turn, column j by one lower-triangular
    solve with I - R_jj R*.  That is O(n^3) time and O(n^2) memory, and the
    eigenvalues of chi(A) for the resonance test are the diagonal of R.

    Returns
    -------
    (P, invertible) : the Hermitian solution and whether it is invertible
    at relative tolerance rtol.

    Raises
    ------
    ShapeError
        If A is not square, C does not have A's column count or sigma is
        not square with C's row count.
    NonFiniteInputError
        If A holds a NaN or infinite entry.
    SteinSingularError
        If some pair of right eigenvalues of A has lambda_i conj(lambda_j)
        on the unit circle (the Stein operator is then singular), or if the
        computed solution fails to satisfy the equation.
    """
    A = as_qmatrix(A)
    C = as_qmatrix(C)
    sigma = as_qmatrix(sigma)
    R, U, _ = _schur_spheres(A)
    if C.cols != A.rows or sigma.shape != (C.rows, C.rows):
        raise ShapeError("Stein data: A %s, C %s and sigma %s do not fit together"
                         % (A.shape, C.shape, sigma.shape))
    w = np.diag(R)
    prod = np.outer(w, w.conj())
    resonant = np.argwhere(np.abs(prod - 1.0) <= 1e-10 * (1.0 + np.abs(prod)))
    if len(resonant):
        i, j = resonant[0]
        raise SteinSingularError(
            "eigenvalue resonance lambda_i conj(lambda_j) = 1 "
            "(|lambda_i| = %g, |lambda_j| = %g)" % (abs(w[i]), abs(w[j])))
    Q = C.adjoint() @ sigma @ C
    F = U.conj().T @ Q.complex_adjoint() @ U
    Rh = R.conj().T
    eye = np.eye(len(R))
    Y = np.zeros_like(F)
    for j in range(len(R)):
        rhs = F[:, j] + Rh @ (Y[:, :j] @ R[:j, j])
        Y[:, j] = solve_triangular(eye - R[j, j] * Rh, rhs, lower=True)
    P = from_complex_adjoint(U @ Y @ U.conj().T)
    P = (P + P.adjoint()) * 0.5
    res = (P - A.adjoint() @ P @ A - Q).norm()
    if res > 1e-6 * (1.0 + Q.norm()):
        raise SteinSingularError("Stein solve failed (residual %g)" % res)
    return P, is_invertible(P, rtol)


def _phase_normalize_columns(Y):
    """Fix the free right unit-quaternion phase of each column.

    Each column is scaled on the right so its largest entry becomes positive
    real.  Right scaling by a unit quaternion preserves indefinite-metric
    orthonormality, so this only removes the arbitrariness of the numerical
    null basis and makes completions reproducible (and the canonical scalar
    cases exact).
    """
    cols = []
    for j in range(Y.cols):
        v = Y.column(j)
        entries = [v.entry(i, 0) for i in range(v.rows)]
        lead = max(entries, key=abs)
        if abs(lead) > 0.0:
            v = v * (lead.conj() * (1.0 / abs(lead)))
        cols.append(v)
    return hstack(cols) if cols else Y


def j_unitary_complete(A, C, sigma):
    """Complete an observable pair to a diag(P, sigma)-unitary system matrix.

    Given A (n x n), C (m x n) and an invertible Hermitian sigma (m x m),
    finds B, D such that U = [[A, B], [C, D]] satisfies
    U* diag(P, sigma) U = diag(P, sigma) with P the Stein solution.

    Returns the full Realization (with sigma and P attached).

    Raises
    ------
    NotObservableError     if the Stein solution is singular
    BadSignatureError      if the complement signature does not match sigma
    CompletionFailureError if a neutral direction blocks orthonormalization
    NotHermitianError      if sigma is not Hermitian
    """
    A = as_qmatrix(A)
    C = as_qmatrix(C)
    sigma = as_qmatrix(sigma)
    if sigma.herm_defect() > 1e-10 * (1.0 + sigma.norm()):
        raise NotHermitianError("sigma must be Hermitian")
    n, m = A.rows, C.rows
    P, invertible = stein_solve(A, C, sigma)
    if not invertible:
        raise NotObservableError("Stein solution is singular; pair not observable")
    spec_P, V = herm_eig(P)
    t1, s1, z1 = spec_P.signature
    if z1:
        raise NotObservableError("Stein solution has %d zero eigenvalues" % z1)
    spec_s, W = herm_eig(sigma)
    t2, s2, z2 = spec_s.signature
    if z2:
        raise BadSignatureError("sigma is singular")
    eps1 = QMatrix.diag([Quaternion(1.0)] * t1 + [Quaternion(-1.0)] * s1)
    Hbig = block([[eps1, QMatrix.zeros(n, m)], [QMatrix.zeros(m, n), sigma]])
    G = vstack([V.adjoint() @ A, C])
    N = null_basis((G.adjoint() @ Hbig))
    if N.cols != m:
        raise BadSignatureError(
            "metric complement has dimension %d, expected %d" % (N.cols, m))
    Y, signs = indefinite_gram_schmidt(N, Hbig)
    if signs.count(1.0) != t2 or signs.count(-1.0) != s2:
        raise BadSignatureError(
            "complement signature (%d, %d) does not match sigma's (%d, %d)"
            % (signs.count(1.0), signs.count(-1.0), t2, s2))
    Y = _phase_normalize_columns(Y)
    X = Y @ W.adjoint()
    X1 = QMatrix(X._a[:n, :], X._b[:n, :])
    X2 = QMatrix(X._a[n:, :], X._b[n:, :])
    B = solve(V.adjoint(), X1)
    return Realization(A, B, C, X2, sigma=sigma, P=P)


def realization_series(R, degree):
    """Taylor coefficients D, CB, CAB, CA^2B, ... as a SliceSeries."""
    coeffs = [R.D]
    left = R.C
    for _ in range(degree):
        coeffs.append(left @ R.B)
        left = left @ R.A
    return SliceSeries(coeffs)


def realization_eval(R, p):
    """Exact value S(p) = D + p (C * (I - pA)^{-*})(p) B.

    The middle factor is evaluated with the closed form of star_left_eval;
    the constant right factor B commutes out of the series, the left one
    does not.
    """
    if not isinstance(p, Quaternion):
        p = Quaternion._coerce(p)
    M = star_left_eval(R.C, R.A, p)
    return R.D + p * (M @ R.B)


def kernel_identity_residuals(R, pairs, degree=64):
    """Residuals of the kernel identity at several point pairs in the ball.

    Compares the truncated double series sum p^n a_{nm} conj(q)^m built from
    the Taylor coefficients of S against the closed form

        W(p) P^{-1} W(q)*,   W(x) = (C * (I - xA)^{-*})(x),

    which a completed realization satisfies exactly: the coefficients on
    both sides obey the same one-step recursion (difference equal to
    -s_n sigma s_m*) with equal boundary rows.  The only gap left is the
    series truncation, so keep |p|, |q| away from 1.

    The series S and P^{-1} are built once for all pairs; each pair still
    builds its own kernel section A_degree (KernelCoeffs.value), so a batch
    costs about as much per pair as single-pair calls.
    """
    S = realization_series(R, degree)
    kc = _kernels.schur_kernel_coeffs(S, sigma1=R.sigma, sigma2=R.sigma)
    Pinv = inverse(R.P)
    out = []
    for p, q in pairs:
        lhs = kc.value(p, q, degree)
        Wp = star_left_eval(R.C, R.A, p)
        Wq = star_left_eval(R.C, R.A, q)
        rhs = Wp @ Pinv @ Wq.adjoint()
        out.append((lhs - rhs).norm())
    return out


def kernel_identity_residual(R, p, q, degree=64):
    """Single-pair version of kernel_identity_residuals."""
    return kernel_identity_residuals(R, [(p, q)], degree)[0]


def realization_sigma_I(A, C):
    """Completion in the definite case sigma = I by explicit formulas.

    With K = P^{-1} (I - A)^{-*} C*:  B = (I - A) K and D = I - C K.
    Needs 1 outside the right spectrum of A (so that I - A is invertible).
    """
    A = as_qmatrix(A)
    C = as_qmatrix(C)
    n, m = A.rows, C.rows
    sigma = QMatrix.eye(m)
    P, invertible = stein_solve(A, C, sigma)
    if not invertible:
        raise NotObservableError("Stein solution is singular; pair not observable")
    K = solve(P, solve((QMatrix.eye(n) - A).adjoint(), C.adjoint()))
    B = (QMatrix.eye(n) - A) @ K
    D = QMatrix.eye(m) - C @ K
    return Realization(A, B, C, D, sigma=sigma, P=P)


def cascade(R1, R2):
    """Realization of the star product S1 * S2 from realizations of the factors."""
    if R1.B.cols != R2.C.rows:
        raise ShapeError("inner dimensions of the cascade do not match")
    n1, n2 = R1.state_dim, R2.state_dim
    A = block([[R1.A, R1.B @ R2.C], [QMatrix.zeros(n2, n1), R2.A]])
    B = vstack([R1.B @ R2.D, R2.B])
    C = hstack([R1.C, R1.D @ R2.C])
    D = R1.D @ R2.D
    return Realization(A, B, C, D, sigma=R1.sigma)


def blaschke_reciprocal_realization(b, c=None):
    """Hand-built realization of B_b^{-*} * c (state dimension one).

    A = 1/b, B = c, C = (1 - |b|^2)/(|b| b), D = c/|b|; its Stein solution
    is the negative number -(1 - |b|^2)/|b|^2, one negative square.
    """
    b = b if isinstance(b, Quaternion) else Quaternion._coerce(b)
    if c is None:
        c = Quaternion(1.0)
    c = c if isinstance(c, Quaternion) else Quaternion._coerce(c)
    m = abs(b)
    if m == 0.0 or m >= 1.0:
        raise ShapeError("need 0 < |b| < 1 for a reciprocal factor")
    A = QMatrix.scalar(b.inverse())
    B = QMatrix.scalar(c)
    C = QMatrix.scalar((b * m).inverse() * (1.0 - m * m))
    D = QMatrix.scalar(c * (1.0 / m))
    P = QMatrix.scalar(Quaternion(-(1.0 - m * m) / (m * m)))
    return Realization(A, B, C, D, sigma=QMatrix.eye(1), P=P)


def krein_langer_compose(bprod, S0):
    """Left-divide by a finite product: the series of B^{-*} * S0."""
    series = bprod.series if hasattr(bprod, "series") else bprod
    return star_solve_left(series, S0)


@dataclass
class KLFactorization:
    """Result of splitting S = W * S0 with W carrying all negative squares."""

    kappa: int
    w_series: SliceSeries          # reciprocal product, kappa negative squares
    blaschke_series: SliceSeries   # its star inverse (zero negative squares)
    schur_series: SliceSeries      # S0 = W^{-*} * S
    zero_spheres: list             # (Sphere, multiplicity) of the product zeros
    outside: Realization           # completed realization behind w_series
    unit_band: float = 1e-8


def krein_langer_factor(R, degree=48, unit_band=1e-8):
    """Split a realized function into a reciprocal product and a plain part.

    The eigenvalue spheres of the state matrix outside the unit sphere
    generate the negative squares, whatever their Jordan structure.  A
    complex Schur form of chi(A) sorted with those eigenvalues first gives
    their invariant subspace in its leading 2 kappa columns; conjugate
    eigenvalues share a modulus, so that span is psi of a quaternionic
    subspace with orthonormal basis V.  The restriction (V* A V, C V) is
    completed to a J-unitary system whose transfer series W is the
    reciprocal product, B = W^{-*} is its star inverse and S0 = B * S has
    no negative squares left.  The zero spheres are the inverses of the
    outside spheres, with their algebraic multiplicities.

    Raises
    ------
    SpectrumOnUnitSphereError  if an eigenvalue sphere sits within
                               unit_band of the unit sphere, or the
                               eigenvalues of one sphere straddle it
    RankDeficiencyError        if the outside Schur vectors do not give
                               kappa quaternionic directions
    BadSignatureError          if the outside Stein solution is not
                               negative definite
    """
    sigma = R.sigma if R.sigma is not None else QMatrix.eye(R.C.rows)
    T, U, spheres = _schur_spheres(R.A, sort="ouc")
    for sphere, _ in spheres:
        if abs(sphere.modulus() - 1.0) <= unit_band:
            raise SpectrumOnUnitSphereError(
                "state spectrum sphere %s within %g of the unit sphere"
                % (sphere, unit_band))
    outside = [(sphere, mult) for sphere, mult in spheres if sphere.modulus() > 1.0]
    S = realization_series(R, degree)
    if not outside:
        one = SliceSeries.one(degree, R.D.rows)
        return KLFactorization(0, one, one, S, [], None, unit_band)
    dim = sum(mult for _, mult in outside)
    if np.sum(np.abs(np.diag(T)) > 1.0) != 2 * dim:
        raise SpectrumOnUnitSphereError(
            "the eigenvalues of an outside sphere straddle the unit sphere")
    V, rank = gram_schmidt_columns(_columns_from_complex(U[:, :2 * dim], R.A.rows))
    if rank != dim:
        raise RankDeficiencyError(
            "outside Schur vectors give %d quaternionic directions, expected %d"
            % (rank, dim))
    out = j_unitary_complete(V.adjoint() @ R.A @ V, R.C @ V, sigma)
    spec_P, _ = herm_eig(out.P)
    t, s, z = spec_P.signature
    if t or z:
        raise BadSignatureError(
            "outside Stein solution has signature (%d, %d, %d); "
            "expected negative definite" % (t, s, z))
    W = realization_series(out, degree)
    Bser = star_inverse(W)
    zeros = [(sphere_of(sphere.representative().inverse()), mult) for sphere, mult in outside]
    return KLFactorization(s, W, Bser, star_mul(Bser, S), zeros, out, unit_band)
