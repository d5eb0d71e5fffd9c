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

Completion is performed constructively in the state coordinates: [B; D]
spans the diag(P, sigma)-orthogonal complement of [A; C], which one
Hermitian congruence of its Gram matrix makes metric-orthonormal and a
factorization of sigma carries onto sigma.  For a definite sigma the result
is then brought to one canonical form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

from .errors import (
    BadSignatureError,
    InvalidModulusError,
    NonFiniteInputError,
    NotHermitianError,
    NotInvertibleAtZeroError,
    NotObservableError,
    ShapeError,
    SpectrumOnUnitSphereError,
    SteinSingularError,
)
from .quat import Quaternion, sphere_of
from .qmatrix import (
    QMatrix,
    _column_echelon,
    _leading_basis,
    _schur,
    _schur_spheres,
    as_qmatrix,
    block,
    from_complex_adjoint,
    herm_eig,
    hstack,
    indefinite_gram_schmidt,
    inverse,
    is_invertible,
    null_basis,
    solve,
    vstack,
)
from .series import (
    SliceSeries,
    _state_space_series,
    star_inverse,
    star_left_eval,
    star_mul,
)
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
    R, U = _schur(A)
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

    Each column is scaled on the right by conj(lead) / |lead|, for lead its
    first entry of largest modulus, so that entry becomes positive real; a
    zero column is left alone.  Right scaling by a unit quaternion preserves
    indefinite-metric orthonormality, so this only removes the arbitrariness
    of the numerical null basis and makes completions reproducible (and the
    canonical scalar cases exact).
    """
    lead = (np.argmax(np.abs(Y._a) ** 2 + np.abs(Y._b) ** 2, axis=0), np.arange(Y.cols))
    a, b = Y._a[lead], Y._b[lead]
    mod = np.sqrt(np.abs(a) ** 2 + np.abs(b) ** 2)
    mod[mod == 0.0] = 1.0                      # a zero column stays zero
    return Y @ QMatrix(np.diag(np.conj(a) / mod), np.diag(-b / mod), copy=False)


def j_unitary_complete(A, C, sigma):
    """Complete an observable pair to a diag(P, sigma)-unitary system matrix.

    Given A (n x n), C (m x n) and an invertible Hermitian sigma (m x m),
    finds B, D such that U = [[A, B], [C, D]] satisfies
    U* H U = H for H = diag(P, sigma), with P the Stein solution.

    [B; D] spans the kernel of [A* P, C* sigma], the H-orthogonal complement
    of [A; C].  It has dimension m because [A; C]* H [A; C] = P is
    invertible, and H has sigma's inertia on it.  indefinite_gram_schmidt
    makes a basis Y of it H-orthonormal by one Hermitian congruence of its
    m x m Gram matrix; Y Q for the Q with Q* diag(signs) Q = sigma is then a
    completion, and the completions are [B; D] Q over all Q with
    Q* sigma Q = sigma.  For a definite sigma the one returned is canonical:
    [B; D] |sigma|^{-1/2} is in pivoted column echelon form (_column_echelon),
    so it does not depend on the null basis or on the congruence factor the
    computation passes through; with one output, the largest entry of [B; D]
    is positive real.  For an indefinite sigma each column of Y only has its
    phase fixed (_phase_normalize_columns) before Q = W* from
    sigma = W diag(I, -I) W*.

    Returns the full Realization (with sigma and P attached).

    Raises
    ------
    NotObservableError     if the Stein solution is singular, or has an
                           eigenvalue of modulus at most 1e-8 max|eigenvalue|
    BadSignatureError      if sigma is singular, or the complement dimension
                           or signature does not match sigma
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
    lam = np.abs(np.linalg.eigvalsh(P.complex_adjoint()))
    if lam.min() <= 1e-8 * lam.max():
        raise NotObservableError("Stein solution has a zero eigenvalue (|eigenvalue| "
                                 "ratio %g)" % (lam.min() / lam.max()))
    w, U = np.linalg.eigh(sigma.complex_adjoint())
    pairs = (w[0::2] + w[1::2]) / 2            # chi's eigenvalues come in duplicates
    tol = 1e-8 * np.abs(w).max()
    t, s = int(np.sum(pairs > tol)), int(np.sum(pairs < -tol))
    if t + s < m:
        raise BadSignatureError("sigma is singular")
    H = block([[P, QMatrix.zeros(n, m)], [QMatrix.zeros(m, n), sigma]])
    N = null_basis(vstack([A, C]).adjoint() @ H)
    if N.cols != m:
        raise BadSignatureError(
            "metric complement has dimension %d, expected %d" % (N.cols, m))
    Y, signs = indefinite_gram_schmidt(N, H)
    if signs.count(1.0) != t or signs.count(-1.0) != s:
        raise BadSignatureError(
            "complement signature (%d, %d) does not match sigma's (%d, %d)"
            % (signs.count(1.0), signs.count(-1.0), t, s))
    if t and s:
        _, W = herm_eig(sigma)
        Z = _phase_normalize_columns(Y) @ W.adjoint()
    else:
        # Y W* |sigma|^{-1/2} is Y times a unitary, which the echelon form ignores
        root = from_complex_adjoint((U * np.sqrt(np.abs(w))) @ U.conj().T)  # |sigma|^{1/2}
        Z = _column_echelon(Y) @ root
    B = QMatrix(Z._a[:n, :], Z._b[:n, :])
    D = QMatrix(Z._a[n:, :], Z._b[n:, :])
    return Realization(A, B, C, D, sigma=sigma, P=P)


def realization_series(R, degree):
    """Taylor coefficients D, CB, CAB, CA^2B, ... as a SliceSeries.

    All of them come from one power sweep on the complex adjoint, by
    doubling: about 2 log2(degree) array products in all.
    """
    return _state_space_series(R.A, R.B, R.C, R.D, degree)


def realization_eval(R, p):
    """Exact value S(p) = D + p (C * (I - pA)^{-*})(p) B.

    The middle factor is evaluated with the closed form of star_left_eval;
    the constant right factor B commutes out of the series, the left one
    does not.  Raises SingularMatrixError when p lies on a pole sphere.
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

    The series S, its kernel section A_degree and P^{-1} are built once for
    all pairs; each pair adds two closed-form values W(p), W(q) and one
    block row times A_degree times block column (kernels._section_value).
    Raises ShapeError for a realization without the Stein solution P.
    """
    if R.P is None:
        raise ShapeError("the kernel identity needs the Stein solution P, "
                         "which this realization does not carry")
    S = realization_series(R, degree)
    A = _kernels.schur_kernel_coeffs(S, sigma1=R.sigma, sigma2=R.sigma).block_matrix(degree)
    Pinv = inverse(R.P)
    out = []
    for p, q in pairs:
        lhs = _kernels._section_value(A, p, q, degree)
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
    Raises NonFiniteInputError for a non-finite b or c, NotInvertibleAtZeroError
    for b = 0 and InvalidModulusError for |b| >= 1.
    """
    b = b if isinstance(b, Quaternion) else Quaternion._coerce(b)
    if c is None:
        c = Quaternion(1.0)
    c = c if isinstance(c, Quaternion) else Quaternion._coerce(c)
    if not all(math.isfinite(x) for x in b.to_list() + c.to_list()):
        raise NonFiniteInputError("reciprocal factor data must be finite, got b = %r, c = %r"
                                  % (b, c))
    if b.is_zero():
        raise NotInvertibleAtZeroError("the factor with zero 0 has no star inverse")
    m = abs(b)
    if m >= 1.0:
        raise InvalidModulusError("a reciprocal factor needs |b| < 1, got %g" % m)
    A = QMatrix.scalar(b.inverse())
    B = QMatrix.scalar(c)
    C = QMatrix.scalar((b * m).inverse() * (1.0 - m * m))
    D = QMatrix.scalar(c * (1.0 / m))
    P = QMatrix.scalar(Quaternion(-(1.0 - m * m) / (m * m)))
    return Realization(A, B, C, D, sigma=QMatrix.eye(1), P=P)


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
    subspace, and Gram-Schmidt on those Schur vectors gives its orthonormal
    basis V (the same leading-Schur-vector basis as spectral_split, for the
    eigenvalues inside a contour).  The restriction (V* A V, C V) is
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
    V = _leading_basis(U, 2 * dim, R.A.rows)
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
