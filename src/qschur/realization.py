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

P comes from the complex Schur form of chi(A), one triangular solve per
column.  Completion is one closed form for every sigma (Alpay, Colombo and
Sabadini, IEOT 72, 2012): [B; D] = [(alpha I - A) K; alpha I - C K] with
K = P^{-1} (alpha I - A)^{-*} C* sigma, for the real shift alpha = +-1 whose
alpha I - A is better conditioned.  One refinement, a projection in the
metric H = diag(P, sigma) and a Hermitian congruence, keeps the J-unitary
residual at rounding level, and for a definite sigma the result is then
brought to one canonical form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import ztrsv
from scipy.linalg.lapack import zgecon, zgetrf, zgetrs

from .errors import (
    BadSignatureError,
    CompletionFailureError,
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
    _check_count,
    _column_echelon,
    _leading_basis,
    _schur,
    _schur_spheres,
    as_qmatrix,
    block,
    from_complex_adjoint,
    gram_schmidt_columns,
    herm_eig,
    indefinite_gram_schmidt,
    hstack,
    inverse,
    is_invertible,
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


def stein_solve(A, C, sigma):
    """Hermitian solution of P - A* P A = C* sigma C.

    Solved on the complex adjoint from its complex Schur form
    chi(A) = U R U* (Kitagawa 1977): Y = U* P U satisfies Y - R* Y R = U* Q U,
    which fixes the columns of Y in turn, column j by one triangular solve
    with I - R_jj R* (the BLAS ztrsv, on the upper triangular
    I - conj(R_jj) R, transposed).  That is O(n^3) time and O(n^2) memory,
    and the eigenvalues of chi(A) for the resonance test are the diagonal
    of R.

    Returns
    -------
    (P, invertible) : the Hermitian solution and whether it is invertible,
    by is_invertible (smallest singular value above 1e-10 times the largest).

    Raises
    ------
    ShapeError
        If A is not square, C does not have A's column count or sigma is
        not square with C's row count.
    NonFiniteInputError
        If A, C or sigma holds a NaN or infinite entry.
    SteinSingularError
        If some pair of right eigenvalues of A has lambda_i conj(lambda_j)
        on the unit circle (the Stein operator is then singular), or if the
        computed solution fails to satisfy the equation.
    """
    P = _stein_solution(as_qmatrix(A), as_qmatrix(C), as_qmatrix(sigma))
    return P, is_invertible(P)


def _stein_solution(A, C, sigma):
    """P of stein_solve, without the invertibility decision."""
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
    F = Q.complex_adjoint()
    if not np.isfinite(F).all():
        raise NonFiniteInputError("C and sigma must hold finite numbers")
    F = U.conj().T @ F @ U
    Rh = R.conj().T
    k = len(R)
    Y = np.empty_like(F)
    # column j solves with I - R_jj R*, the adjoint (trans=2) of the upper
    # triangular I - conj(R_jj) R
    for j in range(k):
        N = R * -np.conj(R[j, j])
        N.flat[::k + 1] += 1.0
        Y[:, j] = ztrsv(N, F[:, j] + Rh @ (Y[:, :j] @ R[:j, j]), trans=2)
    P = from_complex_adjoint(U @ Y @ U.conj().T)
    P = (P + P.adjoint()) * 0.5
    res = (P - A.adjoint() @ P @ A - Q).norm()
    if res > 1e-6 * (1.0 + Q.norm()):
        raise SteinSingularError("Stein solve failed (residual %g)" % res)
    return P


def _inertia(w):
    """(positive, negative) counts of a quaternionic Hermitian matrix from
    the eigenvalues w of its chi, in ascending order: one per duplicate
    pair, and |eigenvalue| at most 1e-8 max|eigenvalue| counts as zero."""
    pairs = (w[0::2] + w[1::2]) / 2
    tol = 1e-8 * np.abs(w).max()
    return int(np.sum(pairs > tol)), int(np.sum(pairs < -tol))


def _phase_normalize_columns(Y):
    """Fix the free right unit-quaternion phase of each column.

    Each column is scaled on the right by conj(lead) / |lead|, for lead its
    first entry of largest modulus, so that entry becomes positive real; a
    zero column is left alone.  Right scaling by a unit quaternion preserves
    indefinite-metric orthonormality, so this only removes the arbitrariness
    of the congruence factor and makes completions reproducible.
    """
    lead = (np.argmax(np.abs(Y._a) ** 2 + np.abs(Y._b) ** 2, axis=0), np.arange(Y.cols))
    a, b = Y._a[lead], Y._b[lead]
    mod = np.sqrt(np.abs(a) ** 2 + np.abs(b) ** 2)
    mod[mod == 0.0] = 1.0                      # a zero column stays zero
    return Y @ QMatrix(np.diag(np.conj(a) / mod), np.diag(-b / mod), copy=False)


# the real shifts alpha of the completion formula, tried in this order; a
# shift whose chi(alpha I - A) has a reciprocal condition estimate at or
# below _SHIFT_RCOND is refused
_SHIFTS = (1.0, -1.0)
_SHIFT_RCOND = 1e-8


def _shifted_lu(chiA, alpha):
    """(rcond, alpha, lu, piv): the LU factors of chi(alpha I - A) = alpha I - chiA
    and LAPACK's estimate of their reciprocal condition number in the 1-norm
    (zero for an exactly singular factor)."""
    M = -chiA
    M.flat[::len(M) + 1] += alpha
    lu, piv, info = zgetrf(M)
    rcond = zgecon(lu, np.abs(M).sum(axis=0).max())[0] if info == 0 else 0.0
    return rcond, alpha, lu, piv


def j_unitary_complete(A, C, sigma):
    """Complete an observable pair to a diag(P, sigma)-unitary system matrix.

    Given A (n x n), C (m x n) and an invertible Hermitian sigma (m x m),
    finds B, D such that U = [[A, B], [C, D]] satisfies
    U* H U = H for H = diag(P, sigma), with P the Stein solution.

    One closed form gives a completion for every sigma (Alpay, Colombo and
    Sabadini, IEOT 72, 2012): for a real alpha = +-1 outside the right
    spectrum of A,

        [B; D] = [(alpha I - A) K; alpha I - C K],
        K = P^{-1} (alpha I - A)^{-*} C* sigma.

    alpha must be real, because a non-real quaternion does not commute with
    the entries.  Of alpha = 1 and alpha = -1 the one taken is the one whose
    chi(alpha I - A) has the larger LAPACK reciprocal condition estimate
    (zgetrf and zgecon), and its LU factors solve for K.  P and P^{-1} come
    from one eigh of chi(P), which also decides observability.

    The closed form alone is J-unitary only to about
    eps cond(P) ||[B; D]||^2 / rcond, and for a mixed-sign sigma ||[B; D]||
    has no bound, since the completions [B; D] Q, Q* sigma Q = sigma,
    include hyperbolic Q.  So one refinement follows, with H = diag(P, sigma):
    [A; C] is projected out of [B; D] in the metric H, and the result is
    made H-orthonormal, Y = Z |Z* H Z|^{-1/2} for a definite sigma.  For a
    mixed-sign sigma the projection starts from an orthonormal basis of the
    span of [B; D] (gram_schmidt_columns), and indefinite_gram_schmidt then
    gives H-orthonormal columns Y that are also orthogonal.  That keeps the
    residual at the rounding level of a Hermitian congruence.

    The completion returned is then fixed as follows.  For a definite sigma
    it is canonical, _column_echelon(Y) |sigma|^{1/2}, which depends neither
    on alpha nor on any eigenvector phase; with one output, the largest
    entry of [B; D] is positive real.  For an indefinite
    sigma = W diag(I, -I) W* (herm_eig), the columns of Y have their phases
    fixed (_phase_normalize_columns) before the factor W* returns.

    Returns the full Realization (with sigma and P attached).

    Raises
    ------
    NotObservableError     if the Stein solution has an eigenvalue of
                           modulus at most 1e-8 max|eigenvalue| (this
                           includes a singular one)
    BadSignatureError      if sigma is singular
    CompletionFailureError if chi(alpha I - A) has a reciprocal condition
                           estimate (1-norm) at most _SHIFT_RCOND = 1e-8 for
                           both alpha = 1 and -1 (about d^k for a size-k
                           Jordan block at distance d from alpha), or if the
                           refinement meets a neutral direction or a
                           signature other than sigma's
    NotHermitianError      if sigma is not Hermitian
    SteinSingularError     and the other errors of stein_solve
    """
    A = as_qmatrix(A)
    C = as_qmatrix(C)
    sigma = as_qmatrix(sigma)
    if sigma.herm_defect() > 1e-10 * (1.0 + sigma.norm()):
        raise NotHermitianError("sigma must be Hermitian")
    n, m = A.rows, C.rows
    P = _stein_solution(A, C, sigma)
    lam, V = np.linalg.eigh(P.complex_adjoint())
    mod = np.abs(lam)
    if mod.min() <= 1e-8 * mod.max():
        raise NotObservableError("Stein solution is singular (|eigenvalue| ratio %g); "
                                 "pair not observable"
                                 % (mod.min() / mod.max() if mod.max() else 0.0))
    w, U = np.linalg.eigh(sigma.complex_adjoint())
    t, s = _inertia(w)
    if t + s < m:
        raise BadSignatureError("sigma is singular")
    chiA = A.complex_adjoint()
    rcond, alpha, lu, piv = max((_shifted_lu(chiA, alpha) for alpha in _SHIFTS),
                                key=lambda f: f[0])
    if rcond <= _SHIFT_RCOND:
        raise CompletionFailureError(
            "alpha I - A is ill-conditioned for alpha = 1 and -1 (reciprocal "
            "condition estimate %g)" % rcond)
    X = zgetrs(lu, piv, C.complex_adjoint().conj().T, trans=2)[0]  # (alpha I - A)^{-*} C*
    Pinv = (V / lam) @ V.conj().T
    K = from_complex_adjoint(Pinv @ X) @ sigma
    G = vstack([A, C])
    Z = vstack([K, QMatrix.eye(m)]) * alpha - G @ K
    # refinement: project [A; C] out in the metric H, then make the columns
    # H-orthonormal; with a mixed-sign sigma, start from an orthonormal
    # basis of the span, which drops the unbounded hyperbolic factor
    H = block([[P, QMatrix.zeros(n, m)], [QMatrix.zeros(m, n), sigma]])
    if t and s:
        Z = gram_schmidt_columns(Z)[0]
    chiG, chiH, z = G.complex_adjoint(), H.complex_adjoint(), Z.complex_adjoint()
    z = z - chiG @ (Pinv @ (chiG.conj().T @ (chiH @ z)))
    if t and s:
        Y, signs = indefinite_gram_schmidt(from_complex_adjoint(z), H)
        if signs.count(1.0) != t or len(signs) != m:
            raise CompletionFailureError("completion lost its signature (%d of %d positive "
                                         "directions, %d of %d in all)"
                                         % (signs.count(1.0), t, len(signs), m))
        _, W = herm_eig(sigma)
        Z = _phase_normalize_columns(Y) @ W.adjoint()
    else:
        mu, X = np.linalg.eigh(z.conj().T @ chiH @ z)
        Y = from_complex_adjoint(z @ ((X / np.sqrt(np.abs(mu))) @ X.conj().T))
        Z = _column_echelon(Y) @ from_complex_adjoint((U * np.sqrt(np.abs(w))) @ U.conj().T)
    B = QMatrix(Z._a[:n, :], Z._b[:n, :])
    D = QMatrix(Z._a[n:, :], Z._b[n:, :])
    return Realization(A, B, C, D, sigma=sigma, P=P)


def realization_series(R, degree):
    """Taylor coefficients D, CB, CAB, CA^2B, ... as a SliceSeries.

    All of them come from one power sweep on the complex adjoint, by
    doubling: about 2 log2(degree) array products in all.  Raises
    InvalidSpecError unless degree is an integer >= 0.
    """
    _check_count("degree", degree, 0)
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
    A = _kernels.KernelCoeffs(S, R.sigma, R.sigma).block_matrix(degree)
    Pinv = inverse(R.P)
    out = []
    for p, q in pairs:
        lhs = _kernels._section_value(A, p, q, degree)
        Wp = star_left_eval(R.C, R.A, p)
        Wq = star_left_eval(R.C, R.A, q)
        rhs = Wp @ Pinv @ Wq.adjoint()
        out.append((lhs - rhs).norm())
    return out


def realization_sigma_I(A, C):
    """The completion of j_unitary_complete in the definite case sigma = I."""
    return j_unitary_complete(A, C, QMatrix.eye(as_qmatrix(C).rows))


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


_UNIT_BAND = 1e-8  # spheres this close to the unit sphere are refused


def krein_langer_factor(R, degree=48):
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
                               1e-8 of the unit sphere, or the
                               eigenvalues of one sphere straddle it
    RankDeficiencyError        if the outside Schur vectors do not give
                               kappa quaternionic directions
    BadSignatureError          if the outside Stein solution is not
                               negative definite
    """
    sigma = R.sigma if R.sigma is not None else QMatrix.eye(R.C.rows)
    T, U, spheres = _schur_spheres(R.A, sort="ouc")
    for sphere, _ in spheres:
        if abs(sphere.modulus() - 1.0) <= _UNIT_BAND:
            raise SpectrumOnUnitSphereError(
                "state spectrum sphere %s within %g of the unit sphere"
                % (sphere, _UNIT_BAND))
    outside = [(sphere, mult) for sphere, mult in spheres if sphere.modulus() > 1.0]
    S = realization_series(R, degree)
    if not outside:
        one = SliceSeries.one(degree, R.D.rows)
        return KLFactorization(0, one, one, S, [], None)
    dim = sum(mult for _, mult in outside)
    if np.sum(np.abs(np.diag(T)) > 1.0) != 2 * dim:
        raise SpectrumOnUnitSphereError(
            "the eigenvalues of an outside sphere straddle the unit sphere")
    V = _leading_basis(U, 2 * dim, R.A.rows)
    out = j_unitary_complete(V.adjoint() @ R.A @ V, R.C @ V, sigma)
    # the signature of P from the eigenvalues of chi(P), one per duplicate
    # pair; j_unitary_complete has already refused eigenvalues near zero
    t, s = _inertia(np.linalg.eigvalsh(out.P.complex_adjoint()))
    z = out.state_dim - t - s
    if t or z:
        raise BadSignatureError(
            "outside Stein solution has signature (%d, %d, %d); "
            "expected negative definite" % (t, s, z))
    W = realization_series(out, degree)
    Bser = star_inverse(W)
    zeros = [(sphere_of(sphere.representative().inverse()), mult) for sphere, mult in outside]
    return KLFactorization(s, W, Bser, star_mul(Bser, S), zeros, out)
