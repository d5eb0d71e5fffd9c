"""Dense quaternionic matrices via the complex-pair representation.

A matrix M over the quaternions is stored as a pair of complex arrays
(a, b) with M = a + b*j, using q = (x0 + x1*i) + (x2 + x3*i)*j entrywise.
The complex adjoint

    chi(M) = [[a, b], [-conj(b), conj(a)]]

is a *-homomorphism into complex matrices of doubled size: it respects
products, adjoints and identities, so eigenvalue problems, linear solves
and rank decisions are all delegated to numpy on chi(M).

Column vectors v = v1 + v2*j correspond to psi(v) = [v1; -conj(v2)], which
intertwines the embedding: chi(M) psi(v) = psi(M v), and psi(v*z) = psi(v)*z
for complex z.  Right eigenvalues of M therefore appear as ordinary
eigenvalues of chi(M), in conjugate pairs (one pair per spectral sphere).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np
from scipy.linalg import schur, solve_triangular

from .errors import (
    CompletionFailureError,
    InvalidSpecError,
    NonFiniteInputError,
    NotDiagonalizableError,
    NotHermitianError,
    RankDeficiencyError,
    ShapeError,
    SingularMatrixError,
    ZeroVectorError,
)
from .quat import Quaternion, Sphere

# fixed relative tolerances
_INVERTIBLE_RTOL = 1e-10     # is_invertible: smallest over largest singular value
_NULL_RTOL = 1e-10           # null_basis: singular values that count as zero
_NEUTRAL_TOL = 1e-10         # indefinite_gram_schmidt: neutral Gram eigenvalues
_CLUSTER_TOL = 1e-8          # eigen-sphere width, relative to 1 + modulus
_EIGVEC_COND_TOL = 1e-8      # right_eigen_decomposition: eigenvector basis rank


class QMatrix:
    """Immutable dense matrix over the quaternions."""

    __slots__ = ("_a", "_b")

    def __init__(self, a, b, copy=True):
        a = np.array(a, dtype=complex, copy=copy)
        b = np.array(b, dtype=complex, copy=copy)
        if a.ndim != 2 or a.shape != b.shape:
            raise ShapeError("component arrays must be 2-d and equal-shaped")
        a.setflags(write=False)
        b.setflags(write=False)
        self._a = a
        self._b = b

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zeros(cls, rows, cols=None):
        cols = rows if cols is None else cols
        z = np.zeros((rows, cols), dtype=complex)
        return cls(z, z.copy(), copy=False)

    @classmethod
    def eye(cls, n):
        return cls(np.eye(n, dtype=complex), np.zeros((n, n), dtype=complex), copy=False)

    @classmethod
    def from_components(cls, w, x, y, z):
        w, x, y, z = (np.asarray(t, dtype=float) for t in (w, x, y, z))
        return cls(w + 1j * x, y + 1j * z, copy=False)

    @classmethod
    def from_real(cls, arr):
        arr = np.asarray(arr, dtype=float)
        if arr.ndim == 1:
            arr = arr[:, None]
        return cls(arr.astype(complex), np.zeros_like(arr, dtype=complex), copy=False)

    @classmethod
    def from_entries(cls, rows):
        """Build from nested lists of Quaternion / real / complex entries."""
        rows = [list(r) for r in rows]
        m, n = len(rows), len(rows[0])
        a = np.zeros((m, n), dtype=complex)
        b = np.zeros((m, n), dtype=complex)
        for i, row in enumerate(rows):
            if len(row) != n:
                raise ShapeError("ragged rows in entry list")
            for j, e in enumerate(row):
                q = e if isinstance(e, Quaternion) else Quaternion._coerce(e)
                if q is None:
                    raise TypeError("cannot interpret %r as a quaternion" % (e,))
                a[i, j] = complex(q.x0, q.x1)
                b[i, j] = complex(q.x2, q.x3)
        return cls(a, b, copy=False)

    @classmethod
    def diag(cls, values):
        values = list(values)
        n = len(values)
        out_a = np.zeros((n, n), dtype=complex)
        out_b = np.zeros((n, n), dtype=complex)
        for i, e in enumerate(values):
            q = e if isinstance(e, Quaternion) else Quaternion._coerce(e)
            out_a[i, i] = complex(q.x0, q.x1)
            out_b[i, i] = complex(q.x2, q.x3)
        return cls(out_a, out_b, copy=False)

    @classmethod
    def scalar(cls, q):
        q = q if isinstance(q, Quaternion) else Quaternion._coerce(q)
        return cls.from_entries([[q]])

    # -- shape ------------------------------------------------------------------

    @property
    def rows(self):
        return self._a.shape[0]

    @property
    def cols(self):
        return self._a.shape[1]

    @property
    def shape(self):
        return self._a.shape

    def is_square(self):
        return self.rows == self.cols

    # -- entry access -------------------------------------------------------------

    def entry(self, i, j):
        a = self._a[i, j]
        b = self._b[i, j]
        return Quaternion(a.real, a.imag, b.real, b.imag)

    def __getitem__(self, idx):
        """M[i, j] is an entry; M[r0:r1, c0:c1] is a read-only view of a block."""
        i, j = idx
        if isinstance(i, slice) and isinstance(j, slice):
            return QMatrix(self._a[i, j], self._b[i, j], copy=False)
        return self.entry(i, j)

    def item(self):
        if self.shape != (1, 1):
            raise ShapeError("item() requires a 1x1 matrix, got %s" % (self.shape,))
        return self.entry(0, 0)

    def column(self, j):
        return QMatrix(self._a[:, j:j + 1], self._b[:, j:j + 1])

    def to_components(self):
        """(rows, cols, 4) float array of (x0, x1, x2, x3) entries."""
        return np.stack(
            [self._a.real, self._a.imag, self._b.real, self._b.imag], axis=-1
        )

    # -- algebra -------------------------------------------------------------------

    def __add__(self, other):
        other = as_qmatrix(other)
        if other.shape != self.shape:
            raise ShapeError("shape mismatch %s + %s" % (self.shape, other.shape))
        return QMatrix(self._a + other._a, self._b + other._b, copy=False)

    def __sub__(self, other):
        other = as_qmatrix(other)
        if other.shape != self.shape:
            raise ShapeError("shape mismatch %s - %s" % (self.shape, other.shape))
        return QMatrix(self._a - other._a, self._b - other._b, copy=False)

    def __neg__(self):
        return QMatrix(-self._a, -self._b, copy=False)

    def __matmul__(self, other):
        other = as_qmatrix(other)
        if self.cols != other.rows:
            raise ShapeError("cannot multiply %s by %s" % (self.shape, other.shape))
        a = self._a @ other._a - self._b @ np.conj(other._b)
        b = self._a @ other._b + self._b @ np.conj(other._a)
        return QMatrix(a, b, copy=False)

    def __mul__(self, other):
        """Right scalar multiple M*q (entrywise m_ij * q)."""
        if isinstance(other, (int, float)):
            return QMatrix(self._a * other, self._b * other, copy=False)
        q = other if isinstance(other, Quaternion) else Quaternion._coerce(other)
        if q is None:
            return NotImplemented
        qa = complex(q.x0, q.x1)
        qb = complex(q.x2, q.x3)
        a = self._a * qa - self._b * np.conj(qb)
        b = self._a * qb + self._b * np.conj(qa)
        return QMatrix(a, b, copy=False)

    def __rmul__(self, other):
        """Left scalar multiple q*M (entrywise q * m_ij)."""
        if isinstance(other, (int, float)):
            return QMatrix(self._a * other, self._b * other, copy=False)
        q = other if isinstance(other, Quaternion) else Quaternion._coerce(other)
        if q is None:
            return NotImplemented
        qa = complex(q.x0, q.x1)
        qb = complex(q.x2, q.x3)
        a = qa * self._a - qb * np.conj(self._b)
        b = qa * self._b + qb * np.conj(self._a)
        return QMatrix(a, b, copy=False)

    def __truediv__(self, other):
        if isinstance(other, (int, float)):
            return QMatrix(self._a / other, self._b / other, copy=False)
        return NotImplemented

    def adjoint(self):
        """Conjugate transpose M*."""
        return QMatrix(np.conj(self._a).T, -self._b.T, copy=False)

    def conj_entries(self):
        """Entrywise quaternion conjugate (no transpose)."""
        return QMatrix(np.conj(self._a), -self._b, copy=False)

    def norm(self):
        """Frobenius norm."""
        return math.sqrt(float((np.abs(self._a) ** 2 + np.abs(self._b) ** 2).sum()))

    def norm2(self):
        """Operator (spectral) norm, equal to that of the complex adjoint."""
        if self.rows == 0 or self.cols == 0:
            return 0.0
        return float(np.linalg.norm(self.complex_adjoint(), 2))

    def herm_defect(self):
        return (self - self.adjoint()).norm()

    def complex_adjoint(self):
        """The 2r x 2c complex adjoint chi(M)."""
        r, c = self.shape
        chi = np.empty((2 * r, 2 * c), dtype=complex)
        chi[:r, :c] = self._a
        chi[:r, c:] = self._b
        np.negative(np.conj(self._b), out=chi[r:, :c])
        np.conj(self._a, out=chi[r:, c:])
        return chi

    def allclose(self, other, tol=1e-12):
        other = as_qmatrix(other)
        return (self - other).norm() <= tol * (1.0 + self.norm())

    def __repr__(self):
        return "QMatrix(%dx%d)" % self.shape

    # -- serialization ---------------------------------------------------------------

    def to_dict(self):
        comp = self.to_components().reshape(-1, 4)
        return {
            "rows": self.rows,
            "cols": self.cols,
            "entries": comp.tolist(),
        }

    @classmethod
    def from_dict(cls, d):
        rows, cols = int(d["rows"]), int(d["cols"])
        entries = d["entries"]
        if len(entries) != rows * cols:
            raise ShapeError("expected %d entries, got %d" % (rows * cols, len(entries)))
        comp = np.asarray(entries, dtype=float).reshape(rows, cols, 4)
        if not np.all(np.isfinite(comp)):
            raise NonFiniteInputError("matrix entries must be finite numbers")
        return cls.from_components(comp[..., 0], comp[..., 1], comp[..., 2], comp[..., 3])


def as_qmatrix(x):
    """Coerce quaternions/reals/complex to a 1x1 QMatrix; pass QMatrix through."""
    if isinstance(x, QMatrix):
        return x
    if isinstance(x, Quaternion):
        return QMatrix.scalar(x)
    q = Quaternion._coerce(x)
    if q is not None:
        return QMatrix.scalar(q)
    raise ShapeError("cannot interpret %r as a quaternionic matrix" % (x,))


def complex_adjoint(M):
    return as_qmatrix(M).complex_adjoint()


def from_complex_adjoint(chi):
    """Inverse of the embedding; averages the redundant blocks."""
    chi = np.asarray(chi, dtype=complex)
    if chi.ndim != 2 or chi.shape[0] % 2 or chi.shape[1] % 2:
        raise ShapeError("complex adjoint must have even dimensions")
    r, c = chi.shape[0] // 2, chi.shape[1] // 2
    a = 0.5 * (chi[:r, :c] + np.conj(chi[r:, c:]))
    b = 0.5 * (chi[:r, c:] - np.conj(chi[r:, :c]))
    return QMatrix(a, b, copy=False)


def _columns_from_complex(u, n):
    """Map complex 2n-vectors (columns of u) back to quaternionic columns."""
    u = np.asarray(u, dtype=complex)
    if u.ndim == 1:
        u = u[:, None]
    return QMatrix(u[:n, :], -np.conj(u[n:, :]), copy=False)


def hstack(mats):
    mats = [as_qmatrix(m) for m in mats]
    return QMatrix(np.concatenate([m._a for m in mats], axis=1),
                   np.concatenate([m._b for m in mats], axis=1), copy=False)


def vstack(mats):
    mats = [as_qmatrix(m) for m in mats]
    return QMatrix(np.concatenate([m._a for m in mats], axis=0),
                   np.concatenate([m._b for m in mats], axis=0), copy=False)


def block(rows):
    """Assemble a block matrix from a nested list of QMatrix blocks."""
    return vstack([hstack(r) for r in rows])


def singular_values(M):
    return np.linalg.svd(as_qmatrix(M).complex_adjoint(), compute_uv=False)


def smallest_singular_value(M):
    s = singular_values(M)
    return float(s[-1]) if len(s) else 0.0


def _check_tol(name, value, relative):
    """Raise InvalidSpecError unless value is a finite number >= 0, and also
    below 1 when it is relative (a fraction of some norm)."""
    if not (math.isfinite(value) and value >= 0 and (value < 1 or not relative)):
        raise InvalidSpecError("%s must be a finite number >= 0%s, got %r"
                               % (name, " and below 1" if relative else "", value))


def _check_count(name, value, minimum):
    """Raise InvalidSpecError unless value is an integer >= minimum; a bool
    or a float with an integral value is no count."""
    if not (isinstance(value, numbers.Integral) and not isinstance(value, bool)
            and value >= minimum):
        raise InvalidSpecError("%s must be an integer >= %d, got %r" % (name, minimum, value))


def is_invertible(M):
    """Whether the smallest singular value of chi(M) exceeds _INVERTIBLE_RTOL
    times the largest; relative, so it does not change when M is rescaled."""
    s = singular_values(M)
    return bool(len(s)) and s[-1] > _INVERTIBLE_RTOL * s[0]


def solve(M, rhs, rtol=1e-12):
    """Solve M X = rhs over the quaternions.

    Parameters
    ----------
    M : QMatrix, square
    rhs : QMatrix with matching row count
    rtol : float
        Rank threshold relative to the operator norm of M; below it the
        system is declared singular.

    Returns
    -------
    QMatrix solution X.

    Raises
    ------
    InvalidSpecError
        Unless 0 <= rtol < 1.
    NonFiniteInputError
        If M or rhs holds a NaN or infinite entry.
    SingularMatrixError
        If chi(M) is rank deficient at the stated tolerance.
    """
    _check_tol("rtol", rtol, relative=True)
    M = as_qmatrix(M)
    rhs = as_qmatrix(rhs)
    if not M.is_square():
        raise ShapeError("solve needs a square matrix, got %s" % (M.shape,))
    if rhs.rows != M.rows:
        raise ShapeError("rhs has %d rows, expected %d" % (rhs.rows, M.rows))
    chi = M.complex_adjoint()
    b = rhs.complex_adjoint()
    if not (np.isfinite(chi).all() and np.isfinite(b).all()):
        raise NonFiniteInputError("solve needs finite matrix and rhs entries")
    sv = np.linalg.svd(chi, compute_uv=False)
    if sv[0] == 0.0 or sv[-1] <= rtol * sv[0]:
        raise SingularMatrixError(
            "matrix is singular at relative tolerance %g (sv ratio %g)"
            % (rtol, 0.0 if sv[0] == 0.0 else sv[-1] / sv[0]))
    x = np.linalg.solve(chi, b)
    return from_complex_adjoint(x)


def solve_right(M, rhs, rtol=1e-12):
    """Solve X M = rhs (a right division rhs * M^{-1})."""
    return solve(as_qmatrix(M).adjoint(), as_qmatrix(rhs).adjoint(), rtol).adjoint()


def inverse(M):
    M = as_qmatrix(M)
    return solve(M, QMatrix.eye(M.rows))


def char_operator(T, s):
    """Q_s(T) = T^2 - 2*Re(s)*T + |s|^2 * I."""
    T = as_qmatrix(T)
    if not T.is_square():
        raise ShapeError("char_operator needs a square matrix")
    return T @ T - (2.0 * s.x0) * T + s.norm_sq() * QMatrix.eye(T.rows)


def s_eigencheck(T, v, s):
    """Relative residual ||Q_s(T) v|| / ||v|| (zero iff s is a right eigenvalue for v)."""
    v = as_qmatrix(v)
    nv = v.norm()
    if nv == 0.0:
        raise ZeroVectorError("eigencheck of the zero vector")
    return (char_operator(T, s) @ v).norm() / nv


# -- Gram-Schmidt machinery ---------------------------------------------------------


def gram_schmidt_columns(M, rtol=1e-10):
    """Pivoted modified Gram-Schmidt over the quaternions.

    Returns (Q, rank) where the columns of Q are orthonormal under the
    Hermitian inner product [u, v] = v* u and span the column space of M.
    Each step takes the remaining column of largest norm, orthogonalizes it
    once more against the accepted columns and drops it if its norm is then
    at most rtol times the largest column norm of M.  Raises InvalidSpecError
    unless 0 <= rtol < 1.

    The columns are worked on as psi(v) (module docstring).  The quaternionic
    line of a unit q is the complex span of the orthonormal pair psi(q),
    psi(q j), so projecting q out of the remaining columns C is one product
    with q* C and one rank-one (complex rank-two) update.
    """
    _check_tol("rtol", rtol, relative=True)
    M = as_qmatrix(M)
    n = M.rows
    X = np.concatenate([M._a, -np.conj(M._b)])
    W = np.zeros((2 * n, 2 * M.cols), dtype=complex)  # psi(q), psi(q j) pairs
    norms = np.linalg.norm(X, axis=0)
    cut = rtol * (norms.max() if norms.size and norms.max() > 0 else 1.0)
    rank = 0
    while norms.size:
        k = int(np.argmax(norms))
        if norms[k] <= cut:
            break
        v = X[:, k].copy()
        X[:, k] = 0.0
        # second orthogonalization pass against the accepted columns
        done = W[:, :2 * rank]
        v -= done @ (done.conj().T @ v)
        nv = np.linalg.norm(v)
        if nv > cut:
            v /= nv
            pair = W[:, 2 * rank:2 * rank + 2]
            pair[:, 0] = v
            pair[:n, 1] = np.conj(v[n:])
            pair[n:, 1] = -np.conj(v[:n])
            X -= pair @ (pair.conj().T @ X)
            rank += 1
        norms = np.linalg.norm(X, axis=0)
    return _columns_from_complex(W[:, 0:2 * rank:2], n), rank


def _leading_basis(U, k, n):
    """Orthonormal basis V of the invariant subspace of the n x n matrix T
    spanned by the leading k Schur vectors of chi(T) = U R U*.

    When the leading k eigenvalues are closed under conjugation, that span is
    psi of a quaternionic subspace of dimension k / 2 (Golub and Van Loan,
    Matrix Computations, sec. 7.6, for leading Schur vectors as a basis), so
    V has k / 2 columns.  Raises RankDeficiencyError otherwise.
    """
    V, rank = gram_schmidt_columns(_columns_from_complex(U[:, :k], n))
    if 2 * rank != k:
        raise RankDeficiencyError(
            "%d leading Schur vectors give %d quaternionic directions, expected %d"
            % (k, rank, k / 2))
    return V


def _column_echelon(M):
    """M Q for the unitary Q that puts M in pivoted column echelon form.

    Column k of M Q is zero in the pivot rows of the columns before it and
    positive real in its own pivot row: the row of largest norm once the
    earlier pivot rows are projected out.  Q is the Gram-Schmidt basis of
    the columns of M*, that is of the rows of M, in that pivot order.  For a
    unitary U, M U gives the same pivots and M U (U* Q) = M Q, so the result
    depends on M only up to a right unitary factor, which is what makes it a
    canonical form (up to near ties between pivot rows).

    Raises RankDeficiencyError if M has dependent columns.
    """
    Q, rank = gram_schmidt_columns(M.adjoint())
    if rank < M.cols:
        raise RankDeficiencyError("column echelon form needs independent columns")
    return M @ Q


def indefinite_gram_schmidt(M, J):
    """Orthonormalize columns under the indefinite metric [u, v] = v* J u.

    One Hermitian congruence of a Gram matrix: each column m_j is first
    divided by sqrt(d_j), d_j = |m_j|^T |J| |m_j| with entrywise moduli,
    which bounds the terms summed into [m_j, m_j].  herm_eig then gives
    G = X diag(I, -I) X* for the Gram matrix G = M_s* J M_s of the scaled
    columns M_s, so Y = M_s X^{-*} has Y* J Y = diag(signs) and spans the
    column space of M.  Returns (Y, signs), positive columns first.

    The neutrality test reads G, whose diagonal entries have modulus at
    most 1, so it does not change when the columns of M, the metric J, or
    the coordinates (a diagonal D with M -> D M, J -> D^{-1} J D^{-1}) are
    rescaled.

    Raises
    ------
    CompletionFailureError
        If G has an eigenvalue of modulus at most _NEUTRAL_TOL: a numerically
        neutral direction, a zero column, or dependent columns.
    """
    M = as_qmatrix(M)
    J = as_qmatrix(J)
    if M.cols == 0:
        return M, []
    absM = np.sqrt(np.abs(M._a) ** 2 + np.abs(M._b) ** 2)
    absJ = np.sqrt(np.abs(J._a) ** 2 + np.abs(J._b) ** 2)
    d = ((absJ @ absM) * absM).sum(axis=0)
    d[d == 0.0] = 1.0                          # a zero column stays zero, and neutral
    Ms = QMatrix(M._a / np.sqrt(d), M._b / np.sqrt(d), copy=False)
    spec, X = herm_eig(Ms.adjoint() @ J @ Ms, tol=_NEUTRAL_TOL)
    t, r, z = spec.signature
    if z:
        raise CompletionFailureError(
            "neutral direction met in indefinite Gram-Schmidt (smallest |eigenvalue| "
            "of the scaled Gram matrix is %g)" % min(abs(l) for l in spec.eigenvalues))
    return solve_right(X.adjoint(), Ms), [1.0] * t + [-1.0] * r


def null_basis(M):
    """Quaternionic orthonormal basis of ker(M) (possibly zero columns); a
    singular value of chi(M) at most _NULL_RTOL times the largest counts as zero."""
    M = as_qmatrix(M)
    chi = M.complex_adjoint()
    u, sv, vh = np.linalg.svd(chi)
    zero = sv <= _NULL_RTOL * (sv[0] if len(sv) and sv[0] > 0 else 1.0)
    take = [i for i in range(vh.shape[0]) if i >= len(sv) or zero[i]]
    if not take:
        return QMatrix.zeros(M.cols, 0)
    cand = _columns_from_complex(vh.conj().T[:, take], M.cols)
    basis, _ = gram_schmidt_columns(cand, rtol=1e-8)
    return basis


def range_basis(M, threshold):
    """Orthonormal basis of ran(M); rank counts singular values > threshold.

    The threshold is absolute.  Each singular value of M appears twice among
    those of chi(M), equal up to rounding; the rank counts the pairs whose
    mean exceeds the threshold, so the two copies are kept or dropped
    together.  Raises InvalidSpecError unless threshold is a finite number >= 0.
    """
    _check_tol("threshold", threshold, relative=False)
    M = as_qmatrix(M)
    u, sv, vh = np.linalg.svd(M.complex_adjoint())
    rank = int(np.sum((sv[0::2] + sv[1::2]) / 2 > threshold))
    if rank == 0:
        return QMatrix.zeros(M.rows, 0), 0
    cand = _columns_from_complex(u[:, :2 * rank], M.rows)
    basis, _ = gram_schmidt_columns(cand, rtol=1e-8)
    return basis[:, :rank], rank


# -- spectra -------------------------------------------------------------------------


def _runs(members, x, tol):
    """Cut members, sorted by x, into runs: a run ends before the first member
    more than tol[first] past its first member, so none spans more than that."""
    members = members[np.argsort(x[members], kind="stable")]
    runs, start = [], 0
    for k in range(1, len(members) + 1):
        if k == len(members) or x[members[k]] - x[members[start]] > tol[members[start]]:
            runs.append(members[start:k])
            start = k
    return runs


def _conjugate_pairs(w, tol):
    """Split the 2n eigenvalues w of chi(T) into n conjugate pairs.

    Each eigenvalue with Im > tol, from the largest Im down, takes the free
    eigenvalue nearest to its conjugate.  What is left is near the real axis,
    where rounding gives either sign of Im; sorted by Re it pairs off in
    neighbours.  Returns index arrays (first, second) of length n.
    """
    free = np.ones(len(w), dtype=bool)
    first, second = [], []
    for i in np.argsort(-w.imag, kind="stable"):
        if free[i] and w[i].imag > tol[i]:
            free[i] = False
            cand = np.flatnonzero(free)
            j = cand[np.argmin(np.abs(w[cand] - np.conj(w[i])))]
            free[j] = False
            first.append(i)
            second.append(j)
    near = np.flatnonzero(free)
    near = near[np.argsort(w[near].real, kind="stable")]
    first = np.array(first + list(near[0::2]), dtype=int)
    second = np.array(second + list(near[1::2]), dtype=int)
    return first, second


def _eigenvalue_conds(R, idx):
    """Condition numbers of the eigenvalues R[i, i], i in idx, of an upper
    triangular R.

    The right and left eigenvectors x, y of R[i, i] vanish below and above
    entry i respectively; with x_i = y_i = 1 they satisfy y* x = 1, so the
    condition number is ||x|| ||y||.  They come from two triangular solves
    with R - R[i, i] I, whose zero diagonal entries are replaced by
    eps * max|R| (as LAPACK's trevc does), so an exactly defective
    eigenvalue gets a huge but finite condition number.
    """
    d = np.diag(R)
    floor = np.finfo(float).eps * max(float(np.abs(R).max(initial=0.0)), np.finfo(float).tiny)
    eye = np.eye(len(R))
    out = np.empty(len(idx))
    for k, i in enumerate(idx):
        M = R - d[i] * eye
        small = np.abs(np.diag(M)) < floor
        M[small, small] = floor
        x = solve_triangular(M[:i, :i], -R[:i, i])
        y = solve_triangular(M[i + 1:, i + 1:], -R[i, i + 1:], trans="T")
        out[k] = math.sqrt((1.0 + np.vdot(x, x).real) * (1.0 + np.vdot(y, y).real))
    return out


def _merge_unresolved(groups, key, first, second, R, tol, cluster_tol):
    """Merge groups of pairs whose eigenvalues one backward error of at most
    tol could make equal.

    Rounding splits an eigenvalue of a Jordan chain of length k by about
    (backward error)^(1/k), far past tol, while the mean of the split
    eigenvalues stays accurate.  Groups whose mean keys lie within
    cluster_tol^(1/3) * (1 + modulus) of each other (a chain of length 3 at
    backward error cluster_tol) are candidates; the closest candidates are
    merged first, and a merge stands when the span of the merged keys (the
    wider of the two coordinates) divided by the largest eigenvalue condition
    number among its members is at most the smallest tol among them.  With
    every condition number 1 no merge stands, since each group was cut where
    the span first passed tol.
    """
    sizes = np.array([len(g) for g in groups])
    means = np.add.reduceat(key[np.concatenate(groups)], np.cumsum(sizes) - sizes) / sizes[:, None]
    reach = cluster_tol ** (1.0 / 3.0) * (1.0 + np.hypot(means[:, 0], means[:, 1]))
    dist = np.abs(means[:, None, :] - means[None, :, :]).max(axis=2)
    cand = np.argwhere(np.triu(dist <= np.minimum.outer(reach, reach), 1))
    if not len(cand):
        return groups
    need = np.unique(np.concatenate(
        [np.concatenate([first[groups[g]], second[groups[g]]]) for g in np.unique(cand)]))
    cond = np.ones(2 * len(key))
    cond[need] = _eigenvalue_conds(R, need)
    label = np.arange(len(groups))
    for i, j in sorted(cand.tolist(), key=lambda ij: dist[ij[0], ij[1]]):
        a, b = label[i], label[j]
        if a == b:
            continue
        grp = np.concatenate([groups[g] for g in np.flatnonzero((label == a) | (label == b))])
        span = float(np.ptp(key[grp], axis=0).max())
        worst = cond[np.concatenate([first[grp], second[grp]])].max()
        if span / worst <= tol[first[grp]].min():
            label[label == b] = a
    return [np.concatenate([groups[g] for g in np.flatnonzero(label == a)])
            for a in np.unique(label)]


def _eigen_spheres(w, cluster_tol, R=None):
    """Group the 2n eigenvalues w of chi(T) into eigenvalue spheres.

    The eigenvalues are first split into conjugate pairs (real ones into
    equal pairs), which are never split again.  Each pair has the key
    (Re, |Im|) averaged over its two members; the keys are clustered by
    sorted passes, on Re and then on |Im| within each Re-run.  A cluster
    whose first pair has modulus m spans at most cluster_tol * (1 + m) in
    either coordinate, so a chain of close neighbours is not merged into one
    wide cluster.  When w is the diagonal of an upper triangular R,
    clusters that only rounding of a defective eigenvalue keeps apart are
    merged (_merge_unresolved).

    Returns a list of (Sphere, multiplicity, indices into w), sorted by (re, im).
    Raises InvalidSpecError unless 0 <= cluster_tol < 1.
    """
    _check_tol("cluster_tol", cluster_tol, relative=True)
    tol = cluster_tol * (1.0 + np.abs(w))
    first, second = _conjugate_pairs(w, tol)
    key = np.column_stack([(w.real[first] + w.real[second]) / 2,
                           (np.abs(w.imag[first]) + np.abs(w.imag[second])) / 2])
    pairs = np.arange(len(first))
    groups = [grp for run in _runs(pairs, key[:, 0], tol[first])
              for grp in _runs(run, key[:, 1], tol[first])]
    if R is not None and len(groups) > 1:
        groups = _merge_unresolved(groups, key, first, second, R, tol, cluster_tol)
    out = []
    for grp in groups:
        re, im = key[grp].mean(axis=0)
        idx = np.concatenate([first[grp], second[grp]])
        out.append((Sphere(float(re), float(im)), len(grp), idx))
    out.sort(key=lambda t: (t[0].re, t[0].im_mag))
    return out


def _schur(T, sort=None):
    """(R, U): the complex Schur form chi(T) = U R U*.

    This is the only Schur factorization in the library.  sort="ouc" puts
    the eigenvalues outside the unit circle first, so that the leading Schur
    vectors span their invariant subspace.  Raises ShapeError for non-square
    T and NonFiniteInputError for NaN or inf.
    """
    T = as_qmatrix(T)
    if not T.is_square():
        raise ShapeError("spectrum of a non-square matrix")
    chi = T.complex_adjoint()
    if not np.all(np.isfinite(chi)):
        raise NonFiniteInputError("matrix entries must be finite numbers")
    R, U = schur(chi, output="complex", sort=sort)[:2]
    return R, U


def _schur_spheres(T, cluster_tol=_CLUSTER_TOL, sort=None):
    """(R, U, spheres): the Schur form of _schur and the eigen-spheres of T
    with multiplicities, read off diag(R).

    The right spectrum of T is its point S-spectrum, the eigenvalues of
    chi(T), so this one factorization serves every spectral decision.
    """
    R, U = _schur(T, sort)
    spheres = [(sphere, mult) for sphere, mult, _ in _eigen_spheres(np.diag(R), cluster_tol, R)]
    return R, U, spheres


def right_eigen_spheres(T, cluster_tol=_CLUSTER_TOL):
    """Eigenvalue spheres of the right spectrum with multiplicities.

    Eigenvalues of chi(T), read off its complex Schur form, come in
    conjugate pairs (real ones in equal pairs); clustering one point
    (Re, |Im|) per pair yields one entry per sphere, and no cluster spans
    more than cluster_tol * (1 + modulus) unless its eigenvalues are too
    ill-conditioned to tell apart (a defective sphere).

    Returns a list of (Sphere, multiplicity), sorted by (re, im).  Raises
    InvalidSpecError unless 0 <= cluster_tol < 1.
    """
    return _schur_spheres(T, cluster_tol)[2]


def right_eigen_decomposition(T):
    """Spheres, slice representatives and eigenvector bases of a square matrix.

    Returns (parts, V) where parts is a list of (Sphere, rep, basis): rep is
    the representative eigenvalue in the i-slice with nonnegative imaginary
    part, and basis an n x mult QMatrix with T basis = basis * rep columnwise.
    V stacks all bases.  Spheres are clustered at _CLUSTER_TOL, and V counts
    as singular when its singular value ratio is at most _EIGVEC_COND_TOL.

    Raises
    ------
    NotDiagonalizableError
        If eigenvectors fail to span (numerically defective input).
    """
    T = as_qmatrix(T)
    n = T.rows
    if not T.is_square():
        raise ShapeError("eigendecomposition of a non-square matrix")
    w, U = np.linalg.eig(T.complex_adjoint())
    parts = []
    for sphere, mult, grp in _eigen_spheres(w, _CLUSTER_TOL):
        re, im = sphere.re, sphere.im_mag
        if im <= _CLUSTER_TOL * (1.0 + math.hypot(re, im)):
            # real sphere: the eigenspace is a genuine quaternionic subspace
            cand = _columns_from_complex(U[:, grp], n)
            basis, got = gram_schmidt_columns(cand, rtol=1e-8)
            rep = Quaternion(re)
            im = 0.0
        else:
            # nonreal: stay inside the complex lambda-eigenspace (a C_I-module,
            # not an H-subspace) and orthonormalize over C before mapping back
            pos = [i for i in grp if w[i].imag > 0]
            if len(pos) != mult:
                raise NotDiagonalizableError("unbalanced conjugate eigenvalue pairs")
            q, r = np.linalg.qr(U[:, pos])
            diag = np.abs(np.diag(r))
            got = int(np.sum(diag > 1e-8 * (diag.max() if diag.size else 1.0)))
            basis = _columns_from_complex(q[:, :got], n)
            rep = Quaternion(re, im)
        if got < mult:
            raise NotDiagonalizableError(
                "eigenspace dimension %d below multiplicity %d" % (got, mult))
        parts.append((Sphere(re, im), rep, basis))
    if sum(p[2].cols for p in parts) != n:
        raise NotDiagonalizableError("eigenvectors do not span")
    V = hstack([p[2] for p in parts])
    sv = singular_values(V)
    if sv[-1] <= _EIGVEC_COND_TOL * sv[0]:
        raise NotDiagonalizableError(
            "eigenvector basis numerically singular (sv ratio %g)" % (sv[-1] / sv[0]))
    return parts, V


@dataclass
class HermSpectrum:
    """Eigenvalues (ascending, one per quaternionic multiplicity) and signature."""

    eigenvalues: list
    signature: tuple  # (positive, negative, zero) counts

    @property
    def negatives(self):
        return self.signature[1]


def herm_eig(H, tol=None):
    """Spectral data and congruence factor of a Hermitian quaternionic matrix.

    The eigenvalues of chi(H) come from one eigh, in near-exact duplicate
    pairs; the pairs, in ascending order, are cut into groups none of which
    spans more than 1e-12 * (1 + max|eigenvalue|) from its first pair (as
    _runs cuts), and a group of k pairs is one quaternionic eigenvalue of
    multiplicity k.  For a simple eigenvalue, the first eigenvector of its
    pair is already psi of a unit quaternionic eigenvector; only the groups of
    a repeated eigenvalue go through gram_schmidt_columns.  Eigenvectors of
    eigenvalues a small gap apart are quaternion-orthogonal only to about
    eps / gap, so the eigenvector matrix is replaced by its polar factor
    (Higham, Functions of Matrices, 2008, ch. 8), from one SVD of its chi;
    that keeps H = V sig V* to rounding at every eigenvalue gap.

    Parameters
    ----------
    H : QMatrix, Hermitian within 1e-10 * (1 + ||H||).
    tol : float, optional
        Threshold at or below which |eigenvalue| counts as zero: a finite
        number >= 0, or None for 1e-8 * max|eigenvalue|.

    Returns
    -------
    (HermSpectrum, V) with H = V diag(I_t, -I_r, 0_s) V*.  V carries the
    factors sqrt(|eigenvalue|); its columns are ordered positive (descending),
    negative (ascending), zero, and V is always invertible.

    Raises
    ------
    InvalidSpecError if tol is neither None nor a finite number >= 0.
    NotHermitianError if the input is not Hermitian at tolerance.
    """
    if tol is not None:
        _check_tol("tol", tol, relative=False)
    H = as_qmatrix(H)
    if not H.is_square():
        raise ShapeError("herm_eig needs a square matrix")
    if H.herm_defect() > 1e-10 * (1.0 + H.norm()):
        raise NotHermitianError("matrix is not Hermitian (defect %g)" % H.herm_defect())
    n = H.rows
    if n == 0:
        return HermSpectrum([], (0, 0, 0)), QMatrix.zeros(0, 0)
    w, U = np.linalg.eigh(H.complex_adjoint())
    scale = float(np.max(np.abs(w)))
    if tol is None:
        tol = 1e-8 * scale
    # chi eigenvalues occur in near-exact duplicates, adjacent once sorted:
    # one key per pair, cut as _runs cuts, so that a group starting at pair k
    # ends before the first pair more than gap past pair k
    gap = 1e-12 * (1.0 + scale)
    pair = (w[0::2] + w[1::2]) / 2
    ends = np.searchsorted(pair, pair + gap, side="right").tolist()
    first, k = [], 0
    while k < n:
        first.append(k)
        k = ends[k]
    first = np.array(first)
    mult = np.diff(np.r_[first, n])
    lam = np.add.reduceat(pair, first) / mult
    starts = 2 * first
    cols = U[:, np.repeat(starts, mult)]         # psi columns, group by group
    offsets = np.cumsum(mult) - mult
    for g in np.flatnonzero(mult > 1):
        k = mult[g]
        basis, got = gram_schmidt_columns(
            _columns_from_complex(U[:, starts[g]:starts[g] + 2 * k], n), rtol=1e-8)
        if got < k:
            raise NotHermitianError("eigenspace extraction failed (defective input?)")
        cols[:, offsets[g]:offsets[g] + k] = np.concatenate([basis._a, -np.conj(basis._b)])[:, :k]
    # polar factor: the nearest unitary to the eigenvector matrix
    u, _, vh = np.linalg.svd(_columns_from_complex(cols, n).complex_adjoint())
    cols = (u @ vh)[:, :n]
    lam_col = np.repeat(lam, mult)
    kind = np.where(lam_col > tol, 0, np.where(lam_col < -tol, 1, 2))
    # lam_col ascends group by group, and lexsort is stable
    order = np.lexsort((np.where(kind == 0, -lam_col, lam_col), kind))
    cols = cols[:, order] * np.sqrt(np.where(kind == 2, 1.0, np.abs(lam_col)))[order]
    spec = HermSpectrum(lam_col.tolist(), tuple(np.bincount(kind, minlength=3).tolist()))
    return spec, _columns_from_complex(cols, n)


def signature_blocks(t, r, s, n=None):
    """diag(I_t, -I_r, 0_s) as a QMatrix."""
    vals = [1.0] * t + [-1.0] * r + [0.0] * s
    return QMatrix.diag([Quaternion(v) for v in vals])
