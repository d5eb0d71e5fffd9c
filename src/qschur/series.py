"""Truncated power series sum_n p^n A_n with quaternionic matrix coefficients.

The variable sits to the left of the coefficients, so pointwise evaluation
is unambiguous; products use the star (convolution) product

    (f * g)_n = sum_k f_k g_{n-k},

which agrees with the pointwise product only when the left factor has real
coefficients.  A series carries a truncation degree; binary operations
return the smaller of the two degrees, since nothing is known about either
tail beyond it.  Exact polynomial arithmetic is done by padding first.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided
from scipy.linalg import solve_triangular

from .errors import NotInvertibleAtZeroError, ShapeError, SingularMatrixError
from .quat import Quaternion
from .qmatrix import QMatrix, _check_count, as_qmatrix, from_complex_adjoint, inverse, vstack


class SliceSeries:
    """Truncated series, immutable: two read-only complex arrays of shape
    (degree + 1, rows, cols) in the a + b*j split of QMatrix."""

    __slots__ = ("_a", "_b")

    def __init__(self, coeffs):
        coeffs = [as_qmatrix(c) for c in coeffs]
        if not coeffs:
            raise ShapeError("a series needs at least the constant coefficient")
        if any(c.shape != coeffs[0].shape for c in coeffs):
            raise ShapeError("coefficient shapes differ: %s" % [c.shape for c in coeffs])
        s = SliceSeries._from_stacked(vstack(coeffs), len(coeffs) - 1)
        self._a, self._b = s._a, s._b

    @classmethod
    def _from_arrays(cls, a, b):
        a.setflags(write=False)
        b.setflags(write=False)
        out = cls.__new__(cls)
        out._a, out._b = a, b
        return out

    @classmethod
    def _from_stacked(cls, M, degree):
        return cls._from_arrays(M._a.reshape(degree + 1, -1, M.cols),
                                M._b.reshape(degree + 1, -1, M.cols))

    # -- constructors -----------------------------------------------------------

    @classmethod
    def polynomial(cls, coeffs, degree=None):
        """Series from explicit coefficients, zero-padded up to degree."""
        return cls(coeffs).pad(degree or 0)

    @classmethod
    def constant(cls, value, degree):
        return cls.polynomial([as_qmatrix(value)], degree)

    @classmethod
    def one(cls, degree, n=1):
        return cls.polynomial([QMatrix.eye(n)], degree)

    @classmethod
    def variable(cls, degree):
        """The scalar series p itself."""
        return cls.polynomial([QMatrix.zeros(1, 1), QMatrix.eye(1)], degree)

    # -- basic queries ------------------------------------------------------------

    @property
    def degree(self):
        return len(self._a) - 1

    @property
    def shape(self):
        return self._a.shape[1:]

    @property
    def rows(self):
        return self._a.shape[1]

    @property
    def cols(self):
        return self._a.shape[2]

    def coeff(self, n):
        """n-th coefficient; zero beyond the truncation degree."""
        if 0 <= n <= self.degree:
            return QMatrix(self._a[n], self._b[n], copy=False)
        return QMatrix.zeros(*self.shape)

    def coeffs(self):
        return [self.coeff(n) for n in range(self.degree + 1)]

    def stacked(self):
        """The coefficients stacked vertically, a ((degree + 1) * rows, cols) QMatrix."""
        return QMatrix(self._a.reshape(-1, self.cols), self._b.reshape(-1, self.cols),
                       copy=False)

    def _zeros_around(self, before, after):
        d = self.degree + 1
        a = np.zeros((before + d + after,) + self.shape, dtype=complex)
        b = np.zeros_like(a)
        a[before:before + d] = self._a
        b[before:before + d] = self._b
        return SliceSeries._from_arrays(a, b)

    def pad(self, degree):
        return self if degree <= self.degree else self._zeros_around(0, degree - self.degree)

    def truncate(self, degree):
        return SliceSeries._from_arrays(self._a[:degree + 1], self._b[:degree + 1])

    def shift(self, k):
        """Multiply by p^k."""
        return self._zeros_around(k, 0)

    def coeff_norms(self):
        """Frobenius norm of every coefficient, an array of length degree + 1."""
        return np.sqrt((np.abs(self._a) ** 2 + np.abs(self._b) ** 2).sum(axis=(1, 2)))

    def norm_tail(self, start=0):
        return float(self.coeff_norms()[start:].sum())

    # -- ring operations ------------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, SliceSeries):
            return other
        return SliceSeries.constant(as_qmatrix(other), self.degree)

    def _common(self, other):
        other = self._coerce(other)
        d = min(self.degree, other.degree)
        return d, self.truncate(d).stacked(), other.truncate(d).stacked()

    def __add__(self, other):
        d, x, y = self._common(other)
        return SliceSeries._from_stacked(x + y, d)

    __radd__ = __add__

    def __sub__(self, other):
        d, x, y = self._common(other)
        return SliceSeries._from_stacked(x - y, d)

    def __rsub__(self, other):
        return self._coerce(other).__sub__(self)

    def __neg__(self):
        return SliceSeries._from_stacked(-self.stacked(), self.degree)

    def __mul__(self, other):
        """Star product with a series, or the star multiple by a constant."""
        if isinstance(other, SliceSeries):
            return star_mul(self, other)
        q = as_qmatrix(other)
        M = self.stacked() @ q if q.rows == self.cols else self.stacked() * other
        return SliceSeries._from_stacked(M, self.degree)

    def __rmul__(self, other):
        """Left star multiple by a constant q: q c_n on every coefficient."""
        if isinstance(other, (int, float)):
            return self * other
        return star_mul(self._coerce(other), self)

    def conj(self):
        """Entrywise conjugate of every coefficient."""
        return SliceSeries._from_stacked(self.stacked().conj_entries(), self.degree)

    # -- evaluation -------------------------------------------------------------------

    def eval(self, p):
        """Pointwise value at a quaternion p, by left Horner recursion."""
        acc = self.coeff(self.degree)
        for n in range(self.degree - 1, -1, -1):
            acc = self.coeff(n) + p * acc
        return acc

    __call__ = eval

    def __repr__(self):
        return "SliceSeries(degree=%d, shape=%s)" % (self.degree, (self.shape,))

    # -- serialization ------------------------------------------------------------------

    def to_dict(self):
        return {"degree": self.degree,
                "coefficients": [c.to_dict() for c in self.coeffs()]}

    @classmethod
    def from_dict(cls, d):
        return cls([QMatrix.from_dict(c) for c in d["coefficients"]])


def _section(blocks, mu):
    """Block lower-triangular Toeplitz section [blocks[n - m]]_{n >= m; n, m <= mu}
    of a stack of equal blocks, zero past the end of the stack.

    With the blocks after mu zero blocks in Z, block (n, m) is Z[mu + n - m]:
    one strided view of Z, a step forward per block row and back per block
    column, which the reshape gathers in one copy.
    """
    k, p, q = blocks.shape
    Z = np.zeros((2 * mu + 1, p, q), dtype=blocks.dtype)
    Z[mu:mu + min(k, mu + 1)] = blocks[:mu + 1]
    s0, s1, s2 = Z.strides
    view = as_strided(Z[mu:], shape=(mu + 1, p, mu + 1, q), strides=(s0, s1, -s0, s2),
                      writeable=False)
    return view.reshape((mu + 1) * p, (mu + 1) * q)


def lower_toeplitz(f, mu):
    """Block lower-triangular Toeplitz section L = [f_{n-m}]_{n>=m, n,m<=mu}.

    Multiplication by L implements the star product on stacked coefficient
    vectors: stacking the first mu+1 coefficients of g into x, L(f) x stacks
    those of f * g.  Coefficients past the degree of f are zero.
    """
    return QMatrix(_section(f._a, mu), _section(f._b, mu), copy=False)


def star_mul(f, g):
    """Convolution (star) product, truncated at min(deg f, deg g)."""
    if f.cols != g.rows:
        raise ShapeError("star product shape mismatch %s * %s" % (f.shape, g.shape))
    d = min(f.degree, g.degree)
    return SliceSeries._from_stacked(lower_toeplitz(f, d) @ g.truncate(d).stacked(), d)


def series_sym(f):
    """Symmetrization conj(f) * f of a scalar series; always real coefficients.

    The imaginary parts cancel exactly in exact arithmetic; they are checked
    against 1e-10 * (1 + scale) and then dropped.
    """
    if f.shape != (1, 1):
        raise ShapeError("symmetrization is defined for scalar series")
    fs = star_mul(f.conj(), f)
    coeffs = [c.item() for c in fs.coeffs()]
    scale = max(abs(q) for q in coeffs)
    for q in coeffs:
        if q.imag_norm() > 1e-10 * (1.0 + scale):
            raise ShapeError("symmetrized coefficient not real: %r" % (q,))
    # the real part (q + conj q) / 2 of every coefficient, exact in floating point
    return (fs + fs.conj()) * 0.5


def _chi_stack(a, b):
    """chi of every coefficient: (k, r, c) component arrays to (k, 2r, 2c)."""
    return np.concatenate([np.concatenate([a, b], axis=2),
                           np.concatenate([-b.conj(), a.conj()], axis=2)], axis=1)


def star_solve_left(f, g):
    """Solve f * x = g for a series x (degree = min of the two).

    Requires the constant coefficient of f to be invertible.  With
    h = f_0^{-1} f, whose constant coefficient is I, the system is
    L(h) stack(x) = stack(f_0^{-1} g).  On the complex adjoint, with chi(h_n)
    as block (n + m, m) of the section and the psi of the columns of each
    coefficient on both sides, L(h) is unit lower triangular, so x is one
    triangular solve.
    """
    if f.rows != f.cols:
        raise ShapeError("left star division needs a square left factor")
    if g.rows != f.cols:
        raise ShapeError("star division shape mismatch")
    try:
        c0_inv = inverse(f.coeff(0))
    except SingularMatrixError as exc:
        raise NotInvertibleAtZeroError(
            "constant coefficient is singular, no star inverse exists") from exc
    d = min(f.degree, g.degree)
    r, c = g.shape
    K = c0_inv.complex_adjoint()
    h = np.empty((d + 1, 2 * r, 2 * r), dtype=complex)  # chi(h_n)
    h[0] = np.eye(2 * r)
    h[1:] = K @ _chi_stack(f._a[1:d + 1], f._b[1:d + 1])
    L = _section(h, d)
    rhs = K @ np.concatenate([g._a[:d + 1], -g._b[:d + 1].conj()], axis=1)
    x = solve_triangular(L, rhs.reshape(2 * r * (d + 1), c), lower=True, unit_diagonal=True,
                         check_finite=False)
    x = x.reshape(d + 1, 2 * r, c)
    return SliceSeries._from_arrays(x[:, :r], -x[:, r:].conj())


def star_inverse(f):
    """Star inverse of a square series with invertible constant coefficient."""
    return star_solve_left(f, SliceSeries.one(f.degree, f.rows))


def _state_space_series(A, B, C, D, degree):
    """The series D + p C * (I - pA)^{-*} * B, whose coefficients are D and
    C A^{n-1} B, truncated at degree.

    The rows C A^k come from one power sweep by doubling on the complex
    adjoint: [a, b], the top half of chi(M) for M = a + b j, times chi(N)
    is the top half of chi(M N), so the stacked top halves of C A^k for
    k < 2^(i+1) are those for k < 2^i above the same stack times chi(A^(2^i)).
    """
    m, p = C.rows, B.cols
    rows = np.concatenate([C._a, C._b], axis=1)
    power = A.complex_adjoint()
    while len(rows) < degree * m:
        rows = np.concatenate([rows, rows @ power])
        power = power @ power
    top = (rows[:degree * m] @ B.complex_adjoint()).reshape(degree, m, 2 * p)
    return SliceSeries._from_arrays(np.concatenate([D._a[None], top[:, :, :p]]),
                                    np.concatenate([D._b[None], top[:, :, p:]]))


def star_resolvent(A, degree):
    """The series (I - pA)^{-*} = sum_n p^n A^n, truncated at degree.
    Raises InvalidSpecError unless degree is an integer >= 0."""
    _check_count("degree", degree, 0)
    A = as_qmatrix(A)
    if not A.is_square():
        raise ShapeError("resolvent series of a non-square matrix")
    I = QMatrix.eye(A.rows)
    return _state_space_series(A, A, I, I, degree)


def star_resolvent_eval(A, p):
    """Closed-form value of (I - pA)^{-*} at p: star_left_eval with C = I.

    Equal to (I - conj(p) A) (|p|^2 A^2 - 2 Re(p) A + I)^{-1}; valid whenever
    the quadratic factor is invertible, independently of series convergence.
    """
    A = as_qmatrix(A)
    if not A.is_square():
        raise ShapeError("resolvent of a non-square matrix")
    return star_left_eval(QMatrix.eye(A.rows), A, p)


def star_left_eval(C, A, p):
    """Value at p of the series C * (I - pA)^{-*} = sum_n p^n (C A^n).

    A constant left factor does not commute with powers of p, so this is
    not C @ star_resolvent_eval(A, p); the correct closed form is

        (C - conj(p) C A) R^{-1},   R = |p|^2 A^2 - 2 Re(p) A + I.

    Raises SingularMatrixError when p lies on a pole sphere: when a singular
    value of chi(R) is at most 1e-12 times |p|^2 |A^2| + 2 |Re p| |A| + 1, the
    size of R's terms.  The ratio of R's own singular values would not do:
    for one state chi(R) is |R| times a unitary.
    """
    C = as_qmatrix(C)
    A = as_qmatrix(A)
    if C.cols != A.rows or not A.is_square():
        raise ShapeError("shape mismatch in star_left_eval")
    p = Quaternion._coerce(p)
    A2 = A @ A
    R = p.norm_sq() * A2 - (2.0 * p.x0) * A + QMatrix.eye(A.rows)
    scale = p.norm_sq() * A2.norm() + 2.0 * abs(p.x0) * A.norm() + 1.0
    chi = R.complex_adjoint()
    sv = np.linalg.svd(chi, compute_uv=False)
    if np.any(sv <= 1e-12 * scale):
        raise SingularMatrixError(
            "p = %s is on a pole sphere: singular value %g of terms of size %g"
            % (p, sv.min(), scale))
    left = (C - p.conj() * (C @ A)).complex_adjoint()
    return from_complex_adjoint(np.linalg.solve(chi.T, left.T).T)
