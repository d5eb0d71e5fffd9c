"""Coefficient kernels of generalized Schur functions and negative squares.

For a series S = sum_n p^n s_n between spaces with signatures sigma1
(input side) and sigma2 (output side), the kernel coefficients are

    a_{n,m} = delta_{n,m} sigma2 - sum_{k=0}^{min(n,m)} s_{n-k} sigma1 s_{m-k}*.

Finite sections A_mu = [a_{n,m}]_{n,m<=mu} are Hermitian; the number of
negative squares of the kernel is the supremum over mu of their negative
eigenvalue counts, which stabilizes at finite mu for rational S.  With L the
block Toeplitz matrix of S (lower_toeplitz), A_mu = I (x) sigma2 - L (I (x) sigma1) L*,
so every smaller section is a leading principal block of the largest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NonFiniteInputError, NotHermitianError, ShapeError
from .quat import Quaternion
from .qmatrix import QMatrix, _check_count, _check_tol, as_qmatrix
from .series import SliceSeries, lower_toeplitz


class KernelCoeffs:
    """Kernel coefficients a_{n,m} of a series, read off its closed-form sections."""

    def __init__(self, series, sigma1=None, sigma2=None):
        self.series = series
        r, c = series.shape
        self.sigma1 = QMatrix.eye(c) if sigma1 is None else as_qmatrix(sigma1)
        self.sigma2 = QMatrix.eye(r) if sigma2 is None else as_qmatrix(sigma2)
        if self.sigma1.shape != (c, c):
            raise ShapeError("sigma1 must match the input dimension %d" % c)
        if self.sigma2.shape != (r, r):
            raise ShapeError("sigma2 must match the output dimension %d" % r)

    def coeff(self, n, m):
        """The block a_{n,m}, cut from the section A_max(n,m)."""
        r = self.series.rows
        return self.block_matrix(max(n, m))[n * r:(n + 1) * r, m * r:(m + 1) * r]

    def _terms(self, mu):
        """The two terms I (x) sigma2 and L (I (x) sigma1) L* of A_mu."""
        S = self.series
        # L(S sigma1) = L(S) (I (x) sigma1), and L of a constant is I (x) it
        diag = lower_toeplitz(SliceSeries.constant(self.sigma2, 0), mu)
        return diag, lower_toeplitz(S * self.sigma1, mu) @ lower_toeplitz(S, mu).adjoint()

    def block_matrix(self, mu):
        """The Hermitian section A_mu = [a_{n,m}]_{n,m=0..mu}."""
        diag, prod = self._terms(mu)
        return diag - prod

    def value(self, p, q, degree):
        """Truncated kernel value sum_{n,m<=degree} p^n a_{n,m} conj(q)^m, as
        one product with the section A_degree (see _section_value)."""
        return _section_value(self.block_matrix(degree), p, q, degree)


def _powers(p, degree):
    """Components (a, b) of p^0 .. p^degree in the a + b*j split.

    On the slice of p = x0 + v, with z = x0 + i|v|, p^n = Re z^n + Im z^n v/|v|;
    for real p every Im z^n is zero.
    """
    p = Quaternion._coerce(p)
    s = math.hypot(p.x1, p.x2, p.x3)
    z = np.full(degree + 1, complex(p.x0, s))
    z[0] = 1.0
    np.cumprod(z, out=z)
    u1, u2, u3 = (p.x1 / s, p.x2 / s, p.x3 / s) if s else (0.0, 0.0, 0.0)
    return z.real + 1j * u1 * z.imag, complex(u2, u3) * z.imag


def _section_value(A, p, q, degree):
    """sum_{n,m<=degree} p^n a_{n,m} conj(q)^m for the section A = A_degree,
    as the product [p^n I_r]_n A [conj(q)^m I_r]_m of a block row, A and a
    block column, so one section serves every point pair."""
    r = A.rows // (degree + 1)
    I = np.eye(r)
    pa, pb = _powers(p, degree)
    qa, qb = _powers(Quaternion._coerce(q).conj(), degree)
    row = QMatrix(*((I[:, None, :] * x[:, None]).reshape(r, -1) for x in (pa, pb)), copy=False)
    col = QMatrix(*((x[:, None, None] * I).reshape(-1, r) for x in (qa, qb)), copy=False)
    return row @ A @ col


_WINDOW = 3  # sections that must agree for a stabilized count


@dataclass
class NegSquares:
    """Negative-square counts of the kernel sections A_0 .. A_{mu_max}."""

    counts: list
    kappa: int
    stabilized: bool
    window: int = _WINDOW
    tols: list = field(default_factory=list)

    def table(self):
        return [(mu, c) for mu, c in enumerate(self.counts)]


def _leading_norms(M, ends):
    """Frobenius norms of the leading blocks M[:k, :k], k in ends."""
    sq = np.cumsum(np.cumsum((M.to_components() ** 2).sum(axis=-1), axis=0), axis=1)
    return np.sqrt(sq[ends - 1, ends - 1])


def _interleaved_chi(M):
    """chi(M) with the 2 x 2 block [[a, b], [-conj(b), conj(a)]] of every entry
    a + b*j kept together, so that its leading 2k x 2k block is chi(M[:k, :k])
    up to a permutation similarity."""
    r, c = M.shape
    X = np.empty((r, 2, c, 2), dtype=complex)
    X[:, 0, :, 0] = M._a
    X[:, 0, :, 1] = M._b
    X[:, 1, :, 0] = -M._b.conj()
    X[:, 1, :, 1] = M._a.conj()
    return X.reshape(2 * r, 2 * c)


def neg_squares(S, sigma1=None, sigma2=None, mu_max=12, tol=None):
    """Count negative squares by sweeping kernel sections.

    Parameters
    ----------
    S : SliceSeries
    sigma1, sigma2 : QMatrix signatures (identity when omitted)
    mu_max : last section index to inspect
    tol : float, optional
        Eigenvalue zero-threshold, a finite number >= 0.  The default, per
        section A_mu of complex dimension N, is 1e-8 * max|eigenvalue|, but
        at least the rounding level
        N * eps * (||I (x) sigma2|| + ||L (I (x) sigma1) L*||) (Frobenius
        norms of the section's two terms), so that a section that cancels to
        rounding noise counts no negative squares.

    Returns NegSquares.  The count is declared stabilized when the last 3
    sections (NegSquares.window) agree and equal the maximum.  Raises
    InvalidSpecError unless mu_max is an integer >= 0 and tol is None or a
    finite number >= 0.
    """
    _check_count("mu_max", mu_max, 0)
    if tol is not None:
        _check_tol("tol", tol, relative=False)
    if mu_max + 1 > S.degree + 1:
        mu_max = S.degree
    diag, prod = KernelCoeffs(S, sigma1, sigma2)._terms(mu_max)
    A = diag - prod
    X = _interleaved_chi(A)
    if not np.all(np.isfinite(X)):
        raise NonFiniteInputError("kernel section has a NaN or infinite entry")
    if A.herm_defect() > 1e-10 * (1.0 + A.norm()):
        raise NotHermitianError("kernel section is not Hermitian (defect %g)" % A.herm_defect())
    ends = (np.arange(mu_max + 1) + 1) * S.rows
    noise = 2 * ends * np.finfo(float).eps * (_leading_norms(diag, ends) + _leading_norms(prod, ends))
    counts, tols = [], []
    for mu, k in enumerate(ends):
        # sorted chi eigenvalues come in duplicate pairs, one per quaternionic eigenvalue
        w = np.linalg.eigvalsh(X[:2 * k, :2 * k])
        lam = (w[0::2] + w[1::2]) / 2
        t = tol if tol is not None else max(1e-8 * float(max(-lam[0], lam[-1])), float(noise[mu]))
        counts.append(int(np.sum(lam < -t)))
        tols.append(t)
    kappa = max(counts) if counts else 0
    tail = counts[-_WINDOW:]
    stabilized = len(counts) >= _WINDOW and all(c == kappa for c in tail)
    return NegSquares(counts, kappa, stabilized, _WINDOW, tols)
