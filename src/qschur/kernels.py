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

from dataclasses import dataclass, field

import numpy as np

from .errors import NotHermitianError, ShapeError
from .quat import Quaternion
from .qmatrix import QMatrix, as_qmatrix
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

    def block_matrix(self, mu):
        """The Hermitian section A_mu = [a_{n,m}]_{n,m=0..mu}."""
        S = self.series
        # L(S sigma1) = L(S) (I (x) sigma1), and L of a constant is I (x) it
        diag = lower_toeplitz(SliceSeries.constant(self.sigma2, 0), mu)
        return diag - lower_toeplitz(S * self.sigma1, mu) @ lower_toeplitz(S, mu).adjoint()

    def hermitian_defect(self, mu):
        return self.block_matrix(mu).herm_defect()

    def value(self, p, q, degree):
        """Truncated kernel value sum_{n,m<=degree} p^n a_{n,m} conj(q)^m, by
        Horner sweeps over A_degree: block rows with p, then block columns with conj(q)."""
        qc = Quaternion._coerce(q).conj()
        r = self.series.rows
        A = self.block_matrix(degree)
        row = A[degree * r:, :]
        for n in range(degree - 1, -1, -1):
            row = A[n * r:(n + 1) * r, :] + p * row
        acc = row[:, degree * r:]
        for m in range(degree - 1, -1, -1):
            acc = row[:, m * r:(m + 1) * r] + acc * qc
        return acc


def schur_kernel_coeffs(S, sigma1=None, sigma2=None):
    return KernelCoeffs(S, sigma1, sigma2)


@dataclass
class NegSquares:
    """Negative-square counts of the kernel sections A_0 .. A_{mu_max}."""

    counts: list
    kappa: int
    stabilized: bool
    window: int = 3
    tols: list = field(default_factory=list)

    def table(self):
        return [(mu, c) for mu, c in enumerate(self.counts)]


def neg_squares(S, sigma1=None, sigma2=None, mu_max=12, tol=None, window=3):
    """Count negative squares by sweeping kernel sections.

    Parameters
    ----------
    S : SliceSeries
    sigma1, sigma2 : QMatrix signatures (identity when omitted)
    mu_max : last section index to inspect
    tol : float, optional
        Eigenvalue zero-threshold; default 1e-8 * max|eigenvalue| per block.
    window : int
        The count is declared stabilized when the last `window` sections
        agree and equal the maximum.

    Returns NegSquares.
    """
    if mu_max + 1 > S.degree + 1:
        mu_max = S.degree
    A = KernelCoeffs(S, sigma1, sigma2).block_matrix(max(mu_max, 0))
    if A.herm_defect() > 1e-10 * (1.0 + A.norm()):
        raise NotHermitianError("kernel section is not Hermitian (defect %g)" % A.herm_defect())
    r = S.rows
    counts, tols = [], []
    for mu in range(mu_max + 1):
        # chi eigenvalues come in duplicate pairs, one per quaternionic eigenvalue
        w = np.linalg.eigvalsh(A[:(mu + 1) * r, :(mu + 1) * r].complex_adjoint())
        lam = w.reshape(-1, 2).mean(axis=1)
        t = tol if tol is not None else 1e-8 * float(np.max(np.abs(lam)))
        counts.append(int(np.sum(lam < -t)))
        tols.append(t)
    kappa = max(counts) if counts else 0
    tail = counts[-window:]
    stabilized = len(counts) >= window and all(c == kappa for c in tail)
    return NegSquares(counts, kappa, stabilized, window, tols)
