"""Settings and helpers shared by the test modules."""

import numpy as np
from hypothesis import settings

from qschur import QMatrix, inverse
from qschur.sampling import random_unitary

# Property tests draw the same 25 examples on every run, with no per-example
# deadline: some examples run a 256-node quadrature reference.
PROPERTY = settings(derandomize=True, max_examples=25, deadline=None)


def jordan_matrix(gen, blocks, cond=1.0):
    """S J S^{-1} for J the direct sum of Jordan blocks (eigenvalue, size).

    The eigenvalues are quaternions on the diagonal of J, with ones on the
    superdiagonal inside each block.  S is a random unitary for cond = 1;
    otherwise S = U diag(1 .. cond) V with random unitaries U and V, whose
    condition number is cond.
    """
    n = sum(size for _, size in blocks)
    sup = np.zeros((n, n))
    i = 0
    for _, size in blocks:
        sup[np.arange(i, i + size - 1), np.arange(i + 1, i + size)] = 1.0
        i += size
    J = QMatrix.diag([lam for lam, size in blocks for _ in range(size)]) + QMatrix.from_real(sup)
    S = random_unitary(gen, n)
    if cond == 1.0:
        return S @ J @ S.adjoint()
    S = S @ QMatrix.diag(np.linspace(1.0, cond, n).tolist()) @ random_unitary(gen, n)
    return S @ J @ inverse(S)
