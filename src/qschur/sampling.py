"""Seeded random generators for quaternionic test data."""

from __future__ import annotations

import numpy as np

from .quat import Quaternion, UnitImaginary
from .qmatrix import QMatrix, gram_schmidt_columns
from .series import SliceSeries


def rng(seed=0):
    return np.random.default_rng(seed)


def random_quaternion(gen, scale=1.0):
    w, x, y, z = gen.normal(size=4) * scale
    return Quaternion(w, x, y, z)


def random_unit_imaginary(gen):
    v = gen.normal(size=3)
    n = np.linalg.norm(v)
    while n < 1e-8:
        v = gen.normal(size=3)
        n = np.linalg.norm(v)
    v = v / n
    return UnitImaginary(v[0], v[1], v[2])


def ball_point(gen, radius=1.0):
    """Random quaternion of modulus strictly below radius."""
    q = random_quaternion(gen)
    m = abs(q)
    while m < 1e-8:
        q = random_quaternion(gen)
        m = abs(q)
    r = radius * gen.uniform(0.05, 0.95)
    return q * (r / m)


def random_qmatrix(gen, rows, cols=None, scale=1.0):
    cols = rows if cols is None else cols
    comp = gen.normal(size=(rows, cols, 4)) * scale
    return QMatrix.from_components(comp[..., 0], comp[..., 1], comp[..., 2], comp[..., 3])


def random_hermitian(gen, n, scale=1.0):
    M = random_qmatrix(gen, n, n, scale)
    return (M + M.adjoint()) * 0.5


def random_unitary(gen, n):
    Q, rank = gram_schmidt_columns(random_qmatrix(gen, n, n))
    while rank < n:  # essentially never
        Q, rank = gram_schmidt_columns(random_qmatrix(gen, n, n))
    return Q


def matrix_with_spectrum(gen, points):
    """Random matrix whose right eigenvalue spheres are those of the given points.

    Conjugates diag(points) by a random unitary, so the spheres and their
    multiplicities are exact by construction.
    """
    n = len(points)
    U = random_unitary(gen, n)
    return U @ QMatrix.diag(points) @ U.adjoint()


def random_scalar_series(gen, degree, scale=1.0, floor=0.3):
    """Random scalar series whose constant term has modulus at least floor."""
    coeffs = [random_quaternion(gen, scale) for _ in range(degree + 1)]
    while abs(coeffs[0]) < floor:
        coeffs[0] = random_quaternion(gen, scale)
    return SliceSeries.polynomial([QMatrix.scalar(c) for c in coeffs])
