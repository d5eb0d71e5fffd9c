"""Quaternionic linear algebra in plain numpy, kept apart from qschur.

A quaternionic matrix M = a + b*j is held as the pair (a, b) of complex
arrays, the same split qschur documents; its complex adjoint is

    chi(M) = [[a, b], [-conj(b), conj(a)]].

The benchmark builds its inputs and its reference answers with these
helpers only, so that no check reuses the code it is checking.
"""

from __future__ import annotations

import numpy as np


def chi(a, b):
    return np.block([[a, b], [-np.conj(b), np.conj(a)]])


def unchi(x):
    """Inverse of chi on (numerically) structured matrices."""
    r, c = x.shape[0] // 2, x.shape[1] // 2
    a = 0.5 * (x[:r, :c] + np.conj(x[r:, c:]))
    b = 0.5 * (x[:r, c:] - np.conj(x[r:, :c]))
    return a, b


def from_dict(d):
    """(a, b) from the JSON matrix format {"rows", "cols", "entries"}."""
    comp = np.asarray(d["entries"], dtype=float).reshape(int(d["rows"]), int(d["cols"]), 4)
    return comp[..., 0] + 1j * comp[..., 1], comp[..., 2] + 1j * comp[..., 3]


def to_dict(a, b):
    comp = np.stack([a.real, a.imag, b.real, b.imag], axis=-1).reshape(-1, 4)
    return {"rows": a.shape[0], "cols": a.shape[1],
            "entries": [[float(v) for v in row] for row in comp]}


def chi_of_dict(d):
    return chi(*from_dict(d))


def qnorm(x):
    """Frobenius norm of a quaternionic matrix given by its chi."""
    return float(np.linalg.norm(x)) / np.sqrt(2.0)


def random_quaternion(gen, modulus):
    v = gen.normal(size=4)
    return modulus * v / np.linalg.norm(v)


def point_on_sphere(gen, modulus, angle):
    """A quaternion of the given modulus whose sphere makes `angle` with the
    positive real axis, with a random imaginary direction."""
    v = gen.normal(size=3)
    v /= np.linalg.norm(v)
    return np.concatenate([[modulus * np.cos(angle)], modulus * np.sin(angle) * v])


def random_matrix(gen, rows, cols):
    comp = gen.normal(size=(rows, cols, 4))
    return comp[..., 0] + 1j * comp[..., 1], comp[..., 2] + 1j * comp[..., 3]


def random_unitary(gen, n):
    """chi of a random quaternionic unitary: exp of a skew-Hermitian matrix."""
    g = chi(*random_matrix(gen, n, n))
    w, v = np.linalg.eigh(-0.5j * (g - g.conj().T))
    u = (v * np.exp(1j * w)) @ v.conj().T
    return chi(*unchi(u))


def with_spectrum(gen, points):
    """(a, b) of U diag(points) U* for a random unitary U.

    Its right eigenvalue spheres are exactly those of the given points,
    each of multiplicity one.
    """
    pts = np.asarray(points, dtype=float)
    d = chi(np.diag(pts[:, 0] + 1j * pts[:, 1]), np.diag(pts[:, 2] + 1j * pts[:, 3]))
    u = random_unitary(gen, len(pts))
    return unchi(u @ d @ u.conj().T)


def inertia(h, rel_tol=1e-8):
    """(positives, negatives, zeros) of a Hermitian quaternionic matrix from
    the eigenvalues of its chi, each quaternionic eigenvalue counted once."""
    w = np.linalg.eigvalsh(0.5 * (h + h.conj().T))
    tol = rel_tol * (float(np.max(np.abs(w))) if w.size else 0.0)
    pos = int(np.sum(w > tol))
    neg = int(np.sum(w < -tol))
    return pos // 2, neg // 2, (w.size - pos - neg) // 2
