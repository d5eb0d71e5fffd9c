"""S-resolvents of quaternionic matrices and contour-based Riesz projectors.

For a square quaternionic T and a quaternion s outside the right spectral
spheres, the characteristic operator

    Q_s(T) = T^2 - 2 Re(s) T + |s|^2 I

is invertible, and the two resolvents are

    left:   -Q_s(T)^{-1} (T - conj(s) I)
    right:  -(T - conj(s) I) Q_s(T)^{-1}.

The Riesz projector of the spectral part enclosed by a circle with *real*
center (so that whole spheres are either inside or outside) is the contour
integral of the S-resolvent.  The right spectrum of T is its point
S-spectrum, the eigenvalues of chi(T), so that integral is the spectral
projector of chi(T) for the eigenvalues inside the circle, and one complex
Schur form gives it exactly.  Reorder chi(T) = U R U* so that the k
eigenvalues inside come first, R = [[R11, R12], [0, R22]]; then

    P = U [[I, Y], [0, 0]] U*,   R11 Y - Y R22 = R12,

one triangular Sylvester equation (Stewart and Sun, Matrix Perturbation
Theory, 1990, ch. V).  ||P||_2 <= sqrt(1 + ||Y||_F^2) = 1/s, for s the
reciprocal condition number of the enclosed eigenvalue cluster that LAPACK's
xTRSEN reports (Bai, Demmel and McKenney, ACM TOMS 19, 1993); a large norm
means the two sides of the contour are nearly dependent, and the projector is
refused.  The leading Schur vectors span the enclosed invariant subspace, so
its dimension and basis need no rank decision on P either.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import ztrsen, ztrsyl

from .errors import (
    ContourOnSpectrumError,
    InvalidSpecError,
    OnSpectrumError,
    SingularMatrixError,
)
from .quat import I_DEFAULT, Quaternion
from .qmatrix import (
    QMatrix,
    _check_count,
    _leading_basis,
    _schur_spheres,
    as_qmatrix,
    char_operator,
    from_complex_adjoint,
    solve,
    solve_right,
)


def _s_resolvent(solver, s, T, rtol):
    T = as_qmatrix(T)
    try:
        return solver(char_operator(T, s), -(T - s.conj() * QMatrix.eye(T.rows)), rtol)
    except SingularMatrixError as exc:
        raise OnSpectrumError("s = %s lies on a spectral sphere of T" % (s,)) from exc


def s_resolvent_left(s, T, rtol=1e-12):
    """Left S-resolvent at s; raises OnSpectrumError if Q_s(T) is singular at
    relative tolerance rtol (as in solve), and InvalidSpecError unless
    0 <= rtol < 1."""
    return _s_resolvent(solve, s, T, rtol)


def s_resolvent_right(s, T, rtol=1e-12):
    """Right S-resolvent at s, with the errors of s_resolvent_left."""
    return _s_resolvent(solve_right, s, T, rtol)


def resolvent_eq_residuals(s, T):
    """Frobenius residuals of the two defining resolvent equations.

    left :  S_L(s,T) s - T S_L(s,T) = I      (s acting as a right scalar)
    right:  s S_R(s,T) - S_R(s,T) T = I
    """
    T = as_qmatrix(T)
    I_n = QMatrix.eye(T.rows)
    SL = s_resolvent_left(s, T)
    SR = s_resolvent_right(s, T)
    left = (SL * s - T @ SL - I_n).norm()
    right = (s * SR - SR @ T - I_n).norm()
    return left, right


@dataclass(frozen=True)
class ContourSpec:
    """Circle with a real center traversed in a single slice plane.

    center and radius must be finite, radius positive, and nodes an even
    integer of at least 16.  The projectors are exact, so nodes sets only the
    grid of points(), the N-node trapezoid rule that serves as the slow
    node-by-node reference.
    """

    center: float
    radius: float
    nodes: int = 256

    def __post_init__(self):
        if not math.isfinite(self.center):
            raise InvalidSpecError("contour center must be finite, got %r" % self.center)
        if not (math.isfinite(self.radius) and self.radius > 0):
            raise InvalidSpecError("contour radius must be finite and positive, got %r"
                                   % self.radius)
        _check_count("nodes", self.nodes, 16)
        if self.nodes % 2:
            raise InvalidSpecError("contour nodes must be even and >= 16")

    def points(self, unit=None):
        """Quaternionic nodes center + radius * exp(unit * theta_k)."""
        unit = (unit or I_DEFAULT).as_quaternion()
        out = []
        for k in range(self.nodes):
            th = 2.0 * math.pi * k / self.nodes
            e = Quaternion(math.cos(th)) + unit * math.sin(th)
            out.append((Quaternion(self.center) + e * self.radius, e))
        return out

    def offset(self, sphere):
        """Distance from the center to the sphere's slice points, minus the radius."""
        return math.hypot(sphere.re - self.center, sphere.im_mag) - self.radius

    def encloses(self, sphere):
        return self.offset(sphere) < 0


# Largest accepted projector norm bound sqrt(1 + ||Y||_F^2).  Projectors of
# well separated spectra stay within a few hundred; one whose sides were split
# from a single defective sphere by rounding exceeds 1e10.
_PROJECTOR_NORM_MAX = 1e6


def _contour_sum(R, U, spheres, spec):
    """(R, U, F, k, norm): the Schur form chi(T) = U R U* reordered so that
    the k eigenvalues inside the contour come first, F = [[I, Y], [0, 0]] the
    projector in that basis (module docstring) and norm = sqrt(1 + ||Y||_F^2),
    a bound on ||F||_2.

    The spheres of T and the eigenvalues in diag(R) must clear the contour,
    and the eigenvalues must fall on the side of their sphere, so that k is
    twice the enclosed multiplicity and the split of diag(R) is the split of
    the spheres; rounding spreads the eigenvalues of a defective sphere, which
    may then straddle a contour that the sphere clears.  Raises
    ContourOnSpectrumError otherwise, and when norm exceeds
    _PROJECTOR_NORM_MAX.
    """
    band = 1e-6 * spec.radius
    enclosed = 0
    for sphere, mult in spheres:
        offset = spec.offset(sphere)
        if abs(offset) <= band:
            raise ContourOnSpectrumError(
                "contour passes within %g of the spectral sphere %s" % (band, sphere))
        enclosed += mult if offset < 0 else 0
    dist = np.abs(np.diag(R) - spec.center)
    if np.any(np.abs(dist - spec.radius) <= band):
        raise ContourOnSpectrumError("an eigenvalue of T lies within %g of the contour" % band)
    inside = dist < spec.radius
    k = int(np.count_nonzero(inside))
    if k != 2 * enclosed:
        raise ContourOnSpectrumError(
            "the eigenvalues of a spectral sphere straddle the contour")
    if not inside[:k].all():  # swaps of 1x1 blocks, which cannot fail
        R, U = ztrsen(inside.astype(np.int32), R, U, job="N")[:2]
    F = np.zeros_like(R)
    F[:k, :k] = np.eye(k)
    norm = 1.0
    # LAPACK rejects empty triangular matrices: Y exists only if both sides do
    if 0 < k < len(R):
        Y, scale, _ = ztrsyl(R[:k, :k], R[k:, k:], R[:k, k:], isgn=-1)
        F[:k, k:] = Y / scale
        norm = math.sqrt(1.0 + np.linalg.norm(F[:k, k:]) ** 2)
        if not norm <= _PROJECTOR_NORM_MAX:
            raise ContourOnSpectrumError(
                "the enclosed spectrum is ill separated from the rest: projector norm "
                "bound %.3g exceeds %g" % (norm, _PROJECTOR_NORM_MAX))
    return R, U, F, k, norm


def riesz_projector(T, spec):
    """Riesz projector P of square T onto its spectral part inside the
    contour spec.

    P is exact, U [[I, Y], [0, 0]] U* on one reordered complex Schur form of
    chi(T) (module docstring), so P^2 = P and PT = TP hold to rounding
    relative to ||P||.  The projector is the same in every slice, so no slice
    is asked for.  Raises ShapeError for non-square T, NonFiniteInputError
    for NaN or inf entries, and ContourOnSpectrumError if a spectral sphere,
    or one of its eigenvalues, sits on the contour, or if the projector norm
    bound sqrt(1 + ||Y||_F^2) exceeds 1e6: the enclosed spectrum is then too
    close to the rest for P to be trusted.
    """
    R, U, F, _, _ = _contour_sum(*_schur_spheres(T), spec)
    return from_complex_adjoint(U @ F @ U.conj().T)


def riesz_s_part(T, spec):
    """Contour integral of the S-resolvent against f(s) = s: T @ P for the
    projector P of riesz_projector, formed as chi(T) F on the same reordered
    Schur form, with the errors of riesz_projector."""
    R, U, F, _, _ = _contour_sum(*_schur_spheres(T), spec)
    return from_complex_adjoint(U @ (R @ F) @ U.conj().T)


@dataclass
class SpectralSplit:
    """Invariant-subspace data of T along a contour.

    basis spans the invariant subspace of the enclosed spectrum (the leading
    Schur vectors), rank is its dimension, and projector_norm certifies the
    projector: it bounds ||P||_2, and P^2 = P and PT = TP hold to rounding
    relative to it.
    """

    projector: QMatrix      # the Riesz projector onto the enclosed subspace
    basis: QMatrix          # orthonormal columns spanning the enclosed subspace
    rank: int               # its dimension, the enclosed multiplicity
    restriction: QMatrix    # basis* T basis, the enclosed part of T
    projector_norm: float   # sqrt(1 + ||Y||_F^2) >= ||P||_2, see spectral_split
    inside: list = field(default_factory=list)   # (Sphere, mult) inside
    outside: list = field(default_factory=list)  # (Sphere, mult) outside


def spectral_split(T, spec, unit=None):
    """Split T along the contour: projector, invariant-subspace basis and
    restriction.

    One reordered Schur form chi(T) = U R U* gives everything: the k
    eigenvalues of diag(R) inside the contour decide the spheres inside, the
    rank k / 2 and, through the leading k Schur vectors, the orthonormal
    basis of the enclosed invariant subspace; the projector is the exact one
    of riesz_projector on the same form.  projector_norm is sqrt(1 +
    ||Y||_F^2) for the Sylvester solution Y of the module docstring, the
    reciprocal of LAPACK's xTRSEN cluster condition s: 1 when one side is
    empty, and it grows as the enclosed spectrum nears the rest.  unit, the
    slice of the nodes, is accepted and ignored: the projector is the same in
    every slice.

    Raises
    ------
    ContourOnSpectrumError
        If a spectral sphere, or one of its eigenvalues, sits on the contour,
        or projector_norm exceeds 1e6.
    RankDeficiencyError
        If the leading Schur vectors do not give rank quaternionic directions.
    """
    T = as_qmatrix(T)
    R, U, spheres = _schur_spheres(T)
    R, U, F, k, norm = _contour_sum(R, U, spheres, spec)
    P = from_complex_adjoint(U @ F @ U.conj().T)
    basis = _leading_basis(U, k, T.rows)
    restriction = basis.adjoint() @ T @ basis
    inside, outside = [], []
    for sphere, mult in spheres:
        (inside if spec.encloses(sphere) else outside).append((sphere, mult))
    return SpectralSplit(P, basis, k // 2, restriction, norm, inside, outside)
