"""S-resolvents of quaternionic matrices and contour-based Riesz projectors.

For a square quaternionic T and a quaternion s outside the right spectral
spheres, the characteristic operator

    Q_s(T) = T^2 - 2 Re(s) T + |s|^2 I

is invertible, and the two resolvents are

    left:   -Q_s(T)^{-1} (T - conj(s) I)
    right:  -(T - conj(s) I) Q_s(T)^{-1}.

Projectors onto the spectral part enclosed by a circle with *real* center
(so that whole spheres are either inside or outside) are computed with the
periodic trapezoid rule, exponentially convergent for these analytic
integrands.  Nodes s_k = c + r exp(I th_k) and s_{N-k} are conjugate and share
Q_k = Q_{s_k}(T); their two terms sum to 2 Q_k^{-1} (alpha_k I - beta_k T)
with real alpha_k, beta_k, so the slice I drops out of the N-node rule.

The rule runs on one complex Schur form chi(T) = U R U*.  Every Q_k(R) is
upper triangular, so the sum is U (S_alpha - S_beta R) U* with
S_alpha = sum_k w_k alpha_k Q_k(R)^{-1} and S_beta likewise: N/2 + 1
triangular inversions.  The right spectrum of T is its point S-spectrum, the
eigenvalues of chi(T), so the eigen-spheres are read off diag(R) too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import schur
from scipy.linalg.lapack import ztrtri

from .errors import (
    ContourOnSpectrumError,
    InvalidSpecError,
    OnSpectrumError,
    RankDeficiencyError,
    ShapeError,
    SingularMatrixError,
)
from .quat import I_DEFAULT, Quaternion
from .qmatrix import (
    QMatrix,
    _eigen_spheres,
    as_qmatrix,
    char_operator,
    from_complex_adjoint,
    range_basis,
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
    """Left S-resolvent at s; raises OnSpectrumError if Q_s(T) is singular."""
    return _s_resolvent(solve, s, T, rtol)


def s_resolvent_right(s, T, rtol=1e-12):
    """Right S-resolvent at s."""
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

    nodes must be even and at least 16; the default is plenty for spectra
    separated from the contour by a modest margin.
    """

    center: float
    radius: float
    nodes: int = 256

    def __post_init__(self):
        if not (self.radius > 0):
            raise InvalidSpecError("contour radius must be positive")
        if self.nodes < 16 or self.nodes % 2:
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

    def encloses(self, sphere, band=0.0):
        return self.offset(sphere) < -band


def _schur(T):
    """(R, U, spheres): the complex Schur form chi(T) = U R U* and the
    eigen-spheres of T, with multiplicities, read off diag(R)."""
    T = as_qmatrix(T)
    if not T.is_square():
        raise ShapeError("spectrum of a non-square matrix")
    R, U = schur(T.complex_adjoint(), output="complex")
    spheres = [(sphere, mult) for sphere, mult, _ in _eigen_spheres(np.diag(R), 1e-8)]
    return R, U, spheres


def _contour_sum(R, U, spheres, spec, power):
    """(r/N) sum_k S_L^{-1}(s_k, T) e_k s_k^power on the Schur form of chi(T),
    nodes paired as in the module docstring (0 and N/2 are real); the spheres
    of T must clear the contour."""
    band = 1e-6 * spec.radius
    for sphere, _ in spheres:
        if abs(spec.offset(sphere)) <= band:
            raise ContourOnSpectrumError(
                "contour passes within %g of the spectral sphere %s" % (band, sphere))
    if R.size == 0:  # LAPACK rejects an empty triangular inversion
        return QMatrix.zeros(0)
    # Fortran order, so that Q_k(R) reaches LAPACK without a copy
    R2, diag = np.asfortranarray(R @ R), np.diag_indices(len(R))
    s_alpha, s_beta = np.zeros_like(R), np.zeros_like(R)
    c, r, nodes = spec.center, spec.radius, spec.nodes
    for k in range(nodes // 2 + 1):
        th = 2.0 * math.pi * k / nodes
        cos = math.cos(th)
        mod2 = c * c + 2.0 * c * r * cos + r * r
        if power == 0:
            alpha, beta = c * cos + r, cos
        else:
            alpha, beta = mod2 * cos, c * cos + r * math.cos(2.0 * th)
        weight = 1.0 if k in (0, nodes // 2) else 2.0
        Q = R2 - (2.0 * (c + r * cos)) * R  # Q_k(R), upper triangular
        Q[diag] += mod2
        Q_inv, info = ztrtri(Q, overwrite_c=1)
        if info > 0:
            raise ContourOnSpectrumError(
                "contour node %d lies on the spectrum (Q_k(R) singular)" % k)
        s_alpha += (weight * alpha) * Q_inv
        s_beta += (weight * beta) * Q_inv
    acc = U @ (s_alpha - s_beta @ R) @ U.conj().T
    return from_complex_adjoint(acc * (r / nodes))


def riesz_projector(T, spec, unit=None):
    """Projector P onto the spectral part of square T inside the contour spec.

    P^2 = P and PT = TP up to quadrature error.  One complex Schur form of
    chi(T) gives both the eigen-spheres (from its diagonal) and the N/2 + 1
    triangular inversions of the pair-summed rule.  unit, the slice of the
    nodes, has no effect: the pair-summed rule is the same in every slice.
    Raises ShapeError for non-square T and ContourOnSpectrumError if a
    spectral sphere sits on the contour.
    """
    return _contour_sum(*_schur(T), spec, 0)


def riesz_s_part(T, spec, unit=None):
    """Contour integral of the resolvent against f(s) = s.

    Equals T @ P for the projector P of the same contour, once the
    quadrature has converged; an independent consistency check.  unit has
    no effect, as in riesz_projector.
    """
    return _contour_sum(*_schur(T), spec, 1)


@dataclass
class SpectralSplit:
    """Invariant-subspace data extracted from a Riesz projector."""

    projector: QMatrix
    basis: QMatrix          # orthonormal columns spanning ran(P)
    rank: int
    restriction: QMatrix    # basis* T basis, the enclosed part of T
    inside: list = field(default_factory=list)   # (Sphere, mult) inside
    outside: list = field(default_factory=list)  # (Sphere, mult) outside


def spectral_split(T, spec, unit=None, rank_threshold=1e-7):
    """Split T along the contour: projector, range basis and restriction.

    The rank of the projector is decided on the singular values of its
    complex adjoint with the absolute threshold rank_threshold; quadrature
    noise sits orders of magnitude below it for reasonable contours.  unit
    has no effect, as in riesz_projector.

    Raises
    ------
    RankDeficiencyError
        If a clean basis of ran(P) cannot be extracted at that rank.
    """
    T = as_qmatrix(T)
    R, U, spheres = _schur(T)
    P = _contour_sum(R, U, spheres, spec, 0)
    basis, rank = range_basis(P, rank_threshold)
    if basis.cols != rank:
        raise RankDeficiencyError(
            "projector range extraction got %d of %d directions"
            % (basis.cols, rank))
    restriction = basis.adjoint() @ T @ basis
    inside, outside = [], []
    for sphere, mult in spheres:
        (inside if spec.encloses(sphere) else outside).append((sphere, mult))
    return SpectralSplit(P, basis, rank, restriction, inside, outside)
