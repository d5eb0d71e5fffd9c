"""S-resolvents of quaternionic matrices and contour-based Riesz projectors.

For a square quaternionic T and a quaternion s outside the right spectral
spheres, the characteristic operator

    Q_s(T) = T^2 - 2 Re(s) T + |s|^2 I

is invertible, and the two resolvents are

    left:   -Q_s(T)^{-1} (T - conj(s) I)
    right:  -(T - conj(s) I) Q_s(T)^{-1}.

Projectors onto the spectral part enclosed by a circle with *real* center
(so that whole spheres are either inside or outside) are given by the
periodic trapezoid rule, exponentially convergent for these analytic
integrands.  Nodes s_k = c + r exp(I th_k) and s_{N-k} are conjugate and
share Q_{s_k}(T), so the N-node rule is a real-rational function of T and
the slice I drops out of it.

That function has a closed form.  With W = (chi(T) - cI)/r and
omega = exp(2 pi i/N), the identity sum_k 1/(1 - z omega^-k) = N/(1 - z^N)
gives

    (1/N) sum_k omega^k (omega^k I - W)^{-1} = (I - W^N)^{-1} =: P_N,

and the rule for f(s) = s is chi(T) P_N, for every N >= 2 (Trefethen and
Weideman, SIAM Rev. 56, 2014).  P_N is evaluated on one complex Schur form
chi(T) = U R U*, reordered so that the eigenvalues inside the circle come
first; on that block split W^N stays bounded in both diagonal blocks, and the
off-diagonal block solves one triangular Sylvester equation (the block
Parlett recurrence, Higham, Functions of Matrices, 2008, sec. 9.1).  Binary
powering makes the cost O(log N) triangular products.  The right spectrum of
T is its point S-spectrum, the eigenvalues of chi(T), so the eigen-spheres
are read off diag(R) too, and the leading Schur vectors of the reordered form
span the enclosed invariant subspace: its dimension and basis need no rank
decision on P.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import ztrsen, ztrsyl, ztrtri

from .errors import (
    ContourOnSpectrumError,
    InvalidSpecError,
    OnSpectrumError,
    SingularMatrixError,
)
from .quat import I_DEFAULT, Quaternion
from .qmatrix import (
    QMatrix,
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

    center and radius must be finite, radius positive, and nodes even and
    at least 16; the default is plenty for spectra separated from the
    contour by a modest margin.  nodes still selects the trapezoid rule, and
    so its error, which decays like rho^nodes for rho the largest of
    |lambda - c| / r over the eigenvalues lambda inside and r / |lambda - c|
    over those outside; but the rule is evaluated in closed form with
    O(log nodes) triangular products, so nodes no longer scales its cost.
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

    def encloses(self, sphere):
        return self.offset(sphere) < 0


def _power(M, N):
    """M^N for N >= 1 by binary powering: floor(log2 N) squarings and
    popcount(N) - 1 further products."""
    out = None
    while True:
        if N & 1:
            out = M if out is None else out @ M
        N >>= 1
        if not N:
            return out
        M = M @ M


def _inv_triangular(M, what):
    M_inv, info = ztrtri(M)
    if info > 0:
        raise ContourOnSpectrumError(
            "a contour node lies on the spectrum (%s singular)" % what)
    return M_inv


def _contour_sum(R, U, spheres, spec):
    """(R, U, F, k): the Schur form chi(T) = U R U* reordered so that the k
    eigenvalues inside the contour come first, and F = (I - W^N)^{-1} with
    W = (R - cI)/r, the N-node rule of the projector (module docstring).

    The spheres of T must clear the contour, and the eigenvalues in diag(R)
    must fall on the side of their sphere, so that k is twice the enclosed
    multiplicity and the split of diag(R) is the split of the spheres;
    rounding spreads the eigenvalues of a defective sphere, which may then
    straddle a contour that the sphere clears.  With the split W = [[W11,
    W12], [0, W22]], F11 = (I - W11^N)^{-1}, F22 = -V^N (I - V^N)^{-1} for
    V = W22^{-1}, and F12 solves W11 F12 - F12 W22 = F11 W12 - W12 F22, since
    F commutes with W.
    """
    band = 1e-6 * spec.radius
    enclosed = 0
    for sphere, mult in spheres:
        offset = spec.offset(sphere)
        if abs(offset) <= band:
            raise ContourOnSpectrumError(
                "contour passes within %g of the spectral sphere %s" % (band, sphere))
        enclosed += mult if offset < 0 else 0
    c, r, nodes = spec.center, spec.radius, spec.nodes
    inside = np.abs(np.diag(R) - c) < r
    k = int(np.count_nonzero(inside))
    if k != 2 * enclosed:
        raise ContourOnSpectrumError(
            "the eigenvalues of a spectral sphere straddle the contour")
    if not inside[:k].all():  # swaps of 1x1 blocks, which cannot fail
        R, U = ztrsen(inside.astype(np.int32), R, U, job="N")[:2]
    n = len(R)
    W = (R - c * np.eye(n)) / r
    F = np.zeros_like(W)
    # LAPACK rejects empty triangular matrices, so each block runs only if present
    if k:
        F[:k, :k] = _inv_triangular(np.eye(k) - _power(W[:k, :k], nodes), "I - W^N")
    if k < n:
        VN = _power(_inv_triangular(W[k:, k:], "W"), nodes)
        F[k:, k:] = -VN @ _inv_triangular(np.eye(n - k) - VN, "I - W^-N")
    if 0 < k < n:
        W12 = W[:k, k:]
        X, scale, _ = ztrsyl(W[:k, :k], W[k:, k:], F[:k, :k] @ W12 - W12 @ F[k:, k:], isgn=-1)
        F[:k, k:] = X / scale
    return R, U, F, k


def riesz_projector(T, spec):
    """Projector P onto the spectral part of square T inside the contour spec.

    P^2 = P and PT = TP up to quadrature error.  P is the closed form
    (I - W^N)^{-1} of the N-node rule (module docstring), evaluated on one
    reordered complex Schur form of chi(T) with O(log N) triangular products;
    the same Schur form gives the eigen-spheres.  The rule is the same in
    every slice of the nodes, so no slice is asked for.
    Raises ShapeError for non-square T, NonFiniteInputError for NaN or inf
    entries and ContourOnSpectrumError if a spectral sphere, or one of its
    eigenvalues, sits on the contour.
    """
    R, U, F, _ = _contour_sum(*_schur_spheres(T), spec)
    return from_complex_adjoint(U @ F @ U.conj().T)


def riesz_s_part(T, spec):
    """N-node contour rule of the resolvent against f(s) = s.

    In closed form it is T @ P for the projector P of the same rule, at
    every N: chi(T) (I - W^N)^{-1} on the reordered Schur form, at the cost
    of riesz_projector.
    """
    R, U, F, _ = _contour_sum(*_schur_spheres(T), spec)
    return from_complex_adjoint(U @ (R @ F) @ U.conj().T)


@dataclass
class SpectralSplit:
    """Invariant-subspace data of T along a contour.

    basis spans the exact invariant subspace of the enclosed spectrum (the
    leading Schur vectors), and rank is its dimension; only the projector
    carries quadrature error, which quadrature_error bounds for normal T.
    """

    projector: QMatrix      # the N-node rule P_N of the Riesz projector
    basis: QMatrix          # orthonormal columns spanning the enclosed subspace
    rank: int               # its dimension, the enclosed multiplicity
    restriction: QMatrix    # basis* T basis, the enclosed part of T
    quadrature_error: float  # rho^N / (1 - rho^N), see spectral_split
    inside: list = field(default_factory=list)   # (Sphere, mult) inside
    outside: list = field(default_factory=list)  # (Sphere, mult) outside


def spectral_split(T, spec, unit=None):
    """Split T along the contour: projector, invariant-subspace basis and
    restriction.

    One reordered Schur form chi(T) = U R U* gives everything: the k
    eigenvalues of diag(R) inside the contour decide the spheres inside, the
    rank k / 2 and, through the leading k Schur vectors, the orthonormal
    basis of the enclosed invariant subspace; the projector is the N-node
    rule of riesz_projector on the same form.  quadrature_error is
    rho^N / (1 - rho^N) for rho the largest of |lambda - c| / r over the
    eigenvalues inside and r / |lambda - c| over those outside; for normal T
    it bounds ||P_N - P||_2, the distance of the projector to the exact
    one.  It is reported, not enforced.  unit, the slice of the nodes, is
    accepted and ignored: the rule is the same in every slice.

    Raises
    ------
    ContourOnSpectrumError
        If a spectral sphere, or one of its eigenvalues, sits on the contour.
    RankDeficiencyError
        If the leading Schur vectors do not give rank quaternionic directions.
    """
    T = as_qmatrix(T)
    R, U, spheres = _schur_spheres(T)
    R, U, F, k = _contour_sum(R, U, spheres, spec)
    P = from_complex_adjoint(U @ F @ U.conj().T)
    basis = _leading_basis(U, k, T.rows)
    restriction = basis.adjoint() @ T @ basis
    d = np.abs(np.diag(R) - spec.center) / spec.radius
    rho_n = max(d[:k].max(initial=0.0), (1.0 / d[k:]).max(initial=0.0)) ** spec.nodes
    error = rho_n / (1.0 - rho_n) if rho_n < 1.0 else math.inf
    inside, outside = [], []
    for sphere, mult in spheres:
        (inside if spec.encloses(sphere) else outside).append((sphere, mult))
    return SpectralSplit(P, basis, k // 2, restriction, float(error), inside, outside)
