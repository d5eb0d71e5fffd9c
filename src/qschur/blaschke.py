"""Blaschke factors on the quaternionic unit ball, as state-space realizations.

Each factor is a realization S(p) = D + p C * (I - pA)^{-*} * B (realization.py).
The point factor with zero a, |a| < 1,

    B_a = (1 - p conj(a))^{-*} * (a - p) * conj(a)/|a|,

has one state, (A, B, C, D) = (conj(a), conj(a)(|a|^2 - 1)/|a|, 1, |a|), so its
coefficients are c_0 = |a| and c_n = conj(a)^{n-1} (|a|^2 - 1) conj(a)/|a|, and
a degree-d cut errs by at most (1 + |a|) |a|^d on the closed ball.  B_0 = p.
Its star reciprocal is blaschke_reciprocal_realization.

The sphere factor B_[a] = B_a * B_conj(a) = (p^2 - 2 Re(a) p + |a|^2) *
(1 - 2 Re(a) p + |a|^2 p^2)^{-*} has real coefficients and vanishes on the whole
sphere [a].  A product is the cascade of its factors; it vanishes at a prescribed
z only if the next factor's parameter is conjugated by the value lambda of the
partial product there (a -> lambda^{-1} a lambda).

Series come from one power sweep (realization_series) and values from the
closed form of realization_eval, which raises on a pole sphere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import (
    DegenerateChoiceError,
    InvalidModulusError,
    NonFiniteInputError,
    OnPoleSphereError,
    SingularMatrixError,
)
from .quat import Quaternion, Sphere, sphere_of
from .qmatrix import QMatrix, _check_count
from .realization import (
    Realization,
    blaschke_reciprocal_realization,
    cascade,
    realization_eval,
    realization_series,
)
from .series import SliceSeries

DEFAULT_DEGREE = 48

# The constant 1, with no state: the empty product.
_ONE = Realization(QMatrix.zeros(0, 0), QMatrix.zeros(0, 1), QMatrix.zeros(1, 0), QMatrix.eye(1))


def _as_quat(a):
    return a if isinstance(a, Quaternion) else Quaternion._coerce(a)


def _parameter(a):
    """a as a Quaternion, checked to be finite and inside the unit ball."""
    a = _as_quat(a)
    if not all(math.isfinite(x) for x in a.to_list()):
        raise NonFiniteInputError("Blaschke parameter must be finite, got %r" % (a,))
    if abs(a) >= 1.0:
        raise InvalidModulusError("Blaschke parameter needs |a| < 1, got %g" % abs(a))
    return a


def _point_realization(a):
    """(A, B, C, D) = (conj(a), conj(a)(|a|^2 - 1)/|a|, 1, |a|); (0, 1, 1, 0) for a = 0."""
    a = _parameter(a)
    m = abs(a)
    u = a.conj() * (1.0 / m) if m else Quaternion(-1.0)
    return Realization(QMatrix.scalar(a.conj()), QMatrix.scalar(u * (m * m - 1.0)),
                       QMatrix.eye(1), QMatrix.scalar(Quaternion(m)))


def _sphere_realization(sphere):
    """B_a * B_conj(a) for a representative a of the sphere."""
    if isinstance(sphere, Quaternion):
        sphere = sphere_of(sphere)
    a = sphere.representative()
    return cascade(_point_realization(a), _point_realization(a.conj()))


def _value(R, p):
    try:
        return realization_eval(R, p).item()
    except SingularMatrixError as exc:
        raise OnPoleSphereError("point %s lies on a pole sphere" % (p,)) from exc


def tail_bound(a, degree):
    """Bound for the dropped tail of a degree-truncated point factor on |p| <= 1."""
    m = abs(_as_quat(a)) if not isinstance(a, (int, float)) else abs(a)
    return (1.0 + m) * m ** degree


def blaschke_point(a, degree=DEFAULT_DEGREE):
    """Series of the point factor with zero a; B_0 is the identity map p."""
    _check_count("degree", degree, 0)
    return realization_series(_point_realization(a), degree)


def blaschke_sphere(sphere, degree=DEFAULT_DEGREE):
    """Real-coefficient factor vanishing on the whole sphere of a."""
    _check_count("degree", degree, 0)
    return realization_series(_sphere_realization(sphere), degree)


def blaschke_value(a, p):
    """Value of the point factor at p (no truncation error)."""
    return _value(_point_realization(a), p)


def blaschke_sphere_value(sphere, p):
    """Value of the sphere factor at p."""
    return _value(_sphere_realization(sphere), p)


def blaschke_reciprocal_value(a, p):
    """Value of the star reciprocal of a point factor; it vanishes exactly at
    1/conj(a) and blows up on the sphere of a."""
    return _value(blaschke_reciprocal_realization(a), p)


@dataclass
class BlaschkeProduct:
    """A finite star product of point and sphere factors."""

    series: SliceSeries
    factors: list            # ("point", Quaternion) or ("sphere", Sphere)
    realization: Realization  # the cascade of the factors
    zeros: list = field(default_factory=list)  # zeros as originally prescribed

    def value(self, p):
        """Exact product value."""
        return _value(self.realization, p)


def blaschke_product(zeros, degree=DEFAULT_DEGREE):
    """Build a star product vanishing at the prescribed zeros, in order.

    Parameters
    ----------
    zeros : iterable of Quaternion (point zeros) and/or Sphere (spherical zeros)
    degree : truncation degree of the returned series

    Returns
    -------
    BlaschkeProduct

    Raises
    ------
    InvalidSpecError     unless degree is an integer >= 0
    InvalidModulusError  for zeros on or outside the unit sphere
    NonFiniteInputError  for zeros with a NaN or infinite component
    DegenerateChoiceError when a prescribed point zero already annihilates
                          the partial product (a value of modulus at most
                          1e-12, which cannot conjugate the next parameter)
    """
    _check_count("degree", degree, 0)
    zeros = list(zeros)
    factors = []
    R = None  # the empty product: its value is 1 and its cascade with a factor is that factor
    for z in zeros:
        if isinstance(z, Sphere):
            fac = _sphere_realization(z)
            factors.append(("sphere", z))
        else:
            a = _parameter(z)
            if R is not None:
                lam = _value(R, a)
                if abs(lam) <= 1e-12:
                    raise DegenerateChoiceError(
                        "prescribed zero %s already annihilates the partial product" % (a,))
                a = lam.inverse() * a * lam
            fac = _point_realization(a)
            factors.append(("point", a))
        R = fac if R is None else cascade(R, fac)
    R = _ONE if R is None else R
    return BlaschkeProduct(realization_series(R, degree), factors, R, zeros)


@dataclass
class BlaschkeReciprocal:
    """Star reciprocal of a point factor with its pole/zero bookkeeping."""

    series: SliceSeries
    a: Quaternion
    pole_sphere: Sphere
    zero: Quaternion

    def value(self, p):
        return blaschke_reciprocal_value(self.a, p)


def blaschke_reciprocal(a, degree=DEFAULT_DEGREE):
    """Series of B_a^{-*}; defined only for a != 0 (constant term |a| != 0)."""
    _check_count("degree", degree, 0)
    a = _as_quat(a)
    series = realization_series(blaschke_reciprocal_realization(a), degree)
    return BlaschkeReciprocal(series, a, sphere_of(a), a.conj().inverse())
