"""Blaschke factors on the quaternionic unit ball, as truncated series.

A point factor with zero a (0 < |a| < 1) is

    B_a = (1 - p conj(a))^{-*} * (a - p) * conj(a)/|a|,

whose series coefficients are c_0 = |a| and
c_n = conj(a)^{n-1} (|a|^2 - 1) conj(a)/|a| for n >= 1, so the truncation
error of a degree-d cut is bounded by (1 + |a|) |a|^d on the closed ball.

A sphere factor removes a whole similarity sphere at once and has real
coefficients: (p^2 - 2 Re(a) p + |a|^2) * (1 - 2 Re(a) p + |a|^2 p^2)^{-*}.

Star products vanish at a prescribed point z only if the next factor's
parameter is conjugated by the value lambda of the partial product there
(a -> lambda^{-1} a lambda); the builder applies this rule factor by factor
and evaluates partial products in closed form, not through the truncation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import (
    DegenerateChoiceError,
    InvalidModulusError,
    NotInvertibleAtZeroError,
    OnPoleSphereError,
)
from .quat import Quaternion, Sphere, sphere_of
from .qmatrix import QMatrix
from .series import SliceSeries, star_inverse, star_mul

DEFAULT_DEGREE = 48


def _as_quat(a):
    return a if isinstance(a, Quaternion) else Quaternion._coerce(a)


def tail_bound(a, degree):
    """Bound for the dropped tail of a degree-truncated point factor on |p| <= 1."""
    m = abs(_as_quat(a)) if not isinstance(a, (int, float)) else abs(a)
    return (1.0 + m) * m ** degree


def blaschke_point(a, degree=DEFAULT_DEGREE):
    """Series of the point factor with zero a; B_0 is the identity map p."""
    a = _as_quat(a)
    m = abs(a)
    if m >= 1.0:
        raise InvalidModulusError("point factor needs |a| < 1, got %g" % m)
    if a.is_zero():
        return SliceSeries.variable(degree)
    ac = a.conj()
    u = ac * (1.0 / m)
    coeffs = [Quaternion(m)]
    pw = Quaternion(1.0)
    for _ in range(degree):
        coeffs.append(pw * (m * m - 1.0) * u)
        pw = pw * ac
    return SliceSeries.polynomial([QMatrix.scalar(c) for c in coeffs])


def blaschke_sphere(sphere, degree=DEFAULT_DEGREE):
    """Real-coefficient factor vanishing on the whole sphere of a."""
    if isinstance(sphere, Quaternion):
        sphere = sphere_of(sphere)
    m = sphere.modulus()
    if m >= 1.0:
        raise InvalidModulusError("sphere factor needs modulus < 1, got %g" % m)
    if m == 0.0:
        num = SliceSeries.polynomial([0.0, 0.0, 1.0], degree)
        return num
    x = sphere.re
    num = SliceSeries.polynomial([m * m, -2.0 * x, 1.0], degree)
    den = SliceSeries.polynomial([1.0, -2.0 * x, m * m], degree)
    return star_mul(star_inverse(den), num)


def blaschke_value(a, p):
    """Closed-form value of the point factor at p (no truncation error)."""
    a = _as_quat(a)
    p = _as_quat(p)
    if a.is_zero():
        return p
    m = abs(a)
    d = Quaternion(1.0) - (2.0 * a.x0) * p + (m * m) * p * p
    if d.is_zero():
        raise OnPoleSphereError("point %s lies on the pole sphere of B_a" % (p,))
    w = d.inverse() * (Quaternion(1.0) - p * a)
    return (w * a - p * w) * (a.conj() * (1.0 / m))


def blaschke_sphere_value(sphere, p):
    """Closed-form value of the sphere factor at p."""
    if isinstance(sphere, Quaternion):
        sphere = sphere_of(sphere)
    p = _as_quat(p)
    m = sphere.modulus()
    if m == 0.0:
        return p * p
    x = sphere.re
    den = Quaternion(1.0) - (2.0 * x) * p + (m * m) * p * p
    if den.is_zero():
        raise OnPoleSphereError("point %s lies on the pole sphere" % (p,))
    num = p * p - (2.0 * x) * p + Quaternion(m * m)
    return num * den.inverse()


def blaschke_reciprocal_value(a, p):
    """Closed-form value of the star reciprocal of a point factor.

    W = (|a|^2 - 2 Re(a) p + p^2)^{-1} (|a| - p a / |a|), value W - p W conj(a);
    it vanishes exactly at 1/conj(a) and blows up on the sphere of a.
    """
    a = _as_quat(a)
    p = _as_quat(p)
    m = abs(a)
    if m == 0.0:
        raise NotInvertibleAtZeroError("the factor with zero 0 has no star inverse")
    d = Quaternion(m * m) - (2.0 * a.x0) * p + p * p
    if d.is_zero():
        raise OnPoleSphereError("point %s lies on the zero sphere of B_a" % (p,))
    W = d.inverse() * (Quaternion(m) - p * a * (1.0 / m))
    return W - p * W * a.conj()


@dataclass
class BlaschkeProduct:
    """A finite star product of point and sphere factors."""

    series: SliceSeries
    factors: list            # ("point", Quaternion) or ("sphere", Sphere)
    zeros: list = field(default_factory=list)  # zeros as originally prescribed

    @property
    def degree_count(self):
        """Total zero count, spheres counting twice."""
        return sum(2 if kind == "sphere" else 1 for kind, _ in self.factors)

    def value(self, p):
        """Exact product value via the composition rule, factor by factor."""
        p = _as_quat(p)
        val = Quaternion(1.0)
        q = p
        for kind, par in self.factors:
            w = blaschke_value(par, q) if kind == "point" else blaschke_sphere_value(par, q)
            if abs(w) <= 1e-13 * (1.0 + abs(q)):
                # hit a zero: the remaining factors only multiply by O(1)
                return val * w
            val = val * w
            q = w.inverse() * q * w
        return val


def blaschke_product(zeros, degree=DEFAULT_DEGREE, degenerate_tol=1e-12):
    """Build a star product vanishing at the prescribed zeros, in order.

    Parameters
    ----------
    zeros : iterable of Quaternion (point zeros) and/or Sphere (spherical zeros)
    degree : truncation degree of the returned series
    degenerate_tol : float
        A new point zero must not already annihilate the partial product;
        below this threshold the conjugating value is unusable.

    Returns
    -------
    BlaschkeProduct

    Raises
    ------
    InvalidModulusError  for zeros on or outside the unit sphere
    DegenerateChoiceError when a prescribed zero is already a zero so far
    """
    zeros = list(zeros)
    factors = []
    series = SliceSeries.one(degree)
    built = BlaschkeProduct(series, factors)
    for z in zeros:
        if isinstance(z, Sphere):
            if z.modulus() >= 1.0:
                raise InvalidModulusError("sphere zero with modulus >= 1")
            fac = blaschke_sphere(z, degree)
            factors.append(("sphere", z))
        else:
            z = _as_quat(z)
            if abs(z) >= 1.0:
                raise InvalidModulusError("point zero with |z| >= 1")
            lam = built.value(z) if factors else Quaternion(1.0)
            if abs(lam) <= degenerate_tol:
                raise DegenerateChoiceError(
                    "prescribed zero %s already annihilates the partial product" % (z,))
            a = lam.inverse() * z * lam
            fac = blaschke_point(a, degree)
            factors.append(("point", a))
        series = star_mul(series, fac)
        built.series = series
    built.zeros = zeros
    return built


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
    a = _as_quat(a)
    if a.is_zero():
        raise NotInvertibleAtZeroError("the factor with zero 0 has no star inverse")
    if abs(a) >= 1.0:
        raise InvalidModulusError("point factor needs |a| < 1, got %g" % abs(a))
    series = star_inverse(blaschke_point(a, degree))
    zero = a.conj().inverse()
    return BlaschkeReciprocal(series, a, sphere_of(a), zero)
