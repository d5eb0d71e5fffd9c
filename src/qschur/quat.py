"""Quaternion scalars, slice decomposition and 2-sphere bookkeeping.

A quaternion is stored as four floats ``x0 + x1*i + x2*j + x3*k`` with the
Hamilton relations ``i*j = -j*i = k``, ``j*k = -k*j = i``, ``k*i = -i*k = j``
and ``i**2 = j**2 = k**2 = -1``.  Values are immutable by convention and all
operations are pure.

Every non-real quaternion p sits on a unique complex slice: writing
``p = x0 + I_p*x1`` with ``x1 = |Im p| > 0`` and ``I_p = Im(p)/|Im p|``, the
pair (x0, x1) is constant on the similarity orbit of p, which is the 2-sphere
``[p] = {x0 + J*x1 : J imaginary unit}``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import NonFiniteInputError


def _tol_zero(scale):
    # scale-relative threshold for "is this zero/real" decisions
    return 1e-13 * (1.0 + scale)


class Quaternion:
    """Immutable quaternion scalar with float components."""

    __slots__ = ("x0", "x1", "x2", "x3")

    def __init__(self, x0=0.0, x1=0.0, x2=0.0, x3=0.0):
        self.x0 = float(x0)
        self.x1 = float(x1)
        self.x2 = float(x2)
        self.x3 = float(x3)

    # -- construction helpers -------------------------------------------------

    @classmethod
    def from_complex(cls, z):
        """Embed a complex number into the i-slice."""
        z = complex(z)
        return cls(z.real, z.imag, 0.0, 0.0)

    def to_list(self):
        return [self.x0, self.x1, self.x2, self.x3]

    # -- structure -------------------------------------------------------------

    @property
    def real(self):
        return self.x0

    def imag(self):
        """Imaginary (vector) part as a quaternion."""
        return Quaternion(0.0, self.x1, self.x2, self.x3)

    def imag_norm(self):
        return math.sqrt(self.x1 * self.x1 + self.x2 * self.x2 + self.x3 * self.x3)

    def norm_sq(self):
        return (self.x0 * self.x0 + self.x1 * self.x1
                + self.x2 * self.x2 + self.x3 * self.x3)

    def __abs__(self):
        return math.sqrt(self.norm_sq())

    def conj(self):
        return Quaternion(self.x0, -self.x1, -self.x2, -self.x3)

    def is_real(self, tol=None):
        if tol is None:
            tol = _tol_zero(abs(self))
        return self.imag_norm() <= tol

    def is_zero(self, tol=None):
        if tol is None:
            tol = _tol_zero(abs(self))
        return abs(self) <= tol

    # -- arithmetic -------------------------------------------------------------

    @staticmethod
    def _coerce(other):
        if isinstance(other, Quaternion):
            return other
        if isinstance(other, (int, float)):
            return Quaternion(other)
        if isinstance(other, complex):
            return Quaternion(other.real, other.imag)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Quaternion(self.x0 + o.x0, self.x1 + o.x1, self.x2 + o.x2, self.x3 + o.x3)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Quaternion(self.x0 - o.x0, self.x1 - o.x1, self.x2 - o.x2, self.x3 - o.x3)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return Quaternion(-self.x0, -self.x1, -self.x2, -self.x3)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a0, a1, a2, a3 = self.x0, self.x1, self.x2, self.x3
        b0, b1, b2, b3 = o.x0, o.x1, o.x2, o.x3
        return Quaternion(
            a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
            a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
            a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1,
            a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0,
        )

    def __rmul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self

    def inverse(self):
        """Multiplicative inverse conj(p)/|p|^2; raises ZeroDivisionError at 0."""
        n2 = self.norm_sq()
        if math.sqrt(n2) <= _tol_zero(math.sqrt(n2)):
            raise ZeroDivisionError("quaternion inverse of (numerically) zero value")
        return Quaternion(self.x0 / n2, -self.x1 / n2, -self.x2 / n2, -self.x3 / n2)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        out = Quaternion(1.0)
        base = self
        k = n
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- comparison / output -----------------------------------------------------

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self.x0 == o.x0 and self.x1 == o.x1
                and self.x2 == o.x2 and self.x3 == o.x3)

    def __ne__(self, other):
        r = self.__eq__(other)
        return r if r is NotImplemented else not r

    def isclose(self, other, tol=1e-12):
        o = self._coerce(other)
        return abs(self - o) <= tol * (1.0 + abs(self))

    def __repr__(self):
        return "Quaternion(%r, %r, %r, %r)" % (self.x0, self.x1, self.x2, self.x3)

    def __str__(self):
        parts = []
        for v, u in ((self.x0, ""), (self.x1, "i"), (self.x2, "j"), (self.x3, "k")):
            if v == 0.0 and u:
                continue
            sign = "+" if (v >= 0 and parts) else ""
            parts.append("%s%.6g%s" % (sign, v, u))
        return "".join(parts) or "0"


ONE = Quaternion(1.0)
QI = Quaternion(0.0, 1.0)
QJ = Quaternion(0.0, 0.0, 1.0)
QK = Quaternion(0.0, 0.0, 0.0, 1.0)


@dataclass(frozen=True)
class UnitImaginary:
    """A point of the imaginary unit 2-sphere; squares to -1."""

    x1: float
    x2: float
    x3: float

    def __post_init__(self):
        n = math.sqrt(self.x1 ** 2 + self.x2 ** 2 + self.x3 ** 2)
        if abs(n - 1.0) > 1e-12:
            raise ValueError("unit imaginary direction must have norm 1, got %r" % n)

    @classmethod
    def normalized(cls, x1, x2, x3):
        n = math.sqrt(x1 * x1 + x2 * x2 + x3 * x3)
        if n == 0.0:
            raise ValueError("cannot normalize the zero direction")
        return cls(x1 / n, x2 / n, x3 / n)

    @classmethod
    def from_quaternion(cls, p):
        _, x1, unit = slice_decompose(p)
        if unit is None:
            raise ValueError("real quaternion has no slice direction")
        return unit

    def as_quaternion(self):
        return Quaternion(0.0, self.x1, self.x2, self.x3)


I_DEFAULT = UnitImaginary(1.0, 0.0, 0.0)


@dataclass(frozen=True)
class Sphere:
    """Similarity orbit [p] recorded as (real part, imaginary magnitude >= 0)."""

    re: float
    im_mag: float

    def __post_init__(self):
        if self.im_mag < -1e-12:
            raise ValueError("imaginary magnitude must be nonnegative")
        if self.im_mag < 0.0:
            object.__setattr__(self, "im_mag", 0.0)

    def modulus(self):
        return math.hypot(self.re, self.im_mag)

    def is_real(self, tol=1e-12):
        return self.im_mag <= tol * (1.0 + self.modulus())

    def representative(self, unit=None):
        """A point on the sphere: re + I*im_mag (I defaults to i)."""
        if unit is None:
            unit = I_DEFAULT
        return quaternion_in_slice(self.re, self.im_mag, unit)

    def isclose(self, other, tol=1e-9):
        scale = 1.0 + max(self.modulus(), other.modulus())
        return (abs(self.re - other.re) <= tol * scale
                and abs(self.im_mag - other.im_mag) <= tol * scale)

    def __str__(self):
        return "[%.12g %s %.12g I]" % (self.re, "+", self.im_mag)


def slice_decompose(p):
    """Split p = x0 + I*x1 into (x0, x1, I); I is None for real p.

    x1 = |Im p| is always nonnegative; for real p (within 1e-13*(1+|p|)) the
    slice direction is undefined and None is returned.  Raises
    NonFiniteInputError for a NaN or infinite component.
    """
    x1 = p.imag_norm()
    if not math.isfinite(x1 + p.x0):
        raise NonFiniteInputError("no slice decomposition of %r" % (p,))
    if x1 <= _tol_zero(abs(p)):
        return p.x0, 0.0, None
    return p.x0, x1, UnitImaginary(p.x1 / x1, p.x2 / x1, p.x3 / x1)


def sphere_of(p):
    """The similarity orbit [p] of a quaternion."""
    x0, x1, _ = slice_decompose(p)
    return Sphere(x0, x1)


def quaternion_in_slice(x, y, unit):
    """The quaternion x + I*y living on the slice of the given unit I."""
    return Quaternion(x, unit.x1 * y, unit.x2 * y, unit.x3 * y)
