"""Quaternion arithmetic against the classical 4x4 real matrix model.

Left multiplication by q acts on coefficient vectors (x0, x1, x2, x3) as
a real 4x4 matrix; products, conjugation and inversion are checked against
numpy arithmetic on that model so no quaternion code is trusted twice.
"""

import math

import numpy as np
import pytest

from qschur import (
    NonFiniteInputError,
    Quaternion,
    QI,
    QJ,
    QK,
    ONE,
    Sphere,
    UnitImaginary,
    I_DEFAULT,
    quaternion_in_slice,
    slice_decompose,
    sphere_of,
)


def left_matrix(q):
    """Real matrix of v -> q*v in the basis (1, i, j, k)."""
    w, x, y, z = q.to_list()
    return np.array([
        [w, -x, -y, -z],
        [x,  w, -z,  y],
        [y,  z,  w, -x],
        [z, -y,  x,  w],
    ])


def as_vec(q):
    return np.array(q.to_list())


def sample(rng, scale=2.0):
    return Quaternion(*(scale * rng.standard_normal(4)))


def test_hamilton_table():
    assert QI * QJ == QK
    assert QJ * QK == QI
    assert QK * QI == QJ
    assert QJ * QI == -QK
    assert QK * QJ == -QI
    assert QI * QK == -QJ
    for u in (QI, QJ, QK):
        assert u * u == Quaternion(-1.0)


def test_product_matches_matrix_model():
    rng = np.random.default_rng(7)
    for _ in range(50):
        p, q = sample(rng), sample(rng)
        got = as_vec(p * q)
        want = left_matrix(p) @ as_vec(q)
        np.testing.assert_allclose(got, want, atol=1e-13)


def test_product_noncommutative_witness():
    p = Quaternion(0, 1, 0, 0)
    q = Quaternion(0, 0, 1, 0)
    assert p * q != q * p


def test_conjugation_and_norm():
    rng = np.random.default_rng(8)
    for _ in range(25):
        p, q = sample(rng), sample(rng)
        assert (p * q).conj().isclose(q.conj() * p.conj(), tol=1e-12)
        n = p * p.conj()
        assert abs(n - Quaternion(p.norm_sq())) < 1e-12
        assert abs(abs(p * q) - abs(p) * abs(q)) < 1e-12


def test_real_and_imaginary_parts():
    p = Quaternion(1.5, -2.0, 0.5, 3.0)
    assert p.real == 1.5
    np.testing.assert_allclose(p.imag().to_list(), [0, -2.0, 0.5, 3.0])
    assert math.isclose(p.imag_norm(), math.sqrt(4 + 0.25 + 9))


def test_inverse():
    rng = np.random.default_rng(9)
    for _ in range(25):
        p = sample(rng)
        assert (p * p.inverse()).isclose(ONE, tol=1e-12)
        assert (p.inverse() * p).isclose(ONE, tol=1e-12)
    with pytest.raises(ZeroDivisionError):
        Quaternion().inverse()


def test_division():
    p = Quaternion(1, 2, 3, 4)
    q = Quaternion(0.5, -1, 0, 2)
    assert (p / q).isclose(p * q.inverse())
    assert (2.0 / q).isclose(q.inverse() * 2.0)
    assert (p / 2.0).isclose(Quaternion(0.5, 1, 1.5, 2))


def test_powers():
    p = Quaternion(0.3, -0.2, 0.7, 0.1)
    assert (p ** 0).isclose(ONE)
    assert (p ** 3).isclose(p * p * p, tol=1e-13)
    assert (p ** -2).isclose((p.inverse()) ** 2, tol=1e-12)


def test_coercion_and_reflected_ops():
    p = Quaternion(1, 1, 0, 0)
    assert (2 + p) == Quaternion(3, 1, 0, 0)
    assert (p + 2.5) == Quaternion(3.5, 1, 0, 0)
    assert (1 - p) == Quaternion(0, -1, 0, 0)
    assert (3 * p) == Quaternion(3, 3, 0, 0)
    z = complex(1, 2)
    assert Quaternion.from_complex(z) == Quaternion(1, 2, 0, 0)
    assert (z * QJ).isclose(Quaternion(0, 0, 1, 2))  # (1+2i)j = j + 2ij = j + 2k


def test_is_real_is_zero():
    assert Quaternion(5.0).is_real()
    assert not Quaternion(5.0, 1e-6).is_real()
    assert Quaternion(5.0, 1e-6).is_real(tol=1e-3)
    assert Quaternion(0, 1e-16, 0, 0).is_zero()


def test_unit_imaginary():
    u = UnitImaginary.normalized(1.0, 2.0, -2.0)
    q = u.as_quaternion()
    assert abs(abs(q) - 1.0) < 1e-14
    assert (q * q).isclose(Quaternion(-1.0), tol=1e-13)
    v = UnitImaginary.from_quaternion(Quaternion(3.0, 0, 4.0, 0))
    assert v.as_quaternion().isclose(QJ)
    with pytest.raises(Exception):
        UnitImaginary(0.5, 0.5, 0.5)  # not unit length


def test_slice_decompose():
    p = Quaternion(2.0, 1.0, -2.0, 2.0)
    x, y, unit = slice_decompose(p)
    assert x == 2.0
    assert math.isclose(y, 3.0)
    back = quaternion_in_slice(x, y, unit)
    assert back.isclose(p, tol=1e-13)
    # real input: no distinguished imaginary direction
    xr, yr, ur = slice_decompose(Quaternion(4.0))
    assert (xr, yr) == (4.0, 0.0) and ur is None


def test_sphere_of_and_char_poly():
    p = Quaternion(0.5, 1.0, 2.0, -2.0)
    s = sphere_of(p)
    assert math.isclose(s.re, 0.5) and math.isclose(s.im_mag, 3.0)
    assert math.isclose(s.modulus(), math.hypot(0.5, 3.0))
    assert (p * p - (2.0 * p.x0) * p + Quaternion(p.norm_sq())).is_zero(tol=1e-12)
    # every point of the same sphere kills the same monic quadratic
    for unit in (I_DEFAULT, UnitImaginary.normalized(1, 1, 1)):
        q = s.representative(unit)
        v = q * q - (2.0 * s.re) * q + Quaternion(s.modulus() ** 2)
        assert v.is_zero(tol=1e-12)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_quaternion_has_no_sphere(bad):
    for q in (Quaternion(bad), Quaternion(0.5, bad), Quaternion(0.5, 0.1, 0.2, bad)):
        with pytest.raises(NonFiniteInputError):
            sphere_of(q)
        with pytest.raises(ValueError):
            slice_decompose(q)


def test_sphere_representative_and_isclose():
    s = Sphere(1.0, 2.0)
    r = s.representative()
    assert r.isclose(Quaternion(1.0, 2.0))
    r2 = s.representative(UnitImaginary.normalized(0, 0, 1))
    assert r2.isclose(Quaternion(1.0, 0, 0, 2.0))
    assert s.isclose(Sphere(1.0 + 1e-12, 2.0))
    assert not s.isclose(Sphere(1.0, 2.1))
    assert Sphere(3.0, 0.0).is_real()
    assert "[" in str(s)


def test_char_poly_value_vanishes_on_sphere():
    s = Quaternion(0.25, 0.4, 0.1, -0.2)
    for unit in (I_DEFAULT, UnitImaginary.normalized(2, -1, 1)):
        p = quaternion_in_slice(s.real, s.imag_norm(), unit)
        v = p * p - (2.0 * s.real) * p + Quaternion(s.norm_sq())
        assert v.is_zero(tol=1e-12)


def test_equality_and_hash_free_repr():
    p = Quaternion(1, 2, 3, 4)
    assert p == Quaternion(1, 2, 3, 4)
    assert p != Quaternion(1, 2, 3, 5)
    assert p != "text"
    assert "1" in repr(p)
    assert str(Quaternion(0, 1, 0, 0))
