"""Blaschke factors: series coefficients, closed forms, zeros and products."""

import math

import numpy as np
import pytest
from conftest import PROPERTY
from hypothesis import given, strategies as st

from qschur import (
    DegenerateChoiceError,
    InvalidModulusError,
    NonFiniteInputError,
    NotInvertibleAtZeroError,
    OnPoleSphereError,
    Quaternion,
    QI,
    QJ,
    SingularMatrixError,
    SliceSeries,
    Sphere,
    UnitImaginary,
    blaschke_point,
    blaschke_product,
    blaschke_reciprocal,
    blaschke_reciprocal_realization,
    blaschke_reciprocal_value,
    blaschke_sphere,
    blaschke_sphere_value,
    blaschke_value,
    quaternion_in_slice,
    realization_eval,
    sphere_of,
    star_inverse,
    star_mul,
    star_resolvent_eval,
    tail_bound,
)
from qschur.sampling import ball_point, random_quaternion, random_unit_imaginary, rng

from oracles import (
    blaschke_point_by_degree,
    blaschke_product_value_by_composition,
    blaschke_reciprocal_value_closed_form,
    blaschke_sphere_by_division,
    blaschke_sphere_value_closed_form,
    blaschke_value_closed_form,
)

UNITS = [
    UnitImaginary(1.0, 0.0, 0.0),
    UnitImaginary(0.0, 1.0, 0.0),
    UnitImaginary.normalized(1.0, 1.0, 0.0),
    UnitImaginary.normalized(1.0, -2.0, 2.0),
]


def test_real_parameter_coefficients():
    """For real a the factor is the classical (a - p)/(1 - p a), whose
    Taylor coefficients are a, then -(1 - a^2) a^{n-1}."""
    a = 0.5
    B = blaschke_point(Quaternion(a), degree=8)
    assert abs(B.coeff(0).item().real - a) < 1e-15
    for n in range(1, 9):
        want = -(1 - a * a) * a ** (n - 1)
        got = B.coeff(n).item()
        assert got.is_real(tol=1e-14)
        assert abs(got.real - want) < 1e-14


def test_zero_parameter_is_identity_map():
    B = blaschke_point(Quaternion(), degree=6)
    assert B.coeff(1).item() == Quaternion(1.0)
    assert B.coeff(0).item().is_zero()
    assert B.norm_tail(2) == 0.0


def test_closed_form_matches_series():
    g = rng(70)
    for a in (Quaternion(0.5), Quaternion(0.2, 0.4, -0.1, 0.3) * 0.9):
        deg = 40
        B = blaschke_point(a, degree=deg)
        m = abs(a)
        for _ in range(5):
            p = ball_point(g, 0.7)
            # |c_n| <= m^{n-1}, so the truncation tail at |p| <= 0.7 is geometric
            r = 0.7 * m
            tb = (r ** (deg + 1)) / (m * (1.0 - r))
            want = blaschke_value(a, p)
            got = B.eval(p).item()
            assert abs(got - want) < tb + 1e-10


def test_value_vanishes_at_zero():
    for a in (Quaternion(0.5), Quaternion(0.1, 0.3, -0.2, 0.4)):
        assert blaschke_value(a, a).is_zero(tol=1e-14)


def test_boundary_modulus_closed_form():
    """|B_a| = 1 exactly on the unit sphere of every slice."""
    a = Quaternion(0.3, 0.2, -0.4, 0.1)
    for unit in UNITS:
        for theta in np.linspace(0.0, 2 * math.pi, 9):
            p = quaternion_in_slice(math.cos(theta), math.sin(theta), unit)
            v = blaschke_value(a, p)
            assert abs(abs(v) - 1.0) < 1e-12


def test_boundary_modulus_series_within_tail():
    a = Quaternion(0.45, 0.3, 0.0, 0.2)
    deg = 48
    B = blaschke_point(a, degree=deg)
    tb = tail_bound(a, deg)
    for unit in UNITS:
        p = quaternion_in_slice(math.cos(0.7), math.sin(0.7), unit)
        assert abs(abs(B.eval(p).item()) - 1.0) < tb + 1e-12


def test_tail_bound_formula():
    a = Quaternion(0.6, 0.2)
    m = abs(a)
    assert abs(tail_bound(a, 10) - (1 + m) * m ** 10) < 1e-15
    assert tail_bound(a, 20) < tail_bound(a, 10)


def test_invalid_modulus():
    with pytest.raises(InvalidModulusError):
        blaschke_point(Quaternion(1.0))
    with pytest.raises(InvalidModulusError):
        blaschke_point(Quaternion(0.8, 0.8))
    with pytest.raises(InvalidModulusError):
        blaschke_sphere(Sphere(0.8, 0.6))
    with pytest.raises(InvalidModulusError):
        blaschke_reciprocal(Quaternion(2.0))


# ---------------------------------------------------------------------------
# spherical factors
# ---------------------------------------------------------------------------


def test_sphere_factor_has_real_coefficients():
    B = blaschke_sphere(Sphere(0.3, 0.4), degree=12)
    for n in range(13):
        assert B.coeff(n).item().is_real(tol=1e-12)


def test_sphere_factor_vanishes_on_whole_sphere():
    s = Sphere(0.3, 0.4)
    g = rng(71)
    B = blaschke_sphere(s, degree=60)
    for _ in range(4):
        u = random_unit_imaginary(g)
        p = s.representative(u)
        assert abs(blaschke_sphere_value(s, p)) < 1e-14
        assert abs(B.eval(p).item()) < 1e-8


def test_sphere_factor_boundary_modulus():
    s = Sphere(0.2, 0.5)
    for unit in UNITS[:2]:
        p = quaternion_in_slice(math.cos(1.1), math.sin(1.1), unit)
        assert abs(abs(blaschke_sphere_value(s, p)) - 1.0) < 1e-12


def test_degenerate_sphere_is_squared_variable():
    B = blaschke_sphere(Sphere(0.0, 0.0), degree=6)
    assert (B.coeff(2).item() - Quaternion(1.0)).is_zero(tol=1e-14)
    assert abs(B.coeff(0).item()) < 1e-14 and abs(B.coeff(1).item()) < 1e-14


# ---------------------------------------------------------------------------
# products
# ---------------------------------------------------------------------------


def test_product_vanishes_at_prescribed_zeros():
    zeros = [Quaternion(0.5, 0.1, 0.0, -0.2),
             Quaternion(-0.3, 0.0, 0.4, 0.0),
             Quaternion(0.2, -0.2, 0.1, 0.3)]
    built = blaschke_product(zeros, degree=48)
    for z in zeros:
        assert abs(built.value(z)) < 1e-12
        assert abs(built.series.eval(z).item()) < 1e-8
    assert sum(2 if kind == "sphere" else 1 for kind, _ in built.factors) == 3


def test_product_with_sphere_factor():
    zs = [Quaternion(0.4, 0.3), Sphere(0.2, 0.3)]
    built = blaschke_product(zs, degree=48)
    assert sum(2 if kind == "sphere" else 1 for kind, _ in built.factors) == 3
    assert abs(built.value(Quaternion(0.4, 0.3))) < 1e-12
    # the sphere factor kills every representative, any slice
    p = Sphere(0.2, 0.3).representative(UnitImaginary.normalized(1, 2, -1))
    assert abs(built.value(p)) < 1e-12
    assert abs(built.series.eval(p).item()) < 1e-8


def test_product_boundary_modulus():
    zeros = [Quaternion(0.5, 0.1), Quaternion(-0.2, 0.0, 0.3)]
    built = blaschke_product(zeros, degree=48)
    p = quaternion_in_slice(math.cos(0.3), math.sin(0.3), UNITS[3])
    assert abs(abs(built.value(p)) - 1.0) < 1e-12


def test_repeated_point_zero_is_degenerate():
    a = Quaternion(0.4, 0.2)
    with pytest.raises(DegenerateChoiceError):
        blaschke_product([a, a], degree=24)


def test_product_zero_outside_disk_rejected():
    with pytest.raises(InvalidModulusError):
        blaschke_product([Quaternion(0.5), Quaternion(1.5)], degree=16)


# ---------------------------------------------------------------------------
# reciprocals
# ---------------------------------------------------------------------------


def test_reciprocal_inverts_factor():
    a = Quaternion(0.45, 0.35, 0.0, 0.2)
    # modest degree: reciprocal coefficients grow like |1/a|^n, so high
    # degrees lose the cancellation in floating point
    deg = 12
    B = blaschke_point(a, degree=deg)
    R = blaschke_reciprocal(a, degree=deg)
    prod = star_mul(B, R.series)
    assert abs(prod.coeff(0).item() - Quaternion(1.0)) < 1e-11
    assert prod.norm_tail(1) < 1e-9


def test_reciprocal_bookkeeping():
    a = Quaternion(0.3, 0.4)
    R = blaschke_reciprocal(a)
    assert R.pole_sphere.isclose(sphere_of(a))
    assert (R.zero - a.conj().inverse()).is_zero(tol=1e-14)
    assert abs(R.zero) > 1.0  # reflected zero lies outside the closed ball


def test_reciprocal_closed_form_matches_series():
    a = Quaternion(0.0, 0.7)
    deg = 30
    R = blaschke_reciprocal(a, degree=deg)
    g = rng(72)
    for _ in range(4):
        p = ball_point(g, 0.4)  # inside the convergence radius |a| = 0.7? no:
        # the reciprocal series converges for |p| < |a|; 0.4 < 0.7 qualifies
        want = blaschke_reciprocal_value(a, p)
        got = R.series.eval(p).item()
        tail = (0.4 / 0.7) ** (deg + 1) / (1 - 0.4 / 0.7) * 3
        assert abs(got - want) < tail + 1e-10


def test_reciprocal_value_pole_guard():
    a = Quaternion(0.3, 0.4)
    p = sphere_of(a).representative(UnitImaginary.normalized(0, 1, 0))
    with pytest.raises(OnPoleSphereError):
        blaschke_reciprocal_value(a, p)


def test_reciprocal_of_zero_rejected():
    with pytest.raises(NotInvertibleAtZeroError):
        blaschke_reciprocal(Quaternion())


def test_point_value_pole_guard():
    a = Quaternion(0.3, 0.4)
    # B_a itself has a pole on the sphere of 1/conj(a)
    p = (Quaternion(1.0) / a.conj())
    with pytest.raises(OnPoleSphereError):
        blaschke_value(a, p)


# ---------------------------------------------------------------------------
# realizations against the closed-form and per-coefficient oracles
# ---------------------------------------------------------------------------


def _in_ball(gen, lo, hi):
    """Random quaternion, random slice, modulus uniform in (lo, hi)."""
    q = random_quaternion(gen)
    return q * (gen.uniform(lo, hi) / abs(q))


def _on_sphere(gen, q):
    """A point of the sphere of q in a random slice."""
    return sphere_of(q).representative(random_unit_imaginary(gen))


def _series_gap(f, g):
    return max((x - y).norm() for x, y in zip(f.coeffs(), g.coeffs()))


@PROPERTY
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_factor_series_match_coefficient_loop_and_division(seed):
    gen = rng(seed)
    a = _in_ball(gen, 0.05, 0.95)
    s = sphere_of(_in_ball(gen, 0.05, 0.95))
    assert _series_gap(blaschke_point(a, 30), blaschke_point_by_degree(a, 30)) <= 1e-14
    assert _series_gap(blaschke_sphere(s, 30), blaschke_sphere_by_division(s, 30)) <= 1e-14


@PROPERTY
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_reciprocal_series_matches_star_inverse(seed):
    """Relative to each coefficient: they grow like |1/a|^n."""
    gen = rng(seed)
    a = _in_ball(gen, 0.05, 0.95)
    ref = star_inverse(blaschke_point_by_degree(a, 30))
    got = blaschke_reciprocal(a, 30).series
    for x, y in zip(got.coeffs(), ref.coeffs()):
        assert (x - y).norm() <= 1e-12 * y.norm()


@PROPERTY
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_factor_values_match_closed_forms(seed):
    gen = rng(seed)
    a = _in_ball(gen, 0.05, 0.95)
    s = sphere_of(_in_ball(gen, 0.05, 0.95))
    p = _in_ball(gen, 0.0, 0.95)
    for got, want in ((blaschke_value(a, p), blaschke_value_closed_form(a, p)),
                      (blaschke_sphere_value(s, p), blaschke_sphere_value_closed_form(s, p)),
                      (blaschke_reciprocal_value(a, p),
                       blaschke_reciprocal_value_closed_form(a, p))):
        assert abs(got - want) <= 1e-13 * (1.0 + abs(want))


@PROPERTY
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_product_matches_composition_rule(seed):
    """Two point zeros around a sphere: the cascade's value against the
    factor-by-factor composition rule, its series against the star product
    of the factor series, and zero values at the prescribed zeros."""
    gen = rng(seed)
    zeros = [_in_ball(gen, 0.05, 0.95), sphere_of(_in_ball(gen, 0.05, 0.95)),
             _in_ball(gen, 0.05, 0.95)]
    prod = blaschke_product(zeros, 30)
    p = _in_ball(gen, 0.0, 0.95)
    want = blaschke_product_value_by_composition(prod.factors, p)
    assert abs(prod.value(p) - want) <= 1e-13 * (1.0 + abs(want))
    ref = SliceSeries.one(30)
    for kind, par in prod.factors:
        ref = star_mul(ref, blaschke_point_by_degree(par, 30) if kind == "point"
                       else blaschke_sphere_by_division(par, 30))
    assert _series_gap(prod.series, ref) <= 1e-14
    for z in (zeros[0], zeros[1].representative(random_unit_imaginary(gen)), zeros[2]):
        assert abs(prod.value(z)) <= 1e-13


def test_empty_product_is_one():
    prod = blaschke_product([], degree=6)
    assert _series_gap(prod.series, SliceSeries.one(6)) == 0.0
    assert prod.value(Quaternion(0.3, 0.2)) == Quaternion(1.0)


# ---------------------------------------------------------------------------
# pole spheres and non-finite parameters
# ---------------------------------------------------------------------------


def test_pole_spheres_raise_in_every_slice():
    """Points of each pole sphere in random slices: the point factor's at
    [1/conj(a)], the reciprocal's at [a], the sphere factor's at [1/a] and a
    product's at the pole sphere of its middle factor."""
    gen = rng(900)
    for _ in range(50):
        a = _in_ball(gen, 0.05, 0.95)
        s = sphere_of(_in_ball(gen, 0.05, 0.95))
        with pytest.raises(OnPoleSphereError):
            blaschke_value(a, _on_sphere(gen, a.conj().inverse()))
        with pytest.raises(OnPoleSphereError):
            blaschke_reciprocal_value(a, _on_sphere(gen, a))
        with pytest.raises(OnPoleSphereError):
            blaschke_reciprocal(a, 4).value(_on_sphere(gen, a))
        with pytest.raises(OnPoleSphereError):
            blaschke_sphere_value(s, _on_sphere(gen, s.representative().inverse()))
        prod = blaschke_product([_in_ball(gen, 0.05, 0.95) for _ in range(3)], 4)
        with pytest.raises(OnPoleSphereError):
            prod.value(_on_sphere(gen, prod.factors[1][1].inverse()))


def test_one_state_eval_raises_on_pole_sphere():
    """For one state chi(1 - 2 Re(p) A + |p|^2 A^2) is a multiple of a unitary,
    so the pole test must be relative to the size of its terms."""
    gen = rng(950)
    for _ in range(50):
        b = _in_ball(gen, 0.05, 0.95)
        R = blaschke_reciprocal_realization(b)
        p = _on_sphere(gen, b)
        with pytest.raises(SingularMatrixError):
            realization_eval(R, p)
        with pytest.raises(SingularMatrixError):
            star_resolvent_eval(R.A, p)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_parameters_rejected(bad):
    q = Quaternion(0.1, bad)
    p = Quaternion(0.2)
    calls = [lambda: blaschke_point(q), lambda: blaschke_value(q, p),
             lambda: blaschke_sphere(Sphere(bad, 0.1)),
             lambda: blaschke_sphere_value(Sphere(0.1, abs(bad)), p),
             lambda: blaschke_reciprocal(q), lambda: blaschke_reciprocal_value(q, p),
             lambda: blaschke_product([Quaternion(0.3), q]),
             lambda: blaschke_product([Sphere(bad, 0.1)])]
    for call in calls:
        with pytest.raises(NonFiniteInputError):
            call()
