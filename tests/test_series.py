"""Formal power series with quaternion coefficients and the star product."""

import numpy as np
import pytest
from conftest import PROPERTY
from hypothesis import given, strategies as st

from qschur import (
    NotInvertibleAtZeroError,
    QMatrix,
    Quaternion,
    QI,
    QJ,
    QK,
    ShapeError,
    SliceSeries,
    series_sym,
    star_inverse,
    star_left_eval,
    star_mul,
    star_resolvent,
    star_resolvent_eval,
    star_solve_left,
)
from qschur.sampling import random_qmatrix, random_quaternion, random_scalar_series, rng
from qschur.series import _section, _state_space_series
from oracles import section_by_windows, star_solve_left_by_degree


def conv_brute(f, g):
    """Plain loop convolution, entry by entry in Quaternion arithmetic."""
    d = min(f.degree, g.degree)
    out = []
    for n in range(d + 1):
        acc = [[Quaternion() for _ in range(g.cols)] for _ in range(f.rows)]
        for k in range(n + 1):
            a, b = f.coeff(k), g.coeff(n - k)
            for i in range(f.rows):
                for j in range(g.cols):
                    for l in range(f.cols):
                        acc[i][j] = acc[i][j] + a.entry(i, l) * b.entry(l, j)
        out.append(QMatrix.from_entries(acc))
    return out


def random_series(gen, degree, rows, cols, scale=0.5):
    return SliceSeries([random_qmatrix(gen, rows, cols, scale) for _ in range(degree + 1)])


def scal(cs, degree=None):
    return SliceSeries.polynomial([QMatrix.scalar(c) for c in cs], degree)


def test_star_mul_matches_brute_force_convolution():
    g = rng(1)
    f1 = random_scalar_series(g, 9)
    f2 = random_scalar_series(g, 9)
    prod = star_mul(f1, f2)
    want = conv_brute(f1, f2)
    assert prod.degree == 9
    for n, w in enumerate(want):
        assert (prod.coeff(n).item() - w.item()).is_zero(tol=1e-13)


@PROPERTY
@given(seed=st.integers(0, 2 ** 32 - 1), r=st.integers(1, 3), k=st.integers(1, 3),
       c=st.integers(1, 3), df=st.integers(0, 6), dg=st.integers(0, 6))
def test_star_mul_matches_brute_force_on_matrix_coefficients(seed, r, k, c, df, dg):
    gen = rng(seed)
    f = random_series(gen, df, r, k)
    g = random_series(gen, dg, k, c)
    prod = star_mul(f, g)
    want = conv_brute(f, g)
    assert prod.degree == min(df, dg) and prod.shape == (r, c)
    for n, w in enumerate(want):
        assert (prod.coeff(n) - w).norm() <= 1e-13 * (1.0 + w.norm())


@PROPERTY
@given(seed=st.integers(0, 2 ** 32 - 1), r=st.integers(1, 3), c=st.integers(1, 3),
       df=st.integers(0, 6), dg=st.integers(0, 6))
def test_star_solve_left_residual(seed, r, c, df, dg):
    """f * x = g, with the product formed by the brute-force convolution."""
    gen = rng(seed)
    f = random_series(gen, df, r, r, scale=0.2)
    f = SliceSeries([f.coeff(0) + 2 * QMatrix.eye(r)] + f.coeffs()[1:])
    g = random_series(gen, dg, r, c)
    x = star_solve_left(f, g)
    assert x.degree == min(df, dg) and x.shape == (r, c)
    scale = 1.0 + max(m.norm() for m in x.coeffs())
    for n, w in enumerate(conv_brute(f, x)):
        assert (w - g.coeff(n)).norm() <= 1e-12 * scale


@PROPERTY
@given(seed=st.integers(0, 2 ** 32 - 1), r=st.integers(1, 3), c=st.integers(1, 3),
       degree=st.integers(0, 48), radius=st.sampled_from([0.0, 0.5, 1.0, 1.25]))
def test_star_solve_left_matches_per_degree_loop(seed, r, c, degree, radius):
    """The triangular solve against block forward substitution.  For radius
    > 0, f is the series of a realization whose state matrix has spectral
    radius about radius, so its coefficients grow like those of the KL
    series W when radius > 1; radius 0 draws every coefficient at random."""
    gen = rng(seed)
    if radius:
        A = random_qmatrix(gen, r)
        A = A * (radius / A.norm2())
        f = _state_space_series(A, random_qmatrix(gen, r), random_qmatrix(gen, r),
                                QMatrix.eye(r) + random_qmatrix(gen, r, scale=0.3), degree)
    else:
        f = random_series(gen, degree, r, r)
        f = SliceSeries([f.coeff(0) + 2 * QMatrix.eye(r)] + f.coeffs()[1:])
    g = random_series(gen, degree, r, c)
    x = star_solve_left(f, g)
    want = star_solve_left_by_degree(f, g)
    assert x.degree == degree and x.shape == (r, c)
    assert np.all((x - want).coeff_norms() <= 1e-12 * (1.0 + want.coeff_norms()))


@PROPERTY
@given(seed=st.integers(0, 2 ** 32 - 1), k=st.integers(1, 10), mu=st.integers(0, 8),
       p=st.integers(1, 3), q=st.integers(1, 3))
def test_section_matches_window_gather(seed, k, mu, p, q):
    """The strided section against the sliding-window gather it replaced,
    for stacks shorter and longer than mu + 1 blocks."""
    gen = rng(seed)
    blocks = gen.normal(size=(k, p, q)) + 1j * gen.normal(size=(k, p, q))
    assert np.array_equal(_section(blocks, mu), section_by_windows(blocks, mu))


def test_star_inverse_keeps_shape_and_degree_zero():
    f = SliceSeries.constant(QMatrix.from_entries([[QI, 1], [0, QJ]]), 0)
    inv = star_inverse(f)
    assert inv.degree == 0
    assert (f.coeff(0) @ inv.coeff(0) - QMatrix.eye(2)).norm() < 1e-14


def test_coeff_norms_and_norm_tail():
    f = random_series(rng(9), 5, 2, 3)
    want = [f.coeff(n).norm() for n in range(6)]
    np.testing.assert_allclose(f.coeff_norms(), want, rtol=1e-15)
    assert abs(f.norm_tail(2) - sum(want[2:])) <= 1e-14 * sum(want)


def test_star_mul_noncommutative():
    # f = p i, g = p j: (f*g)_2 = i j = k but (g*f)_2 = j i = -k
    f = scal([0, QI], degree=2)
    g = scal([0, QJ], degree=2)
    assert (star_mul(f, g).coeff(2).item() - QK).is_zero()
    assert (star_mul(g, f).coeff(2).item() + QK).is_zero()


def test_truncation_is_min_degree():
    f = scal([1, 1, 1], degree=5)
    g = scal([1, 1], degree=2)
    assert star_mul(f, g).degree == 2
    assert (f + g).degree == 2
    assert (f - g).degree == 2


def test_geometric_star_inverse():
    """(1 - p a)^{-*} = sum_n p^n a^n, checked coefficient by coefficient."""
    a = Quaternion(0.3, -0.4, 0.2, 0.1)
    f = scal([Quaternion(1.0), -a], degree=10)
    inv = star_inverse(f)
    for n in range(11):
        assert (inv.coeff(n).item() - a ** n).is_zero(tol=1e-12)
    # and the defining identity holds
    one = star_mul(f, inv)
    assert (one.coeff(0).item() - Quaternion(1.0)).is_zero(tol=1e-13)
    assert one.norm_tail(1) < 1e-12


def test_star_solve_left():
    g = rng(2)
    f = random_scalar_series(g, 8)
    h = random_scalar_series(g, 8)
    x = star_solve_left(f, h)
    err = star_mul(f, x) - h
    assert err.norm_tail(0) < 1e-10


def test_star_inverse_requires_invertible_constant():
    f = scal([0, 1], degree=4)
    with pytest.raises(NotInvertibleAtZeroError):
        star_inverse(f)


def test_eval_left_horner_order():
    # coefficients multiply from the right: (p j)(i) = i j = k, not j i
    f = scal([0, QJ])
    assert (f.eval(QI).item() - QK).is_zero()
    # purely real polynomial at a quaternion point
    f2 = scal([1, -2, 1], degree=2)  # (1 - p)^2 for commuting p
    q = Quaternion(0.5, 0.1, -0.3, 0.2)
    want = Quaternion(1.0) - 2 * q + q * q
    assert (f2.eval(q).item() - want).is_zero(tol=1e-14)


def test_series_constant_one_variable():
    v = SliceSeries.variable(5)
    assert v.coeff(1).item() == Quaternion(1.0)
    assert v.coeff(0).item().is_zero() and v.coeff(2).item().is_zero()
    c = SliceSeries.constant(QK, 3)
    assert c.coeff(0).item() == QK and c.coeff(3).item().is_zero()
    one = SliceSeries.one(4, 2)
    assert one.coeff(0).allclose(QMatrix.eye(2))


def test_scalar_multiplication_sides():
    f = scal([QJ, QJ], degree=1)
    left = QI * f
    right = f * QI
    assert (left.coeff(0).item() - QI * QJ).is_zero()
    assert (right.coeff(0).item() - QJ * QI).is_zero()


def test_left_constant_multiple_of_a_matrix_series():
    g = rng(7)
    f = random_series(g, 3, 2, 3)
    M = random_qmatrix(g, 4, 2)
    h = M * f
    assert h.shape == (4, 3) and h.degree == 3
    for n in range(4):
        assert (h.coeff(n) - M @ f.coeff(n)).norm() < 1e-14
    with pytest.raises(ShapeError):
        QI * f


def test_pad_truncate_shift():
    f = scal([1, 2, 3], degree=2)
    assert f.pad(5).degree == 5 and f.pad(5).coeff(5).item().is_zero()
    assert f.truncate(1).degree == 1
    s = f.shift(2)
    assert s.coeff(2).item() == Quaternion(1.0)
    assert s.coeff(0).item().is_zero()


def test_series_sym_is_real():
    """f * f^c has real coefficients; for 1 - p a they are 1, -2 Re a, |a|^2."""
    a = Quaternion(0.2, 0.5, -0.1, 0.3)
    f = scal([Quaternion(1.0), -a], degree=4)
    s = series_sym(f)
    want = [1.0, -2 * a.real, a.norm_sq(), 0.0, 0.0]
    for n, w in enumerate(want):
        c = s.coeff(n).item()
        assert c.is_real(tol=1e-13)
        assert abs(c.real - w) < 1e-13


def test_star_resolvent_inverts_linear_pencil():
    g = rng(3)
    A = QMatrix.from_entries([[random_quaternion(g, 0.4) for _ in range(2)]
                              for _ in range(2)])
    R = star_resolvent(A, 8)
    pencil = SliceSeries.polynomial([QMatrix.eye(2), -A], degree=8)
    prod = star_mul(pencil, R)
    assert (prod.coeff(0) - QMatrix.eye(2)).norm() < 1e-13
    assert prod.norm_tail(1) < 1e-12


def test_star_resolvent_is_the_power_sequence():
    g = rng(8)
    A = random_qmatrix(g, 3, scale=0.4)
    R = star_resolvent(A, 20)
    power = QMatrix.eye(3)
    for n in range(21):
        assert (R.coeff(n) - power).norm() <= 1e-13 * (1.0 + power.norm())
        power = power @ A
    assert star_resolvent(A, 0).degree == 0


def frozen_left_eval_oracle():
    # hand computation: C = j, A = j, p = i/2 gives
    #   sum_n p^n C A^n = j(1 + 1/4 + ...) - i(1/2)(1 + 1/4 + ...)
    #                   = (4/3) j - (2/3) i
    return Quaternion(0, -2.0 / 3.0, 4.0 / 3.0, 0)


def test_star_left_eval_frozen_oracle():
    C = QMatrix.scalar(QJ)
    A = QMatrix.scalar(QJ)
    p = Quaternion(0, 0.5)
    got = star_left_eval(C, A, p).item()
    assert (got - frozen_left_eval_oracle()).is_zero(tol=1e-13)


def test_star_left_eval_matches_series_sum():
    g = rng(4)
    A = QMatrix.from_entries([[random_quaternion(g, 0.3) for _ in range(2)]
                              for _ in range(2)])
    A = A * (0.5 / A.norm2())  # keep |p| * ||A|| well below 1
    C = QMatrix.from_entries([[random_quaternion(g) for _ in range(2)]])
    p = random_quaternion(g, 0.4)
    p = p * (0.5 / abs(p))
    # brute force: sum p^n (C A^n) far past the tail
    acc = QMatrix.zeros(1, 2)
    term = C
    pk = Quaternion(1.0)
    for n in range(120):
        acc = acc + pk * term
        term = term @ A
        pk = pk * p
    got = star_left_eval(C, A, p)
    assert (got - acc).norm() < 1e-12


def test_star_resolvent_eval_matches_series_sum():
    g = rng(5)
    A = QMatrix.from_entries([[random_quaternion(g, 0.3) for _ in range(2)]
                              for _ in range(2)])
    A = A * (0.5 / A.norm2())
    p = random_quaternion(g, 0.4)
    p = p * (0.5 / abs(p))
    acc = QMatrix.zeros(2, 2)
    term = QMatrix.eye(2)
    pk = Quaternion(1.0)
    for n in range(120):
        acc = acc + pk * term
        term = term @ A
        pk = pk * p
    assert (star_resolvent_eval(A, p) - acc).norm() < 1e-12


def test_eval_differs_from_naive_left_product():
    """C * resolvent-eval is the wrong order when C is quaternionic."""
    C = QMatrix.scalar(QJ)
    A = QMatrix.scalar(QJ)
    p = Quaternion(0, 0.5)
    naive = (C @ star_resolvent_eval(A, p)).item()
    assert not (star_left_eval(C, A, p).item() - naive).is_zero(tol=1e-3)


def test_dict_roundtrip():
    g = rng(6)
    f = random_scalar_series(g, 5)
    f2 = SliceSeries.from_dict(f.to_dict())
    assert f2.degree == 5
    for n in range(6):
        assert f2.coeff(n).allclose(f.coeff(n))
