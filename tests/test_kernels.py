"""Kernel coefficient tables, their sections and negative-square counts."""

import numpy as np
import pytest
from conftest import PROPERTY
from hypothesis import given, strategies as st

from qschur import (
    NonFiniteInputError,
    NotHermitianError,
    QMatrix,
    Quaternion,
    QJ,
    ShapeError,
    SliceSeries,
    blaschke_point,
    blaschke_product,
    blaschke_reciprocal,
    herm_eig,
    lower_toeplitz,
    neg_squares,
    star_mul,
    star_inverse,
)
from qschur.kernels import KernelCoeffs
from qschur.sampling import (
    ball_point,
    random_hermitian,
    random_qmatrix,
    random_scalar_series,
    random_unitary,
    rng,
)
from oracles import kernel_value_by_horner, neg_squares_by_section


def brute_coeff(S, n, m):
    """Definition written out directly, scalar case."""
    acc = Quaternion()
    for k in range(min(n, m) + 1):
        acc = acc + S.coeff(n - k).item() * S.coeff(m - k).item().conj()
    delta = Quaternion(1.0) if n == m else Quaternion()
    return delta - acc


def test_coeff_matches_definition():
    g = rng(60)
    S = random_scalar_series(g, 8)
    kc = KernelCoeffs(S)
    for n in range(6):
        for m in range(6):
            want = brute_coeff(S, n, m)
            assert (kc.coeff(n, m).item() - want).is_zero(tol=1e-12)


def brute_block(S, sigma1, sigma2, n, m):
    """a_{n,m} entry by entry in Quaternion arithmetic, any signatures."""
    r, c = S.shape
    out = [[sigma2.entry(i, j) if n == m else Quaternion() for j in range(r)]
           for i in range(r)]
    for k in range(min(n, m) + 1):
        left, right = S.coeff(n - k), S.coeff(m - k)
        for i in range(r):
            for j in range(r):
                for a in range(c):
                    for b in range(c):
                        out[i][j] = out[i][j] - (left.entry(i, a) * sigma1.entry(a, b)
                                                 * right.entry(j, b).conj())
    return QMatrix.from_entries(out)


@PROPERTY
@given(seed=st.integers(0, 2 ** 32 - 1), r=st.integers(1, 3), c=st.integers(1, 3),
       degree=st.integers(0, 5), mu=st.integers(0, 6))
def test_block_matrix_matches_entrywise_formula(seed, r, c, degree, mu):
    """Sections against the definition, with indefinite non-identity signatures
    and sections reaching past the series degree."""
    gen = rng(seed)
    S = SliceSeries([random_qmatrix(gen, r, c, 0.5) for _ in range(degree + 1)])
    sigma1 = random_hermitian(gen, c)
    sigma2 = random_hermitian(gen, r)
    A = KernelCoeffs(S, sigma1, sigma2).block_matrix(mu)
    assert A.shape == ((mu + 1) * r, (mu + 1) * r)
    for n in range(mu + 1):
        for m in range(mu + 1):
            want = brute_block(S, sigma1, sigma2, n, m)
            got = QMatrix.from_entries([[A.entry(n * r + i, m * r + j) for j in range(r)]
                                        for i in range(r)])
            assert (got - want).norm() <= 1e-13 * (1.0 + want.norm())


def test_value_matches_double_series():
    """Kernel value vs a literal double sum over (n, m)."""
    g = rng(61)
    S = random_scalar_series(g, 8)
    kc = KernelCoeffs(S)
    p = ball_point(g, 0.6)
    q = ball_point(g, 0.6)
    deg = 8
    acc = Quaternion()
    for n in range(deg + 1):
        for m in range(deg + 1):
            acc = acc + (p ** n) * kc.coeff(n, m).item() * (q.conj() ** m)
    got = kc.value(p, q, deg).item()
    assert (got - acc).is_zero(tol=1e-11)


def _point(gen, kind):
    if kind == "ball":
        return ball_point(gen, 0.95)
    if kind == "real":
        return Quaternion(gen.uniform(-0.95, 0.95))
    return Quaternion()


@PROPERTY
@given(seed=st.integers(0, 2 ** 32 - 1), r=st.integers(1, 2),
       degree=st.sampled_from([0, 1, 8, 40, 64]),
       p_kind=st.sampled_from(["ball", "real", "zero"]),
       q_kind=st.sampled_from(["ball", "real", "zero"]))
def test_value_matches_horner_sweeps(seed, r, degree, p_kind, q_kind):
    """The one-product kernel value against the Horner sweeps it replaced,
    for a series with coefficients decaying like 0.8^n."""
    gen = rng(seed)
    S = SliceSeries([random_qmatrix(gen, r, r, 0.5) * 0.8 ** n for n in range(degree + 1)])
    kc = KernelCoeffs(S)
    p, q = _point(gen, p_kind), _point(gen, q_kind)
    want = kernel_value_by_horner(kc, p, q, degree)
    assert (kc.value(p, q, degree) - want).norm() <= 1e-13 * (1.0 + want.norm())


def test_sections_are_hermitian():
    g = rng(62)
    S = random_scalar_series(g, 10)
    kc = KernelCoeffs(S)
    for mu in (0, 3, 7):
        assert kc.block_matrix(mu).herm_defect() < 1e-12
    # entrywise: a_{n,m}* = a_{m,n}
    assert (kc.coeff(2, 5).adjoint() - kc.coeff(5, 2)).norm() < 1e-13


def test_kernel_value_hermitian_symmetry():
    g = rng(63)
    S = random_scalar_series(g, 8)
    kc = KernelCoeffs(S)
    p = ball_point(g, 0.5)
    q = ball_point(g, 0.5)
    kpq = kc.value(p, q, 8).item()
    kqp = kc.value(q, p, 8).item()
    assert (kpq - kqp.conj()).is_zero(tol=1e-12)


def test_sigma_shape_guards():
    g = rng(64)
    S = random_scalar_series(g, 4)
    with pytest.raises(ShapeError):
        KernelCoeffs(S, sigma1=QMatrix.eye(2))
    with pytest.raises(ShapeError):
        KernelCoeffs(S, sigma2=QMatrix.eye(3))


def test_matrix_valued_kernel_runs():
    g = rng(65)
    coeffs = [QMatrix.from_entries([[0.2, 0.1], [0.0, QJ * 0.3]]),
              QMatrix.from_entries([[0.1, 0.0], [0.05, -0.1]])]
    S = SliceSeries.polynomial(coeffs, degree=6)
    kc = KernelCoeffs(S)
    assert kc.coeff(0, 0).shape == (2, 2)
    assert kc.block_matrix(4).herm_defect() < 1e-12


# ---------------------------------------------------------------------------
# negative squares
# ---------------------------------------------------------------------------


def test_identity_function_is_schur():
    """S(p) = p: the kernel is positive, zero negative squares everywhere."""
    res = neg_squares(SliceSeries.variable(12), mu_max=10)
    assert res.kappa == 0
    assert res.counts == [0] * 11
    assert res.stabilized


def test_constant_contraction_is_schur():
    res = neg_squares(SliceSeries.constant(Quaternion(0.3, 0.4), 10), mu_max=8)
    assert res.kappa == 0 and res.stabilized


def test_reciprocal_blaschke_has_one_negative_square():
    b = Quaternion(0.25, 0.4, 0.1)
    S = blaschke_reciprocal(b, degree=14).series
    res = neg_squares(S, mu_max=10)
    assert res.kappa == 1
    assert res.stabilized
    # count never exceeds one along the sweep
    assert max(res.counts) == 1


def test_two_reciprocal_factors_give_two():
    f1 = blaschke_point(Quaternion(0.0, 0.6), 14)
    f2 = blaschke_point(Quaternion(0.5), 14)
    S = star_inverse(star_mul(f1, f2))
    res = neg_squares(S, mu_max=10)
    assert res.kappa == 2
    assert res.stabilized


def test_unimodular_constant_boundary_case():
    """|c| = 1 exactly: every section is singular but has no negative part."""
    c = Quaternion(0.6, 0.8)
    res = neg_squares(SliceSeries.constant(c, 8), mu_max=6)
    assert res.kappa == 0


def test_rounding_noise_is_not_a_negative_square():
    """A unitary constant plus coefficients at rounding size: every section
    I - L L* cancels to noise, so a threshold relative to its eigenvalues
    alone counted noise (kappa 6 at mu 12); the rounding floor counts none."""
    gen = rng(70)
    noise = [random_qmatrix(gen, 1, 1, 1e-17) for _ in range(20)]
    res = neg_squares(SliceSeries([QMatrix.eye(1)] + noise), mu_max=12)
    assert res.counts == [0] * 13 and res.kappa == 0
    U = random_unitary(gen, 2)
    noise = [random_qmatrix(gen, 2, 2, 1e-16) for _ in range(12)]
    assert neg_squares(SliceSeries([U] + noise), mu_max=10).kappa == 0


def test_zero_threshold_is_relative_above_rounding_level():
    """Off the rounding floor the threshold is 1e-8 max|eigenvalue|, and
    scaling both signatures scales the thresholds and keeps the counts."""
    f1 = blaschke_point(Quaternion(0.0, 0.6), 14)
    f2 = blaschke_point(Quaternion(0.5), 14)
    S = star_mul(star_inverse(star_mul(f1, f2)), SliceSeries.constant(Quaternion(0.5, 0.3), 14))
    res = neg_squares(S, mu_max=10)
    A = KernelCoeffs(S).block_matrix(10)
    for mu, t in enumerate(res.tols):
        w = np.linalg.eigvalsh(A[:mu + 1, :mu + 1].complex_adjoint())
        assert t == pytest.approx(1e-8 * np.max(np.abs(w)), rel=1e-12)
    small = QMatrix.eye(1) * 1e-12
    scaled = neg_squares(S, sigma1=small, sigma2=small, mu_max=10)
    assert scaled.counts == res.counts and res.kappa == 2
    assert np.allclose(scaled.tols, np.array(res.tols) * 1e-12, rtol=1e-9)


@PROPERTY
@given(seed=st.integers(0, 2 ** 32 - 1), kappa=st.integers(0, 2), mu_max=st.integers(0, 10))
def test_neg_squares_matches_herm_eig_per_section(seed, kappa, mu_max):
    gen = rng(seed)
    S = SliceSeries.constant(ball_point(gen, 0.9), 10)
    for _ in range(kappa):
        b = ball_point(gen, 0.8)
        S = star_mul(S, blaschke_reciprocal(b, degree=10).series)
    res = neg_squares(S, mu_max=mu_max)
    kc = KernelCoeffs(S)
    want = [herm_eig(kc.block_matrix(mu))[0].negatives for mu in range(mu_max + 1)]
    assert res.counts == want
    assert res.kappa == max(want)


@PROPERTY
@given(seed=st.integers(0, 2 ** 32 - 1), kappa=st.integers(0, 3), mu_max=st.sampled_from([12, 20]))
def test_neg_squares_matches_per_section_loop(seed, kappa, mu_max):
    """Sections cut from one interleaved chi against one complex adjoint per
    section, on products of kappa reciprocal factors, a two-zero Blaschke
    product and a constant, as in the kernel benchmark workload."""
    gen = rng(seed)
    S = SliceSeries.one(mu_max)
    for _ in range(kappa):
        S = star_mul(S, blaschke_reciprocal(ball_point(gen, 0.85), mu_max).series)
    zeros = [ball_point(gen, 0.8) for _ in range(2)]
    S = star_mul(S, blaschke_product(zeros, mu_max).series) * ball_point(gen, 0.8)
    res = neg_squares(S, mu_max=mu_max)
    want = neg_squares_by_section(S, mu_max=mu_max)
    assert res.counts == want.counts and res.kappa == want.kappa
    assert res.stabilized == want.stabilized
    assert np.allclose(res.tols, want.tols, rtol=1e-12, atol=0.0)


def test_non_finite_coefficient_rejected():
    """A NaN coefficient used to reach eigvalsh and fail to converge there."""
    S = SliceSeries.polynomial([Quaternion(0.5), Quaternion(float("nan"))], degree=6)
    with pytest.raises(NonFiniteInputError):
        neg_squares(S, mu_max=4)
    S = SliceSeries.polynomial([Quaternion(0.5), Quaternion(0.0, float("inf"))], degree=6)
    # inf times the zero blocks of the Toeplitz section is NaN, with a warning
    with pytest.raises(NonFiniteInputError), np.errstate(invalid="ignore"):
        neg_squares(S, mu_max=4)


def test_non_hermitian_signature_rejected():
    S = random_scalar_series(rng(69), 6)
    with pytest.raises(NotHermitianError):
        neg_squares(S, sigma1=QMatrix.scalar(Quaternion(0.0, 1.0)), mu_max=4)


def test_counts_table_and_clamp():
    S = SliceSeries.variable(4)
    res = neg_squares(S, mu_max=99)
    assert res.table()[-1][0] == 4  # clamped to the series degree
    assert len(res.tols) == len(res.counts)


def test_lower_toeplitz_structure():
    g = rng(66)
    f = random_scalar_series(g, 5)
    L = lower_toeplitz(f, 4)
    assert L.shape == (5, 5)
    for n in range(5):
        for m in range(5):
            want = f.coeff(n - m).item() if n >= m else Quaternion()
            assert (L.entry(n, m) - want).is_zero(tol=1e-14)


def test_lower_toeplitz_implements_star_product():
    g = rng(67)
    f = random_scalar_series(g, 6)
    h = random_scalar_series(g, 6)
    L = lower_toeplitz(f, 6)
    from qschur import vstack
    x = vstack([h.coeff(n) for n in range(7)])
    y = L @ x
    prod = star_mul(f, h)
    for n in range(7):
        assert (y.entry(n, 0) - prod.coeff(n).item()).is_zero(tol=1e-12)


def test_congruence_by_invertible_toeplitz_preserves_signature():
    """L(alpha) A_mu L(alpha)* has the same inertia when alpha_0 is invertible."""
    g = rng(68)
    S = blaschke_reciprocal(Quaternion(0.3, 0.5), degree=10).series
    A = KernelCoeffs(S).block_matrix(6)
    base, _ = herm_eig(A)
    for _ in range(5):
        alpha = random_scalar_series(g, 6, scale=0.7, floor=0.6)
        L = lower_toeplitz(alpha, 6)
        spec, _ = herm_eig(L @ A @ L.adjoint())
        assert spec.signature == base.signature
