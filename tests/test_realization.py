"""State-space realizations, Stein certificates and the factorization cycle."""

import numpy as np
import pytest
import scipy.linalg
from conftest import jordan_matrix

import qschur.qmatrix as qmatrix_module
import qschur.realization as realization_module
from qschur import (
    BadSignatureError,
    CompletionFailureError,
    ContourSpec,
    InvalidModulusError,
    NonFiniteInputError,
    NotInvertibleAtZeroError,
    NotObservableError,
    QMatrix,
    Quaternion,
    QI,
    QJ,
    Realization,
    ShapeError,
    SliceSeries,
    SpectrumOnUnitSphereError,
    SteinSingularError,
    block,
    blaschke_point,
    blaschke_reciprocal,
    blaschke_reciprocal_realization,
    cascade,
    j_unitary_complete,
    kernel_identity_residuals,
    krein_langer_factor,
    neg_squares,
    realization_eval,
    realization_series,
    realization_sigma_I,
    signature_blocks,
    spectral_split,
    sphere_of,
    star_mul,
    star_solve_left,
    stein_solve,
    vstack,
)
from qschur.qmatrix import from_complex_adjoint, inverse
from qschur.sampling import (
    ball_point,
    matrix_with_spectrum,
    random_qmatrix,
    random_quaternion,
    random_unitary,
    rng,
)
from oracles import (
    j_unitary_complete_by_null_basis,
    phase_normalize_columns_loop,
    realization_series_by_degree,
    stein_solve_by_columns,
)


def series_gap(f, g, degree):
    worst = 0.0
    for n in range(degree + 1):
        worst = max(worst, (f.coeff(n) - g.coeff(n)).norm())
    return worst


def test_stein_scalar_closed_form():
    """1x1 real data: P (1 - a^2) = c^2."""
    P, invertible = stein_solve(QMatrix.scalar(0.5), QMatrix.scalar(1.0), QMatrix.eye(1))
    assert invertible
    assert abs(P.item().real - 1.0 / 0.75) < 1e-12
    assert P.item().is_real(tol=1e-13)


def test_stein_quaternionic_data():
    g = rng(80)
    A = random_qmatrix(g, 3, scale=0.3)
    C = random_qmatrix(g, 2, 3)
    sigma = signature_blocks(1, 1, 0)
    P, _ = stein_solve(A, C, sigma)
    res = (P - A.adjoint() @ P @ A - C.adjoint() @ sigma @ C).norm()
    assert res < 1e-11 * (1 + P.norm())
    assert P.herm_defect() < 1e-12


def test_stein_resonance_raises():
    # eigenvalues 2 and 0.5 multiply to 1: the Stein operator is singular
    A = QMatrix.diag([Quaternion(2.0), Quaternion(0.5)])
    C = QMatrix.from_entries([[1.0, 1.0]])
    with pytest.raises(SteinSingularError):
        stein_solve(A, C, QMatrix.eye(1))


def stein_by_kronecker(A, C, sigma):
    """P - A* P A = C* sigma C as one linear system on vec(chi(P))."""
    a = A.complex_adjoint()
    q = (C.adjoint() @ sigma @ C).complex_adjoint()
    m = len(a)
    M = np.eye(m * m) - np.kron(a.T, a.conj().T)
    x = np.linalg.solve(M, q.flatten(order="F"))
    return from_complex_adjoint(x.reshape(m, m, order="F"))


@pytest.mark.parametrize("near", [-0.99999, -1.00001, -0.999, 0.99999, 1.00001])
@pytest.mark.parametrize("n", [1, 3, 6])
def test_stein_against_kronecker_near_the_unit_circle(near, n):
    """A non-normal A with one eigenvalue close to -1 or +1 (a nearly singular
    Stein operator, |P| ~ 1e5) plus n - 1 inside the ball."""
    g = rng(81 + n)
    pts = [Quaternion(near)] + [ball_point(g, 0.9) for _ in range(n - 1)]
    V = random_qmatrix(g, n) + 2.0 * QMatrix.eye(n)
    A = V @ matrix_with_spectrum(g, pts) @ inverse(V)
    C = random_qmatrix(g, 2, n)
    sigma = signature_blocks(1, 1, 0)
    P, _ = stein_solve(A, C, sigma)
    want = stein_by_kronecker(A, C, sigma)
    assert (P - want).norm() <= 1e-8 * (1.0 + want.norm())
    Q = C.adjoint() @ sigma @ C
    assert (P - A.adjoint() @ P @ A - Q).norm() <= 1e-8 * (1.0 + Q.norm())


# (Jordan blocks, outputs, signature of sigma): defective spheres inside and
# outside the ball, beside simple ones
STEIN_JORDAN_CASES = [
    ([(Quaternion(0.5, 0.3), 3), (Quaternion(-0.2, 0.0, 0.4), 1)], 1, (1, 0)),
    ([(Quaternion(0.3, 1.2), 2), (Quaternion(0.2, 0.0, 0.3), 2)], 2, (1, 1)),
    ([(Quaternion(-0.6, 0.0, 0.0, 0.5), 4), (Quaternion(1.4), 1)], 1, (0, 1)),
    ([(Quaternion(0.1, 0.2, 0.3), 2), (Quaternion(-1.3, 0.5), 3), (Quaternion(0.7), 1)], 2, (2, 0)),
]


@pytest.mark.parametrize("cond", [1.0, 10.0])
@pytest.mark.parametrize("case", range(len(STEIN_JORDAN_CASES)))
def test_stein_solve_matches_column_loop_and_kronecker(case, cond):
    """The ztrsv recursion against the column loop with scipy's
    solve_triangular and against one Kronecker solve, on non-normal A.

    The Kronecker solve has its own forward error, which grows with the
    condition number kappa of its matrix I - chi(A)^T (x) chi(A)*: kappa
    reaches 5.4e6 for the size-4 block under the cond-10 similarity, where
    that solve is off by 5.5e-11 (P) while the loop agrees to 2.5e-13.  It
    is compared at max(1e-12, 1e-16 kappa)."""
    blocks, m, (t, r) = STEIN_JORDAN_CASES[case]
    gen = rng(320 + case)
    A = jordan_matrix(gen, blocks, cond)
    C = random_qmatrix(gen, m, A.rows)
    sigma = signature_blocks(t, r, 0)
    P, _ = stein_solve(A, C, sigma)
    a = A.complex_adjoint()
    kappa = np.linalg.cond(np.eye(len(a) ** 2) - np.kron(a.T, a.conj().T))
    assert (P - stein_solve_by_columns(A, C, sigma)).norm() <= 1e-12 * (1.0 + P.norm())
    assert ((P - stein_by_kronecker(A, C, sigma)).norm()
            <= max(1e-12, 1e-16 * kappa) * (1.0 + P.norm()))


def test_completion_scalar_shift():
    """A = 0, C = 1, sigma = 1 must complete to S(p) = p exactly."""
    R = j_unitary_complete(QMatrix.scalar(0.0), QMatrix.scalar(1.0), QMatrix.eye(1))
    S = realization_series(R, 6)
    assert (S.coeff(1).item() - Quaternion(1.0)).is_zero(tol=1e-14)
    for n in (0, 2, 3, 4, 5, 6):
        assert S.coeff(n).item().is_zero(tol=1e-14)
    assert R.junitary_residual() < 1e-14


def test_completion_scalar_amplified():
    # hand solution for A = 0, C = 2: P = 4, B = 1/2, D = 0
    R = j_unitary_complete(QMatrix.scalar(0.0), QMatrix.scalar(2.0), QMatrix.eye(1))
    assert abs(R.P.item().real - 4.0) < 1e-12
    assert abs(R.B.item().real - 0.5) < 1e-12
    assert abs(R.D.item()) < 1e-12


@pytest.mark.parametrize("a", [400.0, 2000.0])
def test_completion_large_outside_eigenvalue(a):
    """A = a, C = 1, sigma = 1: P = -1/(a^2 - 1) and [B; D] = [a^2 - 1; a]
    by hand.  In the state coordinates the Gram matrix of the complement is
    1/(a^2 - 1)^2, far below its terms of size 1/a^2, and the completion
    must not take it for a neutral direction."""
    R = j_unitary_complete(QMatrix.scalar(a), QMatrix.eye(1), QMatrix.eye(1))
    assert abs(R.P.item().real + 1.0 / (a * a - 1.0)) <= 1e-12 / (a * a)
    assert abs(R.B.item() - Quaternion(a * a - 1.0)) <= 1e-9 * a * a
    assert abs(R.D.item() - Quaternion(a)) <= 1e-9 * a


def test_completion_random_quaternionic():
    g = rng(81)
    A = random_qmatrix(g, 2, scale=0.35)
    C = QMatrix.from_entries([[random_quaternion(g), random_quaternion(g)]])
    R = j_unitary_complete(A, C, QMatrix.eye(1))
    assert R.stein_residual() < 1e-10
    assert R.junitary_residual() < 1e-9
    # J-unitarity forces boundary values of modulus one on every slice
    for _ in range(3):
        theta = g.uniform(0, 2 * np.pi)
        p = Quaternion(np.cos(theta), np.sin(theta))
        v = realization_eval(R, p).item()
        assert abs(abs(v) - 1.0) < 1e-9


def test_completion_indefinite_sigma():
    g = rng(82)
    A = random_qmatrix(g, 2, scale=0.3)
    C = random_qmatrix(g, 2, 2)
    sigma = signature_blocks(1, 1, 0)
    R = j_unitary_complete(A, C, sigma)
    assert R.junitary_residual() < 1e-9
    assert R.sigma.allclose(sigma)


@pytest.mark.parametrize("m, sigma_kind", [(1, "I"), (2, "I"), (3, "I"), (2, "positive"),
                                           (2, "negative")])
def test_completion_is_canonical_for_definite_sigma(monkeypatch, m, sigma_kind):
    """With a definite sigma, [B; D] does not move when the choices made on
    the way change: the shift alpha = 1 against alpha = -1, and unit phases
    on the eigenvectors of every Hermitian eigendecomposition (of chi(P), of
    chi(sigma) and of the Gram matrix in indefinite_gram_schmidt).  Without
    the echelon step the two shifts give different completions.  The state matrix has one sphere outside the ball, so P is
    indefinite."""
    gen = rng(130 + 7 * m + len(sigma_kind))
    pts = [Quaternion(r * np.cos(t), r * np.sin(t))
           for r, t in zip([1.2, 0.7, 0.75, 0.8], np.linspace(0.3, 2.8, 4))]
    A = matrix_with_spectrum(gen, pts)
    C = random_qmatrix(gen, m, 4)
    sigma = QMatrix.eye(m)
    if sigma_kind != "I":
        F = random_qmatrix(gen, m) + QMatrix.eye(m) * 2.0
        sigma = F @ F.adjoint() * (1.0 if sigma_kind == "positive" else -1.0)
    base = j_unitary_complete(A, C, sigma)
    Z0 = vstack([base.B, base.D])
    eigh = np.linalg.eigh

    def phased_eigh(M, *args, **kw):
        w, U = eigh(M, *args, **kw)
        return w, U * np.exp(2j * np.pi * gen.uniform(size=U.shape[1]))

    monkeypatch.setattr(np.linalg, "eigh", phased_eigh)
    for alpha in (1.0, -1.0):
        monkeypatch.setattr(realization_module, "_SHIFTS", (alpha,))
        moved = j_unitary_complete(A, C, sigma)
        assert moved.junitary_residual() <= 1e-9 and base.junitary_residual() <= 1e-9
        assert (vstack([moved.B, moved.D]) - Z0).norm() <= 1e-10 * (1.0 + Z0.norm())
    monkeypatch.setattr(realization_module, "_column_echelon", lambda M: M)
    raw = []
    for alpha in (1.0, -1.0):
        monkeypatch.setattr(realization_module, "_SHIFTS", (alpha,))
        R = j_unitary_complete(A, C, sigma)
        raw.append(vstack([R.B, R.D]))
    assert (raw[0] - raw[1]).norm() >= 1e-3 * Z0.norm()


def completion_sweep():
    """324 fixed-seed cases (A, C, sigma, mixed).

    300 random ones: n 2-8, m 1-3, A with entries of scale 0.2-0.6 (some
    spheres outside the ball, so P is often indefinite), and a diagonal
    sigma of moduli 0.5-2, mixed-sign in the odd cases with m > 1 and
    definite otherwise (negative definite in every fourth case).  Then 28
    non-normal ones: Jordan blocks of size k at 1 + d and -(1 + d), the
    eigenvalues nearest the two shifts alpha = 1 and -1, beside one simple
    sphere, under a unitary or a cond-10 similarity (JORDAN_NEAR_SHIFTS),
    each with sigma = I (m = 1) and diag(1, -1).
    """
    gen = rng(7)
    for case in range(300):
        n, m, scale = int(gen.integers(2, 9)), int(gen.integers(1, 4)), gen.uniform(0.2, 0.6)
        A, C = random_qmatrix(gen, n, scale=scale), random_qmatrix(gen, m, n)
        mags = gen.uniform(0.5, 2.0, size=m)
        mixed = case % 2 == 1 and m > 1
        signs = np.ones(m)
        if mixed:
            signs[:int(gen.integers(1, m))] = -1.0
            gen.shuffle(signs)
        elif case % 4 == 2:
            signs = -signs
        yield A, C, QMatrix.diag((mags * signs).tolist()), mixed
    gen = rng(8)
    for d, k, cond in JORDAN_NEAR_SHIFTS:
        A = jordan_near_shifts(gen, d, k, cond)
        for m in (1, 2):
            sigma = QMatrix.eye(1) if m == 1 else QMatrix.diag([1.0, -1.0])
            yield A, random_qmatrix(gen, m, A.rows), sigma, m == 2


# (d, k, cond) of jordan_near_shifts; cond(P) reaches 3e7.  Nearer +-1, or
# with a larger block or similarity, P fails the observability test or the
# Stein residual check (test_jordan_blocks_at_both_shifts_fail_the_stein_check_first).
JORDAN_NEAR_SHIFTS = [(d, k, cond) for d in (0.3, 0.1) for k in (2, 3) for cond in (1.0, 10.0)]
JORDAN_NEAR_SHIFTS += [(0.03, 2, 1.0), (0.03, 2, 10.0), (0.03, 3, 1.0),
                       (0.01, 2, 1.0), (0.01, 2, 10.0), (0.003, 2, 1.0)]


def jordan_near_shifts(gen, d, k, cond):
    """Size-k Jordan blocks at 1 + d and at -(1 + d) + 0.05 i, and a simple
    eigenvalue 0.3 + 0.2 i, under a similarity of condition number cond."""
    return jordan_matrix(gen, [(Quaternion(1.0 + d), k), (Quaternion(-1.0 - d, 0.05), k),
                               (Quaternion(0.3, 0.2), 1)], cond)


def test_closed_form_completion_against_the_null_basis_path():
    """The closed form with its refinement against the null-basis completion
    it replaced.

    Both end in a Hermitian congruence on a basis of the H-orthogonal
    complement of [A; C], so both are J-unitary to rounding relative to
    1 + ||P|| + ||sigma||.  Measured on this sweep: the ratio of the two
    residuals has median 0.95 and worst 3.4 (the Stein blocks differ too,
    since each path solves for P its own way); the worst relative residual
    is 3.2e-13 (null basis 3.2e-13) for a mixed-sign sigma and 1.6e-11
    (1.9e-11) for a definite one, where the Stein block grows with
    cond(P) = max|eig P| / min|eig P|.  For a definite sigma both are the
    canonical completion, so [B; D] agrees: relative difference median
    1.3e-14, 99th percentile 3e-10, worst 6.3e-9 (cond(P) 3.2e7), and at
    most 9.3e-16 cond(P).  For a mixed-sign sigma the two differ by a
    sigma-unitary factor."""
    definite = mixed_count = 0
    for A, C, sigma, mixed in completion_sweep():
        R = j_unitary_complete(A, C, sigma)
        want = j_unitary_complete_by_null_basis(A, C, sigma)
        lam = np.abs(np.linalg.eigvalsh(R.P.complex_adjoint()))
        cond = lam.max() / lam.min()
        scale = 1.0 + R.P.norm() + sigma.norm()
        assert R.junitary_residual() <= 8.0 * want.junitary_residual() + 1e-15 * scale
        assert R.stein_residual() <= 1e-14 * scale
        if mixed:
            mixed_count += 1
            continue
        definite += 1
        Z, W = vstack([R.B, R.D]), vstack([want.B, want.D])
        assert (Z - W).norm() <= 1e-14 * cond * W.norm()
    assert (definite, mixed_count) == (218, 110)


def near_degenerate_pair(gen, p_eigs, s_eigs):
    """(A, C, sigma) with Stein solution P of eigenvalues p_eigs and sigma of
    eigenvalues s_eigs, both under random unitaries.

    With V and W those factors scaled by sqrt|eigenvalue|, T = diag(V, W)
    and J0 the signs, K = expm(J0 X) for a skew-Hermitian X is J0-unitary,
    so U = T^{-*} K T* is diag(P, sigma)-unitary and its first block column
    is [A; C]."""
    n, m = len(p_eigs), len(s_eigs)

    def factor(eigs):
        return random_unitary(gen, len(eigs)) @ QMatrix.diag(np.sqrt(np.abs(eigs)).tolist())

    V, W = factor(p_eigs), factor(s_eigs)
    J0 = QMatrix.diag(np.sign(np.r_[p_eigs, s_eigs]).tolist())
    X = random_qmatrix(gen, n + m, scale=0.2)
    K = from_complex_adjoint(scipy.linalg.expm((J0 @ (X - X.adjoint())).complex_adjoint()))
    T = block([[V, QMatrix.zeros(n, m)], [QMatrix.zeros(m, n), W]])
    U = inverse(T.adjoint()) @ K @ T.adjoint()
    sigma = W @ QMatrix.diag(np.sign(s_eigs).tolist()) @ W.adjoint()
    return U[0:n, 0:n], U[n:n + m, 0:n], (sigma + sigma.adjoint()) * 0.5


@pytest.mark.parametrize("s_kind", ["one", "positive", "indefinite", "negative"])
@pytest.mark.parametrize("gap", [1e-11, 1e-10, 1e-9, 1e-7])
def test_completion_with_near_degenerate_P_and_sigma(gap, s_kind):
    """P has two pairs of eigenvalues gap apart, and sigma one pair when it
    has two outputs: the completion stays J-unitary to rounding."""
    s_eigs = {"one": [1.0], "positive": [1.0, 1.0 + gap], "indefinite": [1.0, -1.0 - gap],
              "negative": [-1.0, -1.0 + gap]}[s_kind]
    for seed in range(5):
        gen = rng(140 + seed)
        A, C, sigma = near_degenerate_pair(gen, [-2.0, -2.0 + gap, 0.7, 0.7 + gap, 1.5], s_eigs)
        R = j_unitary_complete(A, C, sigma)
        assert R.junitary_residual() <= 1e-12 * (1.0 + R.P.norm())


def test_phase_normalize_columns_matches_entry_loop():
    """The array form against one Quaternion per entry, with a zero column and
    a column whose largest entry appears twice (the first one is the lead)."""
    gen = rng(141)
    Y = random_qmatrix(gen, 5, 4)
    a, b = Y._a.copy(), Y._b.copy()
    a[:, 1] = b[:, 1] = 0.0
    a[[1, 4], 2], b[[1, 4], 2] = 10.0 + 2.0j, 1.0 - 3.0j
    Y = QMatrix(a, b)
    got = realization_module._phase_normalize_columns(Y)
    want = phase_normalize_columns_loop(Y)
    assert (got - want).norm() <= 1e-15 * Y.norm()
    assert got.column(1).norm() == 0.0
    assert got.entry(1, 2).is_real() and got.entry(1, 2).real > 0.0


def test_completion_refuses_when_both_shifts_are_ill_conditioned():
    """Eigenvalues 1 + 5e-9 and -(1 + 5e-9) clear the Stein resonance test
    and give a well-conditioned P, but leave chi(alpha I - A) with a
    reciprocal condition estimate of about 2.5e-9 for alpha = 1 and -1.
    The null-basis completion completed this pair."""
    d = 5e-9
    A = QMatrix.diag([Quaternion(1.0 + d), Quaternion(-1.0 - d)])
    with pytest.raises(CompletionFailureError, match="ill-conditioned"):
        j_unitary_complete(A, QMatrix.from_entries([[1.0, 1.0]]), QMatrix.eye(1))


@pytest.mark.parametrize("d, k", [(3e-3, 3), (2e-3, 3), (1e-3, 3), (1e-4, 2), (1e-4, 3), (1e-5, 2)])
def test_jordan_blocks_at_both_shifts_fail_the_stein_check_first(d, k):
    """Size-k Jordan blocks at 1 + d and -(1 + d) leave chi(alpha I - A)
    with a reciprocal condition estimate of about d^k, at most _SHIFT_RCOND
    for both shifts here.  The Stein operator is then as ill-conditioned,
    and the Stein residual check refuses the pair before the shift test:
    the null-basis completion refused these pairs with the same error, so
    CompletionFailureError is new only for nearly simple eigenvalues."""
    gen = rng(9)
    A = jordan_matrix(gen, [(Quaternion(1.0 + d), k), (Quaternion(-1.0 - d), k),
                            (Quaternion(0.3, 0.2), 1)])
    chiA = A.complex_adjoint()
    assert max(realization_module._shifted_lu(chiA, alpha)[0]
               for alpha in (1.0, -1.0)) <= realization_module._SHIFT_RCOND
    for m in (1, 2):
        sigma = QMatrix.eye(1) if m == 1 else QMatrix.diag([1.0, -1.0])
        with pytest.raises(SteinSingularError):
            j_unitary_complete(A, random_qmatrix(gen, m, A.rows), sigma)


def test_completion_refuses_a_refinement_that_loses_a_direction(monkeypatch):
    """A basis of the span of [B; D] with fewer than m columns would give a
    B and D of the wrong shape; it is refused by name."""
    A, C = QMatrix.eye(2) * 0.5, QMatrix.eye(2)
    gram_schmidt = realization_module.gram_schmidt_columns
    monkeypatch.setattr(realization_module, "gram_schmidt_columns",
                        lambda M: (gram_schmidt(M)[0][0:M.rows, 0:1], 1))
    with pytest.raises(CompletionFailureError, match="lost its signature"):
        j_unitary_complete(A, C, QMatrix.diag([1.0, -1.0]))


def test_completion_unobservable_raises():
    A = QMatrix.scalar(0.5)
    C = QMatrix.scalar(0.0)  # sees nothing
    with pytest.raises(NotObservableError):
        j_unitary_complete(A, C, QMatrix.eye(1))


@pytest.mark.parametrize("eps", [1.0, 1e-3, 1e-5, 1e-6, 1e-9, 1e-12])
def test_completion_does_not_depend_on_the_scale_of_C(eps):
    """C -> eps C scales P by eps^2, B by 1/eps and keeps D.  Observability
    is decided relative to the largest eigenvalue modulus of P; an absolute
    floor refused the pair at eps = 1e-6, and the null-basis completion at
    eps = 1e-9 ("metric complement has dimension 2")."""
    g = rng(5)
    A = random_qmatrix(g, 3, scale=0.3)
    C = random_qmatrix(g, 1, 3)
    for complete in (lambda A, C: j_unitary_complete(A, C, QMatrix.eye(1)), realization_sigma_I):
        ref = complete(A, C)
        R = complete(A, C * eps)
        assert (R.D - ref.D).norm() <= 1e-9
        assert (R.B * eps - ref.B).norm() <= 1e-9


def test_realization_shape_guards():
    with pytest.raises(ShapeError):
        Realization(QMatrix.zeros(2, 3), QMatrix.zeros(2, 1),
                    QMatrix.zeros(1, 2), QMatrix.zeros(1, 1))
    with pytest.raises(ShapeError):
        Realization(QMatrix.zeros(2, 2), QMatrix.zeros(3, 1),
                    QMatrix.zeros(1, 2), QMatrix.zeros(1, 1))


def test_eval_matches_series_small_point():
    g = rng(83)
    A = random_qmatrix(g, 3, scale=0.25)
    C = QMatrix.from_entries([[random_quaternion(g) for _ in range(3)]])
    R = j_unitary_complete(A, C, QMatrix.eye(1))
    S = realization_series(R, 80)
    p = ball_point(g, 0.3)
    assert abs(realization_eval(R, p).item() - S.eval(p).item()) < 1e-11


def test_dict_roundtrip():
    R = blaschke_reciprocal_realization(Quaternion(0.3, 0.4))
    R2 = Realization.from_dict(R.to_dict())
    assert R2.A.allclose(R.A) and R2.P.allclose(R.P)
    assert R2.sigma.allclose(R.sigma)


# ---------------------------------------------------------------------------
# Moebius map from the definite-metric completion
# ---------------------------------------------------------------------------


def test_sigma_I_gives_moebius_map():
    """(A, C) = (0.5, 1): S(p) = (p - a)(1 - p a)^{-*} with a = 0.5."""
    a = 0.5
    R = realization_sigma_I(QMatrix.scalar(a), QMatrix.scalar(1.0))
    assert abs(R.B.item().real - 0.75) < 1e-12
    assert abs(R.D.item().real + 0.5) < 1e-12
    S = realization_series(R, 10)
    assert abs(S.coeff(0).item().real + a) < 1e-12
    for n in range(1, 11):
        want = (1 - a * a) * a ** (n - 1)
        assert abs(S.coeff(n).item().real - want) < 1e-12
    assert R.junitary_residual() < 1e-12


def test_sigma_I_quaternionic_state():
    g = rng(84)
    A = random_qmatrix(g, 2, scale=0.3)
    C = QMatrix.from_entries([[random_quaternion(g), random_quaternion(g)]])
    R = realization_sigma_I(A, C)
    assert R.junitary_residual() < 1e-9


# ---------------------------------------------------------------------------
# kernel identity
# ---------------------------------------------------------------------------


def test_kernel_identity_certified_case():
    g = rng(85)
    A = random_qmatrix(g, 2, scale=0.3)
    C = QMatrix.from_entries([[random_quaternion(g), random_quaternion(g)]])
    R = j_unitary_complete(A, C, QMatrix.eye(1))
    for _ in range(4):
        p = ball_point(g, 0.5)
        q = ball_point(g, 0.5)
        assert kernel_identity_residuals(R, [(p, q)], degree=48)[0] < 1e-8


def test_kernel_identity_reciprocal_factor():
    R = blaschke_reciprocal_realization(Quaternion(0.25, 0.4, 0.1))
    g = rng(86)
    p = ball_point(g, 0.5)
    q = ball_point(g, 0.5)
    assert kernel_identity_residuals(R, [(p, q)], degree=48)[0] < 1e-8


def test_kernel_identity_detects_wrong_metric():
    """Negative control: perturbing P must break the identity at O(eps)."""
    g = rng(87)
    A = random_qmatrix(g, 2, scale=0.3)
    C = QMatrix.from_entries([[random_quaternion(g), random_quaternion(g)]])
    R = j_unitary_complete(A, C, QMatrix.eye(1))
    p = ball_point(g, 0.5)
    q = ball_point(g, 0.5)
    bad = Realization(R.A, R.B, R.C, R.D, sigma=R.sigma,
                      P=R.P + 0.01 * QMatrix.eye(2))
    assert kernel_identity_residuals(bad, [(p, q)], degree=48)[0] > 1e-4


def test_kernel_identity_needs_the_stein_solution():
    """A cascade carries no P; the identity has nothing to compare against."""
    R = blaschke_reciprocal_realization(Quaternion(0.25, 0.4, 0.1))
    casc = cascade(R, R)
    assert casc.P is None
    with pytest.raises(ShapeError, match="Stein solution P"):
        kernel_identity_residuals(casc, [(Quaternion(0.1), Quaternion(0.2))], degree=8)


# ---------------------------------------------------------------------------
# cascades and the reciprocal factor realization
# ---------------------------------------------------------------------------


def test_cascade_multiplies_series():
    g = rng(88)
    R1 = j_unitary_complete(random_qmatrix(g, 2, scale=0.3),
                            QMatrix.from_entries([[random_quaternion(g), random_quaternion(g)]]),
                            QMatrix.eye(1))
    R2 = realization_sigma_I(QMatrix.scalar(0.4), QMatrix.scalar(1.0))
    R = cascade(R1, R2)
    assert R.state_dim == 3
    want = star_mul(realization_series(R1, 12), realization_series(R2, 12))
    got = realization_series(R, 12)
    assert series_gap(got, want, 12) < 1e-12


@pytest.mark.parametrize("case", range(8))
def test_realization_series_matches_per_degree_loop(case):
    """The doubling power sweep against one QMatrix product per coefficient,
    on random state matrices and on Jordan blocks, inside and outside."""
    g = rng(300 + case)
    n, m, p = 1 + case % 5, 1 + case % 2, 1 + case % 3
    if case % 2:
        lam = Quaternion(0.6, 0.5) * (0.9 if case < 4 else 1.2)
        A = jordan_matrix(g, [(lam, n)], cond=1.0 if case < 6 else 10.0)
    else:
        A = random_qmatrix(g, n)
        A = A * ((0.8 if case < 4 else 1.2) / A.norm2())
    B, C, D = random_qmatrix(g, n, p), random_qmatrix(g, m, n), random_qmatrix(g, m, p)
    got = realization_series(Realization(A, B, C, D), 48)
    want = realization_series_by_degree(A, B, C, D, 48)
    bound = [D.norm()] + [C.norm() * B.norm() * max(1.0, A.norm2()) ** (k - 1)
                          for k in range(1, 49)]
    assert got.shape == (m, p) and got.degree == 48
    assert np.all((got - want).coeff_norms() <= 1e-13 * np.array(bound))
    assert realization_series(Realization(A, B, C, D), 0).coeff(0).allclose(D, tol=0.0)


def test_cascade_shape_guard():
    R1 = realization_sigma_I(QMatrix.scalar(0.4), QMatrix.from_entries([[1.0], [0.5]]))
    R2 = realization_sigma_I(QMatrix.scalar(0.3), QMatrix.scalar(1.0))
    with pytest.raises(ShapeError):
        cascade(R2, R1)  # 1-input meets 2-output


def test_reciprocal_realization_matches_series():
    b = Quaternion(0.3, -0.2, 0.4)
    c = Quaternion(0.6, 0.8)  # unimodular
    R = blaschke_reciprocal_realization(b, c)
    got = realization_series(R, 12)
    want = blaschke_reciprocal(b, degree=12).series * c
    assert series_gap(got, want, 12) < 1e-9
    assert R.junitary_residual() < 1e-12
    assert R.stein_residual() < 1e-12
    # the metric certificate has exactly one negative direction
    assert R.P.item().real < 0


def test_reciprocal_realization_nonunimodular_gain():
    """|c| != 1 still multiplies the series but breaks J-unitarity."""
    b = Quaternion(0.3, 0.4)
    R = blaschke_reciprocal_realization(b, Quaternion(0.5))
    got = realization_series(R, 8)
    want = blaschke_reciprocal(b, degree=8).series * Quaternion(0.5)
    assert series_gap(got, want, 8) < 1e-10
    assert R.junitary_residual() > 0.1


def test_reciprocal_realization_rejects_bad_modulus():
    with pytest.raises(NotInvertibleAtZeroError):
        blaschke_reciprocal_realization(Quaternion(0.0))
    with pytest.raises(InvalidModulusError):
        blaschke_reciprocal_realization(Quaternion(1.2))
    with pytest.raises(InvalidModulusError):
        blaschke_reciprocal_realization(Quaternion(0.6, 0.8))


def test_reciprocal_realization_rejects_non_finite_data():
    """A NaN b once passed the modulus test and gave an all-NaN realization."""
    with pytest.raises(NonFiniteInputError):
        blaschke_reciprocal_realization(Quaternion(float("nan")))
    with pytest.raises(NonFiniteInputError):
        blaschke_reciprocal_realization(Quaternion(0.3, float("inf")))
    with pytest.raises(NonFiniteInputError):
        blaschke_reciprocal_realization(Quaternion(0.3), Quaternion(0.0, 0.0, float("inf")))


# ---------------------------------------------------------------------------
# factorization roundtrips
# ---------------------------------------------------------------------------


def reciprocal_model(b, a):
    """kappa = 1 model: one reciprocal factor cascaded with a Moebius map."""
    R1 = blaschke_reciprocal_realization(b)
    R2 = realization_sigma_I(QMatrix.scalar(a), QMatrix.scalar(1.0))
    return cascade(R1, R2)


def test_factor_degree_one_roundtrip():
    b = Quaternion(0.25, 0.4, 0.1)
    R = reciprocal_model(b, 0.4)
    f = krein_langer_factor(R, degree=40)
    assert f.kappa == 1
    assert len(f.zero_spheres) == 1
    sph, mult = f.zero_spheres[0]
    assert mult == 1
    assert sph.isclose(sphere_of(b), tol=1e-6)
    # the plain part carries no negative squares
    assert neg_squares(f.schur_series.truncate(12), mu_max=8).kappa == 0
    # reconstruction: W * S0 = S, relative to the coefficient size
    S = realization_series(R, 40)
    recon = star_mul(f.w_series, f.schur_series)
    for n in range(41):
        gap = (recon.coeff(n) - S.coeff(n)).norm()
        assert gap < 1e-6 * (1 + S.coeff(n).norm())


def test_factor_degree_two_roundtrip():
    b1 = Quaternion(0.25, 0.4, 0.1)
    b2 = Quaternion(-0.35, 0.0, 0.0, 0.3)
    R1 = blaschke_reciprocal_realization(b1)
    R2 = blaschke_reciprocal_realization(b2)
    R3 = realization_sigma_I(QMatrix.scalar(0.3), QMatrix.scalar(1.0))
    R = cascade(R1, cascade(R2, R3))
    f = krein_langer_factor(R, degree=40)
    assert f.kappa == 2
    got = sorted((s.re, s.im_mag) for s, _ in f.zero_spheres)
    want = sorted((s.re, s.im_mag) for s in (sphere_of(b1), sphere_of(b2)))
    for (gr, gi), (wr, wi) in zip(got, want):
        assert abs(gr - wr) < 1e-6 and abs(gi - wi) < 1e-6
    assert neg_squares(f.schur_series.truncate(12), mu_max=8).kappa == 0


def test_factor_outside_eigenvalue_far_from_the_ball():
    """An outside eigenvalue 400j beside an inside state: the outside
    restriction is completed although its Gram matrix is about 4e-11."""
    A = QMatrix.diag([Quaternion(0.0, 400.0), Quaternion(0.3)])
    R = Realization(A, QMatrix.from_entries([[1.0], [0.5]]), QMatrix.from_entries([[1.0, 1.0]]),
                    QMatrix.scalar(0.2), sigma=QMatrix.eye(1))
    f = krein_langer_factor(R, degree=8)
    assert f.kappa == 1
    [(sphere, mult)] = f.zero_spheres
    assert mult == 1 and sphere.isclose(sphere_of(Quaternion(0.0, 1.0 / 400.0)), tol=1e-12)
    S = realization_series(R, 8)
    recon = star_mul(f.w_series, f.schur_series)
    for n in range(9):
        assert (recon.coeff(n) - S.coeff(n)).norm() <= 1e-8 * (1.0 + S.coeff(n).norm())


def test_factor_schur_input_passes_through():
    """No outside spectrum: kappa = 0 and S0 is S itself."""
    R = realization_sigma_I(QMatrix.scalar(0.5), QMatrix.scalar(1.0))
    f = krein_langer_factor(R, degree=16)
    assert f.kappa == 0
    assert f.zero_spheres == []
    S = realization_series(R, 16)
    assert series_gap(f.schur_series, S, 16) < 1e-12


def test_factor_compose_consistency():
    """blaschke_series carries B itself: B^{-*} * S0 rebuilds S."""
    b = Quaternion(0.3, 0.35)
    R = reciprocal_model(b, 0.25)
    f = krein_langer_factor(R, degree=30)
    S = realization_series(R, 30)
    back = star_solve_left(f.blaschke_series, f.schur_series)
    for n in range(31):
        assert (back.coeff(n) - S.coeff(n)).norm() < 1e-6 * (1 + S.coeff(n).norm())


def test_factor_unit_sphere_guard():
    u = Quaternion(0.6, 0.8)  # |u| = 1
    R = Realization(QMatrix.scalar(u), QMatrix.scalar(1.0),
                    QMatrix.scalar(1.0), QMatrix.scalar(0.0),
                    sigma=QMatrix.eye(1))
    with pytest.raises(SpectrumOnUnitSphereError):
        krein_langer_factor(R)


def test_factor_refuses_an_outside_part_that_is_not_negative_definite():
    """For sigma = -I the Stein solution of the outside part is positive
    definite, so it carries no negative squares."""
    A = QMatrix.from_entries([[complex(0.3, 1.2), 1.0], [0.0, 0.2]])
    R = j_unitary_complete(A, QMatrix.from_entries([[1.0, 0.5]]), -QMatrix.eye(1))
    with pytest.raises(BadSignatureError, match=r"signature \(1, 0, 0\)"):
        krein_langer_factor(R)


def test_factor_defective_state_matrix():
    """A nilpotent Jordan block has all its spectrum inside: kappa = 0 and
    S0 is S itself."""
    A = QMatrix.from_entries([[0, 1], [0, 0]])
    R = Realization(A, QMatrix.from_entries([[1.0], [1.0]]),
                    QMatrix.from_entries([[1.0, 0.0]]), QMatrix.scalar(0.0),
                    sigma=QMatrix.eye(1))
    f = krein_langer_factor(R, degree=16)
    assert f.kappa == 0 and f.zero_spheres == []
    assert series_gap(f.schur_series, realization_series(R, 16), 16) == 0.0


# (Jordan blocks of A, outputs): one outside sphere of multiplicity 2 and one
# of multiplicity 3, each beside an inside state; a defective outside sphere,
# a simple outside sphere and an inside state.  Outside moduli are at least
# 1.2, so the 256-node Riesz projector of the unit circle has converged.
JORDAN_CASES = [
    ([(Quaternion(0.3, 1.2), 2), (Quaternion(0.2, 0.0, 0.3), 1)], 1),
    ([(Quaternion(-0.5, 0.0, 1.2), 3), (Quaternion(0.4), 1)], 1),
    ([(Quaternion(0.2, 0.0, 0.0, 1.3), 2), (Quaternion(-1.25), 1),
      (Quaternion(0.1, 0.5), 1)], 2),
]


@pytest.mark.parametrize("cond", [1.0, 10.0])
@pytest.mark.parametrize("case", range(len(JORDAN_CASES)))
def test_factor_jordan_outside_spectrum(case, cond, monkeypatch):
    """Krein-Langer on a defective outside spectrum: kappa and the zero
    spheres count algebraic multiplicity, W * S0 = S, S0 has no negative
    squares, and the Schur subspace V is ran(I - P) for the Riesz projector
    P of the unit circle."""
    blocks, m = JORDAN_CASES[case]
    gen = rng(90 + case)
    A = jordan_matrix(gen, blocks, cond)
    R = j_unitary_complete(A, random_qmatrix(gen, m, A.rows), QMatrix.eye(m))
    bases = []

    def spy(U, k, n):
        bases.append(qmatrix_module._leading_basis(U, k, n))
        return bases[-1]

    monkeypatch.setattr(realization_module, "_leading_basis", spy)
    f = krein_langer_factor(R, degree=40)
    outside = [(lam, size) for lam, size in blocks if abs(lam) > 1.0]
    assert f.kappa == sum(size for _, size in outside)
    want = sorted(((sphere_of(lam.inverse()), size) for lam, size in outside),
                  key=lambda t: (t[0].re, t[0].im_mag))
    assert [mult for _, mult in f.zero_spheres] == [mult for _, mult in want]
    for (got, _), (sph, _) in zip(f.zero_spheres, want):
        assert got.isclose(sph, tol=1e-9)
    S = realization_series(R, 40)
    recon = star_mul(f.w_series, f.schur_series)
    for n in range(41):
        gap = (recon.coeff(n) - S.coeff(n)).norm()
        assert gap <= 1e-10 * (1.0 + S.coeff(n).norm())
    assert neg_squares(f.schur_series, mu_max=8).kappa == 0
    V = bases[-1]
    split = spectral_split(A, ContourSpec(0.0, 1.0, 256))
    assert A.rows - split.rank == f.kappa == V.cols
    # V lies in ran(I - P), which has the same dimension
    assert (split.projector @ V).norm() <= 1e-8 * (1.0 + split.projector.norm())


def test_factor_jordan_block_without_inside_states():
    """The 2x2 Jordan block at 0.3 + 1.2i with C = [1, 0.5]: every state is
    outside, so S0 is a unitary constant up to rounding, which the kernel
    sections count as no negative square."""
    A = QMatrix.from_entries([[complex(0.3, 1.2), 1.0], [0.0, complex(0.3, 1.2)]])
    R = j_unitary_complete(A, QMatrix.from_entries([[1.0, 0.5]]), QMatrix.eye(1))
    f = krein_langer_factor(R)
    assert f.kappa == 2
    [(sphere, mult)] = f.zero_spheres
    assert mult == 2 and sphere.isclose(sphere_of(Quaternion(0.3, 1.2).inverse()), tol=1e-12)
    S = realization_series(R, 48)
    recon = star_mul(f.w_series, f.schur_series)
    for n in range(49):
        assert (recon.coeff(n) - S.coeff(n)).norm() <= 1e-10 * (1.0 + S.coeff(n).norm())
    assert neg_squares(f.schur_series, mu_max=12).counts == [0] * 13


def test_factor_sphere_straddling_the_unit_sphere():
    """A Jordan block of size 3 on a sphere of modulus 1 + 1e-6 clears the
    unit band, but rounding splits its eigenvalues by about 3e-5, to both
    sides of the unit circle: no outside invariant subspace separates it."""
    gen = rng(95)
    A = jordan_matrix(gen, [(Quaternion(0.6, 0.8) * (1.0 + 1e-6), 3), (Quaternion(0.3), 1)])
    R = Realization(A, random_qmatrix(gen, 4, 1), random_qmatrix(gen, 1, 4),
                    QMatrix.eye(1), sigma=QMatrix.eye(1))
    with pytest.raises(SpectrumOnUnitSphereError):
        krein_langer_factor(R)


def test_stein_solve_checks_shapes():
    A = QMatrix.eye(2) * 0.5
    with pytest.raises(ShapeError):
        stein_solve(A, QMatrix.eye(3), QMatrix.eye(3))
    with pytest.raises(ShapeError):
        stein_solve(A, QMatrix.eye(2), QMatrix.eye(3))
    with pytest.raises(ShapeError):
        stein_solve(QMatrix.zeros(2, 3), QMatrix.eye(3), QMatrix.eye(3))
    bad = np.eye(2) * 0.5
    bad[0, 1] = np.nan
    with pytest.raises(NonFiniteInputError):
        stein_solve(QMatrix(bad, 0 * bad), QMatrix.eye(2), QMatrix.eye(2))


@pytest.mark.parametrize("where", ["C", "sigma"])
def test_stein_data_must_be_finite(where):
    """A NaN in C or sigma used to end in a raw ValueError from
    solve_triangular."""
    A = QMatrix.eye(2) * 0.5
    C, sigma = QMatrix.eye(2), QMatrix.eye(2)
    bad = np.eye(2)
    bad[1, 0] = np.nan
    if where == "C":
        C = QMatrix(bad, np.zeros((2, 2)))
    else:
        sigma = QMatrix(bad, np.zeros((2, 2)))
    for call in (stein_solve, j_unitary_complete):
        with pytest.raises(NonFiniteInputError):
            call(A, C, sigma)
