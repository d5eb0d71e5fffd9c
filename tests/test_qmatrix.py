"""Matrix layer: the complex-pair representation and its linear algebra.

The complex adjoint chi(M) is the external referee here: it is a ring
homomorphism into ordinary complex matrices, so numpy results on chi(M)
certify products, solves, eigenstructure and signatures independently.
"""

import numpy as np
import pytest
import scipy.linalg
from conftest import PROPERTY, jordan_matrix
from hypothesis import assume, given, strategies as st

from qschur import (
    CompletionFailureError,
    ContourSpec,
    InvalidSpecError,
    QMatrix,
    Quaternion,
    QI,
    QJ,
    QK,
    Sphere,
    NonFiniteInputError,
    NotHermitianError,
    NotDiagonalizableError,
    ShapeError,
    SingularMatrixError,
    ZeroVectorError,
    block,
    char_operator,
    from_complex_adjoint,
    gram_schmidt_columns,
    herm_eig,
    hstack,
    indefinite_gram_schmidt,
    inverse,
    is_signature_matrix,
    matrix_power,
    null_basis,
    range_basis,
    right_eigen_decomposition,
    right_eigen_spheres,
    riesz_projector,
    riesz_s_part,
    s_eigencheck,
    signature_blocks,
    singular_values,
    smallest_singular_value,
    solve,
    solve_right,
    spectral_split,
    vstack,
)
from qschur.qmatrix import _eigenvalue_conds
from oracles import herm_eig_by_groups, indefinite_gram_schmidt_loop, projectors_by_cluster
from qschur.sampling import (
    matrix_with_spectrum,
    random_hermitian,
    random_qmatrix,
    random_quaternion,
    random_unitary,
    rng,
)


def test_constructors_and_entries():
    M = QMatrix.from_entries([[Quaternion(1, 2, 3, 4), 0], [QJ, 1.5]])
    assert M.shape == (2, 2)
    assert M.entry(0, 0) == Quaternion(1, 2, 3, 4)
    assert M.entry(1, 0) == QJ
    assert M.entry(1, 1) == Quaternion(1.5)
    assert QMatrix.eye(3).entry(2, 2) == Quaternion(1.0)
    assert QMatrix.zeros(2, 4).shape == (2, 4)
    D = QMatrix.diag([QI, QK])
    assert D.entry(0, 0) == QI and D.entry(1, 1) == QK and D.entry(0, 1).is_zero()
    assert QMatrix.scalar(QJ).shape == (1, 1)
    assert QMatrix.scalar(QJ).item() == QJ


def test_from_real_and_components_roundtrip():
    arr = np.arange(6.0).reshape(2, 3)
    M = QMatrix.from_real(arr)
    comp = M.to_components()
    assert comp.shape == (2, 3, 4)
    np.testing.assert_allclose(comp[..., 0], arr)
    np.testing.assert_allclose(comp[..., 1:], 0)
    M2 = QMatrix.from_components(*(comp[..., k] for k in range(4)))
    assert M.allclose(M2)


def test_shape_errors():
    g = rng(0)
    A = random_qmatrix(g, 2, 3)
    B = random_qmatrix(g, 2, 3)
    with pytest.raises(ShapeError):
        A @ B
    with pytest.raises(ShapeError):
        A + random_qmatrix(g, 3, 2)


def test_complex_adjoint_is_homomorphism():
    """chi(A @ B) = chi(A) chi(B), chi(A + B) = chi(A) + chi(B), chi(A*) = chi(A)^H."""
    g = rng(42)
    for _ in range(10):
        A = random_qmatrix(g, 4)
        B = random_qmatrix(g, 4)
        cA, cB = A.complex_adjoint(), B.complex_adjoint()
        np.testing.assert_allclose((A @ B).complex_adjoint(), cA @ cB, atol=1e-12)
        np.testing.assert_allclose((A + B).complex_adjoint(), cA + cB, atol=1e-14)
        np.testing.assert_allclose(A.adjoint().complex_adjoint(), cA.conj().T, atol=1e-14)
        assert from_complex_adjoint(cA).allclose(A, tol=1e-13)


def test_scalar_multiplication_sides_differ():
    # left and right quaternion scaling are different maps
    M = QMatrix.from_entries([[QJ]])
    assert (QI * M).entry(0, 0) == QI * QJ
    assert (M * QI).entry(0, 0) == QJ * QI
    assert (QI * M).entry(0, 0) != (M * QI).entry(0, 0)
    assert (2.0 * M).allclose(M * 2.0)
    assert (M / 2.0).allclose(M * 0.5)


def test_norms_and_adjoint():
    g = rng(3)
    A = random_qmatrix(g, 3)
    assert A.norm() >= 0
    assert abs(A.norm() - np.linalg.norm(A.complex_adjoint()) / np.sqrt(2)) < 1e-12
    H = A + A.adjoint()
    assert H.herm_defect() < 1e-14
    assert A.conj_entries().allclose(
        QMatrix.from_entries([[A.entry(i, j).conj() for j in range(3)] for i in range(3)]))


def test_solve_matches_complex_model():
    g = rng(11)
    for _ in range(8):
        A = random_qmatrix(g, 4)
        b = random_qmatrix(g, 4, 2)
        x = solve(A, b)
        assert (A @ x - b).norm() < 1e-11 * (1 + A.norm() * x.norm())
        y = solve_right(A, b.adjoint())
        assert (y @ A - b.adjoint()).norm() < 1e-11 * (1 + A.norm() * y.norm())


def test_solve_singular_raises():
    A = QMatrix.from_entries([[1, 1], [1, 1]])
    with pytest.raises(SingularMatrixError):
        solve(A, QMatrix.eye(2))
    with pytest.raises(SingularMatrixError):
        inverse(A)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf * 0 in Q_s(T)
def test_solve_rejects_non_finite_input():
    """An inf or NaN in M or rhs is reported before the SVD, which would
    otherwise fail to converge or return NaN silently."""
    A = random_qmatrix(rng(13), 3)
    for bad in (np.inf, np.nan):
        a = A._a.copy()
        a[1, 2] = bad
        with pytest.raises(NonFiniteInputError):
            solve(QMatrix(a, A._b), QMatrix.eye(3))
        with pytest.raises(NonFiniteInputError):
            solve(A, QMatrix(a, A._b))
    # |s|^2 overflows in Q_s(T) for |s| = 1e308
    with pytest.raises(NonFiniteInputError):
        solve(char_operator(A, Quaternion(1e308)), QMatrix.eye(3))


def test_inverse():
    g = rng(12)
    A = random_qmatrix(g, 5)
    assert (A @ inverse(A) - QMatrix.eye(5)).norm() < 1e-11
    assert (inverse(A) @ A - QMatrix.eye(5)).norm() < 1e-11


def test_matrix_power_and_singular_values():
    g = rng(13)
    A = random_qmatrix(g, 3)
    assert matrix_power(A, 3).allclose(A @ A @ A, tol=1e-11)
    assert matrix_power(A, 0).allclose(QMatrix.eye(3))
    sv = singular_values(A)
    assert np.all(np.diff(sv) <= 1e-14)  # descending
    assert abs(smallest_singular_value(A) - sv[-1]) < 1e-14


def test_stack_and_block():
    g = rng(14)
    A = random_qmatrix(g, 2, 2)
    B = random_qmatrix(g, 2, 1)
    C = random_qmatrix(g, 1, 2)
    D = random_qmatrix(g, 1, 1)
    M = block([[A, B], [C, D]])
    assert M.shape == (3, 3)
    assert M.entry(0, 2) == B.entry(0, 0)
    assert M.entry(2, 0) == C.entry(0, 0)
    assert hstack([A, B]).shape == (2, 3)
    assert vstack([A, C]).shape == (3, 2)


def test_dict_roundtrip():
    g = rng(15)
    A = random_qmatrix(g, 2, 3)
    assert QMatrix.from_dict(A.to_dict()).allclose(A)


# ---------------------------------------------------------------------------
# eigenstructure
# ---------------------------------------------------------------------------


def test_right_eigen_spheres_constructed_spectrum():
    g = rng(21)
    pts = [Quaternion(0.5, 1.0), Quaternion(-1.0, 0, 2.0), Quaternion(3.0)]
    T = matrix_with_spectrum(g, pts)
    got = right_eigen_spheres(T)
    want = sorted(
        [(Sphere(0.5, 1.0), 1), (Sphere(-1.0, 2.0), 1), (Sphere(3.0, 0.0), 1)],
        key=lambda t: (t[0].re, t[0].im_mag))
    assert len(got) == 3
    for (s, m), (sw, mw) in zip(got, want):
        assert m == mw
        assert s.isclose(sw, tol=1e-8)


def test_right_eigen_spheres_multiplicity():
    g = rng(22)
    # two points on one sphere plus a separate real eigenvalue
    pts = [Quaternion(0.3, 0.4), Quaternion(0.3, 0, 0, 0.4), Quaternion(-2.0)]
    T = matrix_with_spectrum(g, pts)
    got = right_eigen_spheres(T)
    assert [(round(s.re, 6), round(s.im_mag, 6), m) for s, m in got] == [
        (-2.0, 0.0, 1), (0.3, 0.4, 2)]


def test_eigen_sphere_clusters_do_not_chain():
    """Five spheres 0.9e-8 apart span 3.6e-8, well past the 1e-8 tolerance."""
    T = QMatrix.diag([Quaternion(0.5 + i * 0.9e-8, 0.3) for i in range(5)])
    got = right_eigen_spheres(T)
    assert sum(m for _, m in got) == 5
    assert max(m for _, m in got) <= 2
    for sphere, _ in got:
        assert abs(sphere.im_mag - 0.3) < 1e-12


def test_spheres_sharing_a_real_part_keep_their_multiplicities():
    """Equal real parts interleave in any one sort order; clustering on Re
    first and |Im| second still finds each sphere whole."""
    for seed in range(20):
        pts = [Quaternion(0.5, 0.3), Quaternion(0.5, 0, 0.9), Quaternion(0.5, 0, 0, 0.3),
               Quaternion(0.5), Quaternion(0.5), Quaternion(0.5, 0.2, 0.1, 0.2)]
        T = matrix_with_spectrum(rng(seed), pts)
        got = right_eigen_spheres(T)
        want = [(0.5, 0.0, 2), (0.5, 0.3, 3), (0.5, 0.9, 1)]
        assert sorted((round(s.re, 6), round(s.im_mag, 6), m) for s, m in got) == want
        parts, _ = right_eigen_decomposition(T)
        assert sorted((round(p[0].re, 6), round(p[0].im_mag, 6), p[2].cols)
                      for p in parts) == want


def test_distinct_real_spheres_of_a_dense_matrix_stay_apart():
    """A real double eigenvalue of chi(T) comes back from eig with rounding
    noise of either sign in Im, so picking one member per pair by the sign of
    Im can take both members of one real pair and lose another real sphere."""
    for seed in range(20):
        T = matrix_with_spectrum(
            rng(seed), [Quaternion(0.2), Quaternion(0.7), Quaternion(0.3, 0.4)])
        got = right_eigen_spheres(T)
        assert [(round(s.re, 6), round(s.im_mag, 6), m) for s, m in got] == [
            (0.2, 0.0, 1), (0.3, 0.4, 1), (0.7, 0.0, 1)]
        parts, _ = right_eigen_decomposition(T)
        assert len(parts) == 3
        for _, rep, basis in parts:
            assert (T @ basis - basis * rep).norm() < 1e-10


def test_defective_sphere_is_one_sphere():
    """A Jordan block of size k at 0.3 + 1.2i, plus 0.4: rounding splits its
    eigenvalues by about eps^(1/k) (4-8e-8 for k = 2, 3-4e-5 for k = 3), far
    past the clustering tolerance, but one backward error of rounding size
    makes them equal, so they form one sphere of multiplicity k; the Riesz
    split classifies it whole."""
    spec = ContourSpec(0.0, 1.0, 256)
    for k in (2, 3):
        for seed in range(20):
            for cond in (1.0, 10.0):
                T = jordan_matrix(rng(seed), [(Quaternion(0.3, 1.2), k), (0.4, 1)], cond)
                got = right_eigen_spheres(T)
                assert [m for _, m in got] == [k, 1], (k, seed, cond, got)
                assert got[0][0].isclose(Sphere(0.3, 1.2), tol=1e-9)
                assert got[1][0].isclose(Sphere(0.4, 0.0), tol=1e-9)
                if seed < 3:
                    split = spectral_split(T, spec)
                    assert [m for _, m in split.outside] == [k]
                    assert split.outside[0][0].isclose(Sphere(0.3, 1.2), tol=1e-9)


def test_well_conditioned_close_spheres_keep_todays_grouping():
    """With every eigenvalue condition number 1 no merge stands: the five
    spheres 0.9e-8 apart of test_eigen_sphere_clusters_do_not_chain stay in
    the groups of the sorted passes, also under a unitary similarity."""
    pts = [Quaternion(0.5 + i * 0.9e-8, 0.3) for i in range(5)]
    want = [m for _, m in right_eigen_spheres(QMatrix.diag(pts))]
    assert want == [2, 2, 1]
    for seed in range(5):
        got = right_eigen_spheres(matrix_with_spectrum(rng(seed), pts))
        assert sum(m for _, m in got) == 5 and max(m for _, m in got) <= 2


def test_eigenvalue_conds_against_eig():
    """Condition numbers read off the Schur factor match |x| |y| / |y* x|
    from the right and left eigenvectors of scipy's eig."""
    for seed in range(5):
        g = rng(seed)
        R = np.triu(g.normal(size=(6, 6)) + 1j * g.normal(size=(6, 6)))
        w, yl, xr = scipy.linalg.eig(R, left=True, right=True)
        want = (np.linalg.norm(xr, axis=0) * np.linalg.norm(yl, axis=0)
                / np.abs(np.sum(yl.conj() * xr, axis=0)))
        got = _eigenvalue_conds(R, np.arange(6))
        order = [int(np.argmin(np.abs(w - d))) for d in np.diag(R)]
        assert np.allclose(got, want[order], rtol=1e-8)
    # exactly repeated, uncoupled eigenvalues are perfectly conditioned;
    # an exact Jordan chain is not
    assert np.allclose(_eigenvalue_conds(np.eye(3, dtype=complex), np.arange(3)), 1.0)
    assert _eigenvalue_conds(np.array([[0.5, 1.0], [0.0, 0.5]], dtype=complex), [0])[0] > 1e12


def test_spectrum_rejects_non_square_and_non_finite_input():
    a = np.eye(2, dtype=complex)
    a[0, 1] = np.nan
    T = QMatrix(a, 0 * a)
    spec = ContourSpec(0.0, 1.0)
    for call in (right_eigen_spheres, lambda M: riesz_projector(M, spec),
                 lambda M: riesz_s_part(M, spec), lambda M: spectral_split(M, spec)):
        with pytest.raises(NonFiniteInputError):
            call(T)
        with pytest.raises(ShapeError):
            call(random_qmatrix(rng(0), 2, 3))


@pytest.mark.parametrize("cluster_tol", [float("nan"), float("inf"), -1e-8])
def test_spheres_reject_bad_cluster_tol(cluster_tol):
    """A NaN tolerance used to merge every eigenvalue into one sphere."""
    T = matrix_with_spectrum(rng(14), [Quaternion(0.5), Quaternion(0.1, 0.7), Quaternion(2.0)])
    for call in (right_eigen_spheres, right_eigen_decomposition):
        with pytest.raises(InvalidSpecError):
            call(T, cluster_tol=cluster_tol)


def test_from_dict_rejects_non_finite_entries():
    d = QMatrix.eye(2).to_dict()
    d["entries"][3][2] = float("nan")
    with pytest.raises(NonFiniteInputError):
        QMatrix.from_dict(d)


def test_char_operator_singular_exactly_on_spectrum():
    g = rng(23)
    T = random_qmatrix(g, 5)
    for sphere, _ in right_eigen_spheres(T):
        s = sphere.representative()
        assert smallest_singular_value(char_operator(T, s)) < 1e-8 * (1 + T.norm() ** 2)
    off = Quaternion(7.5, 0.3)  # far from any eigenvalue of a scale-1 matrix
    assert smallest_singular_value(char_operator(T, off)) > 1e-2


def test_right_eigen_decomposition_reconstructs():
    """T v = v s columnwise, for every sphere of a random 5x5."""
    g = rng(24)
    T = random_qmatrix(g, 5)
    parts, V = right_eigen_decomposition(T)
    total = 0
    for sphere, rep, basis in parts:
        assert sphere_close(sphere, rep)
        for j in range(basis.cols):
            v = basis.column(j)
            assert s_eigencheck(T, v, rep) < 1e-9 * (1 + T.norm())
        total += basis.cols
    assert total == 5
    assert V.shape == (5, 5)


def sphere_close(sphere, rep):
    return abs(sphere.re - rep.real) < 1e-9 and abs(sphere.im_mag - rep.imag_norm()) < 1e-9


def test_right_eigen_decomposition_real_and_spherical_clusters():
    g = rng(25)
    pts = [Quaternion(0.3, 0.4), Quaternion(0.3, 0, 0.4), Quaternion(1.5), Quaternion(1.5)]
    T = matrix_with_spectrum(g, pts)
    parts, V = right_eigen_decomposition(T)
    sizes = sorted((p[0].im_mag > 1e-9, p[2].cols) for p in parts)
    assert sizes == [(False, 2), (True, 2)]
    for sphere, rep, basis in parts:
        for j in range(basis.cols):
            assert s_eigencheck(T, basis.column(j), rep) < 1e-8
        # orthonormal basis columns
        gram = basis.adjoint() @ basis
        assert (gram - QMatrix.eye(basis.cols)).norm() < 1e-10


def test_defective_matrix_raises():
    T = QMatrix.from_entries([[0, 1], [0, 0]])  # nilpotent Jordan block
    with pytest.raises(NotDiagonalizableError):
        right_eigen_decomposition(T)


def test_s_eigencheck_zero_vector():
    T = QMatrix.eye(2)
    with pytest.raises(ZeroVectorError):
        s_eigencheck(T, QMatrix.zeros(2, 1), Quaternion(1.0))


# ---------------------------------------------------------------------------
# orthogonalization and subspaces
# ---------------------------------------------------------------------------


def test_gram_schmidt_columns():
    g = rng(31)
    M = random_qmatrix(g, 4, 3)
    Q, r = gram_schmidt_columns(M)
    assert r == 3
    assert (Q.adjoint() @ Q - QMatrix.eye(3)).norm() < 1e-12
    # rank deficiency is detected: duplicate a column
    M2 = hstack([M, M.column(0)])
    Q2, r2 = gram_schmidt_columns(M2)
    assert r2 == 3


def gram_schmidt_loop(M, rtol=1e-10):
    """Reference: the pivoted modified Gram-Schmidt written one QMatrix column
    at a time, as the library computed it before it moved to column arrays."""
    cols = [M.column(j) for j in range(M.cols)]
    scale = max([c.norm() for c in cols], default=0.0)
    chosen = []
    while cols:
        norms = [c.norm() for c in cols]
        k = int(np.argmax(norms))
        if norms[k] <= rtol * (scale if scale > 0 else 1.0):
            break
        v = cols.pop(k)
        for q in chosen:
            v = v - q * (q.adjoint() @ v).item()
        nv = v.norm()
        if nv <= rtol * (scale if scale > 0 else 1.0):
            continue
        q = v * (1.0 / nv)
        chosen.append(q)
        cols = [c - q * (q.adjoint() @ c).item() for c in cols]
    if not chosen:
        return QMatrix.zeros(M.rows, 0), 0
    return hstack(chosen), len(chosen)


@PROPERTY
@given(seed=st.integers(0, 2 ** 32 - 1), rows=st.integers(1, 7), cols=st.integers(1, 7),
       kind=st.sampled_from(["random", "duplicated", "nearly-duplicated", "right-multiplied",
                             "zero", "rank-deficient"]),
       rtol=st.sampled_from([1e-10, 1e-8]))
def test_gram_schmidt_against_the_column_loop(seed, rows, cols, kind, rtol):
    """Same rank and span as the column-by-column reference, orthonormal
    columns; bases may differ by a right unitary when pivot norms tie."""
    gen = rng(seed)
    M = random_qmatrix(gen, rows, cols)
    j = int(gen.integers(cols))
    if kind == "duplicated":
        M = hstack([M, M.column(j)])
    elif kind == "nearly-duplicated":  # needs the second orthogonalization pass
        M = hstack([M, M.column(j) + random_qmatrix(gen, rows, 1, scale=1e-7)])
    elif kind == "right-multiplied":
        M = hstack([M[0:rows, 0:j], M.column(j) * random_quaternion(gen), M[0:rows, j:cols]])
    elif kind == "zero":
        M = hstack([M[0:rows, 0:j], QMatrix.zeros(rows, 1), M[0:rows, j + 1:cols]])
    elif kind == "rank-deficient":
        k = int(gen.integers(0, min(rows, cols) + 1))
        M = random_qmatrix(gen, rows, k) @ random_qmatrix(gen, k, cols)
    Q, r = gram_schmidt_columns(M, rtol)
    Q_ref, r_ref = gram_schmidt_loop(M, rtol)
    assert r == r_ref == Q.cols
    assert (Q.adjoint() @ Q - QMatrix.eye(r)).norm() <= 1e-12
    assert (Q @ Q.adjoint() - Q_ref @ Q_ref.adjoint()).norm() <= 1e-10


def test_null_and_range_basis():
    g = rng(32)
    B = random_qmatrix(g, 4, 2)
    M = B @ B.adjoint()  # rank 2, hermitian
    rb, rank = range_basis(M, 1e-8)
    assert rank == 2 and rb.cols == 2
    nb = null_basis(M)
    assert nb.cols == 2
    assert (M @ nb).norm() < 1e-10
    assert (nb.adjoint() @ nb - QMatrix.eye(2)).norm() < 1e-10
    # null and range directions are mutually orthogonal here
    assert (rb.adjoint() @ nb).norm() < 1e-10


def test_range_basis_threshold_between_the_two_copies_of_a_singular_value():
    """chi(M) carries each singular value twice, equal up to rounding; a
    threshold at the midpoint of the two copies drops that value for every
    one of the four, with 3 and with 5 copies above the threshold alike."""
    odd_counts = set()
    for seed in range(5):
        g = rng(seed)
        U, V = random_unitary(g, 4), random_unitary(g, 4)
        M = U @ QMatrix.diag([1.0, 0.5, 0.25, 0.125]) @ V.adjoint()
        sv = np.linalg.svd(M.complex_adjoint())[1]  # the call range_basis makes
        for j in range(4):
            if sv[2 * j] == sv[2 * j + 1]:
                continue
            threshold = (sv[2 * j] + sv[2 * j + 1]) / 2
            odd_counts.add(int(np.sum(sv > threshold)))
            basis, rank = range_basis(M, threshold)
            assert rank == j and basis.cols == j
            assert (basis.adjoint() @ basis - QMatrix.eye(j)).norm() < 1e-12
            assert (basis @ basis.adjoint() @ U[0:4, 0:j] - U[0:4, 0:j]).norm() < 1e-10
    assert {3, 5} <= odd_counts


def test_indefinite_gram_schmidt():
    J = signature_blocks(2, 1, 0)
    g = rng(33)
    M = random_qmatrix(g, 3)
    Y, signs = indefinite_gram_schmidt(M, J)
    assert sorted(signs, reverse=True) == [1, 1, -1]
    W = Y.adjoint() @ J @ Y
    assert (W - QMatrix.diag([Quaternion(float(s)) for s in signs])).norm() < 1e-9
    Y, signs = indefinite_gram_schmidt(QMatrix.zeros(3, 0), J)
    assert Y.shape == (3, 0) and signs == []


def test_indefinite_gram_schmidt_ignores_scale():
    """Rescaling the columns, the metric or the coordinates leaves the signs
    and the column space alone, with Gram entries far below 1e-10."""
    g = rng(34)
    J = signature_blocks(2, 1, 0)
    M = random_qmatrix(g, 3)
    Y, signs = indefinite_gram_schmidt(M, J)
    D = QMatrix.diag([1e-4, 1e-5, 1e-3])
    for M2, J2 in [(M * 1e-6, J), (M, J * 1e-12), (D @ M, inverse(D) @ J @ inverse(D))]:
        Y2, signs2 = indefinite_gram_schmidt(M2, J2)
        assert signs2 == signs
        gram = Y2.adjoint() @ J2 @ Y2 - QMatrix.diag([Quaternion(s) for s in signs])
        assert gram.norm() <= 1e-12
    Y2, _ = indefinite_gram_schmidt(M * 1e-6, J)
    assert (_column_projector(Y2) - _column_projector(Y)).norm() <= 1e-10


def _column_projector(Y):
    return Y @ solve(Y.adjoint() @ Y, Y.adjoint())


@PROPERTY
@given(seed=st.integers(0, 2 ** 32 - 1), t=st.integers(1, 4), r=st.integers(0, 3),
       kind=st.sampled_from(["generic", "dependent", "neutral"]))
def test_indefinite_gram_schmidt_matches_loop(seed, t, r, kind):
    """The congruence against pivoted Gram-Schmidt, under J = signature_blocks
    with its diagonal scrambled.  Generic columns give the same signs and
    column space; dependent columns, or a neutral direction J-orthogonal to
    the others (hidden by a random mixing of the columns), raise on both
    sides."""
    assume(kind != "neutral" or r > 0)
    gen = rng(seed)
    n = t + r
    perm = QMatrix.from_real(np.eye(n)[gen.permutation(n)])
    J = perm @ signature_blocks(t, r, 0) @ perm.adjoint()
    k = int(gen.integers(1, n + 1))
    M = random_qmatrix(gen, n, k)
    if kind == "dependent":
        M = hstack([M, M @ random_qmatrix(gen, k, 1)])
    elif kind == "neutral":
        d = np.diag(J._a).real
        i, j = int(np.flatnonzero(d > 0)[0]), int(np.flatnonzero(d < 0)[0])
        keep = np.ones((n, 1))
        keep[[i, j]] = 0.0
        v = np.zeros((n, 1))
        v[[i, j]] = 1.0
        M = QMatrix(M._a[:, :-1] * keep, M._b[:, :-1] * keep)
        M = hstack([M, QMatrix.from_real(v)]) @ (random_qmatrix(gen, k) + QMatrix.eye(k) * 3.0)
    if kind != "generic":
        with pytest.raises(CompletionFailureError):
            indefinite_gram_schmidt(M, J)
        with pytest.raises(CompletionFailureError):
            indefinite_gram_schmidt_loop(M, J)
        return
    Y, signs = indefinite_gram_schmidt(M, J)
    W, want = indefinite_gram_schmidt_loop(M, J)
    assert signs == want
    assert (_column_projector(Y) - _column_projector(W)).norm() <= 1e-10
    scale = max(M.column(c).norm() for c in range(k))
    gram = Y.adjoint() @ J @ Y - QMatrix.diag([Quaternion(s) for s in signs])
    assert gram.norm() <= 1e-12 * (1.0 + scale ** 2)


def test_signature_blocks():
    sig = signature_blocks(1, 2, 1)
    vals = [sig.entry(i, i).real for i in range(4)]
    assert vals == [1.0, -1.0, -1.0, 0.0]
    assert is_signature_matrix(signature_blocks(2, 1, 0))
    assert not is_signature_matrix(QMatrix.scalar(Quaternion(2.0)))


# ---------------------------------------------------------------------------
# hermitian eigenvalues / signatures
# ---------------------------------------------------------------------------


def test_herm_eig_quaternionic_rotation_block():
    # H = [[0, k], [-k, 0]] is hermitian with H^2 = I: eigenvalues are +1, -1
    H = QMatrix.from_entries([[0, QK], [-QK, 0]])
    spec, V = herm_eig(H)
    np.testing.assert_allclose(spec.eigenvalues, [-1.0, 1.0], atol=1e-12)
    assert spec.signature == (1, 1, 0)
    assert congruence_defect(H, spec, V) < 1e-12


def test_herm_eig_real_diagonal():
    H = QMatrix.diag([Quaternion(2.0), Quaternion(-3.0), Quaternion(0.0)])
    spec, V = herm_eig(H)
    np.testing.assert_allclose(sorted(spec.eigenvalues), [-3.0, 0.0, 2.0], atol=1e-12)
    assert spec.signature == (1, 1, 1)


def congruence_defect(H, spec, V):
    # V columns are scaled so that H = V * diag(+1.., -1.., 0..) * V^*
    t, s, z = spec.signature
    sig = signature_blocks(t, s, z)
    return (V @ sig @ V.adjoint() - H).norm()


def test_herm_eig_random_congruence():
    g = rng(41)
    for n in (2, 4, 5):
        H = random_hermitian(g, n)
        spec, V = herm_eig(H)
        assert congruence_defect(H, spec, V) < 1e-10 * (1 + H.norm())
        assert sum(spec.signature) == n


def test_herm_eig_rejects_nonhermitian():
    g = rng(42)
    A = random_qmatrix(g, 3)
    with pytest.raises(NotHermitianError):
        herm_eig(A + A.adjoint() + 0.1 * QI * QMatrix.eye(3))


@PROPERTY
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 8),
       spread=st.sampled_from([0.0, 1e-13, 1e-9, 1.0]), blocks=st.booleans())
def test_herm_eig_matches_group_loop(seed, n, spread, blocks):
    """herm_eig against one Gram-Schmidt call per eigenvalue group.
    Eigenvalues repeat (drawn from five values), sit 1e-13 apart (merged
    into one group) or 1e-9 apart (kept apart), or are spread out; with
    blocks, H also carries quaternionic rotation blocks [[0, q], [-q, 0]]
    (eigenvalues +-|q|) under a random unitary.

    The two may pick different eigenvectors for a simple eigenvalue, equally
    valid: for eigenvalues 1e-9 apart each is right only to about 1e-7.  So
    eigenvalues within 1e-6 of each other are compared as one cluster: the
    projector onto the span of its columns, and V*V outside the off-diagonal
    part of each cluster's block."""
    gen = rng(seed)
    lam = gen.choice([-2.0, -0.5, 0.0, 0.7, 1.5], size=n) + spread * gen.normal(size=n)
    entries = [[lam[i] if i == j else 0.0 for j in range(n)] for i in range(n)]
    if blocks and n >= 2:
        q = random_quaternion(gen)
        entries[0][:2], entries[1][:2] = [0.0, q], [q.conj(), 0.0]
    D = QMatrix.from_entries(entries)
    U = random_unitary(gen, n)
    H = U @ D @ U.adjoint()
    H = (H + H.adjoint()) * 0.5
    spec, V = herm_eig(H)
    want, W = herm_eig_by_groups(H)
    assert spec.signature == want.signature
    np.testing.assert_allclose(spec.eigenvalues, want.eigenvalues, rtol=0, atol=1e-15 * (1 + H.norm()))
    cluster = 1e-6 * (1 + H.norm())
    got, ref = projectors_by_cluster(spec, V, cluster), projectors_by_cluster(want, W, cluster)
    assert len(got) == len(ref)
    inside = np.zeros((n, n), dtype=bool)
    for (l1, m1, P1), (l2, m2, P2) in zip(got, ref):
        assert abs(l1 - l2) <= 1e-15 * (1 + H.norm())
        assert (m1 == m2).all()
        assert (P1 - P2).norm() <= 1e-12 * (1 + H.norm())
        inside |= np.outer(m1, m1) & ~np.eye(n, dtype=bool)
    G = V.adjoint() @ V - W.adjoint() @ W
    gap = np.where(inside, 0.0, np.abs(G._a) ** 2 + np.abs(G._b) ** 2)
    assert np.sqrt(gap.sum()) <= 1e-12 * (1 + H.norm())


@pytest.mark.parametrize("gap", [1e-11, 1e-10, 1e-9, 1e-7])
def test_herm_eig_contract_at_small_eigenvalue_gaps(gap):
    """H = V sig V* when eigenvalues lie just past the grouping gap: four
    eigenvalues within about gap of -2 are kept apart, and their
    eigenvectors are quaternion-orthogonal only to about eps / gap until
    the polar factor replaces them."""
    for seed in range(80, 100):
        gen = rng(seed)
        lam = np.r_[-2.0 + gap * gen.normal(size=4), 0.7, 0.7, 1.5]
        U = random_unitary(gen, 7)
        H = U @ QMatrix.diag([Quaternion(x) for x in lam]) @ U.adjoint()
        H = (H + H.adjoint()) * 0.5
        spec, V = herm_eig(H)
        assert spec.signature == (3, 4, 0)
        assert congruence_defect(H, spec, V) <= 1e-12 * (1.0 + H.norm())


def test_herm_eig_cuts_a_chain_of_close_eigenvalues():
    """Forty eigenvalues 2.9e-12 apart, each step within the 3e-12 grouping
    gap: groups are cut where they first span past the gap, so they do not
    merge into one eigenvalue of multiplicity 40, and the group means keep
    the contract."""
    gen = rng(5)
    lam = -2.0 + 2.9e-12 * np.arange(40)
    U = random_unitary(gen, 40)
    H = U @ QMatrix.diag([Quaternion(x) for x in lam]) @ U.adjoint()
    H = (H + H.adjoint()) * 0.5
    spec, V = herm_eig(H)
    assert spec.signature == (0, 40, 0)
    assert np.ptp(spec.eigenvalues) > 1e-10
    assert congruence_defect(H, spec, V) <= 1e-12 * (1.0 + H.norm())


def test_herm_eig_empty_matrix():
    spec, V = herm_eig(QMatrix.zeros(0, 0))
    assert spec.eigenvalues == [] and spec.signature == (0, 0, 0)
    assert V.shape == (0, 0)


def test_sylvester_inertia_invariance():
    """Congruence by an invertible factor preserves the signature."""
    g = rng(43)
    H = random_hermitian(g, 4)
    spec, _ = herm_eig(H)
    for _ in range(5):
        S = random_qmatrix(g, 4)
        spec2, _ = herm_eig(S @ H @ S.adjoint())
        assert spec2.signature == spec.signature


def test_herm_eig_eigenvalues_match_complex_model():
    g = rng(44)
    H = random_hermitian(g, 4)
    spec, _ = herm_eig(H)
    w = np.linalg.eigvalsh(H.complex_adjoint())
    # chi doubles every quaternionic eigenvalue
    np.testing.assert_allclose(np.repeat(spec.eigenvalues, 2), np.sort(w), atol=1e-10)


def test_unitary_sampler_is_unitary():
    g = rng(45)
    U = random_unitary(g, 4)
    assert (U.adjoint() @ U - QMatrix.eye(4)).norm() < 1e-12
