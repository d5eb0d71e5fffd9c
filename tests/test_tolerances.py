"""Tolerance parameters: the ones callers set are validated, the rest are gone.

Each tolerance a caller can pass is checked by one validator
(qmatrix._check_tol): a finite number >= 0, and below 1 when it is relative
to some norm.  Each count (a degree, a section index, a node count) is
checked by another (qmatrix._check_count): an integer, not a bool, at least
a stated minimum.  Every value the checks below reject used to hang, end in
a raw exception or give a silently wrong answer.
"""

import contextlib
import dataclasses
import inspect
import signal

import numpy as np
import pytest

import qschur
from qschur import (
    BlaschkeProduct,
    ContourSpec,
    ShapeError,
    InvalidSpecError,
    KernelCoeffs,
    KLFactorization,
    QMatrix,
    Quaternion,
    SliceSeries,
    blaschke_point,
    blaschke_product,
    blaschke_reciprocal,
    blaschke_reciprocal_realization,
    blaschke_sphere,
    gram_schmidt_columns,
    herm_eig,
    indefinite_gram_schmidt,
    inverse,
    is_invertible,
    krein_langer_factor,
    neg_squares,
    null_basis,
    range_basis,
    realization_series,
    riesz_projector,
    riesz_s_part,
    right_eigen_decomposition,
    s_resolvent_left,
    s_resolvent_right,
    series_sym,
    solve,
    solve_right,
    star_inverse,
    star_left_eval,
    star_resolvent,
    star_resolvent_eval,
    star_solve_left,
    stein_solve,
)
from qschur.qmatrix import _column_echelon
from qschur.sampling import matrix_with_spectrum, random_hermitian, random_qmatrix, rng

BAD = [float("nan"), float("inf"), -1.0]
BAD_RELATIVE = BAD + [1.0, 1e300]


@contextlib.contextmanager
def _deadline(seconds):
    """Fail with TimeoutError instead of hanging."""
    def stop(signum, frame):
        raise TimeoutError("no return within %g s" % seconds)
    old = signal.signal(signal.SIGALRM, stop)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


# -- removed knobs ---------------------------------------------------------------


@pytest.mark.parametrize("fn, name", [
    (inverse, "rtol"),
    (is_invertible, "rtol"),
    (null_basis, "rtol"),
    (_column_echelon, "rtol"),
    (indefinite_gram_schmidt, "neutral_tol"),
    (right_eigen_decomposition, "cluster_tol"),
    (right_eigen_decomposition, "cond_tol"),
    (series_sym, "tol"),
    (star_solve_left, "rtol"),
    (star_inverse, "rtol"),
    (star_left_eval, "rtol"),
    (star_resolvent_eval, "rtol"),
    (riesz_projector, "unit"),
    (riesz_s_part, "unit"),
    (ContourSpec.encloses, "band"),
    (neg_squares, "window"),
    (blaschke_product, "degenerate_tol"),
    (stein_solve, "rtol"),
    (krein_langer_factor, "unit_band"),
])
def test_removed_knob_is_gone_from_the_signature(fn, name):
    params = inspect.signature(fn).parameters
    assert name not in params
    assert not any(p.kind is p.VAR_KEYWORD for p in params.values())


def test_removed_names_are_gone():
    for name in ("kernel_identity_residual", "schur_kernel_coeffs", "series_conj",
                 "matrix_power", "star_pow", "char_poly_value", "is_signature_matrix"):
        assert not hasattr(qschur, name), name
    for owner, name in ((SliceSeries, "series_adjoint"), (Quaternion, "from_list"),
                        (BlaschkeProduct, "degree_count"), (KernelCoeffs, "hermitian_defect")):
        assert not hasattr(owner, name), name
    assert "unit_band" not in {f.name for f in dataclasses.fields(KLFactorization)}


# -- validated knobs -------------------------------------------------------------


@pytest.mark.parametrize("rtol", BAD_RELATIVE)
def test_solve_rejects_bad_rtol(rtol):
    M = random_qmatrix(rng(1), 3)
    for call in (solve, solve_right):
        with pytest.raises(InvalidSpecError, match="rtol"):
            call(M, QMatrix.eye(3), rtol)


@pytest.mark.parametrize("rtol", [float("nan"), -1.0])
def test_s_resolvent_rejects_bad_rtol_on_the_spectrum(rtol):
    """With s on a spectral sphere, rtol NaN or -1 used to return a resolvent
    of norm about 1e15 instead of raising OnSpectrumError."""
    T = matrix_with_spectrum(rng(2), [Quaternion(0.5, 0.3), Quaternion(-1.0), Quaternion(2.0)])
    s = Quaternion(0.5, 0.0, 0.3)
    for call in (s_resolvent_left, s_resolvent_right):
        with pytest.raises(InvalidSpecError, match="rtol"):
            call(s, T, rtol=rtol)


@pytest.mark.parametrize("rtol", BAD_RELATIVE)
def test_gram_schmidt_rejects_bad_rtol_at_once(rtol):
    """rtol = NaN used to loop forever, and rtol = -1 ended in an IndexError."""
    M = random_qmatrix(rng(3), 4, 3)
    with _deadline(5.0), pytest.raises(InvalidSpecError, match="rtol"):
        gram_schmidt_columns(M, rtol=rtol)


@pytest.mark.parametrize("tol", BAD)
def test_herm_eig_rejects_bad_tol(tol):
    """tol = NaN or inf used to count every eigenvalue as zero, and tol = -1
    counted the eigenvalues between -1 and 0 as positive."""
    H = random_hermitian(rng(4), 4)
    with pytest.raises(InvalidSpecError, match="tol"):
        herm_eig(H, tol=tol)
    assert sum(herm_eig(H)[0].signature[:2]) == 4


@pytest.mark.parametrize("tol", BAD)
def test_neg_squares_rejects_bad_tol(tol):
    """On a two-point Blaschke product, whose kappa is 0, tol = -1 read
    kappa = 9, and NaN or inf read 0 for every series."""
    zs = [Quaternion(0.4, 0.1), Quaternion(0.2, -0.3, 0.1)]
    S = blaschke_product(zs, 40).series
    with pytest.raises(InvalidSpecError, match="tol"):
        neg_squares(S, mu_max=8, tol=tol)
    assert neg_squares(S, mu_max=8).kappa == 0


@pytest.mark.parametrize("threshold", BAD)
def test_range_basis_rejects_bad_threshold(threshold):
    with pytest.raises(InvalidSpecError, match="threshold"):
        range_basis(random_qmatrix(rng(5), 3), threshold)


def test_range_basis_threshold_is_absolute():
    M = QMatrix.from_real([[4.0, 0.0], [0.0, 0.5]])
    assert range_basis(M, 2.0)[1] == 1


@pytest.mark.parametrize("center, radius", [
    (float("nan"), 1.0), (float("inf"), 1.0), (-float("inf"), 1.0),
    (0.0, float("inf")), (0.0, float("nan")),
])
def test_contour_needs_finite_center_and_radius(center, radius):
    """A NaN or infinite center used to give an all-NaN projector and a split
    of rank 0."""
    with pytest.raises(InvalidSpecError, match="contour"):
        ContourSpec(center, radius)


# -- validated counts ------------------------------------------------------------

BAD_COUNTS = [-1, -2, 2.5, 8.0, True, "8", None]


@pytest.mark.parametrize("mu_max", BAD_COUNTS)
def test_neg_squares_rejects_bad_mu_max(mu_max):
    """mu_max = -1 used to read kappa = 0 from no section at all, and 2.5
    ended in a raw TypeError."""
    S = blaschke_product([Quaternion(0.4, 0.1)], 20).series
    with pytest.raises(InvalidSpecError, match="mu_max must be an integer >= 0"):
        neg_squares(S, mu_max=mu_max)
    assert neg_squares(S, mu_max=0).counts == [0]


@pytest.mark.parametrize("degree", BAD_COUNTS)
def test_blaschke_series_reject_bad_degree(degree):
    """degree = -2 used to return a degree-0 series."""
    a = Quaternion(0.3, 0.2)
    calls = (lambda d: blaschke_point(a, d), lambda d: blaschke_sphere(a, d),
             lambda d: blaschke_product([a], d).series,
             lambda d: blaschke_reciprocal(a, d).series)
    for call in calls:
        with pytest.raises(InvalidSpecError, match="degree must be an integer >= 0"):
            call(degree)
        assert call(0).degree == 0


@pytest.mark.parametrize("degree", BAD_COUNTS)
def test_state_space_series_reject_bad_degree(degree):
    """realization_series(R, -2) and star_resolvent(A, -3) used to return a
    degree-0 series, and every non-integer degree ended in a raw TypeError."""
    R = blaschke_reciprocal_realization(Quaternion(0.3, 0.2))
    A = random_qmatrix(rng(8), 2, scale=0.3)
    for call in (lambda d: realization_series(R, d), lambda d: star_resolvent(A, d)):
        with pytest.raises(InvalidSpecError, match="degree must be an integer >= 0"):
            call(degree)
        assert call(0).degree == 0


@pytest.mark.parametrize("nodes", [16.0, 256.0, True, "256", None, 14, 17])
def test_contour_nodes_must_be_an_even_integer(nodes):
    """ContourSpec(0, 1, 16.0) used to be accepted; a float, a bool or a
    string is no node count, even at an integral value."""
    with pytest.raises(InvalidSpecError, match="nodes must be"):
        ContourSpec(0.0, 1.0, nodes)
    assert ContourSpec(0.0, 1.0, np.int64(16)).nodes == 16


def test_non_matrix_operands_are_shape_errors():
    """stein_solve(A, C, None) and riesz_projector([[1.0]], spec) used to end
    in a raw TypeError from as_qmatrix."""
    A = random_qmatrix(rng(6), 2, scale=0.3)
    with pytest.raises(ShapeError, match="cannot interpret None"):
        stein_solve(A, random_qmatrix(rng(7), 1, 2), None)
    with pytest.raises(ShapeError, match="cannot interpret"):
        riesz_projector([[1.0]], ContourSpec(0.0, 1.0))
