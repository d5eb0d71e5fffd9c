"""Resolvents of the second-order pencil and contour-integral projectors.

For matrices with entries in a single complex plane both resolvents
collapse to the classical (sI - T)^{-1}, which numpy can produce on the
complex component directly; that is the main external oracle here.
"""

import math

import numpy as np
import pytest
from conftest import PROPERTY
from hypothesis import given, strategies as st

from qschur import (
    ContourOnSpectrumError,
    ContourSpec,
    InvalidSpecError,
    OnSpectrumError,
    QMatrix,
    Quaternion,
    QJ,
    ShapeError,
    Sphere,
    UnitImaginary,
    inverse,
    resolvent_eq_residuals,
    riesz_projector,
    riesz_s_part,
    right_eigen_spheres,
    s_resolvent_left,
    s_resolvent_right,
    spectral_split,
)
from qschur.sampling import (
    matrix_with_spectrum,
    random_qmatrix,
    random_unit_imaginary,
    random_unitary,
    rng,
)
from qschur.sresolvent import _contour_sum
from qschur.verify import _riesz_by_resolvents


def test_one_by_one_frozen_value():
    # T = [i], s = 2: the pencil is 3 - 4i, and both resolvents equal (2+i)/5
    T = QMatrix.scalar(Quaternion(0, 1))
    s = Quaternion(2.0)
    want = Quaternion(0.4, 0.2)
    assert (s_resolvent_left(s, T).item() - want).is_zero(tol=1e-14)
    assert (s_resolvent_right(s, T).item() - want).is_zero(tol=1e-14)


def test_resolvent_equations_random():
    g = rng(50)
    for _ in range(20):
        T = random_qmatrix(g, 4)
        s = Quaternion(*(3.0 * g.standard_normal(4)))
        if min(abs(math.hypot(s.real, s.imag_norm()) - sp.modulus())
               for sp, _ in right_eigen_spheres(T)) < 0.1:
            continue
        rl, rr = resolvent_eq_residuals(s, T)
        assert rl < 1e-11 * (1 + T.norm())
        assert rr < 1e-11 * (1 + T.norm())


def test_classical_collapse_on_complex_data():
    """Entries in C_i and s in C_i: the left resolvent is (sI - T)^{-1}."""
    g = rng(51)
    a = g.standard_normal((3, 3)) + 1j * g.standard_normal((3, 3))
    T = QMatrix(a, np.zeros_like(a))
    s = Quaternion(2.5, 1.5)
    want = np.linalg.inv(complex(2.5, 1.5) * np.eye(3) - a)
    got = s_resolvent_left(s, T)
    ga, gb = got._a, got._b
    np.testing.assert_allclose(ga, want, atol=1e-12)
    np.testing.assert_allclose(gb, 0, atol=1e-12)


def test_on_spectrum_raises():
    # s = i lies on the spectral sphere of T = [j]
    T = QMatrix.scalar(QJ)
    with pytest.raises(OnSpectrumError):
        s_resolvent_left(Quaternion(0, 1), T)
    with pytest.raises(OnSpectrumError):
        s_resolvent_right(Quaternion(0, 1), T)


def test_riesz_projector_classical_triangular_oracle():
    """Real T = [[2, 1], [0, 0.5]]: the projector onto the 0.5 part is known."""
    T = QMatrix.from_entries([[2.0, 1.0], [0.0, 0.5]])
    P = riesz_projector(T, ContourSpec(0.0, 1.0, nodes=256))
    want = QMatrix.from_entries([[0.0, -2.0 / 3.0], [0.0, 1.0]])
    assert (P - want).norm() < 1e-12


def test_riesz_projector_diagonal_split():
    q_in = Quaternion(0.2, 0.3, 0.1, -0.1)
    q_out = Quaternion(2.0, 0, 1.0)
    T = QMatrix.diag([q_in, q_out])
    P = riesz_projector(T, ContourSpec(0.0, 1.0, nodes=256))
    assert (P - QMatrix.diag([1.0, 0.0])).norm() < 1e-12
    # a circle around the other cluster gives the complementary projector
    P2 = riesz_projector(T, ContourSpec(2.0, 1.2, nodes=256))
    assert (P + P2 - QMatrix.eye(2)).norm() < 1e-11


def two_cluster(gen):
    pts = [Quaternion(0.3, 0.4), Quaternion(-0.2, 0, 0.35),
           Quaternion(1.8, 0.6), Quaternion(-1.9, 0, 0, 0.4)]
    return matrix_with_spectrum(gen, pts)


def test_riesz_projector_properties():
    g = rng(52)
    T = two_cluster(g)
    spec = ContourSpec(0.0, 1.0, nodes=256)
    P = riesz_projector(T, spec)
    assert (P @ P - P).norm() < 1e-10
    assert (T @ P - P @ T).norm() < 1e-10
    assert (riesz_s_part(T, spec) - T @ P).norm() < 1e-10


def test_riesz_projector_slice_independent():
    """The closed-form projector equals the node-by-node sum in any slice."""
    g = rng(53)
    T = two_cluster(g)
    spec = ContourSpec(0.0, 1.0, nodes=256)
    base = riesz_projector(T, spec)
    for _ in range(4):
        u = random_unit_imaginary(g)
        assert (_riesz_by_resolvents(T, spec, u) - base).norm() < 1e-10


def _closed_form_case(name):
    """(T, center, radius) for the closed-form rule against the node-by-node sum."""
    g = rng(59)
    U = random_unitary(g, 3)
    if name == "all-inside":
        pts = [Quaternion(0.3, 0.4), Quaternion(-0.5, 0, 0.2), Quaternion(0.1, 0, 0, -0.6)]
        return matrix_with_spectrum(g, pts), 0.0, 1.0
    if name == "all-outside":
        pts = [Quaternion(1.5, 0.4), Quaternion(-1.3, 0, 0.9), Quaternion(0.2, 0, 0, -2.0)]
        return matrix_with_spectrum(g, pts), 0.0, 1.0
    if name == "center":  # w = 0 is an eigenvalue of W, and W11 is singular
        T = QMatrix.from_entries([[0.0, 1.0, 0.5], [0.0, Quaternion(0, 0.5), 1.0],
                                  [0.0, 0.0, Quaternion(1.7, 0, 0.3)]])
        return U @ T @ U.adjoint(), 0.0, 1.0
    if name == "underflow":  # W^N and W22^-N underflow to zero
        pts = [Quaternion(1e-3, 2e-4), Quaternion(0, 0, 1e-3), Quaternion(8e-4, 0, 0, 6e-4),
               Quaternion(1e3, 0, 4e2)]
        return matrix_with_spectrum(g, pts), 0.0, 1.0
    if name == "jordan":  # non-normal: a Jordan block beside an outside sphere
        q = Quaternion(0.3, 0.4)
        T = QMatrix.from_entries([[q, 50.0, 0.5], [0.0, q, 0.5],
                                  [0.0, 0.0, Quaternion(1.6, 0, 0.5)]])
        return U @ T @ U.adjoint(), 0.0, 1.0
    assert name == "offset"
    pts = [Quaternion(1.8, 0.6), Quaternion(2.5, 0, 0.3), Quaternion(0.3, 0.4),
           Quaternion(4.0, 0, 0, 1.0)]
    return matrix_with_spectrum(g, pts), 2.0, 1.2


@pytest.mark.parametrize("nodes", [16, 64, 256])
@pytest.mark.parametrize("name", ["all-inside", "all-outside", "center", "underflow",
                                  "jordan", "offset"])
def test_closed_form_against_node_by_node_sum(name, nodes):
    """(I - W^N)^{-1} on the reordered Schur form is the N-node rule itself:
    it matches the sum of S-resolvents node by node, in two slices, and its
    s-part is T @ P at every N."""
    T, center, radius = _closed_form_case(name)
    spec = ContourSpec(center, radius, nodes=nodes)
    P = riesz_projector(T, spec)
    scale = 1.0 + P.norm()
    for unit in (UnitImaginary(0, 1, 0), random_unit_imaginary(rng(nodes))):
        assert (P - _riesz_by_resolvents(T, spec, unit)).norm() <= 1e-10 * scale
    assert (riesz_s_part(T, spec) - T @ P).norm() <= 1e-12 * (1.0 + T.norm()) * scale


@pytest.mark.parametrize("nodes", [16, 64, 256])
def test_closed_form_empty_matrix(nodes, capfd):
    spec = ContourSpec(0.0, 1.0, nodes=nodes)
    assert riesz_projector(QMatrix.zeros(0), spec).shape == (0, 0)
    assert riesz_s_part(QMatrix.zeros(0), spec).shape == (0, 0)
    assert capfd.readouterr() == ("", "")


@PROPERTY
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 6),
       center=st.floats(-1.0, 1.0), radius=st.floats(0.5, 1.5), gap=st.floats(0.15, 0.4),
       cond=st.one_of(st.just(1.0), st.floats(1.0, 300.0)))
def test_pair_summed_projector_against_references(seed, n, center, radius, gap, cond):
    """Spheres at least gap off the circle: against the node-by-node sum in a
    random slice, the eigenvector projector of chi(T) and its own identities.
    cond > 1 makes T non-normal, similar to a normal matrix through
    S = U diag(1 .. cond) V* with quaternionic unitaries U, V; there the
    node-by-node sum carries rounding of up to about 1e-9, so the eigenvector
    projector is the oracle, relative to its norm."""
    gen = rng(seed)
    n_in = int(gen.integers(0, n + 1))
    pts = []
    for i in range(n):
        d = (gen.uniform(0.0, radius - gap) if i < n_in
             else gen.uniform(radius + gap, radius + gap + 1.0))
        phi = gen.uniform(0.0, math.pi)
        u = random_unit_imaginary(gen).as_quaternion()
        pts.append(Quaternion(center + d * math.cos(phi)) + u * (d * math.sin(phi)))
    T = matrix_with_spectrum(gen, pts)
    if cond > 1.0:
        S = (random_unitary(gen, n) @ QMatrix.diag(list(np.geomspace(1.0, cond, n)))
             @ random_unitary(gen, n).adjoint())
        T = S @ T @ inverse(S)
    spec = ContourSpec(center, radius, nodes=256)
    P = riesz_projector(T, spec)
    scale = 1.0 + T.norm()
    chiT = T.complex_adjoint()
    w, X = np.linalg.eig(chiT)
    inside = np.abs(w - center) < radius
    assert np.count_nonzero(inside) == 2 * n_in
    want = X[:, inside] @ np.linalg.inv(X)[inside, :]
    if cond == 1.0:
        reference = _riesz_by_resolvents(T, spec, random_unit_imaginary(gen))
        assert (P - reference).norm() <= 1e-12 * scale
        assert np.linalg.norm(P.complex_adjoint() - want) <= 1e-9
    else:
        assert np.linalg.norm(P.complex_adjoint() - want) <= 1e-9 * (1.0 + np.linalg.norm(want))
    assert (P @ P - P).norm() <= 1e-9
    assert (T @ P - P @ T).norm() <= 1e-9 * scale
    assert (riesz_s_part(T, spec) - T @ P).norm() <= 1e-9 * scale


def test_projector_resolvent_identity():
    """P S_L(s) s - (TP) S_L(s) = P off the spectrum, for both parts."""
    g = rng(54)
    T = two_cluster(g)
    P = riesz_projector(T, ContourSpec(0.0, 1.0, nodes=256))
    for s in (Quaternion(0.9, 0.75), Quaternion(-1.2, 0.2, 0.4)):
        S = s_resolvent_left(s, T)
        for proj in (P, QMatrix.eye(4) - P):
            lhs = (proj @ S) * s - (T @ proj) @ S
            assert (lhs - proj).norm() < 1e-9


def test_quadrature_convergence():
    """Node halving: the trapezoid error drops fast; 16 nodes is documented
    to be far off when the contour passes close to the spectrum."""
    g = rng(55)
    pts = [Quaternion(0.0, 1.05), Quaternion(1.30, 0.4)]
    T = matrix_with_spectrum(g, pts)
    spec_fine = ContourSpec(0.0, 1.2, nodes=512)
    fine = riesz_projector(T, spec_fine)
    errs = []
    for nodes in (16, 64, 256):
        got = riesz_projector(T, ContourSpec(0.0, 1.2, nodes=nodes))
        errs.append((got - fine).norm())
    assert errs[0] > 1e-3          # coarse grid genuinely fails here
    assert errs[2] < 1e-10         # rate is (1.05/1.2)^nodes for this geometry
    assert errs[2] < errs[1] < errs[0]


def test_contour_through_spectrum_raises():
    T = QMatrix.diag([Quaternion(1.0), Quaternion(3.0)])
    with pytest.raises(ContourOnSpectrumError):
        riesz_projector(T, ContourSpec(0.0, 1.0))
    # past the sphere check, a node on an eigenvalue of the Schur factor makes
    # I - W^-N exactly singular, and the triangular inversion says so
    R = np.diag([1.0 + 0j, 3.0, 1.0, 3.0])
    with pytest.raises(ContourOnSpectrumError):
        _contour_sum(R, np.eye(4), [], ContourSpec(0.0, 1.0))


def test_contour_spec_validation():
    with pytest.raises(InvalidSpecError):
        ContourSpec(0.0, -1.0)
    with pytest.raises(InvalidSpecError):
        ContourSpec(0.0, 1.0, nodes=15)
    with pytest.raises(InvalidSpecError):
        ContourSpec(0.0, 1.0, nodes=18 + 1)


def test_contour_points_lie_on_circle():
    spec = ContourSpec(0.5, 2.0, nodes=16)
    for s, e in spec.points():
        assert abs(abs(s - Quaternion(0.5)) - 2.0) < 1e-14
        assert abs(abs(e) - 1.0) < 1e-14
    u = UnitImaginary.normalized(1, 1, 0)
    s0, _ = spec.points(u)[4]
    assert abs(s0.x1 - s0.x2) < 1e-13 and abs(s0.x3) < 1e-15


def test_riesz_projector_shape_guard(capfd):
    g = rng(56)
    with pytest.raises(ShapeError):
        riesz_projector(random_qmatrix(g, 2, 3), ContourSpec(0.0, 1.0))
    # an empty T has the empty projector, and LAPACK prints no complaint
    assert riesz_projector(QMatrix.zeros(0), ContourSpec(0.0, 1.0)).shape == (0, 0)
    assert capfd.readouterr() == ("", "")


def test_spectral_split():
    g = rng(57)
    T = two_cluster(g)
    split = spectral_split(T, ContourSpec(0.0, 1.0, nodes=256))
    assert split.rank == 2
    assert split.basis.cols == 2
    assert split.restriction.shape == (2, 2)
    inner = [s for s, _ in split.inside]
    assert len(inner) == 2
    # the restriction carries exactly the enclosed spheres
    got = right_eigen_spheres(split.restriction)
    for (sph, mult), want in zip(got, sorted(inner, key=lambda s: (s.re, s.im_mag))):
        assert mult == 1
        assert sph.isclose(want, tol=1e-7)


def test_spectral_split_union_is_whole_spectrum():
    """inside/outside, read off the Schur form, classify the spheres of
    right_eigen_spheres; the second matrix has a nonreal sphere of
    multiplicity 2 inside and a real sphere outside."""
    g = rng(58)
    spec = ContourSpec(0.0, 1.0, nodes=256)
    double = [Quaternion(0.3, 0.4), Quaternion(0.3, 0, 0.4), Quaternion(1.8)]
    for T in (two_cluster(g), matrix_with_spectrum(g, double)):
        split = spectral_split(T, spec)
        whole = right_eigen_spheres(T)
        pieces = sorted(split.inside + split.outside, key=lambda t: (t[0].re, t[0].im_mag))
        assert len(pieces) == len(whole)
        for (sa, ma), (sb, mb) in zip(pieces, whole):
            assert ma == mb and sa.isclose(sb, tol=1e-9)
        for got, want in ((split.inside, [t for t in whole if spec.encloses(t[0])]),
                          (split.outside, [t for t in whole if not spec.encloses(t[0])])):
            assert [m for _, m in got] == [m for _, m in want]
            assert all(sa.isclose(sb, tol=1e-9) for (sa, _), (sb, _) in zip(got, want))
    assert [m for _, m in split.inside] == [2] and [m for _, m in split.outside] == [1]
    assert split.inside[0][0].isclose(Sphere(0.3, 0.4), tol=1e-9)
    assert split.outside[0][0].isclose(Sphere(1.8, 0.0), tol=1e-9)
