"""Resolvents of the second-order pencil and contour-integral projectors.

For matrices with entries in a single complex plane both resolvents
collapse to the classical (sI - T)^{-1}, which numpy can produce on the
complex component directly; that is the main external oracle here.
"""

import math

import numpy as np
import pytest
from conftest import PROPERTY, jordan_matrix
from hypothesis import given, strategies as st
from oracles import riesz_rule_closed_form

from qschur import (
    ContourOnSpectrumError,
    ContourSpec,
    InvalidSpecError,
    OnSpectrumError,
    QMatrix,
    QschurError,
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
from qschur.sresolvent import _PROJECTOR_NORM_MAX, _contour_sum
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
    """The exact projector equals the 256-node sum in any slice."""
    g = rng(53)
    T = two_cluster(g)
    spec = ContourSpec(0.0, 1.0, nodes=256)
    base = riesz_projector(T, spec)
    for _ in range(4):
        u = random_unit_imaginary(g)
        assert (_riesz_by_resolvents(T, spec, u) - base).norm() < 1e-10


def _closed_form_case(name):
    """(T, center, radius) for the closed-form rule against the node-by-node sum
    and the exact projector."""
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
    """(I - W^N)^{-1} on a sorted Schur form (oracles.riesz_rule_closed_form)
    is the N-node rule itself: it matches the sum of S-resolvents node by
    node, in two slices.  At 256 nodes the rule has converged, and the exact
    projector matches both; its s-part is T @ P."""
    T, center, radius = _closed_form_case(name)
    spec = ContourSpec(center, radius, nodes=nodes)
    rule = riesz_rule_closed_form(T, spec)
    P = riesz_projector(T, spec)
    scale = 1.0 + rule.norm()
    for unit in (UnitImaginary(0, 1, 0), random_unit_imaginary(rng(nodes))):
        by_nodes = _riesz_by_resolvents(T, spec, unit)
        assert (rule - by_nodes).norm() <= 1e-10 * scale
        if nodes == 256:
            assert (P - by_nodes).norm() <= 1e-10 * scale
    if nodes == 256:
        assert (P - rule).norm() <= 1e-10 * scale
    assert (riesz_s_part(T, spec) - T @ P).norm() <= 1e-12 * (1.0 + T.norm()) * (1.0 + P.norm())


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
    """Node halving: the node-by-node trapezoid sums converge fast to the
    exact projector; 16 nodes is documented to be far off when the contour
    passes close to the spectrum."""
    g = rng(55)
    pts = [Quaternion(0.0, 1.05), Quaternion(1.30, 0.4)]
    T = matrix_with_spectrum(g, pts)
    exact = riesz_projector(T, ContourSpec(0.0, 1.2))
    errs = []
    for nodes in (16, 64, 256):
        got = _riesz_by_resolvents(T, ContourSpec(0.0, 1.2, nodes=nodes), None)
        errs.append((got - exact).norm())
    assert errs[0] > 1e-3          # coarse grid genuinely fails here
    assert errs[2] < 1e-10         # rate is (1.05/1.2)^nodes for this geometry
    assert errs[2] < errs[1] < errs[0]


def test_contour_through_spectrum_raises():
    T = QMatrix.diag([Quaternion(1.0), Quaternion(3.0)])
    with pytest.raises(ContourOnSpectrumError):
        riesz_projector(T, ContourSpec(0.0, 1.0))
    # past the sphere check, an eigenvalue of the Schur factor on the contour
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


@pytest.mark.parametrize("center, radius", [(0.0, 1.0), (0.5, 0.8)])
@pytest.mark.parametrize("n", [8, 16, 32])
def test_spectral_split_rank_is_the_enclosed_multiplicity(n, center, radius):
    """Dense random T with eigenvalues spread over the disc of radius about
    1/sqrt(2), so that some sit close to the contour, where the 256-node rule
    is far from idempotent: rank and basis follow the enclosed spheres, the
    basis spans an invariant subspace, and the exact projector is idempotent
    relative to its norm, which projector_norm bounds."""
    spec = ContourSpec(center, radius, 256)
    for seed in range(10):
        T = random_qmatrix(rng(seed), n, scale=1.0 / math.sqrt(2 * n))
        split = spectral_split(T, spec)
        P = split.projector
        assert np.linalg.norm(P.complex_adjoint(), 2) <= split.projector_norm * (1.0 + 1e-12)
        assert (P @ P - P).norm() <= 1e-12 * split.projector_norm ** 2
        V = split.basis
        assert split.rank == sum(m for _, m in split.inside) == V.cols
        assert (T @ V - V @ split.restriction).norm() <= 1e-12 * (1.0 + T.norm())
        got = right_eigen_spheres(split.restriction)
        assert [m for _, m in got] == [m for _, m in split.inside]
        for (a, _), (b, _) in zip(got, split.inside):
            assert a.isclose(b, tol=1e-7)


@pytest.mark.parametrize("nodes", [16, 32, 64])
def test_spectral_split_quadrature_error_bounds_normal_projector(nodes):
    """For normal T, the N-node rule P_N, summed node by node, minus the
    exact projector P of spectral_split is diagonal in the eigenvectors with
    entries w^N / (1 - w^N) inside and their analogue outside, so
    ||P_N - P||_2 lies between rho^N / (1 + rho^N) and rho^N / (1 - rho^N).
    P is the eigenvector projector, and its norm certificate reads 1."""
    g = rng(59)
    mods = [0.7, 0.8, 0.9, 1.1, 1.2, 1.3]
    T = matrix_with_spectrum(g, [Quaternion(m * math.cos(t), m * math.sin(t))
                                 for m, t in zip(mods, g.uniform(0.0, math.pi, len(mods)))])
    spec = ContourSpec(0.0, 1.0, nodes)
    split = spectral_split(T, spec)
    chi = T.complex_adjoint()
    w, X = np.linalg.eig(chi)
    inside = np.abs(w) < 1.0
    P = X[:, inside] @ np.linalg.inv(X)[inside, :]
    assert np.linalg.norm(split.projector.complex_adjoint() - P, 2) <= 1e-13
    assert math.isclose(split.projector_norm, 1.0, rel_tol=1e-12)
    rule = _riesz_by_resolvents(T, spec, None).complex_adjoint()
    gap = np.linalg.norm(rule - split.projector.complex_adjoint(), 2)
    rho_n = max(0.9, 1.0 / 1.1) ** nodes
    assert rho_n / (1.0 + rho_n) - 1e-13 <= gap <= rho_n / (1.0 - rho_n) + 1e-13


def test_spectral_split_refuses_a_defective_sphere_spread_across_the_contour():
    """A Jordan block of size 6 at 1.001: rounding spreads its eigenvalues by
    about eps^(1/6), so some fall inside the unit circle although the sphere
    clears it.  The projector of that split is not idempotent and no rank
    fits the spheres, so both calls raise.  At size 8 the spread also splits
    the sphere, and the inside eigenvalues are not closed under conjugation."""
    spec = ContourSpec(0.0, 1.0, 256)
    T = jordan_matrix(rng(1), [(Quaternion(1.001), 6), (Quaternion(0.2), 1)], 10.0)
    for call in (riesz_projector, spectral_split):
        with pytest.raises(ContourOnSpectrumError):
            call(T, spec)
    T = jordan_matrix(rng(1), [(Quaternion(1.001), 8), (Quaternion(0.2), 1)], 10.0)
    with pytest.raises(QschurError):
        spectral_split(T, spec)


def _refused_or_certified(T, P):
    """The Jordan contract on a returned projector, relative to its size.
    Relative to a norm of 1e11 even a useless P passes, so the absolute
    1e-8 on P^2 - P also checks that such a P is refused."""
    p = P.norm()
    assert (P @ P - P).norm() <= min(1e-12 * p * p, 1e-8)
    assert (P @ T - T @ P).norm() <= 1e-12 * p * T.norm()


@pytest.mark.parametrize("beside", [False, True], ids=["alone", "beside"])
@pytest.mark.parametrize("lam", [Quaternion(0.999), Quaternion(1.001), Quaternion(0.6, 0.8005),
                                 Quaternion(0.9), Quaternion(0.5, 0.7)], ids=str)
def test_jordan_blocks_near_the_contour_raise_or_certify(lam, beside):
    """Jordan blocks of size 2 to 8 at or near the unit circle, under
    similarities of condition 1 to 1e3, alone or beside spheres at 0.2+0.3i
    (inside) and 1.8 (outside): riesz_projector and spectral_split either
    raise a QschurError or return a P with ||P^2 - P|| <= 1e-12 ||P||^2 and
    ||PT - TP|| <= 1e-12 ||P|| ||T||.  Rounding spreads a defective sphere by
    about eps^(1/size) and may split it across the contour; the N-node rule
    then returned a wrong projector in most of these cases.  Size-2 blocks,
    and blocks 0.09 or more off the contour, always return."""
    spec = ContourSpec(0.0, 1.0)
    extra = [(Quaternion(0.2, 0.3), 1), (Quaternion(1.8), 1)] if beside else []
    clear = abs(abs(lam) - 1.0) >= 0.09
    for size in (2, 4, 6, 8):
        for cond in (1.0, 10.0, 1e3):
            for seed in range(4):
                T = jordan_matrix(rng(seed), [(lam, size)] + extra, cond)
                for call in (riesz_projector, spectral_split):
                    try:
                        out = call(T, spec)
                    except QschurError:
                        assert size > 2 and not clear
                        continue
                    _refused_or_certified(T, out if call is riesz_projector else out.projector)


def test_projector_norm_certifies_and_bounds_the_projector():
    """T = [[0.5, c], [0, 1.5]]: Y = -c, so ||P||_2 = sqrt(1 + c^2), and the
    certificate sqrt(1 + ||Y||_F^2) over chi(T), whose Y has two such
    entries, lies between ||P||_2 and sqrt(2) ||P||_2.  Beyond
    _PROJECTOR_NORM_MAX the projector is refused, with its norm bound."""
    spec = ContourSpec(0.0, 1.0)
    T = QMatrix.from_entries([[0.5, 1e5], [0.0, 1.5]])
    split = spectral_split(T, spec)
    p2 = np.linalg.norm(split.projector.complex_adjoint(), 2)
    assert math.isclose(p2, math.sqrt(1.0 + 1e10), rel_tol=1e-12)
    assert p2 <= split.projector_norm <= math.sqrt(2.0) * p2 * (1.0 + 1e-12)
    assert (split.projector - QMatrix.from_entries([[1.0, -1e5], [0.0, 0.0]])).norm() <= 1e-9
    assert spectral_split(QMatrix.diag([0.5, 1.5]), spec).projector_norm == 1.0
    T = QMatrix.from_entries([[0.5, _PROJECTOR_NORM_MAX], [0.0, 1.5]])
    for call in (riesz_projector, riesz_s_part, spectral_split):
        with pytest.raises(ContourOnSpectrumError, match="projector norm bound 1.41e"):
            call(T, spec)

