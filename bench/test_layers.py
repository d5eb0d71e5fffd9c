"""Fixed-seed size sweeps of the layers under `realize` -> `kl-factor` (the
Stein solve, the completion and the CLI pipeline), of
the Riesz projector and the spectral split, of the Blaschke series under `neg_squares`, and of the
kernel layer: `neg_squares` and `kernel_identity_residuals`.

Each case records in extra_info["checksum"] a float summary of its output,
so that two checkouts can be shown to compute the same thing; it is
compared with a relative tolerance (see report.py), since the two may round
differently.
"""

import contextlib
import io
import json

import numpy as np
import pytest

import qschur.cli
from qschur import (
    QMatrix,
    Quaternion,
    Realization,
    SliceSeries,
    Sphere,
    blaschke_point,
    blaschke_product,
    blaschke_reciprocal,
    herm_eig,
    inverse,
    j_unitary_complete,
    kernel_identity_residuals,
    neg_squares,
    signature_blocks,
    star_inverse,
    star_mul,
    stein_solve,
    vstack,
)
from qschur.kernels import KernelCoeffs
from qschur.realization import realization_series
from qschur.sampling import (
    matrix_with_spectrum,
    random_hermitian,
    random_qmatrix,
    random_quaternion,
    random_unitary,
    rng,
)
from qschur.sresolvent import ContourSpec, riesz_projector, spectral_split


def _norms(series):
    return sum(series.coeff(n).norm() for n in range(series.degree + 1))


def _state_matrix(gen, n, radius):
    A = random_qmatrix(gen, n)
    return A * (radius / float(np.max(np.abs(np.linalg.eigvals(A.complex_adjoint())))))


@pytest.mark.parametrize("r", [1, 2])
@pytest.mark.parametrize("degree", [12, 20, 48])
def test_star_inverse(benchmark, degree, r):
    """Star inverse of a growing series like the KL series W: the series of
    a realization whose state matrix has spectral radius 1.2."""
    gen = rng(100 + degree + r)
    A = _state_matrix(gen, 3, 1.2)
    R = Realization(A, random_qmatrix(gen, 3, r), random_qmatrix(gen, r, 3),
                    QMatrix.eye(r) + random_qmatrix(gen, r, scale=0.3))
    f = realization_series(R, degree)
    out = benchmark(star_inverse, f)
    benchmark.extra_info["checksum"] = _norms(out)


@pytest.mark.parametrize("n", [4, 12, 20])
def test_realization_series(benchmark, n):
    gen = rng(200 + n)
    R = Realization(_state_matrix(gen, n, 0.95), random_qmatrix(gen, n, 2),
                    random_qmatrix(gen, 2, n), random_qmatrix(gen, 2, 2))
    out = benchmark(realization_series, R, 48)
    benchmark.extra_info["checksum"] = _norms(out)


@pytest.mark.parametrize("spectrum", ["simple", "mixed"])
@pytest.mark.parametrize("n", [4, 12, 20])
def test_herm_eig(benchmark, n, spectrum):
    """Random Hermitian (all eigenvalues simple), or one eigenvalue of
    multiplicity n / 2 beside n / 2 simple ones."""
    gen = rng(300 + n)
    if spectrum == "simple":
        H = random_hermitian(gen, n)
    else:
        lam = np.r_[np.full(n // 2, 0.5), gen.uniform(-2.0, 2.0, size=n - n // 2)]
        U = random_unitary(gen, n)
        H = U @ QMatrix.diag([Quaternion(x) for x in lam]) @ U.adjoint()
        H = (H + H.adjoint()) * 0.5
    spec, V = benchmark(herm_eig, H)
    benchmark.extra_info["checksum"] = float(np.sum(spec.eigenvalues)) + V.norm()


@pytest.mark.parametrize("n, m, sigma", [(n, m, "I") for n in (4, 12, 20) for m in (1, 2)]
                         + [(12, 2, "indefinite")])
def test_j_unitary_complete(benchmark, n, m, sigma):
    """Completion of a pair with two spheres outside the unit ball, so that
    P is indefinite.  The checksum is ||Z sigma Z*|| for Z = [B; D], which
    every completion shares (they are Z Q with Q sigma Q* = sigma)."""
    gen = rng(500 + n + m)
    angles = (np.arange(n) + 0.5) * np.pi / n
    mods = np.r_[1.15, 1.2, np.full(n - 2, 0.85)]
    pts = [Quaternion(r * np.cos(t), r * np.sin(t)) for r, t in zip(mods, angles)]
    A, C = matrix_with_spectrum(gen, pts), random_qmatrix(gen, m, n)
    S = QMatrix.eye(m) if sigma == "I" else signature_blocks(1, 1, 0)
    R = benchmark(j_unitary_complete, A, C, S)
    Z = vstack([R.B, R.D])
    benchmark.extra_info["checksum"] = (Z @ S @ Z.adjoint()).norm() + R.P.norm()


@pytest.mark.parametrize("n, kind", [(4, "random"), (12, "random"), (20, "random"), (8, "jordan")])
def test_stein_solve(benchmark, n, kind):
    """Stein solution for the `realize` spectra (two spheres outside the
    unit ball, the rest at modulus 0.85), or for a non-normal A: a size-4
    Jordan block at 0.6 + 0.5i beside one at 1.3j, under a similarity of
    condition number 10.  The checksum is ||P||."""
    gen = rng(900 + n)
    if kind == "jordan":
        S = random_unitary(gen, n) @ QMatrix.diag(np.linspace(1.0, 10.0, n).tolist())
        J = QMatrix.diag([Quaternion(0.6, 0.5)] * 4 + [Quaternion(0.0, 0.0, 1.3)] * 4)
        A = S @ (J + QMatrix.from_real(np.diag([1.0, 1.0, 1.0, 0.0, 1.0, 1.0, 1.0], 1))) @ inverse(S)
    else:
        angles = (np.arange(n) + 0.5) * np.pi / n
        mods = np.r_[1.15, 1.2, np.full(n - 2, 0.85)]
        A = matrix_with_spectrum(gen, [Quaternion(r * np.cos(t), r * np.sin(t))
                                       for r, t in zip(mods, angles)])
    C = random_qmatrix(gen, 2, n)
    P, _ = benchmark(stein_solve, A, C, signature_blocks(1, 1, 0))
    benchmark.extra_info["checksum"] = P.norm()


def _cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = qschur.cli.main(argv)
    assert code == 0
    return out.getvalue()


@pytest.mark.parametrize("n", [4, 12, 20])
def test_realize_kl_factor(benchmark, tmp_path, n):
    """The CLI pipeline in process: realize a pair with two spheres outside
    the unit ball, then split the realization."""
    gen = rng(400 + n)
    angles = (np.arange(n) + 0.5) * np.pi / n
    mods = np.r_[1.15, 1.2, np.full(n - 2, 0.85)]
    pts = [Quaternion(m * np.cos(t), m * np.sin(t)) for m, t in zip(mods, angles)]
    pair = tmp_path / "pair.json"
    pair.write_text(json.dumps({"A": matrix_with_spectrum(gen, pts).to_dict(),
                                "C": random_qmatrix(gen, 1, n).to_dict()}))
    real = tmp_path / "R.json"

    def pipeline():
        real.write_text(_cli(["realize", "--input", str(pair), "--format", "json"]))
        return _cli(["kl-factor", "--input", str(real), "--format", "json"])

    kl = json.loads(benchmark(pipeline))
    P = QMatrix.from_dict(json.loads(real.read_text())["P"])
    benchmark.extra_info["checksum"] = (kl["kappa"] + P.norm()
                                        + sum(s["re"] + s["im"] for s in kl["zero_spheres"]))


def _half_inside(gen, n):
    """A matrix with half its spheres inside the unit circle (moduli 0.1 to
    0.7) and half outside (1.3 to 2), as in the `spectral` workload."""
    mods = np.r_[gen.uniform(0.1, 0.7, n // 2), gen.uniform(1.3, 2.0, n - n // 2)]
    angles = gen.uniform(0.0, np.pi, n)
    return matrix_with_spectrum(gen, [Quaternion(m * np.cos(t), m * np.sin(t))
                                      for m, t in zip(mods, angles)])


@pytest.mark.parametrize("n", [8, 16, 32])
def test_riesz_projector(benchmark, n):
    """Exact projector of the unit circle, whose cost does not depend on the
    node count; the checksum is ||P||."""
    T = _half_inside(rng(600 + n), n)
    P = benchmark(riesz_projector, T, ContourSpec(0.0, 1.0))
    benchmark.extra_info["checksum"] = P.norm()


@pytest.mark.parametrize("n", [8, 16, 32])
def test_spectral_split(benchmark, n):
    """The `spectral` workload's operation: projector, basis and restriction
    for the unit circle.  The checksum is rank + ||P||."""
    T = _half_inside(rng(650 + n), n)
    split = benchmark(spectral_split, T, ContourSpec(0.0, 1.0, 256))
    benchmark.extra_info["checksum"] = split.rank + split.projector.norm()


@pytest.mark.parametrize("degree", [12, 20, 48])
def test_blaschke_point(benchmark, degree):
    a = Quaternion(0.35, 0.3, -0.2, 0.1)
    out = benchmark(blaschke_point, a, degree)
    benchmark.extra_info["checksum"] = _norms(out)


@pytest.mark.parametrize("degree", [12, 20, 48])
def test_blaschke_reciprocal(benchmark, degree):
    """Coefficients grow like |1/a|^n = 1.25^n."""
    a = Quaternion(0.6, 0.3, 0.0, 0.4)
    out = benchmark(blaschke_reciprocal, a, degree)
    benchmark.extra_info["checksum"] = _norms(out.series)


@pytest.mark.parametrize("degree", [12, 20, 48])
def test_blaschke_product(benchmark, degree):
    """Two point zeros and one sphere, as in the products of the `kernel`
    workload's negative-squares operations."""
    zeros = [Quaternion(0.4, 0.1, 0.0, -0.2), Sphere(0.2, 0.3), Quaternion(-0.3, 0.0, 0.45, 0.1)]
    out = benchmark(blaschke_product, zeros, degree)
    benchmark.extra_info["checksum"] = _norms(out.series)


def _on_sphere(gen, modulus):
    q = random_quaternion(gen)
    return q * (modulus / abs(q))


@pytest.mark.parametrize("mu_max", [12, 20, 40])
def test_neg_squares(benchmark, mu_max):
    """Two reciprocal factors with zeros of modulus 0.85, a two-zero Blaschke
    product and a constant, as in the `kernel` workload's negative-squares
    operations.  The checksum adds kappa, the section counts and the
    zero thresholds."""
    gen = rng(700 + mu_max)
    S = SliceSeries.one(mu_max)
    for _ in range(2):
        S = star_mul(S, blaschke_reciprocal(_on_sphere(gen, 0.85), mu_max).series)
    S = star_mul(S, blaschke_product([_on_sphere(gen, 0.5) for _ in range(2)], mu_max).series)
    S = S * _on_sphere(gen, 0.8)
    res = benchmark(neg_squares, S, mu_max=mu_max)
    benchmark.extra_info["checksum"] = res.kappa + sum(res.counts) + sum(res.tols)


@pytest.mark.parametrize("degree", [20, 40, 64])
def test_kernel_identity_residuals(benchmark, degree):
    """Two point pairs on a completed two-state realization, as in the
    `kernel` workload.  The residuals are rounding noise, so the checksum is
    the sum of the kernel values |K(p, q)| at the pairs."""
    gen = rng(800 + degree)
    A = matrix_with_spectrum(gen, [_on_sphere(gen, 0.7), _on_sphere(gen, 0.4)])
    R = j_unitary_complete(A, random_qmatrix(gen, 1, 2), QMatrix.eye(1))
    pairs = [(_on_sphere(gen, 0.5), _on_sphere(gen, 0.3)) for _ in range(2)]
    out = benchmark(kernel_identity_residuals, R, pairs, degree)
    assert max(out) < 1e-8
    kc = KernelCoeffs(realization_series(R, degree))
    benchmark.extra_info["checksum"] = sum(kc.value(p, q, degree).norm() for p, q in pairs)
