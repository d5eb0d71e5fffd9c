"""Command-line interface: exit codes, formats, file payloads."""

import json

import pytest

from qschur import Quaternion, QMatrix, Sphere, blaschke_reciprocal
import qschur.cli
from qschur.cli import CLIParseError, build_parser, main, parse_quaternion, parse_zero


def run(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_spectrum_demo_text(capsys):
    rc, out, err = run(capsys, ["spectrum", "--demo", "two-clusters"])
    assert rc == 0
    assert "mult" in out
    assert len(out.strip().splitlines()) == 5  # header + 4 spheres


def test_spectrum_demo_json(capsys):
    rc, out, _ = run(capsys, ["spectrum", "--demo", "two-clusters", "--format", "json"])
    assert rc == 0
    payload = json.loads(out)
    spheres = payload["spheres"]
    assert len(spheres) == 4
    mults = sorted(s["mult"] for s in spheres)
    assert mults == [1, 1, 1, 2]
    assert any(abs(s["re"] - 0.3) < 1e-8 and abs(s["im"] - 0.4) < 1e-8
               for s in spheres)


def test_spectrum_random_deterministic(capsys):
    rc1, out1, _ = run(capsys, ["spectrum", "--random", "4", "--seed", "7"])
    rc2, out2, _ = run(capsys, ["spectrum", "--random", "4", "--seed", "7"])
    assert rc1 == rc2 == 0
    assert out1 == out2
    _, out3, _ = run(capsys, ["spectrum", "--random", "4", "--seed", "8"])
    assert out3 != out1


def test_spectrum_csv(capsys):
    rc, out, _ = run(capsys, ["spectrum", "--demo", "hermitian", "--format", "csv"])
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0].split(",")[0] == "re"
    assert len(lines) >= 2


def test_spectrum_matrix_file(tmp_path, capsys):
    M = QMatrix.diag([Quaternion(1.0), Quaternion(0.0, 2.0)])
    f = tmp_path / "m.json"
    f.write_text(json.dumps(M.to_dict()))
    rc, out, _ = run(capsys, ["spectrum", "--input", str(f), "--format", "json"])
    assert rc == 0
    res = json.loads(out)["spheres"]
    assert len(res) == 2


def test_sspec_off_spectrum(capsys):
    rc, out, _ = run(capsys, ["sspec", "--demo", "two-clusters",
                              "--point", "3,1", "--format", "json"])
    assert rc == 0
    payload = json.loads(out)
    assert payload["left_residual"] < 1e-10
    assert payload["right_residual"] < 1e-10


def test_sspec_on_spectrum_exits_1(capsys):
    rc, _, err = run(capsys, ["sspec", "--demo", "two-clusters", "--point", "0.3,0.4"])
    assert rc == 1
    assert "numeric failure" in err


def test_missing_file_exits_2(capsys):
    rc, _, err = run(capsys, ["spectrum", "--input", "/nonexistent/m.json"])
    assert rc == 2
    assert "error" in err


def test_spectrum_non_finite_matrix_exits_2(tmp_path, capsys):
    d = QMatrix.eye(2).to_dict()
    d["entries"][0][0] = float("nan")
    f = tmp_path / "nan.json"
    f.write_text(json.dumps(d))
    rc, _, err = run(capsys, ["spectrum", "--input", str(f)])
    assert rc == 2
    assert err.startswith("error:")


def test_sspec_non_finite_point_exits_2(capsys):
    for point in ("nan", "0.5,inf"):
        rc, _, err = run(capsys, ["sspec", "--random", "3", "--point", point])
        assert rc == 2
        assert err.startswith("error:")


def test_unknown_subcommand_exits_3(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 3


def test_bad_flag_exits_3(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--does-not-exist"])
    assert exc.value.code == 3


@pytest.mark.parametrize("argv", [
    ["negsq", "--input", "s.json", "--mu-max", "-2"],
    ["blaschke", "--zeros", "0.5", "--degree", "-1"],
    ["realize", "--demo", "moebius", "--degree", "-1"],
    ["kl-factor", "--demo", "reciprocal", "--degree", "-1"],
    ["verify", "--degree", "-1"],
    ["verify", "--mu-max", "-1"],
])
def test_negative_degree_or_mu_max_exits_3(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 3
    assert "must be >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("argv, rule", [
    (["spectrum", "--random", "0"], ">= 1"),
    (["spectrum", "--random", "-1"], ">= 1"),
    (["sspec", "--random", "0", "--point", "2"], ">= 1"),
    (["verify", "--nodes", "0"], "an even integer >= 16"),
    (["verify", "--nodes", "17"], "an even integer >= 16"),
    (["verify", "--nodes", "14"], "an even integer >= 16"),
    (["spectrum", "--random", "3", "--tol", "nan"], "a finite number >= 0"),
    (["sspec", "--random", "3", "--point", "2", "--tol", "inf"], "a finite number >= 0"),
    (["negsq", "--input", "s.json", "--tol", "-1"], "a finite number >= 0"),
    (["realize", "--demo", "moebius", "--tol", "nan"], "a finite number >= 0"),
    (["kl-factor", "--demo", "reciprocal", "--tol", "nan"], "a finite number >= 0"),
    (["verify", "--tol", "nan"], "a finite number >= 0"),
])
def test_out_of_range_number_exits_3(argv, rule, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 3
    assert "must be %s" % rule in capsys.readouterr().err


def test_verify_nodes_at_the_contour_minimum_runs(capsys):
    """16 nodes leave the projector far from idempotent, but the rank of the
    split is read off the Schur form, not off the projector."""
    _, out, _ = run(capsys, ["verify", "--suite", "projector", "--nodes", "16"])
    assert "[PASS] projector/split-rank" in out


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf * 0 in Q_s(T)
def test_sspec_overflowing_point_exits_1(capsys):
    """|s|^2 overflows to inf in Q_s(T); solve reports it as non-finite
    input instead of a LinAlgError from the SVD."""
    rc, _, err = run(capsys, ["sspec", "--random", "2", "--point", "1e308"])
    assert rc == 1
    assert err.startswith("numeric failure:") and "finite" in err


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_reused_parser_keeps_each_call_to_its_own_options(monkeypatch, capsys):
    rc, out, _ = run(capsys, ["realize", "--demo", "moebius", "--format", "json"])
    assert rc == 0 and json.loads(out)["stein_residual"] < 1e-10
    rc, out, _ = run(capsys, ["realize", "--demo", "moebius"])
    assert rc == 0 and out.startswith("state dimension")
    degrees = []
    factor = qschur.cli.krein_langer_factor

    def recording(R, degree):
        degrees.append(degree)
        return factor(R, degree=degree)

    monkeypatch.setattr(qschur.cli, "krein_langer_factor", recording)
    assert run(capsys, ["kl-factor", "--demo", "reciprocal", "--degree", "12"])[0] == 0
    assert run(capsys, ["kl-factor", "--demo", "reciprocal"])[0] == 0
    assert degrees == [12, qschur.cli.DEFAULT_DEGREE]


def test_negsq_reciprocal_series(tmp_path, capsys):
    S = blaschke_reciprocal(Quaternion(0.3, 0.4), degree=12).series
    f = tmp_path / "s.json"
    f.write_text(json.dumps(S.to_dict()))
    rc, out, _ = run(capsys, ["negsq", "--input", str(f),
                              "--mu-max", "8", "--format", "json"])
    assert rc == 0
    payload = json.loads(out)
    assert payload["kappa"] == 1
    assert payload["stabilized"] is True


def test_negsq_text_table(tmp_path, capsys):
    S = blaschke_reciprocal(Quaternion(0.3, 0.4), degree=10).series
    f = tmp_path / "s.json"
    f.write_text(json.dumps(S.to_dict()))
    rc, out, _ = run(capsys, ["negsq", "--input", str(f), "--mu-max", "6"])
    assert rc == 0
    assert "kappa = 1" in out


def test_negsq_rejects_garbage(tmp_path, capsys):
    f = tmp_path / "bad.json"
    f.write_text('{"signs": [1, 2]}')
    rc, _, err = run(capsys, ["negsq", "--input", str(f)])
    assert rc == 2


def test_blaschke_zero_residuals(capsys):
    rc, out, _ = run(capsys, ["blaschke",
                              "--zeros", "0.5,0.1;sphere:0.2,0.3",
                              "--format", "json"])
    assert rc == 0
    payload = json.loads(out)
    assert len(payload["factors"]) == 2
    assert payload["factors"][1]["kind"] == "sphere"
    assert all(v < 1e-8 for v in payload["zero_residuals"])


def test_blaschke_invalid_zero_exits_1(capsys):
    rc, _, err = run(capsys, ["blaschke", "--zeros", "1.5"])
    assert rc == 1


def test_blaschke_bad_zero_syntax_exits_2(capsys):
    rc, _, err = run(capsys, ["blaschke", "--zeros", "sphere:a,b"])
    assert rc == 2


@pytest.mark.parametrize("zero", ["sphere:nan,0.1", "sphere:0.1,inf"])
def test_blaschke_non_finite_sphere_zero_exits_2(capsys, zero):
    rc, _, _ = run(capsys, ["blaschke", "--zeros", zero])
    assert rc == 2


def test_blaschke_csv_lists_coefficients(capsys):
    rc, out, _ = run(capsys, ["blaschke", "--zeros", "0.4",
                              "--degree", "6", "--format", "csv"])
    assert rc == 0
    lines = out.strip().splitlines()
    assert len(lines) == 8  # header + degree+1 coefficient rows


def test_realize_demo_moebius(capsys):
    rc, out, _ = run(capsys, ["realize", "--demo", "moebius", "--format", "json"])
    assert rc == 0
    payload = json.loads(out)
    assert payload["stein_residual"] < 1e-10
    assert payload["junitary_residual"] < 1e-8


def test_realize_from_pair_file(tmp_path, capsys):
    d = {"A": QMatrix.scalar(Quaternion(0.0)).to_dict(),
         "C": QMatrix.scalar(Quaternion(1.0)).to_dict()}
    f = tmp_path / "pair.json"
    f.write_text(json.dumps(d))
    rc, out, _ = run(capsys, ["realize", "--input", str(f), "--format", "json"])
    assert rc == 0
    payload = json.loads(out)
    # the canonical shift: s_1 = 1 and everything else 0
    head = payload["series_head"]["coefficients"]
    assert abs(head[1]["entries"][0][0] - 1.0) < 1e-12
    assert max(abs(v) for v in head[0]["entries"][0]) < 1e-12


def test_realize_demo_reciprocal_cascade(capsys):
    """The cascade demo carries the Stein solution diag(P1, P2) of its factors."""
    rc, out, _ = run(capsys, ["realize", "--demo", "reciprocal", "--format", "json"])
    assert rc == 0
    payload = json.loads(out)
    assert payload["stein_residual"] <= 1e-8
    assert payload["junitary_residual"] <= 1e-8


def _pair_file(tmp_path, A, C):
    f = tmp_path / "pair.json"
    f.write_text(json.dumps({"A": A.to_dict(), "C": C.to_dict()}))
    return str(f)


def test_realize_non_square_state_matrix_exits_2(tmp_path, capsys):
    f = _pair_file(tmp_path, QMatrix.zeros(2, 3), QMatrix.eye(3)[0:1, 0:3])
    rc, _, err = run(capsys, ["realize", "--input", f])
    assert rc == 2 and "non-square" in err


def test_realize_output_matrix_of_wrong_width_exits_2(tmp_path, capsys):
    f = _pair_file(tmp_path, QMatrix.eye(2) * 0.5, QMatrix.eye(3)[0:1, 0:3])
    rc, _, err = run(capsys, ["realize", "--input", f])
    assert rc == 2 and "do not fit" in err


def test_kl_factor_demo_reciprocal(capsys):
    rc, out, _ = run(capsys, ["kl-factor", "--demo", "reciprocal",
                              "--format", "json"])
    assert rc == 0
    payload = json.loads(out)
    assert payload["kappa"] == 1
    sph = payload["zero_spheres"][0]
    assert abs(sph["re"] - 0.25) < 1e-6
    assert abs(sph["im"] - (0.4 ** 2 + 0.1 ** 2) ** 0.5) < 1e-6
    assert payload["reconstruction_residual"] < 1e-7


def test_kl_factor_residual_is_the_worst_relative_coefficient_error(capsys):
    from qschur import krein_langer_factor, realization_series, star_mul
    from qschur.cli import demo_realization
    rc, out, _ = run(capsys, ["kl-factor", "--demo", "reciprocal", "--degree", "30",
                              "--format", "json"])
    assert rc == 0
    R = demo_realization("reciprocal", 0)
    fac = krein_langer_factor(R, degree=30)
    S = realization_series(R, 30)
    recon = star_mul(fac.w_series, fac.schur_series)
    want = max((recon.coeff(n) - S.coeff(n)).norm() / (1.0 + S.coeff(n).norm())
               for n in range(31))
    assert abs(json.loads(out)["reconstruction_residual"] - want) <= 1e-10 * want


def test_kl_factor_roundtrip_via_file(tmp_path, capsys):
    from qschur import blaschke_reciprocal_realization
    R = blaschke_reciprocal_realization(Quaternion(0.0, 0.0, 0.45))
    f = tmp_path / "r.json"
    f.write_text(json.dumps(R.to_dict()))
    rc, out, _ = run(capsys, ["kl-factor", "--input", str(f),
                              "--degree", "30", "--format", "json"])
    assert rc == 0
    payload = json.loads(out)
    assert payload["kappa"] == 1


def test_verify_list(capsys):
    rc, out, _ = run(capsys, ["verify", "--list"])
    assert rc == 0
    names = out.split()
    assert "quat" in names and "klfactor" in names


def test_verify_single_suite(capsys):
    rc, out, _ = run(capsys, ["verify", "--suite", "quat"])
    assert rc == 0
    assert "[PASS]" in out
    assert "0 failed" in out


def test_verify_unknown_suite_exits_2(capsys):
    rc, _, err = run(capsys, ["verify", "--suite", "nope"])
    assert rc == 2


def test_parse_quaternion_forms():
    assert parse_quaternion("1").isclose(Quaternion(1.0))
    assert parse_quaternion("1,2").isclose(Quaternion(1, 2))
    assert parse_quaternion("1,2,3,4").isclose(Quaternion(1, 2, 3, 4))
    with pytest.raises(CLIParseError):
        parse_quaternion("1,2,3,4,5")
    with pytest.raises(CLIParseError):
        parse_quaternion("one")
    with pytest.raises(CLIParseError):
        parse_quaternion("1,nan")


def test_parse_zero_forms():
    z = parse_zero("sphere:0.2,0.3")
    assert isinstance(z, Sphere) and z.re == 0.2
    assert isinstance(parse_zero("0.5,0.1"), Quaternion)
    with pytest.raises(CLIParseError):
        parse_zero("sphere:0.2,-0.3")
