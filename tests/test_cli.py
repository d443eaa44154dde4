"""End-to-end command-line behavior: outputs, exit codes, determinism."""

import json
import math

import numpy as np
import pytest

from zmcsurf.cli import main, parse_complex


def _load(path):
    with open(path) as fh:
        return json.load(fh)


def _strip_timestamp(report: dict) -> dict:
    return {k: v for k, v in report.items() if k != "timestamp"}


def test_parse_complex_literals():
    assert parse_complex("0.4+0.3i") == 0.4 + 0.3j
    assert parse_complex("-1.5") == -1.5
    assert parse_complex("2j") == 2j


def test_surface_eval_prints_height(capsys):
    assert main(["surface", "eval", "--name", "scherk2", "--x", "0", "--y", "0"]) == 0
    assert capsys.readouterr().out.strip() == "0"


def test_surface_eval_complex(capsys):
    rc = main(["surface", "eval", "--name", "scherk2max",
               "--x", "0.3+0.1i", "--y", "0.7-0.2i", "--complex"])
    assert rc == 0
    assert "i" in capsys.readouterr().out


def test_identity_verify_passes_and_writes_report(tmp_path, capsys):
    report = tmp_path / "r.json"
    rc = main(["identity", "verify", "--identity", "scherk2-decomp", "--n", "3",
               "--grid", "-1:1:41,-1:1:41", "--report", str(report)])
    assert rc == 0
    data = _load(report)
    assert data["pass"] is True
    assert data["schema"] == 1
    assert data["max_abs_err"] < 1e-9
    assert data["points_checked"] == 41 * 41


def test_identity_verify_fails_with_absurd_tolerance(tmp_path):
    report = tmp_path / "r.json"
    rc = main(["identity", "verify", "--identity", "scherk2-decomp", "--n", "2",
               "--grid", "-1:1:11,-1:1:11", "--tol", "1e-30",
               "--report", str(report)])
    assert rc == 1
    assert _load(report)["pass"] is False  # report still written on failure


def test_residual_negative_control(tmp_path):
    report = tmp_path / "neg.json"
    rc = main(["residual", "--equation", "minimal", "--surface", "expr:x*x+y*y",
               "--grid", "0.5:1:5,0.5:1:5", "--report", str(report)])
    assert rc == 1
    data = _load(report)
    assert data["pass"] is False
    assert data["max_abs_err"] > 1.0


def test_residual_graph_pass():
    rc = main(["residual", "--equation", "bi", "--surface", "scherkBI",
               "--grid", "-1:1:21,-1:1:21"])
    assert rc == 0


def test_residual_parametric():
    rc = main(["residual", "parametric", "--metric", "euclid", "--source", "we",
               "--f", "1", "--g", "w", "--grid", "-0.8:0.8:11,-0.8:0.8:11"])
    assert rc == 0
    rc = main(["residual", "parametric", "--metric", "l3", "--source", "tlms",
               "--f", "1", "--g", "1", "--q", "u", "--r", "v",
               "--grid", "0:0.6:7,0:0.6:7"])
    assert rc == 0


def test_residual_parametric_tlms_takes_the_tlms_mesh_defaults(capsys):
    rc = main(["residual", "parametric", "--source", "tlms", "--metric", "l3",
               "--grid", "0:0.8:5,0:0.8:5"])
    assert rc == 0
    assert "[PASS] parametric-zmc:tlms" in capsys.readouterr().out


@pytest.mark.parametrize("method", ["exact", "central-diff"])
def test_residual_parametric_runs_the_method_it_reports(method, tmp_path):
    report = tmp_path / "tlms.json"
    rc = main(["residual", "parametric", "--source", "tlms", "--metric", "l3",
               "--method", method, "--grid", "0:0.8:5,0:0.8:5", "--report", str(report)])
    assert rc == 0
    data = _load(report)
    assert data["parameters"]["jets"] == method
    # exact jets are machine precision here; central differences are not
    assert (data["max_abs_err"] < 1e-14) == (method == "exact")


def test_we_eval_prints_point(capsys):
    rc = main(["we", "eval", "--f", "1", "--g", "w", "--zeta", "1"])
    assert rc == 0
    x, y, z = (float(t) for t in capsys.readouterr().out.split())
    assert (x, y, z) == pytest.approx((2 / 3, 0.0, 1.0), abs=1e-10)


def test_we_invert_round_trip(capsys):
    rc = main(["we", "invert", "--f", "1", "--g", "w",
               "--x", "0.1", "--y", "0.2", "--guess", "0.1"])
    assert rc == 0
    assert capsys.readouterr().out.strip()


def test_we_invert_from_a_pole_is_a_one_line_failure(capsys):
    # The Newton Jacobian is the integrand, and f = 1/w has its pole at the guess.
    rc = main(["we", "invert", "--f", "1/w", "--g", "w",
               "--x", "0.3", "--y", "0.1", "--guess", "0"])
    assert rc == 1
    assert capsys.readouterr().err == "error: division by zero in (1.0 / w) at 0j\n"


@pytest.mark.parametrize("source", [
    ["--source", "we", "--f", "1/w", "--zeta0", "1", "--grid=-0.2:0.2:3,-0.2:0.2:3"],
    ["--source", "bc", "--F", "log(r)", "--grid", "0:0.8:3,0:0.8:3"],
], ids=["we", "bc"])
def test_pole_in_a_parametric_jet_writes_a_failing_report(source, tmp_path, capsys):
    report = tmp_path / "pole.json"
    rc = main(["residual", "parametric", *source, "--report", str(report)])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out.startswith("[FAIL]") and captured.err == ""
    data = _load(report)
    assert data["pass"] is False and data["points_checked"] == 9
    assert math.isnan(data["max_abs_err"])
    assert data["worst_point"]["coords"] == [0.0, 0.0]


def test_we_split_verify(tmp_path):
    report = tmp_path / "split.json"
    rc = main(["we", "split", "--f", "1", "--mode", "reduced-R",
               "--weights", "2,-1", "--verify", "--report", str(report)])
    assert rc == 0
    assert _load(report)["pass"] is True


def test_we_split_without_verify_prints_pieces(capsys):
    rc = main(["we", "split", "--f", "1", "--mode", "reduced-R", "--weights", "0.5,0.5"])
    assert rc == 0
    assert len(capsys.readouterr().out.splitlines()) == 2


def test_meshes_are_written(tmp_path):
    out = tmp_path / "e.obj"
    rc = main(["we", "mesh", "--f", "1", "--g", "w",
               "--grid", "-0.5:0.5:5,-0.5:0.5:5", "--out", str(out)])
    assert rc == 0 and out.exists()
    out = tmp_path / "t.csv"
    rc = main(["tlms", "mesh", "--grid", "0:0.5:5,0:0.5:5", "--out", str(out)])
    assert rc == 0 and out.read_text().startswith("u_index,")
    out = tmp_path / "b.obj"
    rc = main(["bc", "mesh", "--F", "r", "--G", "s",
               "--grid", "0:0.5:5,0:0.5:5", "--out", str(out)])
    assert rc == 0 and out.exists()


def test_foliate_writes_leaves_and_check(tmp_path):
    out = tmp_path / "fol"
    rc = main(["foliate", "--t", "-1,0,2.5", "--bands", "-1..1",
               "--out", str(out), "--check"])
    assert rc == 0
    names = sorted(p.name for p in out.iterdir())
    assert names == ["foliation_check.json", "leaf_00.obj", "leaf_01.obj", "leaf_02.obj"]
    assert _load(out / "foliation_check.json")["pass"] is True


def test_unknown_surface_is_a_usage_error(capsys):
    assert main(["surface", "eval", "--name", "gyroid", "--x", "0", "--y", "0"]) == 2
    assert "error" in capsys.readouterr().err


def test_a_non_finite_grid_is_a_one_line_usage_error(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    argv = ["residual", "--surface", "helicoid", "--grid", "0.1:1:5,-inf:1:5",
            "--report", "r.json"]
    with np.errstate(all="raise"):
        assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == ("error: bad grid spec '0.1:1:5,-inf:1:5': "
                            "grid bounds, widths and margin must be finite\n")
    assert captured.out == ""
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("argv", [
    ["surface", "eval", "--name", "scherk2:7", "--x", "0.3", "--y", "0.2"],
    ["surface", "eval", "--name", "helicoid:abc", "--x", "1", "--y", "1"],
    ["surface", "eval", "--name", "scherkBI:1,2", "--x", "0.3", "--y", "0.2"],
    ["residual", "--equation", "minimal", "--surface", "scherk2:7", "--grid", "-1:1:5,-1:1:5"],
])
def test_suffix_on_a_surface_without_parameters_is_a_usage_error(argv, tmp_path, capsys,
                                                                  monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "takes no parameters" in captured.err and captured.out == ""


@pytest.mark.parametrize("argv, message", [
    (["we", "eval", "--f", "1", "--g", "w", "--zeta", "1", "--offset", "1,2"],
     "offset needs 3 coordinates"),
    (["we", "eval", "--f", "1", "--g", "w", "--zeta", "1", "--offset", "1,2,3,4"],
     "offset needs 3 coordinates"),
    (["tlms", "mesh", "--base", "0", "--grid", "0:0.8:3,0:0.8:3"], "base needs 2 values"),
    (["tlms", "mesh", "--base", "0,0,5", "--grid", "0:0.8:3,0:0.8:3"], "base needs 2 values"),
    (["residual", "parametric", "--source", "tlms", "--base", "0",
      "--grid", "0:0.8:3,0:0.8:3"], "base needs 2 values"),
])
def test_wrong_length_offset_or_base_is_a_usage_error(argv, message, tmp_path, capsys,
                                                      monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and list(tmp_path.iterdir()) == []
    assert captured.err.count("\n") == 1 and message in captured.err


def test_bad_grid_is_a_usage_error():
    assert main(["identity", "verify", "--identity", "scherk2-decomp", "--n", "2",
                 "--grid", "nonsense"]) == 2


def test_missing_subcommand_is_a_usage_error(capsys):
    assert main([]) == 2
    capsys.readouterr()


def test_parametric_residual_is_local_across_a_singular_path(capsys):
    # The straight path from zeta0 = 1 to -1.2 crosses the pole of f = 1/w;
    # the parametric check uses only the jet at each point.
    rc = main(["residual", "parametric", "--source", "we", "--f", "1/w", "--g", "w",
               "--zeta0", "1", "--grid", "-1.2:-0.8:3,-0.2:0.2:3"])
    assert rc == 0
    assert capsys.readouterr().out.startswith("[PASS]")


@pytest.mark.parametrize("text", ["[1, 2]", '"x"', "3", "null"])
def test_a_config_that_is_not_a_json_object_is_a_one_line_usage_error(tmp_path, capsys, text):
    config = tmp_path / "c.json"
    config.write_text(text)
    argv = ["--config", str(config), "surface", "eval", "--name", "scherk2", "--x", "0.1",
            "--y", "0.1"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: config {str(config)!r} must be a JSON object\n"
    assert captured.out == ""


def test_general_scaled_takes_a_bare_number_as_one_value(capsys):
    argv = ["identity", "verify", "--identity", "general-scaled", "--grid", "0:1:3,0.5:1:3"]
    assert main(argv + ["--n", "1", "--param", "a=2"]) == 0
    assert capsys.readouterr().out.startswith("[PASS]")
    assert main(argv + ["--n", "2", "--param", "a=1"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: parameter 'a' must have length n = 2\n"
    assert captured.out == ""


def test_config_file_supplies_defaults_and_flags_win(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"tol": 1e-30}))
    rc = main(["--config", str(config), "identity", "verify",
               "--identity", "scherk2-decomp", "--n", "2", "--grid", "-1:1:11,-1:1:11"])
    assert rc == 1  # config tolerance applied -> fails
    rc = main(["--config", str(config), "identity", "verify",
               "--identity", "scherk2-decomp", "--n", "2",
               "--grid", "-1:1:11,-1:1:11", "--tol", "1e-9"])
    assert rc == 0  # explicit flag overrides the config


def test_reports_identical_up_to_timestamp(tmp_path):
    r1, r2 = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["identity", "verify", "--identity", "helicoid-decomp", "--n", "2",
            "--grid", "0.1:2.9:21,-2:2:21"]
    assert main(argv + ["--report", str(r1)]) == 0
    assert main(argv + ["--report", str(r2)]) == 0
    assert _strip_timestamp(_load(r1)) == _strip_timestamp(_load(r2))


def test_mesh_output_is_byte_deterministic(tmp_path):
    p1, p2 = tmp_path / "m1.obj", tmp_path / "m2.obj"
    argv = ["we", "mesh", "--f", "1", "--g", "w", "--grid", "-0.5:0.5:9,-0.5:0.5:9"]
    assert main(argv + ["--out", str(p1)]) == 0
    assert main(argv + ["--out", str(p2)]) == 0
    assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize("command", [
    ["residual"],
    ["residual", "parametric", "--source", "surface"],
])
def test_non_finite_residuals_fail(command, capsys):
    # The plane's slopes overflow: NaN residuals, or an overflow in the
    # parametric normalization; both must fail, not pass or crash.
    rc = main(command + ["--surface", "plane:1e200,1e200", "--grid=-1:1:5,-1:1:5"])
    out = capsys.readouterr().out
    assert rc == 1
    assert out.startswith("[FAIL]") and "max_abs_err=nan" in out


@pytest.mark.parametrize("name, x, y", [
    ("scherk2max", "800", "0"),     # cosh overflows
    ("scherkBI", "0", "720"),
    ("scherk2", "0", "inf"),        # non-finite input
    ("scherk2", "0", "nan"),
    ("helicoid", "0", "1"),         # x = 0
    ("scherk1", "0.5", "0"),        # tan pole
])
def test_surface_eval_without_a_finite_value_is_a_usage_error(name, x, y, capsys):
    assert main(["surface", "eval", "--name", name, "--x", x, "--y", y]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err
