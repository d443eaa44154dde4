"""End-to-end command-line behavior: outputs, exit codes, determinism."""

import argparse
import inspect
import json
import os
import re

import numpy as np
import pytest

from zmcsurf import catalog, cli, expr, reps, zmc
from zmcsurf.cli import _preprocess_argv, main, parse_complex


def _load(path):
    with open(path) as fh:
        return json.load(fh)


def _strip_timestamp(report: dict) -> dict:
    return {k: v for k, v in report.items() if k != "timestamp"}


def test_parse_complex_literals():
    assert parse_complex("0.4+0.3i") == 0.4 + 0.3j
    assert parse_complex("-1.5") == -1.5
    assert parse_complex("2j") == 2j


@pytest.mark.parametrize("text", ["nan", "inf", "-inf", "Infinity", "1+nani", "0.5-infj"])
def test_parse_complex_rejects_non_finite_literals(text):
    with pytest.raises(argparse.ArgumentTypeError, match="non-finite complex literal"):
        parse_complex(text)


@pytest.mark.parametrize("argv, message", [
    (["we", "eval", "--f", "1", "--g", "w", "--zeta", "nan"],
     "non-finite complex literal 'nan'"),
    (["we", "eval", "--f", "1", "--g", "w", "--zeta", "1", "--zeta0", "nan"],
     "non-finite complex literal 'nan'"),
    (["we", "eval", "--f", "1", "--g", "w", "--zeta", "inf"],
     "non-finite complex literal 'inf'"),
    (["we", "invert", "--f", "1", "--g", "w", "--x", "nan", "--y", "0.2"],
     "--x must be finite, got 'nan'"),
    (["we", "invert", "--f", "1", "--g", "w", "--x", "0.1", "--y=-inf"],
     "--y must be finite, got '-inf'"),
    (["surface", "eval", "--name", "scherk2max", "--x", "nan", "--y", "0.1", "--complex"],
     "non-finite complex literal 'nan'"),
    (["we", "invert", "--f", "1", "--g", "w", "--x", "0.1", "--y", "-inf"],
     "--y must be finite, got '-inf'"),
    (["we", "invert", "--f", "1", "--g", "w", "--x", "-nan", "--y", "0.2"],
     "--x must be finite, got '-nan'"),
    (["we", "invert", "--f", "1", "--g", "w", "--x", "-Infinity", "--y", "0.2"],
     "--x must be finite, got '-Infinity'"),
    (["we", "eval", "--f", "1", "--g", "w", "--zeta", "1", "--offset", "nan,0,0"],
     "--offset must be finite, got 'nan'"),
    (["we", "eval", "--f", "1", "--g", "w", "--zeta", "1", "--offset", "0,-inf,0"],
     "--offset must be finite, got '-inf'"),
    (["we", "eval", "--f", "1", "--g", "w", "--zeta", "1", "--theta", "nan"],
     "--theta must be finite, got 'nan'"),
    (["we", "mesh", "--f", "1", "--g", "w", "--theta", "-inf"],
     "--theta must be finite, got '-inf'"),
    (["residual", "parametric", "--source", "we", "--theta", "inf", "--grid", "0:0.5:3,0:0.5:3"],
     "--theta must be finite, got 'inf'"),
    (["tlms", "mesh", "--base", "nan,0", "--grid", "0:0.8:3,0:0.8:3"],
     "--base must be finite, got 'nan'"),
    (["residual", "parametric", "--source", "tlms", "--base", "0,-inf",
      "--grid", "0:0.8:3,0:0.8:3"], "--base must be finite, got '-inf'"),
])
def test_a_non_finite_coordinate_is_a_one_line_usage_error(argv, message, tmp_path, capsys,
                                                          monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n" and captured.out == ""


def test_a_flag_takes_the_negative_value_after_it():
    argv = ["we", "--y", "-inf", "--x", "-1e3", "--grid", "-1:1:3,-1:1:3", "--weights", "-.5,1.5",
            "--t", "-nan", "--zeta=1", "-2", "--f", "-w", "--verify", "-h"]
    assert _preprocess_argv(argv) == [
        "we", "--y=-inf", "--x=-1e3", "--grid=-1:1:3,-1:1:3", "--weights=-.5,1.5", "--t=-nan",
        "--zeta=1", "-2", "--f=-w", "--verify", "-h"]


@pytest.mark.parametrize("joined, spaced", [
    (["we", "eval", "--f", "1", "--g", "w", "--zeta=-i"],
     ["we", "eval", "--f", "1", "--g", "w", "--zeta", "-i"]),
    (["we", "eval", "--f=-w", "--g", "w", "--zeta", "0.5"],
     ["we", "eval", "--f", "-w", "--g", "w", "--zeta", "0.5"]),
    (["residual", "parametric", "--source", "bc", "--metric", "l3p", "--F=-r",
      "--grid", "0:0.8:5,0:0.8:5"],
     ["residual", "parametric", "--source", "bc", "--metric", "l3p", "--F", "-r",
      "--grid", "0:0.8:5,0:0.8:5"]),
], ids=["zeta", "f", "F"])
def test_a_value_after_its_flag_may_start_with_a_dash_and_a_letter(joined, spaced, capsys):
    assert main(joined) == 0
    want = capsys.readouterr()
    assert main(spaced) == 0
    assert capsys.readouterr() == want and want.out and want.err == ""


@pytest.mark.parametrize("argv, message", [
    (["we", "invert", "--f", "1", "--g", "w", "--x", "abc", "--y", "0"],
     "--x must be a number, got 'abc'"),
    (["we", "eval", "--f", "1", "--g", "w", "--zeta", "1", "--offset", "1,abc,0"],
     "--offset must be a number, got 'abc'"),
    (["tlms", "mesh", "--base", "0,abc"], "--base must be a number, got 'abc'"),
    (["foliate", "--t", "0,abc", "--out", "leaves"], "--t must be a number, got 'abc'"),
    (["foliate", "--t", "nan", "--out", "leaves"], "--t must be finite, got 'nan'"),
    (["we", "split", "--f", "1", "--mode", "reduced-R", "--weights", "0.5,abc"],
     "--weights must be a number, got 'abc'"),
    (["we", "split", "--f", "1", "--mode", "reduced-R", "--weights", "nan,1"],
     "--weights must be finite, got 'nan'"),
    (["foliate", "--t", "0", "--bands", "1..x", "--out", "leaves"],
     "--bands must be an integer, got 'x'"),
    (["foliate", "--t", "0", "--bands", "1..0", "--out", "leaves"],
     "--bands must be k_lo..k_hi with k_lo <= k_hi, got '1..0'"),
    (["we", "eval", "--f", "1", "--g", "w", "--zeta", "1", "--theta", "abc"],
     "--theta must be a number, got 'abc'"),
    (["identity", "verify", "--identity", "scherk2-decomp", "--n", "2",
      "--grid", "0:1:3,0:1:3", "--tol", "abc", "--report", "r.json"],
     "--tol must be a number, got 'abc'"),
    (["identity", "verify", "--identity", "scherk2-decomp", "--n", "2",
      "--grid", "0:1:3,0:1:3", "--tol", "nan", "--report", "r.json"],
     "--tol must be finite, got 'nan'"),
    (["identity", "verify", "--identity", "scherk2-decomp", "--n", "abc",
      "--grid", "0:1:3,0:1:3"], "--n must be an integer, got 'abc'"),
    (["foliate", "--t", "0", "--nx", "abc", "--out", "leaves"],
     "--nx must be an integer, got 'abc'"),
    (["surface", "eval", "--name", "scherk2", "--x", "0.3+0.1i", "--y", "0.2"],
     "complex --x or --y needs --complex"),
    (["foliate", "--t", "0", "--bands", f"0..{10 ** 400}", "--out", "leaves"],
     "--bands must give a finite x window"),
    (["foliate", "--t", "0", "--bands", f"-{10 ** 400}..0", "--out", "leaves"],
     "--bands must give a finite x window"),
    (["foliate", "--t", "0", "--bands", f"0..{3 * 10 ** 307}", "--out", "leaves"],
     "--bands must give a finite x window"),   # a float k_hi, an infinite window
    (["identity", "verify", "--identity", "kamien-decomp", "--n", "2", "--param", "beta=0.5:0.6",
      "--grid=-2:2:5,0.4:5.88:5"], "parameter 'beta' must be a number, got '0.5:0.6'"),
    (["identity", "verify", "--identity", "kamien-decomp", "--n", "2", "--param", "beta=abc",
      "--grid=-2:2:5,0.4:5.88:5"], "parameter 'beta' must be a number, got 'abc'"),
    (["identity", "verify", "--identity", "kamien-decomp", "--n", "2", "--param", "beta=1e308",
      "--grid=-2:2:5,0.4:5.88:5"], "parameter 'beta' must have a finite 2*beta, got 1e+308"),
    (["identity", "verify", "--identity", "general-scaled", "--n", "2", "--param", "a=x",
      "--grid", "0:1:3,0.5:1:3"], "parameter 'a' must be a number, got 'x'"),
    (["identity", "verify", "--identity", "general-scaled", "--n", "2", "--param", "surface=3",
      "--grid", "0:1:3,0.5:1:3"], "parameter 'surface' must be a surface id: unknown surface '3'"),
    (["residual", "--surface", "plane:nan,1", "--grid", "0:1:3,0:1:3"],
     "bad surface id 'plane:nan,1': parameter 'a' must be finite, got 'nan'"),
    (["we", "eval", "--f", "(" * 400 + "1" + ")" * 400, "--zeta", "0.3"],
     "nesting deeper than 100 levels (offset 100)"),
    (["surface", "eval", "--name", "expr:" + "+".join(["x"] * 1500), "--x", "0.1", "--y", "0.2"],
     "expression deeper than 1000 operations (offset 0)"),
])
def test_a_malformed_value_is_a_one_line_usage_error_naming_its_flag(argv, message, tmp_path,
                                                                      capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and list(tmp_path.iterdir()) == []
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("text", [
    "+".join(["x*y"] * 300),
    "/".join(["(1+x*y)"] * (expr.MAX_DEPTH - 1)),  # the quotient rule deepens jets the most
], ids=["sum", "quotient"])
def test_graph_and_we_jets_of_an_expression_at_the_depth_bound_build(text, capsys):
    grid = ["--grid", "0.1:0.2:2,0.1:0.2:2", "--tol", "1e300"]
    assert main(["residual", "--surface", f"expr:{text}", *grid]) == 0
    we = text.replace("x", "w").replace("y", "w")
    assert main(["residual", "parametric", "--source", "we", "--g", we, *grid]) == 0
    assert capsys.readouterr().err == ""


def test_config_keys_are_flag_names(tmp_path, capsys):
    argv = ["residual", "parametric", "--source", "bc", "--metric", "l3p",
            "--grid", "0:0.8:5,0:0.8:5"]
    assert main(argv + ["--F", "r^2 + r", "--G", "s"]) == 0
    want = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out != want
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"F": "r^2 + r", "G": "s"}))
    assert main(["--config", str(config)] + argv) == 0
    assert capsys.readouterr().out == want


_RESIDUAL = ["residual", "--surface", "scherk2", "--grid", "0:1:3,0:1:3"]


@pytest.mark.parametrize("config, argv, message", [
    ({"tolerance": 1e-30}, _RESIDUAL,
     "config {path!r} has unknown key 'tolerance' (keys are flag names without dashes)"),
    ({"big_f": "r"}, _RESIDUAL,
     "config {path!r} has unknown key 'big_f' (keys are flag names without dashes)"),
    ({"tol": "abc"}, _RESIDUAL, "--tol must be a number, got 'abc'"),
    ({"tol": float("nan")}, _RESIDUAL, "--tol must be finite, got nan"),
    ({"method": "spline"}, _RESIDUAL,
     "--method must be one of exact, central-diff, got 'spline'"),
    ({"ny": 2.5}, ["foliate", "--t", "0", "--out", "leaves"],
     "--ny must be an integer, got 2.5"),
])
def test_a_bad_config_key_or_value_is_a_one_line_usage_error(config, argv, message, tmp_path,
                                                              capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    path = str(tmp_path / "c.json")
    with open(path, "w") as fh:
        json.dump(config, fh)
    assert main(["--config", path] + argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message.format(path=path)}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]


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


@pytest.mark.parametrize("argv, check", [
    (["identity", "verify", "--identity", "scherk2-decomp", "--n", "2",
      "--grid", "-1:1:5,-1:1:5"], catalog.verify_identity),
    (["residual", "--surface", "scherk2", "--grid", "-1:1:5,-1:1:5"], zmc.residual_sweep),
    (["residual", "parametric", "--source", "tlms", "--metric", "l3",
      "--grid", "0:0.8:3,0:0.8:3"], zmc.parametric_sweep),
    (["we", "split", "--f", "1", "--mode", "reduced-R", "--weights", "0.5,0.5", "--verify"],
     reps.verify_split),
], ids=["identity", "residual", "parametric", "split"])
def test_a_check_without_tol_reports_its_library_default(argv, check, tmp_path):
    report = tmp_path / "r.json"
    assert main(argv + ["--report", str(report)]) == 0
    default = inspect.signature(check).parameters["tolerance"].default
    assert _load(report)["tolerance"] == default


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


def test_a_parametric_stencil_step_lost_in_rounding_is_a_usage_error(capsys):
    rc = main(["residual", "parametric", "--source", "tlms", "--method", "central-diff",
               "--metric", "l3", "--grid", "1e13:1.00000000000001e13:3,0:1:3"])
    assert rc == 2
    assert "lost in rounding at (10000000000000.0, 0.0)" in capsys.readouterr().err


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


@pytest.mark.parametrize("source, message", [
    (["--source", "we", "--f", "1/w", "--zeta0", "1", "--grid=-0.2:0.2:3,-0.2:0.2:3"],
     "1 grid points have no finite residual in parametric-zmc:we:minimal"),
    (["--source", "bc", "--F", "log(r)", "--grid", "0:0.8:3,0:0.8:3"],
     "3 grid points have no finite residual in parametric-zmc:bc"),
], ids=["we", "bc"])
def test_pole_in_a_parametric_jet_is_a_usage_error_without_a_report(source, message, tmp_path,
                                                                     capsys):
    report = tmp_path / "pole.json"
    rc = main(["residual", "parametric", *source, "--report", str(report)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == "" and captured.err == f"error: {message}\n"
    assert not report.exists()


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


def test_a_foliation_window_with_too_many_boundaries_is_refused_before_any_file(
        tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    argv = ["foliate", "--t", "0", "--bands=-1000000000000000..1000000000000000",
            "--nx", "3", "--ny", "3", "--out", "d", "--check"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and list(tmp_path.iterdir()) == []
    assert re.fullmatch(r"error: the window holds \d{16} band boundaries, more than the "
                        r"10000 a foliation check visits\n", captured.err)


def test_a_far_foliation_window_is_refused_before_any_file(tmp_path, capsys, monkeypatch):
    # Doubles near 6.3e9 are 9.5e-7 apart: the band boundary probes cannot be
    # placed 1e-7 from a boundary (the check printed PASS with boundary_max 0).
    monkeypatch.chdir(tmp_path)
    argv = ["foliate", "--t", "0", "--bands", "1000000000..1000000001",
            "--nx", "3", "--ny", "3", "--out", "far", "--check"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and list(tmp_path.iterdir()) == []
    assert re.fullmatch(r"error: the window reaches \|x\| = \S+, where doubles are \S+ apart: "
                        r"the band boundary probes cannot be placed 1e-07 from a boundary\n",
                        captured.err)


def test_reduced_r_mode_with_another_gauss_map_is_a_usage_error(capsys):
    argv = ["we", "eval", "--mode", "reduced-R", "--f", "1", "--zeta", "0.3"]
    assert main(argv + ["--g", "w^2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: reduced-R mode pins g to the identity map\n"
    # --g w is the identity map that an unset --g stands for.
    assert main(argv + ["--g", "w"]) == 0
    with_g = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == with_g


@pytest.mark.parametrize("argv, target", [
    (["we", "mesh", "--f", "1", "--g", "w", "--grid", "0:0.5:3,0:0.5:3", "--out"], "x.obj"),
    (["tlms", "mesh", "--grid", "0:0.5:3,0:0.5:3", "--out"], "x.csv"),
    (["identity", "verify", "--identity", "scherk2-decomp", "--n", "2",
      "--grid=-1:1:5,-1:1:5", "--report"], "r.json"),
    (["foliate", "--t", "0", "--nx", "5", "--ny", "5", "--check", "--out"], "leaves"),
])
@pytest.mark.parametrize("where", ["under-a-file", "a-directory"])
def test_an_output_that_cannot_be_written_is_a_one_line_usage_error(argv, target, where,
                                                                     tmp_path, capsys):
    (tmp_path / "plain").write_text("")
    (tmp_path / "taken").mkdir()
    if where == "under-a-file":
        out = path = str(tmp_path / "plain" / target)
        reason = "Not a directory"
    elif argv[0] == "foliate":
        # The leaves are written; the check report cannot replace a directory.
        out, path = str(tmp_path / "taken"), str(tmp_path / "taken" / "foliation_check.json")
        os.mkdir(path)
        reason = "Is a directory"
    else:
        out = path = str(tmp_path / "taken")
        reason = "Is a directory"
    assert main(argv + [out]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: cannot write {path!r}: {reason}\n"
    # No temp file is left behind, and nothing was written in place of the target.
    leftovers = [p for p in tmp_path.rglob("*") if p.name.endswith(".tmp")]
    assert leftovers == [] and (tmp_path / "plain").read_text() == ""


@pytest.mark.parametrize("argv, message", [
    (["identity", "verify", "--identity", "kamien-decomp", "--n", "2", "--param", "bta=0.5",
      "--grid=-2:2:5,0.4:5.88:5"],
     "kamien-decomp has no parameter 'bta'; it takes beta"),
    (["identity", "verify", "--identity", "scherk2-decomp", "--n", "2", "--param", "c=1",
      "--grid=-1:1:5,-1:1:5"], "scherk2-decomp has no parameter 'c'; it takes none"),
    (["surface", "eval", "--name", "nope", "--x", "0", "--y", "0"], "unknown surface 'nope'"),
    (["surface", "eval", "--name", "plane:1,2,3", "--x", "0", "--y", "0"],
     "bad surface id 'plane:1,2,3': plane takes a,b, got '1,2,3'"),
    (["identity", "verify", "--identity", "helicoid-decomp", "--n", "2",
      "--grid", "0.1:1:3,0:1:3", "--tol", "-1"], "--tol must not be negative, got '-1'"),
], ids=["misspelled-parameter", "parameter-of-none", "unknown-surface", "plane-arity",
        "negative-tol"])
def test_an_unknown_name_or_a_negative_tol_is_a_one_line_usage_error(argv, message, tmp_path,
                                                                     capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    report = ["--report", "r.json"] if argv[0] == "identity" else []
    assert main(argv + report) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and list(tmp_path.iterdir()) == []
    assert captured.err == f"error: {message}\n"


def test_a_negative_tol_from_a_config_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"tol": -1e-9}))
    report = tmp_path / "r.json"
    assert main(["--config", str(path), "identity", "verify", "--identity", "helicoid-decomp",
                 "--n", "2", "--grid", "0.1:1:3,0:1:3", "--report", str(report)]) == 2
    assert capsys.readouterr().err == "error: --tol must not be negative, got -1e-09\n"
    assert not report.exists()


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
    (["residual", "--surface", "scherk2max", "--equation", "maximal"],
     "stencil leaves the domain of 'scherk2max'"),
    (["residual", "parametric", "--source", "surface", "--surface", "scherk2max"],
     "scherk2max has no finite real value at (710.6, 0.0)"),
])
def test_a_stencil_over_cosh_overflow_is_a_usage_error(argv, message, capsys):
    # cosh overflows beyond x = 710.4758..., where the heights are -inf.
    assert main(argv + ["--method", "central-diff", "--tol", "1e-5",
                        "--grid", "710.2:710.6:3,0:0.5:3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"


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


_KAMIEN = ["identity", "verify", "--identity", "kamien-decomp", "--n", "2",
           "--grid=-2:2:5,0.4:5.88:5"]
_SPLIT = ["we", "split", "--f", "1", "--mode", "reduced-R", "--weights", "0.5,0.5"]


@pytest.mark.parametrize("config, argv, message", [
    ({"param": "beta=0.5"}, _KAMIEN + ["--param", "beta=0.4"], "must be a list, got 'beta=0.5'"),
    ({"param": "beta=0.5"}, _KAMIEN, "must be a list, got 'beta=0.5'"),
    ({"verify": "no"}, _SPLIT, "must be true or false, got 'no'"),
    ({"verify": 1}, _SPLIT, "must be true or false, got 1"),
], ids=["append-with-flag", "append", "switch-text", "switch-number"])
def test_a_config_value_of_the_wrong_json_type_is_a_one_line_usage_error(
        config, argv, message, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    path = str(tmp_path / "c.json")
    with open(path, "w") as fh:
        json.dump(config, fh)
    assert main(["--config", path] + argv) == 2
    captured = capsys.readouterr()
    key = next(iter(config))
    assert captured.out == ""
    assert captured.err == f"error: config {path!r} key {key!r} {message}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]


@pytest.mark.parametrize("argv", [
    ["we", "mesh", "--f", "1", "--g", "w"],
    ["we", "eval", "--f", "1", "--g", "w", "--zeta", "0.3"],
    ["foliate", "--t", "0", "--nx", "5", "--ny", "3", "--out", "leaves"],
    _KAMIEN,
    _SPLIT,
    ["residual", "--grid", "0:0.8:5,0:0.8:5"],
], ids=["we-mesh", "we-eval", "foliate", "identity", "split", "residual"])
def test_a_null_config_value_is_the_flags_own_default(argv, tmp_path, capsys, monkeypatch):
    # A null key, alone or with every other key null, keeps the flag's own (or
    # its command's) default, as without the config: switches and repeatable
    # flags included.
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0
    plain = capsys.readouterr()
    path = tmp_path / "c.json"
    one_null = [{name: None} for name in cli._command_flags(argv[0])]
    for config in [dict.fromkeys(cli._FLAGS)] + one_null:
        path.write_text(json.dumps(config))
        assert main(["--config", str(path)] + argv) == 0, config
        assert capsys.readouterr() == plain, config
    assert not (tmp_path / "leaves" / "foliation_check.json").exists()


def test_config_lists_and_switches_are_defaults(tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"param": ["beta=0.5"], "verify": True}))
    report = tmp_path / "r.json"
    assert main(["--config", str(path)] + _KAMIEN + ["--param", "beta=0.4",
                                                    "--report", str(report)]) == 0
    assert json.loads(report.read_text())["parameters"]["beta"] == 0.4
    capsys.readouterr()
    assert main(["--config", str(path)] + _SPLIT) == 0
    assert capsys.readouterr().out.startswith("[PASS] we-split")


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
    # parametric normalization; both fail with one line, not a report.
    rc = main(command + ["--surface", "plane:1e200,1e200", "--grid=-1:1:5,-1:1:5"])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err.startswith("error: 25 grid points have no finite residual in ")
    assert captured.err.count("\n") == 1


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
