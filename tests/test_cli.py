import json
import os
import subprocess
import sys

import numpy as np
import pytest

import scarf_spectra.cli as cli
from scarf_spectra import (CouplingParams, bound_state, derive, real_spectrum,
                           spectrum)
from scarf_spectra.cli import main


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_spectrum_json_document(capsys):
    code, out, err = _run(capsys, ["spectrum", "--v1", "12", "--v2", "6"])
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["schema"] == "scarf-spectra/1"
    assert doc["inputs"]["command"] == "spectrum"
    assert doc["inputs"]["v1"] == 12 and doc["inputs"]["v2"] == 6
    levels = doc["results"]["levels"]
    assert len(levels) == 4
    analytic = real_spectrum(derive(CouplingParams(12.0, 6.0)))
    for got, lv in zip(levels, analytic):
        assert got["n"] == lv.n and got["epsilon"] == lv.epsilon
        assert got["energy"]["re"] == pytest.approx(lv.energy.real, rel=1e-11)
        assert got["energy"]["im"] == 0.0
        assert got["origin"] == "series"
        assert {"lam", "mu", "alpha", "beta"} <= set(got)
    assert doc["results"]["regime"] == "real-spectrum"
    # 12-significant-digit float policy
    assert "-8.32900140449" in out


def test_output_is_byte_identical(capsys):
    argv = ["spectrum", "--v1", "1", "--v2", "5"]
    _, out1, _ = _run(capsys, argv)
    _, out2, _ = _run(capsys, argv)
    assert out1 == out2
    doc = json.loads(out1)
    pair = doc["results"]["levels"]
    assert pair[0]["energy"]["im"] == pytest.approx(1.45236875483, rel=1e-10)
    assert pair[1]["energy"]["im"] == pytest.approx(-1.45236875483, rel=1e-10)


def test_wavefunction_csv(capsys):
    code, out, err = _run(capsys, [
        "wavefunction", "--v1", "12", "--v2", "6", "--n", "0", "--epsilon", "+",
        "--points", "5", "--domain", "2"])
    assert code == 0
    lines = out.split("\n")
    assert lines[0] == "x,psi_re,psi_im,psi_abs"
    assert lines[-1] == ""            # trailing LF
    assert len(lines) == 7            # header + 5 rows + final newline
    assert "\r" not in out
    x0, re0, im0, a0 = (float(v) for v in lines[3].split(","))
    assert x0 == 0.0
    lv = real_spectrum(derive(CouplingParams(12.0, 6.0)))[0]
    val = bound_state(lv, 0.0)
    assert re0 == pytest.approx(val.real, rel=1e-11)
    assert im0 == pytest.approx(val.imag, abs=1e-11)
    assert a0 == pytest.approx(abs(val), rel=1e-11)


def test_wavefunction_json_round_trip(capsys):
    code, out, _ = _run(capsys, [
        "wavefunction", "--v1", "12", "--v2", "6", "--n", "0", "--epsilon", "+",
        "--points", "11", "--domain", "3", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    xs = np.array(doc["results"]["x"])
    lv = real_spectrum(derive(CouplingParams(12.0, 6.0)))[0]
    vals = bound_state(lv, xs)
    assert np.max(np.abs(np.array(doc["results"]["psi_re"]) - vals.real)) < 1e-10


def test_scatter_csv(capsys):
    code, out, _ = _run(capsys, [
        "scatter", "--v1", "1", "--v2", "5", "--k-min", "0.5", "--k-max", "1.5",
        "--k-steps", "3"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "k,t_re,t_im,t_abs,wronskian_ratio"
    assert len(lines) == 4
    ks = [float(line.split(",")[0]) for line in lines[1:]]
    assert ks == pytest.approx([0.5, 1.0, 1.5])
    for line in lines[1:]:
        k, t_re, t_im, t_abs, wr = (float(v) for v in line.split(","))
        assert t_abs == pytest.approx(abs(complex(t_re, t_im)), rel=1e-9)
        assert wr > 1e-2


def test_exit_2_on_bad_arguments(capsys):
    for argv in (
        ["spectrum", "--v1", "12"],                                  # missing --v2
        ["spectrum", "--v1", "12", "--v2", "6", "--format", "csv"],  # json-only
        ["scatter", "--v1", "1", "--v2", "5", "--k-min", "2", "--k-max", "1"],
        ["wavefunction", "--v1", "12", "--v2", "6"],                 # no level
        ["spectrum", "--v1", "12", "--v2", "6", "--domain", "-1"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        capsys.readouterr()


def test_exit_3_domain_errors(capsys):
    for argv in (
        ["spectrum", "--v1", "0", "--v2", "1"],
        ["spectrum", "--v1", "1", "--v2", "1.25"],       # regime boundary
        ["wavefunction", "--v1", "12", "--v2", "6", "--n", "7", "--epsilon", "+"],
    ):
        code, out, err = _run(capsys, argv)
        assert code == 3
        assert out == ""
        doc = json.loads(err)
        assert doc["schema"] == "scarf-spectra/1"
        assert doc["error"]["type"] in ("DomainError", "RegimeError")
        assert doc["error"]["message"]


def test_partner_all_branches_with_singular_entry(capsys):
    code, out, _ = _run(capsys, [
        "partner", "--v1", "9.75", "--v2", "6", "--points", "3"])
    assert code == 0
    doc = json.loads(out)
    branches = doc["results"]["branches"]
    assert [b["branch"] for b in branches] == ["++", "+-", "-+", "--"]
    assert "error" in branches[1]
    assert "levels" in branches[0]


def test_partner_explicit_singular_branch_fails(capsys):
    code, _, err = _run(capsys, [
        "partner", "--v1", "9.75", "--v2", "6", "--branch", "+-"])
    assert code == 3
    assert json.loads(err)["error"]["type"] == "SingularBranchError"


def test_partner_branch_edit_payload(capsys):
    code, out, _ = _run(capsys, [
        "partner", "--v1", "12", "--v2", "6", "--branch", "++", "--points", "3"])
    assert code == 0
    doc = json.loads(out)
    (entry,) = doc["results"]["branches"]
    assert entry["kind"] == "pt-symmetric"
    assert entry["edit"]["deleted"]["n"] == 1
    assert entry["edit"]["added"] is None
    assert len(entry["levels"]) == 3
    assert entry["a"]["re"] == pytest.approx(2.886000936329, rel=1e-11)


def test_partner_negative_branch_flag_parses(capsys):
    # "-+" and "--" look like option strings; the CLI must accept them
    code, out, _ = _run(capsys, [
        "partner", "--v1", "12", "--v2", "6", "--branch", "-+", "--points", "3"])
    assert code == 0
    doc = json.loads(out)
    (entry,) = doc["results"]["branches"]
    assert entry["branch"] == "-+"
    assert entry["edit"]["added"]["energy"]["re"] == pytest.approx(-5.693000468165,
                                                                   rel=1e-11)


def test_singularity_report_and_locus(capsys):
    code, out, _ = _run(capsys, [
        "singularity", "--v1", "2", "--v2", "6.75", "--n", "1", "--points", "5"])
    assert code == 0
    doc = json.loads(out)
    rep = doc["results"]["report"]
    assert rep["is_singular"] is True
    assert rep["n_star"] == 1
    assert rep["e_star"] == pytest.approx(1.125, abs=1e-9)
    locus = doc["results"]["locus"]
    assert locus["n"] == 1
    assert len(locus["points"]) == 5
    for pt in locus["points"]:
        assert pt["v1"] + pt["v2"] == pytest.approx(8.75, abs=1e-9)


def test_out_file_matches_stdout(tmp_path, capsys):
    argv = ["spectrum", "--v1", "12", "--v2", "6"]
    _, stdout_text, _ = _run(capsys, argv)
    path = tmp_path / "levels.json"
    code = main(argv + ["--out", str(path)])
    capsys.readouterr()
    assert code == 0
    assert path.read_text(encoding="utf-8") == stdout_text
    assert [p.name for p in tmp_path.iterdir()] == ["levels.json"]  # no temp residue


def test_verify_command_passes(capsys):
    code, out, _ = _run(capsys, ["verify", "--v1", "12", "--v2", "6"])
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["all_passed"] is True
    names = [c["name"] for c in doc["results"]["checks"]]
    assert "potential-pt-symmetry" in names
    assert "matching-conditions" in names
    assert "analytic-vs-numeric-levels" in names
    assert any(n.startswith("factorization-") for n in names)


def test_verify_near_exceptional_point_passes(capsys):
    # (12, 12.249) sits just inside the real regime: its two upper levels are
    # nearly degenerate, and the solver must resolve both
    code, out, _ = _run(capsys, ["verify", "--v1", "12", "--v2", "12.249"])
    doc = json.loads(out)
    row = {c["name"]: c for c in doc["results"]["checks"]}["analytic-vs-numeric-levels"]
    assert row["note"] == "4 levels"
    assert row["passed"] and row["value"] < row["threshold"] == 1e-3
    assert code == 0 and doc["results"]["all_passed"] is True


@pytest.mark.parametrize("v1, v2", [(100.0, 40.0), (400.0, 100.0), (13.3525, 7.1)])
def test_verify_passes_where_a_box_solver_failed(capsys, v1, v2):
    # second-order error failed (100, 40); the shallow levels of (400, 100)
    # and the level at E = -0.0025 of (13.3525, 7.1) reach past a box of
    # half-width 20
    code, out, _ = _run(capsys, ["verify", "--v1", str(v1), "--v2", str(v2)])
    doc = json.loads(out)
    row = {c["name"]: c for c in doc["results"]["checks"]}["analytic-vs-numeric-levels"]
    assert row["passed"] and row["value"] < 1e-6
    assert code == 0 and doc["results"]["all_passed"] is True


def test_verify_nan_residual_fails_its_check(capsys, monkeypatch):
    # a NaN residual that is not the first one still fails its row
    levels = spectrum(derive(CouplingParams(12.0, 6.0)))
    values = iter([1e-9, 1e-9, float("nan"), 1e-9])
    monkeypatch.setattr(cli, "residual", lambda *args, **kwargs: next(values))
    monkeypatch.setattr(cli, "discrete_spectrum",
                        lambda potential, grid, count: [lv.energy for lv in levels])
    code, out, _ = _run(capsys, ["verify", "--v1", "12", "--v2", "6"])
    assert code == 4
    checks = {c["name"]: c for c in json.loads(out)["results"]["checks"]}
    row = checks.pop("wavefunction-residuals")
    assert row["passed"] is False and row["value"] == "nan"
    assert all(c["passed"] for c in checks.values())


def test_cli_import_leaves_optimize_and_sparse_unloaded():
    # the package depends on numpy alone: no scipy module at all (so neither
    # scipy.optimize nor scipy.sparse.linalg) is loaded by the CLI import,
    # nor by a verify run in the same process
    code = "\n".join([
        "import contextlib, io, sys",
        "import scarf_spectra.cli as cli",
        "scipy = lambda: sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')",
        "print(scipy())",
        "with contextlib.redirect_stdout(io.StringIO()):",
        "    code = cli.main(['verify', '--v1', '12', '--v2', '6'])",
        "print(code, scipy())",
    ])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "0 []"]


def test_module_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "scarf_spectra.cli", "spectrum", "--v1", "12",
         "--v2", "6"],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["results"]["levels"][0]["energy"]["re"] == pytest.approx(
        -8.329001404494074, rel=1e-11)
