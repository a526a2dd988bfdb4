import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import scarf_spectra.cli as cli
from scarf_spectra import (ConvergenceError, CouplingParams, bound_state, derive,
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
    analytic = spectrum(derive(CouplingParams(12.0, 6.0)))
    for got, lv in zip(levels, analytic):
        assert got["n"] == lv.n and got["epsilon"] == lv.epsilon
        assert got["energy"]["re"] == pytest.approx(lv.energy.real, rel=1e-11)
        assert got["energy"]["im"] == 0.0
        assert got["origin"] == "series"
        assert {"lam", "mu", "alpha", "beta"} <= set(got)
    assert doc["results"]["regime"] == "real-spectrum"
    # 12-significant-digit float policy
    assert "-8.32900140449" in out
    # a complex-regime pair below the n = 0 threshold has no levels
    code, out, _ = _run(capsys, ["spectrum", "--v1", "0.1", "--v2", "0.5"])
    assert code == 0 and '"levels": []' in out


def test_output_is_byte_identical(capsys):
    argv = ["spectrum", "--v1", "1", "--v2", "5"]
    _, out1, _ = _run(capsys, argv)
    _, out2, _ = _run(capsys, argv)
    assert out1 == out2
    doc = json.loads(out1)
    pair = doc["results"]["levels"]
    assert pair[0]["energy"]["im"] == pytest.approx(1.45236875483, rel=1e-10)
    assert pair[1]["energy"]["im"] == pytest.approx(-1.45236875483, rel=1e-10)


_K_RANGE = ("--k-min", "0.9", "--k-max", "1.3", "--k-steps", "11")
_GOLDEN_COMMANDS = (
    ("spectrum",),
    ("partner",),
    ("partner", "--branch=-+"),
    ("singularity",),
    ("singularity", "--n", "1", "--points", "5"),
    ("wavefunction", "--n", "0", "--epsilon", "+"),
    ("wavefunction", "--n", "0", "--epsilon", "+", "--points", "11", "--format", "json"),
    ("scatter", *_K_RANGE),
    ("scatter", *_K_RANGE, "--format", "json"),
)
# SHA-256 of stdout for each of _GOLDEN_COMMANDS, in order, per (v1, v2)
_GOLDEN_SHA256 = {
    ("12", "6"): (
        "a7da58d70d5d72e05b6645de02303a0dbf6e0b0682f44f3a99c382e044a5b7f0",
        "eaaebec34d7c357a25fd332b54ebbda42c6cca1baca41d84d6b7b360f539196c",
        "23ffe9f1cbf964b87a6970561922fb8a573f7796c8454293a988dc74baa97ae6",
        "45777bb3e0345fa487a2911f83c13e1ed37b9b00a38d31b2714adc9f0436baf3",
        "26890023af34d2948c8d78ff53e6dd2d8f20594c9e993999bbb8e66759cd6ab4",
        "fe245a6ec20ca8042d7a465b44dc1518705e41ac30d7c204ee837f7a9783d2a0",
        "15207d4bd4d3c82675796cb5212b2c95cfbefd30052d2a5883c086643a0694a9",
        "5ec09c44508ef42bab4366177d94959f30e462470b5b47442e2a4056bc25283f",
        "d238f86645214f5c7f82f0c0bc4a32531bb8160eba05c2e8c1128c491ae355b1",
    ),
    ("1", "5"): (
        "e2a4edc4760171d23eefeeaa641de10e15ccaa5f53c9e488c0e615b9817d5577",
        "6ff2c6f71e03ba89901b3b39979b31fdbb4c1ca43f7a18174602edc501ce6011",
        "92c7822548932a0d966b60ec28a1218d60adfe93b5cef203e92609dc09806d72",
        "cb81770440cd9324ebd0ddadb235f81fc35ba9ee49252964a93f74edad30a1bb",
        "2e3a525acbdb16225ee0efd3b4da007bfe6de350d77ad3f48ec0c953846653e9",
        "1244eaf6ce01dbd2b5d86173c35d4f357e39ca899872ea85d8d4d73acf08bc0e",
        "f548f79ab11e76e8f80c144094205bdf91f4acf7f9be0591efb0b474ac6b8d3f",
        "e80619cb43512231c03c2f0fbcab9146d1cd2a7be1121ad97a1b2d9eafce1495",
        "89b81ecc5a926dd16178ae6551ba9d32131c09051d51bcc4e1c82a689bc1fb09",
    ),
    ("2", "6.75"): (
        "ae3e7cb0d4c28374b8e6cb20ae68ac6645b6da3f3f30297b0c9ed03843d785a7",
        "f0a6f88b996e25577c5287f6b7d40695a3c9c437e1da1ef04a94ce1dbf296ef0",
        "e4a560796b1fe11c49979eaa4784762bed11c8c1262a235fa6c606d86e436bbe",
        "b42c58d83662ac10d56a36fd15ae729d73fb24aad515e43fd5afe7e7127b0332",
        "21487af1e6b95c0f74ee96c84fa4983f308b55e8ab9863f2983234f9a562d411",
        "3bab084caf14e4c0925fb761fec3923fd72416713b06ffd92e433849d3d30cb0",
        "c199c58e01b2816cc1bb501ab4befba219fd1443a091101d785fba20bd980128",
        "6fe98829157e2c313fa1721f90d71b63e67a3e404b0ea9bf0f3899054b20f813",
        "363fc09e6aa6544c8c5ef0ba85e060ebe25c44cf37a2fb1093c3af9bfab4f2c4",
    ),
    ("6", "2.25"): (
        "3bb09c33a29f02e2d7a255140aedaf9b4db23985c18dc0836df80250c9db173e",
        "67e67184690d0a8eeb4cdc45fdb40c0b7d874a156d30ddb2416ede00539e54db",
        "d4dce2bd5889e420d0f0dfa21a9e76b0e3279b2b700a180e0210f971e6ea3b0c",
        "9db19e7012645be0352455c271381d1ef502f3c2892933744ae070ee5e371c76",
        "67efe40d48b824cbcc6e411097c911381fa81f69f83a679d88b5db0559fd5888",
        "b7dc3e95f4905779881f41972dedaaf9bbb910644a21ca364ec1d1ae5758acdb",
        "3cb735a04ae685b9ce22c419e6452f3a99d9ded8de9e11fb476c3b2c071c8f7a",
        "042ce439d84781997eca1e7f994b0c2673576f9bda687be77d6677efd63e3212",
        "102ca3f53807e11e01106248ad0080946f974fd6a65fdd7c2fc1a59e29b820c5",
    ),
}


def test_default_outputs_are_unchanged(capsys):
    # the committed digests pin the whole stdout of each command, byte for byte
    changed = []
    for (v1, v2), digests in _GOLDEN_SHA256.items():
        for cmd, digest in zip(_GOLDEN_COMMANDS, digests):
            argv = [cmd[0], "--v1", v1, "--v2", v2, *cmd[1:]]
            code, out, err = _run(capsys, argv)
            assert code == 0 and err == "", argv
            if hashlib.sha256(out.encode()).hexdigest() != digest:
                changed.append(" ".join(argv))
    assert changed == []


def test_golden_scatter_outputs_match_the_gamma_formula(capsys):
    # an independent check of the pinned scatter digests: every printed T(k)
    # against the mpmath Gamma-function closed form
    from test_verify import _gamma_transmission
    for v1, v2 in _GOLDEN_SHA256:
        for cmd in _GOLDEN_COMMANDS:
            if cmd[0] != "scatter":
                continue
            code, out, err = _run(capsys, [cmd[0], "--v1", v1, "--v2", v2, *cmd[1:]])
            assert code == 0 and err == ""
            if "json" in cmd:
                res = json.loads(out)["results"]
                rows = list(zip(res["k"], res["t_re"], res["t_im"]))
            else:
                rows = [tuple(map(float, line.split(",")[:3]))
                        for line in out.strip().split("\n")[1:]]
            assert len(rows) == 11
            for k, t_re, t_im in rows:
                ref = _gamma_transmission(float(v1), float(v2), k)
                t = complex(t_re, t_im)
                assert abs(t - ref) <= 2e-6 * abs(ref) * max(1.0, abs(ref)), (v1, v2, k)


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
    lv = spectrum(derive(CouplingParams(12.0, 6.0)))[0]
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
    lv = spectrum(derive(CouplingParams(12.0, 6.0)))[0]
    vals = bound_state(lv, xs)
    assert np.max(np.abs(np.array(doc["results"]["psi_re"]) - vals.real)) < 1e-10


def test_wavefunction_that_is_not_finite_exits_3(capsys):
    # n = 36 of (2000, 500) overflows at the box edge, as verify reports
    code, out, err = _run(capsys, ["wavefunction", "--v1", "2000", "--v2", "500",
                                   "--n", "36", "--epsilon", "+"])
    assert code == 3 and out == ""
    assert json.loads(err)["error"] == {
        "type": "DomainError", "message": "psi is not finite at x = -20"}


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
        ["scatter", "--v1", "1", "--v2", "5", "--k-min", "2", "--k-max", "1"],
        ["scatter", "--v1", "1", "--v2", "5", "--k-min", "1", "--k-max", "inf"],
        ["wavefunction", "--v1", "12", "--v2", "6"],                 # no level
        ["partner", "--v1", "12", "--v2", "6", "--domain", "-1"],
        ["partner", "--v1", "12", "--v2", "6", "--domain", "inf"],
        ["wavefunction", "--v1", "12", "--v2", "6", "--n", "0", "--epsilon", "+",
         "--domain", "nan", "--points", "3"],
        # flags these commands do not take
        ["spectrum", "--v1", "12", "--v2", "6", "--domain", "3"],
        ["spectrum", "--v1", "12", "--v2", "6", "--points", "7"],
        ["spectrum", "--v1", "12", "--v2", "6", "--format", "json"],
        ["singularity", "--v1", "12", "--v2", "6", "--epsilon=-"],
        ["singularity", "--v1", "12", "--v2", "6", "--domain", "3"],
        ["singularity", "--v1", "12", "--v2", "6", "--format", "json"],
        ["singularity", "--v1", "12", "--v2", "6", "--points", "5"],   # needs --n
        ["partner", "--v1", "12", "--v2", "6", "--format", "json"],
        ["verify", "--v1", "12", "--v2", "6", "--format", "json"],
        ["scatter", "--v1", "1", "--v2", "5", "--k-min", "0.5", "--k-max", "1.5",
         "--points", "4001"],
        # verify grids must have an odd count of at least 201 points
        ["verify", "--v1", "12", "--v2", "6", "--points", "200"],
        ["verify", "--v1", "12", "--v2", "6", "--points", "4000"],
        ["verify", "--v1", "12", "--v2", "6", "--points", "199"],
        # argparse drops the value "--", which only --branch takes
        ["wavefunction", "--v1", "12", "--v2", "6", "--n", "0", "--epsilon=--"],
        ["scatter", "--v1", "1", "--v2", "5", "--k-min", "0.5", "--k-max", "1.5",
         "--k-steps", "0"],
        ["wavefunction", "--v1", "12", "--v2", "6", "--n", "0", "--epsilon", "+",
         "--points", "1"],
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


def test_exit_4_on_convergence_error(capsys, monkeypatch):
    def no_convergence(*args, **kwargs):
        raise ConvergenceError("Jost integration at k = 1 did not converge")
    monkeypatch.setattr(cli, "scattering", no_convergence)
    code, out, err = _run(capsys, ["scatter", "--v1", "1", "--v2", "5", "--k-min", "0.9",
                                   "--k-max", "1.1"])
    assert code == 4 and out == ""
    assert json.loads(err)["error"] == {
        "type": "ConvergenceError", "message": "Jost integration at k = 1 did not converge"}


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


def test_partner_minus_minus_branch_flag_parses(capsys):
    # argparse drops a value of "--", separate or attached; the CLI restores it
    _, out, _ = _run(capsys, ["partner", "--v1", "12", "--v2", "6", "--points", "3"])
    expected = json.loads(out)["results"]["branches"][3]
    assert expected["branch"] == "--"
    for flag in (["--branch", "--"], ["--branch=--"]):
        code, out, _ = _run(capsys, [
            "partner", "--v1", "12", "--v2", "6", *flag, "--points", "3"])
        assert code == 0
        doc = json.loads(out)
        assert doc["inputs"]["branch"] == "--"
        assert doc["results"]["branches"] == [expected]


def test_parser_is_built_once_and_keeps_no_state(capsys):
    # main reuses one parser; a --branch given to one call must not reach the next
    assert cli.build_parser() is cli.build_parser()
    argv = ["partner", "--v1", "12", "--v2", "6", "--points", "3"]
    _, first, _ = _run(capsys, argv)
    _run(capsys, argv + ["--branch", "-+"])
    _, again, _ = _run(capsys, argv)
    assert again == first and len(json.loads(again)["results"]["branches"]) == 4


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


def test_out_path_that_cannot_be_written_exits_2(tmp_path, capsys):
    (tmp_path / "a-directory").mkdir()
    for path in (tmp_path / "missing" / "x.json", tmp_path / "a-directory"):
        code, out, err = _run(capsys, ["spectrum", "--v1", "12", "--v2", "6",
                                       "--out", str(path)])
        assert code == 2 and out == ""
        doc = json.loads(err)
        assert doc["error"]["type"] == "OSError"
        assert doc["error"]["message"].startswith(f"cannot write --out {path}: ")
        assert ".scarf-spectra-" not in doc["error"]["message"]
    assert list(tmp_path.rglob(".scarf-spectra-*")) == []
    assert [p.name for p in tmp_path.iterdir()] == ["a-directory"]


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


def test_verify_level_threshold_ignores_points(capsys):
    # the eigen-solver does not use the grid's point count, so the threshold
    # its levels are held to does not follow it either
    _, out, _ = _run(capsys, ["verify", "--v1", "12", "--v2", "6", "--points", "201"])
    doc = json.loads(out)
    row = {c["name"]: c for c in doc["results"]["checks"]}["analytic-vs-numeric-levels"]
    assert row["passed"] and row["threshold"] == 1e-3


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


@pytest.mark.parametrize("v1, v2, rows", [
    (6.0, 6.25, [("potential-pt-symmetry", ""),
                 ("spectrum", "regime boundary: spectral checks skipped")]),
    (0.1, 0.5, [("potential-pt-symmetry", ""), ("spectrum", "no bound levels"),
                ("factorization-++", ""), ("factorization-+-", ""),
                ("factorization--+", ""), ("factorization---", "")]),
    (12.0, -6.0, [("potential-pt-symmetry", ""), ("matching-conditions", ""),
                  ("wavefunction-residuals", ""), ("analytic-vs-numeric-levels", "4 levels"),
                  ("factorization", "v2 < 0: partner checks skipped")]),
])
def test_verify_skipped_checks(capsys, v1, v2, rows):
    code, out, _ = _run(capsys, ["verify", "--v1", str(v1), "--v2", str(v2)])
    checks = json.loads(out)["results"]["checks"]
    assert [(c["name"], c["note"]) for c in checks] == rows
    assert code == 0 and all(c["passed"] for c in checks)


def test_verify_names_the_level_whose_state_is_not_finite(capsys):
    # 8 of the 50 closed-form states of (2000, 500) are NaN at |x| = 20
    # (P_n(i sinh x) overflows where sech^lam underflows)
    code, out, err = _run(capsys, ["verify", "--v1", "2000", "--v2", "500"])
    assert code == 4 and err == ""
    row = {c["name"]: c for c in json.loads(out)["results"]["checks"]}["wavefunction-residuals"]
    assert row["passed"] is False and row["value"] == "nan"
    assert row["note"] == "n = 36, epsilon = +1: psi is not finite at x = -20"


def test_verify_names_the_worst_unmatched_level(capsys):
    # the n = 2 pair of (8, -20) at E = 2.913 -/+ 0.540i is not resolved by
    # the eigen-solver; both members miss by the same gap, the first is named
    code, out, _ = _run(capsys, ["verify", "--v1", "8", "--v2", "-20"])
    assert code == 4
    row = {c["name"]: c for c in json.loads(out)["results"]["checks"]}[
        "analytic-vs-numeric-levels"]
    assert row["passed"] is False
    assert row["note"] == "6 levels, 2 unmatched; worst n = 2, epsilon = -1, gap 0.927"


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
    # nor by a verify run in the same process; nor is numpy.polynomial, which
    # `import numpy` leaves unloaded and every closed form does without
    code = "\n".join([
        "import contextlib, io, sys",
        "import scarf_spectra.cli as cli",
        "unwanted = ('scipy', 'numpy.polynomial')",
        "loaded = lambda: sorted(m for m in sys.modules",
        "                        if any(m == u or m.startswith(u + '.') for u in unwanted))",
        "print(loaded())",
        "with contextlib.redirect_stdout(io.StringIO()):",
        "    code = cli.main(['verify', '--v1', '12', '--v2', '6'])",
        "print(code, loaded())",
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


def test_error_message_with_control_characters_is_valid_json(tmp_path, capsys):
    # a tab or newline in a message must be escaped, or stderr is not JSON
    path = tmp_path / "missing\tdir\nname" / "x.json"
    code, out, err = _run(capsys, ["spectrum", "--v1", "12", "--v2", "6", "--out", str(path)])
    assert code == 2 and out == ""
    doc = json.loads(err)
    assert doc["error"]["type"] == "OSError"
    assert doc["error"]["message"].startswith(f"cannot write --out {path}: ")


@pytest.mark.parametrize("argv, n_rows", [
    (["wavefunction", "--v1", "2", "--v2", "6.75", "--n", "0", "--epsilon", "+"], 401),
    (["wavefunction", "--v1", "12", "--v2", "6", "--n", "0", "--epsilon", "-",
      "--points", "7", "--domain", "3"], 7),
    (["scatter", "--v1", "2", "--v2", "6.75", "--k-min", "0.9", "--k-max", "1.3",
      "--k-steps", "3"], 3),
    (["scatter", "--v1", "12", "--v2", "6", "--k-min", "0.5", "--k-max", "2.5",
      "--k-steps", "3", "--domain", "30"], 3),
])
def test_csv_columns_are_the_json_results_lists(capsys, argv, n_rows):
    code, table, err = _run(capsys, argv + ["--format", "csv"])
    assert code == 0 and err == ""
    code, document, err = _run(capsys, argv + ["--format", "json"])
    assert code == 0 and err == ""
    keys = [key for key, value in json.loads(document)["results"].items()
            if isinstance(value, list)]
    header, *rows = table.splitlines()
    assert header.split(",") == keys
    assert len(rows) == n_rows
    # the JSON text of each column, one line per list, as printed
    for i, key in enumerate(keys):
        (line,) = re.findall(r'^    "%s": \[(.*)\],?$' % key, document, re.M)
        assert [row.split(",")[i] for row in rows] == line.split(", "), key


def test_readme_flag_table_matches_the_parser():
    # each row of the README's subcommand table lists exactly the flags that
    # _COMMANDS gives the subcommand, in order ("none" for no flags)
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    table = {}
    for line in readme.splitlines():
        cells = [cell.strip() for cell in line.split("|")]
        if len(cells) == 5 and re.fullmatch(r"`[a-z]+`", cells[1]):
            # a parenthesis qualifies the flag before it and names no new one
            flags = tuple(re.findall(r"`(--[a-z0-9-]+)`", re.sub(r"\(.*?\)", "", cells[2])))
            assert flags or cells[2] == "none", line
            table[cells[1].strip("`")] = flags
    assert table == {name: spec[2] for name, spec in cli._COMMANDS.items()}
