"""Each correctness check passes on the package's output for its input and
fails on the output for a perturbed input (a coupling shifted by 1e-3 unless
noted) or on a perturbed output.

    python3 -m pytest perfbench -q
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import pytest  # noqa: E402

import checks  # noqa: E402
import workloads as W  # noqa: E402
from workloads import M  # noqa: E402

def _cp(v1, v2):
    return M.params.CouplingParams(float(v1), float(v2))


def _op(kind, **spec):
    return W.Op(kind, kind, spec, None)


def _assert_check(kind, spec, good, bad):
    op = _op(kind, **spec)
    assert not checks.failed(op, good)
    assert checks.problems(op, good) == []
    assert not checks.failed(op, bad)
    assert checks.problems(op, bad) != []


def test_verify():
    good = W.cli_in_process(W._argv("verify", 12, 6))
    bad = W.cli_in_process(W._argv("verify", 12.001, 6))
    _assert_check("verify", {"v1": 12, "v2": 6}, good, bad)


def test_verify_known_failure_counts_as_failed():
    out = W.cli_in_process(W._argv("verify", 12, 12.249))
    assert checks.failed(_op("verify", v1=12, v2=12.249), out)


def test_partner_spectrum():
    # the level tolerance is the acceptance criteria's 1e-3 (1 + |E|), so a
    # 1e-3 coupling shift hides inside it; shift by 0.05
    def numeric(v1):
        cp = _cp(v1, 6)
        b = M.partner.solve_branch(M.params.derive(_cp(12, 6)), 1, 1)
        return M.verify.discrete_spectrum(lambda x: M.partner.extended_potential(b, cp, x),
                                          M.verify.REFERENCE_GRID, 3)
    _assert_check("partner-spectrum", {"v1": 12, "v2": 6, "signs": (1, 1), "count": 3},
                  numeric(12), numeric(12.05))


def test_scatter():
    def sweep(v1):
        return W.cli_in_process(W._argv("scatter", v1, 6.75, "--k-min=0.9", "--k-max=1.3",
                                        "--k-steps=3"))
    _assert_check("scatter", {"v1": 2, "v2": 6.75, "k": (0.9, 1.3, 3)}, sweep(2), sweep(2.001))


@pytest.mark.parametrize("pair, window", [s for s in W.SCANS if s[0] != (6, 18.75)])
def test_scan(pair, window):
    def scan(v1):
        pt = M.verify.singularity_scan([_cp(v1, pair[1])], window,
                                       M.verify.GridSpec(20.0, 1001),
                                       coarse_steps=W.SCAN_COARSE)[0]
        return pt.k_peak, pt.peak_height, pt.wronskian_ratio
    _assert_check("scan", {"v1": pair[0], "v2": pair[1], "window": window},
                  scan(pair[0]), scan(pair[0] + 1e-3))


def test_partner_scatter_susy_relation_and_unitarity():
    b = M.partner.solve_branch(M.params.derive(_cp(12, 6)), 1, 1)

    def sweep(v1):
        cp = _cp(v1, 6)
        r = M.verify.scattering(lambda x: M.partner.extended_potential(b, cp, x), 0.8,
                                M.verify.GridSpec(20.0, 201))
        return [(r.k, r.transmission, r.reflection_left, r.reflection_right)]
    spec = {"v1": 12, "v2": 6, "signs": (1, 1), "k": (0.8,)}
    good = sweep(12)
    _assert_check("partner-scatter", spec, good, sweep(12.001))
    k, t, rl, rr = good[0]
    # T_ext stays right, generalized unitarity breaks
    assert checks.problems(_op("partner-scatter", **spec), [(k, t, rl * 1.001, rr)])
