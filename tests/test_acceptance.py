"""End-to-end acceptance checks.

Each test covers one headline requirement, prints a single [PASS]/[FAIL]
line (visible under ``pytest -s``) and then asserts.  Tolerances are the
pinned contract values; they must not be loosened.
"""

import math
import time

import numpy as np

from scarf_spectra import (BRANCH_SIGNS, CouplingParams, GridSpec,
                           JacobiSpec, REFERENCE_GRID, added_level_wavefunction,
                           derive, detect_singularity, discrete_spectrum,
                           extended_potential, factorizing_function,
                           jacobi_eval, jacobi_explicit,
                           matching_residuals, partner_singularity,
                           partner_spectrum, partner_wavefunction_closed,
                           potential_value, pseudo_norm, residual,
                           singularity_scan, singularity_wavefunction,
                           solve_branch, spectrum, verify_suite)
from scarf_spectra.params import Regime
from scarf_spectra.verify import _peak_in_window


def _report(num: int, desc: str, ok: bool, detail: str = ""):
    line = "[%s] criterion %d: %s" % ("PASS" if ok else "FAIL", num, desc)
    if detail:
        line += " (%s)" % detail
    print(line)
    assert ok, line


def _pot(params):
    return lambda x: potential_value(params, x)


def _suite_row(v1, v2, name):
    # the row of verify's check suite on the reference grid
    (row,) = [row for row in verify_suite(CouplingParams(v1, v2), REFERENCE_GRID)
              if row["name"] == name]
    return row


def test_criterion_01_real_regime_spectrum_vs_numeric():
    start = time.perf_counter()
    params = CouplingParams(12.0, 6.0)
    analytic = [lv.energy for lv in spectrum(derive(params))]
    numeric = discrete_spectrum(_pot(params), REFERENCE_GRID, len(analytic))
    elapsed = time.perf_counter() - start
    worst = max(abs(num - ana) for num, ana in zip(numeric, analytic))
    ok = len(numeric) == 4 and worst < 1e-3 and elapsed < 30.0
    _report(1, "four real-regime levels of (12, 6) reproduced on the grid",
            ok, "max |dE| = %.2e, %.1f s" % (worst, elapsed))


def test_criterion_02_complex_regime_spectrum_vs_numeric():
    start = time.perf_counter()
    params = CouplingParams(1.0, 5.0)
    analytic = sorted((lv.energy for lv in spectrum(derive(params))),
                      key=lambda z: (z.real, z.imag))
    numeric = discrete_spectrum(_pot(params), REFERENCE_GRID, 2)
    elapsed = time.perf_counter() - start
    ok = len(numeric) == 2 and elapsed < 30.0
    worst = 0.0
    for num, ana in zip(numeric, analytic):
        worst = max(worst, abs(num.real - ana.real), abs(num.imag - ana.imag))
    ok = ok and worst < 1e-3
    _report(2, "conjugate pair of (1, 5) reproduced in both components",
            ok, "max component error = %.2e, %.1f s" % (worst, elapsed))


def test_criterion_03_spectral_singularity_scan():
    start = time.perf_counter()
    grid = GridSpec(20.0, 1001)
    window = (0.9, 1.3)
    locus = singularity_scan([CouplingParams(2.0, 6.75)], window, grid)[0]
    off = singularity_scan([CouplingParams(1.0, 5.0)], window, grid)[0]
    elapsed = time.perf_counter() - start
    ok = (abs(locus.k_peak ** 2 - 1.125) < 1e-3
          and locus.peak_height >= 1e3 * off.peak_height
          and locus.wronskian_ratio < 1e-3
          and elapsed < 60.0)
    _report(3, "transmission blows up at k^2 = 1.125 on the (2, 6.75) locus",
            ok, "k_peak^2 = %.6f, |T| ratio = %.1e, wronskian = %.1e, %.1f s"
            % (locus.k_peak ** 2, locus.peak_height / off.peak_height,
               locus.wronskian_ratio, elapsed))


def test_criterion_04_pseudo_norm_pi():
    d = derive(CouplingParams(0.125, 0.625))
    rep = detect_singularity(d)
    psi = lambda x: singularity_wavefunction(rep, d, +1, x)
    value = pseudo_norm(psi, (-40.0, 40.0)).value
    err = abs(value - math.pi)
    _report(4, "pseudo-norm of the n*=0 singularity state equals pi",
            rep.is_singular and err < 1e-6, "|norm - pi| = %.2e" % err)


def test_criterion_05_factorization_identities():
    row = _suite_row(12.0, 6.0, "factorization-++")
    ok = row["passed"] and row["threshold"] == 1e-8
    _report(5, "W^2 -+ W' + E rebuilds V and V_ext for branch (+,+) of (12, 6)",
            ok, "larger residual %.1e" % row["value"])


def test_criterion_06_partner_level_deletion():
    params = CouplingParams(12.0, 6.0)
    d = derive(params)
    branch = solve_branch(d, 1, 1)
    vext = lambda x: extended_potential(branch, params, x)
    numeric = discrete_spectrum(vext, REFERENCE_GRID, 4)
    kept = [-8.329001404494074188, -0.78499765917654302008,
            -0.14899672284716022811]
    deleted = -3.556999531835308604
    hit = all(min(abs(z - e) for z in numeric) < 1e-3 for e in kept)
    gone = all(abs(z - deleted) > 0.05 for z in numeric)
    _report(6, "branch (+,+) extension of (12, 6) drops exactly the -3.557 level",
            hit and gone, "%d eigenvalues found" % len(numeric))


def test_criterion_07_partner_level_addition():
    params = CouplingParams(12.0, 6.0)
    d = derive(params)
    branch = solve_branch(d, -1, 1)
    vext = lambda x: extended_potential(branch, params, x)
    numeric = discrete_spectrum(vext, REFERENCE_GRID, 5)
    e_add = -5.693000468164691396
    gap = min(abs(z - e_add) for z in numeric)
    _report(7, "branch (-,+) extension of (12, 6) gains a level at -5.693",
            gap < 1e-3, "nearest eigenvalue off by %.2e" % gap)


def test_criterion_08_partner_singularity_preserved():
    params = CouplingParams(2.0, 6.75)
    d = derive(params)
    branch = solve_branch(d, 1, 1)
    rep = partner_singularity(branch, d)
    vext = lambda x: extended_potential(branch, params, x)
    k_peak, *_ = _peak_in_window(vext, (0.9, 1.3), GridSpec(20.0, 1001),
                                 coarse_steps=31, xtol=1e-6)
    ok = (rep.is_singular
          and abs(k_peak ** 2 - 1.125) < 1e-3
          and abs(rep.vprime_sum - 3.75) < 1e-9)
    _report(8, "extension of (2, 6.75) keeps the singularity at k^2 = 1.125",
            ok, "k_peak^2 = %.6f, v1' + v2' = %.12f" % (k_peak ** 2, rep.vprime_sum))


def test_criterion_09_property_suites():
    # (a) matching-condition closure on 100 random draws per regime
    rng = np.random.default_rng(20260814)
    counts = {Regime.REAL_SPECTRUM: 0, Regime.COMPLEX_SPECTRUM: 0}
    worst_match = 0.0
    while min(counts.values()) < 100:
        v1 = float(rng.uniform(0.05, 25.0))
        v2 = float(rng.uniform(-25.0, 25.0))
        if abs(v2) < 1e-3 or abs(abs(v2) - v1 - 0.25) < 1e-6:
            continue
        params = CouplingParams(v1, v2)
        d = derive(params)
        if d.regime not in counts or counts[d.regime] >= 100:
            continue
        counts[d.regime] += 1
        for lv in spectrum(d):
            worst_match = max(worst_match,
                              max(matching_residuals(lv, params).values()))
    ok_a = worst_match < 1e-12

    # (b) recurrence vs explicit-sum Jacobi evaluation, n <= 8
    rng = np.random.default_rng(42)
    worst_jac = 0.0
    for _ in range(40):
        al = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        be = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        y = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        for n in range(9):
            a_val = jacobi_eval(JacobiSpec(n, al, be), y)
            b_val = jacobi_explicit(JacobiSpec(n, al, be), y)
            worst_jac = max(worst_jac, abs(a_val - b_val) / max(1.0, abs(b_val)))
    ok_b = worst_jac < 1e-10

    # (c) PT-pair identity at the singularity
    d = derive(CouplingParams(2.0, 6.75))
    rep = detect_singularity(d)
    xs = np.linspace(-15.0, 15.0, 301)
    plus = singularity_wavefunction(rep, d, +1, -xs)
    minus = singularity_wavefunction(rep, d, -1, xs)
    worst_pt = float(np.max(np.abs(np.conj(plus) - minus)))
    ok_c = worst_pt < 1e-12

    # (d) Schroedinger residual of every closed-form state on the grid
    worst_res = 0.0

    def track(pot, psi, energy):
        nonlocal worst_res
        # np.max keeps a NaN, which Python's max drops when it is not first
        worst_res = float(np.max([worst_res, residual(pot, psi, energy, REFERENCE_GRID)]))

    # the bound states: verify's rows, the largest residual of each pair
    for v1, v2 in ((12.0, 6.0), (1.0, 5.0), (12.0, -6.0)):
        worst_res = float(np.max([worst_res,
                                  _suite_row(v1, v2, "wavefunction-residuals")["value"]]))

    for v1, v2 in ((2.0, 6.75), (0.125, 0.625)):
        params = CouplingParams(v1, v2)
        d = derive(params)
        rep = detect_singularity(d)
        for eps in (1, -1):
            track(_pot(params),
                  lambda x, _e=eps: singularity_wavefunction(rep, d, _e, x),
                  rep.e_star)

    params = CouplingParams(12.0, 6.0)
    d = derive(params)
    for sp, sm in BRANCH_SIGNS:
        branch = solve_branch(d, sp, sm)
        track(_pot(params), lambda x, _b=branch: factorizing_function(_b, x),
              branch.factorization_energy)
        if sp == -1:
            track(lambda x, _b=branch: extended_potential(_b, params, x),
                  lambda x, _b=branch: added_level_wavefunction(_b, x),
                  branch.factorization_energy)

    for v1, v2 in ((12.0, 6.0), (1.0, 5.0)):
        params = CouplingParams(v1, v2)
        d = derive(params)
        branch = solve_branch(d, 1, 1)
        vext = lambda x, _b=branch: extended_potential(_b, params, x)
        for lv in spectrum(d):
            if (lv.n, lv.epsilon) == (1, 1):
                continue
            track(vext,
                  lambda x, _lv=lv: partner_wavefunction_closed(
                      branch, d, _lv.n, _lv.epsilon, x),
                  lv.energy)
    ok_d = worst_res < 1e-6

    ok = ok_a and ok_b and ok_c and ok_d
    _report(9, "property suites: matching, Jacobi routes, PT pair, residuals",
            ok, "matching %.1e, jacobi %.1e, pt-pair %.1e, residual %.1e"
            % (worst_match, worst_jac, worst_pt, worst_res))


def test_criterion_10_degeneracy_condition():
    params = CouplingParams(6.0, 2.25)
    d = derive(params)
    branch = solve_branch(d, -1, 1)
    _, edit = partner_spectrum(branch, d)
    e0_plus = spectrum(d)[0].energy.real
    analytic_gap = abs(complex(edit.added.energy).real - e0_plus)
    ok = edit.degeneracy is not None and analytic_gap < 1e-9

    # the doubled level shows up on the grid as a tight conjugate pair whose
    # mean sits on the analytic energy, next to the untouched n=1 level
    vext = lambda x: extended_potential(branch, params, x)
    numeric = discrete_spectrum(vext, REFERENCE_GRID, 3)
    e1_plus = spectrum(d)[1].energy.real
    pair = sorted(numeric, key=lambda z: abs(z - e0_plus))[:2]
    ok = ok and len(numeric) == 3
    ok = ok and all(abs(z - e0_plus) < 0.05 for z in pair)
    mean_gap = abs(sum(pair) / 2.0 - e0_plus)
    ok = ok and mean_gap < 1e-3
    other = [z for z in numeric if z not in pair]
    ok = ok and len(other) == 1 and abs(other[0] - e1_plus) < 1e-3
    _report(10, "added level of (6, 2.25) branch (-,+) collides with the ground level",
            ok, "analytic gap %.1e, numeric pair mean off by %.1e"
            % (analytic_gap, mean_gap))
