import cmath
import dataclasses
import math

import numpy as np
import pytest

from scarf_spectra import (BRANCH_SIGNS, CouplingParams, DomainError,
                           GridSpec, JacobiSpec, LevelRecord, PartnerBranch, PartnerKind,
                           PoleError, REFERENCE_GRID, RegimeError, SingularBranchError,
                           added_level_wavefunction, bound_state,
                           bound_state_derivative, derive, detect_singularity,
                           exceptional_jacobi, extended_potential,
                           factorization_residuals, factorizing_function,
                           jacobi_derivative, jacobi_eval, jacobi_explicit,
                           matching_residuals, partner_polynomial,
                           partner_singularity, partner_spectrum,
                           partner_wavefunction, partner_wavefunction_closed,
                           potential_value, residual, singularity_wavefunction,
                           solve_branch, spectrum, superpotential,
                           superpotential_derivative, wavefunction_derivative,
                           wavefunction_params, wavefunction_value)

REAL_D = derive(CouplingParams(12.0, 6.0))
COMPLEX_D = derive(CouplingParams(1.0, 5.0))


def _flatness(values):
    m = values.mean()
    return np.max(np.abs(values - m)) / abs(m)


# ---------------------------------------------------------------------------
# branch solving
# ---------------------------------------------------------------------------

def test_solve_branch_real_frozen():
    br = solve_branch(REAL_D, 1, 1)
    assert br.kind is PartnerKind.PT_SYMMETRIC
    assert br.a == pytest.approx(2.886000936329382792, abs=1e-12)
    assert br.b == pytest.approx(0.88600093632938279197, abs=1e-12)
    assert br.c == pytest.approx(-0.37133302122353906934, abs=1e-12)
    assert br.factorization_energy == pytest.approx(-3.556999531835308604, abs=1e-12)
    assert isinstance(br.a, float) and isinstance(br.c, float)
    # factorization energy is the n=1 eps=+1 level
    e1 = [lv.energy for lv in spectrum(REAL_D) if (lv.n, lv.epsilon) == (1, 1)][0]
    assert br.factorization_energy == pytest.approx(e1.real, abs=1e-12)


def test_solve_branch_complex_frozen():
    br = solve_branch(COMPLEX_D, 1, 1)
    assert br.kind is PartnerKind.COMPLEX_NON_PT
    assert br.a == pytest.approx(0.75 + 0.96824583655185422129j, abs=1e-12)
    assert br.b == pytest.approx(1.25 - 0.96824583655185422129j, abs=1e-12)


def test_branch_coupled_equations_random():
    rng = np.random.default_rng(97)
    done = 0
    while done < 60:
        v1 = float(rng.uniform(0.3, 20.0))
        v2 = float(rng.uniform(0.1, 30.0))
        if abs(v2 - v1 - 0.25) < 1e-3:
            continue
        params = CouplingParams(v1, v2)
        d = derive(params)
        for sp, sm in BRANCH_SIGNS:
            try:
                br = solve_branch(d, sp, sm)
            except SingularBranchError:
                continue
            a, b = complex(br.a), complex(br.b)
            scale = 1.0 + v1 + v2
            assert abs(a * (a + 1.0) + b * b - v1) < 1e-12 * scale
            assert abs((2.0 * a + 1.0) * b - v2) < 1e-12 * scale
            # combined closure on the sum of couplings
            assert abs((a + b) * (a + b + 1.0) - (v1 + v2)) < 1e-12 * scale
            assert abs(complex(br.c) * (2.0 * a - 1.0) + 2.0 * b) < 1e-12 * scale
            assert abs(complex(br.factorization_energy) + (a - 1.0) ** 2) < 1e-12 * scale
        done += 1


def test_solve_branch_rejections():
    with pytest.raises(DomainError):
        solve_branch(derive(CouplingParams(12.0, -6.0)), 1, 1)
    with pytest.raises(RegimeError):
        solve_branch(derive(CouplingParams(1.0, 1.25)), 1, 1)
    with pytest.raises(DomainError):
        solve_branch(REAL_D, 0, 1)


def test_singular_branch():
    # p = 2, s = 1 there, so eps_plus p + eps_minus s = 1 and a = 1/2
    d = derive(CouplingParams(9.75, 6.0))
    with pytest.raises(SingularBranchError):
        solve_branch(d, 1, -1)
    # the other branches are fine
    for sp, sm in ((1, 1), (-1, 1), (-1, -1)):
        solve_branch(d, sp, sm)


# ---------------------------------------------------------------------------
# superpotential and extended potential
# ---------------------------------------------------------------------------

def test_superpotential_origin():
    br = solve_branch(REAL_D, 1, 1)
    w0 = superpotential(br, 0.0)
    assert w0 == pytest.approx(1j * (br.b - 1.0 / br.c), abs=1e-14)
    assert w0 == pytest.approx(1j * (0.8860009 + 2.6930005), abs=1e-6)


def test_superpotential_asymptotes():
    for d in (REAL_D, COMPLEX_D):
        for sp, sm in BRANCH_SIGNS:
            br = solve_branch(d, sp, sm)
            assert superpotential(br, 30.0) == pytest.approx(br.a - 1.0, abs=1e-10)
            assert superpotential(br, -30.0) == pytest.approx(-(br.a - 1.0), abs=1e-10)


def test_superpotential_derivative_consistency():
    # factorization_residuals takes W' from superpotential_derivative, so this
    # 4th-order central difference is the check that W' is dW/dx
    xs = np.linspace(-4.0, 4.0, 17)
    h = 1e-5
    for d in (REAL_D, COMPLEX_D):
        for sp, sm in BRANCH_SIGNS:
            br = solve_branch(d, sp, sm)
            fd = (superpotential(br, xs - 2 * h) - 8.0 * superpotential(br, xs - h)
                  + 8.0 * superpotential(br, xs + h)
                  - superpotential(br, xs + 2 * h)) / (12.0 * h)
            err = np.max(np.abs(fd - superpotential_derivative(br, xs)))
            assert err < 1e-10, (d, sp, sm, err)


def test_superpotential_pole():
    # synthetic branch whose rational term blows up at x = 1
    br = PartnerBranch(eps_plus=1, eps_minus=1, a=1.0, b=1.0,
                       c=-1j * math.sinh(1.0), factorization_energy=0.0,
                       kind=PartnerKind.COMPLEX_NON_PT)
    with pytest.raises(PoleError):
        superpotential(br, 1.0)
    with pytest.raises(PoleError):
        superpotential_derivative(br, np.linspace(0.0, 2.0, 9))


def test_extended_potential_origin_hand_value():
    br = solve_branch(REAL_D, 1, 1)
    a, b = br.a, br.b
    expected = -(12.0 - 2.0 * a) - 2.0 + (4.0 * b ** 2 - (2.0 * a - 1.0) ** 2) / (2.0 * b ** 2)
    got = extended_potential(br, CouplingParams(12.0, 6.0), 0.0)
    assert got == pytest.approx(expected, abs=1e-12)
    assert abs(got.imag) < 1e-14


def test_extended_potential_regular_and_decaying():
    br = solve_branch(REAL_D, 1, 1)
    params = CouplingParams(12.0, 6.0)
    xs = np.linspace(-30.0, 30.0, 2001)
    vals = extended_potential(br, params, xs)
    assert np.all(np.isfinite(vals))
    assert abs(extended_potential(br, params, 30.0)) < 1e-11
    assert abs(extended_potential(br, params, -30.0)) < 1e-11


def test_extended_potential_pole_guard():
    br = PartnerBranch(eps_plus=1, eps_minus=1, a=1.0, b=0.0,
                       c=0.0, factorization_energy=0.0,
                       kind=PartnerKind.COMPLEX_NON_PT)
    with pytest.raises(PoleError):
        extended_potential(br, CouplingParams(1.0, 1.0), 0.0)


def test_extended_potential_pt_classification():
    xs = np.linspace(0.1, 6.0, 40)
    br = solve_branch(REAL_D, 1, 1)
    params = CouplingParams(12.0, 6.0)
    sym = np.abs(extended_potential(br, params, -xs)
                 - np.conj(extended_potential(br, params, xs)))
    assert np.max(sym) < 1e-12

    brc = solve_branch(COMPLEX_D, 1, 1)
    paramsc = CouplingParams(1.0, 5.0)
    broken = np.abs(extended_potential(brc, paramsc, -xs)
                    - np.conj(extended_potential(brc, paramsc, xs)))
    assert np.max(broken) > 1e-6


def test_factorization_residuals_reference_branch():
    br = solve_branch(REAL_D, 1, 1)
    res_v, res_ext = factorization_residuals(br, CouplingParams(12.0, 6.0),
                                             np.linspace(-8.0, 8.0, 161))
    assert res_v < 1e-9
    assert res_ext < 1e-9


def test_factorization_residuals_all_branches():
    # at small v2 / v1 the (+, +) and (-, -) branches have a near-pole at
    # x = 0, where |i sinh x + c| drops to |c| (5.7e-3 for (12, 0.1))
    for params in (CouplingParams(12.0, 6.0), CouplingParams(1.0, 5.0),
                   CouplingParams(12.0, 0.1), CouplingParams(100.0, 1.0)):
        d = derive(params)
        for sp, sm in BRANCH_SIGNS:
            br = solve_branch(d, sp, sm)
            res_v, res_ext = factorization_residuals(br, params,
                                                     np.linspace(-8.0, 8.0, 161))
            assert res_v < 1e-8, (params, sp, sm, res_v)
            assert res_ext < 1e-8, (params, sp, sm, res_ext)


@pytest.mark.xfail(strict=True, reason="W^2 and V_ext reach about 1/|c|^2 ~ 1e9 near "
                   "x = 0, so the roundoff of W^2 + W' + E exceeds the absolute 1e-8")
def test_factorization_residuals_near_pole_roundoff():
    params = CouplingParams(12.0, 0.001)
    br = solve_branch(derive(params), -1, -1)
    assert max(factorization_residuals(br, params, REFERENCE_GRID.points())) < 1e-8


# ---------------------------------------------------------------------------
# factorizing function and added level
# ---------------------------------------------------------------------------

def test_factorizing_function_origin_value():
    for d in (REAL_D, COMPLEX_D):
        for sp, sm in BRANCH_SIGNS:
            br = solve_branch(d, sp, sm)
            assert factorizing_function(br, 0.0) == pytest.approx(br.b, abs=1e-13)
    br = solve_branch(REAL_D, 1, 1)
    assert factorizing_function(br, 0.0) == pytest.approx(REAL_D.p - REAL_D.s, abs=1e-12)
    assert factorizing_function(br, 0.0) == pytest.approx(0.8860009, abs=1e-6)


def test_factorizing_function_is_first_excited_state():
    br = solve_branch(REAL_D, 1, 1)
    lv = [x for x in spectrum(REAL_D) if (x.n, x.epsilon) == (1, 1)][0]
    xs = np.linspace(-6.0, 6.0, 81)
    ratio = factorizing_function(br, xs) / bound_state(lv, xs)
    assert _flatness(ratio) < 1e-10


def test_factorizing_function_growth_rate():
    # deleting-free branches grow like exp[(p - eps_minus s + 3/2)|x|]
    for sm in (1, -1):
        br = solve_branch(REAL_D, -1, sm)
        rate = REAL_D.p - sm * REAL_D.s + 1.5
        grow = abs(factorizing_function(br, 8.0) / factorizing_function(br, 4.0))
        assert grow == pytest.approx(math.exp(4.0 * rate), rel=0.01)


def test_factorizing_function_solves_original_equation():
    params = CouplingParams(12.0, 6.0)
    pot = lambda x: potential_value(params, x)
    for sp, sm in BRANCH_SIGNS:
        br = solve_branch(REAL_D, sp, sm)
        phi = lambda x, _b=br: factorizing_function(_b, x)
        assert residual(pot, phi, br.factorization_energy,
                        GridSpec(20.0, 4001)) < 1e-8, (sp, sm)


def test_added_level_wavefunction_decays_and_solves_partner():
    br = solve_branch(REAL_D, -1, 1)
    params = CouplingParams(12.0, 6.0)
    decay = abs(added_level_wavefunction(br, 8.0) / added_level_wavefunction(br, 4.0))
    assert decay == pytest.approx(math.exp(-4.0 * (REAL_D.p - REAL_D.s + 1.5)), rel=0.01)
    pot = lambda x: extended_potential(br, params, x)
    psi = lambda x: added_level_wavefunction(br, x)
    assert residual(pot, psi, br.factorization_energy, GridSpec(20.0, 4001)) < 1e-8


def test_added_level_requires_adding_branch():
    br = solve_branch(REAL_D, 1, 1)
    with pytest.raises(DomainError):
        added_level_wavefunction(br, 0.0)


# ---------------------------------------------------------------------------
# partner spectrum bookkeeping
# ---------------------------------------------------------------------------

def test_partner_spectrum_deletion():
    br = solve_branch(REAL_D, 1, 1)
    levels, edit = partner_spectrum(br, REAL_D)
    assert edit.added is None and edit.degeneracy is None
    assert edit.deleted is not None
    assert (edit.deleted.n, edit.deleted.epsilon) == (1, 1)
    assert edit.deleted.energy == pytest.approx(-3.556999531835308604, abs=1e-12)
    got = sorted(lv.energy.real for lv in levels)
    expected = [-8.329001404494074188, -0.78499765917654302008,
                -0.14899672284716022811]
    assert got == pytest.approx(expected, abs=1e-12)


def test_partner_spectrum_vacuous_deletion():
    # (6, 2) has no (n=1, eps=-1) level, so the (+,-) branch deletes nothing
    d = derive(CouplingParams(6.0, 2.0))
    br = solve_branch(d, 1, -1)
    levels, edit = partner_spectrum(br, d)
    assert edit.deleted is None and edit.added is None
    assert len(levels) == len(spectrum(d))


def test_partner_spectrum_addition():
    br = solve_branch(REAL_D, -1, 1)
    levels, edit = partner_spectrum(br, REAL_D)
    assert edit.deleted is None and edit.degeneracy is None
    assert edit.added is not None
    assert edit.added.origin == "susy-added"
    assert edit.added.wf is None
    for closed_form in (bound_state, bound_state_derivative):
        with pytest.raises(DomainError, match="no closed-form"):
            closed_form(edit.added, 0.0)
    with pytest.raises(DomainError, match="no wavefunction"):
        matching_residuals(edit.added, CouplingParams(12.0, 6.0))
    assert edit.added.epsilon == 1
    assert edit.added.energy == pytest.approx(-5.693000468164691396, abs=1e-12)
    assert len(levels) == 5
    energies = [lv.energy.real for lv in levels]
    assert energies == sorted(energies)


def test_partner_spectrum_degeneracy_note():
    # v2 = v1 - (3/2)(5/2) makes the added level collide with the n=0 eps=+ one
    d = derive(CouplingParams(6.0, 2.25))
    br = solve_branch(d, -1, 1)
    _, edit = partner_spectrum(br, d)
    assert edit.degeneracy is not None
    assert edit.degeneracy.n == 0
    assert edit.degeneracy.energy == pytest.approx(-3.8327379737113251177, abs=1e-12)
    assert edit.added.energy == pytest.approx(edit.degeneracy.energy, abs=1e-12)


def test_added_level_ordering_small_s():
    # for s < 1 the added level of a (-, +) branch sits below the eps=+ series
    for v1, v2 in ((6.0, 3.0), (10.0, 7.0), (3.0, 1.5)):
        d = derive(CouplingParams(v1, v2))
        assert d.s < 1.0
        br = solve_branch(d, -1, 1)
        plus = [lv.energy.real for lv in spectrum(d) if lv.epsilon == 1]
        assert complex(br.factorization_energy).real < min(plus)


def test_complex_added_level_is_leftmost():
    for sm in (1, -1):
        br = solve_branch(COMPLEX_D, -1, sm)
        levels, edit = partner_spectrum(br, COMPLEX_D)
        assert levels[0].origin == "susy-added"
        re_add = edit.added.energy.real
        assert re_add == pytest.approx(-((COMPLEX_D.p + 1.5) ** 2 - COMPLEX_D.q ** 2),
                                       abs=1e-12)
        assert all(re_add < lv.energy.real for lv in levels[1:])


def test_partner_spectrum_rejects_mismatched_parameters():
    br = solve_branch(REAL_D, 1, 1)
    with pytest.raises(DomainError):
        partner_spectrum(br, derive(CouplingParams(6.0, 2.0)))


def test_partner_spectrum_rejects_a_mismatched_factorization_energy():
    # a belongs to (12, 6), so the record passes the branch check; only its
    # energy disagrees with the level it would delete
    br = solve_branch(REAL_D, 1, 1)
    br = dataclasses.replace(br, factorization_energy=br.factorization_energy + 1e-3)
    with pytest.raises(DomainError, match="deleted-level energy mismatch"):
        partner_spectrum(br, REAL_D)


# ---------------------------------------------------------------------------
# partner polynomials
# ---------------------------------------------------------------------------

PARTNER_YS = np.array([0.0, 1.0, -1.0, 0.4 - 1.3j, -2.2 + 0.6j, 3.1j])


def test_partner_polynomial_degree0():
    vals = partner_polynomial(0, 1, REAL_D.p, REAL_D.s, PARTNER_YS)
    assert vals.shape == PARTNER_YS.shape
    assert np.max(np.abs(vals - 1.0)) < 1e-14


def test_partner_polynomial_degree2_published_form():
    p, s = REAL_D.p, REAL_D.s
    vals = partner_polynomial(2, 1, p, s, PARTNER_YS)
    y = PARTNER_YS
    expected = ((p + s - 1.0) * (2.0 * p + 2.0 * s - 3.0) * y ** 2
                - 2.0 * (p - s) * (2.0 * p + 2.0 * s - 3.0) * y
                + 2.0 * (p - s) ** 2 - (p + s - 1.0))
    assert np.max(np.abs(vals - expected)) < 1e-12 * np.max(np.abs(expected))


def test_partner_polynomial_skips_deleted_index():
    with pytest.raises(DomainError):
        partner_polynomial(1, 1, REAL_D.p, REAL_D.s, 0.5)
    with pytest.raises(DomainError, match="level index"):
        partner_polynomial(-1, 1, REAL_D.p, REAL_D.s, 0.5)
    with pytest.raises(DomainError, match="epsilon"):
        partner_polynomial(0, 0, REAL_D.p, REAL_D.s, 0.5)


def test_exceptional_jacobi_degree1_convention():
    p, s = REAL_D.p, REAL_D.s
    rng = np.random.default_rng(5)
    ys = rng.normal(size=6) + 1j * rng.normal(size=6)
    for y in ys:
        got = exceptional_jacobi(1, s, p, y)
        want = 2.0 * (s - p + 1.0) + 2.0 * (p + s - 1.0) * y
        assert got == pytest.approx(want, abs=1e-12 * (1.0 + abs(want)))


def test_exceptional_jacobi_validation():
    with pytest.raises(DomainError):
        exceptional_jacobi(0, 1.25, 2.0, 0.5)
    with pytest.raises(DomainError):
        exceptional_jacobi(2, 0.5, 2.0, 0.5)            # 2s - 1 = 0
    with pytest.raises(DomainError):
        exceptional_jacobi(2, 0.25, 0.75, 0.5)          # p + s - 1 = 0


def test_exceptional_jacobi_matches_minus_family():
    p, s = REAL_D.p, REAL_D.s
    got = partner_polynomial(0, -1, p, s, PARTNER_YS)
    want = exceptional_jacobi(1, s, p, PARTNER_YS)
    assert np.max(np.abs(got - want)) == 0.0


# ---------------------------------------------------------------------------
# partner wavefunctions
# ---------------------------------------------------------------------------

def _vext_callable(branch, params):
    return lambda x: extended_potential(branch, params, x)


def test_partner_closed_states_solve_extended_equation():
    params = CouplingParams(12.0, 6.0)
    br = solve_branch(REAL_D, 1, 1)
    pot = _vext_callable(br, params)
    levels = {(lv.n, lv.epsilon): lv for lv in spectrum(REAL_D)}
    for n, eps in ((0, 1), (2, 1), (0, -1)):
        psi = lambda x, _n=n, _e=eps: partner_wavefunction_closed(br, REAL_D, _n, _e, x)
        res = residual(pot, psi, levels[(n, eps)].energy, GridSpec(20.0, 4001))
        assert res < 1e-6, (n, eps, res)


def test_partner_x1_state_high_accuracy():
    # the eps=-1 ground state of the extension carries the degree-1
    # exceptional polynomial; its residual is required an order tighter
    params = CouplingParams(12.0, 6.0)
    br = solve_branch(REAL_D, 1, 1)
    pot = _vext_callable(br, params)
    lv = [x for x in spectrum(REAL_D) if (x.n, x.epsilon) == (0, -1)][0]
    psi = lambda x: partner_wavefunction_closed(br, REAL_D, 0, -1, x)
    assert residual(pot, psi, lv.energy, GridSpec(20.0, 4001)) < 1e-8


def test_partner_closed_states_complex_regime():
    params = CouplingParams(1.0, 5.0)
    br = solve_branch(COMPLEX_D, 1, 1)
    pot = _vext_callable(br, params)
    for lv in spectrum(COMPLEX_D):
        psi = lambda x, _lv=lv: partner_wavefunction_closed(br, COMPLEX_D, _lv.n,
                                                            _lv.epsilon, x)
        res = residual(pot, psi, lv.energy, GridSpec(20.0, 4001))
        assert res < 1e-6, (lv.n, lv.epsilon, res)


def test_partner_intertwined_matches_closed_form():
    br = solve_branch(REAL_D, 1, 1)
    lv = [x for x in spectrum(REAL_D) if (x.n, x.epsilon) == (0, 1)][0]
    xs = np.linspace(-5.0, 5.0, 101)
    ratio = partner_wavefunction(br, lv, xs) / partner_wavefunction_closed(
        br, REAL_D, 0, 1, xs)
    assert _flatness(ratio) < 1e-8


def test_partner_wavefunction_deleted_level_error():
    br = solve_branch(REAL_D, 1, 1)
    lv = [x for x in spectrum(REAL_D) if (x.n, x.epsilon) == (1, 1)][0]
    with pytest.raises(DomainError):
        partner_wavefunction(br, lv, 0.0)
    with pytest.raises(DomainError):
        partner_wavefunction_closed(br, REAL_D, 1, 1, 0.0)


def test_partner_closed_form_range_checks():
    br = solve_branch(REAL_D, 1, 1)
    with pytest.raises(DomainError):
        partner_wavefunction_closed(br, REAL_D, 5, 1, 0.0)
    with pytest.raises(DomainError):
        partner_wavefunction_closed(solve_branch(REAL_D, -1, 1), REAL_D, 0, 1, 0.0)


def test_partner_intertwined_all_branches():
    # applying the first-order map to any surviving analytic level must give
    # an eigenstate of the matching extension at the same energy
    for params in (CouplingParams(12.0, 6.0), CouplingParams(1.0, 5.0)):
        d = derive(params)
        for sp, sm in BRANCH_SIGNS:
            br = solve_branch(d, sp, sm)
            pot = _vext_callable(br, params)
            for lv in spectrum(d):
                if sp == 1 and (lv.n, lv.epsilon) == (1, sm):
                    continue
                psi = lambda x, _lv=lv, _b=br: partner_wavefunction(_b, _lv, x)
                res = residual(pot, psi, lv.energy, GridSpec(20.0, 4001))
                assert res < 1e-5, (params, sp, sm, lv.n, lv.epsilon, res)


# ---------------------------------------------------------------------------
# every (+, +) partner state of a deep real and a complex coupling pair
# ---------------------------------------------------------------------------

# Values frozen from the power-basis evaluation (monomial coefficients and
# Horner's rule), an independent route to the same closed forms.
PINNED_X = (-3.0, -0.7, 0.0, 1.1, 4.0)
PINNED_Y = (0.3 - 0.8j, -1.7 + 0.4j, 2.5j)

FROZEN_PARTNER_STATES = {
    (100, 40): {
        (0, 1): (
            (6.2123466973742755e-12+5.3068082698425086e-11j), (0.021677391868167736+0.0010817133611026831j),
            (0.4901201657614257+0j), (0.0010517620914774952-0.0005673730435012366j),
            (1.4404464574238418e-17-4.950969985625331e-15j),
        ),
        (2, 1): (
            (-1.2715109385347232e-07-7.742386318365512e-07j), (-1.8891944657286972+1.0227248134736244j),
            (-0.23360343776172393+0j), (-0.32609255732134257+0.053025599776200645j),
            (-1.0722876092730442e-11+5.389025669672727e-10j),
        ),
        (3, 1): (
            (3.5270885627923786e-05-7.007919308235956e-06j), (-6.251672987453972-4.356301212666458j),
            (4.527163286744522+0j), (-0.19269188967098633+2.0144972499636453j),
            (6.726243317692808e-08+2.1622492087478314e-09j),
        ),
        (4, 1): (
            (0.00017712027987964513+0.0007205064675982398j), (-1.432605124288367-12.29931875884571j),
            (7.053864615628994+0j), (4.920828894780438+2.455718843082537j),
            (1.8381813267345947e-07-3.7794746805494157e-06j),
        ),
        (5, 1): (
            (-0.007960451040950662+0.0025040391185160685j), (5.419929052979307-12.591025999914189j),
            (9.50194892440169+0j), (7.057294847046791-4.353694619804227j),
            (-0.00011570801352717863-8.336133220977867e-06j),
        ),
        (6, 1): (
            (-0.020704295887836476-0.04868319690015347j), (8.749986131373102-9.21671299138916j),
            (9.07784651417406+0j), (2.2904101555261485-7.792157610508283j),
            (-0.00021497814641627909+0.0019917746790351154j),
        ),
        (7, 1): (
            (0.15349269949996655-0.09808972083800997j), (8.191870770659065-5.085637496169618j),
            (7.114432672811393+0j), (-1.0745557989042993-6.175834924635777j),
            (0.018424173129989025+0.0031342499247133957j),
        ),
        (8, 1): (
            (0.24550338168669558+0.1906960838506576j), (5.780561065300776-2.442025652000018j),
            (4.705106046760045+0j), (-1.8077031885662853-3.7330291678909022j),
            (0.024344369662355328-0.07963640881514161j),
        ),
        (9, 1): (
            (0.05942883447960565+0.27116809380733387j), (3.9598577693925336-1.3635999424724579j),
            (3.1611421625520397+0j), (-1.5075299080001707-2.3426560544930513j),
            (-0.10568265784288132-0.09227433236371871j),
        ),
        (0, -1): (
            (-0.052618609496056984-0.021997892110101572j), (-1.2406029259115434+0.5669840971658855j),
            (-1.0197596684771486+0j), (0.34959325862163526+0.8283786015388837j),
            (-0.007212344174840566+0.009920468941359792j),
        ),
        (1, -1): (
            (-0.26167852159960264-0.8487946899765745j), (-12.879636233842536+4.5574776293318395j),
            (-10.303786335552472+0j), (4.798863401589293+7.709269586558839j),
            (0.2513542752050721+0.33397993755167305j),
        ),
    },
    (30, 60): {
        (0, 1): (
            (8.472334348629765e-05-0.0007277729921599239j), (-0.7838484274400023+0.6910760939063311j),
            (0.15833333333333333+0.09090593428863095j), (0.00044986015895225295+0.0012414353825105087j),
            (-2.3567441870253213e-09-7.977133861201786e-10j),
        ),
        (2, 1): (
            (-2.2536265674895666+0.5422750691727046j), (-1.8476815014022878+11.525931863609669j),
            (9.154166666666667-6.22705649877122j), (0.31811632834491393-0.07116549369758858j),
            (-9.158846474056965e-06+7.82927862093421e-05j),
        ),
        (3, 1): (
            (26.983434162076847-29.377493864570262j), (0.7705891377729083+21.127681781455802j),
            (15.916666666666668-39.86874546658529j), (1.497442944253126-1.6981859374329604j),
            (0.002355059998434708+0.004371125181851956j),
        ),
        (4, 1): (
            (-198.46434228581057+217.02994479409153j), (4.018316505502837+25.153573423679166j),
            (-21.427473958333316-83.95589153122044j), (1.4077840432081554-7.595614862218346j),
            (0.0947147826350338+0.10078636534538507j),
        ),
        (0, -1): (
            (-1.491248481174594e-06+1.3374363383193867e-06j), (0.08128250928796638-0.005058819333861139j),
            (-1.683333333333333+0.18181186857726203j), (1.4591593813324755+2.242169647180713j),
            (0.00010204970998939805+1.2146265389122013e-05j),
        ),
        (1, -1): (
            (-0.00010022313803499808-6.217701056528413e-07j), (0.5488561753360786+0.28649327661016255j),
            (-7.280284552845528-2.574189992904891j), (4.225029956212445-3.939269337160908j),
            (-0.0077786333622971784-0.009586807293583202j),
        ),
        (2, -1): (
            (-0.0017599861940626198-0.0010640444953850688j), (1.3646562578729076+1.741134758071562j),
            (-13.1797256097561-11.309474251774008j), (5.104683615292885-2.7314381452500127j),
            (0.08169330646511974+0.5698578207684284j),
        ),
        (3, -1): (
            (-0.01571849927487384-0.0167707192442641j), (1.6577941590021827+4.621588274068196j),
            (-12.90104166666667-21.760608020341028j), (-1.3569093279234767-2.347088724493387j),
            (0.6415558379366746-13.780242368488137j),
        ),
        (4, -1): (
            (-0.11815418278638216-0.10823950070446617j), (0.8829019403860583+7.345887743108802j),
            (-5.539554751016261-25.154510403186197j), (-1.6498101848527111-7.348123476207176j),
            (57.68068982216242+199.41359142932382j),
        ),
    },
}

FROZEN_X1 = {
    (100, 40): (
        (
            (3.200810054940108-14.083845304365619j), (-32.00880320597394+7.0419226521828095j),
            (-2.0806319341969983+44.01201657614256j),
        ),
        (
            (43.96069937617787-132.36507711284696j), (-381.1349428292952+99.81930620762195j),
            (110.37064385549492+445.1753356506453j),
        ),
        (
            (217.80133580694803-647.7016100223574j), (-1882.4312150631063+496.1308770395219j),
            (566.3436016765893+2181.1004014748405j),
        ),
        (
            (521.5259780636596-2179.656058816364j), (-5090.242429228112+1144.219165704069j),
            (-88.90536239820793+6898.520169650539j),
        ),
        (
            (260.62770687189334-5472.0171068618965j), (-8318.07216442554+1244.2807148774064j),
            (-8049.724689938003+11947.8826955372j),
        ),
        (
            (-2581.667499008564-10209.676943769207j), (-8516.736182051263+371.1311633816202j),
            (-20509.278150511655-828.6932162404037j),
        ),
    ),
    (30, 60): (
        (
            (-0.8865151541457124+1.0906628745132139j), (-22.431742422927144-0.8180492401225008j),
            (-21.135890143294645+24.204356057317856j),
        ),
        (
            (-11.42528356749234+3.1347080548882724j), (-183.35826238719793+101.89684870960974j),
            (229.272904341812+19.215174636113606j),
        ),
        (
            (-47.01516454214211-11.863999692267987j), (-398.95183579055663+683.7327787434215j),
            (-323.0856049111084-229.6748651454202j),
        ),
        (
            (-99.33320084276224-77.74644995443859j), (-42.78858159649877+1541.4087475481201j),
            (360.9735921971652-293.56077461069776j),
        ),
        (
            (-128.60870949677087-190.673833279853j), (658.9316906713801+1522.7761789560752j),
            (164.88481965290998+867.699133115819j),
        ),
        (
            (-119.07377842350127-282.9611439278758j), (682.2411745217469+714.9885593143537j),
            (-1847.861504406632+345.21031151549516j),
        ),
    ),
}


def _closed_partner_indices(d):
    return [(lv.n, lv.epsilon) for lv in spectrum(d) if (lv.n, lv.epsilon) != (1, 1)]


@pytest.mark.parametrize("v1, v2", sorted(FROZEN_PARTNER_STATES))
def test_partner_closed_states_frozen_values(v1, v2):
    d = derive(CouplingParams(v1, v2))
    br = solve_branch(d, 1, 1)
    frozen = FROZEN_PARTNER_STATES[(v1, v2)]
    assert sorted(frozen) == sorted(_closed_partner_indices(d))
    for (n, eps), want in frozen.items():
        got = partner_wavefunction_closed(br, d, n, eps, np.array(PINNED_X))
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0, err_msg=str((n, eps)))


@pytest.mark.parametrize("v1, v2", sorted(FROZEN_X1))
def test_exceptional_jacobi_frozen_values(v1, v2):
    d = derive(CouplingParams(v1, v2))
    for degree, want in enumerate(FROZEN_X1[(v1, v2)], start=1):
        got = exceptional_jacobi(degree, d.sigma, d.p, np.array(PINNED_Y))
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0, err_msg=str(degree))


@pytest.mark.parametrize("v1, v2", sorted(FROZEN_PARTNER_STATES))
def test_partner_closed_states_every_level_solves_extended_equation(v1, v2):
    params = CouplingParams(v1, v2)
    d = derive(params)
    br = solve_branch(d, 1, 1)
    pot = _vext_callable(br, params)
    energies = {(lv.n, lv.epsilon): lv.energy for lv in spectrum(d)}
    for n, eps in _closed_partner_indices(d):
        psi = lambda x, _n=n, _e=eps: partner_wavefunction_closed(br, d, _n, _e, x)
        res = residual(pot, psi, energies[(n, eps)], REFERENCE_GRID)
        assert res < 1e-6, (n, eps, res)


# ---------------------------------------------------------------------------
# partner spectral singularity
# ---------------------------------------------------------------------------

def test_partner_singularity_on_locus():
    d = derive(CouplingParams(2.0, 6.75))
    br = solve_branch(d, 1, 1)
    rep = partner_singularity(br, d)
    assert rep.is_singular
    assert rep.n_star == 1
    assert rep.e_star == pytest.approx(1.125, abs=1e-12)
    assert rep.vprime_sum == pytest.approx(3.75, abs=1e-9)
    assert rep.vprime_identity == pytest.approx(3.75, abs=1e-12)
    assert rep.n1_anomaly


def test_partner_singularity_off_locus():
    br = solve_branch(COMPLEX_D, 1, 1)
    rep = partner_singularity(br, COMPLEX_D)
    assert not rep.is_singular
    assert rep.vprime_identity is None
    assert not rep.n1_anomaly


def test_partner_singularity_rejections():
    with pytest.raises(RegimeError):
        partner_singularity(solve_branch(REAL_D, 1, 1), REAL_D)
    d = derive(CouplingParams(2.0, 6.75))
    with pytest.raises(DomainError):
        partner_singularity(solve_branch(d, 1, -1), d)


def _singularity_state_params(d, eps):
    n = 1
    lam = n + 1j * eps * d.q
    mu = -1j * d.nu * (n + 0.5 - 1j * eps * d.q)
    return wavefunction_params(lam, mu), n


def test_partner_jost_state_at_singularity():
    # the surviving partner state at E* stays plane-wave at both ends
    d = derive(CouplingParams(2.0, 6.75))
    br = solve_branch(d, 1, 1)
    wf, n = _singularity_state_params(d, -1)
    xs = np.linspace(15.0, 25.0, 41)

    def mapped(x):
        return (wavefunction_derivative(wf, n, x)
                + superpotential(br, x) * wavefunction_value(wf, n, x))

    q = d.q
    assert _flatness(mapped(xs) * np.exp(-1j * q * xs)) < 1e-4
    assert _flatness(mapped(-xs) * np.exp(-1j * q * xs)) < 1e-4


def test_partner_singularity_annihilates_other_parity():
    # with n* = 1 the eps=+1 state at E* coincides with the factorizing
    # function, so the map kills it; only one state survives at E*
    d = derive(CouplingParams(2.0, 6.75))
    br = solve_branch(d, 1, 1)
    wf, n = _singularity_state_params(d, 1)
    xs = np.linspace(-5.0, 5.0, 41)
    mapped = (wavefunction_derivative(wf, n, xs)
              + superpotential(br, xs) * wavefunction_value(wf, n, xs))
    scale = (np.abs(wavefunction_derivative(wf, n, xs))
             + np.abs(superpotential(br, xs)) * np.abs(wavefunction_value(wf, n, xs)))
    assert np.max(np.abs(mapped) / scale) < 1e-10


def _closed_forms():
    # every public closed form as a function of x alone; the Jacobi and
    # partner polynomials take y = i sinh x
    params = CouplingParams(12.0, 6.0)
    levels = spectrum(REAL_D)
    plus, minus = solve_branch(REAL_D, 1, 1), solve_branch(REAL_D, -1, 1)
    p, s = REAL_D.p, REAL_D.s
    sing_d = derive(CouplingParams(2.0, 6.75))
    rep = detect_singularity(sing_d)
    spec = lambda n: JacobiSpec(n, 0.7 + 0.2j, -1.1)
    y = lambda x: 1j * np.sinh(x)
    return {
        "potential_value": lambda x: potential_value(params, x),
        "bound_state": lambda x: bound_state(levels[2], x),
        "bound_state_derivative": lambda x: bound_state_derivative(levels[2], x),
        "jacobi_eval n=0": lambda x: jacobi_eval(spec(0), y(x)),
        "jacobi_eval n=1": lambda x: jacobi_eval(spec(1), y(x)),
        "jacobi_eval n=4": lambda x: jacobi_eval(spec(4), y(x)),
        "jacobi_derivative n=0": lambda x: jacobi_derivative(spec(0), y(x)),
        "jacobi_explicit": lambda x: jacobi_explicit(spec(3), y(x)),
        "superpotential": lambda x: superpotential(plus, x),
        "superpotential_derivative": lambda x: superpotential_derivative(plus, x),
        "extended_potential": lambda x: extended_potential(plus, params, x),
        "factorizing_function": lambda x: factorizing_function(plus, x),
        "added_level_wavefunction": lambda x: added_level_wavefunction(minus, x),
        "partner_wavefunction": lambda x: partner_wavefunction(plus, levels[0], x),
        "partner_wavefunction_closed":
            lambda x: partner_wavefunction_closed(plus, REAL_D, 2, 1, x),
        "partner_polynomial": lambda x: partner_polynomial(2, 1, p, s, y(x)),
        "exceptional_jacobi": lambda x: exceptional_jacobi(3, s, p, y(x)),
        "singularity_wavefunction": lambda x: singularity_wavefunction(rep, sing_d, 1, x),
    }


@pytest.mark.parametrize("name", list(_closed_forms()))
def test_closed_forms_return_complex_scalars_and_arrays(name):
    # an array x gives a complex array of its shape; a scalar x gives a
    # complex scalar (builtin or numpy) equal to the array's element there, up
    # to the last bits in which numpy's scalar and array arithmetic differ
    f = _closed_forms()[name]
    xs = np.array([[-1.3, 0.0], [0.4, 2.2]])
    arr = f(xs)
    assert isinstance(arr, np.ndarray) and arr.dtype == complex and arr.shape == xs.shape
    for x, expect in zip(xs.ravel().tolist(), arr.ravel()):
        val = f(x)
        assert isinstance(val, complex) and np.ndim(val) == 0
        assert val == pytest.approx(expect, rel=1e-14, abs=0.0)
