import math

import numpy as np
import pytest

import scarf_spectra.wavefunctions as wavefunctions
from scarf_spectra import (ConvergenceError, CouplingParams, DomainError, GridSpec,
                           JacobiSpec, bound_state, bound_state_derivative, derive,
                           detect_singularity, gudermannian, jacobi_derivative,
                           jacobi_eval, jacobi_explicit, potential_value, pseudo_norm,
                           residual, singularity_wavefunction, spectrum,
                           wavefunction_derivative, wavefunction_params,
                           wavefunction_value)


def test_jacobi_degree_zero_and_validation():
    assert jacobi_eval(JacobiSpec(0, 0.3 + 1j, -2.0), 0.7 - 0.1j) == 1.0
    with pytest.raises(DomainError):
        JacobiSpec(-1, 0.0, 0.0)


def test_jacobi_degree_one_bracket_identity():
    # P_1^{(-2s, -2p)}(i sinh x) = p - s - i (p + s - 1) sinh x
    p, s = 2.136000936329382792, 1.25
    for x in (-1.3, 0.0, 0.4, 2.2):
        val = jacobi_eval(JacobiSpec(1, -2.0 * s, -2.0 * p), 1j * math.sinh(x))
        expect = p - s - 1j * (p + s - 1.0) * math.sinh(x)
        assert val == pytest.approx(expect, abs=1e-14)


def test_jacobi_degree_three_frozen_value():
    # independent high-precision evaluation of the explicit sum
    val = jacobi_eval(JacobiSpec(3, 0.7 + 0.2j, -1.1), 0.3 - 0.4j)
    assert val.real == pytest.approx(-0.81272116666666666667, abs=1e-13)
    assert val.imag == pytest.approx(-0.38256483333333333333, abs=1e-13)


def test_jacobi_recurrence_vs_explicit_random():
    rng = np.random.default_rng(42)
    for _ in range(60):
        n = int(rng.integers(0, 9))
        alpha = complex(rng.uniform(-3, 3), rng.uniform(-2, 2))
        beta = complex(rng.uniform(-3, 3), rng.uniform(-2, 2))
        y = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        a = jacobi_eval(JacobiSpec(n, alpha, beta), y)
        b = jacobi_explicit(JacobiSpec(n, alpha, beta), y)
        assert abs(a - b) <= 1e-10 * (1.0 + abs(b))


def test_jacobi_degenerate_recurrence_falls_back():
    # alpha + beta = -4 zeroes the k=2 denominator factor 2k + ab - 2
    spec = JacobiSpec(3, -1.0, -3.0)
    ys = np.array([0.2 + 0.1j, -0.7j, 1.4])
    a = jacobi_eval(spec, ys)
    b = jacobi_explicit(spec, ys)
    assert np.max(np.abs(a - b)) < 1e-10


def test_jacobi_near_degenerate_recurrence_keeps_its_digits():
    # alpha + beta within 0.01 of -8 or -6: the recurrence would pass through
    # nearly degree-reduced P_k and lose up to 12 digits
    mp = pytest.importorskip("mpmath")
    ys = [0.3 - 0.8j, -0.852 + 0.443j, 1.4]
    for spec in (JacobiSpec(10, 5.524, -13.5217), JacobiSpec(7, 3.156 - 1.17j, -9.1531 + 1.17j)):
        for y in ys:
            with mp.workdps(30):
                want = complex(mp.jacobi(spec.n, spec.alpha, spec.beta, y))
            assert abs(jacobi_eval(spec, y) - want) < 1e-12 * abs(want), (spec, y)


def test_jacobi_derivative_matches_differencing():
    spec = JacobiSpec(4, 0.3 - 0.8j, 1.1 + 0.4j)
    y = 0.37 + 0.21j
    h = 1e-6
    fd = (jacobi_eval(spec, y + h) - jacobi_eval(spec, y - h)) / (2.0 * h)
    assert jacobi_derivative(spec, y) == pytest.approx(fd, rel=1e-8)


def test_gudermannian_range_and_odd():
    xs = np.linspace(-40, 40, 41)
    g = gudermannian(xs)
    assert np.all(np.abs(g) < np.pi / 2 + 1e-15)
    assert np.max(np.abs(g + gudermannian(-xs))) < 1e-15
    assert gudermannian(40.0) == pytest.approx(np.pi / 2, abs=1e-12)


def test_ground_state_is_one_at_origin():
    d = derive(CouplingParams(12.0, 6.0))
    lv = [l for l in spectrum(d) if (l.n, l.epsilon) == (0, 1)][0]
    assert bound_state(lv, 0.0) == pytest.approx(1.0 + 0.0j, abs=1e-15)


def test_bound_state_decay_rate():
    # |psi(8)/psi(4)| ~ exp(-4 (p + s - 1/2)) for the nodeless state
    d = derive(CouplingParams(12.0, 6.0))
    lv = [l for l in spectrum(d) if (l.n, l.epsilon) == (0, 1)][0]
    ratio = abs(bound_state(lv, 8.0) / bound_state(lv, 4.0))
    expect = math.exp(-4.0 * (d.p + d.s - 0.5))
    assert ratio == pytest.approx(expect, rel=0.01)


def test_bound_state_derivative_matches_differencing():
    d = derive(CouplingParams(12.0, 6.0))
    for lv in spectrum(d):
        for x in (-1.7, 0.3, 2.1):
            h = 1e-6
            fd = (bound_state(lv, x + h) - bound_state(lv, x - h)) / (2.0 * h)
            assert bound_state_derivative(lv, x) == pytest.approx(fd, rel=1e-8)


def test_residual_converges_at_eighth_order():
    # eighth-order central stencil: residual drops ~2^8 = 256x when h halves
    params = CouplingParams(12.0, 6.0)
    d = derive(params)
    lv = spectrum(d)[0]
    pot = lambda x: potential_value(params, x)
    psi = lambda x: bound_state(lv, x)
    r_coarse = residual(pot, psi, lv.energy, GridSpec(20.0, 401))
    r_mid = residual(pot, psi, lv.energy, GridSpec(20.0, 801))
    r_fine = residual(pot, psi, lv.energy, GridSpec(20.0, 1601))
    assert r_coarse / r_mid == pytest.approx(256.0, rel=0.15)
    assert r_mid / r_fine == pytest.approx(256.0, rel=0.15)


def test_all_bound_state_residuals_small():
    for v1, v2 in ((12.0, 6.0), (1.0, 5.0), (6.0, 2.0), (12.0, -6.0)):
        params = CouplingParams(v1, v2)
        d = derive(params)
        pot = lambda x: potential_value(params, x)
        for lv in spectrum(d):
            r = residual(pot, lambda x, _lv=lv: bound_state(_lv, x),
                         lv.energy, GridSpec(20.0, 4001))
            assert r < 1e-6, (v1, v2, lv.n, lv.epsilon, r)


# ---------------------------------------------------------------------------
# singularity states
# ---------------------------------------------------------------------------

def _singular_setup():
    d = derive(CouplingParams(2.0, 6.75))
    rep = detect_singularity(d)
    assert rep.is_singular and rep.n_star == 1
    return d, rep


def test_singularity_state_value_at_origin():
    d, rep = _singular_setup()
    val = singularity_wavefunction(rep, d, -1, 0.0)
    # all prefactors are 1 at x=0; the value is the degree-1 polynomial constant
    lam = rep.n_star - 1j * d.q
    mu = -1j * d.nu * (rep.n_star + 0.5 + 1j * d.q)
    wf = wavefunction_params(lam, mu)
    const = (wf.alpha - wf.beta) / 2.0
    assert val == pytest.approx(const, abs=1e-14)


def test_singularity_pt_pair_identity():
    d, rep = _singular_setup()
    xs = np.linspace(-12.0, 12.0, 97)
    plus = singularity_wavefunction(rep, d, +1, -xs)
    minus = singularity_wavefunction(rep, d, -1, xs)
    assert np.max(np.abs(np.conj(plus) - minus)) < 1e-12


def test_singularity_state_solves_equation():
    d, rep = _singular_setup()
    params = CouplingParams(2.0, 6.75)
    pot = lambda x: potential_value(params, x)
    for eps in (1, -1):
        psi = lambda x, _e=eps: singularity_wavefunction(rep, d, _e, x)
        assert residual(pot, psi, rep.e_star, GridSpec(20.0, 4001)) < 1e-6


def _flatness(values):
    m = values.mean()
    return np.max(np.abs(values - m)) / abs(m)


def test_singularity_state_plane_wave_asymptotics():
    # eps=+1: psi ~ e^{-iqx} at +inf and e^{+iqx} at -inf, so psi*e^{+iqx} is
    # flat at +inf and psi*e^{-iqx} is flat at -inf for the same function.
    # The PT partner eps=-1 carries the reversed signs.
    d, rep = _singular_setup()
    q = d.q
    xs = np.linspace(15.0, 25.0, 41)

    psi_p = singularity_wavefunction(rep, d, 1, xs)
    psi_p_left = singularity_wavefunction(rep, d, 1, -xs)
    assert _flatness(psi_p * np.exp(1j * q * xs)) < 1e-4
    assert _flatness(psi_p_left * np.exp(1j * q * xs)) < 1e-4

    psi_m = singularity_wavefunction(rep, d, -1, xs)
    psi_m_left = singularity_wavefunction(rep, d, -1, -xs)
    assert _flatness(psi_m * np.exp(-1j * q * xs)) < 1e-4
    assert _flatness(psi_m_left * np.exp(-1j * q * xs)) < 1e-4

    # non-decaying, bounded modulus
    assert 0.1 < np.min(np.abs(psi_m)) and np.max(np.abs(psi_m)) < 10.0


def test_singularity_state_requires_locus():
    d = derive(CouplingParams(1.0, 5.0))
    rep = detect_singularity(d)
    assert not rep.is_singular
    with pytest.raises(DomainError):
        singularity_wavefunction(rep, d, +1, 0.0)


def test_singularity_state_requires_the_report_of_its_couplings():
    # both pairs lie on a locus, n* = 1 for (2, 6.75) and n* = 2 for (6, 18.75)
    rep = detect_singularity(derive(CouplingParams(2.0, 6.75)))
    d = derive(CouplingParams(6.0, 18.75))
    assert rep.is_singular and detect_singularity(d).n_star == 2
    with pytest.raises(DomainError, match="does not belong"):
        singularity_wavefunction(rep, d, +1, 0.0)
    d, rep = _singular_setup()
    with pytest.raises(DomainError, match="epsilon"):
        singularity_wavefunction(rep, d, 0, 0.0)


# ---------------------------------------------------------------------------
# pseudo-norm quadrature
# ---------------------------------------------------------------------------

def _n0_locus():
    # n* = 0 locus point: v1 + v2 = 3/4 inside the complex regime
    d = derive(CouplingParams(0.125, 0.625))
    rep = detect_singularity(d)
    assert rep.is_singular and rep.n_star == 0
    return d, rep


def test_pseudo_norm_pi_identity():
    d, rep = _n0_locus()
    psi = lambda x: singularity_wavefunction(rep, d, +1, x)
    res = pseudo_norm(psi, (-40.0, 40.0))
    assert abs(res.value - math.pi) < 1e-6
    assert res.error < 1e-6
    # the integrand is sech x - i nu tanh x; the odd part cancels
    assert abs(res.value.imag) < 1e-9


def test_pseudo_norm_bound_state_domain_stable():
    d = derive(CouplingParams(12.0, 6.0))
    lv = [l for l in spectrum(d) if (l.n, l.epsilon) == (0, 1)][0]
    psi = lambda x: bound_state(lv, x)
    a = pseudo_norm(psi, (-25.0, 25.0)).value
    b = pseudo_norm(psi, (-40.0, 40.0)).value
    assert abs(a) > 0.0
    assert abs(a - b) < 1e-8


def test_pseudo_norm_zero_function():
    zero = lambda x: np.zeros_like(np.asarray(x, dtype=float), dtype=complex)
    res = pseudo_norm(zero, (-5.0, 5.0))
    assert res.value == 0.0


def test_pseudo_norm_stops_at_the_point_cap(monkeypatch):
    # a zero tolerance is never met, so the doubling runs to 2**22 panels
    monkeypatch.setattr(wavefunctions, "_QUADRATURE_TOL", 0.0)
    zero = lambda x: np.zeros_like(np.asarray(x, dtype=float), dtype=complex)
    with pytest.raises(ConvergenceError, match="did not converge"):
        pseudo_norm(zero, (-5.0, 5.0))


def test_pseudo_norm_empty_domain():
    with pytest.raises(DomainError):
        pseudo_norm(lambda x: np.exp(-x * x), (3.0, 3.0))


def test_pseudo_norm_non_finite_domain():
    for domain in ((-math.inf, math.inf), (-5.0, math.inf), (math.nan, 5.0)):
        with pytest.raises(DomainError, match="finite"):
            pseudo_norm(lambda x: np.exp(-x * x), domain)


def test_pseudo_norm_non_finite_sample():
    # one NaN sample at x = 0 stops the first pass and names x
    def psi(x):
        x = np.asarray(x, dtype=float)
        return np.where(x == 0.0, np.nan, np.exp(-x * x))
    with pytest.raises(DomainError, match="not finite at x = 0$"):
        pseudo_norm(psi, (-5.0, 5.0))
