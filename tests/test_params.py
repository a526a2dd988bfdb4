import math

import numpy as np
import pytest

from scarf_spectra import (CouplingParams, DomainError, Regime, couplings_from_derived,
                           derive, potential_value, spectrum, wavefunction_params)


def test_coupling_validation():
    with pytest.raises(DomainError):
        CouplingParams(0.0, 1.0)
    with pytest.raises(DomainError):
        CouplingParams(-1.0, 1.0)
    with pytest.raises(DomainError):
        CouplingParams(1.0, 0.0)
    with pytest.raises(DomainError):
        CouplingParams(float("inf"), 1.0)
    # a coupling that is not a real number, which math.isfinite would reject
    # with a TypeError
    for v1, v2 in (("12", 6), (12, 6j), (None, 6)):
        with pytest.raises(DomainError, match="couplings"):
            CouplingParams(v1, v2)
    CouplingParams(1.0, -5.0)  # negative v2 is allowed


def test_derive_real_regime_example():
    d = derive(CouplingParams(12.0, 6.0))
    assert d.regime is Regime.REAL_SPECTRUM
    assert 4.0 * d.p ** 2 == pytest.approx(18.25, abs=1e-14)
    assert 4.0 * d.s ** 2 == pytest.approx(6.25, abs=1e-14)
    assert d.p == pytest.approx(2.136000936329382792, abs=1e-15)
    assert d.s == pytest.approx(1.25, abs=1e-15)
    assert d.q == 0.0
    assert d.nu == 1


def test_derive_complex_regime_example():
    d = derive(CouplingParams(1.0, 5.0))
    assert d.regime is Regime.COMPLEX_SPECTRUM
    assert d.p == pytest.approx(1.25, abs=1e-15)
    assert d.q == pytest.approx(0.96824583655185422129, abs=1e-15)
    assert d.s == 0.0


def test_derive_boundary():
    d = derive(CouplingParams(1.0, 1.25))
    assert d.regime is Regime.BOUNDARY
    assert d.q == 0.0 and d.s == 0.0


def test_derive_negative_v2_sign():
    d = derive(CouplingParams(12.0, -6.0))
    assert d.nu == -1
    dpos = derive(CouplingParams(12.0, 6.0))
    assert d.p == dpos.p and d.s == dpos.s


def test_derive_is_pure():
    a = derive(CouplingParams(3.2, 1.7))
    b = derive(CouplingParams(3.2, 1.7))
    assert a == b


def test_derived_identities_random_draws():
    rng = np.random.default_rng(20260814)
    for _ in range(100):
        v1 = float(rng.uniform(0.05, 30.0))
        v2 = float(rng.uniform(-30.0, 30.0))
        if abs(v2) < 1e-3 or abs(abs(v2) - v1 - 0.25) < 1e-6:
            continue
        d = derive(CouplingParams(v1, v2))
        assert abs(4.0 * d.p ** 2 - (abs(v2) + v1 + 0.25)) < 1e-12 * (1.0 + v1 + abs(v2))
        if d.regime is Regime.REAL_SPECTRUM:
            assert abs(4.0 * d.s ** 2 - (0.25 + v1 - abs(v2))) < 1e-12 * (1.0 + v1 + abs(v2))
        else:
            assert abs(4.0 * d.q ** 2 - (abs(v2) - v1 - 0.25)) < 1e-12 * (1.0 + v1 + abs(v2))
        back = couplings_from_derived(d)
        assert back.v1 == pytest.approx(v1, rel=1e-12)
        assert back.v2 == pytest.approx(v2, rel=1e-12)


def test_sigma_is_s_or_i_q():
    d = derive(CouplingParams(12.0, 6.0))
    assert d.sigma == complex(d.s, 0.0) == 1.25
    d = derive(CouplingParams(1.0, 5.0))
    assert d.sigma == complex(0.0, d.q) and d.q > 0.0
    assert derive(CouplingParams(1.0, 1.25)).sigma == 0.0          # boundary
    rng = np.random.default_rng(20261018)
    for _ in range(200):
        v1 = float(rng.uniform(0.05, 40.0))
        v2 = float(rng.choice((-1.0, 1.0)) * rng.uniform(0.01, 80.0))
        d = derive(CouplingParams(v1, v2))
        if d.regime is Regime.REAL_SPECTRUM:
            assert d.sigma == d.s and d.q == 0.0
        else:
            assert d.sigma == 1j * d.q and d.s == 0.0


def test_real_regime_levels_carry_no_negative_zero():
    # a -0 imaginary part would print as "-0" in the JSON output
    rng = np.random.default_rng(20261019)
    seen = set()
    for _ in range(200):
        v1 = float(rng.uniform(0.05, 40.0))
        v2 = float(rng.choice((-1.0, 1.0)) * rng.uniform(0.01, 80.0))
        d = derive(CouplingParams(v1, v2))
        seen.add(d.regime)
        if d.regime is not Regime.REAL_SPECTRUM:
            continue
        for lv in spectrum(d):
            for z in (lv.energy, lv.wf.lam):
                assert isinstance(z, float) or math.copysign(1.0, z.imag) == 1.0
    assert seen == {Regime.REAL_SPECTRUM, Regime.COMPLEX_SPECTRUM}


def test_potential_at_origin_and_tails():
    params = CouplingParams(12.0, 6.0)
    assert potential_value(params, 0.0) == pytest.approx(-12.0 + 0.0j, abs=1e-15)
    assert abs(potential_value(params, 50.0)) < 1e-15
    assert abs(potential_value(params, -50.0)) < 1e-15


def test_potential_frozen_value():
    # -sech^2(1) + 5i sech(1) tanh(1), high-precision reference
    val = potential_value(CouplingParams(1.0, 5.0), 1.0)
    assert val.real == pytest.approx(-0.41997434161402606939, abs=1e-14)
    assert val.imag == pytest.approx(2.4677717378228653763, abs=1e-14)


def test_potential_pt_symmetry_random():
    rng = np.random.default_rng(7)
    xs = rng.uniform(-15.0, 15.0, size=200)
    for v1, v2 in ((12.0, 6.0), (1.0, 5.0), (0.3, -2.0)):
        params = CouplingParams(v1, v2)
        left = np.conj(potential_value(params, -xs))
        right = potential_value(params, xs)
        assert np.max(np.abs(left - right)) < 1e-13 * max(v1, abs(v2))


def test_potential_vectorized_matches_scalar():
    params = CouplingParams(2.0, 6.75)
    xs = np.linspace(-3, 3, 11)
    vec = potential_value(params, xs)
    assert vec.shape == xs.shape
    for x, v in zip(xs, vec):
        assert potential_value(params, float(x)) == pytest.approx(v, abs=1e-15)


def test_wavefunction_params_invariants():
    wf = wavefunction_params(2.886 + 0.0j, -0.886j)
    assert wf.alpha == pytest.approx(-wf.lam + 1j * wf.mu - 0.5, abs=1e-15)
    assert wf.beta == pytest.approx(-wf.lam - 1j * wf.mu - 0.5, abs=1e-15)
