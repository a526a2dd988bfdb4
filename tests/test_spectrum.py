import math

import numpy as np
import pytest

from scarf_spectra import (CouplingParams, DomainError, LevelRecord, Regime,
                           RegimeError, derive, detect_singularity, matching_residuals,
                           singularity_locus, spectrum)
from scarf_spectra.spectrum import _series_count

REAL_LEVELS_12_6 = {
    (0, 1): -8.329001404494074188,
    (1, 1): -3.556999531835308604,
    (2, 1): -0.78499765917654302008,
    (0, -1): -0.14899672284716022811,
}


def test_real_spectrum_frozen_levels():
    d = derive(CouplingParams(12.0, 6.0))
    levels = spectrum(d)
    assert {(lv.n, lv.epsilon) for lv in levels} == set(REAL_LEVELS_12_6)
    for lv in levels:
        assert lv.energy.imag == 0.0
        assert lv.energy.real == pytest.approx(REAL_LEVELS_12_6[(lv.n, lv.epsilon)],
                                               abs=1e-12)
    energies = [lv.energy.real for lv in levels]
    assert energies == sorted(energies)


def test_real_spectrum_wf_parameters_match_quasi_parity_forms():
    # alpha = -(1+nu) eps s - (1-nu) p and beta = -(1+nu) p - (1-nu) eps s
    for v2 in (6.0, -6.0):
        d = derive(CouplingParams(12.0, v2))
        for lv in spectrum(d):
            al = -(1 + d.nu) * lv.epsilon * d.s - (1 - d.nu) * d.p
            be = -(1 + d.nu) * d.p - (1 - d.nu) * lv.epsilon * d.s
            assert lv.wf.alpha == pytest.approx(al, abs=1e-12)
            assert lv.wf.beta == pytest.approx(be, abs=1e-12)
            assert lv.wf.lam == pytest.approx(-0.5 + d.p + lv.epsilon * d.s, abs=1e-12)
            assert lv.wf.mu == pytest.approx(-1j * d.nu * (d.p - lv.epsilon * d.s),
                                             abs=1e-12)


def test_real_spectrum_empty_minus_series():
    d = derive(CouplingParams(6.0, 2.0))
    assert d.p - d.s == pytest.approx(0.40536425523009202751, abs=1e-14)
    levels = spectrum(d)
    assert all(lv.epsilon == 1 for lv in levels)
    assert [lv.n for lv in levels] == [0, 1]


def test_negative_v2_same_energies():
    pos = spectrum(derive(CouplingParams(12.0, 6.0)))
    neg = spectrum(derive(CouplingParams(12.0, -6.0)))
    for a, b in zip(pos, neg):
        assert (a.n, a.epsilon) == (b.n, b.epsilon)
        assert a.energy == pytest.approx(b.energy, abs=1e-14)
        assert b.wf.mu == pytest.approx(-a.wf.mu, abs=1e-14)


def test_complex_spectrum_frozen_pair():
    d = derive(CouplingParams(1.0, 5.0))
    levels = spectrum(d)
    assert [(lv.n, lv.epsilon) for lv in levels] == [(0, -1), (0, 1)]
    minus, plus = levels
    assert plus.energy == pytest.approx(0.375 - 1.4523687548277813319j, abs=1e-12)
    assert minus.energy == pytest.approx(0.375 + 1.4523687548277813319j, abs=1e-12)
    assert plus.energy == pytest.approx(np.conj(minus.energy), abs=1e-14)


def test_complex_spectrum_empty_when_p_small():
    d = derive(CouplingParams(0.1, 0.5))
    assert d.regime is Regime.COMPLEX_SPECTRUM
    assert d.p == pytest.approx(0.4609772228646443655, abs=1e-14)
    assert spectrum(d) == []


def test_level_record_validation():
    LevelRecord(n=0, epsilon=-1, energy=-1.0, wf=None)
    with pytest.raises(DomainError):
        LevelRecord(n=-1, epsilon=1, energy=-1.0, wf=None)
    with pytest.raises(DomainError):
        LevelRecord(n=0, epsilon=0, energy=-1.0, wf=None)
    for n in (1.5, 1.0):
        with pytest.raises(DomainError, match="level index"):
            LevelRecord(n=n, epsilon=1, energy=-1.0, wf=None)


def test_regime_mismatch_errors():
    with pytest.raises(RegimeError):
        spectrum(derive(CouplingParams(1.0, 1.25)))


def test_real_monotonicity_random():
    rng = np.random.default_rng(314)
    checked = 0
    while checked < 40:
        v1 = float(rng.uniform(0.5, 40.0))
        v2 = float(rng.uniform(0.05, v1 + 0.2))
        if abs(v2 - v1 - 0.25) < 1e-3:
            continue
        d = derive(CouplingParams(v1, v2))
        if d.regime is not Regime.REAL_SPECTRUM:
            continue
        for eps in (1, -1):
            series = [lv.energy.real for lv in spectrum(d) if lv.epsilon == eps]
            series_by_n = sorted(series)
            assert series_by_n == series or len(series) <= 1
            for lo, hi in zip(series_by_n, series_by_n[1:]):
                assert hi > lo
        checked += 1


def test_complex_conjugation_random():
    rng = np.random.default_rng(2718)
    checked = 0
    while checked < 40:
        v1 = float(rng.uniform(0.05, 10.0))
        v2 = float(rng.uniform(v1 + 0.5, v1 + 30.0))
        d = derive(CouplingParams(v1, v2))
        if d.regime is not Regime.COMPLEX_SPECTRUM:
            continue
        levels = {(lv.n, lv.epsilon): lv.energy for lv in spectrum(d)}
        for (n, eps), e in levels.items():
            assert e == pytest.approx(np.conj(levels[(n, -eps)]), abs=1e-12)
        checked += 1


def test_matching_conditions_random_per_regime():
    rng = np.random.default_rng(11235)
    real_done = complex_done = 0
    while real_done < 100 or complex_done < 100:
        v1 = float(rng.uniform(0.05, 25.0))
        v2 = float(rng.uniform(-25.0, 25.0))
        if abs(v2) < 1e-3 or abs(abs(v2) - v1 - 0.25) < 1e-6:
            continue
        params = CouplingParams(v1, v2)
        d = derive(params)
        if d.regime is Regime.REAL_SPECTRUM:
            if real_done >= 100:
                continue
            real_done += 1
        elif d.regime is Regime.COMPLEX_SPECTRUM:
            if complex_done >= 100:
                continue
            complex_done += 1
        else:
            continue
        for lv in spectrum(d):
            residuals = matching_residuals(lv, params)
            worst = max(residuals.values())
            assert worst < 1e-12 * (1.0 + v1 + abs(v2)), (v1, v2, lv.n, lv.epsilon,
                                                          residuals)


# ---------------------------------------------------------------------------
# spectral singularities
# ---------------------------------------------------------------------------

def test_detect_singularity_locus_point():
    d = derive(CouplingParams(2.0, 6.75))
    rep = detect_singularity(d)
    assert rep.is_singular
    assert rep.n_star == 1
    assert rep.e_star == pytest.approx(1.125, abs=1e-12)
    assert rep.e_star == pytest.approx(d.q ** 2, abs=1e-14)
    # locus identity v1 + |v2| = 4n^2 + 4n + 3/4
    assert 2.0 + 6.75 == pytest.approx(4.0 + 4.0 + 0.75, abs=1e-12)


def test_detect_singularity_off_locus():
    rep = detect_singularity(derive(CouplingParams(1.0, 5.0)))
    assert not rep.is_singular
    assert rep.n_star is None


def test_detect_singularity_wrong_regime_note():
    rep = detect_singularity(derive(CouplingParams(1.0, 0.5)))
    assert not rep.is_singular
    assert "regime" in rep.note


def test_collapse_toward_locus():
    # approaching v1 + v2 = 8.75 keeps Im E_{1,eps} shrinking toward 0
    last = None
    for delta in (0.4, 0.2, 0.1, 0.05, 0.025):
        d = derive(CouplingParams(2.0, 6.75 + delta))
        pair = [lv for lv in spectrum(d) if lv.n == 1]
        gap = max(abs(lv.energy.imag) for lv in pair)
        if last is not None:
            assert gap < last
        last = gap
    d = derive(CouplingParams(2.0, 6.75))
    rep = detect_singularity(d)
    assert rep.is_singular and rep.e_star == pytest.approx(1.125, abs=1e-12)


def test_marginal_level_excluded_from_bound_list():
    # on the locus p - 1/2 = n* exactly; the n = n* level is not a bound state
    d = derive(CouplingParams(2.0, 6.75))
    assert max(lv.n for lv in spectrum(d)) == 0


def test_singularity_locus_samples():
    pts = singularity_locus(1, (1.0, 3.0), 3)
    expected = [(1.0, 7.75), (2.0, 6.75), (3.0, 5.75)]
    assert len(pts) == len(expected)
    for pt, (v1, v2) in zip(pts, expected):
        assert pt.v1 == pytest.approx(v1, abs=1e-14)
        assert pt.v2 == pytest.approx(v2, abs=1e-14)
        assert pt.in_complex_regime


def test_singularity_locus_flags_out_of_regime():
    pts = singularity_locus(0, (0.1, 0.4), 2)
    assert pts[0].v2 == pytest.approx(0.65, abs=1e-14)
    assert pts[1].v2 == pytest.approx(0.35, abs=1e-14)
    assert pts[0].in_complex_regime
    assert not pts[1].in_complex_regime
    # v1 + v2 = 35/4 on n = 1, so the last two points have v2 <= 0
    pts = singularity_locus(1, (1.0, 20.0), 4)
    assert [pt.in_complex_regime for pt in pts] == [True, False, False, False]
    assert pts[2].v2 < 0.0 and pts[3].v2 == pytest.approx(-11.25, abs=1e-14)


def test_singularity_locus_bad_ranges():
    with pytest.raises(DomainError):
        singularity_locus(1, (3.0, 1.0), 3)
    with pytest.raises(DomainError):
        singularity_locus(1, (0.0, 1.0), 2)
    with pytest.raises(DomainError):
        singularity_locus(-1, (1.0, 2.0), 2)
    with pytest.raises(DomainError):
        singularity_locus(1, (1.0, 2.0), 0)
    for steps in (2.5, 2.0, "2"):
        with pytest.raises(DomainError, match="steps"):
            singularity_locus(1, (1.0, 5.0), steps)
    # a fractional index is no locus, and a range is two ends
    with pytest.raises(DomainError, match="index"):
        singularity_locus(1.5, (1.0, 2.0), 2)
    with pytest.raises(DomainError, match="range"):
        singularity_locus(1, (1.0, 2.0, 3.0), 2)


@pytest.mark.parametrize("lam", [-1.0, 0.0, 1e-12, 0.5, 1.0, 3.0, 3.0 + 1e-9])
def test_series_count_matches_brute_force(lam):
    assert _series_count(lam) == sum(1 for n in range(10) if n < lam)
