import logging
import math
import weakref

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import solve_ivp

import scarf_spectra.params as params_module
import scarf_spectra.verify as verify_module

from scarf_spectra import (BRANCH_SIGNS, ConvergenceError, CouplingParams,
                           DomainError, GridSpec, REFERENCE_GRID, bound_state,
                           derive, detect_singularity, discrete_spectrum,
                           extended_potential, jost_solutions, potential_value,
                           residual, scattering, singularity_scan, solve_branch,
                           spectrum)

PARAMS_REAL = CouplingParams(12.0, 6.0)
PARAMS_COMPLEX = CouplingParams(1.0, 5.0)


def _pot(params):
    return lambda x: potential_value(params, x)


def _zero(x):
    return np.zeros_like(np.asarray(x, dtype=float))


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------

def test_gridspec_geometry():
    g = GridSpec(20.0, 4001)
    assert g.h == pytest.approx(0.01, abs=1e-15)
    pts = g.points()
    assert len(pts) == 4001
    assert pts[0] == -20.0 and pts[-1] == 20.0
    assert pts[2000] == 0.0
    assert REFERENCE_GRID == g


def test_gridspec_validation():
    with pytest.raises(DomainError):
        GridSpec(20.0, 4000)      # even
    with pytest.raises(DomainError):
        GridSpec(20.0, 199)       # too coarse
    with pytest.raises(DomainError):
        GridSpec(0.0, 4001)
    with pytest.raises(DomainError):
        GridSpec(float("inf"), 4001)
    with pytest.raises(DomainError, match="half_width"):
        GridSpec("20", 4001)
    # a count that is not an integer, which numpy's linspace would reject
    # later with a TypeError
    for n_points in (301.5, 301.0, "301"):
        with pytest.raises(DomainError, match="n_points"):
            GridSpec(20.0, n_points)


# ---------------------------------------------------------------------------
# eigensolver
# ---------------------------------------------------------------------------

def test_discrete_spectrum_real_levels():
    got = discrete_spectrum(_pot(PARAMS_REAL), REFERENCE_GRID, 4)
    assert len(got) == 4
    analytic = [lv.energy for lv in spectrum(derive(PARAMS_REAL))]
    for num, ana in zip(got, analytic):
        assert abs(num - ana) < 1e-3
        assert abs(num.imag) < 1e-6


def test_discrete_spectrum_complex_pair():
    got = discrete_spectrum(_pot(PARAMS_COMPLEX), REFERENCE_GRID, 2)
    assert len(got) == 2
    analytic = sorted((lv.energy for lv in spectrum(derive(PARAMS_COMPLEX))),
                      key=lambda z: (z.real, z.imag))
    for num, ana in zip(got, analytic):
        assert abs(num.real - ana.real) < 1e-3
        assert abs(num.imag - ana.imag) < 1e-3


def test_discrete_spectrum_free_particle_empty():
    assert discrete_spectrum(_zero, GridSpec(20.0, 1001), 3) == []


def test_discrete_spectrum_count_validation():
    with pytest.raises(DomainError):
        discrete_spectrum(_zero, GridSpec(20.0, 1001), 0)
    # a count that is not an integer, rejected before V is sampled
    calls = []
    for count in (2.5, 2.0, "2"):
        with pytest.raises(DomainError, match="count"):
            discrete_spectrum(_counted(_zero, calls), GridSpec(20.0, 1001), count)
    assert calls == []


def test_discrete_spectrum_grid_convergence():
    # Chebyshev collocation on the mapped line converges spectrally: at the
    # degree the drift test accepts, every level of (12, 6) sits on the
    # closed form to near roundoff
    analytic = [lv.energy for lv in spectrum(derive(PARAMS_REAL))]
    got = discrete_spectrum(_pot(PARAMS_REAL), REFERENCE_GRID, 4)
    assert len(got) == 4
    for num, ana in zip(got, analytic):
        assert abs(num - ana) < 1e-10 * (1 + abs(ana))


def test_discrete_spectrum_deep_well_finds_every_level():
    # (400, 100) has 23 levels, the shallowest with a decay length near the
    # box half-width; a box solver lost or misplaced several of them
    params = CouplingParams(400.0, 100.0)
    analytic = sorted((lv.energy for lv in spectrum(derive(params))),
                      key=lambda z: z.real)
    got = discrete_spectrum(_pot(params), REFERENCE_GRID, 23)
    assert len(analytic) == len(got) == 23
    assert all(abs(a - b) > 1e-8 * (1 + abs(a)) for i, a in enumerate(got)
               for b in got[:i])
    for num, ana in zip(got, analytic):
        assert abs(num - ana) < 1e-6 * (1 + abs(ana))


def test_discrete_spectrum_finds_a_lower_level_far_from_the_shift():
    # two wells: the real one holds min Re V = -30 and levels at -25, -16, -9,
    # -4 and -1, the complex one a level at -11.05 - 36.33i.  That level lies
    # below -9 in Re, but farther from min Re V than the real levels at -9, -4
    # and -1, and far from the real axis; a dense solve must still find it.
    def pot(x):
        x = np.asarray(x, dtype=float)
        return -30.0 / np.cosh(x + 8.0) ** 2 - (16.0 + 40.0j) / np.cosh(x - 8.0) ** 2
    got = discrete_spectrum(pot, REFERENCE_GRID, 4)
    assert [round(z.real) for z in got] == [-25, -16, -11, -9]
    assert got[2].imag == pytest.approx(-36.33, abs=0.01)


def _debug_record(caplog, run):
    with caplog.at_level(logging.DEBUG, logger="scarf_spectra"):
        result = run()
    records = [r for r in caplog.records
               if r.name == "scarf_spectra" and r.msg.startswith("discrete_spectrum")]
    assert len(records) == 1 and records[0].levelno == logging.DEBUG
    return result, records[0].args


def test_discrete_spectrum_unresolved_levels_stop_at_cap(caplog):
    # the n = 2 pair of (8, -20) at 2.913 +- 0.540i does not settle between
    # successive degrees: N grows to the cap and only the resolved levels
    # come back
    params = CouplingParams(8.0, -20.0)
    analytic = [lv.energy for lv in spectrum(derive(params))]
    got, (tried, kept, drifted, continuum, returned) = _debug_record(
        caplog, lambda: discrete_spectrum(_pot(params), REFERENCE_GRID, len(analytic)))
    assert len(analytic) == 6 and len(got) == returned == kept == 4
    for z in got:
        assert min(abs(z - e) for e in analytic) < 1e-10 * (1 + abs(z))
    assert tried == sorted(tried) and tried[-1] == verify_module._MAX_DEGREE
    assert drifted > 0 and kept + drifted + continuum == tried[-1] - 1


def test_discrete_spectrum_debug_record(caplog):
    got, (tried, kept, drifted, continuum, returned) = _debug_record(
        caplog, lambda: discrete_spectrum(_pot(PARAMS_REAL), REFERENCE_GRID, 4))
    assert len(got) == returned == kept == 4
    assert tried == [3 * verify_module._FIRST_DEGREE // 2]
    assert kept + drifted + continuum == tried[0] - 1


def test_discrete_spectrum_debug_record_climbs_to_the_cap(caplog):
    # the ten levels of (40, -60) settle only between the last two degrees
    params = CouplingParams(40.0, -60.0)
    with caplog.at_level(logging.DEBUG, logger="scarf_spectra"):
        got = discrete_spectrum(_pot(params), REFERENCE_GRID, 10)
    (record,) = [r for r in caplog.records if r.msg.startswith("discrete_spectrum")]
    assert record.getMessage().startswith("discrete_spectrum: real arithmetic,")
    tried, kept, _, _, returned = record.args
    assert tried[-1] == verify_module._MAX_DEGREE
    assert len(got) == returned == kept == 10


def _sweep_couplings(rng, per_class):
    # per_class draws each of: real regime with 0 < V2 <= V1/2, real regime
    # with -V1/2 <= V2 < 0, and the broken regime with every Re E < 0
    out = []
    while len(out) < 3 * per_class:
        kind = len(out) // per_class
        v1 = rng.uniform(1.0, 60.0)
        if kind == 0:
            v2 = rng.uniform(0.05, 0.5) * v1
        elif kind == 1:
            v2 = -rng.uniform(0.05, 0.5) * v1
        else:
            v2 = (v1 + 0.25) * rng.uniform(1.05, 3.0) * rng.choice([-1.0, 1.0])
        params = CouplingParams(v1, v2)
        levels = [complex(lv.energy) for lv in spectrum(derive(params))]
        if levels and (kind < 2 or max(e.real for e in levels) < 0.0):
            out.append((params, levels))
    return out


def test_discrete_spectrum_seeded_sweep_has_no_false_agreement():
    # the drift test must not accept a pair of degrees that agree on a wrong
    # value, which is likeliest at the lowest degrees of the ladder: every
    # level returned is a closed-form level, and every closed-form level whose
    # decay length 1 / Re sqrt(-E) fits in the box is returned.  A level
    # shallower than that (|E| < 1 / L^2) may settle only past the largest
    # degree.
    rng = np.random.default_rng(0)
    for params, levels in _sweep_couplings(rng, 5):
        got = discrete_spectrum(_pot(params), REFERENCE_GRID, len(levels))
        for z in got:
            assert min(abs(z - e) for e in levels) <= 1e-6 * (1.0 + abs(z)), (params, z)
        for e in levels:
            if 1.0 / np.sqrt(-e).real <= REFERENCE_GRID.half_width:
                assert min((abs(z - e) for z in got), default=np.inf) \
                    <= 1e-6 * (1.0 + abs(e)), (params, e)


@pytest.mark.xfail(strict=True, reason="near the PT boundary the roundoff of the "
                   "non-normal collocation matrix grows with N, so no pair of "
                   "degrees passes the drift test for every level")
def test_discrete_spectrum_near_the_pt_boundary():
    # (100, 90) has 13 real levels; 5 come back, the error of the fifth-lowest
    # grows from 2e-8 at N = 126 to 6e-7 at N = 424
    params = CouplingParams(100.0, 90.0)
    levels = sorted((complex(lv.energy) for lv in spectrum(derive(params))),
                    key=lambda z: z.real)
    got = discrete_spectrum(_pot(params), REFERENCE_GRID, len(levels))
    assert len(levels) == len(got) == 13
    for num, ana in zip(got, levels):
        assert abs(num - ana) < 1e-6 * (1.0 + abs(ana))


def _two_wells(x):
    # the potential of test_discrete_spectrum_finds_a_lower_level_far_from_the_shift,
    # which is not PT-symmetric
    x = np.asarray(x, dtype=float)
    return -30.0 / np.cosh(x + 8.0) ** 2 - (16.0 + 40.0j) / np.cosh(x - 8.0) ** 2


def test_discrete_spectrum_debug_record_names_the_arithmetic(caplog):
    for pot, form in ((_pot(PARAMS_REAL), "real"), (_two_wells, "complex")):
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="scarf_spectra"):
            discrete_spectrum(pot, REFERENCE_GRID, 4)
        (record,) = [r for r in caplog.records if r.msg.startswith("discrete_spectrum")]
        assert record.getMessage().startswith(f"discrete_spectrum: {form} arithmetic,")


@pytest.mark.parametrize("n", [56, 84, 126, 128, 189, 192, 283, 288, 424, 432])
def test_chebyshev_nodes_are_exactly_antisymmetric(n):
    xi, _ = verify_module._cheb(n)
    assert np.array_equal(xi, -xi[::-1])
    assert xi[0] == 1.0 and xi[-1] == -1.0


def _complex_form_eigvals(potential, n):
    # the collocation matrix lap + diag(v) of _mapped_eigvals, solved in
    # complex arithmetic whatever the symmetry of v
    xi, d = verify_module._cheb(n)
    gd = ((1.0 - xi ** 2) ** 1.5 / verify_module._MAP_SCALE)[:, None] * d
    x = verify_module._MAP_SCALE * xi[1:-1] / np.sqrt(1.0 - xi[1:-1] ** 2)
    box = np.abs(x) <= REFERENCE_GRID.half_width
    v = np.zeros(n - 1, dtype=complex)
    v[box] = potential(x[box])
    return np.linalg.eigvals(np.diag(v) - gd[1:-1] @ gd[:, 1:-1])


@pytest.mark.parametrize("params, signs, count", [((12.0, 6.0), None, 4),
                                                  ((40.0, -60.0), None, 10),
                                                  ((12.0, 6.0), (1, 1), 3)])
def test_real_form_matches_complex_form(params, signs, count):
    # a PT-symmetric V is solved as the similar real matrix: near every level
    # the drift test keeps, its eigenvalues are those of the complex matrix
    cp = CouplingParams(*params)
    if signs is None:
        pot = _pot(cp)
    else:
        pot = lambda x, br=solve_branch(derive(cp), *signs): extended_potential(br, cp, x)
    real, is_real = verify_module._mapped_eigvals(pot, REFERENCE_GRID.half_width, 192)
    assert is_real and real.size == 191
    complex_form = _complex_form_eigvals(pot, 192)
    levels = discrete_spectrum(pot, REFERENCE_GRID, count)
    assert len(levels) == count
    for level in levels:
        z = complex_form[np.argmin(np.abs(complex_form - level))]
        assert np.min(np.abs(real - z)) <= 1e-9 * (1.0 + abs(z))


def test_discrete_spectrum_is_deterministic():
    for params, count in ((PARAMS_REAL, 4), (PARAMS_COMPLEX, 2),
                          (CouplingParams(12.0, 12.249), 4)):
        first = discrete_spectrum(_pot(params), REFERENCE_GRID, count)
        assert discrete_spectrum(_pot(params), REFERENCE_GRID, count) == first


def test_discrete_spectrum_pairs_ordered_by_imaginary_part():
    # the real parts of a conjugate pair agree to roundoff: lowest Im first
    for params in (PARAMS_COMPLEX, CouplingParams(2.0, 6.75), CouplingParams(5.0, 12.0)):
        got = discrete_spectrum(_pot(params), REFERENCE_GRID, 2)
        assert got[0].real == pytest.approx(got[1].real, rel=1e-10)
        assert got[0].imag < 0.0 < got[1].imag
        lowest = discrete_spectrum(_pot(params), REFERENCE_GRID, 1)
        assert len(lowest) == 1 and abs(lowest[0] - got[0]) < 1e-9 * abs(got[0])


def test_drift_test_compares_a_defective_pair_by_its_mean():
    # a Jordan pair at -3 splits by ~1e-6 in a direction that changes with N;
    # its mean agrees to 1e-12, while a lone value that moved 1e-6 drifted
    e0, split = -3.0, 1e-6
    coarse = np.array([e0 - split, e0 + split, -1.0, 5.0 + 2.0j])
    fine = np.array([e0 - 1j * split, e0 + 1j * split, -1.0 + 1e-6, 5.0 + 2.0j + 1e-12])
    resolved = verify_module._drift_resolved(coarse, fine)
    assert resolved.tolist() == [True, True, False, True]
    # one member of the cluster missing from the coarse solve: not resolved
    resolved = verify_module._drift_resolved(coarse[1:], fine)
    assert resolved.tolist() == [False, False, False, True]


def test_discrete_spectrum_non_finite_potential_is_a_domain_error():
    # a NaN or inf sample inside the box raises; beyond grid.half_width V is
    # taken as 0, so a potential that is NaN only there gives the same levels
    def pot(x, bad, where):
        x = np.asarray(x, dtype=float)
        return np.where(where(x), bad, potential_value(PARAMS_REAL, x))
    for bad in (np.nan, np.inf):
        with pytest.raises(DomainError, match="not finite"):
            discrete_spectrum(lambda x: pot(x, bad, lambda x: np.abs(x - 1.0) < 0.5),
                              REFERENCE_GRID, 4)
    outside = lambda x: pot(x, np.nan, lambda x: np.abs(x) > REFERENCE_GRID.half_width)
    assert discrete_spectrum(outside, REFERENCE_GRID, 4) == discrete_spectrum(
        _pot(PARAMS_REAL), REFERENCE_GRID, 4)


def test_scattering_non_finite_potential_is_a_domain_error():
    # a NaN or inf sample of V is a domain error naming x, as in
    # discrete_spectrum; a product that overflows from finite samples stays a
    # ConvergenceError
    def pot(x, bad):
        x = np.asarray(x, dtype=float)
        return np.where(np.abs(x - 1.0) < 0.5, bad, potential_value(PARAMS_REAL, x))
    for bad in (np.nan, np.inf):
        with pytest.raises(DomainError, match="potential is not finite at x = ") as exc:
            scattering(lambda x: pot(x, bad), 1.0, REFERENCE_GRID)
        assert 0.5 < float(str(exc.value).rsplit(" ", 1)[1]) < 1.5
    barrier = lambda x: np.where(np.abs(x) < 1.0, 1e6, 0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ConvergenceError, match="is not finite"):
            scattering(barrier, 1.0, REFERENCE_GRID)


# ---------------------------------------------------------------------------
# scattering
# ---------------------------------------------------------------------------

def test_scattering_free_particle():
    sc = scattering(_zero, 1.0, GridSpec(20.0, 1001))
    assert abs(sc.transmission - 1.0) < 1e-10
    assert abs(sc.reflection_left) < 1e-10
    assert abs(sc.reflection_right) < 1e-10
    assert sc.wronskian_ratio == pytest.approx(1.0, abs=1e-10)


def test_scattering_real_well_unitarity():
    # Hermitian control case before trusting the non-Hermitian runs
    well = lambda x: -3.3 / np.cosh(np.asarray(x, dtype=float)) ** 2
    for k in (0.7, 1.3):
        sc = scattering(well, k, GridSpec(20.0, 1001))
        assert abs(sc.transmission) ** 2 + abs(sc.reflection_left) ** 2 == \
            pytest.approx(1.0, abs=1e-8)


def test_scattering_momentum_validation():
    g = GridSpec(20.0, 1001)
    with pytest.raises(DomainError):
        scattering(_zero, 0.2, g)      # k L < 2 pi
    with pytest.raises(DomainError):
        scattering(_zero, -1.0, g)
    with pytest.raises(DomainError):
        scattering(_zero, 0.0, g)
    with pytest.raises(DomainError, match="1-D array"):
        jost_solutions(_zero, np.full((2, 2), 1.0), g)
    # a complex momentum is rejected before V is sampled, not cut to its real
    # part
    calls = []
    for k in (np.array([1.0 + 0.5j, 2.0]), 1.0 + 0.5j):
        for call in (scattering, jost_solutions):
            with pytest.raises(DomainError, match="k must be a real float"):
                call(_counted(_zero, calls), k, g)
    assert calls == []


def test_off_locus_wronskian_bounded_away_from_zero():
    g = GridSpec(25.0, 1001)
    pot = _pot(PARAMS_COMPLEX)
    for k in (0.3, 0.8, 1.5, 2.2, 3.0):
        sc = scattering(pot, k, g)
        assert sc.wronskian_ratio > 1e-2, k


def test_wronskian_constancy():
    g = GridSpec(25.0, 1001)
    fp, dfp, fm, dfm = jost_solutions(_pot(PARAMS_COMPLEX), 1.0, g)
    w = fp * dfm - dfp * fm
    assert np.max(np.abs(w - w.mean())) / abs(w.mean()) < 1e-8


def test_jost_solutions_free_particle_plane_waves():
    g = GridSpec(25.0, 1001)
    xe = np.array([-25.0, 0.0, 25.0])
    fp, dfp, fm, dfm = jost_solutions(_zero, 1.0, g)
    # free-particle Jost solutions are the plane waves themselves
    assert np.max(np.abs(fp - np.exp(1j * xe))) < 1e-9
    assert np.max(np.abs(fm - np.exp(-1j * xe))) < 1e-9


def test_jost_solutions_exact_wall_data():
    g = GridSpec(25.0, 1001)
    k = 1.0
    fp, dfp, fm, dfm = jost_solutions(_pot(PARAMS_COMPLEX), k, g)
    # each solution carries its plane-wave data exactly on its own wall
    phase = np.exp(1j * k * 25.0)
    assert (fp[2], dfp[2]) == (phase, 1j * k * phase)
    assert (fm[0], dfm[0]) == (phase, -1j * k * phase)
    sc = scattering(_pot(PARAMS_COMPLEX), k, g)
    # the reference takes scattering's array arithmetic on the same rows:
    # numpy's scalar and array complex multiplies may differ in the last bit
    rows = jost_solutions(_pot(PARAMS_COMPLEX), np.array([k]), g)
    fp, dfp, fm, dfm = (f[:, 1] for f in rows)
    wr = np.abs(fp * dfm - dfp * fm)
    scale = np.abs(fp) * np.abs(dfm) + np.abs(dfp) * np.abs(fm)
    assert sc.wronskian_ratio == wr[0] / scale[0]


def _gamma_transmission(v1, v2, k):
    """Closed-form Scarf II transmission amplitude (Khare & Sukhatme; Z. Ahmed,
    Phys. Rev. A 64 (2001) 042716), with p = sqrt(v1 + |v2| + 1/4) / 2 and
    sigma = sqrt(v1 - |v2| + 1/4) / 2 (imaginary in the broken regime):

    T(k) = prod_{z = p + sigma, p - sigma} G(1/2 - z - ik) G(1/2 + z - ik)
           / [G(-ik) G(1 - ik) G(1/2 - ik)^2].
    """
    with mp.workdps(30):
        ik = 1j * mp.mpf(k)
        p = mp.sqrt(v1 + abs(v2) + mp.mpf(1) / 4) / 2
        sigma = mp.sqrt(mp.mpc(v1 - abs(v2) + mp.mpf(1) / 4)) / 2
        num = mp.mpc(1)
        for z in (p + sigma, p - sigma):
            num *= mp.gamma(0.5 - z - ik) * mp.gamma(0.5 + z - ik)
        den = mp.gamma(-ik) * mp.gamma(1 - ik) * mp.gamma(0.5 - ik) ** 2
        return complex(num / den)


@pytest.mark.parametrize("v1, v2", [(2.0, 6.75), (1.0, 5.0), (12.0, 6.0), (400.0, 100.0)])
def test_scattering_matches_gamma_closed_form(v1, v2):
    grid = GridSpec(20.0, 201)
    params = CouplingParams(v1, v2)
    for k in (0.9, 1.06, 1.3, 2.5):
        t = scattering(_pot(params), k, grid).transmission
        ref = _gamma_transmission(v1, v2, k)
        assert abs(t - ref) <= 2e-6 * abs(ref) * max(1.0, abs(ref)), (k, t, ref)


def _gaussian_well(x):
    # an off-centre well: the graded mesh, finest round x = 0, crosses it with
    # longer steps than a centred one, and inside it |h^2 (V - k^2)| can pass 0.1
    x = np.asarray(x, dtype=float)
    return -40.0 * np.exp(-4.0 * (x - 5.0) ** 2)


@pytest.mark.parametrize("potential, ks, grid, covers", [
    # 41 momenta: more than one chunk holds, 4096 // 896 = 4 in the entry
    # pass at L = 20 (512 + 256 + 128 steps of a mirrored V)
    (_pot(PARAMS_COMPLEX), np.linspace(0.4, 3.0, 41), GridSpec(20.0, 201), "chunks"),
    # on some rung the well needs the closed-form step exponentials for
    # k = 5.5 and 6 and only the series for smaller momenta in the same chunk
    (_gaussian_well, np.array([1.0, 6.0, 1.3, 5.5, 0.7]), GridSpec(20.0, 201), "forms"),
    # k = 0.5 leaves the ladder rungs before k = 30
    (_pot(PARAMS_COMPLEX), np.array([0.5, 30.0]), GridSpec(20.0, 201), "leave"),
    # the entry at L = 80 is 512 steps per half, so its pass holds
    # 2048 + 1024 + 512 steps per half, more than _BLOCK // 2: one momentum
    # per chunk
    (_pot(PARAMS_COMPLEX), np.array([0.5, 2.0, 1.0]), GridSpec(80.0, 201), "single"),
], ids=["sweep", "mixed-forms", "leave-at-different-rungs", "entry-spans-tiles"])
def test_batched_momenta_match_single_calls_bit_for_bit(monkeypatch, caplog, potential,
                                                        ks, grid, covers):
    ks = np.random.default_rng(0).permutation(ks)
    passes, rows = [], []
    propagators = verify_module._propagators
    step_exponentials = verify_module._step_exponentials

    def spy_propagators(mesh, counts, k2):
        start = len(rows)
        props = propagators(mesh, counts, k2)
        # the pass's step counts, momenta and chunks
        passes.append((counts, len(k2), len(rows) - start))
        return props

    def spy_step_exponentials(w1, w2, h):
        c = (np.sqrt(3.0) / 12.0) * h * h * (w1 - w2)
        s2 = c * c + h * (0.5 * h * (w1 + w2))
        rows.append(np.any(np.abs(s2) >= 0.1, axis=(1, 2)))
        return step_exponentials(w1, w2, h)
    monkeypatch.setattr(verify_module, "_propagators", spy_propagators)
    monkeypatch.setattr(verify_module, "_step_exponentials", spy_step_exponentials)
    with caplog.at_level(logging.DEBUG, logger="scarf_spectra"):
        batch = scattering(potential, ks, grid)
    # each record's Richardson estimate depends on the last three rungs
    records = [r.args for r in caplog.records]
    jost = jost_solutions(potential, ks, grid)
    # the batch spread over several chunks of a pass (a chunk holds
    # max(1, 4096 // (halves * steps per half)) momenta), mixed the two forms
    # of the step exponentials within one chunk, left the ladder at two
    # rungs, or had a pass of several momenta and one momentum per chunk
    assert {"chunks": any(c > 1 for _, _, c in passes),
            "forms": any(r.any() and not r.all() for r in rows),
            "leave": any(b < a for (_, a, _), (_, b, _) in zip(passes, passes[1:])),
            "single": any(c == m > 1 for _, m, c in passes)}[covers]
    assert len(batch) == len(records) == len(ks)
    for i, k in enumerate(ks):
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="scarf_spectra"):
            assert batch[i] == scattering(potential, k, grid), k
        assert [r.args for r in caplog.records] == [records[i]], k
        for got, single in zip(jost, jost_solutions(potential, k, grid)):
            assert np.array_equal(got[i], single), k


def test_partner_scattering_matches_susy_relation():
    # T_ext = T (ik + a - 1) / (ik - a + 1), from W(+-inf) = +-(a - 1)
    grid = GridSpec(20.0, 201)
    d = derive(PARAMS_REAL)
    for signs in BRANCH_SIGNS:
        br = solve_branch(d, *signs)
        pot = lambda x, br=br: extended_potential(br, PARAMS_REAL, x)
        for k in (0.9, 1.06, 1.3, 2.5):
            t = scattering(pot, k, grid).transmission
            ik = 1j * k
            ref = _gamma_transmission(12.0, 6.0, k) * (ik + br.a - 1) / (ik - br.a + 1)
            assert abs(t - ref) <= 2e-6 * abs(ref) * max(1.0, abs(ref)), (signs, k)


@pytest.mark.parametrize("v1, v2", [(12.0, 0.1), (100.0, 1.0)])
@pytest.mark.parametrize("signs", [(1, 1), (-1, -1)], ids=["++", "--"])
def test_near_pole_partner_scattering_matches_susy_relation(v1, v2, signs):
    # these partners peak at |V_ext(0)| = 6e4 to 2e5 in a spike of width
    # |c| = 3e-3 to 6e-3 round x = 0, which equal steps over [-L, L] did not
    # resolve within the step cap
    grid = GridSpec(20.0, 201)
    params = CouplingParams(v1, v2)
    br = solve_branch(derive(params), *signs)
    pot = lambda x: extended_potential(br, params, x)
    for k in (1.0, 2.5):
        t = scattering(pot, k, grid).transmission
        ik = 1j * k
        ref = _gamma_transmission(v1, v2, k) * (ik + br.a - 1) / (ik - br.a + 1)
        assert abs(t - ref) <= 2e-6 * abs(ref) * max(1.0, abs(ref)), k


def _dop853_jost(potential, k, half_width):
    """Independent reference: adaptive DOP853 from each wall to x = -L, 0, L,
    one scalar potential call per right-hand-side evaluation."""
    def rhs(t, y):
        return [y[1], (complex(potential(t)) - k * k) * y[0]]

    phase = np.exp(1j * k * half_width)
    out = []
    for wall, start in ((half_width, [phase, 1j * k * phase]),
                        (-half_width, [phase, -1j * k * phase])):
        sol = solve_ivp(rhs, (wall, -wall), start, t_eval=[wall, 0.0, -wall],
                        method="DOP853", rtol=1e-13, atol=1e-13)
        assert sol.success
        y = sol.y if wall < 0 else sol.y[:, ::-1]
        out += [y[0], y[1]]
    return out


def _partner(params, signs):
    br = solve_branch(derive(params), *signs)
    return lambda x: extended_potential(br, params, x)


def test_jost_solutions_match_independent_integrator():
    grid = GridSpec(20.0, 201)
    # the first five sample exactly PT-symmetrically, so jost_solutions
    # mirrors their [0, L] propagator; the last two are integrated on both
    # halves
    potentials = [_pot(PARAMS_REAL)] + [_partner(PARAMS_REAL, s) for s in BRANCH_SIGNS]
    potentials += [_partner(CouplingParams(2.0, 6.75), (1, 1)), _gaussian_well]
    # every momentum enters at the same rung, so k = 10 on the off-centre well
    # takes the graded mesh's longest steps relative to V's scale
    cases = [(pot, 1.1) for pot in potentials] + [(_gaussian_well, 10.0)]
    for i, (pot, k) in enumerate(cases):
        got = jost_solutions(pot, k, grid)
        ref = _dop853_jost(pot, k, grid.half_width)
        for g, r in zip(got, ref):
            assert np.max(np.abs(g - r)) <= 1e-9 * np.max(np.abs(r)), i


def _nudged(potential):
    """V with Re V one ulp larger at x > 0, so that its samples are no longer
    exactly PT-symmetric."""
    def nudged(x):
        v = np.array(potential(x), dtype=complex)
        right = np.asarray(x) > 0.0
        v.real[right] = np.nextafter(v.real[right], np.inf)
        return v
    return nudged


def _halves_spy(monkeypatch):
    """The number of halves of [-L, L] in each call of _step_exponentials."""
    halves = []
    step_exponentials = verify_module._step_exponentials

    def spy(w1, w2, h):
        halves.append(w1.shape[1])
        return step_exponentials(w1, w2, h)
    monkeypatch.setattr(verify_module, "_step_exponentials", spy)
    return halves


@pytest.mark.parametrize("potential, grid", [
    (_pot(PARAMS_COMPLEX), GridSpec(20.0, 201)),
    (_pot(CouplingParams(2.0, 6.75)), GridSpec(20.0, 201)),
    (_partner(PARAMS_REAL, (-1, -1)), GridSpec(20.0, 201)),
    # an entry pass of 2048 + 1024 + 512 steps per half, one momentum a chunk
    (_pot(PARAMS_COMPLEX), GridSpec(80.0, 201))],
    ids=["(1, 5)", "(2, 6.75)", "(12, 6) partner (-, -)", "(1, 5) at L = 80"])
def test_mirrored_propagator_matches_both_halves(monkeypatch, potential, grid):
    ks = np.linspace(0.5, 2.5, 9)
    halves = _halves_spy(monkeypatch)
    mirrored = jost_solutions(potential, ks, grid)
    assert set(halves) == {1}
    halves.clear()
    both = jost_solutions(_nudged(potential), ks, grid)
    assert set(halves) == {2}
    for got, ref in zip(mirrored, both):
        assert (np.abs(got - ref).max(axis=1) <= 1e-13 * np.abs(ref).max(axis=1)).all()


def _mesh(potential):
    """A fresh mesh of ``potential`` on [-20, 20] with alpha = 3."""
    mesh = verify_module._Mesh(potential, 20.0)
    mesh.alpha = 3.0
    return mesh


def _pass(potential, counts, k2):
    """The propagators of a pass of ``counts`` on a fresh ``_mesh``, and
    whether the pass was mirrored."""
    mesh = _mesh(potential)
    return verify_module._propagators(mesh, counts, k2), mesh.layout(counts)[2]


@pytest.mark.parametrize("potential", [_pot(PARAMS_COMPLEX), _gaussian_well],
                         ids=["mirrored", "both-halves"])
def test_propagators_do_not_depend_on_the_chunk(monkeypatch, potential):
    # _propagators takes the momenta in chunks whose length and offset depend
    # on the batch, so a momentum's arithmetic must not depend on the memory
    # layout of its chunk (contiguous, strided or broadcast, where NumPy's
    # inner loops take other paths) nor on the momenta that share it
    mesh, counts = _mesh(potential), (512, 256, 128)
    k2 = np.linspace(0.4, 3.0, 11) ** 2        # more momenta than one chunk holds
    k2_big = np.repeat(k2, 2)
    ref = verify_module._propagators(mesh, counts, k2)
    assert np.array_equal(verify_module._propagators(mesh, counts, k2_big[::2]), ref)
    for j, kk in enumerate(k2):
        same = verify_module._propagators(mesh, counts, np.broadcast_to(kk, (5,)))
        assert np.array_equal(same, np.repeat(ref[:, :, j:j + 1], 5, axis=2)), j
    monkeypatch.setattr(verify_module, "_BLOCK", 1)     # one momentum a chunk
    assert np.array_equal(verify_module._propagators(mesh, counts, k2), ref)


def test_each_rung_of_a_pass_is_mirrored_by_its_own_samples(monkeypatch, caplog):
    # the mirror is decided per pass: a pass one of whose rungs' samples fail
    # the PT test integrates both halves of every rung, bit for bit as a
    # pass that mirrors none
    pot, k2 = _pot(PARAMS_COMPLEX), np.array([0.8, 1.7]) ** 2
    counts = (512, 256, 128)
    props, mirrored = _pass(pot, counts, k2)
    assert mirrored is True
    pt_symmetric = verify_module._pt_symmetric
    monkeypatch.setattr(verify_module, "_pt_symmetric",
                        lambda v: len(v) != 4 * 256 and pt_symmetric(v))
    one_failed, mirrored = _pass(pot, counts, k2)
    assert mirrored is False
    with caplog.at_level(logging.DEBUG, logger="scarf_spectra"):
        # leaves in the entry pass, which integrates both halves
        jost_solutions(pot, 1.0, GridSpec(20.0, 201))
        # climbs past the entry pass to 2048 steps per half, and its later
        # passes of 1024 and 2048 steps are mirrored
        jost_solutions(_partner(CouplingParams(100.0, 1.0), (-1, -1)), 1.0,
                       GridSpec(20.0, 201))
    assert [(r.args[1], r.args[2]) for r in caplog.records] == [
        (1024, "both halves"), (4096, "mixed")]
    monkeypatch.setattr(verify_module, "_pt_symmetric", lambda v: False)
    both, mirrored = _pass(pot, counts, k2)
    assert mirrored is False
    assert np.array_equal(one_failed, both)
    assert np.abs(one_failed - props).max() <= 1e-13 * np.abs(props).max()


def test_jost_solutions_integrates_both_halves_of_a_non_pt_potential(monkeypatch):
    halves = _halves_spy(monkeypatch)
    jost_solutions(_gaussian_well, np.array([1.0, 2.0]), GridSpec(20.0, 201))
    assert set(halves) == {2}


def _counted(potential, calls):
    """V that appends the size of each sample it is asked for to ``calls``."""
    def counted(x):
        calls.append(np.size(x))
        return potential(x)
    return counted


def test_jost_solutions_takes_the_first_three_rungs_in_one_pass(monkeypatch, caplog):
    # no momentum can leave before the third rung, so one pass takes the first
    # three: besides the probe one sample of V, and for a batch within one
    # chunk one call of _step_exponentials; each later rung is a pass of its
    # own, with one more sample of V
    passes, steps = [], []
    propagators = verify_module._propagators
    step_exponentials = verify_module._step_exponentials

    def spy_propagators(mesh, counts, k2):
        passes.append(counts)
        return propagators(mesh, counts, k2)

    def spy_step_exponentials(w1, w2, h):
        steps.append(w1.shape)
        return step_exponentials(w1, w2, h)
    monkeypatch.setattr(verify_module, "_propagators", spy_propagators)
    monkeypatch.setattr(verify_module, "_step_exponentials", spy_step_exponentials)
    grid = GridSpec(20.0, 201)
    calls = []
    with caplog.at_level(logging.DEBUG, logger="scarf_spectra"):
        jost_solutions(_counted(_pot(CouplingParams(2.0, 6.75)), calls),
                       np.array([1.0, 1.05, 1.1]), grid)
    # the batch leaves at 512 steps per half, the third rung
    assert {r.args[1] for r in caplog.records} == {1024}
    assert calls == [verify_module._PROBE_POINTS, 4 * (512 + 256 + 128)]
    assert passes == [(512, 256, 128)] and steps == [(3, 1, 896)]
    passes.clear()
    caplog.clear()
    calls = []
    with caplog.at_level(logging.DEBUG, logger="scarf_spectra"):
        jost_solutions(_counted(_partner(CouplingParams(100.0, 1.0), (-1, -1)), calls), 1.0,
                       grid)
    # this near-pole partner leaves at 2048 steps per half, two rungs later
    (record,) = caplog.records
    later = int(math.log2(record.args[1] // 1024))
    assert later == 2
    assert len(calls) == 2 + later
    assert passes == [(512, 256, 128)] + [(1024 << j,) for j in range(later)]


def _tree(m):
    """M[n-1] ... M[1] M[0] along the last axis of the matrices ``m``, n a
    power of two, by plain pairwise tree reduction."""
    while m.shape[-1] > 1:
        m = verify_module._mul(m[..., 1::2], m[..., 0::2])
    return m[..., 0]


@pytest.mark.parametrize("sizes", [(512, 256, 128), (4, 2, 1), (4096,)])
def test_segmented_tree_matches_each_segment_alone(sizes):
    # the step exponentials of (1, 5) at k = 0.7 and 1.3 on equal steps of [0, 20]
    n = sum(sizes)
    h = np.full((1, n), 20.0 / n)
    mid = (np.arange(n) + 0.5) * (20.0 / n)
    nodes = mid[:, None] + (20.0 / n) * np.array([-1.0, 1.0]) * verify_module._GAUSS_OFFSET
    v = potential_value(PARAMS_COMPLEX, nodes)
    w = np.array([0.7, 1.3])[:, None, None] ** 2
    m = verify_module._step_exponentials(v[None, :, 0] - w, v[None, :, 1] - w, h)
    products = verify_module._product(m, sizes)
    assert len(products) == len(sizes)
    start = 0
    for size, got in zip(sizes, products):
        segment = m[..., start:start + size]
        (alone,) = verify_module._product(segment, (size,))
        assert np.array_equal(got, alone) and np.array_equal(got, _tree(segment)), size
        start += size
    if sizes == (4096,):
        # the in-order product of two trees of 2048 steps has the bits of the
        # one tree of 4096, so when _propagators gave up its tiles of at most
        # 2048 steps for one tree per pass, outputs of passes of 4096 steps
        # per half did not move
        (lo,), (hi,) = (verify_module._product(m[..., j:j + 2048], (2048,))
                        for j in (0, 2048))
        assert np.array_equal(products[0], verify_module._mul(hi, lo))


def test_jost_solutions_unreachable_tolerance_raises():
    # the kinks of V at the zeros of sin 7.3x spoil the high-order convergence,
    # so the Richardson estimate is still 1.2e-7 at the step cap
    kinked = lambda x: -3.0 * np.abs(np.sin(7.3 * x))
    with pytest.raises(ConvergenceError, match="k = 1"):
        jost_solutions(kinked, 1.0, GridSpec(20.0, 201))


def test_jost_solutions_debug_record(caplog):
    g = GridSpec(25.0, 1001)
    with caplog.at_level(logging.DEBUG, logger="scarf_spectra"):
        jost_solutions(_pot(PARAMS_COMPLEX), 1.0, g)
    records = [r for r in caplog.records if r.name == "scarf_spectra"]
    assert len(records) == 1 and records[0].levelno == logging.DEBUG
    k, steps, halves, estimate, drift, alpha, entry = records[0].args
    assert k == 1.0
    assert halves == "mirrored"
    assert 0.0 <= estimate < 1e-10
    assert 0.0 <= drift < 1e-12
    assert math.isfinite(alpha) and alpha > 0.0
    # 128 steps per half, the first power of two >= 4 L; the first two rungs
    # cannot meet the tolerance
    assert entry == 256 and steps >= 4 * entry
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="scarf_spectra"):
        jost_solutions(_pot(PARAMS_COMPLEX), np.array([0.5, 1.0, 30.0]), g)
    args = [r.args for r in caplog.records]
    # one mesh and one entry rung for the whole batch
    assert len(args) == 3
    assert {a[5] for a in args} == {alpha} and {a[6] for a in args} == {entry}


# ---------------------------------------------------------------------------
# singularity scan
# ---------------------------------------------------------------------------

# the windows of the transmission-scan benchmark, round the n* = 1 locus point,
# its off-locus neighbour and the n* = 2 locus point
BENCHMARK_SCANS = [((2.0, 6.75), (1.04, 1.08)), ((2.2, 6.75), (1.02, 1.06)),
                   ((6.0, 18.75), (1.75, 1.79))]


def test_singularity_scan_locus_vs_off_locus():
    grid = GridSpec(20.0, 1001)
    window = (0.9, 1.3)
    locus = singularity_scan([CouplingParams(2.0, 6.75)], window, grid)[0]
    off = singularity_scan([CouplingParams(1.0, 5.0)], window, grid)[0]

    assert locus.k_peak ** 2 == pytest.approx(1.125, abs=1e-3)
    assert locus.peak_height > 1e3
    assert locus.wronskian_ratio < 1e-3
    assert off.peak_height / locus.peak_height < 1e-3
    assert off.wronskian_ratio > 1e-2


def test_singularity_scan_flags_a_window_edge():
    # off the locus |T| of (1, 5) still rises at k = 1.3: the scan returns the
    # window's end, not a maximum, and says so
    grid = GridSpec(20.0, 1001)
    (edge,) = singularity_scan([PARAMS_COMPLEX], (0.9, 1.3), grid)
    assert edge.at_window_edge and 1.3 - 2.6e-6 <= edge.k_peak <= 1.3
    # the largest coarse sample is the window's first momentum, but the peak at
    # k = 1.06066 lies inside the edge interval
    (near,) = singularity_scan([CouplingParams(2.0, 6.75)], (1.058, 1.3), grid)
    assert not near.at_window_edge and abs(near.k_peak - 1.0606601) < 1e-5


@pytest.mark.parametrize("pair, window", BENCHMARK_SCANS)
def test_singularity_scan_interior_peaks_are_not_window_edges(pair, window):
    # the windows of the transmission-scan benchmark each hold their peak
    (pt,) = singularity_scan([CouplingParams(*pair)], window, GridSpec(20.0, 1001),
                             coarse_steps=9)
    assert not pt.at_window_edge and window[0] < pt.k_peak < window[1]


def test_singularity_scan_integrates_each_momentum_once(monkeypatch):
    # one batched coarse pass, then one batched call per step of at most three
    # momenta (a parabola's vertex and one momentum either side of it, or two
    # midpoints), and the peak's values taken from the call that integrated it
    calls = []
    single = verify_module.scattering

    def counting(potential, k, grid):
        assert np.ndim(k) == 1
        calls.append(list(k))
        return single(potential, k, grid)
    monkeypatch.setattr(verify_module, "scattering", counting)
    pair, grid = CouplingParams(2.0, 6.75), GridSpec(20.0, 1001)
    (pt,) = singularity_scan([pair], (1.04, 1.08), grid, coarse_steps=9)
    momenta = [k for ks in calls for k in ks]
    assert len(calls[0]) == 9 and all(len(ks) <= 3 for ks in calls[1:])
    assert len(calls) <= 5
    assert len(set(momenta)) == len(momenta)
    assert pt.k_peak in momenta
    fresh = single(_pot(pair), pt.k_peak, grid)
    assert pt.peak_height == abs(fresh.transmission)
    assert pt.wronskian_ratio == fresh.wronskian_ratio


def test_singularity_scan_debug_record(monkeypatch, caplog):
    # one record per point; the point's calls share one mesh, so V is called
    # twice: the probe and the entry pass of 512 + 256 + 128 steps per half
    calls = []
    single = verify_module.scattering

    def counting(potential, k, grid):
        calls.append(len(k))
        return single(potential, k, grid)
    monkeypatch.setattr(verify_module, "scattering", counting)
    with caplog.at_level(logging.DEBUG, logger="scarf_spectra"):
        (pt,) = singularity_scan([CouplingParams(2.0, 6.75)], (1.04, 1.08),
                                 GridSpec(20.0, 1001), coarse_steps=9)
    (record,) = [r for r in caplog.records if r.msg.startswith("singularity_scan")]
    assert record.levelno == logging.DEBUG
    v1, v2, scans, parabolic, bisection, momenta, v_calls, samples, width, at_edge = \
        record.args
    assert (v1, v2) == (2.0, 6.75)
    assert scans == len(calls) == 1 + parabolic + bisection and momenta == sum(calls)
    assert (parabolic, bisection) == (3, 0)
    # each momentum integrated once, with one record of its own
    assert momenta == len([r for r in caplog.records if r.msg.startswith("jost_solutions")])
    assert v_calls == 2 and samples == verify_module._PROBE_POINTS + 4 * (512 + 256 + 128)
    assert 0.0 < width <= 1e-6 * 2.16
    assert at_edge is pt.at_window_edge is False


@pytest.mark.parametrize("potential, window, halves, later", [
    (_pot(CouplingParams(2.0, 6.75)), (1.04, 1.08), "mirrored", 0),
    (_nudged(_pot(PARAMS_COMPLEX)), (0.9, 1.3), "both halves", 0),
    # leaves at 2048 steps per half, two rungs after the entry pass, so the
    # samples of those rungs serve every call that reaches them
    (_partner(CouplingParams(100.0, 1.0), (-1, -1)), (0.9, 1.3), "mirrored", 2)],
    ids=["(2, 6.75)", "(1, 5) nudged", "(100, 1) partner (-, -)"])
def test_every_call_of_a_scan_point_matches_a_fresh_call(monkeypatch, caplog, potential,
                                                          window, halves, later):
    grid = GridSpec(20.0, 1001)
    found = []
    single = verify_module.scattering

    def recording(potential, k, grid):
        out = single(potential, k, grid)
        found.extend(out)
        return out
    monkeypatch.setattr(verify_module, "scattering", recording)
    calls = []
    with caplog.at_level(logging.DEBUG, logger="scarf_spectra"):
        verify_module._peak_in_window(_counted(potential, calls), window, grid, 9, 1e-6)
    records = [r.args for r in caplog.records]
    assert len(records) == len(found) > 9
    assert {a[2] for a in records} == {halves}
    # the last rung reached, in doublings past the entry pass's three
    assert int(math.log2(max(a[1] // a[6] for a in records))) - 2 == later
    assert len(calls) == 2 + later
    for sc in found:
        assert sc == single(potential, sc.k, grid), sc.k


def test_a_scan_points_mesh_lives_no_longer_than_the_point(monkeypatch):
    # successive points on different couplings each sample their own V
    sampled = []
    value = params_module.potential_value

    def spy(params, x):
        sampled.append(params)
        return value(params, x)
    monkeypatch.setattr(params_module, "potential_value", spy)
    grid = GridSpec(20.0, 1001)
    for pair, window in BENCHMARK_SCANS[:2]:
        singularity_scan([CouplingParams(*pair)], window, grid, coarse_steps=9)
    assert sampled == [CouplingParams(2.0, 6.75)] * 2 + [CouplingParams(2.2, 6.75)] * 2

    # nothing keeps the potential once the point is done
    class Potential:
        def __call__(self, x):
            return value(PARAMS_COMPLEX, x)
    potential = Potential()
    alive = weakref.ref(potential)
    verify_module._peak_in_window(potential, (0.9, 1.3), grid, 9, 1e-6)
    del potential
    assert alive() is None


def _gamma_peak(v1, v2, lo, hi):
    """(k, |T|) of the largest Gamma-form |T| in [lo, hi], by ternary search
    (the windows below hold one maximum)."""
    height = lambda k: abs(_gamma_transmission(v1, v2, k))
    while hi - lo > 1e-10:
        a, b = lo + (hi - lo) / 3.0, hi - (hi - lo) / 3.0
        if height(a) < height(b):
            lo = a
        else:
            hi = b
    k = 0.5 * (lo + hi)
    return k, height(k)


@pytest.mark.parametrize("pair, window", BENCHMARK_SCANS)
def test_singularity_scan_peaks_match_the_gamma_form(pair, window):
    # the tolerances of the transmission-scan benchmark's scan check
    params = CouplingParams(*pair)
    (pt,) = singularity_scan([params], window, GridSpec(20.0, 1001), coarse_steps=9)
    d = derive(params)
    if detect_singularity(d).is_singular:
        # on the locus the pole of T is at k = q
        q = d.q
        ref = abs(_gamma_transmission(*pair, pt.k_peak))
        assert abs(pt.k_peak - q) < 1e-5 and pt.wronskian_ratio < 1e-3
        assert ref / 3.0 <= pt.peak_height <= 3.0 * ref
    else:
        k_ref, h_ref = _gamma_peak(*pair, *window)
        assert abs(pt.k_peak - k_ref) < 1e-4
        assert abs(pt.peak_height - h_ref) <= 1e-5 * h_ref * max(1.0, h_ref)
        assert pt.wronskian_ratio > 1e-3


def _bisection_calls(window, steps, xtol):
    """An upper bound on the calls of a search that bisects from the coarse
    bracket 2h down to xtol (|lo| + |hi|) >= 2 xtol k_lo."""
    h = (window[1] - window[0]) / (steps - 1)
    return 1 + math.ceil(math.log2(h / (xtol * window[0])))


def _kernel_peak(potential, lo, hi):
    """The momentum of the largest |T| of ``scattering`` itself in [lo, hi]
    (the windows below hold one maximum), by ternary search to 1e-11.  Its
    two probes stay at least 1e-6 apart: at the flat peak of (2.2, 6.75),
    |T| at closer momenta differs by less than the kernel's own jitter of
    about 4e-13 relative, so below that the search compares |T| at the
    midpoint -+ 5e-7 and keeps the half on the larger side."""
    grid = GridSpec(20.0, 1001)
    while hi - lo > 1e-11:
        mid, d = 0.5 * (lo + hi), (hi - lo) / 6.0
        ta, tb = (abs(sc.transmission) for sc in
                  scattering(potential, np.array([mid - max(d, 5e-7),
                                                  mid + max(d, 5e-7)]), grid))
        cut = mid - d if d > 5e-7 else mid
        lo, hi = (cut, hi) if ta < tb else (lo, 2.0 * mid - cut)
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("pair, window", BENCHMARK_SCANS)
def test_singularity_scan_peaks_on_the_kernels_own_maximum(pair, window):
    # the parabolic steps converge on the vertex: k_peak is the maximum of the
    # kernel's |T|, not merely some sample of the final xtol bracket, which
    # would be up to 1e-6 from it
    params = CouplingParams(*pair)
    (pt,) = singularity_scan([params], window, GridSpec(20.0, 1001), coarse_steps=9)
    assert abs(pt.k_peak - _kernel_peak(_pot(params), *window)) < 1e-9


def test_singularity_scan_resolves_no_finer_than_xtol():
    # the momenta either side of the vertex stay at least xtol |v| / 2 from
    # it, so a loose tolerance ends on a bracket of about xtol |v|, not on
    # one the parabola could have narrowed further at no use to the caller
    params, xtol = CouplingParams(2.0, 6.75), 1e-4
    k, at_edge, sc, trace = verify_module._peak_in_window(
        _pot(params), (1.04, 1.08), GridSpec(20.0, 1001), 9, xtol)
    assert not at_edge and 0.5 * xtol * k <= trace[-1] <= 2.0 * xtol * k


def test_singularity_scan_on_a_flat_transmission(monkeypatch):
    # V = 0: |T| = 1 up to roundoff, so the parabola through 1/|T|^2 is flat or
    # noise.  The search still ends inside the window, each momentum
    # integrated once, in no more calls than bisection
    calls = []
    single = verify_module.scattering

    def counting(potential, k, grid):
        calls.append(list(k))
        return single(potential, k, grid)
    monkeypatch.setattr(verify_module, "scattering", counting)
    (k_lo, k_hi), steps, xtol = (0.9, 1.3), 31, 1e-6
    k, at_edge, sc, trace = verify_module._peak_in_window(
        _zero, (k_lo, k_hi), GridSpec(20.0, 1001), steps, xtol)
    momenta = [m for ks in calls for m in ks]
    assert k_lo <= k <= k_hi and at_edge is (k in (k_lo, k_hi))
    assert abs(abs(sc.transmission) - 1.0) < 1e-9
    assert len(set(momenta)) == len(momenta) and k in momenta
    assert len(calls) == trace[0] <= _bisection_calls((k_lo, k_hi), steps, xtol)


@pytest.mark.parametrize("profile", [
    lambda x: math.exp(-x if x > 0.0 else 30.0 * x),
    lambda x: 1.0 / (1.0 + x ** 4)], ids=["kink", "quartic top"])
@pytest.mark.parametrize("k0", [0.958, 1.1, 1.243])
def test_a_transmission_far_from_a_parabola_costs_few_calls(monkeypatch, profile, k0):
    # 1/|T|^2 that is no parabola at the peak: a parabolic step fails to
    # halve the bracket, falls behind bisection's pace, and the search then
    # bisects, so it takes at most two calls more than bisection.  Parabolic
    # steps regardless of that pace take up to 156 calls here.
    calls = []

    def profiled(potential, k, grid):
        calls.append(len(k))
        return [verify_module.ScatteringResult(float(x), complex(profile(x - k0)), 0j, 0j,
                                               1.0) for x in k]
    monkeypatch.setattr(verify_module, "scattering", profiled)
    window, steps, xtol = (0.9, 1.3), 31, 1e-6
    k, at_edge, sc, (scans, parabolic, bisection, *_) = \
        verify_module._peak_in_window(lambda x: x, window, GridSpec(20.0, 1001), steps, xtol)
    assert bisection > 0 and len(calls) == scans <= _bisection_calls(window, steps, xtol) + 2
    # the quartic top is flat to roundoff within about 1e-4 of k0
    assert not at_edge and abs(k - k0) < 5e-4


def test_singularity_scan_validation():
    grid = GridSpec(20.0, 1001)
    with pytest.raises(DomainError):
        singularity_scan([PARAMS_COMPLEX], (1.3, 0.9), grid)
    with pytest.raises(DomainError):
        singularity_scan([PARAMS_COMPLEX], (0.0, 1.0), grid)
    with pytest.raises(DomainError):
        singularity_scan([PARAMS_COMPLEX], (0.9, 1.3), grid, coarse_steps=3)
    # numpy's linspace takes no float count: its TypeError must not leak
    for steps in (9.5, 9.0, "9"):
        with pytest.raises(DomainError, match="coarse_steps"):
            singularity_scan([PARAMS_COMPLEX], (0.9, 1.3), grid, coarse_steps=steps)
    for xtol in (0.0, -1.0, float("nan"), "1e-6"):
        with pytest.raises(DomainError, match="xtol"):
            singularity_scan([PARAMS_COMPLEX], (0.9, 1.3), grid, xtol=xtol)
    # an end that is not finite, before numpy's linspace warns on it
    for window in ((0.9, math.inf), (0.9, math.nan), (math.inf, math.inf)):
        with pytest.raises(DomainError, match="invalid momentum window"):
            singularity_scan([PARAMS_COMPLEX], window, grid)
    # a window of other than two ends
    for window in ((0.9, 1.3, 2), (0.9,), 1.1, ((0.9, 1.0), (1.2, 1.3)),
                   ((0.9,), 1.0)):
        with pytest.raises(DomainError, match="momentum window must be"):
            singularity_scan([PARAMS_COMPLEX], window, grid)
    # a tolerance below the float spacing: the search stops once no new
    # momentum lies strictly inside the bracket
    (pt,) = singularity_scan([CouplingParams(2.2, 6.75)], (1.02, 1.06), grid,
                             coarse_steps=9, xtol=1e-300)
    assert not pt.at_window_edge and 1.02 < pt.k_peak < 1.06


# ---------------------------------------------------------------------------
# residual oracle
# ---------------------------------------------------------------------------

def test_residual_analytic_state_small():
    lv = spectrum(derive(PARAMS_REAL))[0]
    psi = lambda x: bound_state(lv, x)
    assert residual(_pot(PARAMS_REAL), psi, lv.energy, REFERENCE_GRID) < 1e-9


def test_residual_rejects_noise():
    rng = np.random.default_rng(0)
    vals = rng.standard_normal(REFERENCE_GRID.n_points) \
        + 1j * rng.standard_normal(REFERENCE_GRID.n_points)
    noise = lambda x: vals
    # a non-solution scores O(1/h^2)
    assert residual(_pot(PARAMS_COMPLEX), noise, 0.0, REFERENCE_GRID) > 1e3


def test_residual_validation():
    with pytest.raises(DomainError):
        residual(_pot(PARAMS_REAL), lambda x: np.zeros_like(x), 0.0, REFERENCE_GRID)
    # a non-finite sample is named, not returned as a NaN residual
    lv = spectrum(derive(PARAMS_REAL))[0]
    nan_tail = lambda x: np.where(x < -19.0, np.nan, bound_state(lv, x))
    with pytest.raises(DomainError, match="psi is not finite at x = -20$"):
        residual(_pot(PARAMS_REAL), nan_tail, lv.energy, REFERENCE_GRID)
    nan_well = lambda x: np.where(x > 5.0, np.nan, potential_value(PARAMS_REAL, x))
    with pytest.raises(DomainError, match="potential is not finite at x = 5.01$"):
        residual(nan_well, lambda x: bound_state(lv, x), lv.energy, REFERENCE_GRID)


def test_a_callable_without_one_value_per_point_is_a_domain_error():
    # a scalar V or psi, which would broadcast or fail with IndexError, and a
    # V of the wrong length, which the kernel would fail to reshape, are named
    lv = spectrum(derive(PARAMS_REAL))[0]
    psi = lambda x: bound_state(lv, x)
    scalar = lambda x: 0.0
    # right on the probe of 801 points, too short on every pass
    short = lambda x: potential_value(PARAMS_REAL, x)[:verify_module._PROBE_POINTS]
    one_value = "must give one value per point"
    for pot in (scalar, short):
        with pytest.raises(DomainError, match="potential " + one_value):
            jost_solutions(pot, 1.0, GridSpec(20.0, 201))
    with pytest.raises(DomainError, match="potential " + one_value):
        discrete_spectrum(scalar, REFERENCE_GRID, 1)
    with pytest.raises(DomainError, match="potential " + one_value):
        residual(scalar, psi, lv.energy, REFERENCE_GRID)
    with pytest.raises(DomainError, match="psi " + one_value):
        residual(_pot(PARAMS_REAL), lambda x: 1.0, lv.energy, REFERENCE_GRID)
