"""Analytic spectrum of the PT-symmetric Scarf II potential, both regimes.

Both regimes are one family in sigma = ``DerivedParams.sigma``, which is s
in the real regime and i q in the complex one; two quasi-parity series
eps = +-1 have

    E_{n,eps} = -(p + eps sigma - n - 1/2)^2,  0 <= n < p + eps Re sigma - 1/2.

Real regime (|v2| < v1 + 1/4): sigma = s, every level is real.  Complex
regime (|v2| > v1 + 1/4), PT broken: sigma = i q, the two series are
conjugate pairs, with n < p - 1/2.

Each level carries the exponents (lam, mu) and Jacobi parameters of its
closed-form wavefunction.  Spectral singularities (real positive-energy
scattering anomalies) occur in the complex regime exactly when p - 1/2 is a
nonnegative integer n*, at energy E* = q^2; the couplings then satisfy
v1 + |v2| = 4 n*^2 + 4 n* + 3/4.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError, RegimeError
from .params import (CouplingParams, DerivedParams, Regime, WavefunctionParams,
                     derive, wavefunction_params)


@dataclass(frozen=True)
class LevelRecord:
    """One spectral level with its wavefunction parameters.

    ``origin`` is "series" for ordinary analytic levels and "susy-added" for
    the extra state created by an adding SUSY transformation (those carry no
    polynomial-ansatz parameters, wf = None).
    """

    n: int
    epsilon: int
    energy: complex
    wf: Optional[WavefunctionParams]
    origin: str = "series"

    def __post_init__(self):
        if not isinstance(self.n, numbers.Integral) or self.n < 0:
            raise DomainError(f"level index must be an integer >= 0, got {self.n!r}")
        if self.epsilon not in (-1, 1):
            raise DomainError(f"epsilon must be +1 or -1, got {self.epsilon}")


def _series_count(lam_real: float) -> int:
    """Number of integers n >= 0 with n < lam_real (strict)."""
    return math.ceil(lam_real) if lam_real > 0 else 0


def _series(d: DerivedParams, sig) -> list[LevelRecord]:
    """Levels of the series eps = +1, then eps = -1, for the shape parameter
    sigma = ``sig``: lam = -1/2 + p + eps sigma, mu = -i nu (p - eps sigma)."""
    levels = []
    for eps in (1, -1):
        lam = -0.5 + d.p + eps * sig
        wf = wavefunction_params(lam, -1j * d.nu * (d.p - eps * sig))
        for n in range(_series_count(lam.real)):
            levels.append(LevelRecord(n=n, epsilon=eps, energy=-((lam - n) ** 2), wf=wf))
    return levels


def spectrum(d: DerivedParams) -> list[LevelRecord]:
    """Every bound level of V, sorted by energy in the real regime
    (sigma = s) and by (n, eps) in the complex one (sigma = i q).  The
    boundary is classified but not solvable here (``RegimeError``)."""
    if d.regime is Regime.REAL_SPECTRUM:
        # sigma = s, passed as a float so that lam and the energies stay real
        levels = _series(d, d.s)
        levels.sort(key=lambda lv: lv.energy.real)
    elif d.regime is Regime.COMPLEX_SPECTRUM:
        levels = _series(d, d.sigma)
        levels.sort(key=lambda lv: (lv.n, lv.epsilon))
    else:
        raise RegimeError("spectrum is not provided on the regime boundary |v2| = v1 + 1/4")
    return levels


# ============================================================================
# spectral singularities
# ============================================================================

# how close p - 1/2 must come to an integer n* >= 0 to count as singular
_SINGULARITY_TOL = 1e-9


@dataclass(frozen=True)
class SingularityReport:
    is_singular: bool
    n_star: Optional[int]
    e_star: Optional[float]
    tolerance_used: float
    note: str = ""


def detect_singularity(d: DerivedParams) -> SingularityReport:
    """Check whether p - 1/2 is a nonnegative integer (within
    ``_SINGULARITY_TOL`` = 1e-9, reported as ``tolerance_used``).

    Outside the complex regime the answer is always negative (with a note);
    no error is raised, so the caller can scan parameter curves freely.
    """
    if d.regime is not Regime.COMPLEX_SPECTRUM:
        return SingularityReport(is_singular=False, n_star=None, e_star=None,
                                 tolerance_used=_SINGULARITY_TOL,
                                 note=f"regime is {d.regime.value}; singularities require the "
                                      "complex-spectrum regime")
    r = d.p - 0.5
    n_star = round(r)
    if n_star < 0 or abs(r - n_star) >= _SINGULARITY_TOL:
        return SingularityReport(is_singular=False, n_star=None, e_star=None,
                                 tolerance_used=_SINGULARITY_TOL)
    return SingularityReport(is_singular=True, n_star=int(n_star), e_star=d.q ** 2,
                             tolerance_used=_SINGULARITY_TOL)


@dataclass(frozen=True)
class LocusPoint:
    v1: float
    v2: float
    in_complex_regime: bool


def singularity_locus(n: int, v1_range: tuple, steps: int) -> list[LocusPoint]:
    """Sample the singularity locus v1 + v2 = 4n^2 + 4n + 3/4 (v2 > 0).

    Points whose v2 falls outside the complex regime (|v2| <= v1 + 1/4) are
    flagged ``in_complex_regime = False``; in-regime points are verified to
    satisfy :func:`detect_singularity` before being returned.
    """
    if not isinstance(n, numbers.Integral) or n < 0:
        raise DomainError(f"singularity index must be an integer >= 0, got {n!r}")
    try:
        v1_min, v1_max = (float(v) for v in v1_range)
    except (TypeError, ValueError):
        raise DomainError(f"v1 range must be (v1_min, v1_max), got {v1_range!r}") from None
    if not isinstance(steps, numbers.Integral) or steps < 1:
        raise DomainError(f"steps must be an integer >= 1, got {steps!r}")
    if not 0.0 < v1_min <= v1_max < math.inf:
        raise DomainError(f"invalid v1 range ({v1_min}, {v1_max})")
    coupling_sum = 4.0 * n * n + 4.0 * n + 0.75
    points = []
    for v1 in np.linspace(v1_min, v1_max, steps):
        v1 = float(v1)
        v2 = coupling_sum - v1
        if v2 <= 0:
            points.append(LocusPoint(v1=v1, v2=v2, in_complex_regime=False))
            continue
        d = derive(CouplingParams(v1=v1, v2=v2))
        ok = d.regime is Regime.COMPLEX_SPECTRUM
        if ok:
            rep = detect_singularity(d)
            if not (rep.is_singular and rep.n_star == n):
                raise DomainError(
                    f"locus point (v1={v1:.6g}, v2={v2:.6g}) failed singularity verification")
        points.append(LocusPoint(v1=v1, v2=v2, in_complex_regime=ok))
    return points


def matching_residuals(level: LevelRecord, params: CouplingParams) -> dict:
    """Absolute residuals of the five wavefunction matching conditions.

    Closure of these (to ~1e-12 for moderate couplings) is the analytic
    consistency test that the level genuinely solves the Schroedinger
    equation with the given couplings.
    """
    wf = level.wf
    if wf is None:
        raise DomainError("level carries no wavefunction parameters")
    lam, mu, al, be = wf.lam, wf.mu, wf.alpha, wf.beta
    n, energy = level.n, level.energy
    return {
        "parity_shift": abs(be - al + 2j * mu),
        "exponent_sum": abs(al + be + 2.0 - (1.0 - 2.0 * lam)),
        "well_depth": abs(lam * (lam + 1.0) - mu * mu - params.v1),
        "imaginary_strength": abs((2.0 * lam + 1.0) * mu + 1j * params.v2),
        "energy_index": abs(lam * lam + energy + n * (n + al + be + 1.0)),
    }
