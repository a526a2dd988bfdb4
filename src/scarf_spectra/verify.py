"""Analytics-free numerical checks: grid eigensolver, scattering, residuals.

Everything in this module treats the potential as an opaque callable
``V(x) -> complex array`` so it can cross-check the closed-form results
without sharing any of their algebra.  The Hamiltonian is discretized on a
uniform grid with Dirichlet walls; bound (localized) eigenpairs of the
resulting complex non-Hermitian matrix are located by a dense coarse pass
and polished by shifted inverse iteration on the full grid.  Scattering
quantities come from integrating the ODE psi'' = (V - k^2) psi from each
wall with plane-wave data (numerical Jost solutions).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
import scipy.linalg
import scipy.optimize
from scipy.integrate import solve_ivp

from .errors import ConvergenceError, DomainError

_D2_STENCILS = {
    2: np.array([1.0, -2.0, 1.0]),
    4: np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0,
    6: np.array([2.0, -27.0, 270.0, -490.0, 270.0, -27.0, 2.0]) / 180.0,
    8: np.array([-9.0, 128.0, -1008.0, 8064.0, -14350.0,
                 8064.0, -1008.0, 128.0, -9.0]) / 5040.0,
}


@dataclass(frozen=True)
class GridSpec:
    """Uniform symmetric grid on [-half_width, half_width]."""

    half_width: float
    n_points: int

    def __post_init__(self):
        if not (self.half_width > 0.0 and math.isfinite(self.half_width)):
            raise DomainError(f"half_width must be positive, got {self.half_width}")
        if self.n_points < 201 or self.n_points % 2 == 0:
            raise DomainError(f"n_points must be odd and >= 201, got {self.n_points}")

    @property
    def h(self) -> float:
        return 2.0 * self.half_width / (self.n_points - 1)

    def points(self) -> np.ndarray:
        return np.linspace(-self.half_width, self.half_width, self.n_points)


REFERENCE_GRID = GridSpec(half_width=20.0, n_points=4001)


def _edge_ratio(vec: np.ndarray, h: float) -> float:
    # h-independent localization measure: a bound state's envelope slope at the
    # wall, relative to its peak.  Box modes score ~O(1/L); bound states are
    # orders of magnitude below.
    peak = np.max(np.abs(vec))
    if peak == 0.0:
        return np.inf
    return max(abs(vec[0]), abs(vec[-1])) / (h * peak)


def _matvec(diag: np.ndarray, off: float, v: np.ndarray) -> np.ndarray:
    out = diag * v
    out[:-1] += off * v[1:]
    out[1:] += off * v[:-1]
    return out


def discrete_spectrum(potential: Callable, grid: GridSpec, count: int,
                      edge_tol: float = 5e-3, coarse_points: int = 501) -> list:
    """Lowest ``count`` localized eigenvalues of -d^2/dx^2 + V, sorted by Re.

    Two stages: a dense eigensolve on a coarse subgrid yields candidate
    (eigenvalue, eigenvector) seeds, filtered by the edge-localization
    measure; each survivor is refined on the full grid by shifted inverse
    iteration with a complex-symmetric Rayleigh quotient (transpose, no
    conjugation -- the discretized operator is complex symmetric).
    """
    if count < 1:
        raise DomainError(f"count must be >= 1, got {count}")
    L = grid.half_width
    m = min(coarse_points, grid.n_points)
    if m % 2 == 0:
        m -= 1
    xc = np.linspace(-L, L, m)[1:-1]
    hc = 2.0 * L / (m - 1)
    vc = np.asarray(potential(xc), dtype=complex)
    ac = (np.diag(vc + 2.0 / hc ** 2)
          + np.diag(np.full(len(xc) - 1, -1.0 / hc ** 2), 1)
          + np.diag(np.full(len(xc) - 1, -1.0 / hc ** 2), -1))
    w, vr = scipy.linalg.eig(ac)
    order = np.lexsort((w.imag, w.real))
    seeds = []
    for idx in order:
        if _edge_ratio(vr[:, idx], hc) < edge_tol:
            seeds.append((w[idx], vr[:, idx]))
        if len(seeds) >= count + 4:
            break
    if not seeds:
        return []

    xf = grid.points()[1:-1]
    hf = grid.h
    vf = np.asarray(potential(xf), dtype=complex)
    diag = vf + 2.0 / hf ** 2
    off = -1.0 / hf ** 2
    band = np.zeros((3, len(xf)), dtype=complex)
    band[0, 1:] = off
    band[2, :-1] = off

    refined = []
    for theta, vec_c in seeds:
        v = (np.interp(xf, xc, vec_c.real) + 1j * np.interp(xf, xc, vec_c.imag))
        nrm = np.linalg.norm(v)
        if nrm == 0.0:
            continue
        v /= nrm
        ok = False
        for _ in range(60):
            band[1, :] = diag - theta
            try:
                w_new = scipy.linalg.solve_banded((1, 1), band, v)
            except scipy.linalg.LinAlgError:
                theta += 1e-10 * (1.0 + abs(theta))
                continue
            if not np.all(np.isfinite(w_new)):
                theta += 1e-10 * (1.0 + abs(theta))
                continue
            v = w_new / np.linalg.norm(w_new)
            denom = np.dot(v, v)
            if abs(denom) < 1e-300:
                break
            hv = _matvec(diag, off, v)
            theta_new = np.dot(v, hv) / denom
            resid = np.linalg.norm(hv - theta_new * v)
            theta = theta_new
            if resid < 1e-9 * max(1.0, abs(theta)):
                ok = True
                break
        if ok and _edge_ratio(v, hf) < edge_tol:
            refined.append(complex(theta))

    if not refined:
        raise ConvergenceError("inverse iteration failed to refine any candidate")
    refined.sort(key=lambda z: (z.real, z.imag))
    unique: list = []
    for z in refined:
        if all(abs(z - u) > 1e-8 * (1.0 + abs(z)) for u in unique):
            unique.append(z)
    return unique[:count]


@dataclass(frozen=True)
class ScatteringResult:
    k: float
    transmission: complex
    reflection_left: complex
    reflection_right: complex
    wronskian_ratio: float


def _from_wall(rhs: Callable, wall: float, start, xe: np.ndarray,
               rtol: float, atol: float):
    """Value and derivative at ``xe`` of the solution with data ``start`` at
    x = wall, integrated across to the other wall.

    Points on the starting wall take ``start`` itself, so the integrator
    builds no dense output for them.
    """
    out = np.empty((2, len(xe)), dtype=complex)
    inner = xe != wall
    out[:, ~inner] = np.reshape(start, (2, 1))
    ts, where = np.unique(xe[inner], return_inverse=True)
    step = -1 if wall > 0.0 else 1          # t_eval must follow the direction
    sol = solve_ivp(rhs, (wall, -wall), start, t_eval=ts[::step],
                    rtol=rtol, atol=atol, method="DOP853")
    if not sol.success:
        raise ConvergenceError("Jost integration failed: " + sol.message)
    out[:, inner] = sol.y[:, ::step][:, where]
    return out


def jost_solutions(potential: Callable, k: float, grid: GridSpec, x_eval,
                   rtol: float = 1e-11, atol: float = 1e-11):
    """Values and derivatives of f+ and f- at the requested points.

    Returns ``(fp, dfp, fm, dfm)`` arrays aligned with ``x_eval``.  Useful
    for Wronskian-constancy checks; the Wronskian fp*dfm - dfp*fm of the
    first-order system is an exact invariant of x.
    """
    L = grid.half_width
    xe = np.asarray(x_eval, dtype=float)
    if xe.ndim == 0:
        xe = xe[None]
    if np.any(np.abs(xe) > L):
        raise DomainError("evaluation points outside the grid")
    if not (k > 0.0 and math.isfinite(k)):
        raise DomainError(f"k must be positive and finite, got {k}")
    if k * L < 2.0 * math.pi:
        raise DomainError(
            f"k*half_width = {k * L:.3g} < 2*pi: grid too short for asymptotic plane waves")

    def rhs(t, y):
        return [y[1], (complex(potential(t)) - k * k) * y[0]]

    phase = complex(np.exp(1j * k * L))
    fp, dfp = _from_wall(rhs, L, [phase, 1j * k * phase], xe, rtol, atol)
    fm, dfm = _from_wall(rhs, -L, [phase, -1j * k * phase], xe, rtol, atol)
    return fp, dfp, fm, dfm


def scattering(potential: Callable, k: float, grid: GridSpec,
               rtol: float = 1e-11, atol: float = 1e-11) -> ScatteringResult:
    """Transmission/reflection amplitudes at momentum k (left and right incidence).

    The left/right transmission amplitudes coincide; ``transmission`` is the
    left-incidence one.  ``wronskian_ratio`` is |W[f+, f-]| at x = 0 scaled
    by the size of its terms; it dips toward 0 at a spectral singularity.
    """
    L = grid.half_width
    fp, dfp, fm, dfm = jost_solutions(potential, k, grid, [-L, 0.0, L],
                                      rtol=rtol, atol=atol)
    fpL, dfpL, fmL, dfmL = fp[0], dfp[0], fm[2], dfm[2]     # f+ at -L, f- at +L
    fp0, dfp0, fm0, dfm0 = fp[1], dfp[1], fm[1], dfm[1]     # both at x = 0
    eikl = complex(np.exp(1j * k * L))
    # f+ near -L: A e^{ikx} + B e^{-ikx}; left incidence T = 1/A, R_L = B/A
    a_amp = eikl * (fpL + dfpL / (1j * k)) / 2.0
    b_amp = (fpL - dfpL / (1j * k)) / (2.0 * eikl)
    # f- near +L: C e^{-ikx} + D e^{ikx}; right incidence T = 1/C, R_R = D/C
    c_amp = eikl * (fmL - dfmL / (1j * k)) / 2.0
    d_amp = (fmL + dfmL / (1j * k)) / (2.0 * eikl)
    wr = fp0 * dfm0 - dfp0 * fm0
    scale = abs(fp0) * abs(dfm0) + abs(dfp0) * abs(fm0)
    return ScatteringResult(
        k=k,
        transmission=complex(1.0 / a_amp),
        reflection_left=complex(b_amp / a_amp),
        reflection_right=complex(d_amp / c_amp),
        wronskian_ratio=float(abs(wr) / scale) if scale > 0.0 else np.inf,
    )


@dataclass(frozen=True)
class ScanPoint:
    params: object
    k_peak: float
    peak_height: float
    wronskian_ratio: float


def _peak_in_window(potential: Callable, k_window, grid: GridSpec,
                    coarse_steps: int, xtol: float):
    k_lo, k_hi = float(k_window[0]), float(k_window[1])
    if not (0.0 < k_lo < k_hi):
        raise DomainError(f"invalid momentum window ({k_lo}, {k_hi})")
    if coarse_steps < 5:
        raise DomainError(f"coarse_steps must be >= 5, got {coarse_steps}")

    def height(k: float) -> float:
        return abs(scattering(potential, k, grid).transmission)

    ks = np.linspace(k_lo, k_hi, coarse_steps)
    hs = np.array([height(k) for k in ks])
    i = int(np.argmax(hs))
    lo = ks[max(i - 1, 0)]
    hi = ks[min(i + 1, coarse_steps - 1)]
    if i == 0 or i == coarse_steps - 1:
        res = scipy.optimize.minimize_scalar(
            lambda k: -height(k), bounds=(lo, hi), method="bounded",
            options={"xatol": xtol})
    else:
        res = scipy.optimize.minimize_scalar(
            lambda k: -height(k), bracket=(lo, ks[i], hi), method="golden",
            options={"xtol": xtol})
    return float(np.clip(res.x, k_lo, k_hi))


def singularity_scan(params_curve: Sequence, k_window, grid: GridSpec,
                     coarse_steps: int = 31, xtol: float = 1e-6) -> list:
    """Locate the |T(k)| maximum inside a momentum window for each coupling.

    ``params_curve`` is a sequence of CouplingParams (or any objects accepted
    by the potential closure).  Each point gets a coarse scan over
    ``coarse_steps`` momenta followed by golden-section refinement of the
    bracketed peak.  On the singularity locus the peak is a near-pole of |T|
    with a collapsing Wronskian; off it, a finite bump.
    """
    from .params import potential_value

    out = []
    for pr in params_curve:
        potential = lambda x, _pr=pr: potential_value(_pr, x)
        k_peak = _peak_in_window(potential, k_window, grid, coarse_steps, xtol)
        sc = scattering(potential, k_peak, grid)
        out.append(ScanPoint(params=pr, k_peak=k_peak,
                             peak_height=abs(sc.transmission),
                             wronskian_ratio=sc.wronskian_ratio))
    return out


def residual(potential: Callable, psi: Callable, energy: complex,
             grid: GridSpec, order: int = 8) -> float:
    """max |(-D2 + V - E) psi| over interior points, relative to max |psi|.

    D2 is the central finite-difference Laplacian of the given order
    (2, 4, 6 or 8).  With the default order the truncation error sits near
    roundoff for smooth states on the reference grid.
    """
    if order not in _D2_STENCILS:
        raise DomainError(f"order must be one of {sorted(_D2_STENCILS)}, got {order}")
    xs = grid.points()
    f = np.asarray(psi(xs), dtype=complex)
    v = np.asarray(potential(xs), dtype=complex)
    stencil = _D2_STENCILS[order]
    hw = len(stencil) // 2
    n = len(xs)
    d2 = np.zeros(n - 2 * hw, dtype=complex)
    for j, cj in enumerate(stencil):
        d2 += cj * f[j:n - 2 * hw + j]
    d2 /= grid.h ** 2
    inner = slice(hw, n - hw)
    res = np.max(np.abs(-d2 + (v[inner] - energy) * f[inner]))
    peak = np.max(np.abs(f))
    if peak == 0.0:
        raise DomainError("psi vanishes identically on the grid")
    return float(res / peak)
