"""Analytics-free numerical checks: grid eigensolver, scattering, residuals.

Everything in this module treats the potential as an opaque callable
``V(x) -> complex array`` so it can cross-check the closed-form results
without sharing any of their algebra.  The Hamiltonian is discretized on a
uniform grid with Dirichlet walls, a complex symmetric tridiagonal matrix.
Its localized eigenvalues come from implicitly restarted Arnoldi in
shift-invert mode (ARPACK; Lehoucq, Sorensen & Yang, ARPACK Users' Guide,
SIAM 1998) about sigma = min Re V, with the tridiagonal H - sigma factored
once, and are polished by shifted inverse iteration on the same grid; a
bound from the numerical range of H tells when no lower level can be
missing.  Scattering quantities come from the Jost solutions, the solutions
of psi'' = (V - k^2) psi with plane-wave data on one wall of [-L, L].  They
are propagated by a transfer-matrix kernel: fourth-order Magnus steps with
two Gauss nodes each (Blanes, Casas, Oteo & Ros, Phys. Rep. 470 (2009) 151),
whose 2x2 exponentials have a closed form, multiplied by tree reduction on a
grid that doubles until two Richardson extrapolations agree.  V is sampled
in one vectorized call per segment and level.  The |T| peak search is a
golden-section search written here; scipy.sparse.linalg is imported only by
the eigensolver, and scipy.optimize not at all.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
import scipy.linalg

from .errors import ConvergenceError, DomainError

_log = logging.getLogger("scarf_spectra")

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

# Jost kernel: Gauss nodes of a step at its midpoint -+ _GAUSS_OFFSET * h, step
# products taken _BLOCK steps at a time (bounded temporary memory), at most
# _MAX_STEPS steps over [-L, L]
_GAUSS_OFFSET = math.sqrt(3.0) / 6.0
_BLOCK = 4096
_MAX_STEPS = 1 << 17

# golden-section ratio and its complement, as scipy.optimize's golden method
_GOLDEN_R = 0.61803399
_GOLDEN_C = 1.0 - _GOLDEN_R

# discrete_spectrum: Arnoldi first asks for count + _FIRST_RITZ Ritz values and
# doubles that up to _MAX_RITZ; it stops at a relative residual of _RITZ_TOL,
# since inverse iteration polishes every Ritz value it uses
_FIRST_RITZ = 16
_MAX_RITZ = 128
_RITZ_TOL = 1e-10


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


def _polish(diag: np.ndarray, off: float, band: np.ndarray, theta: complex,
            v: np.ndarray):
    """Shifted inverse iteration from ``v`` with a complex-symmetric Rayleigh
    quotient (transpose, no conjugation -- the discretized operator is complex
    symmetric); returns (theta, v, converged)."""
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
            return complex(theta), v, True
    return complex(theta), v, False


def _sorted_levels(levels: list) -> list:
    """Distinct levels (closer than 1e-8 (1 + |z|) count once) sorted by Re;
    a run of levels whose real parts agree within that tolerance is ordered by
    Im, lowest first."""
    unique: list = []
    for z in sorted(levels, key=lambda z: (z.real, z.imag)):
        if all(abs(z - u) > 1e-8 * (1.0 + abs(z)) for u in unique):
            unique.append(z)
    runs: list = []
    for z in unique:
        if runs and z.real - runs[-1][-1].real <= 1e-8 * (1.0 + abs(z)):
            runs[-1].append(z)
        else:
            runs.append([z])
    return [z for run in runs for z in sorted(run, key=lambda z: z.imag)]


def discrete_spectrum(potential: Callable, grid: GridSpec, count: int,
                      edge_tol: float = 5e-3) -> list:
    """Lowest ``count`` localized eigenvalues of -d^2/dx^2 + V, sorted by Re.

    H is the second-difference Hamiltonian on the interior grid points, a
    complex symmetric tridiagonal matrix.  With sigma = min Re V and
    Y = max |Im V| over the samples, every eigenvalue lies in the numerical
    range of H, so Re E > sigma and |Im E| <= Y.  Implicitly restarted
    Arnoldi in shift-invert mode (ARPACK through ``scipy.sparse.linalg.eigs``,
    with H - sigma factored once and a fixed start vector) gives the k Ritz
    values nearest sigma.  In order of Re, each is polished by shifted inverse
    iteration on the full grid (residual below 1e-9 max(1, |E|), fixed start
    vector) and kept if its eigenvector passes the edge-localization test
    ``_edge_ratio < edge_tol``, until the next Ritz value lies to the right of
    the count-th level found.  Once ``count`` localized levels are found and
    the farthest Ritz value lies beyond hypot(Re E_count - sigma, Y), no lower
    level can be missing; otherwise k doubles, up to ``_MAX_RITZ``, and the
    levels found are returned, possibly fewer than ``count`` (none for a
    potential without localized states).  Levels whose real parts agree
    within 1e-8 (1 + |E|) come lowest Im first.  Each call logs one DEBUG
    record on the ``scarf_spectra`` logger: sigma, Y, each k tried, how many
    Ritz values were polished, how many were discarded with their edge
    ratios, and how many levels are returned.
    """
    if count < 1:
        raise DomainError(f"count must be >= 1, got {count}")
    from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigs

    xf = grid.points()[1:-1]
    n = len(xf)
    hf = grid.h
    vf = np.asarray(potential(xf), dtype=complex)
    diag = vf + 2.0 / hf ** 2
    off = -1.0 / hf ** 2
    sigma = float(np.min(vf.real))
    y = float(np.max(np.abs(vf.imag)))
    sub = np.full(n - 1, off, dtype=complex)
    lu = scipy.linalg.lapack.zgttrf(sub, diag - sigma, sub)[:-1]
    shape = (n, n)
    h_op = LinearOperator(shape, matvec=lambda v: _matvec(diag, off, v.ravel()),
                          dtype=complex)
    inv_op = LinearOperator(
        shape, matvec=lambda v: scipy.linalg.lapack.zgttrs(*lu, v)[0], dtype=complex)
    start = np.array([1.0, 1j]) @ np.random.default_rng(0).standard_normal((2, n))
    start /= np.linalg.norm(start)
    band = np.zeros((3, n), dtype=complex)
    band[0, 1:] = off
    band[2, :-1] = off

    cap = min(_MAX_RITZ, n - 2)
    k = min(count + _FIRST_RITZ, cap)
    tried = []
    while True:
        tried.append(k)
        try:
            ritz = eigs(h_op, k=k, sigma=sigma, OPinv=inv_op, v0=start,
                        tol=_RITZ_TOL, return_eigenvectors=False)
        except ArpackNoConvergence as exc:
            raise ConvergenceError(f"shift-invert Arnoldi at sigma = {sigma:.6g} "
                                   f"did not converge with k = {k}") from exc
        # polish in order of Re until the rest cannot be among the lowest count
        levels, ratios, polished, stuck = [], [], 0, 0
        for theta in sorted(ritz, key=lambda z: (z.real, z.imag)):
            if len(levels) >= count:
                last = levels[count - 1]
                if theta.real > last.real + 1e-6 * (1.0 + abs(last)):
                    break
            polished += 1
            theta, vec, ok = _polish(diag, off, band, theta, start)
            if not ok:
                stuck += 1
                continue
            ratio = _edge_ratio(vec, hf)
            if ratio < edge_tol:
                levels = _sorted_levels(levels + [theta])
            else:
                ratios.append(ratio)
        if stuck == polished:
            raise ConvergenceError(f"inverse iteration failed to refine any of the "
                                   f"{k} Ritz values near sigma = {sigma:.6g}")
        if len(levels) >= count:
            last = levels[count - 1]
            if np.max(np.abs(ritz - sigma)) > math.hypot(last.real - sigma, y):
                break
        if k == cap:
            break
        k = min(2 * k, cap)
    levels = levels[:count]
    _log.debug("discrete_spectrum: sigma = %.6g, Y = %.6g, k tried %s, "
               "%d Ritz values polished (%d did not converge), %d discarded "
               "with edge ratios %s, %d returned", sigma, y, tried, polished,
               stuck, len(ratios), ["%.3g" % r for r in ratios], len(levels))
    return levels


@dataclass(frozen=True)
class ScatteringResult:
    k: float
    transmission: complex
    reflection_left: complex
    reflection_right: complex
    wronskian_ratio: float


def _step_exponentials(w1, w2, h: float):
    """exp(Omega) of fourth-order Magnus steps of (psi, psi')' = [[0, 1], [w, 0]].

    ``w1``, ``w2`` are V - k^2 at the two Gauss nodes of each step.  With
    [A2, A1] = diag(w1 - w2, w2 - w1) the step's
    Omega = h (A1 + A2) / 2 + sqrt(3) h^2 [A2, A1] / 12 = [[c, h], [h wbar, -c]]
    is traceless, Omega^2 = s^2 I, and exp(Omega) = cosh(s) I + sinh(s)/s Omega
    exactly.  Both coefficients are even in s, so they are taken from
    s^2 = c^2 + h^2 wbar: by their series when every |s^2| is small, which
    also covers s = 0.
    """
    c = (math.sqrt(3.0) / 12.0) * h * h * (w1 - w2)
    hw = 0.5 * h * (w1 + w2)
    s2 = c * c + h * hw
    if np.max(np.abs(s2)) < 0.1:                # truncation below 1e-18
        ch = 1.0 + s2 * (1 / 2 + s2 * (1 / 24 + s2 * (1 / 720 + s2 * (
            1 / 40320 + s2 * (1 / 3628800 + s2 / 479001600)))))
        shc = 1.0 + s2 * (1 / 6 + s2 * (1 / 120 + s2 * (1 / 5040 + s2 * (
            1 / 362880 + s2 * (1 / 39916800 + s2 / 6227020800)))))
    else:
        s = np.sqrt(s2)
        ch = np.cosh(s)
        with np.errstate(invalid="ignore", divide="ignore"):
            shc = np.where(s2 == 0.0, 1.0, np.sinh(s) / s)
    return ch + shc * c, shc * h, shc * hw, ch - shc * c


def _mul(m1, m0):
    """m1 @ m0 for 2x2 matrices (a, b, c, d) = [[a, b], [c, d]], elementwise
    when the entries are arrays."""
    a1, b1, c1, d1 = m1
    a0, b0, c0, d0 = m0
    return (a1 * a0 + b1 * c0, a1 * b0 + b1 * d0,
            c1 * a0 + d1 * c0, c1 * b0 + d1 * d0)


def _product(m):
    """M[n-1] ... M[1] M[0] of the matrices in the entry arrays ``m``, by
    pairwise tree reduction: about log2(n) passes over the arrays."""
    while m[0].size > 1:
        if m[0].size % 2:                       # fold the last matrix in
            last = _mul([x[-1] for x in m], [x[-2] for x in m])
            m = [x[:-1] for x in m]
            for x, y in zip(m, last):
                x[-1] = y
        m = _mul([x[1::2] for x in m], [x[0::2] for x in m])
    return tuple(complex(x[0]) for x in m)


def _segment_propagators(potential: Callable, k2: float, nodes: np.ndarray,
                         counts: np.ndarray) -> list:
    """Magnus propagator across each segment [nodes[i], nodes[i+1]] with
    counts[i] equal steps, from one vectorized sample of V at the segment's
    Gauss nodes."""
    props = []
    for lo, hi, n in zip(nodes[:-1], nodes[1:], counts):
        h = (hi - lo) / n
        mid = np.arange(n) + 0.5
        v = np.asarray(potential(lo + h * np.concatenate(
            (mid - _GAUSS_OFFSET, mid + _GAUSS_OFFSET))), dtype=complex) - k2
        m = (1.0, 0.0, 0.0, 1.0)
        for j in range(0, n, _BLOCK):
            end = min(j + _BLOCK, n)
            m = _mul(_product(_step_exponentials(v[j:end], v[n + j:n + end], h)), m)
        props.append(m)
    return props


def _sweep(props: list, start_m, start_p) -> np.ndarray:
    """Rows f+, f+', f-, f-' at the nodes: f- carried forward from the left
    wall, f+ backward from the right wall through the exact inverse
    [[d, -b], [-c, a]] of each unimodular propagator."""
    out = np.empty((4, len(props) + 1), dtype=complex)
    out[2:, 0] = start_m
    out[:2, -1] = start_p
    for i, (a, b, c, d) in enumerate(props):
        f, df = out[2, i], out[3, i]
        out[2:, i + 1] = a * f + b * df, c * f + d * df
    for i in range(len(props) - 1, -1, -1):
        a, b, c, d = props[i]
        f, df = out[0, i + 1], out[1, i + 1]
        out[:2, i] = d * f - b * df, a * df - c * f
    return out


def jost_solutions(potential: Callable, k: float, grid: GridSpec, x_eval,
                   rtol: float = 1e-11, atol: float = 1e-11):
    """Values and derivatives of f+ and f- at the requested points.

    Returns ``(fp, dfp, fm, dfm)`` arrays aligned with ``x_eval``; points may
    come in any order and repeat.  f+ = e^{ikx} at x = +L and f- = e^{-ikx}
    at x = -L, where L = ``grid.half_width`` (``grid.n_points`` is not used);
    each carries its plane-wave data exactly on its own wall.

    [-L, L] is cut at every requested point and each segment is crossed by
    equal fourth-order Magnus steps.  f- is carried forward from -L and f+
    backward from +L through the same segment propagators, so one set of
    steps gives both.  The step count doubles until two successive
    Richardson extrapolations (16 f_2N - f_N) / 15, which are sixth order,
    differ by at most ``atol + rtol * max|f|`` at every requested point and
    both walls, for each of f+, f+', f-, f-' with its own max|f|; that
    difference estimates the error of the earlier extrapolation, and the
    later one is returned.  If it is not reached within ``_MAX_STEPS`` steps a
    ``ConvergenceError`` names k and the estimate.  ``potential`` is called
    with arrays only.  Every propagator has determinant 1, so the Wronskian
    fp*dfm - dfp*fm is constant in x up to roundoff and the extrapolation
    error.  Each call logs one DEBUG record on the ``scarf_spectra`` logger
    with k, the final step count, the Richardson estimate (relative to
    max|f|) and the Wronskian drift across the requested points and walls.
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

    nodes, where = np.unique(np.concatenate(([-L], xe, [L])), return_inverse=True)
    where = where[1:-1]
    k2 = k * k
    phase = complex(np.exp(1j * k * L))
    start_p, start_m = (phase, 1j * k * phase), (phase, -1j * k * phase)
    # start near a step of 1 / (4 sqrt(max |V - k^2|)) at the nodes
    scale = np.max(np.abs(np.asarray(potential(nodes), dtype=complex) - k2))
    h0 = 0.25 / math.sqrt(max(scale, 1.0)) if math.isfinite(scale) else 0.25
    counts = np.maximum(1, np.ceil(np.diff(nodes) / h0)).astype(int)
    coarse = extrapolated = None
    estimate = math.inf
    while True:
        fine = _sweep(_segment_propagators(potential, k2, nodes, counts),
                      start_m, start_p)
        if not np.all(np.isfinite(fine)):
            raise ConvergenceError(f"Jost integration at k = {k:.6g} is not finite")
        if coarse is not None:
            previous, extrapolated = extrapolated, (16.0 * fine - coarse) / 15.0
            if previous is not None:
                size = np.max(np.abs(extrapolated), axis=1, keepdims=True)
                diff = np.abs(extrapolated - previous)
                estimate = float(np.max(diff / np.maximum(size, 1e-300)))
                if np.all(diff <= atol + rtol * size):
                    break
        if 2 * counts.sum() > _MAX_STEPS:
            raise ConvergenceError(
                f"Jost integration at k = {k:.6g} did not reach rtol = {rtol:g}, "
                f"atol = {atol:g} within {counts.sum()} steps: "
                f"Richardson estimate {estimate:.3g} relative")
        coarse = fine
        counts = 2 * counts
    out = extrapolated
    out[:2, -1] = start_p
    out[2:, 0] = start_m
    if _log.isEnabledFor(logging.DEBUG):
        fp, dfp, fm, dfm = out
        wr = fp * dfm - dfp * fm
        size = np.max(np.abs(fp) * np.abs(dfm) + np.abs(dfp) * np.abs(fm))
        drift = float(np.max(np.abs(wr - wr[0])) / size)
        _log.debug("jost_solutions: k = %.6g, %d steps, Richardson estimate %.3g, "
                   "Wronskian drift %.3g", k, int(counts.sum()), estimate, drift)
    fp, dfp, fm, dfm = out[:, where]
    return fp, dfp, fm, dfm


def scattering(potential: Callable, k: float, grid: GridSpec,
               rtol: float = 1e-11, atol: float = 1e-11) -> ScatteringResult:
    """Transmission/reflection amplitudes at momentum k (left and right incidence).

    The amplitudes are read from the plane-wave content of f+ at x = -L and
    of f- at x = +L, which ``jost_solutions`` gives to within
    ``atol + rtol * max|f|``; only ``grid.half_width`` is used.  The
    left/right transmission amplitudes coincide; ``transmission`` is the
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


def _golden_max(f: Callable, x0: float, x1: float, x3: float, f1: float,
                tol: float, relative: bool) -> float:
    """Golden-section search for the maximum of f in the bracket x0 < x1 < x3,
    where f(x1) = f1 is not below f at the ends.

    The probes are those of the ``golden`` method of scipy.optimize (its ratio
    constant, its first inner point, its update order).  The search stops
    when |x3 - x0| <= tol (|x1| + |x2|) if ``relative``, as that method does,
    else when |x3 - x0| <= tol, or after 5000 steps; it returns the better
    inner point.
    """
    if abs(x3 - x1) > abs(x1 - x0):
        x2 = x1 + _GOLDEN_C * (x3 - x1)
        f2 = f(x2)
    else:
        x2, f2 = x1, f1
        x1 = x2 - _GOLDEN_C * (x2 - x0)
        f1 = f(x1)
    for _ in range(5000):
        if abs(x3 - x0) <= tol * (abs(x1) + abs(x2) if relative else 1.0):
            break
        if f2 > f1:
            x0, x1, f1 = x1, x2, f2
            x2 = _GOLDEN_R * x1 + _GOLDEN_C * x3
            f2 = f(x2)
        else:
            x3, x2, f2 = x2, x1, f1
            x1 = _GOLDEN_R * x2 + _GOLDEN_C * x0
            f1 = f(x1)
    return x1 if f1 > f2 else x2


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
        # peak on a window edge: search the edge interval to an absolute xtol
        mid = lo + _GOLDEN_C * (hi - lo)
        k = _golden_max(height, lo, mid, hi, height(mid), xtol, relative=False)
    else:
        k = _golden_max(height, lo, ks[i], hi, hs[i], xtol, relative=True)
    return float(np.clip(k, k_lo, k_hi))


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
