"""Analytics-free numerical checks: eigensolver, scattering, residuals.

Everything in this module treats the potential as an opaque callable
``V(x) -> complex array`` so it can cross-check the closed-form results
without sharing any of their algebra.  Both numeric paths take V as zero
beyond ``GridSpec.half_width``.  Discrete levels come from Chebyshev
collocation on the whole line, mapped by x = c xi / sqrt(1 - xi^2) with
psi = 0 at xi = -1, 1 (Boyd, Chebyshev and Fourier Spectral Methods, Dover
2001, ch. 17), at Chebyshev points in the exactly antisymmetric sine form:
one dense eigenvalue solve at degree N and one at 3N/2, real when the samples
of V are exactly PT-symmetric and complex otherwise, with
Boyd's drift test (ch. 7) keeping the eigenvalues that agree between them and
a continuum test dropping the real non-negative ones; N grows from 56 by 3/2
up to 424 while fewer levels than asked are resolved.  Scattering quantities
come from the Jost solutions, the solutions of psi'' = (V - k^2) psi with
plane-wave data on one wall of [-L, L].  They are propagated by a transfer-matrix kernel:
fourth-order Magnus steps with two Gauss nodes each (Blanes, Casas, Oteo &
Ros, Phys. Rep. 470 (2009) 151), whose 2x2 exponentials have a closed form,
multiplied by tree reduction on a grid that doubles until two Richardson
extrapolations agree to the fixed tolerance ``_JOST_TOL``.  V is sampled in
one vectorized call per segment and level.  The |T| peak search is a
golden-section search written here, with scipy's relative stopping rule.
``residual`` applies the eighth-order central finite-difference Laplacian
on a uniform grid.  The module needs numpy only.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ConvergenceError, DomainError

_log = logging.getLogger("scarf_spectra")

# eighth-order central second difference of residual, in units of 1/h^2
_D2_STENCIL = np.array([-9.0, 128.0, -1008.0, 8064.0, -14350.0,
                        8064.0, -1008.0, 128.0, -9.0]) / 5040.0


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
# relative and absolute tolerance of jost_solutions
_JOST_TOL = 1e-11

# golden-section ratio and its complement, as scipy.optimize's golden method
_GOLDEN_R = 0.61803399
_GOLDEN_C = 1.0 - _GOLDEN_R

# discrete_spectrum: scale c of the map x = c xi / sqrt(1 - xi^2), first and
# largest Chebyshev degree N (each step takes N to 3N//2, and the largest is a
# step of that ladder), and the relative tolerance of the drift and continuum
# tests
_MAP_SCALE = 4.0
_FIRST_DEGREE = 56
_MAX_DEGREE = 424
_DRIFT_TOL = 1e-7


def _check_finite(name: str, values: np.ndarray, x: np.ndarray):
    """Raise ``DomainError`` naming the smallest x where ``values`` is not finite."""
    bad = ~np.isfinite(values)
    if np.any(bad):
        raise DomainError(f"{name} is not finite at x = {np.min(x[bad]):.6g}")


def _sorted_levels(levels: list) -> list:
    """Levels sorted by Re; a run of levels whose real parts agree within
    1e-8 (1 + |z|) is ordered by Im, lowest first."""
    runs: list = []
    for z in sorted(levels, key=lambda z: (z.real, z.imag)):
        if runs and z.real - runs[-1][-1].real <= 1e-8 * (1.0 + abs(z)):
            runs[-1].append(z)
        else:
            runs.append([z])
    return [z for run in runs for z in sorted(run, key=lambda z: z.imag)]


def _cheb(n: int):
    """Chebyshev points cos(pi j / n), j = 0..n, and the differentiation
    matrix on them (Trefethen, Spectral Methods in MATLAB, SIAM 2000, cheb.m).
    The points are taken as sin(pi (n - 2j) / (2n)), which is exactly
    antisymmetric in floating point (Baltensperger & Trummer, SIAM J. Sci.
    Comput. 24 (2003) 1465)."""
    xi = np.sin(np.pi * (n - 2 * np.arange(n + 1)) / (2 * n))
    c = np.ones(n + 1)
    c[0] = c[-1] = 2.0
    c *= (-1.0) ** np.arange(n + 1)
    d = np.outer(c, 1.0 / c) / (xi[:, None] - xi[None, :] + np.eye(n + 1))
    d -= np.diag(d.sum(axis=1))
    return xi, d


def _mapped_eigvals(potential: Callable, half_width: float, n: int):
    """Eigenvalues of -d^2/dx^2 + V collocated at the n - 1 interior points of
    the degree-n Chebyshev grid mapped to the whole line, with V = 0 beyond
    ``half_width``, and whether they were taken in real arithmetic.

    The nodes are symmetric about x = 0, so the Laplacian commutes with the
    reversal J up to roundoff.  When the samples satisfy v[::-1] == conj(v)
    exactly (PT symmetry), H = lap + diag(v) is similar, by
    T = (I + iJ)/sqrt(2), to the real matrix lap + diag(Re v) - diag(Im v) J,
    which is solved instead.
    """
    xi, d = _cheb(n)
    gd = ((1.0 - xi ** 2) ** 1.5 / _MAP_SCALE)[:, None] * d       # d/dx
    xi = xi[1:-1]
    x = _MAP_SCALE * xi / np.sqrt(1.0 - xi ** 2)
    box = np.abs(x) <= half_width
    v = np.zeros(n - 1, dtype=complex)
    v[box] = np.asarray(potential(x[box]), dtype=complex)
    _check_finite("potential", v, x)
    lap = -gd[1:-1] @ gd[:, 1:-1]
    if np.array_equal(v[::-1], v.conj()):
        return np.linalg.eigvals(lap + np.diag(v.real) - np.diag(v.imag)[:, ::-1]), True
    return np.linalg.eigvals(np.diag(v) + lap), False


def _drift_resolved(coarse: np.ndarray, fine: np.ndarray) -> np.ndarray:
    """Boyd's drift test: True for each eigenvalue E of ``fine`` that lies
    within tol = ``_DRIFT_TOL`` (1 + |E|) of an eigenvalue of ``coarse``, or
    whose cluster does.  The cluster of E is the set of eigenvalues within
    sqrt(``_DRIFT_TOL``) (1 + |E|) of it, in ``fine`` and in ``coarse``; it
    passes when both sets have as many members and their means agree within
    tol.  A defective (Jordan) pair splits by about the square root of the
    discretization error, in a direction that changes with N, while its mean
    moves no more than a simple eigenvalue does.
    """
    scale = 1.0 + np.abs(fine)
    dist = np.abs(fine[:, None] - coarse[None, :])
    simple = np.min(dist, axis=1) <= _DRIFT_TOL * scale
    radius = math.sqrt(_DRIFT_TOL) * scale[:, None]
    in_fine = np.abs(fine[:, None] - fine[None, :]) <= radius
    in_coarse = dist <= radius
    members = in_fine.sum(axis=1)
    gap = np.abs(in_fine @ fine - in_coarse @ coarse) / members
    return simple | ((in_coarse.sum(axis=1) == members) & (gap <= _DRIFT_TOL * scale))


def discrete_spectrum(potential: Callable, grid: GridSpec, count: int) -> list:
    """Lowest ``count`` discrete eigenvalues of -d^2/dx^2 + V, sorted by Re.

    H is collocated at Chebyshev points xi on the map x = c xi / sqrt(1 - xi^2)
    of the whole line (c = ``_MAP_SCALE``; Boyd, Chebyshev and Fourier
    Spectral Methods, Dover 2001, ch. 17): d/dx = g d/dxi with
    g = (1 - xi^2)^(3/2) / c, and psi = 0 at xi = -1, 1, that is at x = -inf,
    inf.  V is sampled at the nodes with |x| <= ``grid.half_width`` and taken
    as 0 beyond, the support ``jost_solutions`` assumes too
    (``grid.n_points`` is not used); a sample that is not finite raises
    ``DomainError``.  The points are computed as sin(pi (N - 2j) / (2N)),
    exactly antisymmetric in floating point, so the samples of a PT-symmetric
    V satisfy v[::-1] == conj(v) bit for bit; such a matrix is solved as the
    similar real matrix (``_mapped_eigvals``), any other in complex
    arithmetic.  One dense ``numpy.linalg.eigvals`` is taken at degree N
    and one at 3N/2, from N = ``_FIRST_DEGREE`` = 56.  Boyd's drift test
    (ch. 7, ``_drift_resolved``) keeps the eigenvalues of the larger matrix
    that lie within 1e-7 (1 + |E|) of an eigenvalue of the smaller one, or
    whose cluster mean does, as for the doubled level of a partner potential;
    of those, the ones within the same distance of the continuum [0, inf) are
    dropped, since a real E >= 0 is no bound state of a decaying V.  While
    fewer than ``count`` remain, N grows by 3/2, reusing the last solve, up to
    ``_MAX_DEGREE`` = 424 (N = 56, 84, 126, 189, 283, 424); then the levels
    found are returned, possibly fewer than ``count`` (none for a potential
    without bound states).  Levels whose real parts agree within
    1e-8 (1 + |E|) come lowest Im first.  Each call logs
    one DEBUG record on the ``scarf_spectra`` logger: whether the solves ran
    in real or complex arithmetic ("mixed" if both), each N tried (against
    2N/3), how many eigenvalues of the last N were kept, how many were
    rejected by the drift test and how many by the continuum test, and how
    many levels are returned.
    """
    if count < 1:
        raise DomainError(f"count must be >= 1, got {count}")
    n = _FIRST_DEGREE
    coarse, real = _mapped_eigvals(potential, grid.half_width, n)
    forms = {real}
    tried = []
    while True:
        n = 3 * n // 2
        tried.append(n)
        fine, real = _mapped_eigvals(potential, grid.half_width, n)
        forms.add(real)
        resolved = _drift_resolved(coarse, fine)
        to_continuum = np.where(fine.real >= 0.0, np.abs(fine.imag), np.abs(fine))
        continuum = resolved & (to_continuum <= _DRIFT_TOL * (1.0 + np.abs(fine)))
        kept = fine[resolved & ~continuum]
        if len(kept) >= count or n >= _MAX_DEGREE:
            break
        coarse = fine
    levels = _sorted_levels([complex(z) for z in kept])[:count]
    arithmetic = "real" if forms == {True} else "complex" if forms == {False} else "mixed"
    _log.debug("discrete_spectrum: " + arithmetic + " arithmetic, N tried %s, %d "
               "eigenvalues kept, %d rejected by drift, %d on the continuum, %d "
               "returned", tried, len(kept),
               int(np.sum(~resolved)), int(np.sum(continuum)), len(levels))
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
        x = lo + h * np.concatenate((mid - _GAUSS_OFFSET, mid + _GAUSS_OFFSET))
        v = np.asarray(potential(x), dtype=complex) - k2
        _check_finite("potential", v, x)
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


def jost_solutions(potential: Callable, k: float, grid: GridSpec, x_eval):
    """Values and derivatives of f+ and f- at the requested points.

    Returns ``(fp, dfp, fm, dfm)`` arrays aligned with ``x_eval``; points may
    come in any order and repeat, and one outside [-L, L] or NaN raises
    ``DomainError``.  f+ = e^{ikx} at x = +L and f- = e^{-ikx}
    at x = -L, where L = ``grid.half_width`` (``grid.n_points`` is not used);
    each carries its plane-wave data exactly on its own wall.

    [-L, L] is cut at every requested point and each segment is crossed by
    equal fourth-order Magnus steps.  f- is carried forward from -L and f+
    backward from +L through the same segment propagators, so one set of
    steps gives both.  The step count doubles until two successive
    Richardson extrapolations (16 f_2N - f_N) / 15, which are sixth order,
    differ by at most tol + tol max|f|, with the fixed tol = ``_JOST_TOL``
    = 1e-11, at every requested point and both walls, for each of f+, f+',
    f-, f-' with its own max|f|; that difference estimates the error of the
    earlier extrapolation, and the later one is returned.  If it is not
    reached within ``_MAX_STEPS`` steps a ``ConvergenceError`` names k and
    the estimate.  ``potential`` is called with arrays only; a sample that
    is not finite raises ``DomainError`` naming its x.  Every
    propagator has determinant 1, so the Wronskian fp*dfm - dfp*fm is
    constant in x up to roundoff and the extrapolation error.  Each call
    logs one DEBUG record on the ``scarf_spectra`` logger with k, the final
    step count, the Richardson estimate (relative to max|f|) and the
    Wronskian drift across the requested points and walls.
    """
    L = grid.half_width
    xe = np.asarray(x_eval, dtype=float)
    if xe.ndim == 0:
        xe = xe[None]
    if not np.all(np.abs(xe) <= L):             # also catches NaN
        raise DomainError("evaluation points outside the grid or not finite")
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
                if np.all(diff <= _JOST_TOL + _JOST_TOL * size):
                    break
        if 2 * counts.sum() > _MAX_STEPS:
            raise ConvergenceError(
                f"Jost integration at k = {k:.6g} did not reach the tolerance "
                f"{_JOST_TOL:g} within {counts.sum()} steps: "
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


def scattering(potential: Callable, k: float, grid: GridSpec) -> ScatteringResult:
    """Transmission/reflection amplitudes at momentum k (left and right incidence).

    The amplitudes are read from the plane-wave content of f+ at x = -L and
    of f- at x = +L, which ``jost_solutions`` gives to within
    ``_JOST_TOL`` (1 + max|f|), with ``_JOST_TOL`` = 1e-11; only
    ``grid.half_width`` is used.  The left/right transmission amplitudes
    coincide; ``transmission`` is the
    left-incidence one.  ``wronskian_ratio`` is |W[f+, f-]| at x = 0 scaled
    by the size of its terms; it dips toward 0 at a spectral singularity.
    """
    L = grid.half_width
    fp, dfp, fm, dfm = jost_solutions(potential, k, grid, [-L, 0.0, L])
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
    at_window_edge: bool = False


def _golden_max(f: Callable, x0: float, x1: float, x3: float, f1: float,
                tol: float) -> float:
    """Golden-section search for the maximum of f in the bracket x0 < x1 < x3,
    where f(x1) = f1 is not below f at the ends.

    The probes are those of the ``golden`` method of scipy.optimize (its ratio
    constant, its first inner point, its update order), and so is the stop:
    when |x3 - x0| <= tol (|x1| + |x2|), or after 5000 steps.  It returns the
    better inner point.
    """
    if abs(x3 - x1) > abs(x1 - x0):
        x2 = x1 + _GOLDEN_C * (x3 - x1)
        f2 = f(x2)
    else:
        x2, f2 = x1, f1
        x1 = x2 - _GOLDEN_C * (x2 - x0)
        f1 = f(x1)
    for _ in range(5000):
        if abs(x3 - x0) <= tol * (abs(x1) + abs(x2)):
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
    """(k, at_edge): the momentum of the largest |T| in ``k_window``, and
    whether it is an end of the window rather than a maximum: the coarse
    maximum is at that end and k lies within the golden-section tolerance
    xtol (|k| + |end|) of it."""
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
        # peak on a window edge: search the edge interval from its golden point
        mid = lo + _GOLDEN_C * (hi - lo)
        k = _golden_max(height, lo, mid, hi, height(mid), xtol)
        at_edge = abs(k - ks[i]) <= xtol * (abs(k) + abs(ks[i]))
    else:
        k = _golden_max(height, lo, ks[i], hi, hs[i], xtol)
        at_edge = False
    return float(np.clip(k, k_lo, k_hi)), bool(at_edge)


def singularity_scan(params_curve: Sequence, k_window, grid: GridSpec,
                     coarse_steps: int = 31, xtol: float = 1e-6) -> list:
    """Locate the |T(k)| maximum inside a momentum window for each coupling.

    ``params_curve`` is a sequence of CouplingParams (or any objects accepted
    by the potential closure).  Each point gets a coarse scan over
    ``coarse_steps`` momenta followed by golden-section refinement of the
    bracketed peak.  On the singularity locus the peak is a near-pole of |T|
    with a collapsing Wronskian; off it, a finite bump.  When |T| is largest
    at an end of the window, ``k_peak`` is that end (within the search
    tolerance), not a maximum, and ``at_window_edge`` is True.
    """
    from .params import potential_value

    out = []
    for pr in params_curve:
        potential = lambda x, _pr=pr: potential_value(_pr, x)
        k_peak, at_edge = _peak_in_window(potential, k_window, grid, coarse_steps, xtol)
        sc = scattering(potential, k_peak, grid)
        out.append(ScanPoint(params=pr, k_peak=k_peak,
                             peak_height=abs(sc.transmission),
                             wronskian_ratio=sc.wronskian_ratio,
                             at_window_edge=at_edge))
    return out


def residual(potential: Callable, psi: Callable, energy: complex,
             grid: GridSpec) -> float:
    """max |(-D2 + V - E) psi| over interior points, relative to max |psi|.

    D2 is the eighth-order central finite-difference Laplacian
    (``_D2_STENCIL``); its truncation error sits near roundoff for smooth
    states on the reference grid.  A result that is not finite raises
    ``DomainError`` naming the smallest x where psi, or V inside, is not finite.
    """
    xs = grid.points()
    f = np.asarray(psi(xs), dtype=complex)
    v = np.asarray(potential(xs), dtype=complex)
    hw = len(_D2_STENCIL) // 2
    n = len(xs)
    d2 = np.zeros(n - 2 * hw, dtype=complex)
    for j, cj in enumerate(_D2_STENCIL):
        d2 += cj * f[j:n - 2 * hw + j]
    d2 /= grid.h ** 2
    inner = slice(hw, n - hw)
    res = np.max(np.abs(-d2 + (v[inner] - energy) * f[inner]))
    peak = np.max(np.abs(f))
    if peak == 0.0:
        raise DomainError("psi vanishes identically on the grid")
    out = float(res / peak)
    if not math.isfinite(out):
        # each sample of psi and V[inner] enters res: a finite result needs no scan
        _check_finite("psi", f, xs)
        _check_finite("potential", v[inner], xs[inner])
    return out
