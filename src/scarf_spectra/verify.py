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
come from the Jost solutions at x = -L, 0 and L, the solutions of
psi'' = (V - k^2) psi with plane-wave data on one wall of [-L, L].  A
transfer-matrix kernel propagates them: fourth-order Magnus steps with two
Gauss nodes each (Blanes, Casas, Oteo & Ros, Phys. Rep. 470 (2009) 151), whose
2x2 exponentials have a closed form, multiplied by tree reduction.  A float
momentum is a batch of one: the momenta of a batch share one ladder of step
counts, doubling from 1 per half box, and one vectorized call of V per rung
serves both half boxes and every momentum on it; when its samples are
exactly PT-symmetric (the eigen-solve's test) only the right half box is
integrated and, k^2 being real, the left propagator is its mirror image.
Tiles of at most ``_BLOCK`` step matrices have a step count set by the rung
alone, so a momentum's result does not depend on its batch.  Each momentum
enters at a
rung set by |V - k^2| at -L, 0 and L and leaves once the error estimate of its
latest Richardson extrapolation meets the fixed tolerance ``_JOST_TOL``.  The
|T| peak search samples a momentum window in one batched call, then bisects
round the largest |T|, both midpoints in one batched call per step.
``residual`` applies the eighth-order central finite-difference Laplacian on a
uniform grid.  The module needs numpy only.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ConvergenceError, DomainError, check_finite

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
# products taken in tiles of at most _BLOCK matrices (bounded temporary
# memory), at most _MAX_STEPS steps over [-L, L]
_GAUSS_OFFSET = math.sqrt(3.0) / 6.0
_BLOCK = 4096
_MAX_STEPS = 1 << 17
# relative and absolute tolerance of jost_solutions
_JOST_TOL = 1e-11

# discrete_spectrum: scale c of the map x = c xi / sqrt(1 - xi^2), first and
# largest Chebyshev degree N (each step takes N to 3N//2, and the largest is a
# step of that ladder), and the relative tolerance of the drift and continuum
# tests
_MAP_SCALE = 4.0
_FIRST_DEGREE = 56
_MAX_DEGREE = 424
_DRIFT_TOL = 1e-7


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


def _pt_symmetric(v: np.ndarray) -> bool:
    """Whether samples of V at nodes with x[::-1] == -x satisfy
    v[::-1] == conj(v) bit for bit, i.e. V(-x) = conj V(x) exactly on them.
    Each mirror pair is compared once, so only the first half of v (and its
    middle sample) is conjugated."""
    h = (len(v) + 1) // 2
    return np.array_equal(v[::-1][:h], v[:h].conj())


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
    check_finite("potential", v, x)
    lap = -gd[1:-1] @ gd[:, 1:-1]
    if _pt_symmetric(v):
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
    s^2 = c^2 + h^2 wbar, step by step: by their series where |s^2| < 0.1,
    which also covers s = 0, and in closed form elsewhere.
    """
    c = (math.sqrt(3.0) / 12.0) * h * h * (w1 - w2)
    hw = 0.5 * h * (w1 + w2)
    s2 = c * c + h * hw
    # series truncation below 1e-18
    ch = 1.0 + s2 * (1 / 2 + s2 * (1 / 24 + s2 * (1 / 720 + s2 * (
        1 / 40320 + s2 * (1 / 3628800 + s2 / 479001600)))))
    shc = 1.0 + s2 * (1 / 6 + s2 * (1 / 120 + s2 * (1 / 5040 + s2 * (
        1 / 362880 + s2 * (1 / 39916800 + s2 / 6227020800)))))
    big = np.abs(s2) >= 0.1
    if big.any():
        s = np.sqrt(s2[big])
        ch[big] = np.cosh(s)
        shc[big] = np.sinh(s) / s
    return ch + shc * c, shc * h, shc * hw, ch - shc * c


def _mul(m1, m0):
    """m1 @ m0 for 2x2 matrices (a, b, c, d) = [[a, b], [c, d]], elementwise
    when the entries are arrays."""
    a1, b1, c1, d1 = m1
    a0, b0, c0, d0 = m0
    return (a1 * a0 + b1 * c0, a1 * b0 + b1 * d0,
            c1 * a0 + d1 * c0, c1 * b0 + d1 * d0)


def _product(m):
    """M[n-1] ... M[1] M[0] along the last axis of the entry arrays ``m``, n a
    power of two, by pairwise tree reduction: log2(n) passes over the arrays."""
    while m[0].shape[-1] > 1:
        m = _mul([x[..., 1::2] for x in m], [x[..., 0::2] for x in m])
    return tuple(x[..., 0] for x in m)


def _propagators(potential: Callable, L: float, n: int, k2):
    """Magnus propagators across [-L, 0] and [0, L], n equal steps each, for
    each of the real squared momenta ``k2``, as entry arrays of shape
    (len(k2), 2), from one vectorized sample of V at the 4n Gauss nodes, and
    whether the one of [-L, 0] was mirrored.

    The nodes of [-L, 0] are the exact negatives of those of [0, L], so the
    ascending node array satisfies x[::-1] == -x.  When the samples are
    exactly PT-symmetric (``_pt_symmetric``) only the steps of [0, L] are
    multiplied: for real k^2 the step of [-L, 0] at -x is the conjugate of
    the step at x with its two nodes swapped, conj(S M^-1 S) with
    S = diag(1, -1), and since the two-node Magnus step is time-symmetric
    this holds for the discrete propagator too, so U = [[a, b], [c, d]] of
    [0, L] gives conj([[d, b], [c, a]]) for [-L, 0].  Any other V has both
    halves multiplied.

    The steps are multiplied in tiles of c momenta, the halves integrated and
    b steps, c * halves * b <= ``_BLOCK`` matrices: b = min(n, ``_BLOCK`` / 2)
    depends on n alone, so each momentum's product is formed in the same
    order whatever the batch.
    """
    h = L / n
    right = ((np.arange(n)[:, None] + 0.5 + np.array([-_GAUSS_OFFSET, _GAUSS_OFFSET]))
             * h).ravel()
    x = np.concatenate((-right[::-1], right))
    v = np.asarray(potential(x), dtype=complex)
    check_finite("potential", v, x)
    mirrored = _pt_symmetric(v)
    v = v.reshape(2, n, 2)[int(mirrored):]      # half, step, node
    b = min(n, _BLOCK // 2)
    c = _BLOCK // (len(v) * b)
    chunks = []
    for i in range(0, len(k2), c):
        w = k2[i:i + c, None, None]
        m = None
        for j in range(0, n, b):
            p = _product(_step_exponentials(v[:, j:j + b, 0] - w, v[:, j:j + b, 1] - w, h))
            m = p if m is None else _mul(p, m)
        chunks.append(m)
    props = [np.concatenate(x) for x in zip(*chunks)]
    if mirrored:                                # [-L, 0]: conj([[d, b], [c, a]])
        props = [np.concatenate((props[j].conj(), x), axis=1)
                 for j, x in zip((3, 1, 2, 0), props)]
    return props, mirrored


def _sweep(props, k, phase) -> np.ndarray:
    """Rows f+, f+', f-, f-' at x = -L, 0, L for each momentum, shape
    (len(k), 4, 3): f- carried forward from its data at the left wall, f+
    backward from the right wall through the exact inverse [[d, -b], [-c, a]]
    of each unimodular half-box propagator."""
    (a0, a1), (b0, b1), (c0, c1), (d0, d1) = (x.T for x in props)
    fm, dfm = phase, -1j * k * phase
    fm0, dfm0 = a0 * fm + b0 * dfm, c0 * fm + d0 * dfm
    fmL, dfmL = a1 * fm0 + b1 * dfm0, c1 * fm0 + d1 * dfm0
    fp, dfp = phase, 1j * k * phase
    fp0, dfp0 = d1 * fp - b1 * dfp, a1 * dfp - c1 * fp
    fpL, dfpL = d0 * fp0 - b0 * dfp0, a0 * dfp0 - c0 * fp0
    return np.moveaxis(np.array([[fpL, fp0, fp], [dfpL, dfp0, dfp],
                                 [fm, fm0, fmL], [dfm, dfm0, dfmL]]), -1, 0)


def jost_solutions(potential: Callable, k, grid: GridSpec):
    """Values and derivatives of f+ and f- at x = -L, 0 and L.

    ``k`` is a float or a 1-D array of momenta.  Returns ``(fp, dfp, fm,
    dfm)``: for a float, each an array of the three values at x = -L, 0, L,
    where L = ``grid.half_width`` (``grid.n_points`` is not used); for an
    array, each of shape (len(k), 3), row i bit for bit the result for k[i]
    alone.  f+ = e^{ikx} at x = +L and f- = e^{-ikx} at x = -L; each carries
    its plane-wave data exactly on its own wall.

    Each half of [-L, L] is crossed by n equal fourth-order Magnus steps.  f-
    is carried forward from -L and f+ backward from +L through the same two
    propagators, so one set of steps gives both.  When the samples of V
    satisfy V(-x) == conj V(x) bit for bit, only [0, L] is integrated and the
    propagator of [-L, 0] is its mirror image (``_propagators``), which needs
    the real k^2 that the k > 0 check ensures.  A float is a batch of one;
    the momenta of a batch share one ladder of step counts, n = 1, 2, 4, ...
    per half, and one sample of V at the 4n Gauss nodes of a rung serves both
    halves and every momentum still on the ladder.  A momentum enters at the
    first rung whose step L / n is at most 1 / (4 sqrt(max(1, |V - k^2|))),
    with |V - k^2| at its largest over x = -L, 0, L (one more sample of V,
    shared by the batch; 1/4 if that is not finite).  It leaves at the first
    rung where its sixth-order Richardson extrapolations (16 f_n - f_{n/2}) / 15
    of this rung and the last differ by at most 63 (tol + tol max|f|), with
    the fixed tol = ``_JOST_TOL`` = 1e-11, at all three points, for each of
    f+, f+', f-, f-' with its own max|f|: the error falls 64-fold per
    doubling, so that difference over 63 estimates the error of the later
    extrapolation, which is returned.  If some momentum does not get there
    within ``_MAX_STEPS`` steps, a ``ConvergenceError`` names it and its
    estimate.  The steps of a rung are multiplied in tiles of
    ``_BLOCK`` = 4096 matrices or fewer, b = min(n, 2048) steps of the one
    or two halves integrated for 4096 / (halves b) momenta at a time, so
    besides the 4n samples of V no temporary holds more than ``_BLOCK``
    entries; b depends on n alone, so a momentum's arithmetic does not
    depend on the batch.  ``potential`` is
    called with arrays only; a sample that is not finite raises
    ``DomainError`` naming its x.  Every propagator has determinant 1, so the
    Wronskian fp*dfm - dfp*fm is the same at the three points up to roundoff
    and the extrapolation error.  Each momentum logs one DEBUG record on the
    ``scarf_spectra`` logger with k, the final step count over [-L, L],
    whether its rungs were "mirrored", integrated on "both halves" or
    "mixed", the Richardson estimate (relative to max|f|) and the Wronskian
    drift across the three points.
    """
    L = grid.half_width
    if np.ndim(k) > 1:
        raise DomainError(f"k must be a float or a 1-D array, got shape {np.shape(k)}")
    ks = np.array(k, dtype=float, ndmin=1)
    for kk in ks.tolist():
        if not (kk > 0.0 and math.isfinite(kk)):
            raise DomainError(f"k must be positive and finite, got {kk}")
        if kk * L < 2.0 * math.pi:
            raise DomainError(f"k*half_width = {kk * L:.3g} < 2*pi: grid too short "
                              "for asymptotic plane waves")

    k2 = ks * ks
    phase = np.exp(1j * ks * L)
    walls = np.asarray(potential(np.array([-L, 0.0, L])), dtype=complex)
    entry = []                                  # steps per half at entry
    for scale in np.max(np.abs(walls - k2[:, None]), axis=1).tolist():
        h0 = 0.25 / math.sqrt(max(scale, 1.0)) if math.isfinite(scale) else 0.25
        entry.append(1 << (math.ceil(L / h0) - 1).bit_length())   # 2^j >= L / h0
    entry = np.array(entry, dtype=int)
    # f at a momentum's last rung and its extrapolation: NaN before its first
    # rung, so that its first two rungs can meet no tolerance
    coarse = np.full((len(ks), 4, 3), np.nan, dtype=complex)
    extrapolated = coarse.copy()
    out = np.empty_like(coarse)
    steps = np.zeros(len(ks), dtype=int)
    estimate = np.empty(len(ks))
    halves = np.zeros(len(ks), dtype=int)      # 1 if a rung mirrored, 2 if not
    n = 0
    while not steps.all():
        # the next rung, or the next entry if every momentum entered has left
        n = max(2 * n, int(entry[steps == 0].min()))
        on = np.flatnonzero((entry <= n) & (steps == 0))
        props, mirrored = _propagators(potential, L, n, k2[on])
        halves[on] |= 1 if mirrored else 2
        fine = _sweep(props, ks[on], phase[on])
        if not np.isfinite(fine).all():
            i = on[~np.isfinite(fine).all(axis=(1, 2))][0]
            raise ConvergenceError(f"Jost integration at k = {ks[i]:.6g} is not finite")
        ext = (16.0 * fine - coarse[on]) / 15.0
        size = np.abs(ext).max(axis=2, keepdims=True)
        diff = np.abs(ext - extrapolated[on]) / 63.0
        # fmin turns the NaN of a momentum's first two rungs into inf
        estimate[on] = np.fmin((diff / np.maximum(size, 1e-300)).max(axis=(1, 2)), math.inf)
        met = (diff <= _JOST_TOL + _JOST_TOL * size).all(axis=(1, 2))
        out[on[met]] = ext[met]
        steps[on[met]] = 2 * n
        if 4 * n > _MAX_STEPS and not met.all():
            i = on[~met][0]
            raise ConvergenceError(
                f"Jost integration at k = {ks[i]:.6g} did not reach the tolerance "
                f"{_JOST_TOL:g} within {2 * n} steps: "
                f"Richardson estimate {estimate[i]:.3g} relative")
        coarse[on], extrapolated[on] = fine, ext
    out[:, 0, 2] = phase
    out[:, 1, 2] = 1j * ks * phase
    out[:, 2, 0] = phase
    out[:, 3, 0] = -1j * ks * phase
    fp, dfp, fm, dfm = out.transpose(1, 0, 2)
    if _log.isEnabledFor(logging.DEBUG):
        wr = fp * dfm - dfp * fm
        size = np.max(np.abs(fp) * np.abs(dfm) + np.abs(dfp) * np.abs(fm), axis=1)
        drift = np.max(np.abs(wr - wr[:, :1]), axis=1) / size
        for i in range(len(ks)):
            _log.debug("jost_solutions: k = %.6g, %d steps (%s), Richardson estimate "
                       "%.3g, Wronskian drift %.3g", ks[i], steps[i],
                       ("mirrored", "both halves", "mixed")[halves[i] - 1],
                       estimate[i], drift[i])
    if np.ndim(k) == 0:
        return fp[0], dfp[0], fm[0], dfm[0]
    return fp, dfp, fm, dfm


def scattering(potential: Callable, k, grid: GridSpec):
    """Transmission/reflection amplitudes at momentum k (left and right incidence).

    ``k`` is a float, which gives one ``ScatteringResult``, or a 1-D array of
    momenta, which gives a list of them, item i bit for bit the result for
    k[i] alone; the momenta share one ``jost_solutions`` pass, with its one
    ladder of step counts and one sample of V per rung, and a momentum that
    is not positive or too small for the box raises ``DomainError`` before
    any integration.  The
    amplitudes are read from the plane-wave content of f+ at x = -L and of f-
    at x = +L, which ``jost_solutions`` gives to within
    ``_JOST_TOL`` (1 + max|f|), with ``_JOST_TOL`` = 1e-11; only
    ``grid.half_width`` L is used.  They are the amplitudes of V cut at
    |x| = L, whose Scarf II tail decays only like e^{-|x|}: T of (2, 6.75) at
    k = 1.06 is off the uncut closed form by 3.8e-5 relative with L = 20 and
    by 1.2e-9 with L = 30, so L (the CLI's ``--domain``) sets the accuracy.  The
    left/right transmission amplitudes coincide; ``transmission`` is the
    left-incidence one.  ``wronskian_ratio`` is |W[f+, f-]| at x = 0 scaled
    by the size of its terms; it dips toward 0 at a spectral singularity.
    """
    L = grid.half_width
    ks = np.array(k, dtype=float, ndmin=1)
    fp, dfp, fm, dfm = jost_solutions(potential, ks, grid)
    fpL, dfpL, fmL, dfmL = fp[:, 0], dfp[:, 0], fm[:, 2], dfm[:, 2]    # f+ at -L, f- at +L
    fp0, dfp0, fm0, dfm0 = fp[:, 1], dfp[:, 1], fm[:, 1], dfm[:, 1]    # both at x = 0
    ik = 1j * ks
    eikl = np.exp(1j * ks * L)
    # f+ near -L: A e^{ikx} + B e^{-ikx}; left incidence T = 1/A, R_L = B/A
    a_amp = eikl * (fpL + dfpL / ik) / 2.0
    b_amp = (fpL - dfpL / ik) / (2.0 * eikl)
    # f- near +L: C e^{-ikx} + D e^{ikx}; right incidence T = 1/C, R_R = D/C
    c_amp = eikl * (fmL - dfmL / ik) / 2.0
    d_amp = (fmL + dfmL / ik) / (2.0 * eikl)
    wr = np.abs(fp0 * dfm0 - dfp0 * fm0)
    scale = np.abs(fp0) * np.abs(dfm0) + np.abs(dfp0) * np.abs(fm0)
    out = [ScatteringResult(k=float(kk), transmission=complex(1.0 / a),
                            reflection_left=complex(b / a),
                            reflection_right=complex(dd / c),
                            wronskian_ratio=float(w / s) if s > 0.0 else np.inf)
           for kk, a, b, c, dd, w, s in zip(ks, a_amp, b_amp, c_amp, d_amp, wr, scale)]
    return out if np.ndim(k) else out[0]


@dataclass(frozen=True)
class ScanPoint:
    params: object
    k_peak: float
    peak_height: float
    wronskian_ratio: float
    # True when the largest sampled |T| is at an end of the momentum window:
    # k_peak is then exactly that end, not a maximum
    at_window_edge: bool = False


def _peak_in_window(potential: Callable, k_window, grid: GridSpec,
                    coarse_steps: int, xtol: float):
    """(k, at_edge, result): the sampled momentum of the largest |T| in
    ``k_window``, whether it is an end of the window, and the
    ``ScatteringResult`` integrated there.

    One batched ``scattering`` call samples ``coarse_steps`` equally spaced
    momenta.  Then each step takes the sample of largest |T| and integrates
    the midpoints of its one or two neighbouring intervals in one batched
    call, until that bracket spans at most xtol (|lo| + |hi|) or no midpoint
    lies strictly inside its interval.  Each momentum is integrated once.
    """
    k_lo, k_hi = float(k_window[0]), float(k_window[1])
    if not (0.0 < k_lo < k_hi):
        raise DomainError(f"invalid momentum window ({k_lo}, {k_hi})")
    if coarse_steps < 5:
        raise DomainError(f"coarse_steps must be >= 5, got {coarse_steps}")
    if not (math.isfinite(xtol) and xtol > 0.0):
        raise DomainError(f"xtol must be finite and positive, got {xtol}")

    found = scattering(potential, np.linspace(k_lo, k_hi, coarse_steps), grid)
    while True:
        i = max(range(len(found)), key=lambda j: abs(found[j].transmission))
        k = found[i].k
        lo, hi = found[max(i - 1, 0)].k, found[min(i + 1, len(found) - 1)].k
        mids = [m for a, b in ((lo, k), (k, hi)) if a < (m := 0.5 * (a + b)) < b]
        if hi - lo <= xtol * (abs(lo) + abs(hi)) or not mids:
            return k, k in (k_lo, k_hi), found[i]
        found = sorted(found + scattering(potential, np.array(mids), grid),
                       key=lambda sc: sc.k)


def singularity_scan(params_curve: Sequence, k_window, grid: GridSpec,
                     coarse_steps: int = 31, xtol: float = 1e-6) -> list:
    """Locate the |T(k)| maximum inside a momentum window for each coupling.

    ``params_curve`` is a sequence of CouplingParams, which the potential
    closure passes to ``potential_value``.  Each point samples ``coarse_steps``
    equally spaced momenta in one batched ``scattering`` call, then bisects
    round the sample of largest |T|, both midpoints of its neighbouring
    intervals in one batched call per step, until that bracket spans at most
    ``xtol`` (|lo| + |hi|); ``xtol`` must be finite and positive.  The
    ``ScanPoint`` takes its values from the call that integrated ``k_peak``.
    On the singularity locus the peak is a near-pole of |T|
    with a collapsing Wronskian; off it, a finite bump.  When |T| is largest
    at an end of the window, ``k_peak`` is exactly that end, not a maximum,
    and ``at_window_edge`` is True.
    """
    from .params import potential_value

    out = []
    for pr in params_curve:
        potential = lambda x, _pr=pr: potential_value(_pr, x)
        k_peak, at_edge, sc = _peak_in_window(potential, k_window, grid, coarse_steps, xtol)
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
        check_finite("psi", f, xs)
        check_finite("potential", v[inner], xs[inner])
    return out
