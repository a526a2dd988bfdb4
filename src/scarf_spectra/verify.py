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
2x2 exponentials have a closed form, multiplied by tree reduction.  The n
steps of [0, L] are graded, x = L sinh(alpha t) / sinh(alpha) at t = j / n,
short round x = 0 and long in the e^{-|x|} tail, and those of [-L, 0] are
their mirror image; alpha comes once per call from the largest |V| on a
probe of V (``_mesh_alpha``).  A float momentum is a batch of one: the
momenta of a batch share one ladder of step counts, doubling from the first
power of two n >= 4L, whatever k (the Magnus error does not grow with k;
Iserles, BIT 42 (2002) 561), and one sample of V per pass serves both half
boxes and every momentum in it.  No momentum can leave before the third
rung, so the entry pass covers the first three rungs, n, 2n and 4n, and
each later pass one rung.  Where V's samples at a rung's nodes are exactly
PT-symmetric (the eigen-solve's test) only the right half box is needed:
k^2 being real, the left propagator is its mirror image.  Tiles of at most
``_BLOCK`` step matrices have a step count set by the pass's rungs alone,
so a momentum's result does not depend on its batch.  Each momentum leaves
the ladder once the error estimate of its latest Richardson extrapolation
meets the fixed tolerance ``_JOST_TOL``.  The |T| peak search samples a
momentum window in one batched call, then bisects round the largest |T|,
both midpoints in one batched call per step.
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
# graded mesh of jost_solutions: V probed at _PROBE_POINTS equally spaced
# points of [-L, L], alpha the root of
# sinh(alpha) / alpha = _ALPHA_SCALE sqrt(max(1, max|V|)).  _ALPHA_SCALE was
# set on the 161 momenta of the transmission-scan benchmark at L = 20 (10
# operations): at 1.5 to 3 they took 156k to 158k step matrices in all, at 4
# to 7 189k to 193k, at 10 211k, at 1 274k (uniform steps: 655k); at 2.5 the
# near-pole partners of (12, 0.1) and (100, 1) stop at 512 to 2048 steps per
# half, and (12, 6) and (400, 100) at k = 0.5 to 30 take as many steps as at
# 5 or fewer.  alpha sets only the cost: the stop rule sets the accuracy.
_PROBE_POINTS = 801
_ALPHA_SCALE = 2.5

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


def _step_exponentials(w1, w2, h):
    """exp(Omega) of fourth-order Magnus steps of (psi, psi')' = [[0, 1], [w, 0]],
    an array of shape (2, 2) + the shape of the steps.

    ``w1``, ``w2`` are V - k^2 at the two Gauss nodes of each step and ``h``
    the step lengths, an array that broadcasts against them.  With
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
    m = np.empty((2, 2) + s2.shape, dtype=complex)
    sc = shc * c
    np.add(ch, sc, out=m[0, 0])
    np.multiply(shc, h, out=m[0, 1])
    np.multiply(shc, hw, out=m[1, 0])
    np.subtract(ch, sc, out=m[1, 1])
    return m


def _mesh_alpha(v_max: float) -> float:
    """The alpha of the mesh x = L sinh(alpha t) / sinh(alpha) of
    ``_propagators`` for a potential with |V| at most ``v_max``: the root of
    sinh(alpha) / alpha = r, r = ``_ALPHA_SCALE`` sqrt(max(1, v_max)) >= 2.5.
    The step at x = 0 is the uniform step L / n over r, so it follows the
    local wavelength 1 / sqrt(max|V|) of the largest |V|, which the Scarf II
    potentials and their partners reach round x = 0, while the steps at the
    walls grow to about alpha L / n.  The root is taken by the fixed-point
    iteration alpha = asinh(r alpha), which contracts by about 1/alpha < 0.4
    per pass from alpha = 1 and is settled in 40."""
    r = _ALPHA_SCALE * math.sqrt(max(1.0, v_max))
    alpha = 1.0
    for _ in range(40):
        alpha = math.asinh(r * alpha)
    return alpha


def _mul(m1, m0):
    """m1 @ m0 for 2x2 matrices held as arrays of shape (2, 2, ...),
    elementwise over the trailing axes: the outer product of m1's first
    column and m0's first row plus that of the second ones."""
    return m1[:, :1] * m0[:1] + m1[:, 1:] * m0[1:]


def _product(m, sizes):
    """The products M[e-1] ... M[s+1] M[s] of consecutive segments [s, e) of
    the last axis of the matrices ``m`` (shape (2, 2, ...)), one per length
    in ``sizes``: powers of two, none longer than the one before, so that
    each segment starts at a multiple of its own length.  One pairwise tree
    reduction serves them all, log2(sizes[0]) passes over the arrays: no pair
    straddles two segments, and a segment is peeled off the end once it has
    reduced to one matrix.  So each product is formed exactly as by the tree
    over its segment alone."""
    sizes = list(sizes)
    out = []
    while True:
        while sizes and sizes[-1] == 1:
            out.append(m[..., -1])
            m = m[..., :-1]
            sizes.pop()
        if not sizes:
            return out[::-1]
        m = _mul(m[..., 1::2], m[..., 0::2])
        sizes = [s // 2 for s in sizes]


def _propagators(potential: Callable, L: float, counts, alpha: float, k2):
    """Magnus propagators across [-L, 0] and [0, L], n graded steps each, for
    each step count n of ``counts`` (powers of two, largest first) and each
    of the real squared momenta ``k2``, from one sample of V at the 4n Gauss
    nodes of every count.  Returns (props, mirrored): props holds the entries
    a, b, c, d of each [[a, b], [c, d]] in an array of shape
    (len(counts), 4, len(k2), 2), [-L, 0] then [0, L] on the last axis, and
    mirrored says for each count whether its propagator of [-L, 0] was
    mirrored.

    The step edges of [0, L] are x = L sinh(alpha t) / sinh(alpha) at
    t = 0, 1/n, ..., 1 (``alpha`` > 0), short round x = 0 and about
    cosh(alpha) times longer at the walls, and each step has its two Gauss
    nodes at its own midpoint -+ ``_GAUSS_OFFSET`` times its own length.  The
    nodes of [-L, 0] are the exact negatives of those of [0, L], so each
    count's ascending node array satisfies x[::-1] == -x, and the steps of
    [-L, 0] are those of [0, L] in reverse order.  When a count's samples
    are exactly PT-symmetric (``_pt_symmetric``) its propagator of [0, L]
    alone is needed: for real k^2 the step of [-L, 0] at -x is the conjugate
    of the step at x with its two nodes swapped, conj(S M^-1 S) with
    S = diag(1, -1), and since the two-node Magnus step is time-symmetric
    this holds for the discrete propagator too, so U = [[a, b], [c, d]] of
    [0, L] gives conj([[d, b], [c, a]]) for [-L, 0].  Only [0, L] is
    multiplied when every count's samples pass; otherwise both halves are.

    The counts' steps are laid end to end, largest first, and multiplied in
    tiles of c momenta, the halves integrated and b steps,
    c * halves * b <= ``_BLOCK`` matrices, b = min(sum(counts), ``_BLOCK`` / 2).
    A count of b steps or more fills whole tiles, whose products are
    multiplied in order; a shorter one lies inside one tile, which one
    segmented tree (``_product``) reduces.  So each count's product is formed
    as in a pass of that count alone, whatever the batch and whatever counts
    share the pass.
    """
    top = counts[0]
    # the edges of n steps are every (top / n)-th edge of top steps, bit for
    # bit; the steps of [0, L] and their nodes, count by count
    edges = L * (np.sinh(alpha * (np.arange(top + 1) / top)) / np.sinh(alpha))
    lo = np.concatenate([edges[:-1:top // n] for n in counts])
    h = np.concatenate([edges[top // n::top // n] for n in counts]) - lo
    right = ((lo + 0.5 * h)[:, None]
             + h[:, None] * np.array([-_GAUSS_OFFSET, _GAUSS_OFFSET])).ravel()
    starts = [sum(counts[:s]) for s in range(len(counts))]
    # each count's nodes of [-L, 0], the exact negatives, then of [0, L]
    x = np.concatenate([part for j, n in zip(starts, counts)
                        for part in (-right[2 * j:2 * (j + n)][::-1],
                                     right[2 * j:2 * (j + n)])])
    v = np.asarray(potential(x), dtype=complex)
    check_finite("potential", v, x)
    samples = [v[4 * j:4 * (j + n)] for j, n in zip(starts, counts)]
    mirrored = [_pt_symmetric(s) for s in samples]
    one = int(all(mirrored))                    # 1 if [0, L] alone is integrated
    v = np.concatenate([s.reshape(2, n, 2) for s, n in zip(samples, counts)],
                       axis=1)[one:]            # half, step, node
    h = np.stack((np.concatenate([h[j:j + n][::-1] for j, n in zip(starts, counts)]),
                  h))[one:]                     # half, step
    owner = np.repeat(np.arange(len(counts)), counts)  # the count of each step
    b = min(len(owner), _BLOCK // 2)
    c = _BLOCK // (len(v) * b)
    # the counts in each tile and their numbers of steps there
    tiles = []
    for j in range(0, len(owner), b):
        sizes = np.bincount(owner[j:j + b])
        tiles.append((j, np.flatnonzero(sizes), sizes[sizes > 0].tolist()))
    props = np.empty((len(counts), 2, 2, len(k2), len(v)), dtype=complex)
    for i in range(0, len(k2), c):
        w = k2[i:i + c, None, None]
        m = [None] * len(counts)
        for j, inside, sizes in tiles:
            p = _product(_step_exponentials(v[:, j:j + b, 0] - w, v[:, j:j + b, 1] - w,
                                            h[:, j:j + b]), sizes)
            for s, ps in zip(inside, p):
                m[s] = ps if m[s] is None else _mul(ps, m[s])
        for s, ms in enumerate(m):
            props[s, :, :, i:i + c] = ms
    props = props.reshape(len(counts), 4, len(k2), len(v))
    # [-L, 0]: conj([[d, b], [c, a]]) of [0, L] where mirrored
    left = np.where(np.reshape(mirrored, (-1, 1, 1, 1)),
                    props[:, [3, 1, 2, 0], :, -1:].conj(), props[..., :1])
    return np.concatenate((left, props[..., -1:]), axis=-1), mirrored


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

    Each half of [-L, L] is crossed by n graded fourth-order Magnus steps,
    with edges x = L sinh(alpha t) / sinh(alpha), t = 0, 1/n, ..., 1, on
    [0, L] and their negatives on [-L, 0] (``_propagators``).  alpha is set
    once per call from max|V| over ``_PROBE_POINTS`` = 801 equally spaced
    samples of [-L, L] (one more call of V, shared by the batch): the root
    of sinh(alpha) / alpha = 2.5 sqrt(max(1, max|V|)) (``_mesh_alpha``),
    3.3 to 4.2 for the Scarf II pairs that the transmission-scan benchmark
    integrates, 4.3 to 5.6 for their partners and 9.4 to 10 for partners
    whose pole nears the real axis.  So the steps are short round x = 0,
    where those potentials are large, and long in their e^{-|x|} tail;
    alpha sets the cost only, the stop rule below the accuracy.  On a smooth
    mesh map the time-symmetric two-node step keeps an error expansion in
    even powers of 1 / n (Hairer, Lubich & Wanner, Geometric Numerical
    Integration, Springer 2006, ch. II.4), so Richardson extrapolation
    applies as on equal steps.  f- is carried forward from -L and f+
    backward from +L through the same two propagators, so one set of steps
    gives both.  When the samples of V satisfy V(-x) == conj V(x) bit for
    bit, only [0, L] is integrated and the propagator of [-L, 0] is its
    mirror image (``_propagators``), which needs the real k^2 that the k > 0
    check ensures.  A float is a batch of one; the momenta of a batch share
    one ladder of step counts, and one sample of V per pass, at the 4n Gauss
    nodes of each of its rungs n, serves both halves and every momentum
    still on the ladder.  Every momentum enters at the same rung, the first
    power of two n >= 4L per half (128 at L = 20), whatever k: the error of
    a Magnus step does not grow with k (A. Iserles, BIT 42 (2002) 561).  A
    momentum leaves at the first rung where its sixth-order Richardson
    extrapolations (16 f_n - f_{n/2}) / 15 of this rung and the last differ
    by at most 63 (tol + tol max|f|), with the fixed tol = ``_JOST_TOL`` =
    1e-11, at all three points, for each of f+, f+', f-, f-' with its own
    max|f|: the error falls 64-fold per doubling, so that difference over 63
    estimates the error of the later extrapolation, which is returned; so no
    momentum leaves before the third rung, 512 steps per half at L = 20.  So
    the entry pass covers the first three rungs (within the step cap), and
    each later pass one rung.  If some momentum does not get there within
    ``_MAX_STEPS`` steps, a ``ConvergenceError`` names it and its estimate.
    The steps of a pass are multiplied in tiles of ``_BLOCK`` = 4096
    matrices or fewer, b = min(the pass's steps per half, 2048) steps of the
    one or two halves integrated for 4096 / (halves b) momenta at a time
    (4 in the mirrored entry pass at L = 20, 512 + 256 + 128 steps), so
    besides V's samples and their nodes no temporary holds more than
    ``_BLOCK`` entries; each rung's product is formed as in a pass of its
    own, and alpha and the entry rung depend on V and L alone, so a
    momentum's arithmetic does not depend on the batch.  ``potential`` is
    called with arrays only; a sample that is not finite raises
    ``DomainError`` naming its x.  Every propagator has determinant 1, so
    the Wronskian fp*dfm - dfp*fm is the same at the three points up to
    roundoff and the extrapolation error.  Each momentum logs one DEBUG
    record on the ``scarf_spectra`` logger with k, the final step count over
    [-L, L], whether its rungs were "mirrored", integrated on "both halves"
    or "mixed", the Richardson estimate (relative to max|f|), the Wronskian
    drift across the three points, the mesh alpha and the entry rung's step
    count over [-L, L].
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
    probe = np.linspace(-L, L, _PROBE_POINTS)
    v = np.asarray(potential(probe), dtype=complex)
    check_finite("potential", v, probe)
    alpha = _mesh_alpha(float(np.abs(v).max()))
    entry = 1 << (math.ceil(4.0 * L) - 1).bit_length()     # 2^j >= 4 L steps per half
    # f at a momentum's last rung and its extrapolation: NaN before the entry
    # rung, so that the first two rungs can meet no tolerance
    coarse = np.full((len(ks), 4, 3), np.nan, dtype=complex)
    extrapolated = coarse.copy()
    out = np.empty_like(coarse)
    steps = np.zeros(len(ks), dtype=int)
    estimate = np.empty(len(ks))
    halves = np.zeros(len(ks), dtype=int)      # 1 if a rung mirrored, 2 if not
    # no momentum can leave before the third rung, so the entry pass takes
    # the first three rungs at once (within the step cap); each later pass
    # takes one
    rungs = [n for n in (entry, 2 * entry, 4 * entry) if n == entry or 2 * n <= _MAX_STEPS]
    while not steps.all():
        on = np.flatnonzero(steps == 0)
        props, mirrored = _propagators(potential, L, tuple(rungs[::-1]), alpha, k2[on])
        # one sweep for the momenta of every rung of the pass, largest rung first
        r = len(rungs)
        sweeps = _sweep(props.swapaxes(0, 1).reshape(4, -1, 2), np.tile(ks[on], r),
                        np.tile(phase[on], r)).reshape(r, len(on), 4, 3)
        for n, fine, mirror in zip(rungs, sweeps[::-1], mirrored[::-1]):
            halves[on] |= 1 if mirror else 2
            if not np.isfinite(fine).all():
                i = on[~np.isfinite(fine).all(axis=(1, 2))][0]
                raise ConvergenceError(f"Jost integration at k = {ks[i]:.6g} is not finite")
            ext = (16.0 * fine - coarse[on]) / 15.0
            size = np.abs(ext).max(axis=2, keepdims=True)
            diff = np.abs(ext - extrapolated[on]) / 63.0
            # fmin turns the NaN of the first two rungs into inf
            estimate[on] = np.fmin((diff / np.maximum(size, 1e-300)).max(axis=(1, 2)),
                                   math.inf)
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
        rungs = [2 * n]
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
                       "%.3g, Wronskian drift %.3g, mesh alpha %.6g, entry at %d "
                       "steps", ks[i], steps[i],
                       ("mirrored", "both halves", "mixed")[halves[i] - 1],
                       estimate[i], drift[i], alpha, 2 * entry)
    if np.ndim(k) == 0:
        return fp[0], dfp[0], fm[0], dfm[0]
    return fp, dfp, fm, dfm


def scattering(potential: Callable, k, grid: GridSpec):
    """Transmission/reflection amplitudes at momentum k (left and right incidence).

    ``k`` is a float, which gives one ``ScatteringResult``, or a 1-D array of
    momenta, which gives a list of them, item i bit for bit the result for
    k[i] alone; the momenta share one ``jost_solutions`` pass, with its one
    graded mesh, one ladder of step counts from one entry rung and one
    sample of V per pass, and a momentum that is not positive or too small
    for the box raises ``DomainError`` before any integration.  The
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
