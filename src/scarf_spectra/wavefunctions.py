"""Closed-form wavefunctions and complex-parameter Jacobi machinery.

All bound and singular states of the potential share the ansatz

    psi(x) = sech(x)^lam * exp(mu * arctan(sinh x)) * P_n^{(alpha, beta)}(i sinh x)

with complex Jacobi parameters.  The classical three-term recurrence remains
valid for complex (alpha, beta); where a factor of one of its denominators
comes within 1 of zero the evaluator uses the explicit finite hypergeometric
sum, which is always defined.  The partner and X1 exceptional states of
``partner.py`` combine the same polynomials and the same ``envelope``.
Overall normalization of every closed-form state is fixed to N = 1 (the
prefactor-free form above).

Also provided: the PT pseudo-norm integral of a state, computed with a
doubling composite Simpson rule and a Richardson error estimate.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConvergenceError, DomainError, check_finite
from .params import DerivedParams, WavefunctionParams, wavefunction_params
from .spectrum import detect_singularity

# modulus below which a recurrence denominator factor counts as degenerate; a
# smaller one costs digits (1e-4 relative at alpha + beta = -8 + 0.007), and
# every bound, singular and in-range partner state keeps each factor above 3
_RECURRENCE_TOL = 1.0

# pseudo_norm: first Simpson panel count, and the absolute change between two
# successive estimates that ends the doubling
_FIRST_PANELS = 128
_QUADRATURE_TOL = 1e-9


@dataclass(frozen=True)
class JacobiSpec:
    """Degree and (possibly complex) parameters of a Jacobi polynomial."""

    n: int
    alpha: complex
    beta: complex

    def __post_init__(self):
        if not isinstance(self.n, numbers.Integral) or self.n < 0:
            raise DomainError(f"polynomial degree must be an integer >= 0, got {self.n!r}")


def _binomial_rising(z: complex, j: int) -> complex:
    """Generalized binomial C(z, j) = z (z-1) ... (z-j+1) / j! for complex z."""
    out = 1.0 + 0.0j
    for i in range(j):
        out *= (z - i) / (i + 1)
    return out


def jacobi_explicit(spec: JacobiSpec, y):
    """P_n^{(alpha,beta)}(y) by the explicit finite sum
    sum_k C(n+alpha, n-k) C(n+beta, k) ((y-1)/2)^k ((y+1)/2)^(n-k) (no
    denominators that can degenerate; slower than the recurrence, used as its
    fallback and as the tests' oracle)."""
    y = np.asarray(y, dtype=complex)
    n = spec.n
    half_minus = (y - 1.0) / 2.0
    half_plus = (y + 1.0) / 2.0
    total = np.zeros_like(y)
    for k in range(n + 1):
        coeff = (_binomial_rising(n + spec.alpha, n - k)
                 * _binomial_rising(n + spec.beta, k))
        total = total + coeff * half_minus ** k * half_plus ** (n - k)
    return total


def jacobi_eval(spec: JacobiSpec, y):
    """P_n^{(alpha,beta)}(y) by the three-term recurrence, complex-safe.

    When a denominator 2k (k+a+b) (2k+a+b-2) of some degree k <= n has a
    factor of modulus < ``_RECURRENCE_TOL`` = 1, the explicit sum evaluates
    the whole degree instead.
    """
    y = np.asarray(y, dtype=complex)
    n, al, be = spec.n, spec.alpha, spec.beta
    if n == 0:
        return np.ones_like(y)[()]
    pm1 = np.ones_like(y)                                   # P_0
    p = ((al - be) + (al + be + 2.0) * y) / 2.0             # P_1
    ab = al + be
    for k in range(2, n + 1):
        if min(abs(k + ab), abs(2 * k + ab - 2.0)) < _RECURRENCE_TOL:
            return jacobi_explicit(spec, y)
        denom = 2.0 * k * (k + ab) * (2 * k + ab - 2.0)
        c1 = (2 * k + ab - 1.0) * ((2 * k + ab) * (2 * k + ab - 2.0) * y + al * al - be * be)
        c2 = 2.0 * (k + al - 1.0) * (k + be - 1.0) * (2 * k + ab)
        cur = (c1 * p - c2 * pm1) / denom
        pm1, p = p, cur
    return p


def jacobi_derivative(spec: JacobiSpec, y):
    """d/dy P_n^{(alpha,beta)}(y) = (n+alpha+beta+1)/2 * P_{n-1}^{(alpha+1,beta+1)}(y)."""
    if spec.n == 0:
        return np.zeros_like(np.asarray(y, dtype=complex))[()]
    shifted = JacobiSpec(spec.n - 1, spec.alpha + 1.0, spec.beta + 1.0)
    return (spec.n + spec.alpha + spec.beta + 1.0) / 2.0 * jacobi_eval(shifted, y)


# ============================================================================
# closed-form states
# ============================================================================

def log_sech(x):
    """log(sech x), overflow-safe for large |x|."""
    ax = np.abs(x)
    return -(ax + np.log1p(np.exp(-2.0 * ax))) + np.log(2.0)


def gudermannian(x):
    """arctan(sinh x) evaluated as 2 arctan(tanh(x/2)), stable for all x."""
    return 2.0 * np.arctan(np.tanh(x / 2.0))


def envelope(lam: complex, mu: complex, x):
    """sech(x)^lam * exp(mu * arctan(sinh x)), the factor of every closed form."""
    return np.exp(lam * log_sech(x) + mu * gudermannian(x))


def wavefunction_value(wf: WavefunctionParams, n: int, x):
    """Evaluate the ansatz state with parameters ``wf`` and polynomial degree n."""
    x = np.asarray(x, dtype=float)
    pre = envelope(wf.lam, wf.mu, x)
    return pre * jacobi_eval(JacobiSpec(n, wf.alpha, wf.beta), 1j * np.sinh(x))


def wavefunction_derivative(wf: WavefunctionParams, n: int, x):
    """d/dx of :func:`wavefunction_value`, in closed form (no differencing)."""
    x = np.asarray(x, dtype=float)
    y = 1j * np.sinh(x)
    pre = envelope(wf.lam, wf.mu, x)
    sech = 1.0 / np.cosh(x)
    poly = jacobi_eval(JacobiSpec(n, wf.alpha, wf.beta), y)
    dpoly = jacobi_derivative(JacobiSpec(n, wf.alpha, wf.beta), y)
    return pre * ((-wf.lam * np.tanh(x) + wf.mu * sech) * poly + 1j * np.cosh(x) * dpoly)


def bound_state(level, x):
    """psi_{n,eps}(x) for a spectrum level record (normalization N = 1)."""
    if level.wf is None:
        raise DomainError("level carries no closed-form wavefunction parameters")
    return wavefunction_value(level.wf, level.n, x)


def bound_state_derivative(level, x):
    """d/dx psi_{n,eps}(x) for a spectrum level record, in closed form."""
    if level.wf is None:
        raise DomainError("level carries no closed-form wavefunction parameters")
    return wavefunction_derivative(level.wf, level.n, x)


def singularity_wavefunction(report, d: DerivedParams, epsilon: int, x):
    """Bounded (non-decaying) state at a spectral singularity, N = 1.

    ``report`` must be ``detect_singularity(d)``; the state is the
    bound-state ansatz continued to lam = n* + i eps q, which asymptotes to
    pure plane waves e^{-/+ i eps q x}.  The two quasi-parities are PT images
    of each other: conj(psi_+(-x)) = psi_-(x).
    """
    if epsilon not in (-1, 1):
        raise DomainError(f"epsilon must be +1 or -1, got {epsilon}")
    if report != detect_singularity(d):
        raise DomainError("singularity report does not belong to the given parameters")
    if not report.is_singular:
        raise DomainError("couplings are not on a singularity locus")
    n = report.n_star
    lam = n + 1j * epsilon * d.q
    mu = -1j * d.nu * (n + 0.5 - 1j * epsilon * d.q)
    return wavefunction_value(wavefunction_params(lam, mu), n, x)


# ============================================================================
# grids and quadrature
# ============================================================================

@dataclass(frozen=True)
class QuadratureResult:
    value: complex
    error: float
    n_points: int


def _simpson(f_vals: np.ndarray, h: float) -> complex:
    return h / 3.0 * (f_vals[0] + f_vals[-1]
                      + 4.0 * np.sum(f_vals[1:-1:2]) + 2.0 * np.sum(f_vals[2:-1:2]))


def pseudo_norm(psi: Callable, domain: tuple) -> QuadratureResult:
    """PT pseudo-norm integral  I = int [psi(-x)]* psi(x) dx  over ``domain``.

    Composite Simpson from ``_FIRST_PANELS`` = 128 panels, doubling the panel
    count until two successive estimates differ by less than
    ``_QUADRATURE_TOL`` = 1e-9 (absolute); the reported error is
    the Richardson estimate |I_fine - I_coarse| / 15.  Raises
    :class:`ConvergenceError` when the 2**22-point cap is reached first, and
    :class:`DomainError` at once for a domain that is not two real ends or is
    empty or not finite, or on the first pass whose integrand has a sample
    that is not finite, naming the first such x.
    """
    try:
        a, b = (float(x) for x in domain)
    except (TypeError, ValueError):
        raise DomainError(f"quadrature domain must be (a, b), got {domain!r}") from None
    if not (math.isfinite(a) and math.isfinite(b)):
        raise DomainError(f"quadrature domain ({a}, {b}) must be finite")
    if not b > a:
        raise DomainError("quadrature domain is empty")
    panels = _FIRST_PANELS

    def integrand(x):
        return np.conjugate(np.asarray(psi(-x))) * np.asarray(psi(x))

    prev = None
    while panels + 1 <= (1 << 22) + 1:
        xs = np.linspace(a, b, panels + 1)
        samples = integrand(xs)
        check_finite("pseudo-norm integrand", samples, xs)
        val = _simpson(samples, (b - a) / panels)
        if prev is not None:
            diff = abs(val - prev)
            if diff < _QUADRATURE_TOL:
                return QuadratureResult(value=complex(val), error=diff / 15.0,
                                        n_points=panels + 1)
        prev = val
        panels *= 2
    raise ConvergenceError(
        f"pseudo-norm quadrature did not converge to {_QUADRATURE_TOL:g} "
        "within 2^22 points")
