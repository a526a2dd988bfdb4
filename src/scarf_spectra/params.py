"""Couplings and derived shape parameters of the complexified Scarf II potential.

The potential under study is

    V(x) = -V1 sech^2(x) + i V2 sech(x) tanh(x),      V1 > 0, V2 real nonzero,

which is PT symmetric: V(-x) = conj(V(x)).  Its bound-state structure is
controlled by two shape parameters built from the coupling combination
|V2| - V1 - 1/4:

    p = sqrt(|V2| + V1 + 1/4) / 2          always real,
    s = sqrt(1/4 + V1 - |V2|) / 2          real-spectrum side  (|V2| <  V1 + 1/4),
    q = sqrt(|V2| - V1 - 1/4) / 2          complex-spectrum side (|V2| > V1 + 1/4).

The sign nu = sign(V2) selects which of the two quasi-parity series carries
which Jacobi parameters; energies depend on |V2| only.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DomainError


class Regime(enum.Enum):
    """Spectral phase implied by the couplings."""

    REAL_SPECTRUM = "real-spectrum"
    COMPLEX_SPECTRUM = "complex-spectrum"
    BOUNDARY = "boundary"


@dataclass(frozen=True)
class CouplingParams:
    """Raw potential couplings (v1 the real well depth, v2 the imaginary strength)."""

    v1: float
    v2: float

    def __post_init__(self):
        if not all(isinstance(v, numbers.Real) and math.isfinite(v)
                   for v in (self.v1, self.v2)):
            raise DomainError("couplings must be finite real numbers")
        if self.v1 <= 0:
            raise DomainError(f"v1 must be positive, got {self.v1}")
        if self.v2 == 0:
            raise DomainError("v2 must be nonzero (v2 = 0 is the ordinary real Scarf II well)")


@dataclass(frozen=True)
class DerivedParams:
    """Shape parameters (p, q, s), sign nu = sign(v2) and the spectral regime.

    Exactly one of q, s is meaningful away from the boundary: s in the real
    regime, q in the complex regime.  The other is stored as 0.0.  On the
    boundary both vanish.
    """

    p: float
    q: float
    s: float
    nu: int
    regime: Regime

    @property
    def sigma(self) -> complex:
        """The second shape parameter of both regimes: s, or i q past the
        boundary, so that 4 sigma^2 = 1/4 + v1 - |v2| in either."""
        return complex(self.s, self.q)


def derive(params: CouplingParams) -> DerivedParams:
    """Map couplings to shape parameters and classify the spectral regime.

    The boundary |v2| = v1 + 1/4 is detected within an absolute tolerance
    1e-12 * (1 + v1 + |v2|); there both q and s are returned as zero.
    """
    v1, av2 = params.v1, abs(params.v2)
    gap = av2 - v1 - 0.25
    tol = 1e-12 * (1.0 + v1 + av2)
    p = 0.5 * math.sqrt(av2 + v1 + 0.25)
    nu = 1 if params.v2 > 0 else -1
    if abs(gap) < tol:
        return DerivedParams(p=p, q=0.0, s=0.0, nu=nu, regime=Regime.BOUNDARY)
    if gap > 0:
        return DerivedParams(p=p, q=0.5 * math.sqrt(gap), s=0.0, nu=nu,
                             regime=Regime.COMPLEX_SPECTRUM)
    return DerivedParams(p=p, q=0.0, s=0.5 * math.sqrt(-gap), nu=nu,
                         regime=Regime.REAL_SPECTRUM)


def couplings_from_derived(d: DerivedParams) -> CouplingParams:
    """Invert :func:`derive` (used internally; exact up to rounding)."""
    sigma2 = d.s ** 2 - d.q ** 2                # Re sigma^2, one term is 0
    return CouplingParams(v1=2.0 * d.p ** 2 + 2.0 * sigma2 - 0.25,
                          v2=d.nu * 2.0 * (d.p ** 2 - sigma2))


def potential_value(params: CouplingParams, x):
    """Evaluate V(x) = -v1 sech^2 x + i v2 sech x tanh x (scalar or array)."""
    x = np.asarray(x, dtype=float)
    sech = 1.0 / np.cosh(x)
    return -params.v1 * sech ** 2 + 1j * params.v2 * sech * np.tanh(x)


@dataclass(frozen=True)
class WavefunctionParams:
    """Exponent/Jacobi parameters of the closed-form bound states.

    The states have the shape

        psi(x) = sech(x)^lam * exp(mu * arctan(sinh x)) * P_n^{(alpha, beta)}(i sinh x)

    with alpha = -lam + i mu - 1/2 and beta = -lam - i mu - 1/2.
    """

    lam: complex
    mu: complex
    alpha: complex
    beta: complex


def wavefunction_params(lam: complex, mu: complex) -> WavefunctionParams:
    """Build the full parameter set from (lam, mu); alpha/beta follow identically."""
    lam, mu = complex(lam), complex(mu)
    return WavefunctionParams(
        lam=lam,
        mu=mu,
        alpha=-lam + 1j * mu - 0.5,
        beta=-lam - 1j * mu - 0.5,
    )
