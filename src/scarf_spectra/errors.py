"""Exception types shared across the package.

The CLI maps these onto distinct exit codes, so library code should raise
the most specific class that applies.
"""

import numpy as np


class DomainError(ValueError):
    """Inputs violate a mathematical precondition (couplings, indices, ranges)."""


class RegimeError(DomainError):
    """Operation is undefined in the spectral regime of the given couplings."""


class PoleError(DomainError):
    """Evaluation point coincides with a pole of the requested expression."""


class SingularBranchError(DomainError):
    """Superpotential branch is singular (2a - 1 = 0), no partner exists."""


class ConvergenceError(RuntimeError):
    """An iterative numerical procedure failed to reach its tolerance."""


def check_finite(name: str, values: np.ndarray, x: np.ndarray):
    """Raise ``DomainError`` naming the smallest x where ``values`` is not finite."""
    bad = ~np.isfinite(values)
    if np.any(bad):
        raise DomainError(f"{name} is not finite at x = {np.min(x[bad]):.6g}")
