"""Rationally extended SUSY partners of the Scarf II potential (v2 > 0).

A superpotential with one rational term,

    W(x) = a tanh x + i b sech x - i cosh x / (i sinh x + c),

factorizes the original potential V and produces the extended partner

    V_ext = W^2 + W' + E,        V = W^2 - W' + E,

provided  a(a+1) + b^2 = v1,  (2a+1) b = v2,  c = -2b/(2a-1),  E = -(a-1)^2.
Four solution branches exist, labelled by signs (eps_plus, eps_minus):

    a = -1/2 + eps_plus p + eps_minus sig,   b = eps_plus p - eps_minus sig,

with sig = ``DerivedParams.sigma``: s in the real regime and i q in the
complex one (there the partner is complex but no longer PT symmetric).
In closed form

    V_ext(x) = -(v1 - 2a) sech^2 x + i (v2 - 2b) sech x tanh x
               - 4b / D(x) + 2 (4b^2 - (2a-1)^2) / D(x)^2,
    D(x) = 2b - i (2a-1) sinh x.

eps_plus = +1 deletes the (n = 1, eps = eps_minus) level; eps_plus = -1 adds
a level at the factorization energy E, whose state is 1/phi for the
factorizing function phi.  The partner bound states of the (+, +) branch are
rational: their polynomial parts divide by the linear factor

    B(y) = (p - sig) - (p + sig - 1) y,        y = i sinh x,

and the eps = -1 family is governed by the degree-(n+1) exceptional (X1)
Jacobi polynomials.  Both families combine B with a classical Jacobi
polynomial P and P', evaluated at the sample points by the bound states'
recurrence (``jacobi_eval``), under the same ``envelope``.
"""

from __future__ import annotations

import cmath
import enum
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError, PoleError, RegimeError, SingularBranchError
from .params import (CouplingParams, DerivedParams, Regime, couplings_from_derived,
                     potential_value, wavefunction_params)
from .spectrum import LevelRecord, detect_singularity, spectrum
from .wavefunctions import (JacobiSpec, bound_state, bound_state_derivative,
                            envelope, jacobi_derivative, jacobi_eval,
                            wavefunction_value)

BRANCH_SIGNS = ((1, 1), (1, -1), (-1, 1), (-1, -1))

_DEGENERACY_TOL = 1e-9


class PartnerKind(enum.Enum):
    PT_SYMMETRIC = "pt-symmetric"
    COMPLEX_NON_PT = "complex-non-pt"


@dataclass(frozen=True)
class PartnerBranch:
    """One solution branch of the superpotential construction."""

    eps_plus: int
    eps_minus: int
    a: complex
    b: complex
    c: complex
    factorization_energy: complex
    kind: PartnerKind


def solve_branch(d: DerivedParams, eps_plus: int, eps_minus: int) -> PartnerBranch:
    """Solve the coupled superpotential equations on one sign branch."""
    if eps_plus not in (-1, 1) or eps_minus not in (-1, 1):
        raise DomainError("branch signs must be +1 or -1")
    if d.nu < 0:
        raise DomainError("superpotential branches are constructed for v2 > 0 only")
    if d.regime is Regime.BOUNDARY:
        raise RegimeError("partner construction is not defined on the regime boundary")
    a = -0.5 + eps_plus * d.p + eps_minus * d.sigma
    b = eps_plus * d.p - eps_minus * d.sigma
    two_a_minus_1 = 2.0 * a - 1.0
    if abs(two_a_minus_1) < 1e-12 * (1.0 + abs(a)):
        raise SingularBranchError(
            f"branch ({eps_plus:+d}, {eps_minus:+d}) is singular: 2a - 1 = 0")
    c = -2.0 * b / two_a_minus_1
    energy = -((a - 1.0) ** 2)
    kind = (PartnerKind.PT_SYMMETRIC if d.regime is Regime.REAL_SPECTRUM
            else PartnerKind.COMPLEX_NON_PT)
    if kind is PartnerKind.PT_SYMMETRIC:
        a, b, c, energy = a.real, b.real, c.real, energy.real
    return PartnerBranch(eps_plus=eps_plus, eps_minus=eps_minus, a=a, b=b, c=c,
                         factorization_energy=energy, kind=kind)


def _check_poles(den, scale, name: str):
    """Raise PoleError where the denominator ``den`` of ``name`` vanishes,
    relative to 1 + |scale|."""
    if np.any(np.abs(den) < 1e-12 * (1.0 + abs(scale))):
        raise PoleError(f"{name} pole on the evaluation grid")


def superpotential(branch: PartnerBranch, x):
    """W(x) = a tanh x + i b sech x - i cosh x / (i sinh x + c)."""
    x = np.asarray(x, dtype=float)
    sh, ch = np.sinh(x), np.cosh(x)
    den = 1j * sh + branch.c
    _check_poles(den, branch.c, "superpotential")
    return branch.a * np.tanh(x) + 1j * branch.b / ch - 1j * ch / den


def superpotential_derivative(branch: PartnerBranch, x):
    """Closed-form W'(x)."""
    x = np.asarray(x, dtype=float)
    sh, ch = np.sinh(x), np.cosh(x)
    sech = 1.0 / ch
    den = 1j * sh + branch.c
    _check_poles(den, branch.c, "superpotential")
    return (branch.a * sech ** 2 - 1j * branch.b * sech * np.tanh(x)
            - 1j * (branch.c * sh - 1j) / den ** 2)


def extended_potential(branch: PartnerBranch, params: CouplingParams, x):
    """Closed-form rational extension V_ext; equals W^2 + W' + E."""
    x = np.asarray(x, dtype=float)
    sech = 1.0 / np.cosh(x)
    a, b = branch.a, branch.b
    den = 2.0 * b - 1j * (2.0 * a - 1.0) * np.sinh(x)
    _check_poles(den, b, "extended potential")
    return (-(params.v1 - 2.0 * a) * sech ** 2
            + 1j * (params.v2 - 2.0 * b) * sech * np.tanh(x)
            - 4.0 * b / den
            + 2.0 * (4.0 * b ** 2 - (2.0 * a - 1.0) ** 2) / den ** 2)


def factorizing_function(branch: PartnerBranch, x):
    """Nodeless solution phi of (-d^2/dx^2 + V - E) phi = 0 defining the branch.

    phi is exactly the n = 1 ansatz state with exponents (a, -i b); its
    polynomial part is the linear bracket  eps_plus p - eps_minus sig
    - i (eps_plus p + eps_minus sig - 1) sinh x.
    """
    return wavefunction_value(wavefunction_params(branch.a, -1j * branch.b), 1, x)


def added_level_wavefunction(branch: PartnerBranch, x):
    """Partner-space bound state 1/phi created by a deleting-free branch.

    Normalizable exactly when eps_plus = -1 (then |1/phi| decays like
    exp[-(p - eps_minus sig + 3/2) |x|]).
    """
    if branch.eps_plus != -1:
        raise DomainError("added level exists only on eps_plus = -1 branches")
    vals = factorizing_function(branch, x)
    return 1.0 / vals


# ============================================================================
# partner spectrum bookkeeping
# ============================================================================

@dataclass(frozen=True)
class DegeneracyNote:
    """Added level coinciding with an original eps = +1 level (2s = n + 2)."""

    n: int
    energy: float


@dataclass(frozen=True)
class PartnerSpectrumEdit:
    deleted: Optional[LevelRecord]
    added: Optional[LevelRecord]
    degeneracy: Optional[DegeneracyNote]


def _check_branch_matches(branch: PartnerBranch, d: DerivedParams):
    a_expect = -0.5 + branch.eps_plus * d.p + branch.eps_minus * d.sigma
    if abs(complex(branch.a) - a_expect) > 1e-9 * (1.0 + abs(a_expect)):
        raise DomainError("branch record does not belong to the given parameters")


def partner_spectrum(branch: PartnerBranch, d: DerivedParams):
    """Spectrum of V_ext: the original levels with one deleted or one added.

    Returns ``(levels, edit)``.  Deletion (eps_plus = +1) removes the
    (n = 1, eps = eps_minus) level when it exists in the original spectrum;
    addition (eps_plus = -1) appends a level at the factorization energy.
    In the real regime an added level with eps_minus = +1 may coincide with
    an original level (couplings with 2s = n + 2); this is recorded in the
    edit's degeneracy note.
    """
    _check_branch_matches(branch, d)
    levels = spectrum(d)
    deleted = added = note = None
    if branch.eps_plus == 1:
        for i, lv in enumerate(levels):
            if lv.n == 1 and lv.epsilon == branch.eps_minus:
                if abs(lv.energy - branch.factorization_energy) > \
                        _DEGENERACY_TOL * (1.0 + abs(lv.energy)):
                    raise DomainError("deleted-level energy mismatch; inconsistent branch")
                deleted = lv
                del levels[i]
                break
    else:
        if d.regime is Regime.REAL_SPECTRUM and branch.eps_minus == 1:
            n_deg = round(2.0 * d.s) - 2
            if abs(2.0 * d.s - (n_deg + 2)) < _DEGENERACY_TOL * (1.0 + 2.0 * d.s):
                note = next((DegeneracyNote(n=n_deg, energy=lv.energy) for lv in levels
                             if (lv.n, lv.epsilon) == (n_deg, 1)), None)
        added = LevelRecord(n=0, epsilon=branch.eps_minus, wf=None, origin="susy-added",
                            energy=complex(branch.factorization_energy))
        levels.append(added)
    # real levels have Im E = 0, and the sort is stable
    levels.sort(key=lambda lv: (lv.energy.real, lv.energy.imag))
    return levels, PartnerSpectrumEdit(deleted=deleted, added=added, degeneracy=note)


# ============================================================================
# exceptional (X1) Jacobi polynomials and partner polynomial families
# ============================================================================

def _bracket(p: complex, sig: complex, y):
    """The linear factor B(y) = (p - sig) - (p + sig - 1) y."""
    return (p - sig) - (p + sig - 1.0) * y


def exceptional_jacobi(degree: int, s: complex, p: complex, y):
    """Evaluate the degree-k X1 exceptional Jacobi polynomial at y.

    Parameters correspond to the classical pair (alpha, beta) = (2s-1, 1-2p).
    The construction combines P_{k-1}^{(2s, -2p)} and its derivative with the
    linear factor B(y) = (p - s) - (p + s - 1) y; normalization is fixed so
    the degree-1 member is 2(s - p + 1) + 2(p + s - 1) y.
    """
    if degree < 1:
        raise DomainError(f"exceptional Jacobi degree must be >= 1, got {degree}")
    s, p = complex(s), complex(p)
    if abs(2.0 * s - 1.0) < 1e-10 or abs(p + s - 1.0) < 1e-10:
        raise DomainError("degenerate X1 construction: 2s - 1 or p + s - 1 vanishes")
    y = np.asarray(y, dtype=complex)
    spec = JacobiSpec(degree - 1, 2.0 * s, -2.0 * p)
    pn, dpn = jacobi_eval(spec, y), jacobi_derivative(spec, y)
    b = _bracket(p, s, y)
    g = -2.0 * s * b * pn + (1.0 - y) * (b * dpn + (p + s - 1.0) * pn)
    return g * (2.0 / (2.0 * s - 1.0))


def partner_polynomial(n: int, epsilon: int, p: complex, sig: complex, y):
    """Polynomial part of the (+, +)-branch partner state psi^(-)_{n, eps} at y.

    eps = +1 family (n = 0, 2, 3, ...): degree-n combination
        (p + sig - 1) P_n^{(-2 sig, -2p)} + B(y) dP_n/dy,
    rescaled to reproduce the published degree-0 and degree-2 forms
    (1 and (p+s-1)(2p+2s-3) y^2 - 2 (p-s)(2p+2s-3) y + 2 (p-s)^2 - (p+s-1));
    the same rescaling rule -4/(p + sig - n) is applied to every n >= 2.

    eps = -1 family: the degree-(n+1) X1 exceptional Jacobi polynomial.
    """
    if n < 0:
        raise DomainError(f"level index must be >= 0, got {n}")
    p, sig = complex(p), complex(sig)
    if epsilon == -1:
        return exceptional_jacobi(n + 1, sig, p, y)
    if epsilon != 1:
        raise DomainError(f"epsilon must be +1 or -1, got {epsilon}")
    if n == 1:
        raise DomainError("n = 1 is the level deleted by the (+, +) branch")
    y = np.asarray(y, dtype=complex)
    spec = JacobiSpec(n, -2.0 * sig, -2.0 * p)
    q = ((p + sig - 1.0) * jacobi_eval(spec, y)
         + _bracket(p, sig, y) * jacobi_derivative(spec, y))
    scale = 1.0 / (p + sig - 1.0) if n == 0 else -4.0 / (p + sig - n)
    return q * scale


# ============================================================================
# partner wavefunctions
# ============================================================================

def partner_wavefunction(branch: PartnerBranch, level: LevelRecord, x):
    """Partner state by the intertwining map (E_n - E)^{-1/2} (d/dx + W) psi_n.

    Works on every branch.  Raises a domain error at the factorization
    energy itself (the deleted level, annihilated by the map).
    """
    gap = complex(level.energy) - complex(branch.factorization_energy)
    if abs(gap) < _DEGENERACY_TOL * (1.0 + abs(level.energy)):
        raise DomainError(
            "level is degenerate with the factorization energy; the intertwining map "
            "annihilates it")
    pref = 1.0 / cmath.sqrt(gap)
    return pref * (bound_state_derivative(level, x)
                   + superpotential(branch, x) * bound_state(level, x))


def partner_wavefunction_closed(branch: PartnerBranch, d: DerivedParams,
                                n: int, epsilon: int, x):
    """Closed rational form of the (+, +)-branch partner states.

    psi^(-)_{n,eps}(x) = sech^xi(x) exp[eta arctan(sinh x)]
                         * PP_{n,eps}(i sinh x) / B(i sinh x),

    with (xi, eta) = (-3/2 + p + sig, -i (p - sig)) for eps = +1 and
    (-1/2 + p - sig, -i (p + sig - 1)) for eps = -1.  (n, eps) must be a level
    of ``partner_spectrum(branch, d)``.  Other branches have no published
    closed form; use :func:`partner_wavefunction` there.
    """
    if (branch.eps_plus, branch.eps_minus) != (1, 1):
        raise DomainError("closed partner states are implemented for the (+, +) branch only")
    if not any((lv.n, lv.epsilon) == (n, epsilon) for lv in partner_spectrum(branch, d)[0]):
        raise DomainError(f"(n, eps) = ({n}, {epsilon}) is no level of the (+, +) partner")
    sig = d.sigma
    p = complex(d.p)
    if epsilon == 1:
        xi = -1.5 + p + sig
        eta = -1j * (p - sig)
    else:
        xi = -0.5 + p - sig
        eta = -1j * (p + sig - 1.0)
    x = np.asarray(x, dtype=float)
    y = 1j * np.sinh(x)
    return (envelope(xi, eta, x) * partner_polynomial(n, epsilon, p, sig, y)
            / _bracket(p, sig, y))


# ============================================================================
# singularities of the partner and factorization checks
# ============================================================================

@dataclass(frozen=True)
class PartnerSingularityReport:
    """Spectral-singularity data of V_ext, inherited from the original potential.

    ``vprime_sum`` is the real combined coupling v1' + v2' of the extended
    potential's sech^2 / sech tanh part; on the singularity locus it equals
    4 n*^2 - 1/4.  When n* = 1 the deleting branch leaves a single state
    (not a conjugate pair) at E*, flagged by ``n1_anomaly``.
    """

    is_singular: bool
    n_star: Optional[int]
    e_star: Optional[float]
    tolerance_used: float
    vprime_sum: float
    vprime_identity: Optional[float]
    n1_anomaly: bool


def partner_singularity(branch: PartnerBranch, d: DerivedParams) -> PartnerSingularityReport:
    """Singularity report for the extended potential of the (+, +) branch,
    at the tolerance of ``detect_singularity`` (``spectrum._SINGULARITY_TOL``)."""
    if branch.kind is not PartnerKind.COMPLEX_NON_PT:
        raise RegimeError("partner singularities require the complex-spectrum regime")
    if (branch.eps_plus, branch.eps_minus) != (1, 1):
        raise DomainError("partner singularity analysis covers the (+, +) branch")
    _check_branch_matches(branch, d)
    base = detect_singularity(d)
    params = couplings_from_derived(d)
    ab_sum = branch.a + branch.b
    vprime_sum = params.v1 + params.v2 - 2.0 * ab_sum.real
    identity = None
    if base.is_singular:
        identity = 4.0 * base.n_star ** 2 - 0.25
    return PartnerSingularityReport(
        is_singular=base.is_singular, n_star=base.n_star, e_star=base.e_star,
        tolerance_used=base.tolerance_used, vprime_sum=vprime_sum,
        vprime_identity=identity,
        n1_anomaly=bool(base.is_singular and base.n_star == 1))


def factorization_residuals(branch: PartnerBranch, params: CouplingParams, x):
    """Max-norm residuals of V = W^2 - W' + E and V_ext = W^2 + W' + E,
    with W' in closed form (``superpotential_derivative``)."""
    x = np.asarray(x, dtype=float)
    w = superpotential(branch, x)
    dw = superpotential_derivative(branch, x)
    base = w * w + branch.factorization_energy
    res_v = np.max(np.abs(base - dw - potential_value(params, x)))
    res_ext = np.max(np.abs(base + dw - extended_potential(branch, params, x)))
    return float(res_v), float(res_ext)
