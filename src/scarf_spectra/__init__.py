"""Spectra, wavefunctions and rational SUSY extensions of the PT-symmetric
complexified Scarf II potential V(x) = -v1 sech^2 x + i v2 sech x tanh x."""

from .errors import (ConvergenceError, DomainError, PoleError, RegimeError,
                     SingularBranchError)
from .params import (CouplingParams, DerivedParams, Regime, WavefunctionParams,
                     couplings_from_derived, derive, potential_value,
                     wavefunction_params)
from .partner import (BRANCH_SIGNS, DegeneracyNote, PartnerBranch, PartnerKind,
                      PartnerSingularityReport, PartnerSpectrumEdit,
                      added_level_wavefunction, exceptional_jacobi,
                      extended_potential, factorization_residuals,
                      factorizing_function, partner_polynomial,
                      partner_singularity, partner_spectrum,
                      partner_wavefunction, partner_wavefunction_closed,
                      solve_branch, superpotential, superpotential_derivative)
from .spectrum import (LevelRecord, LocusPoint, SingularityReport,
                       detect_singularity, matching_residuals,
                       singularity_locus, spectrum)
from .verify import (REFERENCE_GRID, GridSpec, ScanPoint, ScatteringResult,
                     discrete_spectrum, jost_solutions, residual, scattering,
                     singularity_scan)
from .wavefunctions import (JacobiSpec, QuadratureResult, bound_state,
                            bound_state_derivative, gudermannian,
                            jacobi_derivative, jacobi_eval, jacobi_explicit,
                            log_sech, pseudo_norm, singularity_wavefunction,
                            wavefunction_derivative, wavefunction_value)

__version__ = "0.1.0"

__all__ = [
    "BRANCH_SIGNS", "ConvergenceError", "CouplingParams", "DegeneracyNote",
    "DerivedParams", "DomainError", "GridSpec", "JacobiSpec",
    "LevelRecord", "LocusPoint", "PartnerBranch", "PartnerKind",
    "PartnerSingularityReport", "PartnerSpectrumEdit", "PoleError",
    "QuadratureResult", "REFERENCE_GRID", "Regime", "RegimeError",
    "ScanPoint", "ScatteringResult", "SingularBranchError",
    "SingularityReport", "WavefunctionParams", "added_level_wavefunction",
    "bound_state", "bound_state_derivative",
    "couplings_from_derived", "derive", "detect_singularity",
    "discrete_spectrum", "exceptional_jacobi", "extended_potential",
    "factorization_residuals", "factorizing_function", "gudermannian",
    "jacobi_derivative", "jacobi_eval", "jacobi_explicit", "jost_solutions",
    "log_sech",
    "matching_residuals", "partner_polynomial", "partner_singularity",
    "partner_spectrum", "partner_wavefunction", "partner_wavefunction_closed",
    "potential_value", "pseudo_norm", "residual",
    "scattering", "singularity_locus", "singularity_scan",
    "singularity_wavefunction", "solve_branch", "spectrum", "superpotential",
    "superpotential_derivative", "wavefunction_derivative",
    "wavefunction_params", "wavefunction_value",
]
