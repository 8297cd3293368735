"""Supersymmetric extension of the planar deformed-oscillator family.

The package provides the exact eigenfunctions of the deformed
oscillator H_k for any real k > 0, its N = 2 supersymmetric extension,
the eight generators of the underlying orthosymplectic superalgebra as
analytic differential operators, the closed-form ladder/irrep data,
the k = 1, 2, 3 cartesian special cases, and a verification suite that
checks every closed-form claim numerically.
"""

from .fock import jordan_wigner
from .generators import (
    GENERATOR_NAMES,
    apply_operators,
    check_structure_constants,
    generator_matrices,
    hamiltonian_super,
    hermiticity_residuals,
    interior_mask,
    oscillator_realization,
    project,
    riccati_residual,
    superpotential,
    wavefunction_gram,
)
from .irreps import (
    casimir_eigenvalues,
    casimir_matrices,
    classify,
    k_ladder_coeff,
    mixing_coeffs,
    one_fermion_state,
    overlap,
    sector_basis,
    sp2_family_state,
    two_fermion_state,
    v_action,
    zero_fermion_state,
)
from .model import (
    Grid,
    ModelParams,
    Weights,
    energy,
    eval_angular,
    eval_radial,
    eval_wavefunction,
    susy_energy,
    weights_of,
)
from .specfun import QuadratureRule, gauss_rule, jacobi, jacobi_deriv, laguerre, laguerre_deriv, log_gamma
from .states import CatalogState, CatalogTerm, FactorTable, state_bundle, state_field
from .verify import SuiteConfig, VerificationReport, run

__version__ = "0.1.0"
