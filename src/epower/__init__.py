"""Entangling power of two-qubit gates in canonical form and of
controlled-phase unitaries of any dimension, with closed forms validated
against a brute-force optimization oracle."""

from .canonical import (
    CanonicalParams,
    IdentityReport,
    PauliCoefficients,
    PAULI,
    assemble_unitary,
    coefficients_from_xyz,
    commutant_unitary,
    schmidt_rank,
    schmidt_strength,
    u_p,
    verify_identities,
    x_shaped_matrix,
)
from .epower2q import (
    ProductInputParams,
    Spectrum,
    boundary_maximum,
    conjecture_gap,
    e2_derivative,
    e2_derivative_limit_lower,
    e2_derivative_limit_upper,
    entangling_power_c2eqc3,
    entanglement_at,
    entanglement_grid,
    example1_line_entropy,
    example1_power,
    example1_threshold,
    example2_pair_sum_derivative,
    example2_power,
    line_profile_value,
    line_profile_values,
    partial_derivatives,
    reduced_density_closed_form,
    spectrum,
)
from .oracle import (
    SearchConfig,
    brute_force_power,
    entanglement_of_product_input,
    output_state,
    product_pair_power,
)
from .qmath import (
    DensityMatrix,
    DomainError,
    ProbVector,
    StateVector,
    majorizes,
    partial_trace,
    shannon_entropy,
    von_neumann_entropy,
)
from .results import EntanglingPowerResult
from .schmidt2 import (
    N3Result,
    PhaseGateSpec,
    SimplexWeights,
    ebits_from_quadratic_max,
    entangling_power_phase_gate,
    m_matrix,
    n3_closed_form,
    phase_gate_matrix,
    rank3_certificate,
    rank_bound_check,
    rank_one_parts,
    simplex_oracle,
    y_value,
)

__version__ = "0.1.0"
