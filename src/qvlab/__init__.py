"""qvlab: what quantum mechanics would look like with a different exponent.

The package simulates state-vector dynamics where measurement probabilities
come from |amplitude|^p / sum |amplitude|^p for arbitrary p > 0, together
with the three normalization conventions for non-unitary evolution, and
turns the structural consequences into checkable code: which matrices
preserve a p-norm, how postselection and p != 2 measurement decide majority,
how non-orthogonal states become distinguishable, where signalling appears,
and which orthogonal matrices admit real square roots.
"""
from __future__ import annotations

__version__ = "0.1.0"

from .engine import (AmplitudeOverflow, Circuit, Gate, IllConditionedGate,
                     MeasurementRule, NonUnitaryInModeI, NormalizationMode,
                     StateVector, ZeroBranch, ZeroProbabilityBranch, apply_gate,
                     apply_nonlinear, basis_index, bell_pair, cnot, hadamard,
                     marginal_distribution, measure_distribution, pauli_x,
                     phase_twist_gate, phase_twist_map, postselect,
                     quadratic_gate, quadratic_map, run_circuit, sample)
from .linalg import (DecompositionError, NonPositiveP, NotOrthogonal,
                     NotOrthonormal, NotUnitary, OrthogonalBlock, PEqualsTwo,
                     blocks_det, blocks_to_matrix, complete_to_unitary,
                     haar_orthogonal, haar_special_orthogonal, is_real_orthogonal,
                     is_unitary, p_norm, rotation_block_decompose)
from .normlaws import (GenDiagVerdict, PreservationVerdict, UnsupportedP,
                       is_generalized_diagonal, island_scan,
                       phase_invariance_check, preserves_pnorm_formal_even,
                       preserves_pnorm_numeric)
from .pathsum import PathSumTooDeep, amplitude_recursive
from .postbqp import (BooleanFunction, GadgetReport, MajorityDecision,
                      OrDecision, PaddingViolation, count_state_exact,
                      count_state_weight, gadget_factor, gadget_size,
                      or_solve_nonunitary, plus_overlap,
                      plus_overlap_simulated, postbqp_decide,
                      postbqp_decide_pnorm, postselection_gadget,
                      prepare_count_state)
from .protocols import (DiscriminationSetup, SignallingReport,
                        build_discrimination_setup, discrimination_bound_check,
                        discrimination_distribution, discrimination_error,
                        discrimination_error_closed_form, discrimination_q,
                        option_i_ensembles, option_i_monte_carlo,
                        option_i_pairs_needed, sample_discrimination,
                        signalling_multistate_ii, signalling_option_i,
                        signalling_option_ii, steering_map, total_variation)
from .quaternion import Quaternion, quaternion_sqrt
from .report import CheckReport
from .roots import (SqrtResult, embed_sqrt, kth_root_scan,
                    real_orthogonal_sqrt, unitary_sqrt)

__all__ = [
    "__version__",
    # engine
    "AmplitudeOverflow", "Circuit", "Gate", "IllConditionedGate",
    "MeasurementRule", "NonUnitaryInModeI", "NormalizationMode", "StateVector", "ZeroBranch",
    "ZeroProbabilityBranch", "apply_gate", "apply_nonlinear", "basis_index",
    "bell_pair", "cnot", "hadamard", "marginal_distribution",
    "measure_distribution", "pauli_x", "phase_twist_gate", "phase_twist_map",
    "postselect", "quadratic_gate", "quadratic_map", "run_circuit", "sample",
    # linalg
    "DecompositionError", "NonPositiveP", "NotOrthogonal", "NotOrthonormal",
    "NotUnitary", "OrthogonalBlock", "blocks_det", "blocks_to_matrix",
    "complete_to_unitary", "haar_orthogonal", "haar_special_orthogonal",
    "is_real_orthogonal", "is_unitary", "p_norm", "rotation_block_decompose",
    # norm laws
    "GenDiagVerdict", "PreservationVerdict", "UnsupportedP",
    "is_generalized_diagonal", "island_scan", "phase_invariance_check",
    "preserves_pnorm_formal_even", "preserves_pnorm_numeric",
    # path sum
    "PathSumTooDeep", "amplitude_recursive",
    # postselection machinery
    "BooleanFunction", "GadgetReport", "MajorityDecision", "OrDecision",
    "PaddingViolation", "PEqualsTwo", "count_state_exact",
    "count_state_weight", "gadget_factor", "gadget_size",
    "or_solve_nonunitary", "plus_overlap", "plus_overlap_simulated",
    "postbqp_decide", "postbqp_decide_pnorm", "postselection_gadget",
    "prepare_count_state",
    # protocols
    "DiscriminationSetup", "SignallingReport", "build_discrimination_setup",
    "discrimination_bound_check", "discrimination_distribution",
    "discrimination_error", "discrimination_error_closed_form",
    "discrimination_q", "option_i_ensembles", "option_i_monte_carlo",
    "option_i_pairs_needed", "sample_discrimination",
    "signalling_multistate_ii", "signalling_option_i", "signalling_option_ii",
    "steering_map", "total_variation",
    # quaternions
    "Quaternion", "quaternion_sqrt",
    # reports
    "CheckReport",
    # roots
    "SqrtResult", "embed_sqrt", "kth_root_scan", "real_orthogonal_sqrt",
    "unitary_sqrt",
]
