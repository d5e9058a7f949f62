"""Certified bracketing of joint/generalized spectral radii for finite
sets of nonnegative matrices, with Hadamard-product set algebra and
inequality-chain verification."""

from .errors import (CapExceeded, ConvergenceError, DimensionMismatch,
                     InstanceFormatError, RegimeError, SoundnessError)
from .matrices import (COL_SUM, ROW_SUM, SPECTRAL, RadiusBracket,
                       check_matrix, hadamard_power, hadamard_product,
                       induced_norm, matrix_product, spectral_radius_bracket,
                       transpose, weighted_hadamard_geometric_mean)
from .sets import (CONVEX, MEMBER_CAP, SUPER, MatrixSet, WeightVector,
                   canonicalize, cyclic_factor, dedupe, matrix_set,
                   set_adjoint, set_hadamard_mean, set_hadamard_power,
                   set_power, set_product, set_sum, sets_equal, symmetrize,
                   symmetrize_ab, uniform_weights)
from .radius import (WORD_CAP, GelfandSequence, SymmetrizationSequence,
                     gelfand_sequence, gen_radius_lower, joint_radius_upper,
                     radius_bracket_set, symmetrization_sequence,
                     symmetrization_sequence_ab)
from .chains import (THEOREM_IDS, ChainLink, ChainReport, assess,
                     chain_equalities_joint, chain_finally, chain_finally2,
                     chain_folge, chain_geom_sym, chain_huang,
                     chain_kathyprop_eq, chain_kathyprop_mat, chain_kathyth1,
                     chain_kathyth2, chain_powers, chain_refin,
                     chain_sym_mono, chain_zhan, run_theorem,
                     scalar_mitr_check)
from .instances import (GeneratorParams, SplitMix64, generate_instance,
                        parse_instance, serialize_instance)

__version__ = "0.1.0"

__all__ = [
    "CapExceeded", "ConvergenceError", "DimensionMismatch",
    "InstanceFormatError", "RegimeError", "SoundnessError",
    "COL_SUM", "ROW_SUM", "SPECTRAL", "RadiusBracket", "check_matrix",
    "hadamard_power", "hadamard_product", "induced_norm", "matrix_product",
    "spectral_radius_bracket", "transpose",
    "weighted_hadamard_geometric_mean",
    "CONVEX", "MEMBER_CAP", "SUPER", "MatrixSet", "WeightVector",
    "canonicalize", "cyclic_factor", "dedupe", "matrix_set", "set_adjoint",
    "set_hadamard_mean", "set_hadamard_power", "set_power", "set_product",
    "set_sum", "sets_equal", "symmetrize", "symmetrize_ab",
    "uniform_weights",
    "WORD_CAP", "GelfandSequence", "SymmetrizationSequence",
    "gelfand_sequence", "gen_radius_lower", "joint_radius_upper",
    "radius_bracket_set", "symmetrization_sequence",
    "symmetrization_sequence_ab",
    "THEOREM_IDS", "ChainLink", "ChainReport", "assess",
    "chain_equalities_joint", "chain_finally", "chain_finally2",
    "chain_folge", "chain_geom_sym", "chain_huang", "chain_kathyprop_eq",
    "chain_kathyprop_mat", "chain_kathyth1", "chain_kathyth2",
    "chain_powers", "chain_refin", "chain_sym_mono", "chain_zhan",
    "run_theorem", "scalar_mitr_check",
    "GeneratorParams", "SplitMix64", "generate_instance", "parse_instance",
    "serialize_instance",
]
