"""Radially weighted Besov spaces on the unit ball: norms, optimal
polynomial approximants, embeddings between dimensions, and certified
lower bounds for cyclicity questions."""

__version__ = "0.1.0"

from .scalars import ComplexRational, abs_sq, is_exact_scalar
from .poly import (
    SparsePoly,
    is_outer_1d,
    poly_from_literal,
    poly_to_literal,
    roots_1d,
    series_invert,
)
from .spaces import (
    BetaDensity,
    ConstantDensity,
    GeneralQuadrature,
    NormalizedVolume,
    PointMassAtOne,
    SpaceSpec,
    besov_da_ratio,
    dilation_contraction_gap,
    hardy_sphere_norm_sq,
    homogeneous_norms_sq,
    inner_product,
    measure_from_json,
    monomial_norm_sq,
    norm_sq,
    slice_norm_gap,
    space_from_json,
)
from .embeddings import (
    diagonal_projection,
    sk_coefficient,
    sk_coefficient_ratios,
    sum_squares_compose,
    tau_compose,
    tkd_monomial_norm_sq,
)
from .approx import (
    ApproximantResult,
    GramSystem,
    ProfilePoint,
    assemble_gram,
    cyclicity_profile,
    distance_profile,
    finite_section_mult_bound,
    graded_monomials,
    hc_profile,
    membership_profile,
    optimal_approximant,
    ratio_norm_sweep,
)
from .certify import (
    Certificate,
    CubeMeasure,
    DerivativeFunctional,
    dual_lower_bound,
    energy,
    energy_lower_bound,
    functional_norm,
)
from .experiments import (
    BUILTIN_EXPERIMENTS,
    ExperimentSpec,
    run_experiment,
    verify_lemma,
)

__all__ = [
    "__version__",
    "ComplexRational", "abs_sq", "is_exact_scalar",
    "SparsePoly", "is_outer_1d",
    "poly_from_literal", "poly_to_literal", "roots_1d", "series_invert",
    "BetaDensity", "ConstantDensity", "GeneralQuadrature", "NormalizedVolume",
    "PointMassAtOne", "SpaceSpec", "besov_da_ratio", "dilation_contraction_gap",
    "hardy_sphere_norm_sq", "homogeneous_norms_sq", "inner_product",
    "measure_from_json", "monomial_norm_sq", "norm_sq",
    "slice_norm_gap", "space_from_json",
    "diagonal_projection", "sk_coefficient", "sk_coefficient_ratios",
    "sum_squares_compose", "tau_compose", "tkd_monomial_norm_sq",
    "ApproximantResult", "GramSystem", "ProfilePoint", "assemble_gram",
    "cyclicity_profile", "distance_profile", "finite_section_mult_bound",
    "graded_monomials", "hc_profile", "membership_profile",
    "optimal_approximant", "ratio_norm_sweep",
    "Certificate", "CubeMeasure", "DerivativeFunctional",
    "dual_lower_bound", "energy", "energy_lower_bound", "functional_norm",
    "BUILTIN_EXPERIMENTS", "ExperimentSpec", "run_experiment", "verify_lemma",
]
