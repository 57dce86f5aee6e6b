"""Exact cohomology of bounded double complexes with real structure.

The package computes, over the Gaussian rationals and without any rounding,
every cohomology naturally attached to a bounded double complex (column, row,
total, Bott-Chern, Aeppli, and all pages of the two spectral sequences), and
realizes projective bundles, modifications and blow-ups at the level of
complexes.
"""

from .scalars import GaussianRational, gauss, parse_scalar, format_scalar
from .linalg import (
    Matrix,
    NotASubspace,
    NotWellDefined,
    image_basis,
    kernel_basis,
    rank,
    rref,
)
from .complexes import (
    DoubleComplex,
    Morphism,
    MorphismError,
    NotInjective,
    ShapeError,
    Violation,
    WindowTooSmall,
    direct_sum,
    direct_sum_many,
    dot,
    dual,
    quotient,
    random_complex,
    shift,
    square,
    tensor,
    transpose_complex,
    validate,
    zigzag,
)
from .cohomology import (
    CohomologyTable,
    E1Report,
    SpectralSequenceResult,
    aeppli,
    betti_vector,
    bott_chern,
    conjugate_dolbeault,
    de_rham,
    dolbeault,
    euler_characteristic,
    frolicher,
    induced_cohomology_map,
    is_E1_isomorphism,
)
from .models import (
    AlgebraModel,
    InvalidDimension,
    ModelSpec,
    ModelSyntaxError,
    NoTopClass,
    NonQuadraticTerm,
    NotADifferential,
    UnknownGenerator,
    format_model_spec,
    iwasawa,
    lie_algebra_model,
    parse_model_file,
    point,
    projective_space,
    serre_pairing_morphism,
    torus,
)
from .geometry import (
    BlowupResult,
    CodimensionTooSmall,
    InvalidRank,
    blow_up,
    exceptional_consistency_check,
    modification_summand_check,
    projective_bundle,
)
from .serialize import dumps_complex, loads_complex, parse_morphism_file

__version__ = "0.1.0"
