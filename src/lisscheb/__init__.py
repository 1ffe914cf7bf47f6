"""Multivariate polynomial interpolation and quadrature on
Lissajous-Chebyshev node sets."""

from .congruence import DimensionVector, crt_solve, validate_pairwise_coprime
from .curves import (
    GeneralCurve,
    LCCurve,
    NormalForm,
    general_eval,
    is_degenerate,
    lc_eval,
    lc_eval_at_index,
    multiplicity_profile,
    normalize,
    sample_curve,
    self_intersection_counts,
    total_node_count,
)
from .errors import LisschebError
from .interp import (
    ChebExpansion,
    cheb_T_eval,
    expansion_eval,
    expansion_inner_product,
    fundamental,
    interpolate,
    kernel_eval,
)
from .nodes import (
    Node,
    NodeSet,
    NodeSpec,
    build_node_set,
    cgl_point,
    class_map_shifted,
    class_map_standard,
    variety_membership,
)
from .quad import exactness_table, integrate
from .spectral import GammaSet, build_gamma, involution, norm_sq
from .transform import (
    SampleVector,
    alias_integral,
    coefficients_naive,
)

__version__ = "0.1.0"

__all__ = [
    "ChebExpansion",
    "DimensionVector",
    "GammaSet",
    "GeneralCurve",
    "LCCurve",
    "LisschebError",
    "Node",
    "NodeSet",
    "NodeSpec",
    "NormalForm",
    "SampleVector",
    "alias_integral",
    "build_gamma",
    "build_node_set",
    "cgl_point",
    "cheb_T_eval",
    "class_map_shifted",
    "class_map_standard",
    "coefficients_naive",
    "crt_solve",
    "exactness_table",
    "expansion_eval",
    "expansion_inner_product",
    "fundamental",
    "general_eval",
    "integrate",
    "interpolate",
    "involution",
    "is_degenerate",
    "kernel_eval",
    "lc_eval",
    "lc_eval_at_index",
    "multiplicity_profile",
    "norm_sq",
    "normalize",
    "sample_curve",
    "self_intersection_counts",
    "total_node_count",
    "validate_pairwise_coprime",
    "variety_membership",
]
