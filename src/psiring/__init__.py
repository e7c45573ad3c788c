"""psiring: exact workbench for the multigraded section algebras of pointed
rational curves.

Construct the quadratic presentations (build_an, build_bnm), expand their
Hilbert series (lee_series and friends), and verify the quantitative claims
relating them: graded slice dimensions, Groebner-side standard monomial
counts and Krull dimensions, Koszul-dual dimension towers, and the geometry
of sampled rational points (vanishing, Jacobian ranks, singular loci).
"""

__version__ = "0.1.0"

from .errors import BudgetError, UsageError
from .fields import DEFAULT_PRIME, QQ, PrimeField, Rationals, TENSOR_PRIME, parse_field
from .geometry import (
    PointConfig,
    alpha_values,
    channels_consistent,
    jacobian_rank_at,
    pole_table,
    sample_config,
    singular_locus_dim,
    verify_vanishing,
)
from .groebner import (
    GroebnerBasis,
    buchberger,
    groebner_for,
    krull_dimension,
    normal_form,
)
from .koszul import dual_tower, koszul_prediction, koszul_summary
from .orders import MonomialOrder
from .presentation import (
    PivotScheme,
    PresentationSpec,
    build_an,
    build_bnm,
    tensor_relation_space,
)
from .series import (
    TruncatedSeries,
    curve_module_series,
    degree_grid,
    lee_coefficient,
    lee_series,
    lee_series_restricted,
    total_hilbert,
)
from .slices import SliceReport, slice_dimension, standard_monomial_count

__all__ = [
    "BudgetError", "UsageError",
    "DEFAULT_PRIME", "QQ", "PrimeField", "Rationals", "TENSOR_PRIME", "parse_field",
    "PointConfig", "alpha_values", "channels_consistent", "jacobian_rank_at",
    "pole_table", "sample_config", "singular_locus_dim", "verify_vanishing",
    "GroebnerBasis", "buchberger", "groebner_for", "krull_dimension",
    "normal_form",
    "dual_tower", "koszul_prediction", "koszul_summary",
    "MonomialOrder",
    "PivotScheme", "PresentationSpec", "build_an", "build_bnm",
    "tensor_relation_space",
    "TruncatedSeries", "curve_module_series", "degree_grid",
    "lee_coefficient", "lee_series", "lee_series_restricted", "total_hilbert",
    "SliceReport", "slice_dimension", "standard_monomial_count",
    "__version__",
]
