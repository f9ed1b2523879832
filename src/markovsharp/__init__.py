"""Sharp Markov constants and extremal polynomials for weighted L2 and
weighted Sobolev norms over classical and generalized weights."""

from .bounds import (
    BoundCheck,
    ExponentReport,
    FIT_SLACK,
    gen_hermite_exponent,
    gen_laguerre_exponent,
    growth_fit,
    lupas_constant,
    lupas_growth_exponent,
    verify_theorem,
)
from .errors import (
    EigenError,
    HypothesisError,
    MarkovSharpError,
    QuadratureError,
    WeightError,
)
from .linalg import svd_largest
from .markov import (
    SharpResult,
    SobolevSpec,
    derivative_matrix,
    extremal_polynomial,
    mirsky_bound,
    mirsky_bounds,
    sharp_constant_l2,
    sharp_constant_sobolev,
    sharp_constants,
    sobolev_gram,
)
from .orthopoly import (
    RecurrenceTable,
    WeightSpec,
    eval_orthonormal,
    make_weight,
    recurrence_classical,
    weight_to_json,
)
from .quadrature import QuadRule, composite_rules, gauss_rule

__version__ = "0.1.0"

__all__ = [
    "BoundCheck",
    "EigenError",
    "ExponentReport",
    "FIT_SLACK",
    "HypothesisError",
    "MarkovSharpError",
    "QuadRule",
    "QuadratureError",
    "RecurrenceTable",
    "SharpResult",
    "SobolevSpec",
    "WeightError",
    "WeightSpec",
    "composite_rules",
    "derivative_matrix",
    "eval_orthonormal",
    "extremal_polynomial",
    "gauss_rule",
    "gen_hermite_exponent",
    "gen_laguerre_exponent",
    "growth_fit",
    "lupas_constant",
    "lupas_growth_exponent",
    "make_weight",
    "mirsky_bound",
    "mirsky_bounds",
    "recurrence_classical",
    "sharp_constant_l2",
    "sharp_constant_sobolev",
    "sharp_constants",
    "sobolev_gram",
    "svd_largest",
    "verify_theorem",
    "weight_to_json",
]
