"""metricat: finite weighted categories over exact rationals.

The core object is the metric 1-space: a finite category with one extended
non-negative rational weight per arrow, identities weighing 0, and the full
triangle inequality |w(g) - w(f)| <= w(g after f) <= w(g) + w(f) on every
composable pair.  Everything downstream (coarse metrization, limits of
sequences and series, continuity, mapping spaces, dagger symmetry, fixed
points, and Gromov-Hausdorff geometry) is computed exactly.
"""
from .errors import InputFormatError, PreconditionError, SizeGuardError, TheoremViolation
from .fincat import (
    Arrow,
    FiniteCategory,
    Functor,
    NatTransformation,
    Obj,
    ValidationReport,
    build_category,
    identity_functor,
    identity_transformation,
    indiscrete,
    is_groupoid,
    opposite,
    opposite_functor,
    terminal_category,
    validate_category,
    validate_functor,
    validate_transformation,
    vertical_compose,
)
from .metricspace import FiniteMetricSpace, line_metric
from .weight import INF, ZERO, Weight
from .weights import (
    LawvereSpace,
    Metric1Space,
    asymmetry_defect,
    from_metric_space,
    is_locally_finite,
    is_nondegenerate,
    lawvere,
    opposite_space,
    validate_metric1,
)

__all__ = [
    "Arrow",
    "FiniteCategory",
    "FiniteMetricSpace",
    "Functor",
    "INF",
    "InputFormatError",
    "LawvereSpace",
    "Metric1Space",
    "NatTransformation",
    "Obj",
    "PreconditionError",
    "SizeGuardError",
    "TheoremViolation",
    "ValidationReport",
    "Weight",
    "ZERO",
    "asymmetry_defect",
    "build_category",
    "from_metric_space",
    "identity_functor",
    "identity_transformation",
    "indiscrete",
    "is_groupoid",
    "is_locally_finite",
    "is_nondegenerate",
    "lawvere",
    "line_metric",
    "opposite",
    "opposite_functor",
    "opposite_space",
    "terminal_category",
    "validate_category",
    "validate_functor",
    "validate_metric1",
    "validate_transformation",
    "vertical_compose",
]
