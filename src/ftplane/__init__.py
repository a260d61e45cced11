"""Fermat-Torricelli problem on polygonal-norm planes.

Computes full solution sets (point / segment / polygon) with functional
certificates, decides whether solutions are unique for every three-point
input, and classifies planes normed by regular polygons.
"""

from .errors import CertificateError, InputError, PlaneError
from .geometry import (
    DEFAULT_EPS,
    Region,
    Vec2,
    convex_hull,
    orient,
    segment_interior_contains,
)
from .norms import (
    EdgeElement,
    Functional,
    FunctionalSegment,
    PolygonalNorm,
    VertexElement,
    classify_direction,
    dual_norm,
    dual_vertices,
    element_point,
    gauge,
    make_polygonal_norm,
    norming_set,
)
from .solver import (
    AngleShape,
    Certificate,
    Cone,
    FTSolution,
    RayShape,
    build_cones,
    candidate_minimize,
    check_certificate,
    collinear_median,
    ft_solve,
    intersect_cones,
    objective,
    verify_ft_point,
)
from .uniqueness import (
    ConsistentTriple,
    Verdict,
    check_condition1,
    check_condition2,
    check_condition3,
    uniqueness_verdict,
)
from .lambda_planes import (
    classify_lambda,
    lambda_triangle_solution,
    make_lambda_norm,
    torricelli_point,
)
from .render import render_svg

# grouped by defining module, in import order
__all__ = [
    "CertificateError", "InputError", "PlaneError",

    "DEFAULT_EPS", "Region", "Vec2", "convex_hull", "orient",
    "segment_interior_contains",

    "EdgeElement", "Functional", "FunctionalSegment", "PolygonalNorm",
    "VertexElement", "classify_direction", "dual_norm", "dual_vertices",
    "element_point", "gauge", "make_polygonal_norm", "norming_set",

    "AngleShape", "Certificate", "Cone", "FTSolution", "RayShape",
    "build_cones", "candidate_minimize", "check_certificate",
    "collinear_median", "ft_solve", "intersect_cones",
    "objective", "verify_ft_point",

    "ConsistentTriple", "Verdict", "check_condition1", "check_condition2",
    "check_condition3", "uniqueness_verdict",

    "classify_lambda", "lambda_triangle_solution", "make_lambda_norm",
    "torricelli_point",

    "render_svg",
]
