"""Planes normed by regular polygons and their triangle solutions.

A plane with parameter ``lam`` has a regular 2*lam-gon unit ball with a
vertex on the positive x axis. Solutions are unique for every three points
exactly when ``lam`` is not divisible by 3; for multiples of 3 the solution
set of an admissible triangle is governed by where the directions from the
Euclidean 120-degree point meet the unit circle.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .errors import CertificateError, InputError
from .geometry import DEFAULT_EPS, Vec2, orient
from .norms import PolygonalNorm, VertexElement, classify_direction
from .solver import FTSolution, ft_solve
from .uniqueness import Verdict, uniqueness_verdict

_THIRD = 2.0 * math.pi / 3.0


@dataclass(frozen=True)
class LambdaPlane:
    lam: int
    norm: PolygonalNorm


def make_lambda_norm(lam: int) -> LambdaPlane:
    """Regular 2*lam-gon of circumradius 1, vertex k at angle k*pi/lam."""
    if lam < 2:
        raise InputError(f"parameter must be >= 2, got {lam}")

    def vertex(k: int) -> Vec2:
        return Vec2(math.cos(k * math.pi / lam), math.sin(k * math.pi / lam))

    # make_polygonal_norm's convexity test on vertices 0..2, which every triple
    # repeats, run before 2*lam vertices exist; lam past the float range fails it
    if lam > sys.float_info.max or orient(*map(vertex, range(3)), DEFAULT_EPS) != 1:
        raise InputError(f"parameter {lam}: vertices not in strictly convex position")
    half = [vertex(k) for k in range(lam)]
    verts = half + [-v for v in half]  # mirrored half keeps symmetry exact
    return LambdaPlane(lam, PolygonalNorm(tuple(verts)))


def classify_lambda(lam: int, eps: float = DEFAULT_EPS) -> Verdict:
    """Uniqueness verdict for the 2*lam-gon plane, checked against lam mod 3."""
    plane = make_lambda_norm(lam)
    verdict = uniqueness_verdict(plane.norm, eps)
    if verdict.unique != (lam % 3 != 0):
        raise CertificateError(
            f"plane {lam}: verdict {'unique' if verdict.unique else 'non-unique'} "
            f"contradicts the mod-3 rule")
    return verdict


def _angle_at(a: Vec2, b: Vec2, c: Vec2) -> float:
    """Angle at vertex a of triangle abc, in [0, pi]."""
    u, w = b - a, c - a
    return math.atan2(abs(u.cross(w)), u.dot(w))


def torricelli_point(x1: Vec2, x2: Vec2, x3: Vec2,
                     eps: float = DEFAULT_EPS) -> Vec2 | None:
    """Euclidean point seeing all three sides under 120 degrees.

    Defined only for non-degenerate triangles with all angles strictly below
    120 degrees; built by crossing two lines to outer equilateral apexes.
    """
    if orient(x1, x2, x3, eps) == 0:
        return None
    pts = (x1, x2, x3)
    for i in range(3):
        if _angle_at(pts[i], pts[(i + 1) % 3], pts[(i + 2) % 3]) >= _THIRD - eps:
            return None
    e1 = _outer_apex(x2, x3, x1)
    e2 = _outer_apex(x3, x1, x2)
    d1, d2 = e1 - x1, e2 - x2
    den = d1.cross(d2)
    t = (x2 - x1).cross(d2) / den
    return x1 + d1 * t


def _outer_apex(a: Vec2, b: Vec2, opposite: Vec2) -> Vec2:
    mid = (a + b) * 0.5
    lift = (b - a).perp() * (math.sqrt(3.0) / 2.0)
    apex = mid + lift
    if orient(a, b, apex) == orient(a, b, opposite):
        apex = mid - lift
    return apex


def lambda_triangle_solution(lam: int, x1: Vec2, x2: Vec2, x3: Vec2,
                             eps: float = DEFAULT_EPS) -> FTSolution:
    """Solution set of an admissible triangle on a multiple-of-3 plane.

    Requires every angle strictly below 120 degrees and lam divisible by 3.
    When no direction from the 120-degree point hits a unit-ball vertex the
    solution set is a full polygon containing that point; when all three hit
    vertices it collapses to the point itself. The generic solver result is
    cross-checked against this prediction before being returned.
    """
    if lam % 3 != 0:
        raise InputError(f"parameter {lam} is not a multiple of 3")
    if orient(x1, x2, x3, eps) == 0:
        raise InputError("triangle is degenerate")
    pts = (x1, x2, x3)
    for i in range(3):
        if _angle_at(pts[i], pts[(i + 1) % 3], pts[(i + 2) % 3]) >= _THIRD - eps:
            raise InputError("triangle has an angle of 120 degrees or more")
    plane = make_lambda_norm(lam)
    p = torricelli_point(x1, x2, x3, eps)
    assert p is not None
    hits = sum(isinstance(classify_direction(plane.norm, q - p, eps), VertexElement)
               for q in pts)
    if hits not in (0, 3):
        raise CertificateError("directions from the 120-degree point hit a mix "
                               "of vertices and edges")
    solution = ft_solve(plane.norm, pts, eps)
    region = solution.region
    if hits == 3:
        if region.kind != "point" or (region.vertices[0] - p).norm() > 1e-6:
            raise CertificateError(
                f"expected the single point {p}, solver returned {region}")
    else:
        if region.kind != "polygon":
            raise CertificateError(f"expected a polygon, solver returned {region.kind}")
        n = len(region.vertices)
        for i in range(n):
            if orient(region.vertices[i], region.vertices[(i + 1) % n], p, eps) != 1:
                raise CertificateError("120-degree point is not strictly inside "
                                       "the solution polygon")
    return solution
