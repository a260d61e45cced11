"""Non-uniqueness conditions and the uniqueness verdict for a norm.

Three unit-circle elements with support functionals summing to zero form a
consistent triple; support lines at vertices must touch the circle at that
vertex only. A triple made of three edge-interior elements (condition 1),
two edge-interior elements and a vertex (condition 2), or one edge-interior
element and an origin-symmetric vertex pair (condition 3) yields three
points whose solution set is a polygon or segment. A norm admits non-unique
three-point instances exactly when one of the conditions fires, and the
firing triple itself is the witness. Conditions 1 and 2 are one pass over
the edge pairs i < j that finds where -(d_i + d_j) lands on the dual polygon.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

from .errors import WitnessFailedError
from .geometry import DEFAULT_EPS, Vec2, segment_interior_contains
from .norms import (
    EdgeElement,
    Functional,
    PolygonalNorm,
    UnitCircleElement,
    VertexElement,
    dual_vertices,
    element_point,
)
from .solver import ft_solve


@dataclass(frozen=True)
class ConsistentTriple:
    elements: tuple[UnitCircleElement, UnitCircleElement, UnitCircleElement]
    functionals: tuple[Functional, Functional, Functional]
    condition: int


@dataclass(frozen=True)
class Verdict:
    """Outcome of the three-point uniqueness test for a norm."""

    unique: bool
    triple: ConsistentTriple | None = None
    witness: tuple[Vec2, Vec2, Vec2] | None = None
    expected_kind: str | None = None  # "polygon" | "segment"
    observed_kind: str | None = None


def _pair_hits(norm: PolygonalNorm, eps: float) -> Iterator[ConsistentTriple]:
    """Condition 1 and 2 triples in edge-pair order i < j, then ascending k.

    psi = -(d_i + d_j) is located by the sector search ``gauge`` uses, in
    O(m^2 log m) time and O(m) memory; only the dual vertices and edges of
    its sector and the two beside it can lie within eps of psi.
    """
    duals = dual_vertices(norm)
    m = norm.m
    dual_polygon = PolygonalNorm(tuple(d.as_vec() for d in duals))
    pts = dual_polygon.vertices
    # functional magnitudes grow as the polygon thins, so scale the zero test
    tol = eps * max(1.0, max(d.magnitude() for d in duals))
    for i in range(m):
        for j in range(i + 1, m):
            psi = -(pts[i] + pts[j])  # d_k - psi is (d_i + d_j) + d_k bit for bit
            s = dual_polygon.sector(psi)
            for k in sorted({(s + t) % m for t in (-1, 0, 1, 2)}):
                if k > j and abs(pts[k].x - psi.x) <= tol and abs(pts[k].y - psi.y) <= tol:
                    yield ConsistentTriple((EdgeElement(i, 0.5), EdgeElement(j, 0.5),
                                            EdgeElement(k, 0.5)),
                                           (duals[i], duals[j], duals[k]), condition=1)
                if segment_interior_contains(pts[k - 1], pts[k], psi, eps):
                    yield ConsistentTriple((EdgeElement(i, 0.5), EdgeElement(j, 0.5),
                                            VertexElement(k)),
                                           (duals[i], duals[j], Functional(psi.x, psi.y)),
                                           condition=2)


def check_condition1(norm: PolygonalNorm,
                     eps: float = DEFAULT_EPS) -> ConsistentTriple | None:
    """First edge triple (i < j < k) whose functionals sum to zero."""
    return next((t for t in _pair_hits(norm, eps) if t.condition == 1), None)


def check_condition2(norm: PolygonalNorm,
                     eps: float = DEFAULT_EPS) -> ConsistentTriple | None:
    """Edge pair whose negated functional sum lands strictly inside a dual edge.

    The landing functional supports the circle at the paired vertex only,
    giving a triple of two edge-interior elements and one vertex. Landing on
    a dual-edge endpoint is excluded: that would be an edge functional and
    condition 1 territory.
    """
    return next((t for t in _pair_hits(norm, eps) if t.condition == 2), None)


def check_condition3(norm: PolygonalNorm,
                     eps: float = DEFAULT_EPS) -> ConsistentTriple | None:
    """Edge functional parallel to a dual edge and strictly shorter than it.

    Writing the edge functional as t times the dual-edge direction with
    0 < |t| < 1 lets the two vertex functionals sit strictly inside the dual
    edges at an origin-symmetric vertex pair while all three sum to zero.
    """
    duals = dual_vertices(norm)
    m = norm.m
    half = m // 2
    for j in range(m):
        phi = duals[j]
        pm = phi.magnitude()
        for k in range(m):
            a = duals[k - 1]
            u = duals[k] - a
            um = u.magnitude()
            if abs(phi.a * u.b - phi.b * u.a) > eps * pm * um:
                continue
            t = (phi.a * u.a + phi.b * u.b) / (um * um)
            margin = eps / um
            if not (2 * margin < abs(t) < 1.0 - 2 * margin):
                continue
            s, r = (1.0 - t) / 2.0, (1.0 + t) / 2.0
            psi1 = a + u * s
            psi2 = -(a + u * r)
            return ConsistentTriple(
                (EdgeElement(j, 0.5), VertexElement(k),
                 VertexElement((k + half) % m)),
                (phi, psi1, psi2),
                condition=3,
            )
    return None


_CHECKS = ((1, check_condition1), (2, check_condition2), (3, check_condition3))


def uniqueness_verdict(norm: PolygonalNorm,
                       eps: float = DEFAULT_EPS) -> Verdict:
    """Run the conditions in order and validate the first firing witness.

    The witness points are the triple's unit-circle elements themselves.
    Condition 1 must solve to a polygon, condition 3 to a segment;
    condition 2 must solve to something other than a point.
    """
    for cond, checker in _CHECKS:
        triple = checker(norm, eps)
        if triple is None:
            continue
        witness = tuple(element_point(norm, e) for e in triple.elements)
        expected = "polygon" if cond == 1 else "segment"
        observed = ft_solve(norm, witness, eps).region.kind
        ok = observed == expected if cond in (1, 3) else observed != "point"
        if not ok:
            raise WitnessFailedError(
                f"condition {cond} witness solved to {observed}, expected {expected}")
        return Verdict(False, triple, witness, expected, observed)
    return Verdict(True)
