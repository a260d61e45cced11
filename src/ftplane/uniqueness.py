"""Non-uniqueness conditions and the uniqueness verdict for a norm.

Three unit-circle elements with support functionals summing to zero form a
consistent triple; support lines at vertices must touch the circle at that
vertex only. A triple made of three edge-interior elements (condition 1),
two edge-interior elements and a vertex (condition 2), or one edge-interior
element and an origin-symmetric vertex pair (condition 3) yields three
points whose solution set is a polygon or segment. A norm admits non-unique
three-point instances exactly when one of the conditions fires, and the
firing triple itself is the witness. Conditions 1 and 2 share one pass over
the edge pairs i < j that finds where -(d_i + d_j) lands on the dual polygon;
condition 3 tests each edge functional against each dual edge. All three are
numpy array passes over blocks of bounded size that repeat the scalar
predicates' floating-point operations, so they return the same triples as
pair-by-pair loops in O(m) memory.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import WitnessFailedError
from .geometry import DEFAULT_EPS, Region, Vec2, segment_interior_contains
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
    region: Region | None = None  # the witness's solution set, as validated


# Edge pairs (conditions 1 and 2) or (j, k) cells (condition 3) per block of
# the array passes; fixes their working memory.
_BLOCK = 2048


def _first_pair_hit(norm: PolygonalNorm, eps: float,
                    condition: int) -> ConsistentTriple | None:
    """First condition-1 or condition-2 triple in edge-pair order i < j, then ascending k.

    The pairs are numbered row by row and taken in blocks of ``_BLOCK``.
    psi = -(d_i + d_j) is located on the dual polygon with
    ``PolygonalNorm.sector_batch``; only the dual vertices and edges of its
    sector s and of s - 1, s + 1 and s + 2 can lie within eps of psi, and the
    window stays wide enough when the array route puts psi one sector off.
    The array predicates repeat the scalar floating-point operations, and
    condition 2's orient survivors go through ``segment_interior_contains``,
    so the triple is the one a pair-by-pair loop finds.
    """
    duals = dual_vertices(norm)
    m = norm.m
    dual_polygon = PolygonalNorm(tuple(d.as_vec() for d in duals))
    pts = dual_polygon.vertices
    px, py = norm._dual_array[:, 0], norm._dual_array[:, 1]
    # functional magnitudes grow as the polygon thins, so scale the zero test
    tol = eps * max(1.0, max(d.magnitude() for d in duals))
    rows = np.arange(m)
    row_start = rows * m - rows * (rows + 1) // 2
    n_pairs = m * (m - 1) // 2
    # the window of sector s, dual indices s - 1 .. s + 2 mod m in ascending order
    windows = np.sort((rows[:, None] + np.arange(-1, 3)) % m, axis=1)
    for start in range(0, n_pairs, _BLOCK):
        pair = np.arange(start, min(start + _BLOCK, n_pairs))
        i = np.searchsorted(row_start, pair, side="right") - 1
        j = pair - row_start[i] + i + 1
        qx, qy = -(px[i] + px[j]), -(py[i] + py[j])
        k = windows[dual_polygon.sector_batch(qx, qy)]
        qx, qy = qx[:, None], qy[:, None]
        bx, by = px[k], py[k]
        if condition == 1:
            # bx - qx is (d_i + d_j) + d_k bit for bit
            hit = (k > j[:, None]) & (np.abs(bx - qx) <= tol) & (np.abs(by - qy) <= tol)
        else:
            # orient(d_{k-1}, d_k, psi) == 0, the first test of segment_interior_contains
            ax, ay = px[k - 1], py[k - 1]
            cross = (bx - ax) * (qy - ay) - (by - ay) * (qx - ax)
            scale = np.maximum(np.maximum(np.abs(bx - ax), np.abs(by - ay)),
                               np.maximum(np.maximum(np.abs(qx - ax), np.abs(qy - ay)),
                                          np.maximum(np.abs(qx - bx), np.abs(qy - by))))
            hit = np.abs(cross) <= eps * scale
        for row, col in zip(*np.nonzero(hit)):
            i_, j_, k_ = int(i[row]), int(j[row]), int(k[row, col])
            if condition == 1:
                return ConsistentTriple((EdgeElement(i_, 0.5), EdgeElement(j_, 0.5),
                                         EdgeElement(k_, 0.5)),
                                        (duals[i_], duals[j_], duals[k_]), condition=1)
            psi = -(pts[i_] + pts[j_])
            if segment_interior_contains(pts[k_ - 1], pts[k_], psi, eps):
                return ConsistentTriple((EdgeElement(i_, 0.5), EdgeElement(j_, 0.5),
                                         VertexElement(k_)),
                                        (duals[i_], duals[j_], Functional(psi.x, psi.y)),
                                        condition=2)
    return None


def check_condition1(norm: PolygonalNorm,
                     eps: float = DEFAULT_EPS) -> ConsistentTriple | None:
    """First edge triple (i < j < k) whose functionals sum to zero."""
    return _first_pair_hit(norm, eps, 1)


def check_condition2(norm: PolygonalNorm,
                     eps: float = DEFAULT_EPS) -> ConsistentTriple | None:
    """Edge pair whose negated functional sum lands strictly inside a dual edge.

    The landing functional supports the circle at the paired vertex only,
    giving a triple of two edge-interior elements and one vertex. Landing on
    a dual-edge endpoint is excluded: that would be an edge functional and
    condition 1 territory.
    """
    return _first_pair_hit(norm, eps, 2)


def check_condition3(norm: PolygonalNorm,
                     eps: float = DEFAULT_EPS) -> ConsistentTriple | None:
    """Edge functional parallel to a dual edge and strictly shorter than it.

    Writing the edge functional as t times the dual-edge direction with
    0 < |t| < 1 lets the two vertex functionals sit strictly inside the dual
    edges at an origin-symmetric vertex pair while all three sum to zero.
    The parallel test runs as arrays over blocks of rows j; its survivors,
    in (j, k) order, meet the |t| margins one by one.
    """
    duals = dual_vertices(norm)
    m = norm.m
    half = m // 2
    steps = [duals[k] - duals[k - 1] for k in range(m)]
    ua = np.array([u.a for u in steps])
    ub = np.array([u.b for u in steps])
    u_len = np.array([u.magnitude() for u in steps])
    bound = eps * np.array([phi.magnitude() for phi in duals])
    pa, pb = norm._dual_array[:, 0, None], norm._dual_array[:, 1, None]
    per_block = max(1, _BLOCK // m)
    for start in range(0, m, per_block):
        rows = slice(start, start + per_block)
        parallel = ~(np.abs(pa[rows] * ub - pb[rows] * ua) > bound[rows, None] * u_len)
        for row, k in zip(*np.nonzero(parallel)):
            j, k = start + int(row), int(k)
            phi, a, u = duals[j], duals[k - 1], steps[k]
            um = u.magnitude()
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
        region = ft_solve(norm, witness, eps).region
        observed = region.kind
        ok = observed == expected if cond in (1, 3) else observed != "point"
        if not ok:
            raise WitnessFailedError(
                f"condition {cond} witness solved to {observed}, expected {expected}")
        return Verdict(False, triple, witness, expected, observed, region)
    return Verdict(True)
