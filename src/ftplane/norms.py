"""Polygonal norms on the plane: gauge, duality, unit-circle structure.

The unit ball is a centrally symmetric convex polygon with vertices listed
counterclockwise. Index conventions used by the whole package:

* edge ``k`` joins vertex ``k`` and vertex ``k + 1`` (mod ``m``),
* ``dual_vertices(norm)[k]`` is the unique unit functional whose level line
  ``phi = 1`` carries edge ``k``,
* the support functionals at vertex ``k`` sweep the dual edge from
  ``dual_vertices(norm)[k - 1]`` to ``dual_vertices(norm)[k]``.

Directions interior to an edge have exactly one norming functional (the
edge functional); vertex directions have a whole segment of them.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InputError
from .geometry import DEFAULT_EPS, Vec2, orient

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class Functional:
    """Linear functional phi(v) = a*v.x + b*v.y on the plane."""

    a: float
    b: float

    def __call__(self, v: Vec2) -> float:
        return self.a * v.x + self.b * v.y

    def __add__(self, other: "Functional") -> "Functional":
        return Functional(self.a + other.a, self.b + other.b)

    def __sub__(self, other: "Functional") -> "Functional":
        return Functional(self.a - other.a, self.b - other.b)

    def __neg__(self) -> "Functional":
        return Functional(-self.a, -self.b)

    def __mul__(self, s: float) -> "Functional":
        return Functional(self.a * s, self.b * s)

    __rmul__ = __mul__

    def as_vec(self) -> Vec2:
        """Coordinates of the functional as a point of the dual plane."""
        return Vec2(self.a, self.b)

    def magnitude(self) -> float:
        return math.hypot(self.a, self.b)


@dataclass(frozen=True)
class VertexElement:
    """A unit-circle point that is a polygon vertex (zero-type element)."""

    index: int


@dataclass(frozen=True)
class EdgeElement:
    """A point strictly inside edge ``edge`` at parameter ``t`` in (0, 1)."""

    edge: int
    t: float


UnitCircleElement = VertexElement | EdgeElement


@dataclass(frozen=True)
class UniqueFunctional:
    """Norming set with exactly one member."""

    phi: Functional


@dataclass(frozen=True)
class FunctionalSegment:
    """All convex combinations of lo and hi; every member norms the vector."""

    lo: Functional
    hi: Functional

    def at(self, t: float) -> Functional:
        return Functional(self.lo.a + t * (self.hi.a - self.lo.a),
                          self.lo.b + t * (self.hi.b - self.lo.b))


FunctionalSet = UniqueFunctional | FunctionalSegment


@dataclass(frozen=True)
class PolygonalNorm:
    """Norm whose unit ball is a validated symmetric convex polygon."""

    vertices: tuple[Vec2, ...]

    @property
    def m(self) -> int:
        return len(self.vertices)

    @cached_property
    def _duals(self) -> tuple[Functional, ...]:
        out = []
        verts = self.vertices
        m = len(verts)
        for k in range(m):
            p, q = verts[k], verts[(k + 1) % m]
            det = p.x * q.y - p.y * q.x  # positive: CCW with origin inside
            out.append(Functional((q.y - p.y) / det, (p.x - q.x) / det))
        return tuple(out)

    @cached_property
    def _base_angle(self) -> float:
        v0 = self.vertices[0]
        return math.atan2(v0.y, v0.x)

    @cached_property
    def _rel_angles(self) -> list[float]:
        """Vertex angles relative to vertex 0, strictly increasing in [0, 2pi)."""
        base = self._base_angle
        out = []
        for v in self.vertices:
            out.append((math.atan2(v.y, v.x) - base) % _TWO_PI)
        out[0] = 0.0
        return out

    @cached_property
    def _dual_array(self) -> np.ndarray:
        return np.array([[f.a, f.b] for f in self._duals], dtype=float)

    @cached_property
    def _vertex_array(self) -> np.ndarray:
        """m x 2, a transposed view: ``.T`` gives contiguous x and y rows."""
        verts = self.vertices
        return np.array([v.x for v in verts] + [v.y for v in verts],
                        dtype=float).reshape(2, -1).T

    @cached_property
    def _rel_array(self) -> np.ndarray:
        return np.array(self._rel_angles, dtype=float)

    @cached_property
    def _breaklines(self) -> tuple[float, float, np.ndarray, np.ndarray, np.ndarray]:
        """max_k |v_k|, max_k |phi_k|, and the x, y and length arrays of the
        breakline directions (vertices 0 .. m/2 - 1)."""
        dirs = self.vertices[:len(self.vertices) // 2]
        return (max(v.norm() for v in self.vertices),
                max(f.magnitude() for f in self._duals),
                np.array([d.x for d in dirs], dtype=float),
                np.array([d.y for d in dirs], dtype=float),
                np.array([d.norm() for d in dirs], dtype=float))

    def sector(self, v: Vec2) -> int:
        """Index k of the edge whose angular sector contains direction v."""
        a = (math.atan2(v.y, v.x) - self._base_angle) % _TWO_PI
        return bisect_right(self._rel_angles, a) - 1

    def sector_batch(self, dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
        """``sector`` of each direction (dx, dy), located with numpy arrays.

        np.arctan2 may differ from math.atan2 in the last bit, so a direction
        on a sector boundary can land in the neighbouring sector.
        """
        ang = np.mod(np.arctan2(dy, dx) - self._base_angle, _TWO_PI)
        return np.searchsorted(self._rel_array, ang, side="right") - 1


def make_polygonal_norm(vertices: list[Vec2] | list[tuple[float, float]],
                        eps: float = DEFAULT_EPS) -> PolygonalNorm:
    """Validate a raw vertex list and build a norm.

    Accepts clockwise input (it is reversed); the starting vertex is kept so
    callers control the edge indexing.
    """
    verts = [v if isinstance(v, Vec2) else Vec2(float(v[0]), float(v[1]))
             for v in vertices]
    if any(not v.is_finite() for v in verts):
        raise InputError("vertices must be finite")
    m = len(verts)
    if m % 2 == 1:
        raise InputError(f"vertex count must be even, got {m}")
    if m < 4:
        raise InputError(f"need at least 4 vertices, got {m}")
    area2 = sum(verts[k].cross(verts[(k + 1) % m]) for k in range(m))
    if area2 < 0.0:
        verts.reverse()
    for k in range(m):
        if orient(verts[k], verts[(k + 1) % m], verts[(k + 2) % m], eps) != 1:
            raise InputError(
                f"vertices {k}..{k + 2} are not in strictly convex position")
    half = m // 2
    for k in range(half):
        d = verts[k + half] + verts[k]
        if d.norm() > eps * max(1.0, verts[k].norm()):
            raise InputError(
                f"vertex {k + half} is not the reflection of vertex {k}")
    origin = Vec2(0.0, 0.0)
    for k in range(m):
        if orient(verts[k], verts[(k + 1) % m], origin, eps) != 1:
            raise InputError("origin is not strictly inside the polygon")
    return PolygonalNorm(tuple(verts))


def dual_vertices(norm: PolygonalNorm) -> tuple[Functional, ...]:
    """One unit functional per edge; entry k carries edge k."""
    return norm._duals


def dual_norms(norm: PolygonalNorm, funcs) -> tuple[np.ndarray, np.ndarray]:
    """Each functional (row) at each unit-ball vertex (column), and each
    row's maximum: the dual norms.

    An entry is the float ``phi.a * v.x + phi.b * v.y`` (elementwise, never
    ``@``, whose fused or reordered sums differ in the last bit; inf * 0 is a
    silent NaN, as in Python). A maximum is the row's first largest entry,
    as Python's ``max`` gives it, but NaN if the row holds one.
    """
    fa, fb = np.array([f.a for f in funcs] + [f.b for f in funcs],
                      dtype=float).reshape(2, -1, 1)
    vx, vy = norm._vertex_array.T
    with np.errstate(over="ignore", invalid="ignore"):
        table = fa * vx
        table += fb * vy
    return table, table.ravel()[table.argmax(axis=1) + np.arange(0, table.size, norm.m)]


def dual_norm(norm: PolygonalNorm, phi: Functional) -> float:
    """Operator norm of phi: max of phi over the unit-ball vertices."""
    return float(dual_norms(norm, (phi,))[1][0])


def gauge(norm: PolygonalNorm, v: Vec2, eps: float = DEFAULT_EPS) -> float:
    """Minkowski gauge of v: the scale at which v meets the polygon boundary.

    Located by binary search over the angular sectors of the edges; the
    value is the located edge functional applied to v.
    """
    if v.x == 0.0 and v.y == 0.0:
        return 0.0
    val = norm._duals[norm.sector(v)](v)
    return val if val > 0.0 else 0.0


def gauge_batch(norm: PolygonalNorm, dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """Vectorized gauge of displacement arrays, same sector-location route."""
    k = norm.sector_batch(dx, dy)
    duals = norm._dual_array
    out = duals[k, 0] * dx + duals[k, 1] * dy
    return np.maximum(out, 0.0)


def classify_direction(norm: PolygonalNorm, v: Vec2,
                       eps: float = DEFAULT_EPS) -> UnitCircleElement:
    """Classify the unit-circle point in direction v.

    A direction within eps (angularly) of a vertex snaps to that vertex, so
    behavior at the boundary is deterministic.
    """
    if v.x == 0.0 and v.y == 0.0:
        raise InputError("cannot classify the zero vector")
    k = norm.sector(v)
    m = norm.m
    vlen = v.norm()
    for idx in (k, (k + 1) % m):
        w = norm.vertices[idx]
        if abs(v.cross(w)) <= eps * vlen * w.norm() and v.dot(w) > 0.0:
            return VertexElement(idx)
    vhat = v * (1.0 / gauge(norm, v, eps))
    a, b = norm.vertices[k], norm.vertices[(k + 1) % m]
    d = b - a
    t = (vhat - a).dot(d) / d.dot(d)
    return EdgeElement(k, min(max(t, 0.0), 1.0))


def norming_set(norm: PolygonalNorm, v: Vec2,
                eps: float = DEFAULT_EPS) -> FunctionalSet:
    """All unit functionals phi with phi(v) = gauge(v).

    Edge-interior directions give the single edge functional; vertex
    directions give the whole dual edge at that vertex.
    """
    element = classify_direction(norm, v, eps)
    duals = norm._duals
    if isinstance(element, EdgeElement):
        return UniqueFunctional(duals[element.edge])
    k = element.index
    return FunctionalSegment(duals[k - 1], duals[k])


def element_point(norm: PolygonalNorm, element: UnitCircleElement) -> Vec2:
    """Coordinates of a unit-circle element."""
    if isinstance(element, VertexElement):
        return norm.vertices[element.index]
    a = norm.vertices[element.edge]
    b = norm.vertices[(element.edge + 1) % norm.m]
    return a + (b - a) * element.t
