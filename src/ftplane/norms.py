"""Polygonal norms on the plane: gauge, duality, unit-circle structure.

The unit ball is a centrally symmetric convex polygon with vertices listed
counterclockwise. Index conventions used by the whole package:

* edge ``k`` joins vertex ``k`` and vertex ``k + 1`` (mod ``m``),
* ``dual_vertices(norm)[k]`` is the unique unit functional whose level line
  ``phi = 1`` carries edge ``k``,
* the support functionals at vertex ``k`` sweep the dual edge from
  ``dual_vertices(norm)[k - 1]`` to ``dual_vertices(norm)[k]``.

A functional phi is a ``Vec2``, a point of the dual plane, with
phi(v) = phi.dot(v); ``Functional`` is that type's name on the dual side.
The norming set of a direction is one functional (the edge functional, for
a direction interior to an edge) or a ``FunctionalSegment`` (the dual edge,
for a vertex direction). The dual ball is a norm, ``_polar``: a functional's
dual norm is its gauge there, and its face, a dual vertex's edge, its snap.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InputError
from .geometry import DEFAULT_EPS, Vec2, check_eps, orient

_TWO_PI = 2.0 * math.pi
Functional = Vec2  # the dual plane's name for its points


@dataclass(frozen=True)
class VertexElement:
    """A unit-circle point that is a polygon vertex (zero-type element)."""

    index: int


@dataclass(frozen=True)
class EdgeElement:
    """A point of edge ``edge`` at parameter ``t`` in [0, 1]; at an end only
    where ``classify_direction`` clamps a rounded t."""

    edge: int
    t: float


UnitCircleElement = VertexElement | EdgeElement


@dataclass(frozen=True)
class FunctionalSegment:
    """All convex combinations of lo and hi; every member norms the vector."""

    lo: Functional
    hi: Functional

    def at(self, t: float) -> Functional:
        return Vec2(self.lo.x + t * (self.hi.x - self.lo.x),
                    self.lo.y + t * (self.hi.y - self.lo.y))

    @cached_property
    def _consts(self) -> tuple[tuple[float, float], float, float]:
        """hi - lo as an (x, y) pair, its length, and the larger length of lo and hi."""
        g = (self.hi.x - self.lo.x, self.hi.y - self.lo.y)
        return g, math.hypot(*g), max(self.lo.norm(), self.hi.norm())


FunctionalSet = Functional | FunctionalSegment


@dataclass(frozen=True)
class PolygonalNorm:
    """Norm whose unit ball is a validated symmetric convex polygon."""

    vertices: tuple[Vec2, ...]

    @property
    def m(self) -> int:
        return len(self.vertices)

    @cached_property
    def _memo(self) -> dict:
        """Immutable values by (type, vertex or edge index), built on first use:
        dual edges and cone shapes. Threads at worst build one twice."""
        return {}

    @cached_property
    def _duals(self) -> tuple[Functional, ...]:
        xs, ys = self._dual_array.T.tolist()
        return tuple(map(Vec2, xs, ys))

    @cached_property
    def _polar(self) -> PolygonalNorm:
        """The dual ball, a norm on functionals. Its vertices are the dual
        vertices, and its dual vertex k is vertex k + 1: the same objects."""
        polar = PolygonalNorm(self._duals)
        polar.__dict__["_duals"] = self.vertices[1:] + self.vertices[:1]
        return polar

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
        """m x 2, C order: d_k = (q.y - p.y, p.x - q.x) / (p x q), p, q = v_k, v_{k+1}."""
        p = self._vertex_array
        q = np.concatenate([p[1:], p[:1]])
        det = p[:, 0] * q[:, 1] - p[:, 1] * q[:, 0]
        out = np.empty((len(p), 2))
        out[:, 0] = (q[:, 1] - p[:, 1]) / det
        out[:, 1] = (p[:, 0] - q[:, 0]) / det
        return out

    @cached_property
    def _dual_columns(self) -> tuple[np.ndarray, np.ndarray]:
        """The x and y columns of ``_dual_array`` after a wrap row d_{m-1}:
        entry k + 1 is dual vertex k, so entry 0 is dual vertex -1."""
        d = self._dual_array
        return tuple(np.concatenate([d[-1:], d]).T.copy())

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
    def _radius(self) -> float:
        """max_k |v_k|, the ball's Euclidean circumradius."""
        return max(v.norm() for v in self.vertices)

    @cached_property
    def _breaklines(self) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
        """max_k |phi_k|, and the x, y and length arrays of the breakline
        directions (vertices 0 .. m/2 - 1)."""
        dirs = self.vertices[:len(self.vertices) // 2]
        return (max(f.norm() for f in self._duals),
                np.array([d.x for d in dirs], dtype=float),
                np.array([d.y for d in dirs], dtype=float),
                np.array([d.norm() for d in dirs], dtype=float))

    def _sector(self, x: float, y: float) -> int:
        """Index k of the edge whose angular sector contains direction (x, y)."""
        a = (math.atan2(y, x) - self._base_angle) % _TWO_PI
        return bisect_right(self._rel_angles, a) - 1

    def _sector_after(self, dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
        """1 + ``_sector`` of each direction (dx, dy), located with numpy arrays.

        np.arctan2 may differ from math.atan2 in the last bit, so a direction
        on a sector boundary can land in the neighbouring sector. The angle from
        vertex 0, in [-2pi, 2pi], folds to np.mod's float but for a zero's sign:
        2pi to 0, and a negative angle up by 2pi. The 2pi mask is taken first,
        as a tiny negative angle plus 2pi rounds to 2pi and stays there.
        """
        a = np.arctan2(dy, dx)
        a -= self._base_angle
        wrap = a >= _TWO_PI
        np.add(a, _TWO_PI, out=a, where=a < 0.0)
        np.subtract(a, _TWO_PI, out=a, where=wrap)
        return np.searchsorted(self._rel_array, a, side="right")


def _vertex(k: int, v) -> Vec2:
    try:
        return v if isinstance(v, Vec2) else Vec2(*map(float, v))
    except (TypeError, ValueError):
        raise InputError(f"vertex {k} must be a pair of numbers, got {v!r}") from None


def make_polygonal_norm(vertices: list[Vec2] | list[tuple[float, float]],
                        eps: float = DEFAULT_EPS) -> PolygonalNorm:
    """Validate a raw vertex list and build a norm.

    Accepts clockwise input (it is reversed); the starting vertex is kept so
    callers control the edge indexing.
    """
    check_eps(eps)
    verts = [_vertex(k, v) for k, v in enumerate(vertices)]
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
    # each edge turns counterclockwise about the origin by less than pi; the
    # turns sum to 2 pi for a simple polygon, to 2 pi w for one winding w times
    turn = sum(math.atan2(p.cross(q), p.dot(q)) for p, q in zip(verts, verts[1:] + verts[:1]))
    if turn > 3.0 * math.pi:
        raise InputError(f"vertices wind {round(turn / _TWO_PI)} times around the origin")
    return PolygonalNorm(tuple(verts))


def dual_vertices(norm: PolygonalNorm) -> tuple[Functional, ...]:
    """One unit functional per edge; entry k carries edge k."""
    return norm._duals


def dual_norm(norm: PolygonalNorm, phi: Functional) -> float:
    """Operator norm of phi, its largest value at a vertex: the dual ball's gauge."""
    return _gauge(norm._polar, phi.x, phi.y)


def gauge(norm: PolygonalNorm, v: Vec2) -> float:
    """Minkowski gauge of v: the scale at which v meets the polygon boundary.

    Located by binary search over the angular sectors of the edges; the
    value is the located edge functional applied to v.
    """
    return _gauge(norm, v.x, v.y)


def _gauge(norm: PolygonalNorm, x: float, y: float) -> float:
    if x == 0.0 and y == 0.0:
        return 0.0
    f = norm._duals[norm._sector(x, y)]
    val = f.x * x + f.y * y
    return val if not val <= 0.0 else 0.0  # NaN stays NaN, as in gauge_batch


def _edge_functionals(norm: PolygonalNorm, dx: np.ndarray,
                      dy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The x and y parts of the edge functional of each direction's sector,
    on the array route: ``_sector_after`` folds each angle once, and its
    sector + 1 indexes the dual columns, whose wrap row stands for sector -1."""
    k = norm._sector_after(dx, dy)
    fx, fy = norm._dual_columns
    return fx[k], fy[k]


def gauge_batch(norm: PolygonalNorm, dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """Vectorized gauge of displacement arrays, on ``_edge_functionals``."""
    fx, fy = _edge_functionals(norm, dx, dy)
    return np.maximum(fx * dx + fy * dy, 0.0)


def _snap(norm: PolygonalNorm, v: Vec2, eps: float) -> tuple[int, int | None]:
    """Sector k of direction v, and the vertex (k or k + 1) it snaps to, or None."""
    check_eps(eps)
    x, y = v.x, v.y
    if x == 0.0 and y == 0.0:
        raise InputError("cannot classify the zero vector")
    if not (math.isfinite(x) and math.isfinite(y)):
        raise InputError(f"cannot classify the non-finite vector {v}")
    k = norm._sector(x, y)
    return k, _snap_in(norm, x, y, k, eps)


def _snap_in(norm: PolygonalNorm, x: float, y: float, k: int, eps: float) -> int | None:
    """The vertex, k or k + 1, that direction (x, y) of sector k snaps to, or None."""
    r = math.hypot(x, y)
    for idx in (k, (k + 1) % norm.m):
        w = norm.vertices[idx]
        if abs(x * w.y - y * w.x) <= eps * r * w.norm() and x * w.x + y * w.y > 0.0:
            return idx
    return None


def _polar_face(norm: PolygonalNorm, phi: Functional,
                eps: float) -> tuple[float, int, int | None]:
    """``dual_norm(norm, phi)`` and ``_snap(norm._polar, phi, eps)`` from one
    sector lookup on the polar, without the snap's checks: a functional that
    is zero or not finite gets a dual norm but no meaningful face."""
    polar, x, y = norm._polar, phi.x, phi.y
    k = polar._sector(x, y)
    f = polar._duals[k]
    val = f.x * x + f.y * y  # _gauge's value: at the zero vector it is +-0, so 0.0
    return (val if not val <= 0.0 else 0.0), k, _snap_in(polar, x, y, k, eps)


def classify_direction(norm: PolygonalNorm, v: Vec2,
                       eps: float = DEFAULT_EPS) -> UnitCircleElement:
    """Classify the unit-circle point in direction v.

    A direction within eps (angularly) of a vertex snaps to that vertex, so
    behavior at the boundary is deterministic.
    """
    k, idx = _snap(norm, v, eps)
    if idx is not None:
        return VertexElement(idx)
    vhat = v * (1.0 / gauge(norm, v))
    a, b = norm.vertices[k], norm.vertices[(k + 1) % norm.m]
    d = b - a
    t = (vhat - a).dot(d) / d.dot(d)
    return EdgeElement(k, min(max(t, 0.0), 1.0))


def norming_set(norm: PolygonalNorm, v: Vec2,
                eps: float = DEFAULT_EPS) -> FunctionalSet:
    """All unit functionals phi with phi(v) = gauge(v).

    Edge-interior directions give the edge functional itself; vertex
    directions give the whole dual edge at that vertex, one object per vertex
    and norm.
    """
    k, idx = _snap(norm, v, eps)
    duals = norm._duals
    if idx is None:
        return duals[k]
    memo, key = norm._memo, (FunctionalSegment, idx)
    return memo.get(key) or memo.setdefault(key, FunctionalSegment(duals[idx - 1], duals[idx]))


def element_point(norm: PolygonalNorm, element: UnitCircleElement) -> Vec2:
    """Coordinates of a unit-circle element."""
    k = element.index if isinstance(element, VertexElement) else element.edge
    if not (isinstance(k, (int, np.integer)) and not isinstance(k, bool) and 0 <= k < norm.m):
        raise InputError(f"{element}: index is not an integer in 0..{norm.m - 1}")
    if isinstance(element, VertexElement):
        return norm.vertices[k]
    if not 0.0 <= element.t <= 1.0:
        raise InputError(f"{element}: t is not in [0, 1]")
    a, b = norm.vertices[k], norm.vertices[(k + 1) % norm.m]
    return a + (b - a) * element.t
