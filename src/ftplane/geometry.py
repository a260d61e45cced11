"""Tolerance-based planar primitives.

Coordinates are compared through an absolute tolerance ``eps`` (default
1e-9); the orientation predicate widens its zero band with the magnitude
of the coordinates involved. Every type is an immutable value and every
operation is a pure function, so results can be shared freely between
threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InputError

DEFAULT_EPS = 1e-9


def check_eps(eps: float) -> float:
    """Validate a comparison tolerance. Must satisfy 0 < eps < 1e-3."""
    if not (0.0 < eps < 1e-3):
        raise InputError(f"tolerance must lie in (0, 1e-3), got {eps!r}")
    return eps


@dataclass(frozen=True, slots=True)
class Vec2:
    """A point or direction in the plane."""

    x: float
    y: float

    def __add__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x - other.x, self.y - other.y)

    def __neg__(self) -> "Vec2":
        return Vec2(-self.x, -self.y)

    def __mul__(self, s: float) -> "Vec2":
        return Vec2(self.x * s, self.y * s)

    __rmul__ = __mul__

    def dot(self, other: "Vec2") -> float:
        return self.x * other.x + self.y * other.y

    def cross(self, other: "Vec2") -> float:
        return self.x * other.y - self.y * other.x

    def norm(self) -> float:
        """Euclidean length (used for tolerances, not the polygonal norm)."""
        return math.hypot(self.x, self.y)

    def perp(self) -> "Vec2":
        """Rotate by +90 degrees."""
        return Vec2(-self.y, self.x)

    def is_finite(self) -> bool:
        return math.isfinite(self.x) and math.isfinite(self.y)

    def key(self) -> tuple[float, float]:
        """Lexicographic sort key."""
        return (self.x, self.y)


ORIGIN = Vec2(0.0, 0.0)


def orient(a: Vec2, b: Vec2, c: Vec2, eps: float = DEFAULT_EPS) -> int:
    """Sign of the turn a -> b -> c: +1 counterclockwise, -1 clockwise.

    Returns 0 when the cross product is within ``eps`` times the longest
    side of the triple, i.e. when some point sits within ``eps`` of the
    line through the other two. Scaling by side length (not coordinate
    magnitude) keeps the predicate translation invariant, so thin but
    genuine regions far from the origin do not collapse.
    """
    cross = (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x)
    scale = max(abs(b.x - a.x), abs(b.y - a.y), abs(c.x - a.x),
                abs(c.y - a.y), abs(c.x - b.x), abs(c.y - b.y))
    if abs(cross) <= eps * scale:
        return 0
    return 1 if cross > 0.0 else -1


@dataclass(frozen=True)
class Region:
    """A convex set: empty, a point, a segment or a polygon.

    Polygon vertices are counterclockwise and start at the lexicographically
    smallest vertex; segment endpoints are in lexicographic order. Equal
    regions therefore compare bit-for-bit.
    """

    kind: str  # "empty" | "point" | "segment" | "polygon"
    vertices: tuple[Vec2, ...] = ()

    @staticmethod
    def empty() -> "Region":
        return Region("empty")

    @staticmethod
    def point(p: Vec2) -> "Region":
        return Region("point", (p,))

    @staticmethod
    def segment(a: Vec2, b: Vec2) -> "Region":
        lo, hi = sorted((a, b), key=Vec2.key)
        return Region("segment", (lo, hi))

    @staticmethod
    def polygon(vertices: list[Vec2] | tuple[Vec2, ...]) -> "Region":
        """Canonicalize a CCW vertex list to start at the smallest vertex."""
        verts = list(vertices)
        start = min(range(len(verts)), key=lambda i: verts[i].key())
        return Region("polygon", tuple(verts[start:] + verts[:start]))


def convex_hull(points: list[Vec2] | tuple[Vec2, ...], eps: float = DEFAULT_EPS) -> Region:
    """Convex hull, collapsed to a segment or point when degenerate."""
    if not points:
        raise InputError("convex hull needs at least one point")
    pts = sorted(points, key=Vec2.key)
    spread = max(pts[-1].x - pts[0].x,
                 max(p.y for p in pts) - min(p.y for p in pts))
    if spread <= eps:
        return Region.point(pts[0])

    def chain(seq: list[Vec2]) -> list[Vec2]:
        out: list[Vec2] = []
        for p in seq:
            while len(out) >= 2 and orient(out[-2], out[-1], p, eps) <= 0:
                out.pop()
            out.append(p)
        return out

    lower = chain(pts)
    upper = chain(pts[::-1])
    hull = lower[:-1] + upper[:-1]
    hull = _merge_close(hull, eps)
    hull = _drop_flat(hull, eps)
    if len(hull) == 1:
        return Region.point(hull[0])
    if len(hull) == 2:
        return Region.segment(hull[0], hull[1])
    return Region.polygon(hull)


def _merge_close(verts: list[Vec2], eps: float) -> list[Vec2]:
    """Remove cyclically consecutive vertices closer than eps."""
    out: list[Vec2] = []
    for v in verts:
        if out and (v - out[-1]).norm() <= eps:
            continue
        out.append(v)
    while len(out) >= 2 and (out[-1] - out[0]).norm() <= eps:
        out.pop()
    return out


def _drop_flat(verts: list[Vec2], eps: float) -> list[Vec2]:
    """Drop vertices that do not make a strict left turn (cyclically)."""
    changed = True
    while changed and len(verts) >= 3:
        changed = False
        n = len(verts)
        for i in range(n):
            if orient(verts[i - 1], verts[i], verts[(i + 1) % n], eps) <= 0:
                del verts[i]
                changed = True
                break
    return verts


@dataclass(frozen=True, slots=True)
class HalfPlane:
    """The set of points p with normal . p <= offset."""

    normal: Vec2
    offset: float

    def side(self, p: Vec2) -> float:
        """Signed violation: negative inside, positive outside."""
        return self.normal.dot(p) - self.offset

    def unit(self) -> "HalfPlane":
        n = self.normal.norm()
        return HalfPlane(Vec2(self.normal.x / n, self.normal.y / n), self.offset / n)


def _boundary_intersection(h1: HalfPlane, h2: HalfPlane,
                           a: Vec2, b: Vec2, sa: float, sb: float) -> Vec2:
    """Intersection of the boundary lines of h1 and h2.

    Falls back to interpolating along segment a-b (with side values sa, sb
    against h2) when the lines are nearly parallel.
    """
    det = h1.normal.x * h2.normal.y - h1.normal.y * h2.normal.x
    if abs(det) > 1e-14:
        x = (h1.offset * h2.normal.y - h2.offset * h1.normal.y) / det
        y = (h1.normal.x * h2.offset - h2.normal.x * h1.offset) / det
        return Vec2(x, y)
    t = sa / (sa - sb)
    return Vec2(a.x + t * (b.x - a.x), a.y + t * (b.y - a.y))


def _clip(poly: list[tuple[Vec2, HalfPlane]], h: HalfPlane,
          eps: float) -> list[tuple[Vec2, HalfPlane]]:
    """One Sutherland-Hodgman pass keeping the side h.side <= eps."""
    n = len(poly)
    sides = [h.side(v) for v, _ in poly]
    out: list[tuple[Vec2, HalfPlane]] = []
    for i in range(n):
        a, edge_hp = poly[i]
        b, _ = poly[(i + 1) % n]
        sa, sb = sides[i], sides[(i + 1) % n]
        a_in, b_in = sa <= eps, sb <= eps
        if a_in:
            out.append((a, edge_hp))
        if a_in != b_in:
            x = _boundary_intersection(edge_hp, h, a, b, sa, sb)
            # Leaving: the new edge runs along h. Entering: it continues
            # along the edge we were clipping.
            out.append((x, h) if a_in else ((x, edge_hp)))
    return out


def clip_polygon(vertices: list[Vec2], edge_halfplanes: list[HalfPlane],
                 halfplanes: list[HalfPlane], eps: float = DEFAULT_EPS) -> Region:
    """Clip a bounded convex CCW polygon by half-planes, classified by shape.

    ``edge_halfplanes[k]`` must carry the edge leaving ``vertices[k]``. Each
    output vertex is computed as the intersection of the two support lines
    that bound its edges, which keeps coordinates accurate even for slivers.
    Raises ValueError for a half-plane normal no longer than ``eps``.
    """
    for hp in halfplanes:
        if hp.normal.norm() <= eps:
            raise ValueError("half-plane normal is too short")
    poly = list(zip(vertices, (hp.unit() for hp in edge_halfplanes)))
    for hp in halfplanes:
        poly = _clip(poly, hp.unit(), eps)
        if not poly:
            return Region.empty()
    return convex_hull([v for v, _ in poly], eps)


def segment_interior_contains(a: Vec2, b: Vec2, q: Vec2,
                              eps: float = DEFAULT_EPS) -> bool:
    """True iff q lies on segment a-b strictly between the endpoints."""
    if orient(a, b, q, eps) != 0:
        return False
    if (q - a).norm() <= eps or (q - b).norm() <= eps:
        return False
    d = b - a
    t = (q - a).dot(d)
    return 0.0 < t < d.dot(d)
