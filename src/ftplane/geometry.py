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


@dataclass(frozen=True, slots=True, init=False)
class Vec2:
    """A point or direction in the plane."""

    x: float
    y: float

    def __init__(self, x: float, y: float) -> None:
        # the slots' own setters, past the frozen __setattr__, as the
        # generated __init__ does through object.__setattr__ at more cost
        _set_x(self, x)
        _set_y(self, y)

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


_set_x, _set_y = Vec2.x.__set__, Vec2.y.__set__


def finite_spans(points: list[Vec2] | tuple[Vec2, ...]) -> bool:
    """True iff every coordinate of the (non-empty) points and their x and y
    spans are finite; the solver subtracts coordinates, so a span must be too."""
    xs, ys = [p.x for p in points], [p.y for p in points]
    return all(map(math.isfinite, xs + ys + [max(xs) - min(xs), max(ys) - min(ys)]))


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
    if not math.isfinite(cross) and 0.0 < scale < math.inf:  # a product overflowed
        e = -math.frexp(scale)[1]  # decide on the differences scaled by 2^-e, exactly
        ux, uy, wx, wy = (math.ldexp(t, e) for t in (b.x - a.x, b.y - a.y, c.x - a.x, c.y - a.y))
        cross, scale = ux * wy - uy * wx, math.ldexp(scale, e)
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
    check_eps(eps)
    if not points:
        raise InputError("convex hull needs at least one point")
    if not finite_spans(points):
        raise InputError("coordinates and their spans must be finite")
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


def _clip(poly: list[tuple[float, float, tuple[float, float, float]]],
          h: tuple[float, float, float], eps: float) -> list:
    """One Sutherland-Hodgman pass keeping n . v - offset <= eps for the unit
    h = (nx, ny, offset), on vertices (x, y, edge), the edge leaving each one a
    unit triple too; ``poly`` itself when every vertex is kept, as the pass
    would copy it edge by edge."""
    hx, hy, ho = h
    sides = [hx * x + hy * y - ho for x, y, _ in poly]
    if all(s <= eps for s in sides):  # not max(sides): a NaN side drops its vertex
        return poly
    n = len(poly)
    out = []
    for i in range(n):
        a = ax, ay, edge = poly[i]
        sa, sb = sides[i], sides[(i + 1) % n]
        a_in = sa <= eps
        if a_in:
            out.append(a)
        if a_in != (sb <= eps):
            ex, ey, eo = edge
            det = ex * hy - ey * hx
            if abs(det) > 1e-14:
                x, y = (eo * hy - ho * ey) / det, (ex * ho - hx * eo) / det
            else:  # nearly parallel: interpolate the sides along the edge a-b
                bx, by, _ = poly[(i + 1) % n]
                t = sa / (sa - sb)
                x, y = ax + t * (bx - ax), ay + t * (by - ay)
            # Leaving: the new edge runs along h. Entering: it continues
            # along the edge we were clipping.
            out.append((x, y, h if a_in else edge))
    return out


def _unit(nx: float, ny: float, offset: float) -> tuple[float, float, float]:
    n = math.hypot(nx, ny)
    return nx / n, ny / n, offset / n


def clip_polygon(vertices: list[tuple[float, float]], edges: list[tuple[float, float, float]],
                 halfplanes: list[tuple[float, float, float]], eps: float = DEFAULT_EPS) -> Region:
    """Clip a bounded convex CCW polygon by half-planes, classified by shape.

    Vertices are (x, y) pairs; ``edges[k]`` must carry the edge leaving
    ``vertices[k]``, and it and each half-plane are (nx, ny, offset) triples,
    the points p with n . p <= offset. Each output vertex is computed as the
    intersection of the two support lines that bound its edges, which keeps
    coordinates accurate even for slivers. Raises InputError for a
    half-plane normal no longer than ``eps``.
    """
    if any(math.hypot(nx, ny) <= eps for nx, ny, _ in halfplanes):
        raise InputError("half-plane normal is too short")
    poly = [(x, y, _unit(*e)) for (x, y), e in zip(vertices, edges)]
    for h in halfplanes:
        poly = _clip(poly, _unit(*h), eps)
        if not poly:
            return Region.empty()
    return convex_hull([Vec2(x, y) for x, y, _ in poly], eps)


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
