"""Brute-force verification: grid minimization and solution-set probing.

The grid oracle evaluates the gauge as the maximum of the edge functionals
(a different route than the solver's sector location), so agreement between
the two is a real cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from random import Random

import numpy as np

from .errors import InputError, PlaneError
from .geometry import DEFAULT_EPS, Region, Vec2, convex_hull
from .norms import PolygonalNorm, make_polygonal_norm


@dataclass(frozen=True)
class GridSpec:
    """Search grid: bounding box, cells per axis, zoom-in rounds.

    ``bbox`` of None means the terminal bounding box inflated by one norm
    unit. Every refinement round shrinks the box tenfold around the
    incumbent.
    """

    bbox: tuple[Vec2, Vec2] | None = None
    resolution: int = 400
    refine_rounds: int = 3

    def __post_init__(self):
        if self.resolution < 8:
            raise ValueError(f"resolution must be >= 8, got {self.resolution}")


@dataclass(frozen=True)
class ProbeReport:
    max_inside_deviation: float
    min_outside_excess: float


def _objective_grid(norm: PolygonalNorm, points, xs: np.ndarray,
                    ys: np.ndarray) -> np.ndarray:
    """Objective on the grid of axes xs and ys; row i holds y = ys[i].

    The gauge is the maximum of the edge functionals a*dx + b*dy. The
    products a*dx depend on the column alone and b*dy on the row alone, so
    they are taken on the axes and broadcast into buffers allocated once;
    every grid value is still a*dx + b*dy, maximized over the edges in order
    and summed over the terminals in order.
    """
    shape = (len(ys), len(xs))
    total = np.zeros(shape)
    best = np.empty(shape)
    level = np.empty(shape)
    for q in points:
        dx = xs - q.x
        dy = (ys - q.y)[:, None]
        best.fill(-np.inf)
        for a, b in norm._dual_array:
            np.add(a * dx, b * dy, out=level)
            np.maximum(best, level, out=best)
        total += best
    return total


def oracle_objective(norm: PolygonalNorm, points, x: Vec2) -> float:
    """Scalar objective via the max-of-functionals gauge."""
    total = 0.0
    for q in points:
        total += max(f(x - q) for f in norm._duals)
    return total


def auto_bbox(norm: PolygonalNorm, points) -> tuple[Vec2, Vec2]:
    """Terminal bounding box inflated by one norm unit on every side."""
    r = max(v.norm() for v in norm.vertices)
    xs = [q.x for q in points]
    ys = [q.y for q in points]
    return (Vec2(min(xs) - r, min(ys) - r), Vec2(max(xs) + r, max(ys) + r))


def grid_minimize(norm: PolygonalNorm, points,
                  grid: GridSpec | None = None) -> tuple[Vec2, float]:
    """Best grid point after the refinement rounds."""
    if not points:
        raise InputError("need at least one terminal")
    grid = grid or GridSpec()
    lo, hi = grid.bbox if grid.bbox is not None else auto_bbox(norm, points)
    res = grid.resolution
    best_pt = lo
    best_val = math.inf
    cx, cy = (lo.x + hi.x) / 2, (lo.y + hi.y) / 2
    wx, wy = hi.x - lo.x, hi.y - lo.y
    for _ in range(grid.refine_rounds + 1):
        xs = np.linspace(cx - wx / 2, cx + wx / 2, res + 1)
        ys = np.linspace(cy - wy / 2, cy + wy / 2, res + 1)
        vals = _objective_grid(norm, points, xs, ys)
        idx = int(vals.argmin())
        val = float(vals.flat[idx])
        if val < best_val:
            best_val = val
            row, col = divmod(idx, len(xs))
            best_pt = Vec2(float(xs[col]), float(ys[row]))
        cx, cy = best_pt.x, best_pt.y
        wx, wy = wx / 10, wy / 10
    return best_pt, best_val


def final_cell_diameter(norm: PolygonalNorm, points,
                        grid: GridSpec | None = None) -> float:
    """Diagonal of one cell of the last refinement grid."""
    grid = grid or GridSpec()
    lo, hi = grid.bbox if grid.bbox is not None else auto_bbox(norm, points)
    shrink = 10.0 ** grid.refine_rounds
    wx = (hi.x - lo.x) / shrink / grid.resolution
    wy = (hi.y - lo.y) / shrink / grid.resolution
    return math.hypot(wx, wy)


def probe_solution_set(norm: PolygonalNorm, points, region: Region,
                       value: float | None = None, samples: int = 64,
                       delta: float = 1e-6,
                       rng: Random | None = None) -> ProbeReport:
    """Compare objective values inside the region against pushed-out points.

    Inside samples (vertices, edge midpoints, random convex combinations)
    should match the optimal value; points pushed ``delta`` outward along
    the boundary normals should exceed it. A corrupted region shows up as a
    large inside deviation or a non-positive outside excess.
    """
    rng = rng or Random(0)
    verts = list(region.vertices)
    if not verts:
        raise InputError("cannot probe an empty region")
    if value is None:
        value = min(oracle_objective(norm, points, v) for v in verts)

    inside: list[Vec2] = list(verts)
    if region.kind == "segment":
        a, b = verts
        inside.append((a + b) * 0.5)
        for _ in range(samples):
            t = rng.random()
            inside.append(a + (b - a) * t)
    elif region.kind == "polygon":
        n = len(verts)
        for i in range(n):
            inside.append((verts[i] + verts[(i + 1) % n]) * 0.5)
        for _ in range(samples):
            ws = [rng.random() for _ in range(n)]
            tot = sum(ws)
            x = sum(w * v.x for w, v in zip(ws, verts)) / tot
            y = sum(w * v.y for w, v in zip(ws, verts)) / tot
            inside.append(Vec2(x, y))

    outside: list[Vec2] = []
    if region.kind == "point":
        p = verts[0]
        dirs = [Vec2(math.cos(2 * math.pi * k / 16), math.sin(2 * math.pi * k / 16))
                for k in range(16)]
        dirs += [v * (1.0 / v.norm()) for v in norm.vertices]
        outside = [p + d * delta for d in dirs]
    elif region.kind == "segment":
        a, b = verts
        d = b - a
        d = d * (1.0 / d.norm())
        n = d.perp()
        mid = (a + b) * 0.5
        for q in (a, mid, b):
            outside.append(q + n * delta)
            outside.append(q - n * delta)
        outside.append(a - d * delta)
        outside.append(b + d * delta)
    else:
        n = len(verts)
        for i in range(n):
            a, b = verts[i], verts[(i + 1) % n]
            edge = b - a
            out_n = Vec2(edge.y, -edge.x)
            out_n = out_n * (1.0 / out_n.norm())
            outside.append((a + b) * 0.5 + out_n * delta)
            outside.append(a + out_n * delta)

    dev = max(abs(oracle_objective(norm, points, q) - value) for q in inside)
    exc = min(oracle_objective(norm, points, q) - value for q in outside)
    return ProbeReport(dev, exc)


# --- random instances --------------------------------------------------------

def random_symmetric_norm(rng: Random, m: int | None = None,
                          eps: float = DEFAULT_EPS) -> PolygonalNorm:
    """Random centrally symmetric polygon norm with 4..20 vertices.

    Samples m/2 angles and radii in [0.5, 1.5], mirrors through the origin
    and takes the convex hull (which may drop sampled points that fall
    inside; symmetry survives, so the result just has fewer vertices).
    Rejected when the hull degenerates or loses symmetry, when the inradius
    drops below 0.5 (keeps the gauge 2-Lipschitz so grid-oracle error
    bounds hold) or when two vertices get angularly too close.
    """
    while True:
        mm = m if m is not None else 2 * rng.randint(2, 10)
        half = mm // 2
        angles = sorted(rng.uniform(0.0, math.pi) for _ in range(half))
        # radius band per norm: narrow bands keep many-vertex hulls alive,
        # wide bands give spiky low-count ones
        width = rng.uniform(0.02, 1.0)
        lo_r = rng.uniform(0.5, 1.5 - width)
        radii = [rng.uniform(lo_r, lo_r + width) for _ in range(half)]
        pts = [Vec2(r * math.cos(a), r * math.sin(a))
               for a, r in zip(angles, radii)]
        pts += [-p for p in pts]
        hull = convex_hull(pts, eps)
        if hull.kind != "polygon" or len(hull.vertices) < 4:
            continue
        try:
            norm = make_polygonal_norm(list(hull.vertices), eps)
        except PlaneError:
            continue
        if max(f.magnitude() for f in norm._duals) > 2.0:
            continue  # inradius below 0.5
        k = norm.m
        vert_angles = sorted(math.atan2(v.y, v.x) % (2 * math.pi)
                             for v in norm.vertices)
        gaps = [vert_angles[i + 1] - vert_angles[i] for i in range(k - 1)]
        gaps.append(2 * math.pi - (vert_angles[-1] - vert_angles[0]))
        if min(gaps) < 0.05:
            continue
        return norm


def random_points(rng: Random, n: int, low: float = -5.0,
                  high: float = 5.0) -> list[Vec2]:
    return [Vec2(rng.uniform(low, high), rng.uniform(low, high)) for _ in range(n)]


def random_instance(rng: Random) -> tuple[PolygonalNorm, list[Vec2]]:
    """A random norm with 3..7 random terminals in [-5, 5]^2."""
    norm = random_symmetric_norm(rng)
    return norm, random_points(rng, rng.randint(3, 7))
