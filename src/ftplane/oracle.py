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
from .geometry import Region, Vec2, convex_hull, finite_spans
from .norms import PolygonalNorm, make_polygonal_norm


# The search grid: cells per axis, and zoom rounds that each shrink the box
# tenfold around the incumbent.
_RESOLUTION = 400
_REFINE_ROUNDS = 3


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
    and summed over the terminals in order; an overflow gives inf or NaN.
    """
    shape = (len(ys), len(xs))
    total = np.zeros(shape)
    best = np.empty(shape)
    level = np.empty(shape)
    with np.errstate(over="ignore", invalid="ignore"):
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
        total += max(f.dot(x - q) for f in norm._duals)
    return total


def auto_bbox(norm: PolygonalNorm, points) -> tuple[Vec2, Vec2]:
    """Terminal bounding box inflated by one norm unit on every side."""
    if not points:
        raise InputError("need at least one terminal")
    if not finite_spans(points):
        raise InputError("coordinates and their spans must be finite")
    r = max(v.norm() for v in norm.vertices)
    xs = [q.x for q in points]
    ys = [q.y for q in points]
    return (Vec2(min(xs) - r, min(ys) - r), Vec2(max(xs) + r, max(ys) + r))


def grid_minimize(norm: PolygonalNorm, points) -> tuple[Vec2, float]:
    """Best grid point after the refinement rounds, starting from ``auto_bbox``.
    Raises InputError if a round's least value overflows."""
    lo, hi = auto_bbox(norm, points)
    best_pt = lo
    best_val = math.inf
    cx, cy = (lo.x + hi.x) / 2, (lo.y + hi.y) / 2
    wx, wy = hi.x - lo.x, hi.y - lo.y
    for _ in range(_REFINE_ROUNDS + 1):
        xs = np.linspace(cx - wx / 2, cx + wx / 2, _RESOLUTION + 1)
        ys = np.linspace(cy - wy / 2, cy + wy / 2, _RESOLUTION + 1)
        vals = _objective_grid(norm, points, xs, ys)
        idx = int(vals.argmin())
        val = float(vals.flat[idx])  # NaN if any value is
        if not math.isfinite(val):
            raise InputError(f"the objective overflows: its least grid value is {val}")
        if val < best_val:
            best_val = val
            row, col = divmod(idx, len(xs))
            best_pt = Vec2(float(xs[col]), float(ys[row]))
        cx, cy = best_pt.x, best_pt.y
        wx, wy = wx / 10, wy / 10
    return best_pt, best_val


def final_cell_diameter(norm: PolygonalNorm, points) -> float:
    """Diagonal of one cell of the last refinement grid."""
    lo, hi = auto_bbox(norm, points)
    shrink = 10.0 ** _REFINE_ROUNDS
    wx = (hi.x - lo.x) / shrink / _RESOLUTION
    wy = (hi.y - lo.y) / shrink / _RESOLUTION
    return math.hypot(wx, wy)


def probe_solution_set(norm: PolygonalNorm, points, region: Region,
                       value: float | None = None, delta: float = 1e-6) -> ProbeReport:
    """Compare objective values inside the region against pushed-out points.

    Inside samples (vertices, edge midpoints, 64 random convex combinations
    drawn from ``Random(0)``) should match the optimal value; points pushed
    ``delta`` outward along the boundary normals should exceed it. A
    corrupted region shows up as a large inside deviation or a non-positive
    outside excess. Raises InputError if the value or a probed one overflows.
    """
    rng = Random(0)
    verts = list(region.vertices)
    if not verts:
        raise InputError("cannot probe an empty region")
    if value is None:
        value = min(oracle_objective(norm, points, v) for v in verts)

    inside: list[Vec2] = list(verts)
    if region.kind == "point":
        dirs = [Vec2(math.cos(2 * math.pi * k / 16), math.sin(2 * math.pi * k / 16))
                for k in range(16)]
        dirs += [v * (1.0 / v.norm()) for v in norm.vertices]
        outside = [verts[0] + d * delta for d in dirs]
    elif region.kind == "segment":
        a, b = verts
        mid = (a + b) * 0.5
        inside += [mid] + [a + (b - a) * rng.random() for _ in range(64)]
        d = b - a
        d = d * (1.0 / d.norm())
        n = d.perp()
        outside = [r for q in (a, mid, b) for r in (q + n * delta, q - n * delta)]
        outside += [a - d * delta, b + d * delta]
    else:
        edges = list(zip(verts, verts[1:] + verts[:1]))
        inside += [(a + b) * 0.5 for a, b in edges]
        for _ in range(64):
            ws = [rng.random() for _ in verts]
            tot = sum(ws)
            inside.append(Vec2(sum(w * v.x for w, v in zip(ws, verts)) / tot,
                               sum(w * v.y for w, v in zip(ws, verts)) / tot))
        outside = []
        for a, b in edges:
            out_n = Vec2(b.y - a.y, -(b.x - a.x))
            out_n = out_n * (1.0 / out_n.norm())
            outside += [(a + b) * 0.5 + out_n * delta, a + out_n * delta]

    got = [oracle_objective(norm, points, q) for q in inside + outside]
    if bad := [v for v in [value] + got if not math.isfinite(v)]:
        raise InputError(f"the objective overflows: the value or a probed one is {bad[0]}")
    return ProbeReport(max(abs(v - value) for v in got[:len(inside)]),
                       min(v - value for v in got[len(inside):]))


# --- random instances --------------------------------------------------------

def random_symmetric_norm(rng: Random) -> PolygonalNorm:
    """Random centrally symmetric polygon norm with 4..20 vertices.

    Samples 2..10 angles and radii in [0.5, 1.5], mirrors through the origin
    and takes the convex hull (which may drop sampled points that fall
    inside; symmetry survives, so the result just has fewer vertices).
    Rejected when the hull degenerates or loses symmetry, when the inradius
    drops below 0.5 (keeps the gauge 2-Lipschitz so grid-oracle error
    bounds hold) or when two vertices get angularly too close.
    """
    while True:
        half = rng.randint(2, 10)
        angles = sorted(rng.uniform(0.0, math.pi) for _ in range(half))
        # radius band per norm: narrow bands keep many-vertex hulls alive,
        # wide bands give spiky low-count ones
        width = rng.uniform(0.02, 1.0)
        lo_r = rng.uniform(0.5, 1.5 - width)
        radii = [rng.uniform(lo_r, lo_r + width) for _ in range(half)]
        pts = [Vec2(r * math.cos(a), r * math.sin(a))
               for a, r in zip(angles, radii)]
        pts += [-p for p in pts]
        hull = convex_hull(pts)
        if hull.kind != "polygon" or len(hull.vertices) < 4:
            continue
        try:
            norm = make_polygonal_norm(list(hull.vertices))
        except PlaneError:
            continue
        if max(f.norm() for f in norm._duals) > 2.0:
            continue  # inradius below 0.5
        k = norm.m
        vert_angles = sorted(math.atan2(v.y, v.x) % (2 * math.pi)
                             for v in norm.vertices)
        gaps = [vert_angles[i + 1] - vert_angles[i] for i in range(k - 1)]
        gaps.append(2 * math.pi - (vert_angles[-1] - vert_angles[0]))
        if min(gaps) < 0.05:
            continue
        return norm


def random_instance(rng: Random) -> tuple[PolygonalNorm, list[Vec2]]:
    """A random norm with 3..7 random terminals in [-5, 5]^2."""
    norm = random_symmetric_norm(rng)
    return norm, [Vec2(rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0))
                  for _ in range(rng.randint(3, 7))]
