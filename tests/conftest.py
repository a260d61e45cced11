import inspect
import math
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain, combinations
from random import Random

import pytest

from ftplane import FunctionalSegment, Vec2, make_polygonal_norm, norming_set
from ftplane.errors import PlaneError
from ftplane.geometry import DEFAULT_EPS
from ftplane.lambda_planes import make_lambda_norm
from ftplane.oracle import random_symmetric_norm

SQRT3 = math.sqrt(3.0)


@contextmanager
def line_runs(*watch):
    """Count how often lines run: each (function, text) watches the first
    line of the function's source that reads text, less indentation. Yields
    the counts, keyed by text; one watched line per function."""
    watched = {}
    for func, text in watch:
        lines, first = inspect.getsourcelines(func)
        watched[func.__code__] = (first + [line.strip() for line in lines].index(text), text)
    runs = dict.fromkeys((text for _, text in watch), 0)

    def in_watched(frame, event, arg):
        line, text = watched[frame.f_code]
        if event == "line" and frame.f_lineno == line:
            runs[text] += 1
        return in_watched

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: in_watched if frame.f_code in watched else None)
    try:
        yield runs
    finally:
        sys.settrace(previous)


@pytest.fixture(scope="session")
def diamond():
    """Manhattan unit ball."""
    return make_polygonal_norm([(1, 0), (0, 1), (-1, 0), (0, -1)])


@pytest.fixture(scope="session")
def hexagon():
    """Regular hexagon with a vertex on the positive x axis."""
    return make_polygonal_norm([
        (1, 0), (0.5, SQRT3 / 2), (-0.5, SQRT3 / 2),
        (-1, 0), (-0.5, -SQRT3 / 2), (0.5, -SQRT3 / 2),
    ])


@pytest.fixture(scope="session")
def square():
    """Max-norm unit ball."""
    return make_polygonal_norm([(1, 1), (-1, 1), (-1, -1), (1, -1)])


# Octagon admitting two flat edges whose functionals sum onto a vertex
# support line; fires the second non-uniqueness condition but not the first.
COND2_OCTAGON = [
    (1, 0), (2 / 3, 2 / 3), (0, 1), (-2 / 3, 2 / 3),
    (-1, 0), (-2 / 3, -2 / 3), (0, -1), (2 / 3, -2 / 3),
]

# Elongated hexagon whose top-edge functional is parallel to and shorter
# than the dual edge at the sharp vertex pair; fires the third condition.
COND3_HEXAGON = [(8, 0), (3, 1), (-3, 1), (-8, 0), (-3, -1), (3, -1)]


@pytest.fixture(scope="session")
def cond2_octagon():
    return make_polygonal_norm(COND2_OCTAGON)


@pytest.fixture(scope="session")
def cond3_hexagon():
    return make_polygonal_norm(COND3_HEXAGON)


def rotations(vertices):
    """Every cyclic shift of a vertex list, starting with the list itself."""
    return [vertices[s:] + vertices[:s] for s in range(len(vertices))]


@pytest.fixture(scope="session")
def unit_triangle():
    """Equilateral side-1 triangle: origin plus two adjacent hexagon vertices."""
    return [Vec2(0.0, 0.0), Vec2(1.0, 0.0), Vec2(0.5, SQRT3 / 2)]


def outcome(call, *args) -> str:
    """``repr`` of what the call returns, or the package error's class and message."""
    try:
        return repr(call(*args))
    except PlaneError as exc:
        return f"{type(exc).__name__}: {exc}"


def random_terminals(n, seed):
    """n seeded terminals, uniform in [-5, 5]^2."""
    rng = Random(seed)
    return [Vec2(rng.uniform(-5, 5), rng.uniform(-5, 5)) for _ in range(n)]


DIAMOND_ARMS = (Vec2(1, 0), Vec2(0, 1), Vec2(-1, 0), Vec2(0, -1))


def plus_shape(centre, counts, seed):
    """``counts[k]`` terminals on arm k of the diamond's vertex directions."""
    rng = Random(seed)
    return [centre + arm * rng.uniform(0.25, 3.0)
            for arm, many in zip(DIAMOND_ARMS, counts) for _ in range(many)]


def lattice_sets():
    """360 sets of 3..7 integer terminals in [-3, 3]^2 from Random(3), 60 on
    each lambda-plane lambda = 2, 3, 4, 6, 12, 24, as (norm, terminals)."""
    rng, out = Random(3), []
    for lam in (2, 3, 4, 6, 12, 24):
        norm = make_lambda_norm(lam).norm
        out += [(norm, [Vec2(rng.randint(-3, 3), rng.randint(-3, 3))
                        for _ in range(rng.randint(3, 7))]) for _ in range(60)]
    return out


def near_vertex_sets(diamond, hexagon):
    """Random(27)'s draw near vertex directions, on the diamond, the hexagon,
    the 24-gon and a random symmetric norm, as (norm, directions, sets).

    The directions are 40 random ones, then each vertex and, at length 2.5,
    its direction turned by -2, -1/2, 1/2 and 2 eps. Each of the 30 sets is
    (terminals, p): 2..6 terminals in vertex directions from a random p,
    0..2 at p plus a direction, then p itself or not.
    """
    rng, out, eps = Random(27), [], DEFAULT_EPS
    for norm in (diamond, hexagon, make_lambda_norm(12).norm, random_symmetric_norm(rng)):
        dirs = [Vec2(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(40)]
        for v in norm.vertices:
            a = math.atan2(v.y, v.x)
            dirs += [v] + [Vec2(2.5 * math.cos(a + d), 2.5 * math.sin(a + d))
                           for d in (-2 * eps, -eps / 2, eps / 2, 2 * eps)]
        sets = []
        for _ in range(30):
            p = Vec2(rng.uniform(-2, 2), rng.uniform(-2, 2))
            pts = [p + rng.choice(norm.vertices) * rng.uniform(0.5, 3.0)
                   for _ in range(rng.randint(2, 6))]
            pts += [p + rng.choice(dirs) for _ in range(rng.randint(0, 2))]
            sets.append((pts + [p] * rng.randint(0, 1), p))
        out.append((norm, dirs, sets))
    return out


def near_tolerance(vertices):
    """Copies with one vertex pair moved by 1e-10..1e-8, across the zero tests' tolerances."""
    half = len(vertices) // 2
    norms = []
    for d in (1e-10, 3e-10, 1e-9, 2e-9, 3e-9, 1e-8):
        for v in range(half):
            for dx, dy in ((d, 0.0), (0.0, d), (d, -d)):
                moved = list(vertices)
                x, y = moved[v]
                moved[v], moved[v + half] = (x + dx, y + dy), (-x - dx, -y - dy)
                norms.append(make_polygonal_norm(moved))
    return norms


def cone_radius(norm, value):
    """Half-width that ft_solve passes to intersect_cones for optimum ``value``."""
    return 2 * value * max(v.norm() for v in norm.vertices)


@dataclass(frozen=True, slots=True)
class HalfPlane:
    """The points p with normal . p <= offset: the object form in which the
    clip and cone references compute, against clip_polygon's triples."""

    normal: Vec2
    offset: float

    def side(self, p: Vec2) -> float:
        """Signed violation: negative inside, positive outside."""
        return self.normal.dot(p) - self.offset

    def unit(self) -> "HalfPlane":
        n = self.normal.norm()
        return HalfPlane(Vec2(self.normal.x / n, self.normal.y / n), self.offset / n)


def vec_close(v: Vec2, xy, tol=1e-9) -> bool:
    return abs(v.x - xy[0]) <= tol and abs(v.y - xy[1]) <= tol


def hausdorff(points_a, points_b) -> float:
    """Symmetric Hausdorff distance between two finite point sets."""
    def one_sided(src, dst):
        return max(min((p - q).norm() for q in dst) for p in src)
    return max(one_sided(points_a, points_b), one_sided(points_b, points_a))


def regions_match(r1, r2, tol=1e-9) -> bool:
    if r1.kind != r2.kind or len(r1.vertices) != len(r2.vertices):
        return False
    if not r1.vertices:
        return True
    return hausdorff(r1.vertices, r2.vertices) <= tol


def fibre_vertices(gens, r, tol=0):
    """Parameter tuples t of the vertices of the fibre
    {t in [0, 1]^k : sum_j t_j g_j = r}, generated lazily and possibly twice.

    A vertex has at most two parameters inside (0, 1), on independent
    generators; every other one sits at 0 or 1. So each vertex solves the
    1x1 or 2x2 system of its free parameters once the others are fixed.
    ``gens`` and ``r`` are (x, y) pairs. The tests are division-free, so
    with ints and tol = 0 they are exact; with floats a residual or a box
    excess up to tol is allowed and the parameters are clamped to [0, 1].
    """
    k = len(gens)
    sums = [(0, 0)] * (1 << k)  # the sum of each subset of the generators
    for mask in range(1, 1 << k):
        j = (mask & -mask).bit_length() - 1
        sx, sy = sums[mask & (mask - 1)]
        sums[mask] = (sx + gens[j][0], sy + gens[j][1])
    for free in chain([()], combinations(range(k), 1), combinations(range(k), 2)):
        rest = (1 << k) - 1 - sum(1 << j for j in free)
        ones = rest
        while True:  # every subset of the fixed parameters set to 1
            ex, ey = r[0] - sums[ones][0], r[1] - sums[ones][1]
            ts = [float(ones >> j & 1) for j in range(k)]
            if not free and abs(ex) <= tol and abs(ey) <= tol:
                yield tuple(ts)
            elif len(free) == 1:
                gx, gy = gens[free[0]]
                gg, dot, cross = gx * gx + gy * gy, ex * gx + ey * gy, ex * gy - ey * gx
                if gg and cross * cross <= tol * tol * gg and -tol * gg <= dot <= (1 + tol) * gg:
                    ts[free[0]] = min(max(dot / gg, 0.0), 1.0)
                    yield tuple(ts)
            elif free:
                (ax, ay), (bx, by) = gens[free[0]], gens[free[1]]
                det, na, nb = ax * by - ay * bx, ex * by - ey * bx, ax * ey - ay * ex
                if det < 0:
                    det, na, nb = -det, -na, -nb
                if det > tol * math.hypot(ax, ay) * math.hypot(bx, by) and all(
                        -tol * det <= n <= (1 + tol) * det for n in (na, nb)):
                    ts[free[0]] = min(max(na / det, 0.0), 1.0)
                    ts[free[1]] = min(max(nb / det, 0.0), 1.0)
                    yield tuple(ts)
            if ones == 0:
                break
            ones = (ones - 1) & rest


def fibre_selections(norm, points, p, tol=1e-9):
    """The distinct zero-sum selections of norming functionals at p at the
    vertices of the fibre, then at the vertices' centroid (inside the fibre),
    in a fixed order: a route through fibre_vertices, independent of the
    solver's peel."""
    sets = [norming_set(norm, q - p) for q in points]
    segs = [j for j, s in enumerate(sets) if isinstance(s, FunctionalSegment)]
    lows = [s.lo if isinstance(s, FunctionalSegment) else s for s in sets]
    gens = [(sets[j].hi.x - sets[j].lo.x, sets[j].hi.y - sets[j].lo.y) for j in segs]
    r = (-sum(f.x for f in lows), -sum(f.y for f in lows))
    verts = list(dict.fromkeys(fibre_vertices(gens, r, tol * max(1, len(sets)))))
    if verts:
        verts.append(tuple(sum(ts) / len(verts) for ts in zip(*verts)))
    out = []
    for ts in verts:
        sel = list(lows)
        for j, t in zip(segs, ts):
            sel[j] = sets[j].at(t)
        if all(any((a - b).norm() > tol for a, b in zip(sel, prev)) for prev in out):
            out.append(tuple(sel))
    return out
