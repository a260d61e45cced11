import math
from random import Random

import pytest

from ftplane import Vec2, make_polygonal_norm

SQRT3 = math.sqrt(3.0)


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


def random_terminals(n, seed):
    """n seeded terminals, uniform in [-5, 5]^2."""
    rng = Random(seed)
    return [Vec2(rng.uniform(-5, 5), rng.uniform(-5, 5)) for _ in range(n)]


def cone_radius(norm, value):
    """Half-width that ft_solve passes to intersect_cones for optimum ``value``."""
    return 2 * value * max(v.norm() for v in norm.vertices)


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
