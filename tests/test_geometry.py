import math
from random import Random

import pytest

from ftplane import (
    HalfPlane,
    InputError,
    Region,
    Vec2,
    convex_hull,
    orient,
    segment_interior_contains,
)
from ftplane.geometry import check_eps, clip_polygon


def clip_square(halfplanes, r=10.0):
    """clip_polygon starting from the square [-r, r]^2."""
    square = [Vec2(-r, -r), Vec2(r, -r), Vec2(r, r), Vec2(-r, r)]
    sides = [HalfPlane(Vec2(0, -1), r), HalfPlane(Vec2(1, 0), r),
             HalfPlane(Vec2(0, 1), r), HalfPlane(Vec2(-1, 0), r)]
    return clip_polygon(square, sides, halfplanes)


def test_orient_turns():
    assert orient(Vec2(0, 0), Vec2(1, 0), Vec2(0, 1)) == 1
    assert orient(Vec2(0, 0), Vec2(1, 0), Vec2(2, 0)) == 0
    assert orient(Vec2(0, 0), Vec2(0, 1), Vec2(1, 0)) == -1


def test_orient_antisymmetric():
    rng = Random(1)
    for _ in range(200):
        a, b, c = (Vec2(rng.uniform(-5, 5), rng.uniform(-5, 5)) for _ in range(3))
        assert orient(a, b, c) == -orient(a, c, b)
        assert orient(a, b, c) == -orient(b, a, c)


def test_orient_zero_band_follows_point_height():
    # a sub-eps sag reads collinear at any scale; a clear sag never does
    for scale in (1.0, 1e3, 1e6):
        assert orient(Vec2(0, 0), Vec2(scale, 0), Vec2(2 * scale, 1e-10)) == 0
        assert orient(Vec2(0, 0), Vec2(scale, 0), Vec2(2 * scale, 1e-6)) == 1


def test_hull_single_point():
    r = convex_hull([Vec2(0, 0)])
    assert r.kind == "point" and r.vertices == (Vec2(0, 0),)


def test_hull_collinear_collapses_to_segment():
    r = convex_hull([Vec2(0, 0), Vec2(2, 0), Vec2(1, 0)])
    assert r.kind == "segment"
    assert r.vertices == (Vec2(0, 0), Vec2(2, 0))


def test_hull_interior_point_removed():
    r = convex_hull([Vec2(0, 0), Vec2(1, 0), Vec2(0, 1), Vec2(0.2, 0.2)])
    assert r.kind == "polygon"
    assert r.vertices == (Vec2(0, 0), Vec2(1, 0), Vec2(0, 1))
    # independent check: the dropped point is inside per the orientation predicate
    hull = r.vertices
    n = len(hull)
    assert all(orient(hull[i], hull[(i + 1) % n], Vec2(0.2, 0.2)) == 1
               for i in range(n))


def test_hull_empty_input_rejected():
    with pytest.raises(InputError, match="convex hull needs at least one point"):
        convex_hull([])


def test_hull_is_convex_and_canonical():
    rng = Random(2)
    for _ in range(50):
        pts = [Vec2(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(12)]
        r = convex_hull(pts)
        assert r.kind == "polygon"
        vs = r.vertices
        n = len(vs)
        assert all(orient(vs[i], vs[(i + 1) % n], vs[(i + 2) % n]) == 1
                   for i in range(n))
        assert min(vs, key=Vec2.key) == vs[0]


def test_halfplanes_point():
    hps = [HalfPlane(Vec2(-1, 0), 0), HalfPlane(Vec2(1, 0), 0),
           HalfPlane(Vec2(0, -1), 0), HalfPlane(Vec2(0, 1), 0)]
    r = clip_square(hps)
    assert r.kind == "point"
    assert (r.vertices[0] - Vec2(0, 0)).norm() <= 1e-9


def test_halfplanes_segment():
    hps = [HalfPlane(Vec2(-1, 0), 0), HalfPlane(Vec2(1, 0), 2),
           HalfPlane(Vec2(0, -1), 0), HalfPlane(Vec2(0, 1), 0)]
    r = clip_square(hps)
    assert r.kind == "segment"
    assert (r.vertices[0] - Vec2(0, 0)).norm() <= 1e-9
    assert (r.vertices[1] - Vec2(2, 0)).norm() <= 1e-9


def test_halfplanes_empty():
    r = clip_square([HalfPlane(Vec2(1, 0), 0), HalfPlane(Vec2(-1, 0), -1)])
    assert r.kind == "empty"


def test_halfplanes_result_contained_in_every_input():
    rng = Random(3)
    for _ in range(40):
        hps = [HalfPlane(Vec2(1, 0), rng.uniform(1, 3)),
               HalfPlane(Vec2(-1, 0), rng.uniform(1, 3)),
               HalfPlane(Vec2(0, 1), rng.uniform(1, 3)),
               HalfPlane(Vec2(0, -1), rng.uniform(1, 3))]
        for _ in range(6):
            ang = rng.uniform(0, 2 * math.pi)
            hps.append(HalfPlane(Vec2(math.cos(ang), math.sin(ang)),
                                 rng.uniform(-0.5, 2.5)))
        r = clip_square(hps)
        for hp in hps:
            u = hp.unit()
            for v in r.vertices:
                assert u.side(v) <= 1e-8


def test_halfplane_normal_too_short():
    with pytest.raises(ValueError):
        clip_square([HalfPlane(Vec2(0, 0), 1)])


def test_segment_interior():
    a, b = Vec2(0, 0), Vec2(2, 0)
    assert segment_interior_contains(a, b, Vec2(1, 0))
    assert not segment_interior_contains(a, b, Vec2(2, 0))
    assert not segment_interior_contains(a, b, Vec2(1, 0.5))
    assert not segment_interior_contains(a, b, Vec2(3, 0))


def test_region_canonical_forms():
    seg = Region.segment(Vec2(2, 0), Vec2(0, 0))
    assert seg.vertices == (Vec2(0, 0), Vec2(2, 0))
    poly = Region.polygon([Vec2(1, 0), Vec2(0, 1), Vec2(0, 0)])
    assert poly.vertices[0] == Vec2(0, 0)


def test_check_eps_range():
    assert check_eps(1e-9) == 1e-9
    for bad in (0.0, -1e-9, 1e-3, 1.0):
        with pytest.raises(ValueError):
            check_eps(bad)
