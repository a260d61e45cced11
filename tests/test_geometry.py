import dataclasses
import math
import pickle
from random import Random

import pytest

from ftplane import (
    InputError,
    Region,
    Vec2,
    convex_hull,
    orient,
    segment_interior_contains,
)
from ftplane import geometry
from ftplane.geometry import DEFAULT_EPS, check_eps, clip_polygon

from conftest import HalfPlane, line_runs


def clip_square(halfplanes, r=10.0):
    """clip_polygon starting from the square [-r, r]^2."""
    square = [(-r, -r), (r, -r), (r, r), (-r, r)]
    sides = [(0, -1, r), (1, 0, r), (0, 1, r), (-1, 0, r)]
    return clip_polygon(square, sides, halfplanes)


def test_vec2_is_a_frozen_value():
    v = Vec2(1.5, -0.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        v.x = 2.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        del v.y
    assert (v.x, v.y) == (1.5, -0.0) and not hasattr(v, "__dict__")
    assert v == Vec2(1.5, 0.0) and v != Vec2(1.5, 1.0) and v != (1.5, -0.0)
    assert hash(v) == hash(Vec2(1.5, 0.0)) == hash((1.5, -0.0))
    assert Vec2(x=1, y=2) == Vec2(1, 2) and type(Vec2(1, 2).x) is int
    assert repr(v) == "Vec2(x=1.5, y=-0.0)"
    for protocol in (pickle.DEFAULT_PROTOCOL, pickle.HIGHEST_PROTOCOL):
        back = pickle.loads(pickle.dumps(v, protocol))
        assert type(back) is Vec2 and back == v and repr(back) == repr(v)
        assert math.copysign(1.0, back.y) == -1.0
    assert dataclasses.replace(v, y=3.0) == Vec2(1.5, 3.0)


def test_orient_turns():
    assert orient(Vec2(0, 0), Vec2(1, 0), Vec2(0, 1)) == 1
    assert orient(Vec2(0, 0), Vec2(1, 0), Vec2(2, 0)) == 0
    assert orient(Vec2(0, 0), Vec2(0, 1), Vec2(1, 0)) == -1


def test_orient_survives_overflowing_cross_products():
    # past about 1.3e154 the cross product is inf - inf; swapping the first
    # two points must flip the sign, and an exactly collinear triple is flat
    for s in (1e160, 1e200, 1e307):
        a, b, o = Vec2(-s, s), Vec2(s, -s), Vec2(0.0, 0.0)
        assert orient(a, b, o) == orient(b, a, o) == 0
        for c in (Vec2(s, s), Vec2(-s, -s), Vec2(s / 2, 0.0)):
            assert orient(a, b, c) == -orient(b, a, c) != 0, (s, c)


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


def near_degenerate_cloud(rng, eps):
    """Near-collinear points, eps-clusters, a slab a few eps thick, or points
    on a circle with eps-jittered copies."""
    def jitter(scale=1.0):
        return eps * scale * rng.uniform(-1.0, 1.0)

    x0, y0, s = rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0), rng.uniform(0.01, 3.0)
    a = rng.uniform(0.0, 2 * math.pi)
    c, sn = math.cos(a), math.sin(a)
    n, kind = rng.randint(3, 12), rng.randrange(4)
    if kind == 0:
        return [Vec2(x0 + c * t + jitter(2.0), y0 + sn * t + jitter(2.0))
                for t in (rng.uniform(-s, s) for _ in range(n))]
    if kind == 1:
        centres = [(x0 + rng.uniform(-s, s), y0 + rng.uniform(-s, s))
                   for _ in range(rng.randint(1, 3))]
        return [Vec2(cx + jitter(), cy + jitter())
                for cx, cy in centres for _ in range(rng.randint(1, 3))]
    if kind == 2:
        w = eps * rng.uniform(0.5, 4.0)
        return [Vec2(x0 + c * t - sn * u, y0 + sn * t + c * u)
                for t, u in ((rng.uniform(-s, s), rng.uniform(0.0, w)) for _ in range(n))]
    pts = [Vec2(x0 + s * math.cos(t), y0 + s * math.sin(t))
           for t in (rng.uniform(0.0, 2 * math.pi) for _ in range(n))]
    return pts + [Vec2(p.x + jitter(1.5), p.y + jitter(1.5))
                  for p in rng.sample(pts, rng.randint(1, n))]


def distance_to_region(p, region):
    def to_segment(a, b):
        d = b - a
        t = max(0.0, min(1.0, (p - a).dot(d) / d.dot(d)))
        return (p - (a + d * t)).norm()

    vs = region.vertices
    if region.kind == "point":
        return (p - vs[0]).norm()
    edges = list(zip(vs, vs[1:] + vs[:1])) if region.kind == "polygon" else [vs]
    if region.kind == "polygon" and all((b - a).cross(p - a) >= 0.0 for a, b in edges):
        return 0.0
    return min(to_segment(a, b) for a, b in edges)


def test_hull_invariants_on_near_degenerate_clouds():
    # a line spy shows that both rare branches run: _drop_flat deleting a
    # vertex, and _merge_close popping a last vertex within eps of the first
    eps = DEFAULT_EPS
    rng = Random(0)
    clouds = [near_degenerate_cloud(rng, eps) for _ in range(2000)]
    with line_runs((geometry._drop_flat, "del verts[i]"),
                   (geometry._merge_close, "out.pop()")) as runs:
        hulls = [convex_hull(pts, eps) for pts in clouds]
    assert all(runs.values()), runs
    for pts, hull in zip(clouds, hulls):
        vs = hull.vertices
        n = len(vs)
        assert all((vs[i] - vs[j]).norm() > eps for i in range(n) for j in range(i))
        if hull.kind == "polygon":
            assert all(orient(vs[i - 1], vs[i], vs[(i + 1) % n], eps) == 1 for i in range(n))
        # not within eps: each point the chains drop as flat can move the hull
        # in by up to about eps, and the moves add up (2.2 eps here at most)
        assert max(distance_to_region(p, hull) for p in pts) <= len(pts) * eps, pts


def test_halfplanes_point():
    hps = [(-1, 0, 0), (1, 0, 0), (0, -1, 0), (0, 1, 0)]
    r = clip_square(hps)
    assert r.kind == "point"
    assert (r.vertices[0] - Vec2(0, 0)).norm() <= 1e-9


def test_halfplanes_segment():
    hps = [(-1, 0, 0), (1, 0, 2), (0, -1, 0), (0, 1, 0)]
    r = clip_square(hps)
    assert r.kind == "segment"
    assert (r.vertices[0] - Vec2(0, 0)).norm() <= 1e-9
    assert (r.vertices[1] - Vec2(2, 0)).norm() <= 1e-9


def test_halfplanes_empty():
    r = clip_square([(1, 0, 0), (-1, 0, -1)])
    assert r.kind == "empty"


def test_halfplanes_result_contained_in_every_input():
    rng = Random(3)
    for _ in range(40):
        hps = [(1, 0, rng.uniform(1, 3)),
               (-1, 0, rng.uniform(1, 3)),
               (0, 1, rng.uniform(1, 3)),
               (0, -1, rng.uniform(1, 3))]
        for _ in range(6):
            ang = rng.uniform(0, 2 * math.pi)
            hps.append((math.cos(ang), math.sin(ang), rng.uniform(-0.5, 2.5)))
        r = clip_square(hps)
        for nx, ny, offset in hps:
            n = math.hypot(nx, ny)
            for v in r.vertices:
                assert nx / n * v.x + ny / n * v.y - offset / n <= 1e-8


def test_halfplane_normal_too_short():
    with pytest.raises(ValueError):
        clip_square([(0, 0, 1)])


def boundary_intersection(h1, h2, a, b, sa, sb):
    """The crossing of the boundary lines of h1 and h2, or the interpolation
    along a-b by the side values sa and sb when they are nearly parallel."""
    det = h1.normal.x * h2.normal.y - h1.normal.y * h2.normal.x
    if abs(det) > 1e-14:
        x = (h1.offset * h2.normal.y - h2.offset * h1.normal.y) / det
        y = (h1.normal.x * h2.offset - h2.normal.x * h1.offset) / det
        return Vec2(x, y)
    t = sa / (sa - sb)
    return Vec2(a.x + t * (b.x - a.x), a.y + t * (b.y - a.y))


def clip_pass(poly, h, eps):
    """The full Sutherland-Hodgman pass on (Vec2, HalfPlane) pairs, which _clip
    runs on floats and skips when no vertex leaves."""
    n = len(poly)
    sides = [h.side(v) for v, _ in poly]
    out = []
    for i in range(n):
        a, edge_hp = poly[i]
        b, _ = poly[(i + 1) % n]
        sa, sb = sides[i], sides[(i + 1) % n]
        a_in, b_in = sa <= eps, sb <= eps
        if a_in:
            out.append((a, edge_hp))
        if a_in != b_in:
            x = boundary_intersection(edge_hp, h, a, b, sa, sb)
            out.append((x, h) if a_in else ((x, edge_hp)))
    return out


def floats(h):
    return h.normal.x, h.normal.y, h.offset


def test_clip_matches_the_full_pass():
    # convex polygons on a 2^-10 grid, so that axis half-planes can put a
    # side exactly at eps = 2^-20; half-planes that keep, cut, touch or miss
    # the polygon, NaN normals and offsets, and a vertex whose side is NaN;
    # the float pass is read back into (Vec2, HalfPlane) pairs
    rng = Random(12)
    eps = 2.0 ** -20
    at_eps = nan_side = kept = 0  # sides at eps, NaN sides max() would skip, no-op clips
    for _ in range(3000):
        r = rng.uniform(0.5, 4.0)
        hull = convex_hull([Vec2(*(math.ldexp(round(math.ldexp(r * f(a), 10)), -10)
                                   for f in (math.cos, math.sin)))
                            for a in (rng.uniform(0.0, 2 * math.pi)
                                      for _ in range(rng.randint(3, 8)))])
        if hull.kind != "polygon":
            continue
        verts = list(hull.vertices)
        if rng.random() < 0.3:  # not the first: max(sides) would skip its NaN
            verts[rng.randrange(1, len(verts))] = Vec2(rng.choice((math.nan, math.inf)), 0.5)
        poly = [(a, HalfPlane(Vec2(b.y - a.y, a.x - b.x), b.y * a.x - b.x * a.y))
                for a, b in zip(verts, verts[1:] + verts[:1])]
        normal = rng.choice([Vec2(1.0, 0.0), Vec2(0.0, 1.0), Vec2(-1.0, 0.0),
                             Vec2(math.nan, 1.0), Vec2(*(f(rng.uniform(0.0, 7.0))
                                                         for f in (math.cos, math.sin)))])
        reach = max(normal.dot(v) for v in hull.vertices)
        offset = rng.choice([reach - eps, reach, reach + 1.0, rng.uniform(-r, r), math.nan,
                             normal.dot(rng.choice(hull.vertices)) - eps])
        h = HalfPlane(normal, offset)
        sides = [h.side(v) for v, _ in poly]
        at_eps += eps in sides
        nan_side += (any(map(math.isnan, sides[1:])) and not math.isnan(sides[0])
                     and all(s <= eps for s in sides if not math.isnan(s)))
        flat = [(v.x, v.y, floats(e)) for v, e in poly]
        got = geometry._clip(flat, floats(h), eps)
        kept += got is flat
        assert repr([(Vec2(x, y), HalfPlane(Vec2(*e[:2]), e[2])) for x, y, e in got]) \
            == repr(clip_pass(poly, h, eps))
    assert at_eps >= 300 and nan_side >= 100 and kept >= 500, (at_eps, nan_side, kept)


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
