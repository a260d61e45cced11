import gc
import math
import weakref
from random import Random

import numpy as np
import pytest

from ftplane import (
    DEFAULT_EPS,
    EdgeElement,
    FunctionalSegment,
    InputError,
    Vec2,
    VertexElement,
    classify_direction,
    dual_norm,
    dual_vertices,
    element_point,
    gauge,
    make_polygonal_norm,
    norming_set,
    objective,
)
from ftplane.lambda_planes import make_lambda_norm
from ftplane.norms import Functional, gauge_batch
from ftplane.oracle import random_symmetric_norm

from conftest import SQRT3


def manhattan(v: Vec2) -> float:
    return abs(v.x) + abs(v.y)


def test_make_norm_validation():
    with pytest.raises(InputError, match="vertex count must be even, got 3"):
        make_polygonal_norm([(1, 0), (0, 1), (-1, 0)])
    with pytest.raises(InputError, match="need at least 4 vertices, got 2"):
        make_polygonal_norm([(1, 0), (-1, 0)])
    with pytest.raises(InputError, match="need at least 4 vertices, got 0"):
        make_polygonal_norm([])
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(InputError, match="vertices must be finite"):
            make_polygonal_norm([(1, 0), (0, bad), (-1, 0), (0, -1)])
    with pytest.raises(InputError, match="not in strictly convex position"):
        make_polygonal_norm([(1, 0), (2, 0), (-1, 0), (-2, 0)])
    with pytest.raises(InputError, match="is not the reflection of vertex"):
        make_polygonal_norm([(2, 0), (0, 1), (-1, 0), (0, -1)])
    # every vertex triple turns left and every edge passes the origin on its
    # left, but the star winds three times around it
    with pytest.raises(InputError, match="vertices wind 3 times around the origin"):
        make_polygonal_norm([(-2, 3), (-2, -3), (3, 0), (-3, 1),
                             (2, -3), (2, 3), (-3, 0), (3, -1)])


def test_make_norm_accepts_clockwise_input():
    cw = make_polygonal_norm([(0, -1), (-1, 0), (0, 1), (1, 0)])
    assert gauge(cw, Vec2(3, 4)) == pytest.approx(7.0, abs=1e-12)


def test_gauge_against_manhattan_oracle(diamond):
    assert gauge(diamond, Vec2(3, 4)) == pytest.approx(7.0, abs=1e-12)
    rng = Random(4)
    for _ in range(300):
        v = Vec2(rng.uniform(-9, 9), rng.uniform(-9, 9))
        assert gauge(diamond, v) == pytest.approx(manhattan(v), abs=1e-9)


def test_gauge_zero_and_hexagon_edge(diamond, hexagon):
    assert gauge(diamond, Vec2(0, 0)) == 0.0
    assert gauge(hexagon, Vec2(0, 1)) == pytest.approx(2 / SQRT3, abs=1e-12)


def test_gauge_properties(diamond, hexagon):
    rng = Random(5)
    norms = [diamond, hexagon, random_symmetric_norm(rng), random_symmetric_norm(rng)]
    for norm in norms:
        for v in norm.vertices:
            assert gauge(norm, v) == pytest.approx(1.0, abs=1e-9)
        for _ in range(100):
            u = Vec2(rng.uniform(-4, 4), rng.uniform(-4, 4))
            w = Vec2(rng.uniform(-4, 4), rng.uniform(-4, 4))
            t = rng.uniform(0.1, 5.0)
            gu = gauge(norm, u)
            assert gauge(norm, u * t) == pytest.approx(t * gu, abs=1e-9 * max(1, t))
            assert gauge(norm, -u) == pytest.approx(gu, abs=1e-9)
            assert gauge(norm, u + w) <= gauge(norm, u) + gauge(norm, w) + 1e-9


def test_gauge_keeps_nan_as_gauge_batch_does(diamond, hexagon):
    for norm in (diamond, hexagon):
        for v in (Vec2(math.nan, 0), Vec2(0, math.nan), Vec2(math.nan, math.nan)):
            batch = gauge_batch(norm, np.array([v.x]), np.array([v.y]))[0]
            assert math.isnan(gauge(norm, v)) and math.isnan(batch)
    assert math.isnan(objective(diamond, [Vec2(0, 0)], Vec2(math.nan, 0)))
    assert gauge(diamond, Vec2(-0.0, 0.0)) == 0.0 and gauge(diamond, Vec2(3, -4)) == 7.0


def sector_by_mod(norm, dx, dy):
    """The sector of each direction as it was found, folding the angle from
    vertex 0 with np.mod."""
    with np.errstate(invalid="ignore"):
        ang = np.mod(np.arctan2(dy, dx) - norm._base_angle, 2.0 * math.pi)
    return np.searchsorted(norm._rel_array, ang, side="right") - 1


def gauge_by_mod(norm, dx, dy):
    """_gauge of each direction, on the edge functional of its sector_by_mod."""
    out = []
    for k, x, y in zip(*(a.ravel().tolist() for a in (sector_by_mod(norm, dx, dy), dx, dy))):
        f = norm._duals[k]
        val = f.x * x + f.y * y
        out.append(0.0 if x == 0.0 and y == 0.0 or val <= 0.0 else val)
    return np.array(out).reshape(dx.shape)


def test_sector_after_matches_the_mod_route(diamond, hexagon):
    # vertex 0 at (-1, -0.0) puts the base angle at -pi, so (-1, +0.0) is at
    # 2pi from it; (1, -1e-300) is a tiny negative angle from vertex 0 of the
    # diamond, which a + 2pi rounds to 2pi: sector m - 1, not 0. gauge_batch
    # folds the angle with _sector_after's code and gives _gauge's bits
    flipped = make_polygonal_norm([(-1.0, -0.0), (0.0, -1.0), (1.0, 0.0), (0.0, 1.0)])
    assert flipped._base_angle == -math.pi and diamond._base_angle == 0.0
    special = [0.0, -0.0, math.nan, math.inf, -math.inf, 1.0, -1.0, 1e-300, -1e-300]
    sx, sy = (np.array(c) for c in zip(*[(x, y) for x in special for y in special]))
    rng = np.random.default_rng(9)
    norms = [diamond, hexagon, flipped] + [random_symmetric_norm(Random(k)) for k in range(20)]
    wrapped = tiny = 0
    for norm in norms:
        scaled = rng.standard_normal((2, 2000)) * rng.choice([1e-3, 1.0, 1e6], 2000)
        for dx, dy in ((sx, sy), scaled):
            assert np.array_equal(norm._sector_after(dx, dy) - 1, sector_by_mod(norm, dx, dy))
            with np.errstate(invalid="ignore"):
                got = gauge_batch(norm, dx, dy)
            assert got.tobytes() == gauge_by_mod(norm, dx, dy).tobytes()
            a = np.arctan2(dy, dx) - norm._base_angle
            wrapped += (a == 2.0 * math.pi).sum()
            tiny += ((a < 0.0) & (a + 2.0 * math.pi == 2.0 * math.pi)).sum()
    assert wrapped >= 1 and tiny >= 1, (wrapped, tiny)


def test_dual_vertices_diamond(diamond):
    duals = [(f.x, f.y) for f in dual_vertices(diamond)]
    assert duals == [(1, 1), (-1, 1), (-1, -1), (1, -1)]


def test_dual_vertices_hexagon(hexagon):
    duals = dual_vertices(hexagon)
    mags = [f.norm() for f in duals]
    assert all(m == pytest.approx(2 / SQRT3, abs=1e-12) for m in mags)
    angles = sorted(math.atan2(f.y, f.x) % (2 * math.pi) for f in duals)
    expected = sorted((math.radians(30 + 60 * k)) % (2 * math.pi) for k in range(6))
    for got, want in zip(angles, expected):
        assert got == pytest.approx(want, abs=1e-9)


def test_dual_vertices_square(square):
    duals = sorted((round(f.x, 12), round(f.y, 12)) for f in dual_vertices(square))
    assert duals == [(-1, 0), (0, -1), (0, 1), (1, 0)]


def test_dual_norm_examples(diamond):
    assert dual_norm(diamond, Functional(1, 1)) == pytest.approx(1.0)
    assert dual_norm(diamond, Functional(1, 0)) == pytest.approx(1.0)
    assert dual_norm(diamond, Functional(0, 0)) == 0.0


def test_the_polar_shares_the_norms_objects(hexagon):
    # the dual ball is a norm whose vertices are the dual vertices and whose
    # dual vertex k is vertex k + 1: the same objects, so the same bits
    for norm in (hexagon, make_lambda_norm(7).norm, random_symmetric_norm(Random(3))):
        polar, m = norm._polar, norm.m
        assert polar.vertices is dual_vertices(norm)
        assert all(polar._duals[k] is norm.vertices[(k + 1) % m] for k in range(m))
        assert norm._polar is polar
    # and it holds no reference back: the norm goes with its last reference
    norm = make_polygonal_norm([(1, 0), (0, 1), (-1, 0), (0, -1)])
    assert dual_norm(norm, Functional(0.5, 0.25)) == 0.5
    ref = weakref.ref(norm)
    gc.disable()
    try:
        del norm
        assert ref() is None
    finally:
        gc.enable()


def test_classify_direction(diamond, hexagon):
    assert classify_direction(hexagon, Vec2(1, 0)) == VertexElement(0)
    el = classify_direction(hexagon, Vec2(0, 1))
    assert isinstance(el, EdgeElement) and el.edge == 1
    assert el.t == pytest.approx(0.5, abs=1e-12)
    el = classify_direction(diamond, Vec2(2, 2))
    assert isinstance(el, EdgeElement) and el.edge == 0
    assert el.t == pytest.approx(0.5, abs=1e-12)
    with pytest.raises(InputError, match="cannot classify the zero vector"):
        classify_direction(diamond, Vec2(0, 0))


def test_norming_set_examples(diamond, hexagon):
    ns = norming_set(diamond, Vec2(1, 1))
    assert not isinstance(ns, FunctionalSegment)
    assert (ns.x, ns.y) == (1, 1)
    ns = norming_set(diamond, Vec2(1, 0))
    assert isinstance(ns, FunctionalSegment)
    assert (ns.lo.x, ns.lo.y) == (1, -1) and (ns.hi.x, ns.hi.y) == (1, 1)
    ns = norming_set(hexagon, Vec2(0, 1))
    assert not isinstance(ns, FunctionalSegment)
    assert ns.x == pytest.approx(0.0, abs=1e-12)
    assert ns.y == pytest.approx(2 / SQRT3, abs=1e-12)


def test_norming_pairing_and_existence(diamond, hexagon):
    rng = Random(6)
    norms = [diamond, hexagon, random_symmetric_norm(rng)]
    for norm in norms:
        for _ in range(120):
            v = Vec2(rng.uniform(-3, 3), rng.uniform(-3, 3))
            if v.norm() < 1e-6:
                continue
            ns = norming_set(norm, v)
            members = ([ns.lo, ns.at(0.5), ns.hi] if isinstance(ns, FunctionalSegment)
                       else [ns])
            g = gauge(norm, v)
            assert members, "every nonzero vector has a norming functional"
            for phi in members:
                assert phi.dot(v) == pytest.approx(g, abs=1e-9 * max(1, g))
                assert dual_norm(norm, phi) == pytest.approx(1.0, abs=1e-9)
    # at and around the snap: each vertex itself, and its direction turned by
    # +-eps/2 (snaps) and +-2 eps (does not); the set is the one that
    # classify_direction's element names, to the bit
    eps = DEFAULT_EPS
    kinds = set()
    for norm in norms:
        duals = dual_vertices(norm)
        for v in norm.vertices:
            a = math.atan2(v.y, v.x)
            turned = [Vec2(2.5 * math.cos(a + d), 2.5 * math.sin(a + d))
                      for d in (-2 * eps, -eps / 2, eps / 2, 2 * eps)]
            for u in [v] + turned:
                element = classify_direction(norm, u, eps)
                if isinstance(element, VertexElement):
                    k = element.index
                    want = FunctionalSegment(duals[k - 1], duals[k])
                else:
                    want = duals[element.edge]
                got = norming_set(norm, u, eps)
                assert repr(got) == repr(want), (norm, u)
                kinds.add(type(got))
        with pytest.raises(InputError, match="cannot classify the zero vector"):
            norming_set(norm, Vec2(0.0, 0.0))
    assert kinds == {FunctionalSegment, Functional}


def test_bipolar_recovers_vertices(diamond, hexagon):
    rng = Random(7)
    for norm in [diamond, hexagon, random_symmetric_norm(rng)]:
        polar = make_polygonal_norm(list(dual_vertices(norm)))
        back = sorted((v.x, v.y) for v in dual_vertices(polar))
        orig = sorted((v.x, v.y) for v in norm.vertices)
        for got, want in zip(back, orig):
            assert got == pytest.approx(want, abs=1e-9)


def test_element_point(hexagon):
    assert element_point(hexagon, VertexElement(2)) == hexagon.vertices[2]
    mid = element_point(hexagon, EdgeElement(0, 0.5))
    assert (mid.x, mid.y) == (pytest.approx(0.75), pytest.approx(SQRT3 / 4))
