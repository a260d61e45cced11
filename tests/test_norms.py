import math
from random import Random

import pytest

from ftplane import (
    EdgeElement,
    FunctionalSegment,
    InputError,
    UniqueFunctional,
    Vec2,
    VertexElement,
    classify_direction,
    dual_norm,
    dual_vertices,
    element_point,
    gauge,
    make_polygonal_norm,
    norming_set,
)
from ftplane.norms import Functional
from ftplane.oracle import random_symmetric_norm

from conftest import SQRT3


def manhattan(v: Vec2) -> float:
    return abs(v.x) + abs(v.y)


def test_make_norm_validation():
    with pytest.raises(InputError, match="vertex count must be even, got 3"):
        make_polygonal_norm([(1, 0), (0, 1), (-1, 0)])
    with pytest.raises(InputError, match="not in strictly convex position"):
        make_polygonal_norm([(1, 0), (2, 0), (-1, 0), (-2, 0)])
    with pytest.raises(InputError, match="is not the reflection of vertex"):
        make_polygonal_norm([(2, 0), (0, 1), (-1, 0), (0, -1)])


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


def test_dual_vertices_diamond(diamond):
    duals = [(f.a, f.b) for f in dual_vertices(diamond)]
    assert duals == [(1, 1), (-1, 1), (-1, -1), (1, -1)]


def test_dual_vertices_hexagon(hexagon):
    duals = dual_vertices(hexagon)
    mags = [f.magnitude() for f in duals]
    assert all(m == pytest.approx(2 / SQRT3, abs=1e-12) for m in mags)
    angles = sorted(math.atan2(f.b, f.a) % (2 * math.pi) for f in duals)
    expected = sorted((math.radians(30 + 60 * k)) % (2 * math.pi) for k in range(6))
    for got, want in zip(angles, expected):
        assert got == pytest.approx(want, abs=1e-9)


def test_dual_vertices_square(square):
    duals = sorted((round(f.a, 12), round(f.b, 12)) for f in dual_vertices(square))
    assert duals == [(-1, 0), (0, -1), (0, 1), (1, 0)]


def test_dual_norm_examples(diamond):
    assert dual_norm(diamond, Functional(1, 1)) == pytest.approx(1.0)
    assert dual_norm(diamond, Functional(1, 0)) == pytest.approx(1.0)
    assert dual_norm(diamond, Functional(0, 0)) == 0.0


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
    assert isinstance(ns, UniqueFunctional)
    assert (ns.phi.a, ns.phi.b) == (1, 1)
    ns = norming_set(diamond, Vec2(1, 0))
    assert isinstance(ns, FunctionalSegment)
    assert (ns.lo.a, ns.lo.b) == (1, -1) and (ns.hi.a, ns.hi.b) == (1, 1)
    ns = norming_set(hexagon, Vec2(0, 1))
    assert isinstance(ns, UniqueFunctional)
    assert ns.phi.a == pytest.approx(0.0, abs=1e-12)
    assert ns.phi.b == pytest.approx(2 / SQRT3, abs=1e-12)


def test_norming_pairing_and_existence(diamond, hexagon):
    rng = Random(6)
    norms = [diamond, hexagon, random_symmetric_norm(rng)]
    for norm in norms:
        for _ in range(120):
            v = Vec2(rng.uniform(-3, 3), rng.uniform(-3, 3))
            if v.norm() < 1e-6:
                continue
            ns = norming_set(norm, v)
            members = ([ns.phi] if isinstance(ns, UniqueFunctional)
                       else [ns.lo, ns.at(0.5), ns.hi])
            g = gauge(norm, v)
            assert members, "every nonzero vector has a norming functional"
            for phi in members:
                assert phi(v) == pytest.approx(g, abs=1e-9 * max(1, g))
                assert dual_norm(norm, phi) == pytest.approx(1.0, abs=1e-9)


def test_bipolar_recovers_vertices(diamond, hexagon):
    rng = Random(7)
    for norm in [diamond, hexagon, random_symmetric_norm(rng)]:
        polar = make_polygonal_norm([f.as_vec() for f in dual_vertices(norm)])
        back = sorted((v.x, v.y) for v in (f.as_vec() for f in dual_vertices(polar)))
        orig = sorted((v.x, v.y) for v in norm.vertices)
        for got, want in zip(back, orig):
            assert got == pytest.approx(want, abs=1e-9)


def test_element_point(hexagon):
    assert element_point(hexagon, VertexElement(2)) == hexagon.vertices[2]
    mid = element_point(hexagon, EdgeElement(0, 0.5))
    assert (mid.x, mid.y) == (pytest.approx(0.75), pytest.approx(SQRT3 / 4))
