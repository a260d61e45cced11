import dataclasses
import math
from random import Random

import pytest

from ftplane import (
    CertificateError,
    EdgeElement,
    InputError,
    Region,
    Vec2,
    VertexElement,
    classify_lambda,
    ft_solve,
    lambda_triangle_solution,
    make_lambda_norm,
    torricelli_point,
)
from ftplane import lambda_planes
from ftplane.uniqueness import Verdict

from conftest import SQRT3, regions_match


def rotate_about(p: Vec2, center: Vec2, ang: float) -> Vec2:
    d = p - center
    return Vec2(center.x + d.x * math.cos(ang) - d.y * math.sin(ang),
                center.y + d.x * math.sin(ang) + d.y * math.cos(ang))


def viewing_angle(t: Vec2, a: Vec2, b: Vec2) -> float:
    u, w = a - t, b - t
    return math.atan2(abs(u.cross(w)), u.dot(w))


def test_make_lambda_norm():
    plane = make_lambda_norm(2)
    assert [f.name for f in dataclasses.fields(plane)] == ["norm"]
    got = [(round(v.x, 12), round(v.y, 12)) for v in plane.norm.vertices]
    assert got == [(1, 0), (0, 1), (-1, 0), (0, -1)]
    plane = make_lambda_norm(3)
    assert plane.norm.m == 6
    for k, v in enumerate(plane.norm.vertices):
        assert math.atan2(v.y, v.x) % (2 * math.pi) == pytest.approx(
            (k * math.pi / 3) % (2 * math.pi), abs=1e-12)
        assert v.norm() == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(InputError, match="parameter must be >= 2, got 1"):
        make_lambda_norm(1)


def test_lambda_vertices_are_the_cos_sin_floats():
    # vertex k is (cos(k pi / lam), sin(k pi / lam)) and vertex lam + k its
    # negation, bit for bit
    for lam in (2, 3, 24, 1001, 70248):
        half = [Vec2(math.cos(k * math.pi / lam), math.sin(k * math.pi / lam))
                for k in range(lam)]
        want = [(v.x.hex(), v.y.hex()) for v in half + [-v for v in half]]
        got = [(v.x.hex(), v.y.hex()) for v in make_lambda_norm(lam).norm.vertices]
        assert got == want


def test_huge_lambda_fails_the_convexity_test_at_once():
    # adjacent vertices closer than the tolerance; 10**400 is beyond floats
    for lam in (75_248, 10 ** 11, 10 ** 400):
        with pytest.raises(InputError, match=f"parameter {lam}: vertices not in strictly convex"):
            make_lambda_norm(lam)
    assert make_lambda_norm(65_248).norm.m == 130_496  # still accepted


def test_classify_examples():
    assert classify_lambda(2).unique
    v3 = classify_lambda(3)
    assert not v3.unique and v3.triple.condition == 1
    assert not classify_lambda(6).unique


def test_classify_lambda_checks_the_mod_3_rule(monkeypatch):
    # a verdict that contradicts the rule is a CertificateError, either way
    for lam, unique, said in ((4, False, "non-unique"), (3, True, "unique")):
        monkeypatch.setattr(lambda_planes, "uniqueness_verdict",
                            lambda norm, eps, unique=unique: Verdict(unique))
        with pytest.raises(CertificateError,
                           match=f"plane {lam}: verdict {said} contradicts the mod-3 rule"):
            classify_lambda(lam)


def test_large_multiples_of_3_certify_a_polygon_witness():
    # the first multiple of 3 past 31,410 and the largest accepted plane
    for lam in (31416, 70248):
        verdict = classify_lambda(lam)
        assert not verdict.unique and verdict.region.kind == "polygon"


def test_torricelli_equilateral(unit_triangle):
    t = torricelli_point(*unit_triangle)
    assert (t - Vec2(0.5, SQRT3 / 6)).norm() <= 1e-12


def test_torricelli_degenerate_and_wide():
    assert torricelli_point(Vec2(0, 0), Vec2(1, 0), Vec2(2, 0)) is None
    # apex angle well above 120 degrees
    assert torricelli_point(Vec2(0, 0), Vec2(1, 0), Vec2(0.5, 0.05)) is None


def test_torricelli_viewing_angles_and_symmetry():
    pts = [Vec2(0, 0), Vec2(4, 0), Vec2(2, 10)]
    t = torricelli_point(*pts)
    assert t is not None
    third = 2 * math.pi / 3
    for i in range(3):
        assert viewing_angle(t, pts[i], pts[(i + 1) % 3]) == pytest.approx(
            third, abs=1e-9)
    for perm in ((1, 0, 2), (2, 1, 0), (1, 2, 0)):
        t2 = torricelli_point(pts[perm[0]], pts[perm[1]], pts[perm[2]])
        assert (t2 - t).norm() <= 1e-9


def test_triangle_solution_edge_contact(unit_triangle):
    sol = lambda_triangle_solution(3, *unit_triangle)
    assert sol.region.kind == "polygon"
    for q in unit_triangle:
        assert any((v - q).norm() <= 1e-9 for v in sol.region.vertices)


def test_triangle_solution_vertex_contact(unit_triangle):
    center = Vec2(0.5, SQRT3 / 6)
    rotated = [rotate_about(p, center, math.pi / 6) for p in unit_triangle]
    sol = lambda_triangle_solution(3, *rotated)
    assert sol.region.kind == "point"
    assert (sol.region.vertices[0] - center).norm() <= 1e-9


def test_triangle_solution_preconditions(unit_triangle):
    wide = [Vec2(0, 0), Vec2(1, 0), Vec2(0.5, 0.05)]
    with pytest.raises(InputError, match="angle of 120 degrees or more"):
        lambda_triangle_solution(3, *wide)
    with pytest.raises(InputError, match="parameter 4 is not a multiple of 3"):
        lambda_triangle_solution(4, *unit_triangle)
    # a repeated vertex makes every angle 0, so only the degeneracy test sees it
    for flat in ([Vec2(0, 0), Vec2(0, 0), Vec2(1, 0)], [Vec2(0, 0), Vec2(1, 0), Vec2(3, 0)]):
        with pytest.raises(InputError, match="triangle is degenerate"):
            lambda_triangle_solution(3, *flat)
    # wide triangles still go through the generic solver
    sol = ft_solve(make_lambda_norm(3).norm, wide)
    assert sol.region.kind in ("point", "segment", "polygon")


def test_triangle_solution_cross_checks_raise(monkeypatch, unit_triangle):
    # each prediction the generic solver's answer must meet, broken in turn;
    # unit_triangle hits no vertex and solves to a polygon
    def hits(*flags):
        answers = iter(flags)
        monkeypatch.setattr(lambda_planes, "classify_direction",
                            lambda norm, v, eps: VertexElement(0) if next(answers) else
                            EdgeElement(0, 0.5))

    def solved(region):
        def solve(norm, pts, eps):
            return dataclasses.replace(ft_solve(norm, pts, eps), region=region)
        monkeypatch.setattr(lambda_planes, "ft_solve", solve)

    hits(True, False, False)
    with pytest.raises(CertificateError, match="hit a mix of vertices and edges"):
        lambda_triangle_solution(3, *unit_triangle)
    hits(True, True, True)
    with pytest.raises(CertificateError, match="expected the single point .*, solver returned"):
        lambda_triangle_solution(3, *unit_triangle)
    p = torricelli_point(*unit_triangle)
    for far in (Vec2(p.x + 2e-6, p.y), Vec2(p.x, p.y - 2e-6)):
        hits(True, True, True)
        solved(Region.point(far))
        with pytest.raises(CertificateError, match="expected the single point"):
            lambda_triangle_solution(3, *unit_triangle)
    hits(False, False, False)
    solved(Region.point(p))
    with pytest.raises(CertificateError, match="expected a polygon, solver returned point"):
        lambda_triangle_solution(3, *unit_triangle)
    hits(False, False, False)
    solved(Region.polygon([unit_triangle[1], Vec2(2, 2), unit_triangle[2]]))  # p lies outside
    with pytest.raises(CertificateError, match="120-degree point is not strictly inside"):
        lambda_triangle_solution(3, *unit_triangle)
    monkeypatch.undo()
    assert lambda_triangle_solution(3, *unit_triangle).region.kind == "polygon"


def test_triangle_solution_matches_generic_solver():
    rng = Random(13)
    done = 0
    while done < 25:
        pts = [Vec2(rng.uniform(-5, 5), rng.uniform(-5, 5)) for _ in range(3)]
        if torricelli_point(*pts) is None:
            continue
        done += 1
        for lam in (3, 6, 9):
            sol = lambda_triangle_solution(lam, *pts)
            direct = ft_solve(make_lambda_norm(lam).norm, pts)
            assert regions_match(sol.region, direct.region, tol=1e-8)


def test_rotation_of_inputs_does_not_change_kind(unit_triangle):
    # the propositions are rotation invariant; rotating the whole input
    # changes which circle elements are hit but the outcome kind at the
    # balanced point only depends on vertex contact
    sol = lambda_triangle_solution(3, *unit_triangle)
    rotated = [rotate_about(p, Vec2(0, 0), 2 * math.pi / 6) for p in unit_triangle]
    sol2 = lambda_triangle_solution(3, *rotated)
    assert sol.region.kind == sol2.region.kind
