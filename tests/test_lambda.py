import math
from random import Random

import pytest

from ftplane import (
    InputError,
    Vec2,
    classify_lambda,
    ft_solve,
    lambda_triangle_solution,
    make_lambda_norm,
    torricelli_point,
)

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
    # wide triangles still go through the generic solver
    sol = ft_solve(make_lambda_norm(3).norm, wide)
    assert sol.region.kind in ("point", "segment", "polygon")


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
