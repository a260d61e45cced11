from random import Random

import numpy as np
import pytest

from ftplane import InputError, Region, Vec2, ft_solve
from ftplane.oracle import (
    _objective_grid,
    auto_bbox,
    final_cell_diameter,
    grid_minimize,
    probe_solution_set,
    random_instance,
    random_symmetric_norm,
)
from ftplane.uniqueness import uniqueness_verdict


def test_grid_minimize_diamond(diamond):
    pts = [Vec2(0, 0), Vec2(2, 0), Vec2(0, 2)]
    point, value = grid_minimize(diamond, pts)
    assert value == pytest.approx(4.0, abs=1e-2)
    assert (point - Vec2(0, 0)).norm() <= 0.05


def test_grid_minimize_single_point(diamond):
    point, value = grid_minimize(diamond, [Vec2(1.5, -0.5)])
    assert value <= 1e-2
    assert (point - Vec2(1.5, -0.5)).norm() <= 0.05


def test_grid_minimize_hexagon_triangle(hexagon, unit_triangle):
    _, value = grid_minimize(hexagon, unit_triangle)
    assert value == pytest.approx(2.0, abs=1e-2)


def test_grid_never_beats_certified_optimum():
    rng = Random(14)
    for _ in range(8):
        norm, pts = random_instance(rng)
        sol = ft_solve(norm, pts)
        _, value = grid_minimize(norm, pts)
        assert value >= sol.objective - 1e-9
        assert value - sol.objective <= len(pts) * final_cell_diameter(norm, pts)


def reference_objective_grid(norm, points, gx, gy):
    """The grid objective with fresh temporaries on meshgrid arrays."""
    total = np.zeros(gx.shape)
    for q in points:
        dx, dy = gx - q.x, gy - q.y
        out = np.full(dx.shape, -np.inf)
        for a, b in norm._dual_array:
            np.maximum(out, a * dx + b * dy, out=out)
        total += out
    return total


def test_objective_grid_matches_reference():
    rng = Random(20)
    for _ in range(20):
        norm, pts = random_instance(rng)
        lo, hi = auto_bbox(norm, pts)
        xs = np.linspace(lo.x, hi.x, 97)
        ys = np.linspace(lo.y, hi.y, 131)
        assert np.array_equal(_objective_grid(norm, pts, xs, ys),
                              reference_objective_grid(norm, pts, *np.meshgrid(xs, ys)))


def test_oracle_needs_a_terminal(diamond):
    for call in (auto_bbox, final_cell_diameter, grid_minimize):
        with pytest.raises(InputError, match="need at least one terminal"):
            call(diamond, [])


def test_probe_clean_on_solution(hexagon, unit_triangle):
    sol = ft_solve(hexagon, unit_triangle)
    report = probe_solution_set(hexagon, unit_triangle, sol.region, sol.objective)
    assert report.max_inside_deviation < 1e-9
    assert report.min_outside_excess > 0


def test_probe_point_region(diamond):
    pts = [Vec2(0, 0), Vec2(2, 0), Vec2(0, 2)]
    sol = ft_solve(diamond, pts)
    report = probe_solution_set(diamond, pts, sol.region, sol.objective)
    assert report.max_inside_deviation == 0.0
    assert report.min_outside_excess > 0


def test_probe_detects_corrupted_region(hexagon, unit_triangle):
    sol = ft_solve(hexagon, unit_triangle)
    shifted = Region.polygon([v + Vec2(0.1, 0.0) for v in sol.region.vertices])
    report = probe_solution_set(hexagon, unit_triangle, shifted, sol.objective)
    assert report.min_outside_excess <= 0 or report.max_inside_deviation > 1e-6


def test_probe_default_reference_value(hexagon, unit_triangle):
    # without an explicit value the probe measures against the best vertex
    sol = ft_solve(hexagon, unit_triangle)
    report = probe_solution_set(hexagon, unit_triangle, sol.region)
    assert report.max_inside_deviation < 1e-9
    assert report.min_outside_excess > 0


def test_probe_segment_region(cond3_hexagon):
    # the condition-3 hexagon's witness fires condition 2 and solves to a
    # segment: inside samples along it, pushed-out points across and beyond it
    verdict = uniqueness_verdict(cond3_hexagon)
    pts = list(verdict.witness)
    sol = ft_solve(cond3_hexagon, pts)
    assert verdict.triple.condition == 2 and sol.region.kind == "segment"
    report = probe_solution_set(cond3_hexagon, pts, sol.region, sol.objective)
    assert report.max_inside_deviation == 0.0 and report.min_outside_excess > 0
    a, b = sol.region.vertices
    longer = Region.segment(a, b + (b - a) * 0.1)
    assert probe_solution_set(cond3_hexagon, pts, longer, sol.objective).max_inside_deviation > 0


def test_random_norm_generator_properties():
    rng = Random(15)
    for _ in range(25):
        norm = random_symmetric_norm(rng)
        m = norm.m
        assert 4 <= m <= 20 and m % 2 == 0
        half = m // 2
        for k in range(half):
            assert (norm.vertices[k + half] + norm.vertices[k]).norm() <= 1e-9
        # inradius gate keeps the gauge 2-Lipschitz
        assert max(f.norm() for f in norm._duals) <= 2.0 + 1e-12
        for v in norm.vertices:
            assert 0.5 - 1e-12 <= v.norm() <= 1.5 + 1e-12


def test_random_norm_deterministic_per_seed():
    a = random_symmetric_norm(Random(99))
    b = random_symmetric_norm(Random(99))
    assert a.vertices == b.vertices
