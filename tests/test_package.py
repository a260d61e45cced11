import functools
import math
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import ftplane


def test_all_is_importable_and_holds_no_module():
    namespace: dict = {}
    exec("from ftplane import *", namespace)  # raises if a listed name is missing
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(set(ftplane.__all__))
    assert [name for name, obj in namespace.items()
            if isinstance(obj, types.ModuleType)] == []


def test_package_import_leaves_the_oracle_out():
    # the grid oracle and the generators serve the tests and the benchmark,
    # which import ftplane.oracle themselves
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, ftplane; print('ftplane.oracle' in sys.modules, len(ftplane.__all__))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, env=env,
                          timeout=120, check=True)
    assert proc.stdout.split() == [b"False", b"45"]


def test_readme_example_gives_its_commented_results():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    code = readme.split("```python\n", 1)[1].split("```", 1)[0]
    namespace: dict = {}
    shown = []  # (repr of each bare expression, first word of its comment)
    for line in code.splitlines():
        stmt, _, comment = line.partition("#")
        try:
            expr = compile(stmt, "README.md", "eval")
        except SyntaxError:
            exec(stmt, namespace)
            continue
        shown.append((repr(eval(expr, namespace)), comment.split()[0]))
    assert shown == [(want, want) for want in ("'polygon'", "2.0", "False")]


def test_public_calls_raise_one_of_two_error_classes(diamond, square, unit_triangle):
    from ftplane import (
        AngleShape, CertificateError, Cone, EdgeElement, Functional, InputError, PlaneError,
        RayShape, Vec2, VertexElement, build_cones, candidate_minimize, check_certificate,
        check_condition1, check_condition2, check_condition3, classify_direction,
        classify_lambda, collinear_median, convex_hull, element_point, ft_solve,
        intersect_cones, lambda_triangle_solution, make_lambda_norm, make_polygonal_norm,
        norming_set, objective, torricelli_point, uniqueness_verdict, verify_ft_point)
    from ftplane.geometry import Region
    from ftplane.oracle import final_cell_diameter, grid_minimize, probe_solution_set

    def overflowing(lam, *pts):
        # finite coordinates and spans whose objective overflows a float
        return lambda: ft_solve(make_lambda_norm(lam).norm, [Vec2(*p) for p in pts])

    overflow_corner = [Vec2(0, 0), Vec2(1.7e308, 0), Vec2(0, 1.7e308)]
    assert issubclass(InputError, (PlaneError, ValueError))
    assert issubclass(CertificateError, PlaneError)
    assert not issubclass(CertificateError, ValueError)
    bad_input = [
        (lambda: make_polygonal_norm([(1, 0), (0, 1), (-1, 0)]), "vertex count must be even"),
        (lambda: make_polygonal_norm([(1, 0), (2, 0), (-1, 0), (-2, 0)]), "strictly convex"),
        (lambda: make_lambda_norm(1), "parameter must be >= 2"),
        (lambda: ft_solve(diamond, []), "need at least one terminal"),
        (lambda: classify_direction(diamond, Vec2(0, 0)), "zero vector"),
        (lambda: lambda_triangle_solution(4, *unit_triangle), "not a multiple of 3"),
        (lambda: intersect_cones([Cone(Vec2(0, 0), RayShape(Vec2(0, 0)))], 10.0),
         "nonzero direction"),
        (lambda: intersect_cones([Cone(Vec2(0, 0), AngleShape(Vec2(1, 0), Vec2(-1, 0)))], 10.0),
         "angle cone must sweep counterclockwise below pi"),
        (lambda: classify_direction(diamond, Vec2(math.nan, 1)), "non-finite"),
        (lambda: norming_set(diamond, Vec2(math.nan, 1)), "non-finite"),
        (lambda: intersect_cones([Cone(Vec2(0, 0), RayShape(Vec2(1e-10, 0)))], 10.0),
         "half-plane normal is too short"),
        (lambda: intersect_cones([Cone(Vec2(0, 0), AngleShape(Vec2(1e-10, 0), Vec2(0, 1e-10)))],
                                 10.0), "half-plane normal is too short"),
        (lambda: candidate_minimize(diamond, [Vec2(math.nan, 0), Vec2(1, 0), Vec2(0, 1)]),
         "coordinates and their spans must be finite"),
        (lambda: torricelli_point(Vec2(math.nan, 0), Vec2(1, 0), Vec2(0, 1)),
         "coordinates and their spans must be finite"),
        (lambda: make_polygonal_norm([("a", 0), (0, 1), (-1, 0), (0, -1)]),
         "vertex 0 must be a pair of numbers"),
        (lambda: make_polygonal_norm([(1, 0), (1,), (-1, 0), (0, -1)]),
         "vertex 1 must be a pair of numbers"),
        (lambda: make_lambda_norm(3.5), "parameter must be an integer"),
        (lambda: make_lambda_norm("3"), "parameter must be an integer"),
        (lambda: intersect_cones([Cone(Vec2(0, 0), RayShape(Vec2(1, 0)))], -1.0),
         "radius must be >= 0"),
        (lambda: intersect_cones([Cone(Vec2(0, 0), RayShape(Vec2(1, 0)))], math.nan),
         "radius must be >= 0"),
        (lambda: intersect_cones([Cone(Vec2(0, 0), RayShape(Vec2(1, 0)))], math.inf),
         "radius must be >= 0 and finite, got inf"),
        (lambda: intersect_cones(build_cones(diamond, [Vec2(math.inf, 0), Vec2(2, 1), Vec2(1, 3)],
                                             [Functional(1.0, 0.0), Functional(-1.0, 0.0),
                                              Functional(0.0, 1.0)]), 10.0),
         "cone apexes must be finite"),
        (lambda: intersect_cones([Cone(Vec2(0, 0), RayShape(Vec2(1, 0))),
                                  Cone(Vec2(1, math.nan), RayShape(Vec2(1, 0)))], 10.0),
         "cone apexes must be finite"),
        (overflowing(3, (0, 0), (6e307, 0), (3e307, 5e307)),
         r"the cone radius 2 \* 1\.17\d*e\+308 \* 1\.0 overflows"),
        # one horizontal grid line through (0, 0) and (1.7e308, 0): a second
        # copy of it gave a NaN crossing
        (overflowing(3, (0, 0), (1.7e308, 0), (0, 1.7e308)),
         "the objective overflows: its least candidate value is inf"),
        (lambda: grid_minimize(make_lambda_norm(3).norm, overflow_corner),
         "the objective overflows: its least grid value is inf"),
        (lambda: probe_solution_set(make_lambda_norm(3).norm, overflow_corner,
                                    Region.point(Vec2(0, 0))),
         "the objective overflows: the value or a probed one is inf"),
        (lambda: probe_solution_set(make_lambda_norm(3).norm, overflow_corner,
                                    Region.point(Vec2(0, 0)), 1.0),
         "the objective overflows: the value or a probed one is inf"),
        (overflowing(3, (8e307, 0), (-8e307, 0), (0, 8e307), (0, -8e307)),
         "the objective overflows: its least candidate value is inf"),
        (overflowing(2, (8e307, 8e307), (-8e307, 8e307), (-8e307, -8e307), (8e307, -8e307)),
         "the objective overflows: its least candidate value is inf"),
        (overflowing(3, (0, 0), (0, 0), (1e308, 0), (1.7e308, 0), (1.7e308, 0)),
         "the objective overflows: its value at the median is inf"),
        (lambda: build_cones(diamond, (Vec2(0, 0), Vec2(1, 0)), (Functional(1.0, 0.0),)),
         "2 terminals but 1 functionals"),
        (lambda: objective(diamond, [], Vec2(0, 0)), "objective needs at least one terminal"),
        (lambda: candidate_minimize(diamond, []), "need at least one terminal"),
        (lambda: intersect_cones([], 1.0), "need at least one cone"),
        (lambda: element_point(diamond, VertexElement(9)),
         r"VertexElement\(index=9\): index is not an integer in 0\.\.3"),
        (lambda: element_point(diamond, VertexElement(-1)), r"index=-1\): index is not"),
        (lambda: element_point(diamond, EdgeElement(9, 0.5)), r"edge=9, t=0.5\): index is not"),
        (lambda: element_point(diamond, VertexElement(True)),
         r"VertexElement\(index=True\): index is not an integer in 0\.\.3"),
        (lambda: element_point(diamond, EdgeElement(True, 0.5)),
         r"EdgeElement\(edge=True, t=0.5\): index is not an integer in 0\.\.3"),
        (lambda: element_point(diamond, EdgeElement(1, 7.0)), r"t=7.0\): t is not in \[0, 1\]"),
        (lambda: element_point(diamond, EdgeElement(1, math.nan)), r"t=nan\): t is not in"),
    ]
    # every call that takes points checks them as ft_solve does
    for pts in ([Vec2(math.nan, 0), Vec2(1, 0), Vec2(0, 1)],
                [Vec2(math.inf, 0), Vec2(1, 0), Vec2(0, 1)]):
        bad_input += [(functools.partial(call, pts), "coordinates and their spans must be finite")
                      for call in (functools.partial(grid_minimize, diamond),
                                   functools.partial(final_cell_diameter, diamond),
                                   convex_hull, collinear_median)]
    # every entry point that takes a tolerance checks it as the command line does
    hexagon_plane = make_lambda_norm(3).norm
    asymmetric = [(1, 0), (0, 1), (-2, 0), (0, -1)]
    obtuse = (Vec2(0, 0), Vec2(1, 0), Vec2(0.5, 0.05))  # a 169-degree angle
    corner = [Vec2(0, 0), Vec2(2, 0), Vec2(0, 2)]
    cert = ft_solve(diamond, unit_triangle).certificate
    with_tolerance = [
        lambda eps: make_polygonal_norm(asymmetric, eps),
        lambda eps: ft_solve(diamond, unit_triangle, eps),
        lambda eps: uniqueness_verdict(hexagon_plane, eps),
        lambda eps: classify_lambda(3, eps),
        lambda eps: check_condition1(hexagon_plane, eps),
        lambda eps: check_condition2(hexagon_plane, eps),
        lambda eps: check_condition3(hexagon_plane, eps),
        lambda eps: torricelli_point(*obtuse, eps),
        lambda eps: lambda_triangle_solution(3, *unit_triangle, eps),
        lambda eps: candidate_minimize(diamond, corner, eps),
        lambda eps: collinear_median([Vec2(0, 0), Vec2(1, 0), Vec2(2, 0)], eps),
        lambda eps: classify_direction(diamond, Vec2(1, 1), eps),
        lambda eps: norming_set(diamond, Vec2(1, 1), eps),
        lambda eps: convex_hull(corner, eps),
        lambda eps: verify_ft_point(diamond, corner, Vec2(0, 0), eps),
        lambda eps: build_cones(square, (Vec2(0, 0),), (Functional(1.0, 0.0),), eps),
        lambda eps: intersect_cones([Cone(Vec2(0, 0), RayShape(Vec2(1, 0)))], 10.0, eps),
        lambda eps: check_certificate(diamond, unit_triangle, cert, eps),
    ]
    bad_input += [(functools.partial(call, eps), "tolerance must lie in")
                  for call in with_tolerance for eps in (math.nan, -1.0, 0.0, 1e-3)]
    for call, message in bad_input:
        with pytest.raises(InputError, match=message):
            call()
    # both ends of an edge stay legal, as classify_direction clamps t into [0, 1]
    assert [element_point(diamond, EdgeElement(1, t)) for t in (0.0, 1.0)] == \
        [Vec2(0, 1), Vec2(-1, 0)]
    # a radius of 0 stays legal: the square is the apex
    assert intersect_cones([Cone(Vec2(0, 0), RayShape(Vec2(1, 0)))], 0.0).kind == "point"
    self_check = [
        (lambda: build_cones(square, (Vec2(0, 0),), (Functional(math.inf, 0.0),)),
         "dual norm is inf"),
        (lambda: intersect_cones([Cone(Vec2(0, 0), RayShape(Vec2(1, 0))),
                                  Cone(Vec2(0, 1), RayShape(Vec2(1, 0)))], 10.0),
         "cone intersection is empty"),
    ]
    for call, message in self_check:
        with pytest.raises(CertificateError, match=message) as info:
            call()
        assert not isinstance(info.value, ValueError)
