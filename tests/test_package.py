import math
import types

import pytest

import ftplane


def test_all_is_importable_and_holds_no_module():
    namespace: dict = {}
    exec("from ftplane import *", namespace)  # raises if a listed name is missing
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(set(ftplane.__all__))
    assert [name for name, obj in namespace.items()
            if isinstance(obj, types.ModuleType)] == []


def test_public_calls_raise_one_of_two_error_classes(diamond, square, unit_triangle):
    from ftplane import (
        CertificateError, Cone, Functional, InputError, PlaneError, RayShape, Vec2,
        build_cone, classify_direction, ft_solve, intersect_cones,
        lambda_triangle_solution, make_lambda_norm, make_polygonal_norm)

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
    ]
    for call, message in bad_input:
        with pytest.raises(InputError, match=message):
            call()
    self_check = [
        (lambda: build_cone(square, Vec2(0, 0), Functional(math.inf, 0.0)), "dual norm is inf"),
        (lambda: intersect_cones([Cone(Vec2(0, 0), RayShape(Vec2(1, 0))),
                                  Cone(Vec2(0, 1), RayShape(Vec2(1, 0)))], 10.0),
         "cone intersection is empty"),
    ]
    for call, message in self_check:
        with pytest.raises(CertificateError, match=message) as info:
            call()
        assert not isinstance(info.value, ValueError)
