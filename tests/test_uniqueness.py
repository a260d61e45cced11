import itertools
import tracemalloc
from random import Random

import pytest

from ftplane import (
    DEFAULT_EPS,
    ConsistentTriple,
    EdgeElement,
    Vec2,
    VertexElement,
    check_condition1,
    check_condition2,
    check_condition3,
    convex_hull,
    dual_vertices,
    element_point,
    ft_solve,
    make_polygonal_norm,
    segment_interior_contains,
    uniqueness_verdict,
)
from ftplane.lambda_planes import make_lambda_norm
from ftplane.norms import Functional
from ftplane.oracle import random_symmetric_norm

from conftest import COND2_OCTAGON, COND3_HEXAGON, SQRT3, rotations


def functional_sum(fs):
    total = Functional(0.0, 0.0)
    for f in fs:
        total = total + f
    return total


def assert_triple_sound(norm, triple):
    assert functional_sum(triple.functionals).magnitude() <= 1e-8
    duals = dual_vertices(norm)
    for element, phi in zip(triple.elements, triple.functionals):
        if isinstance(element, EdgeElement):
            d = duals[element.edge]
            assert (phi - d).magnitude() <= 1e-9
        else:
            k = element.index
            assert segment_interior_contains(
                duals[k - 1].as_vec(), duals[k].as_vec(), phi.as_vec())


def test_condition1_hexagon(hexagon):
    triple = check_condition1(hexagon)
    assert triple is not None and triple.condition == 1
    edges = [e.edge for e in triple.elements]
    assert edges[1] - edges[0] == 2 and edges[2] - edges[1] == 2
    for f in triple.functionals:
        assert f.magnitude() == pytest.approx(2 / SQRT3, abs=1e-9)
    assert_triple_sound(hexagon, triple)


def test_condition1_negative(diamond):
    assert check_condition1(diamond) is None
    octagon = make_lambda_norm(4).norm
    assert check_condition1(octagon) is None


def test_condition2_negative(diamond):
    assert check_condition2(diamond) is None
    octagon = make_lambda_norm(4).norm
    assert check_condition2(octagon) is None


def test_condition2_positive(cond2_octagon):
    assert check_condition1(cond2_octagon) is None
    triple = check_condition2(cond2_octagon)
    assert triple is not None and triple.condition == 2
    kinds = [type(e) for e in triple.elements]
    assert kinds == [EdgeElement, EdgeElement, VertexElement]
    assert_triple_sound(cond2_octagon, triple)
    # the vertex functional lands strictly inside the dual edge at (0, -1)
    assert triple.elements[2] == VertexElement(6)
    psi = triple.functionals[2]
    assert (psi.a, psi.b) == (pytest.approx(0.0, abs=1e-12), pytest.approx(-1.0))


def test_condition2_twelve_gon_recorded():
    # condition 1 fires for the 12-gon, so condition 2 is unconstrained;
    # it must still run cleanly whatever it reports
    norm = make_lambda_norm(6).norm
    assert check_condition1(norm) is not None
    check_condition2(norm)


def test_condition3_negative(diamond):
    assert check_condition3(diamond) is None
    for lam in range(2, 13):
        assert check_condition3(make_lambda_norm(lam).norm) is None


def test_condition3_positive(cond3_hexagon):
    triple = check_condition3(cond3_hexagon)
    assert triple is not None and triple.condition == 3
    e, v1, v2 = triple.elements
    assert isinstance(e, EdgeElement) and e.edge == 1
    assert isinstance(v1, VertexElement) and isinstance(v2, VertexElement)
    # the zero-type pair is symmetric through the origin
    p1 = element_point(cond3_hexagon, v1)
    p2 = element_point(cond3_hexagon, v2)
    assert (p1 + p2).norm() <= 1e-9
    assert_triple_sound(cond3_hexagon, triple)
    phi, psi1, psi2 = triple.functionals
    assert (phi.a, phi.b) == (pytest.approx(0.0, abs=1e-12), pytest.approx(1.0))
    assert (psi1.a, psi1.b) == (pytest.approx(0.125), pytest.approx(-0.5))
    assert (psi2.a, psi2.b) == (pytest.approx(-0.125), pytest.approx(-0.5))


def test_condition3_witness_solves_to_segment(cond3_hexagon):
    triple = check_condition3(cond3_hexagon)
    witness = [element_point(cond3_hexagon, e) for e in triple.elements]
    sol = ft_solve(cond3_hexagon, witness)
    assert sol.region.kind == "segment"
    assert (sol.region.vertices[0] - Vec2(-3, 0)).norm() <= 1e-9
    assert (sol.region.vertices[1] - Vec2(3, 0)).norm() <= 1e-9


def test_verdict_diamond_unique(diamond):
    verdict = uniqueness_verdict(diamond)
    assert verdict.unique


def test_verdict_hexagon(hexagon):
    verdict = uniqueness_verdict(hexagon)
    assert not verdict.unique
    assert verdict.triple.condition == 1
    assert verdict.expected_kind == "polygon"
    assert verdict.observed_kind == "polygon"
    # witness points are alternating edge midpoints on the unit circle
    sol = ft_solve(hexagon, list(verdict.witness))
    assert sol.region.kind == "polygon"


def test_verdict_octagon_unique():
    assert uniqueness_verdict(make_lambda_norm(4).norm).unique


def test_verdict_cond2_octagon(cond2_octagon):
    verdict = uniqueness_verdict(cond2_octagon)
    assert not verdict.unique
    assert verdict.triple.condition == 2
    assert verdict.observed_kind != "point"


def test_verdict_kind_stable_under_vertex_rotation(cond2_octagon, hexagon):
    for norm, expected_cond in ((cond2_octagon, 2), (hexagon, 1)):
        base = list(norm.vertices)
        for shift in range(1, len(base)):
            rotated = make_polygonal_norm(base[shift:] + base[:shift])
            verdict = uniqueness_verdict(rotated)
            assert not verdict.unique
            assert verdict.triple.condition == expected_cond


def test_random_norms_verdicts_run_clean():
    rng = Random(12)
    for _ in range(30):
        norm = random_symmetric_norm(rng)
        verdict = uniqueness_verdict(norm)
        if not verdict.unique:
            assert verdict.observed_kind in ("segment", "polygon")


def reference_condition1(norm, eps=DEFAULT_EPS):
    """Condition 1 by brute force: the first i < j < k whose sum is zero."""
    duals = dual_vertices(norm)
    tol = eps * max(1.0, max(d.magnitude() for d in duals))
    for i, j, k in itertools.combinations(range(norm.m), 3):
        total = duals[i] + duals[j] + duals[k]
        if abs(total.a) <= tol and abs(total.b) <= tol:
            return ConsistentTriple(
                (EdgeElement(i, 0.5), EdgeElement(j, 0.5), EdgeElement(k, 0.5)),
                (duals[i], duals[j], duals[k]), condition=1)
    return None


def reference_condition2(norm, eps=DEFAULT_EPS):
    """Condition 2 by brute force: every pair against every dual edge."""
    duals = dual_vertices(norm)
    for i, j in itertools.combinations(range(norm.m), 2):
        psi = -(duals[i] + duals[j])
        for k in range(norm.m):
            if segment_interior_contains(duals[k - 1].as_vec(), duals[k].as_vec(),
                                         psi.as_vec(), eps):
                return ConsistentTriple(
                    (EdgeElement(i, 0.5), EdgeElement(j, 0.5), VertexElement(k)),
                    (duals[i], duals[j], psi), condition=2)
    return None


def lattice_norms(count, seed):
    """Symmetric hulls of integer points in [-3, 3]^2; parallel edges abound."""
    rng = Random(seed)
    norms = []
    while len(norms) < count:
        pts = [Vec2(rng.randint(-3, 3), rng.randint(-3, 3))
               for _ in range(rng.randint(2, 5))]
        hull = convex_hull(pts + [-p for p in pts])
        if hull.kind == "polygon":
            norms.append(make_polygonal_norm(list(hull.vertices)))
    return norms


def test_pair_pass_matches_brute_force():
    norms = lattice_norms(120, seed=3) + [
        make_polygonal_norm(r) for r in rotations(COND2_OCTAGON) + rotations(COND3_HEXAGON)]
    fired = [0, 0]
    for norm in norms:
        t1, t2 = check_condition1(norm), check_condition2(norm)
        assert t1 == reference_condition1(norm)
        assert t2 == reference_condition2(norm)
        fired[0] += t1 is not None
        fired[1] += t2 is not None
    assert min(fired) >= 5, fired


def test_condition1_memory_is_linear():
    norm = make_lambda_norm(50).norm  # m = 100, neither condition fires
    tracemalloc.start()
    try:
        assert check_condition1(norm) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000
