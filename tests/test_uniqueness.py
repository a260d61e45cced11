import itertools
import math
import re
import tracemalloc
from random import Random

import pytest

from ftplane import (
    DEFAULT_EPS,
    CertificateError,
    ConsistentTriple,
    EdgeElement,
    Vec2,
    VertexElement,
    check_condition1,
    check_condition2,
    check_condition3,
    check_certificate,
    convex_hull,
    dual_vertices,
    element_point,
    ft_solve,
    make_polygonal_norm,
    segment_interior_contains,
    uniqueness_verdict,
)
from ftplane.lambda_planes import make_lambda_norm
from ftplane.norms import Functional, PolygonalNorm
from ftplane.oracle import random_symmetric_norm
from ftplane.uniqueness import _BLOCK

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


def test_verdict_on_a_large_non_unique_lambda_plane():
    # the 6,000-gon: condition 1 fires, and its three witness points, with
    # 9,000 breaklines, must solve to a polygon
    verdict = uniqueness_verdict(make_lambda_norm(3000).norm)
    assert not verdict.unique and verdict.triple.condition == 1
    assert verdict.observed_kind == "polygon"


def test_verdict_on_the_19998_gon():
    # condition 1 fires; the witness's 29,997 breaklines solve to a polygon,
    # certified, and the verdict keeps that solution set
    norm = make_lambda_norm(9999).norm
    verdict = uniqueness_verdict(norm)
    assert not verdict.unique and verdict.triple.condition == 1
    assert verdict.observed_kind == verdict.region.kind == "polygon"
    sol = ft_solve(norm, verdict.witness)
    check_certificate(norm, verdict.witness, sol.certificate)
    assert sol.region == verdict.region


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


def test_verdict_locates_each_pair_once(monkeypatch):
    # m = 100 and neither condition fires, so the pass runs in full over
    # 4,950 pairs in three blocks: one sector location per pair for both
    # conditions, not one per condition
    located = []
    sector_batch = PolygonalNorm.sector_batch

    def counting(self, dx, dy):
        located.append(len(dx))
        return sector_batch(self, dx, dy)

    monkeypatch.setattr(PolygonalNorm, "sector_batch", counting)
    norm = make_lambda_norm(50).norm
    assert uniqueness_verdict(norm).unique
    n_pairs = norm.m * (norm.m - 1) // 2
    assert sum(located) == n_pairs and len(located) == -(-n_pairs // _BLOCK) == 3


def scalar_pair_hits(norm, eps=DEFAULT_EPS):
    """The pair-by-pair loop that conditions 1 and 2 replaced, kept as a reference."""
    duals = dual_vertices(norm)
    m = norm.m
    dual_polygon = PolygonalNorm(tuple(d.as_vec() for d in duals))
    pts = dual_polygon.vertices
    # functional magnitudes grow as the polygon thins, so scale the zero test
    tol = eps * max(1.0, max(d.magnitude() for d in duals))
    for i in range(m):
        for j in range(i + 1, m):
            psi = -(pts[i] + pts[j])  # d_k - psi is (d_i + d_j) + d_k bit for bit
            s = dual_polygon.sector(psi)
            for k in sorted({(s + t) % m for t in (-1, 0, 1, 2)}):
                if k > j and abs(pts[k].x - psi.x) <= tol and abs(pts[k].y - psi.y) <= tol:
                    yield ConsistentTriple((EdgeElement(i, 0.5), EdgeElement(j, 0.5),
                                            EdgeElement(k, 0.5)),
                                           (duals[i], duals[j], duals[k]), condition=1)
                if segment_interior_contains(pts[k - 1], pts[k], psi, eps):
                    yield ConsistentTriple((EdgeElement(i, 0.5), EdgeElement(j, 0.5),
                                            VertexElement(k)),
                                           (duals[i], duals[j], Functional(psi.x, psi.y)),
                                           condition=2)


def scalar_condition3(norm, eps=DEFAULT_EPS):
    """The (j, k) loop that condition 3 replaced, kept as a reference."""
    duals = dual_vertices(norm)
    m = norm.m
    half = m // 2
    for j in range(m):
        phi = duals[j]
        pm = phi.magnitude()
        for k in range(m):
            a = duals[k - 1]
            u = duals[k] - a
            um = u.magnitude()
            if abs(phi.a * u.b - phi.b * u.a) > eps * pm * um:
                continue
            t = (phi.a * u.a + phi.b * u.b) / (um * um)
            margin = eps / um
            if not (2 * margin < abs(t) < 1.0 - 2 * margin):
                continue
            s, r = (1.0 - t) / 2.0, (1.0 + t) / 2.0
            psi1 = a + u * s
            psi2 = -(a + u * r)
            return ConsistentTriple(
                (EdgeElement(j, 0.5), VertexElement(k),
                 VertexElement((k + half) % m)),
                (phi, psi1, psi2),
                condition=3,
            )
    return None


def norm_from_dual_angles(degrees):
    """Norm whose dual vertices are the unit functionals at these angles and their negatives."""
    duals = [(math.cos(math.radians(a)), math.sin(math.radians(a))) for a in sorted(degrees)]
    duals += [(-a, -b) for a, b in duals]
    # vertex k lies on the level lines of dual vertices k - 1 and k
    verts = []
    for (a1, b1), (a2, b2) in zip(duals[-1:] + duals[:-1], duals):
        det = a1 * b2 - a2 * b1
        verts.append(((b2 - b1) / det, (a1 - a2) / det))
    return make_polygonal_norm(verts)


def late_hit_norms():
    """Norms over 100 edges whose first hit of conditions 1, 2 and 3 lies past the first block."""
    rng = Random(0)

    def spread(lo, hi, n):
        return [rng.uniform(lo + 0.1, hi - 0.1) for _ in range(n)]

    half = math.degrees(math.acos(0.25))  # d at 150 +- half sums to minus half of d at 150
    return [
        # condition 1: directions 57, 117 and 177 (and their negatives) after 60 others
        norm_from_dual_angles(spread(0, 57, 60) + [57, 117, 177] + spread(57, 117, 10)
                              + spread(117, 177, 10)),
        # condition 2: -(d_i + d_j) at the middle of the dual edge from 30 to 210 degrees
        norm_from_dual_angles([30, 150 - half, 150 + half - 180, 90]
                              + spread(30, 150 - half, 60) + spread(150 - half, 90, 20)),
        # condition 3: direction 45 parallel to the dual edge from 100 to 170 degrees
        norm_from_dual_angles(spread(0, 45, 40) + [45, 100, 170] + spread(45, 100, 20)
                              + spread(170, 180, 5)),
    ]


def cond2_before_cond1():
    """A norm over 94 edges whose first condition-2 pair, (0, 45), lies in the
    first block and whose first condition-1 pair, (41, 46), in a later one."""
    rng = Random(1)
    a = math.degrees(math.acos(math.cos(math.radians(20)) / 2))
    # d at 270 - a and 270 + a sum to minus the middle of the dual edge from
    # 70 to 110 degrees; d at 55, 175 and 295 (minus d at 115) sum to zero
    return norm_from_dual_angles([90 - a, 90 + a, 70, 110, 55, 115, 175]
                                 + [rng.uniform(28.5, 54.5) for _ in range(40)])


def pair_index(norm, triple):
    """Position of the triple's edge pair i < j in the pass's row-by-row numbering."""
    m, i, j = norm.m, triple.elements[0].edge, triple.elements[1].edge
    return i * m - i * (i + 1) // 2 + j - i - 1


def near_tolerance(vertices):
    """Copies with one vertex pair moved by 1e-10..1e-8, across the zero tests' tolerances."""
    half = len(vertices) // 2
    norms = []
    for d in (1e-10, 3e-10, 1e-9, 2e-9, 3e-9, 1e-8):
        for v in range(half):
            for dx, dy in ((d, 0.0), (0.0, d), (d, -d)):
                moved = list(vertices)
                x, y = moved[v]
                moved[v], moved[v + half] = (x + dx, y + dy), (-x - dx, -y - dy)
                norms.append(make_polygonal_norm(moved))
    return norms


def test_conditions_match_scalar_reference():
    norms = [random_symmetric_norm(rng) for rng in map(Random, range(5)) for _ in range(200)]
    norms += [make_lambda_norm(lam).norm for lam in range(2, 61)]
    norms += lattice_norms(550, seed=5)
    norms += [make_polygonal_norm(r)
              for r in rotations(COND2_OCTAGON) + rotations(COND3_HEXAGON)]
    hexagon = [(1, 0), (0.5, SQRT3 / 2), (-0.5, SQRT3 / 2),
               (-1, 0), (-0.5, -SQRT3 / 2), (0.5, -SQRT3 / 2)]
    moved_cond2 = near_tolerance(COND2_OCTAGON)
    norms += near_tolerance(hexagon) + moved_cond2 + near_tolerance(COND3_HEXAGON)
    late = late_hit_norms()
    both = cond2_before_cond1()
    fired = [0, 0, 0]
    for norm in norms + late + [both]:
        hits = list(scalar_pair_hits(norm))
        want = (next((t for t in hits if t.condition == 1), None),
                next((t for t in hits if t.condition == 2), None),
                scalar_condition3(norm))
        got = (check_condition1(norm), check_condition2(norm), check_condition3(norm))
        assert repr(got) == repr(want)
        for c, t in enumerate(got):
            fired[c] += t is not None
        # the verdict takes the first condition that fires, in order 1, 2, 3
        first = next((t for t in want if t is not None), None)
        try:
            verdict = uniqueness_verdict(norm)
        except CertificateError as exc:
            # some condition-2 octagons moved across the tolerance still fire
            # condition 2, but their witness solve fails: the condition's
            # absolute eps and the solver's tolerances disagree there
            assert any(norm is n for n in moved_cond2) and first.condition == 2
            assert re.fullmatch("condition 2 witness solved to point, expected segment"
                                "|no norming selection sums to zero at p", str(exc))
            continue
        assert repr(verdict.triple) == repr(first)
    assert min(fired) >= 30, fired
    # the first hit of each condition lies outside the first block
    for norm, check in zip(late, (check_condition1, check_condition2, check_condition3)):
        m, triple = norm.m, check(norm)
        if check is check_condition3:
            assert triple.elements[0].edge >= _BLOCK // m
        else:
            assert m * (m - 1) // 2 > _BLOCK
            assert pair_index(norm, triple) >= _BLOCK
    # condition 2 fires a block before condition 1, and the verdict scans on
    t1, t2 = check_condition1(both), check_condition2(both)
    assert pair_index(both, t2) < _BLOCK <= pair_index(both, t1)
    assert uniqueness_verdict(both).triple == t1


def test_verdict_memory_is_bounded_across_blocks():
    norm = make_lambda_norm(400).norm  # m = 800, unique: every pass runs in full
    tracemalloc.start()
    try:
        assert uniqueness_verdict(norm).unique
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000


def non_point_triple(norm, rng, tries):
    """First of ``tries`` random triples on the integer grid [-3, 3]^2 whose
    solution set is not a point, or None."""
    for _ in range(tries):
        points = [Vec2(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(3)]
        if ft_solve(norm, points).region.kind != "point":
            return points
    return None


def test_criterion_agrees_with_a_random_triple_search():
    # the converse of the criterion: no three points of a unique norm have a
    # non-point solution set, and a random search finds three on a non-unique
    # one within a few tries (grid points also line up along lattice vertex
    # directions, as condition 3's segment instances need)
    norms = lattice_norms(80, seed=7)
    norms += [make_polygonal_norm([v * scale for v in norm.vertices])
              for norm in norms[::8] for scale in (0.25, 8.0)]
    norms += [make_polygonal_norm(r) for r in rotations(COND3_HEXAGON)]
    rng = Random(0)
    fired = []
    for norm in norms:
        verdict = uniqueness_verdict(norm)
        found = non_point_triple(norm, rng, 40 if verdict.unique else 400)
        assert (found is None) == verdict.unique, (norm.vertices, verdict.triple, found)
        fired.append(0 if verdict.unique else verdict.triple.condition)
    assert fired.count(0) >= 60 and fired.count(1) >= 3 and fired.count(2) >= 10, fired
