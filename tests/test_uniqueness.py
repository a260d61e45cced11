import itertools
import math
import tracemalloc
from random import Random

import numpy as np
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
from ftplane import uniqueness

from conftest import COND2_OCTAGON, COND3_HEXAGON, SQRT3, near_tolerance, rotations


def functional_sum(fs):
    total = Functional(0.0, 0.0)
    for f in fs:
        total = total + f
    return total


def assert_triple_sound(norm, triple):
    assert functional_sum(triple.functionals).norm() <= 1e-8
    duals = dual_vertices(norm)
    for element, phi in zip(triple.elements, triple.functionals):
        if isinstance(element, EdgeElement):
            d = duals[element.edge]
            assert (phi - d).norm() <= 1e-9
        else:
            k = element.index
            assert segment_interior_contains(duals[k - 1], duals[k], phi)


def test_condition1_hexagon(hexagon):
    triple = check_condition1(hexagon)
    assert triple is not None and triple.condition == 1
    edges = [e.edge for e in triple.elements]
    assert edges[1] - edges[0] == 2 and edges[2] - edges[1] == 2
    for f in triple.functionals:
        assert f.norm() == pytest.approx(2 / SQRT3, abs=1e-9)
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
    assert (psi.x, psi.y) == (pytest.approx(0.0, abs=1e-12), pytest.approx(-1.0))


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
    assert (phi.x, phi.y) == (pytest.approx(0.0, abs=1e-12), pytest.approx(1.0))
    assert (psi1.x, psi1.y) == (pytest.approx(0.125), pytest.approx(-0.5))
    assert (psi2.x, psi2.y) == (pytest.approx(-0.125), pytest.approx(-0.5))


def test_condition3_witness_solves_to_segment(cond3_hexagon):
    triple = check_condition3(cond3_hexagon)
    witness = [element_point(cond3_hexagon, e) for e in triple.elements]
    sol = ft_solve(cond3_hexagon, witness)
    assert sol.region.kind == "segment"
    assert (sol.region.vertices[0] - Vec2(-3, 0)).norm() <= 1e-9
    assert (sol.region.vertices[1] - Vec2(3, 0)).norm() <= 1e-9


def test_verdict_diamond_unique(diamond):
    verdict = uniqueness_verdict(diamond)
    assert verdict.unique and verdict.observed_kind is None


def test_a_unique_verdict_does_not_build_the_polar():
    # the verdict locates dual-ball sectors its own way; the polar's angle
    # table would cost a fresh norm m atan2 calls and m Vec2. The dual Vec2
    # are built only for a firing cell, and a witness's cone radius reads
    # max |v_k| without the breakline arrays. On the octagon the conditions
    # test the cells of a window, and none passes
    moved = list(COND2_OCTAGON)
    moved[0], moved[4] = (1.0 + 1e-9, 0.0), (-1.0 - 1e-9, 0.0)
    assert uniqueness._DualSetup.build(make_polygonal_norm(moved), DEFAULT_EPS).window
    for norm in [make_lambda_norm(lam).norm for lam in (10, 11, 44)] + [make_polygonal_norm(moved)]:
        assert uniqueness_verdict(norm).unique
        assert not {"_polar", "_duals", "_breaklines"} & norm.__dict__.keys()
    norm = make_lambda_norm(12).norm
    assert not uniqueness_verdict(norm).unique
    assert "_breaklines" not in norm.__dict__ and "_radius" in norm.__dict__


def test_verdict_hexagon(hexagon):
    verdict = uniqueness_verdict(hexagon)
    assert not verdict.unique
    assert verdict.triple.condition == 1
    assert verdict.region.kind == verdict.observed_kind == "polygon"
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
    assert verdict.region.kind == "polygon"


def test_verdict_on_the_19998_gon():
    # condition 1 fires; the witness's 29,997 breaklines solve to a polygon,
    # certified, and the verdict keeps that solution set
    norm = make_lambda_norm(9999).norm
    verdict = uniqueness_verdict(norm)
    assert not verdict.unique and verdict.triple.condition == 1
    assert verdict.region.kind == "polygon"
    sol = ft_solve(norm, verdict.witness)
    check_certificate(norm, verdict.witness, sol.certificate)
    assert sol.region == verdict.region


def test_verdict_region_is_the_full_solve_of_its_witness():
    # the verdict certifies its witness at the origin without a search; the
    # full solve of the same three points gives the same region, to the bit
    norms = [make_lambda_norm(lam).norm for lam in range(2, 61)]
    norms += [make_polygonal_norm(r) for r in rotations(COND2_OCTAGON) + rotations(COND3_HEXAGON)]
    nonunique = 0
    for norm in norms:
        verdict = uniqueness_verdict(norm)
        if verdict.unique:
            continue
        nonunique += 1
        assert repr(verdict.region) == repr(ft_solve(norm, verdict.witness).region), norm
    assert nonunique == 20 + 8 + 6


def test_verdict_rejects_a_witness_not_optimal_at_the_origin(monkeypatch, hexagon):
    # three edge functionals that do not sum to zero: the origin is no
    # optimum of their witness, and the certify step says so
    duals = dual_vertices(hexagon)
    bad = ConsistentTriple(tuple(EdgeElement(k, 0.5) for k in range(3)),
                           duals[:3], condition=1)
    assert functional_sum(bad.functionals).norm() > 1.0
    monkeypatch.setattr(uniqueness, "_condition1", lambda setup: bad)
    with pytest.raises(CertificateError, match="no norming selection sums to zero"):
        uniqueness_verdict(hexagon)


def test_verdict_cond2_octagon(cond2_octagon):
    verdict = uniqueness_verdict(cond2_octagon)
    assert not verdict.unique
    assert verdict.triple.condition == 2
    assert verdict.region.kind != "point"


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
            assert verdict.region.kind in ("segment", "polygon")


def reference_condition1(norm, eps=DEFAULT_EPS):
    """Condition 1 by brute force: the first i < j < k whose sum is zero."""
    duals = dual_vertices(norm)
    tol = eps * max(1.0, max(d.norm() for d in duals))
    for i, j, k in itertools.combinations(range(norm.m), 3):
        total = duals[i] + duals[j] + duals[k]
        if abs(total.x) <= tol and abs(total.y) <= tol:
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
            if segment_interior_contains(duals[k - 1], duals[k], psi, eps):
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


def probed_cells(monkeypatch):
    """Record the cells each round of the sign-change search probes: one
    (rows, offsets) pair of arrays per round."""
    rounds = []
    runs = uniqueness._runs

    def recording(value, *rows):
        def probed(r, x):
            rounds.append((r, x))
            return value(r, x)
        return runs(probed, *rows)

    monkeypatch.setattr(uniqueness, "_runs", recording)
    return rounds


def runs_by_rounds(value, n, length):
    """_runs before its first-round exit: every search goes round by round."""
    rows, lo, hi, final = np.arange(n), np.zeros(n, dtype=np.intp), np.full(n, length), []
    while True:
        gap = hi - lo - 1
        f = min(max(3, uniqueness._CELLS // rows.size), int(gap.max()))
        probes = lo[:, None] + 1 + np.arange(f) * gap[:, None] // f  # all, if gap <= f
        xs = np.concatenate([lo[:, None], probes, hi[:, None]], axis=1)
        v, b = value(rows, xs[:, 1:-1])
        t = np.arange(rows.size)  # a NaN is neither above nor below
        lo, hi = xs[t, (v > b).sum(axis=1)], xs[t, f + 1 - (v < -b).sum(axis=1)]
        end = gap <= f
        if not end.all():
            left = hi - lo - 1
            end |= (left == 0) | (left == gap)
        if end.all():
            final.append((rows, lo, hi))
            break
        final.append((rows[end], lo[end], hi[end]))
        rows, lo, hi = rows[~end], lo[~end], hi[~end]
    rows, lo, hi = final[0] if len(final) == 1 else map(np.concatenate, zip(*final))
    r, c = (np.arange((count := hi - lo - 1).max()) < count[:, None]).nonzero()
    return rows[r], lo[r] + 1 + c


def test_runs_first_round_exit_matches_the_round_loop(monkeypatch):
    runs, searched = uniqueness._runs, []

    def both(value, n, length):
        got, want = runs(value, n, length), runs_by_rounds(value, n, length)
        assert [(a.dtype, a.tolist()) for a in got] == [(a.dtype, a.tolist()) for a in want]
        searched.append(length - 1 <= max(3, uniqueness._CELLS // n))
        return got

    # the lambda-planes up to m = 90 and the condition 2 and 3 polygons all
    # end in the first round
    monkeypatch.setattr(uniqueness, "_runs", both)
    norms = [make_lambda_norm(lam).norm for lam in range(2, 46)]
    norms += [make_polygonal_norm(vs) for vs in rotations(COND2_OCTAGON) + rotations(COND3_HEXAGON)]
    for norm in norms:
        uniqueness_verdict(norm)
    assert searched == [True] * len(norms)
    # value tables, falling rows with NaNs and ties or random ones, either
    # side of the one-round size
    rng = Random(30)
    levels = [-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, math.nan]
    for _ in range(600):
        n, length = rng.randint(1, 120), rng.randint(2, 130)
        rows = [[rng.choice(levels) for _ in range(length - 1)] for _ in range(n)]
        if rng.random() < 0.5:
            rows = [sorted(row, key=lambda v: -v if v == v else -rng.uniform(-2, 2))
                    for row in rows]
        table, b = np.array(rows), rng.choice([0.0, 0.5, 1.0])
        both(lambda r, x: (table[r[:, None], x - 1], b), n, length)
    assert 150 < sum(searched[len(norms):]) < 450


def test_verdict_locates_each_pair_once(monkeypatch):
    # m = 100 and neither condition fires: one search serves both
    # conditions, and the psi of no non-antipodal pair is located in two
    # rounds or twice in one
    rounds = probed_cells(monkeypatch)
    norm = make_lambda_norm(50).norm
    assert uniqueness_verdict(norm).unique
    m = norm.m
    located = []
    for r, x in rounds:
        cells = {(row, offset) for row, xs in zip(r.tolist(), x.tolist())
                 for offset in xs if row < m // 2}
        located += [frozenset((i, (i + offset) % m)) for i, offset in cells]
    non_antipodal = [pair for pair in located if (max(pair) - min(pair)) != m // 2]
    assert len(non_antipodal) == len(set(non_antipodal))
    assert len(rounds) >= 2 and len(located) < m * (m - 1) // 2


def scalar_pair_hits(norm, eps=DEFAULT_EPS):
    """The pair-by-pair loop that conditions 1 and 2 replaced, kept as a reference."""
    duals = dual_vertices(norm)
    m = norm.m
    dual_polygon = PolygonalNorm(duals)
    pts = dual_polygon.vertices
    # functional magnitudes grow as the polygon thins, so scale the zero test
    tol = eps * max(1.0, max(d.norm() for d in duals))
    for i in range(m):
        for j in range(i + 1, m):
            psi = -(pts[i] + pts[j])  # d_k - psi is (d_i + d_j) + d_k bit for bit
            s = dual_polygon._sector(psi.x, psi.y)
            for k in sorted({(s + t) % m for t in (-1, 0, 1, 2)}):
                if k > j and abs(pts[k].x - psi.x) <= tol and abs(pts[k].y - psi.y) <= tol:
                    yield ConsistentTriple((EdgeElement(i, 0.5), EdgeElement(j, 0.5),
                                            EdgeElement(k, 0.5)),
                                           (duals[i], duals[j], duals[k]), condition=1)
                if segment_interior_contains(pts[k - 1], pts[k], psi, eps):
                    yield ConsistentTriple((EdgeElement(i, 0.5), EdgeElement(j, 0.5),
                                            VertexElement(k)),
                                           (duals[i], duals[j], psi),
                                           condition=2)


def scalar_condition3(norm, eps=DEFAULT_EPS):
    """The (j, k) loop that condition 3 replaced, kept as a reference."""
    duals = dual_vertices(norm)
    m = norm.m
    half = m // 2
    for j in range(m):
        phi = duals[j]
        pm = phi.norm()
        for k in range(m):
            a = duals[k - 1]
            u = duals[k] - a
            um = u.norm()
            if abs(phi.cross(u)) > eps * pm * um:
                continue
            t = phi.dot(u) / (um * um)
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
    """Norms over 130 edges or more, on which the search takes several rounds,
    with hits of conditions 1, 2 and 3 away from the first row."""
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
    """A norm over 94 edges whose first condition-2 pair, (0, 45), comes
    before its first condition-1 pair, (41, 46)."""
    rng = Random(1)
    a = math.degrees(math.acos(math.cos(math.radians(20)) / 2))
    # d at 270 - a and 270 + a sum to minus the middle of the dual edge from
    # 70 to 110 degrees; d at 55, 175 and 295 (minus d at 115) sum to zero
    return norm_from_dual_angles([90 - a, 90 + a, 70, 110, 55, 115, 175]
                                 + [rng.uniform(28.5, 54.5) for _ in range(40)])


def search_cell(norm, triple):
    """Row and offset of the triple's cell in the sign-change search: row i
    < m/2 holds the pairs (i, i + x) and row m/2 + j condition 3's cells
    (j, j + x), x = 1 .. m/2; each also stands for its cells moved by m/2."""
    m, half = norm.m, norm.m // 2
    if triple.condition == 3:
        j, k = triple.elements[0].edge, triple.elements[1].index
        return half + j % half, (k - j - 1) % half + 1
    i, j = triple.elements[0].edge, triple.elements[1].edge
    base, x = (i, j - i) if j - i <= half else (j, m - (j - i))
    return base % half, x


def pair_index(norm, triple):
    """Position of the triple's edge pair i < j in row-by-row order."""
    m, i, j = norm.m, triple.elements[0].edge, triple.elements[1].edge
    return i * m - i * (i + 1) // 2 + j - i - 1


def test_conditions_match_scalar_reference(monkeypatch):
    norms = [random_symmetric_norm(rng) for rng in map(Random, range(5)) for _ in range(200)]
    # odd planes up to m = 202, whose condition-3 survivors fall in every block of rows
    norms += [make_lambda_norm(lam).norm for lam in [*range(2, 61), 61, 97, 101]]
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
            # condition 2, but their witness solves to a point: the condition's
            # absolute eps and the solver's tolerances disagree there
            assert any(norm is n for n in moved_cond2) and first.condition == 2
            assert str(exc) == "condition 2 witness solved to point, expected segment"
            continue
        assert repr(verdict.triple) == repr(first)
    assert min(fired) >= 30, fired
    # the search takes two rounds or more from m = 92 on, on the late-hit
    # norms and the lambda-planes up to m = 202, and one below
    rounds = probed_cells(monkeypatch)
    for norm in late + [make_lambda_norm(lam).norm for lam in (24, 45, 46, 50, 101)]:
        rounds.clear()
        uniqueness_verdict(norm)
        assert (len(rounds) >= 2) == (norm.m >= 92), (norm.m, len(rounds))
    # and the late hits lie in rows that the second round still searches
    for norm, check in zip(late, (check_condition1, check_condition2, check_condition3)):
        rounds.clear()
        row, offset = search_cell(norm, check(norm))
        assert row in rounds[1][0] and 1 <= offset <= norm.m // 2
    # condition 2's pair comes first, and the verdict still takes condition 1
    t1, t2 = check_condition1(both), check_condition2(both)
    assert pair_index(both, t2) < pair_index(both, t1)
    assert uniqueness_verdict(both).triple == t1


def test_scalar_judge_sees_only_real_candidates(monkeypatch):
    # the array tests reject every pair that is collinear with a dual edge
    # but outside it, so segment_interior_contains sees none on the
    # lambda-planes and still accepts the condition-2 pair of each rotation
    calls = []

    def counting(*args):
        calls.append(segment_interior_contains(*args))
        return calls[-1]

    monkeypatch.setattr(uniqueness, "segment_interior_contains", counting)
    for lam in range(2, 61):
        uniqueness_verdict(make_lambda_norm(lam).norm)
    assert calls == []
    for r in rotations(COND2_OCTAGON):
        calls.clear()
        assert check_condition2(make_polygonal_norm(r)) is not None
        assert calls[-1] is True


def test_verdict_memory_is_bounded_across_blocks():
    norm = make_lambda_norm(400).norm  # m = 800, unique: every pass runs in full
    tracemalloc.start()
    try:
        assert uniqueness_verdict(norm).unique
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000


def test_verdict_at_scale():
    # the 20,002-gon is unique, so the search covers every row of all three
    # conditions; a pair-by-pair pass would take about half a minute here
    norm = make_lambda_norm(10001).norm
    tracemalloc.start()
    try:
        assert uniqueness_verdict(norm).unique
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20_000_000


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
