import dataclasses
import gc
import math
import tracemalloc
import warnings
import weakref
from fractions import Fraction
from random import Random

import numpy as np
import pytest

from ftplane import (
    AngleShape,
    Certificate,
    CertificateError,
    Cone,
    InputError,
    RayShape,
    Vec2,
    build_cones,
    candidate_minimize,
    check_certificate,
    collinear_median,
    dual_norm,
    dual_vertices,
    ft_solve,
    gauge,
    intersect_cones,
    make_polygonal_norm,
    objective,
    verify_ft_point,
)
from ftplane import geometry, solver
from ftplane.geometry import DEFAULT_EPS, Region, clip_polygon
from ftplane.lambda_planes import make_lambda_norm
from ftplane.norms import Functional, FunctionalSegment, gauge_batch, norming_set
from ftplane.oracle import probe_solution_set, random_instance, random_symmetric_norm
from ftplane.uniqueness import uniqueness_verdict

from conftest import (
    COND2_OCTAGON,
    COND3_HEXAGON,
    DIAMOND_ARMS,
    SQRT3,
    HalfPlane,
    cone_radius,
    fibre_selections,
    fibre_vertices,
    lattice_sets,
    line_runs,
    near_vertex_sets,
    outcome,
    plus_shape,
    random_terminals,
    regions_match,
    rotations,
)


def l1_objective(points, x):
    return sum(abs(x.x - q.x) + abs(x.y - q.y) for q in points)


def l1_median_value(points):
    xs = sorted(q.x for q in points)
    ys = sorted(q.y for q in points)
    mid = Vec2(xs[len(xs) // 2], ys[len(ys) // 2])
    return mid, l1_objective(points, mid)


def test_objective_matches_l1_oracle(diamond):
    pts = [Vec2(0, 0), Vec2(2, 0), Vec2(0, 2)]
    assert objective(diamond, pts, Vec2(0, 0)) == pytest.approx(
        l1_objective(pts, Vec2(0, 0)), abs=1e-12)
    assert objective(diamond, [Vec2(1, 2)], Vec2(1, 2)) == 0.0
    pts = [Vec2(-2, 0), Vec2(2, 0), Vec2(0, 2)]
    assert objective(diamond, pts, Vec2(0, 1)) == pytest.approx(7.0, abs=1e-12)


def test_candidate_minimize_coordinate_median(diamond):
    pts = [Vec2(0, 0), Vec2(2, 0), Vec2(0, 2)]
    arg, value = candidate_minimize(diamond, pts)
    _, want = l1_median_value(pts)
    assert value == pytest.approx(want, abs=1e-9)
    assert any((c - Vec2(0, 0)).norm() <= 1e-9 for c in arg)

    pts = [Vec2(-2, 0), Vec2(2, 0), Vec2(0, 2)]
    arg, value = candidate_minimize(diamond, pts)
    assert value == pytest.approx(6.0, abs=1e-9)
    assert any((c - Vec2(0, 0)).norm() <= 1e-9 for c in arg)


def test_candidate_minimize_random_l1(diamond):
    rng = Random(8)
    for _ in range(30):
        pts = [Vec2(rng.uniform(-5, 5), rng.uniform(-5, 5))
               for _ in range(rng.randint(1, 6))]
        _, value = candidate_minimize(diamond, pts)
        _, want = l1_median_value(pts)
        assert value == pytest.approx(want, abs=1e-9)


def test_candidate_minimize_hexagon_triangle(hexagon, unit_triangle):
    arg, value = candidate_minimize(hexagon, unit_triangle)
    assert value == pytest.approx(2.0, abs=1e-9)
    for q in unit_triangle:
        assert any((c - q).norm() <= 1e-9 for c in arg)


def reference_candidates(norm, points):
    """The scalar pair loop over Vec2 lines that candidate_minimize replaces.

    A grid line is one line: lines of one direction whose keys
    q.x * d.y - q.y * d.x are equal and finite are taken at the first terminal.
    Returns the terminals and then every crossing, the pair (a, b) of line
    indices (terminal * m/2 + direction) of each crossing (None for a
    terminal), and the objective at each candidate.
    """
    pts = list(points)
    half = norm.m // 2
    lines, firsts = [], set()
    for a, (q, k) in enumerate((q, k) for q in pts for k in range(half)):
        d = norm.vertices[k]
        key = q.x * d.y - q.y * d.x
        if not (math.isfinite(key) and (k, key) in firsts):
            firsts.add((k, key))
            lines.append((a, q, d))
    cands, pairs = list(pts), [None] * len(pts)
    for at, (i, p1, d1) in enumerate(lines):
        for j, p2, d2 in lines[at + 1:]:
            den = d1.cross(d2)
            if abs(den) <= 1e-12 * d1.norm() * d2.norm():
                continue
            t = (p2 - p1).cross(d2) / den
            cands.append(p1 + d1 * t)
            pairs.append((i, j))
    arr = np.array([[c.x, c.y] for c in cands])
    vals = np.zeros(len(arr))
    for q in pts:
        vals += gauge_batch(norm, arr[:, 0] - q.x, arr[:, 1] - q.y)
    return cands, pairs, vals


def reference_candidate_minimize(norm, points, eps=DEFAULT_EPS):
    """candidate_minimize by the scalar pair loop and a pairwise dedup."""
    cands, _, vals = reference_candidates(norm, points)
    best = float(vals.min())
    vtol = eps * max(1.0, abs(best))
    arg = [cands[i] for i in np.flatnonzero(vals <= best + vtol)]
    arg.sort(key=Vec2.key)
    out = []
    for c in arg:
        if all((c - kept).norm() > eps for kept in out):
            out.append(c)
    return out, best


@pytest.fixture
def live_masks(monkeypatch):
    """The live-line mask of every candidate_minimize call, in call order."""
    masks = []
    real = solver._live_lines

    def spy(*args):
        masks.append(real(*args))
        return masks[-1]

    monkeypatch.setattr(solver, "_live_lines", spy)
    return masks


def test_candidate_minimize_matches_loop_reference(diamond, hexagon, unit_triangle):
    gon48 = make_lambda_norm(24).norm
    rng = Random(1)
    cases = [(gon48, [Vec2(rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0))
                      for _ in range(6)]) for _ in range(100)]
    rng = Random(7)
    cases += [random_instance(rng) for _ in range(300)]
    # huge coordinates: exact power-of-two scalings whose squares would
    # overflow, while the objective and the cuts stay finite
    cases += [(norm, [q * 2.0 ** k for q in pts])
              for k in (509, 510) for norm, pts in cases[:20] + cases[100:150]]
    # blocks with no near-optimal candidate: 30 terminals, a cluster and a far
    # group, keep 305 of the 48-gon's 720 lines live, in 3 blocks of
    # crossings; two of the blocks hold none of the minimizers
    rng = Random(1)
    cases.append((gon48, [Vec2(rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0))
                          for _ in range(20)]
                  + [Vec2(100.0 + rng.uniform(-1.0, 1.0), 100.0 + rng.uniform(-1.0, 1.0))
                     for _ in range(10)]))
    pts = random_terminals(5, seed=2)
    cases += [
        (hexagon, [Vec2(1.5, -2.0)]),
        (gon48, pts + pts[:3]),
        (diamond, [Vec2(0, 0), Vec2(2, 0), Vec2(2, 0), Vec2(0, 2)]),
        # an even count on a vertex-direction line: no collinear shortcut
        (hexagon, [Vec2(0.5, SQRT3 / 2) * s for s in (-2.0, 0.0, 1.0, 3.5)]),
        (diamond, [Vec2(0, 0), Vec2(2, 0), Vec2(0, 2)]),
        (diamond, [Vec2(-2, 0), Vec2(2, 0), Vec2(0, 2)]),
        (hexagon, unit_triangle),
    ]
    for norm, pts in cases:
        assert repr(candidate_minimize(norm, pts)) == \
            repr(reference_candidate_minimize(norm, pts)), pts


def lp_minimum(norm, points) -> float:
    """Optimum of min sum t_i subject to t_i >= phi_k(x - x_i), by scipy's HiGHS.

    The gauge is the largest dual-vertex functional, so this linear program
    has the Fermat-Torricelli optimum as its value.
    """
    from scipy.optimize import linprog

    duals = norm._dual_array
    n, m = len(points), len(duals)
    # variables x, y, t_1..t_n; row (i, k): phi_k . (x, y) - t_i <= phi_k . x_i
    a_ub = np.zeros((n * m, 2 + n))
    a_ub[:, :2] = np.tile(duals, (n, 1))
    a_ub[np.arange(n * m), 2 + np.repeat(np.arange(n), m)] = -1.0
    b_ub = np.concatenate([duals @ np.array([q.x, q.y]) for q in points])
    cost = np.concatenate([[0.0, 0.0], np.ones(n)])
    res = linprog(cost, A_ub=a_ub, b_ub=b_ub,
                  bounds=[(None, None)] * 2 + [(0.0, None)] * n, method="highs")
    assert res.status == 0, res.message
    return float(res.fun)


def test_candidate_minimize_matches_lp_oracle(live_masks):
    # 100 terminals on the 48-gon: 2,400 breaklines, 2.76 million crossings;
    # each set solves with a checked certificate. Of the 24,000 breaklines of
    # the 1,000, the cuts keep under 1 %.
    norm = make_lambda_norm(24).norm
    for n in (100, 200, 1000):
        pts = random_terminals(n, seed=n)
        _, best = candidate_minimize(norm, pts)
        assert abs(best - lp_minimum(norm, pts)) <= DEFAULT_EPS * max(1.0, best)
        assert ft_solve(norm, pts).objective == best
    assert live_masks[-1].size == 24_000 and live_masks[-1].sum() <= 240


def flat_argmin_set():
    """The third draw of Random(9) on the 48-gon: two argmin candidates 5.2e-4
    apart and 3.9e-7 apart in value, whose centroid does not certify."""
    rng = Random(9)
    for n in (50, 100, 200):
        pts = [Vec2(rng.uniform(-5, 5), rng.uniform(-5, 5)) for _ in range(n)]
    return make_lambda_norm(24).norm, pts


def batch_argmin(norm, pts, cands):
    """The candidate of least value on the array route, the first of equals:
    one _objective_batch call over the candidates."""
    vals = solver._objective_batch(norm, *solver._coords(pts), *solver._coords(cands))
    return cands[int(vals.argmin())]


def test_flat_argmin_certifies_its_lowest_candidate():
    # the centroid of the two candidates does not certify, the lower one does
    norm, pts = flat_argmin_set()
    cands, best = candidate_minimize(norm, pts)
    assert len(cands) == 2
    centroid = Vec2((cands[0].x + cands[1].x) / 2, (cands[0].y + cands[1].y) / 2)
    assert verify_ft_point(norm, pts, centroid) is None
    sol = ft_solve(norm, pts)
    assert sol.certificate.base == batch_argmin(norm, pts, cands)
    assert sol.objective == best == objective(norm, pts, sol.certificate.base)
    assert abs(best - lp_minimum(norm, pts)) <= DEFAULT_EPS * max(1.0, best)


def test_the_fallback_ranks_candidates_on_the_array_route(monkeypatch):
    # the scalar objective values no candidate: it only re-checks the
    # region's vertices, and the base is the argmin of one _objective_batch
    # call, on the floats candidate_minimize kept the candidates by
    norm, pts = flat_argmin_set()
    cands, _ = candidate_minimize(norm, pts)
    calls, batches = [], []

    def spy(norm, points, x):
        calls.append(x)
        return objective(norm, points, x)

    def batch_spy(norm, qx, qy, xs, ys):
        batches.append(len(xs))
        return objective_batch(norm, qx, qy, xs, ys)

    objective_batch = solver._objective_batch
    monkeypatch.setattr(solver, "objective", spy)
    monkeypatch.setattr(solver, "_objective_batch", batch_spy)
    sol = ft_solve(norm, pts)
    assert calls == list(sol.region.vertices)
    assert batches[-1] == len(cands)  # the fallback's one call, after candidate_minimize's
    monkeypatch.undo()
    assert sol.certificate.base == batch_argmin(norm, pts, cands) == cands[0]


def test_near_vertex_sets_certify_at_their_lowest_candidate(diamond, hexagon):
    # terminals up to 2 eps off a vertex direction from the optimum: where the
    # centroid of several candidates fails, the lowest one certified alone,
    # with a relaxed entry of dual norm one given its cone, answers 10 of the
    # 15 sets that raised; 5 still find the cones disjoint
    failed = []
    for norm, _, sets in near_vertex_sets(diamond, hexagon):
        for pts, _ in sets:
            try:
                sol = ft_solve(norm, pts)
            except CertificateError as exc:
                failed.append(str(exc))
                continue
            best = lp_minimum(norm, pts)
            for v in sol.region.vertices:
                assert abs(objective(norm, pts, v) - best) <= 1e-9 * best, (pts, v)
    assert failed == ["cone intersection is empty"] * 5


def test_a_terminal_alone_forms_no_crossing(diamond, hexagon):
    # one terminal, or one twice, whose lines merge: no pair is formed, and
    # the terminal, scored on its own, is the answer as the caller's object
    for norm in (diamond, hexagon, make_lambda_norm(24).norm):
        _, dx, dy, dn = norm._breaklines
        for q in (Vec2(1, -2), Vec2(0.25, -1.0)):
            for pts in ([q], [q, q]):
                qx, qy = np.array([c.x for c in pts], float), np.array([c.y for c in pts], float)
                live = np.ones(len(pts) * len(dx), dtype=bool)
                assert list(solver._crossing_blocks(qx, qy, dx, dy, dn, live)) == []
                cands, best = candidate_minimize(norm, pts)
                assert best == 0.0 and len(cands) == 1 and cands[0] is q


def test_candidate_minimize_memory_is_bounded():
    # 30 terminals on the 48-gon: 720 breaklines, 258,840 crossings; one Vec2
    # per candidate peaked at 58 MB
    norm = make_lambda_norm(24).norm
    pts = random_terminals(30, seed=30)
    tracemalloc.start()
    try:
        candidate_minimize(norm, pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12_000_000


MIRROR_48GON = [Vec2(-0.0, -0.0), Vec2(-0.0, 0.5), Vec2(2.0, 0.0), Vec2(1.0, 1.0),
                Vec2(2.0, 0.5)]


@pytest.mark.parametrize("block, count", [(5, 120), (720, 24)])
def test_candidate_minimize_block_shapes_match_loop_reference(
        monkeypatch, live_masks, diamond, hexagon, unit_triangle, block, count):
    # with all 144 lines of six terminals live, block 5 takes one row at a
    # time (longer than the block) with all its later lines; block 720 takes
    # five rows at a time, across terminals. A row block whose later lines
    # are all of its own terminal or parallel yields nothing: the last
    # terminal's rows fill 24 of the 144 row blocks at block 5, 5 of 29 at 720.
    monkeypatch.setattr(solver, "_PAIR_BLOCK", block)
    gon48 = make_lambda_norm(24).norm
    rng = Random(5)
    six = [Vec2(rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0)) for _ in range(6)]
    qx, qy = np.array([q.x for q in six]), np.array([q.y for q in six])
    assert sum(1 for _ in solver._crossing_blocks(
        qx, qy, *gon48._breaklines[1:], np.ones(6 * 24, dtype=bool))) == count
    cases = [(gon48, six), (gon48, six[:2]), (gon48, six[:3] + six[:2]),
             (gon48, [Vec2(0.25, -1.0)]), (hexagon, [Vec2(1.5, -2.0)]),
             (hexagon, random_terminals(7, seed=7)),
             (hexagon, unit_triangle + unit_triangle[:2]),
             (diamond, [Vec2(0, 0), Vec2(2, 0), Vec2(2, 0), Vec2(0, 2)]),
             # above the guard: cuts, and row blocks that span two terminals
             (gon48, MIRROR_48GON), (hexagon, random_terminals(16, seed=16)),
             (make_lambda_norm(40).norm, random_terminals(3, seed=3))]
    cases += [(norm, [Vec2(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(n)])
              for norm, n in ((diamond, 6), (hexagon, 6), (diamond, 24), (hexagon, 16))
              for _ in range(3)]
    for norm, pts in cases:
        assert repr(candidate_minimize(norm, pts)) == \
            repr(reference_candidate_minimize(norm, pts)), pts
    pruned = [not mask.all() for mask in live_masks]
    assert pruned.count(True) >= 8 and pruned.count(False) >= 8, pruned


def test_candidate_minimize_gauges_terminals_and_first_block_in_one_call(monkeypatch, diamond):
    # one _objective_batch call scores the terminals and the first crossing
    # block together; it looks gauge_batch up on the solver module, where the
    # benchmark's tracer wraps it
    calls = []

    def counting(norm, dx, dy):
        calls.append(dx.shape)
        return gauge_batch(norm, dx, dy)

    monkeypatch.setattr(solver, "gauge_batch", counting)
    rng = Random(5)
    six = [Vec2(rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0)) for _ in range(6)]
    plus = plus_shape(Vec2(0.3, -0.7), [3, 3, 4, 3], seed=13)
    for norm, pts in ((diamond, plus), (make_lambda_norm(24).norm, six)):
        calls.clear()
        got = candidate_minimize(norm, pts)
        (shape,) = calls
        assert shape[0] == len(pts) and shape[1] > len(pts)
        assert repr(got) == repr(reference_candidate_minimize(norm, pts))


def test_argmin_crossings_lie_on_live_lines(live_masks):
    # every crossing within tolerance of the loop reference's optimum is
    # formed from two live lines, above the guard and wherever cuts are found
    gon48 = make_lambda_norm(24).norm
    cases = [(gon48, random_terminals(n, seed=n)) for n in (6, 8, 11, 15, 20, 30)]
    rng = Random(17)
    for lam in range(8, 31):  # mirror-, point- and diagonal-symmetric lattices
        half = [Vec2(rng.randint(-3, 3) * 0.5, rng.randint(-3, 3) * 0.5) for _ in range(4)]
        image = [[Vec2(-q.x, q.y) for q in half], [-q for q in half],
                 [Vec2(q.y, q.x) for q in half]][lam % 3]
        cases.append((make_lambda_norm(lam).norm, half + image))
    for r in (10.0, 100.0, 1e3, 1e4):  # elongated hexagons
        cases.append((make_polygonal_norm([(r, 0), (1, 1), (-1, 1), (-r, 0), (-1, -1),
                                           (1, -1)]), random_terminals(16, seed=int(r))))
    eight = random_terminals(8, seed=8)
    cases += [(gon48, [q * 2.0 ** k for q in eight]) for k in (-40, 40)]
    cases += [(gon48, eight[:6] + eight[:3]),  # duplicate terminals
              (make_lambda_norm(100).norm, eight[:2]),
              (gon48, MIRROR_48GON),
              # rows: a horizontal one, one in a vertex direction, a vertical one
              (gon48, [Vec2(x, 0.5) for x in (-2.5, -1.0, 0.0, 0.5, 2.0, 3.0)]),
              (gon48, [gon48.vertices[5] * s for s in (-2.0, -0.5, 0.25, 1.0, 3.0, 4.5)]),
              (gon48, [Vec2(1.0, y) for y in (-3.0, -1.0, 0.0, 1.5, 2.0, 4.0)])]
    pruned = 0
    for norm, pts in cases:
        live_masks.clear()
        candidate_minimize(norm, pts)
        live = live_masks[0]
        pruned += not live.all()
        _, pairs, vals = reference_candidates(norm, pts)
        best = float(vals.min())
        near = np.flatnonzero(vals <= best + DEFAULT_EPS * max(1.0, best))
        for a, b in (pairs[c] for c in near if pairs[c] is not None):
            assert live[a] and live[b], (pts, a, b)
    assert pruned >= 30, pruned


def test_clip_lines_parallel_cuts_and_nan():
    # lines through (0.5, 0), (1, 0) and (2, 0), vertical (-0.0, 1) and
    # horizontal; the cut x <= 1 has g . d == -0.0 on the vertical lines
    qx, qy = np.array([0.5, 1.0, 2.0]), np.zeros(3)
    dx, dy = np.array([-0.0, 1.0]), np.array([1.0, 0.0])
    cut = (np.array([1.0]), np.array([-0.0]), np.array([1.0]))
    assert solver._clip_lines(*cut, qx, qy, dx, dy).tolist() == \
        [True, True, True, True, False, True]
    for nan in ([math.nan, 0.0, 1.0], [1.0, math.nan, 1.0], [1.0, 0.0, math.nan]):
        both = [np.append(c, v) for c, v in zip(cut, nan)]
        assert solver._clip_lines(*both, qx, qy, dx, dy).tolist() == \
            [True, True, True, True, False, True]
        alone = [np.array([v]) for v in nan]
        assert solver._clip_lines(*alone, qx, qy, dx, dy).all()
    # the square |x|, |y| <= 1: the diagonal x - y = 2 touches its corner,
    # x - y = 3 misses it
    gx, gy, bound = np.array([1.0, -1.0, 0.0, 0.0]), np.array([0.0, 0.0, 1.0, -1.0]), np.ones(4)
    assert solver._clip_lines(gx, gy, bound, np.array([2.0, 3.0]), np.zeros(2),
                              np.array([1.0]), np.array([1.0])).tolist() == [True, False]


def greedy_dedup(cands, eps, firm=()):
    """The pairwise loop that candidate_minimize's dedup replaces; the
    ``firm`` points come first and are all kept."""
    out = list(firm)
    for c in sorted(cands, key=Vec2.key):
        if all((c - kept).norm() > eps for kept in out):
            out.append(c)
    return sorted(out, key=Vec2.key)


def test_dedup_matches_greedy_loop():
    # clouds on lattices with spacings near eps, jittered below eps, with
    # repeated points, copies at other identities, +-0.0 coordinates and
    # shared x
    rng = Random(3)
    eps = DEFAULT_EPS
    for _ in range(3000):
        sx, sy = (eps * rng.choice([0.3, 0.7, 0.999, 1.0, 1.001, 1.4]) for _ in "xy")
        x0, y0 = rng.uniform(-10.0, 10.0), rng.uniform(-10.0, 10.0)
        cloud = [Vec2(x0 + sx * rng.randint(0, 9) + eps * rng.uniform(-0.2, 0.2),
                      y0 + sy * rng.randint(0, 9)) for _ in range(rng.randint(1, 40))]
        cloud += rng.sample(cloud, len(cloud) // 4)
        cloud += [Vec2(c.x, c.y) for c in rng.sample(cloud, len(cloud) // 4)]
        cloud += [Vec2(rng.choice((0.0, -0.0)), rng.choice((0.0, -0.0, sy)))
                  for _ in range(rng.randint(0, 3))]
        rng.shuffle(cloud)
        assert [id(c) for c in solver._dedup(cloud, eps)] == \
            [id(c) for c in greedy_dedup(cloud, eps)]
        # a deduped part of the cloud (the terminals) outranks the rest
        firm = greedy_dedup(cloud[:rng.randint(0, len(cloud))], eps)
        rest = [c for c in cloud if all(c is not q for q in firm)]
        assert [id(c) for c in solver._dedup(rest, eps, firm)] == \
            [id(c) for c in greedy_dedup(rest, eps, firm)]
    cluster = [Vec2(0.5, -0.25) for _ in range(40)]  # 40 identities, one point
    cluster += [Vec2(-0.0, 0.0), Vec2(0.0, -0.0), Vec2(-0.0, -0.0)]
    for cands in (cluster, cluster[::-1]):
        kept = solver._dedup(cands, eps)
        assert [id(c) for c in kept] == [id(c) for c in greedy_dedup(cands, eps)]
        assert kept == [Vec2(0.0, 0.0), Vec2(0.5, -0.25)]


def test_a_point_answer_at_a_terminal_is_the_terminal():
    # lattice sets: a crossing a few ulps from a terminal, and lower in key
    # order, came back instead of it, e.g. (-1.0000000000000002, -1.0) for
    # (-1, -1) on lambda = 2
    at_terminal = 0
    for norm, pts in lattice_sets():
        region = ft_solve(norm, pts).region
        p = region.vertices[0]
        near = [q for q in pts if region.kind == "point" and (p - q).norm() <= 1e-6]
        if near:
            at_terminal += 1
            bits = [float(p.x).hex(), float(p.y).hex()]
            assert bits in ([float(q.x).hex(), float(q.y).hex()] for q in near), (pts, p)
    assert at_terminal == 115
    t, c = Vec2(-1, -1), Vec2(-1.0000000000000002, -1.0)
    assert [id(q) for q in solver._dedup([c], DEFAULT_EPS, [t])] == [id(t)]
    # scaled by 2^-20, a random instance's optimum is a crossing 3.2e-10 from
    # terminal 0, whose value is 2.8e-5 higher relative to it: the terminal
    # gets no certificate, and the crossing stays the answer
    rng = Random(1)
    for _ in range(212):
        norm, pts = random_instance(rng)
    pts = [q * 2.0 ** -20 for q in pts]
    (p,) = ft_solve(norm, pts).region.vertices
    assert p != pts[0] and (p - pts[0]).norm() < DEFAULT_EPS


def test_candidate_minimize_memory_on_a_large_lambda_plane():
    # the condition-1 witness of the 1,998-gon: three terminals, 2,997
    # breaklines, 3 million crossings; a table of the 998,001 direction
    # pairs (products, mask and index arrays) alone would pass 12 MB
    norm = make_lambda_norm(999).norm
    verdict = uniqueness_verdict(norm)
    assert verdict.triple.condition == 1
    tracemalloc.start()
    try:
        candidate_minimize(norm, list(verdict.witness))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12_000_000


def test_solving_keeps_no_reference_to_the_norm():
    # every CLI call builds a fresh norm: a cache keyed by norm would keep
    # each one alive
    norm = make_polygonal_norm([(2, 0), (1, 1), (-1, 1), (-2, 0), (-1, -1), (1, -1)])
    ref = weakref.ref(norm)
    ft_solve(norm, random_terminals(5, seed=5))
    del norm
    gc.collect()
    assert ref() is None


def test_verify_ft_point(diamond):
    pts = [Vec2(-2, 0), Vec2(2, 0), Vec2(0, 2)]
    cert = verify_ft_point(diamond, pts, Vec2(0, 0))
    assert cert is not None and not cert.relaxed
    check_certificate(diamond, pts, cert)
    assert verify_ft_point(diamond, pts, Vec2(0, 1)) is None


def test_verify_ft_point_relaxed_at_terminal(diamond):
    pts = [Vec2(0, 0), Vec2(1, 0), Vec2(5, 0)]
    cert = verify_ft_point(diamond, pts, Vec2(1, 0))
    assert cert is not None and cert.relaxed == (1,)
    check_certificate(diamond, pts, cert)
    total = Functional(0.0, 0.0)
    for f in cert.functionals:
        total = total + f
    assert total.norm() <= 1e-9
    assert dual_norm(diamond, cert.functionals[1]) <= 1 + 1e-9


def test_verify_ft_point_diamond(diamond):
    pts = [Vec2(-2, 0), Vec2(2, 0), Vec2(0, 2)]
    phis = verify_ft_point(diamond, pts, Vec2(0, 0)).functionals
    total = Functional(0.0, 0.0)
    for phi, q in zip(phis, pts):
        total = total + phi
        assert phi.dot(q) == pytest.approx(gauge(diamond, q), abs=1e-9)
        assert dual_norm(diamond, phi) == pytest.approx(1.0, abs=1e-9)
    assert total.norm() <= 1e-9


def test_verify_ft_point_hexagon_centroid(hexagon, unit_triangle):
    p = Vec2(0.5, SQRT3 / 6)
    phis = verify_ft_point(hexagon, unit_triangle, p).functionals
    angles = sorted(math.degrees(math.atan2(f.y, f.x)) % 360 for f in phis)
    assert angles == pytest.approx([90.0, 210.0, 330.0], abs=1e-7)
    for f in phis:
        assert f.norm() == pytest.approx(2 / SQRT3, abs=1e-9)


def test_verify_ft_point_single_point_infeasible(diamond):
    assert verify_ft_point(diamond, [Vec2(3, 3)], Vec2(0, 0)) is None


def test_build_cone_diamond(diamond):
    cone = build_cones(diamond, (Vec2(3, 3),), (Functional(1, 1),))[0]
    assert isinstance(cone.shape, AngleShape)
    assert cone.vertex == Vec2(3, 3)
    assert (cone.shape.d1.x, cone.shape.d1.y) == (-1, 0)
    assert (cone.shape.d2.x, cone.shape.d2.y) == (0, -1)

    cone = build_cones(diamond, (Vec2(2, 0),), (Functional(1, 0.5),))[0]
    assert isinstance(cone.shape, RayShape)
    assert (cone.shape.direction.x, cone.shape.direction.y) == (-1, 0)

    with pytest.raises(CertificateError, match="dual norm is 2.0, expected 1"):
        build_cones(diamond, (Vec2(0, 0),), (Functional(2, 0),))


def test_build_cone_hexagon(hexagon):
    cone = build_cones(hexagon, (Vec2(0.5, SQRT3 / 2),), (Functional(0, 2 / SQRT3),))[0]
    assert isinstance(cone.shape, AngleShape)
    assert (cone.shape.d1 - Vec2(-0.5, -SQRT3 / 2)).norm() <= 1e-12
    assert (cone.shape.d2 - Vec2(0.5, -SQRT3 / 2)).norm() <= 1e-12


def scalar_dual_norm(norm, phi):
    """phi's largest value at a vertex, by a loop over the vertices, and the
    first vertex that attains it."""
    values = [phi.dot(v) for v in norm.vertices]
    top = max(values)
    return top, values.index(top)


def scalar_cone(norm, x, phi, eps=DEFAULT_EPS):
    """build_cones for one terminal as a loop over the vertices and the snap
    rule: a Cone, or the error message."""
    if phi.x == 0.0 and phi.y == 0.0:  # its gauge on the dual ball, whatever the signs
        return "dual norm is 0.0, expected 1"
    top, a = scalar_dual_norm(norm, phi)
    scale = max(1.0, phi.norm())
    if not (math.isfinite(scale) and abs(top - 1.0) <= 100 * eps * scale):
        return f"dual norm is {top}, expected 1"
    m, duals = norm.m, dual_vertices(norm)
    near = []  # (distance of phi from the ray of d_c, c) for each d_c phi points along
    for c in (a - 1, a):
        d = duals[c % m]
        cross = abs(phi.cross(d))
        if cross <= eps * phi.norm() * d.norm() and phi.dot(d) > 0.0:
            near.append((cross / d.norm(), c % m))
    if not near:
        return Cone(x, RayShape(-norm.vertices[a]))
    k = min(near, key=lambda pair: pair[0])[1]
    return Cone(x, AngleShape(-norm.vertices[k], -norm.vertices[(k + 1) % m]))


def table_norms():
    """(norm, certificate functionals) for the table's reference test."""
    norms = [random_symmetric_norm(Random(seed)) for seed in range(5)]
    norms += [make_lambda_norm(lam).norm for lam in range(2, 61)]
    norms += [make_polygonal_norm(COND2_OCTAGON), make_polygonal_norm(COND3_HEXAGON)]
    # two terminals at the centre: its relaxed completion has dual norm <= 2
    star = [Vec2(0, 0), Vec2(0, 0), Vec2(1, 0), Vec2(-0.5, 0.9), Vec2(-0.5, -0.8)]
    for norm in norms:
        relaxed = verify_ft_point(norm, star, Vec2(0, 0))
        assert relaxed is not None and relaxed.relaxed == (0, 1)
        funcs = list(relaxed.functionals)
        for seed in range(2):
            funcs += ft_solve(norm, random_terminals(4, seed)).certificate.functionals
        yield norm, funcs
    norm = make_lambda_norm(3000).norm
    yield norm, list(ft_solve(norm, uniqueness_verdict(norm).witness).certificate.functionals)


def test_vertex_table_matches_scalar_loop():
    for norm, cert_funcs in table_norms():
        stride = max(1, norm.m // 48)
        funcs = list(dual_vertices(norm)[::stride])
        funcs += [norming_set(norm, norm.vertices[k]).at(t)
                  for k in range(0, norm.m, stride) for t in (0.25, 0.5, 0.8)]
        funcs += cert_funcs
        funcs += [Functional(0.0, 0.0), Functional(-0.0, -0.0), Functional(-0.0, 0.0)]
        for phi in funcs:
            # the dual ball's gauge is one vertex value, and the largest but
            # where the top two lie within 4 ulps: a tie at a dual-ball vertex
            got = dual_norm(norm, phi)
            values = sorted(phi.dot(v) for v in norm.vertices)
            top, ulps = values[-1], 4 * math.ulp(values[-1])
            assert got.hex() in {v.hex() for v in values}, (phi, got)
            assert abs(got - top) <= ulps, (phi, got, top)
            if values[-2] < top - ulps:
                assert got.hex() == top.hex(), (phi, got, top)
            try:
                got = build_cones(norm, (Vec2(1, 2),), (phi,))[0]
            except CertificateError as exc:
                got = str(exc)
            assert got == scalar_cone(norm, Vec2(1, 2), phi)


def test_non_finite_certificates_and_functionals_are_rejected(diamond, square):
    nan = math.nan
    pts = [Vec2(-2, 0), Vec2(2, 0), Vec2(0, 2)]
    with pytest.raises(CertificateError, match="not zero"):
        check_certificate(diamond, pts, Certificate(Vec2(0, 0), (Functional(nan, nan),) * 3))
    # on the square an infinite functional has dual norm inf and no NaN
    funcs = (Functional(math.inf, 0.0), Functional(-1.0, 0.0), Functional(0.0, -1.0))
    with pytest.raises(CertificateError, match="infinite"):
        check_certificate(square, [Vec2(2, 0.5), Vec2(-2, 0.5), Vec2(0.5, -2)],
                          Certificate(Vec2(0, 0), funcs))
    assert math.isnan(dual_norm(diamond, Functional(nan, nan)))
    with pytest.raises(CertificateError, match="dual norm is nan"):
        build_cones(diamond, (Vec2(0, 0),), (Functional(nan, nan),))
    # the dual ball's gauge takes the one vertex (1, 0) of its sector: no
    # inf * 0, so the true value inf, and no RuntimeWarning
    assert dual_norm(diamond, Functional(math.inf, 0.0)) == math.inf
    with pytest.raises(CertificateError, match="dual norm is inf"):
        build_cones(diamond, (Vec2(0, 0),), (Functional(math.inf, 0.0),))
    # on the square the dual norm is inf with no NaN, and the unit test's
    # tolerance 100 eps |phi| would be inf too
    for phi in (Functional(math.inf, 0.0), Functional(0.0, -math.inf)):
        with pytest.raises(CertificateError, match="dual norm is inf"):
            build_cones(square, (Vec2(0, 0),), (phi,))


ON_AXIS = [Vec2(-1, 0), Vec2(1, 0)]


@pytest.mark.parametrize("pts, funcs, relaxed, message", [
    ([Vec2(0, 0), Vec2(2, 0), Vec2(3, 0)], [(1, 0), (-1, 0)], (),
     "certificate length mismatch"),
    ([Vec2(0, 0), Vec2(2, 0), Vec2(3, 0)], [(-2, 0), (1, 0), (1, 0)], (0,),
     "relaxed entry 0 has dual norm 2.0"),
    (ON_AXIS, [(-0.5, 0), (0.5, 0)], (), "entry 0 has dual norm 0.5, expected 1"),
    (ON_AXIS, [(1, 0), (-1, 0)], (), "entry 0 does not norm its displacement"),
])
def test_check_certificate_rejects_a_bad_entry(diamond, pts, funcs, relaxed, message):
    # each certificate sums to zero and fails only the named check
    cert = Certificate(Vec2(0, 0), tuple(Functional(*f) for f in funcs), relaxed)
    with pytest.raises(CertificateError, match=message):
        check_certificate(diamond, pts, cert)


def test_build_cones_gives_a_rounded_edge_functional_its_edge():
    # at eps 5e-4 a value floor of 10 eps would take in more than two of the
    # 200-gon's vertices under a functional a rounding away from edge 3's dual
    # vertex; it points along that dual vertex, so it touches edge 3 alone
    norm = make_lambda_norm(100).norm
    phi = dual_vertices(norm)[3] * (1 + 1e-12)
    (cone,) = build_cones(norm, (Vec2(0, 0),), (phi,), 5e-4)
    assert cone.shape == AngleShape(-norm.vertices[3], -norm.vertices[4])


def test_build_cones_gives_an_edge_functional_its_edge():
    norm = make_lambda_norm(100).norm
    (cone,) = build_cones(norm, (Vec2(0, 0),), (dual_vertices(norm)[3],), 5e-4)
    assert cone.shape == AngleShape(-norm.vertices[3], -norm.vertices[4])


def test_build_cones_snaps_a_functional_as_norming_set_snaps_a_direction():
    # the functional side of the snap in test_norming_pairing_and_existence:
    # edge c's dual vertex and its copies a rounding away get the edge's
    # angle; a pick on the dual edge turned eps/2 from it, either way, gets
    # the angle too, and one turned 2 eps gets the ray at the vertex it
    # turned toward
    eps, x = DEFAULT_EPS, Vec2(1, 2)
    norms = [make_lambda_norm(lam).norm for lam in (2, 3, 12, 24, 1001)]
    norms += [make_polygonal_norm(r) for verts in (COND2_OCTAGON, COND3_HEXAGON)
              for r in rotations(verts)]
    for norm in norms:
        m, verts = norm.m, norm.vertices
        for c, d in enumerate(dual_vertices(norm)):
            angle = AngleShape(-verts[c], -verts[(c + 1) % m])
            cases = [(d, angle), (d * (1 + 1e-12), angle), (d * (1 - 1e-12), angle)]
            a = math.atan2(d.y, d.x)
            # turned clockwise onto vertex c's dual edge, counterclockwise onto
            # vertex c + 1's; vertex k's dual edge is where phi(v_k) = 1
            for turn, k in ((-1.0, c), (1.0, (c + 1) % m)):
                for size, want in ((eps / 2, angle), (2 * eps, RayShape(-verts[k]))):
                    u = Vec2(math.cos(a + turn * size), math.sin(a + turn * size))
                    cases.append((u * (1.0 / u.dot(verts[k])), want))
            for phi, want in cases:
                assert build_cones(norm, (x,), (phi,), eps) == (Cone(x, want),), (verts, c, phi)


def test_ft_solve_rejects_a_region_vertex_off_the_optimum(monkeypatch, hexagon,
                                                          unit_triangle):
    v = ft_solve(hexagon, unit_triangle).region.vertices[0]
    square = Region.polygon([v, v + Vec2(1, 0), v + Vec2(1, 1), v + Vec2(0, 1)])
    monkeypatch.setattr(solver, "intersect_cones", lambda *args: square)
    with pytest.raises(CertificateError, match=r"region vertex .* attains .*, optimum is"):
        ft_solve(hexagon, unit_triangle)


def test_non_finite_terminals_are_input_errors(diamond):
    nan, inf = math.nan, math.inf
    for pts in ([Vec2(nan, 0), Vec2(1, 1), Vec2(2, 0)],
                [Vec2(inf, 0), Vec2(1, 1), Vec2(2, 0)],
                [Vec2(1e308, 0), Vec2(-1e308, 1), Vec2(2, 0)]):  # the x span overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # rejected before any arithmetic warns
            with pytest.raises(InputError, match="coordinates and their spans must be finite"):
                ft_solve(diamond, pts)


def test_intersect_cones_rays(diamond):
    seg = intersect_cones([Cone(Vec2(0, 0), RayShape(Vec2(1, 0))),
                           Cone(Vec2(4, 0), RayShape(Vec2(-1, 0)))], 10.0)
    assert seg.kind == "segment"
    assert (seg.vertices[0] - Vec2(0, 0)).norm() <= 1e-9
    assert (seg.vertices[1] - Vec2(4, 0)).norm() <= 1e-9

    with pytest.raises(CertificateError, match="cone intersection is empty"):
        intersect_cones([Cone(Vec2(0, 0), RayShape(Vec2(1, 0))),
                         Cone(Vec2(0, 1), RayShape(Vec2(1, 0)))], 10.0)


def test_intersect_cones_hexagon_triangle(hexagon, unit_triangle):
    p = Vec2(0.5, SQRT3 / 6)
    phis = verify_ft_point(hexagon, unit_triangle, p).functionals
    cones = build_cones(hexagon, unit_triangle, phis)
    radius = cone_radius(hexagon, objective(hexagon, unit_triangle, p))
    region = intersect_cones(cones, radius)
    assert region.kind == "polygon"
    for q in unit_triangle:
        assert any((v - q).norm() <= 1e-9 for v in region.vertices)


def cone_halfplanes_by_objects(cone, eps):
    """_cone_halfplanes as HalfPlane objects, as it was before the float route."""
    v = cone.vertex
    if isinstance(cone.shape, AngleShape):
        d1, d2 = cone.shape.d1, cone.shape.d2
        if d1.cross(d2) <= eps * d1.norm() * d2.norm():
            raise InputError("angle cone must sweep counterclockwise below pi")
        n1 = Vec2(d1.y, -d1.x)
        n2 = Vec2(-d2.y, d2.x)
        return [HalfPlane(n1, n1.dot(v)), HalfPlane(n2, n2.dot(v))]
    d = cone.shape.direction
    if d.x == 0.0 and d.y == 0.0:
        raise InputError("ray cone needs a nonzero direction")
    n = Vec2(d.y, -d.x)
    back = -d * (1.0 / d.norm())
    return [HalfPlane(n, n.dot(v)), HalfPlane(-n, -n.dot(v)), HalfPlane(back, back.dot(v))]


def test_cone_path_clips_through_the_solver_attribute(monkeypatch, hexagon, unit_triangle):
    # the benchmark's tracer wraps solver.clip_polygon, a module attribute
    want = repr(ft_solve(hexagon, unit_triangle))
    calls = []

    def counting(*args):
        calls.append(args)
        return clip_polygon(*args)

    monkeypatch.setattr(solver, "clip_polygon", counting)
    sol = ft_solve(hexagon, unit_triangle)
    assert repr(sol) == want and sol.region.kind == "polygon" and len(calls) == 1


def test_intersect_cones_matches_the_object_route():
    # the unit half-planes to the bit, and the region or error, against
    # HalfPlane.unit of the object half-planes clipped by clip_polygon. Lattice
    # apexes with zero coordinates tell -(n . v) from (-n) . v by the sign of
    # a zero; the witnesses of the condition-2 octagon and condition-3 hexagon
    # are the golden cases such a slip moves.
    rng = Random(22)
    eps, r = DEFAULT_EPS, 20.0

    def unit_bits(hps):
        return [tuple(c.hex() for c in h) for h in hps]

    def direction():
        if rng.random() < 0.5:
            return Vec2(*rng.choice([(1, 0), (0, 1), (-1, 0), (0, -1), (1, 1), (-2, 1),
                                     (0.0, -0.0)]))
        a = rng.uniform(0.0, 2 * math.pi)
        return Vec2(math.cos(a), math.sin(a)) * rng.choice([1.0, 1e-10, 3.0])

    cases = []
    for _ in range(1500):
        cones = []
        for _ in range(rng.randint(1, 4)):
            if rng.random() < 0.5:
                apex = Vec2(*(rng.choice([0, 0.0, -0.0, 1.0, -2.0]) for _ in range(2)))
            else:
                apex = Vec2(rng.uniform(-3, 3), rng.uniform(-3, 3))
            if rng.random() < 0.5:
                cones.append(Cone(apex, RayShape(direction())))
            else:
                d1 = direction()
                turn = rng.choice([math.pi / 2, math.pi / 4, rng.uniform(0.0, 3.5), math.pi])
                d2 = Vec2(d1.x * math.cos(turn) - d1.y * math.sin(turn),
                          d1.x * math.sin(turn) + d1.y * math.cos(turn))
                cones.append(Cone(apex, AngleShape(d1, d2)))
        cases.append(cones)
    for verts in COND2_OCTAGON, COND3_HEXAGON:
        for rotated in rotations(verts):
            norm = make_polygonal_norm(rotated)
            pts = uniqueness_verdict(norm).witness
            sol = ft_solve(norm, pts)
            cases.append(list(build_cones(norm, pts, sol.certificate.functionals)))
    # shapes equal but for the sign of a zero, each with its own bits, and
    # sweeps of 1e-5 from 0 and from pi that only the larger eps rejects
    apex = Vec2(0.5, -0.0)
    cases.append([Cone(apex, RayShape(Vec2(0.0, 1.0))), Cone(apex, RayShape(Vec2(-0.0, 1.0)))])
    cases.append([Cone(apex, AngleShape(Vec2(1.0, 0.0), Vec2(0.0, 1.0))),
                  Cone(apex, AngleShape(Vec2(1.0, -0.0), Vec2(-0.0, 1.0)))])
    cases += [[Cone(apex, AngleShape(Vec2(1.0, 0.0), Vec2(math.cos(turn), math.sin(turn))))]
              for turn in (1e-5, math.pi - 1e-5)]
    seen, by_eps = set(), set()
    for i, cones in enumerate(cases):
        c = cones[0].vertex
        square = [(c.x - r, c.y - r), (c.x + r, c.y - r), (c.x + r, c.y + r), (c.x - r, c.y + r)]
        sides = [(0.0, -1.0, r - c.y), (1.0, 0.0, c.x + r), (0.0, 1.0, c.y + r), (-1.0, 0.0, r - c.x)]
        # each cone's half-planes cold, then memoized; the other eps, memoized
        for e in (eps, 1e-4) if i % 2 else (1e-4, eps):
            try:
                want = [h for cone in cones for h in cone_halfplanes_by_objects(cone, e)]
            except InputError as exc:
                for _ in range(2):
                    with pytest.raises(InputError, match=str(exc)):
                        [solver._cone_halfplanes(cone, e) for cone in cones]
                seen.add(str(exc))
                by_eps.add((i, e, str(exc)))
                continue
            for _ in range(2):
                got = [h for cone in cones for h in solver._cone_halfplanes(cone, e)]
                short = any(h.normal.norm() <= e for h in want)  # clip_polygon raises
                if not short:
                    assert unit_bits(geometry._unit(*h) for h in got) == unit_bits(
                        (u.normal.x, u.normal.y, u.offset) for u in map(HalfPlane.unit, want))
            region = outcome(clip_polygon, square, sides,
                             [(h.normal.x, h.normal.y, h.offset) for h in want], e)
            if region == repr(Region.empty()):
                region = "CertificateError: cone intersection is empty"
            assert outcome(intersect_cones, cones, r, e) == region
            seen.add(region.split(",")[0])
    n = len(cases)
    assert {(i, e) for i, e, _ in by_eps if i >= n - 2} == {(n - 2, 1e-4), (n - 1, 1e-4)}
    assert seen >= {"angle cone must sweep counterclockwise below pi",
                    "ray cone needs a nonzero direction",
                    "InputError: half-plane normal is too short",
                    "CertificateError: cone intersection is empty",
                    "Region(kind='point'", "Region(kind='segment'", "Region(kind='polygon'"}, seen


def test_collinear_median():
    assert collinear_median([]) is None
    assert collinear_median([Vec2(0, 0), Vec2(1, 0), Vec2(5, 0)]) == Vec2(1, 0)
    pts = [Vec2(0, 0), Vec2(1, 1), Vec2(2, 2), Vec2(3, 3), Vec2(10, 10)]
    assert collinear_median(pts) == Vec2(2, 2)
    assert collinear_median([Vec2(0, 0), Vec2(1, 0), Vec2(0, 1)]) is None
    # an even set: the midpoint of its two middle points, or that point
    assert collinear_median([Vec2(0, 0), Vec2(1, 0)]) == Vec2(0.5, 0)
    assert collinear_median([Vec2(3, 3), Vec2(0, 0), Vec2(10, 10), Vec2(1, 1)]) == Vec2(2, 2)
    pts = [Vec2(0, 0), Vec2(2, 1), Vec2(2, 1), Vec2(4, 2)]
    assert collinear_median(pts) is pts[1]


def test_collinear_median_near_vertical_line():
    # x jitter below eps must not hide the spread along y
    pts = [Vec2(5e-13, -1000.0), Vec2(0.0, 0.0), Vec2(1e-12, 1e-12)]
    med = collinear_median(pts)
    assert med is not None and (med - Vec2(0, 0)).norm() <= 1e-9
    assert collinear_median([Vec2(0, 7), Vec2(0, -3), Vec2(0, 1)]) == Vec2(0, 1)


def test_collinear_median_of_huge_collinear_sets(diamond):
    # coordinate differences past about 1.3e154 overflow the cross products
    # of the collinearity test and the dot products of the sort key
    for s in (1e160, 1e200, 1e307):
        pts = [Vec2(-s, s), Vec2(s, -s), Vec2(0.0, 0.0)]
        assert collinear_median(pts) == Vec2(0, 0)
        sol = ft_solve(diamond, pts)
        assert sol.region == Region.point(Vec2(0, 0)) and sol.certificate.relaxed == (2,)
    # (0, 1) - (-1e200, -1e200) rounds onto the line through the other two
    pts = [Vec2(1e200, 1e200), Vec2(-1e200, -1e200), Vec2(0, 1)]
    assert collinear_median(pts) == Vec2(0, 1)


def test_ft_solve_diamond_point(diamond):
    sol = ft_solve(diamond, [Vec2(0, 0), Vec2(2, 0), Vec2(0, 2)])
    assert sol.region.kind == "point"
    assert (sol.region.vertices[0] - Vec2(0, 0)).norm() <= 1e-9
    assert sol.objective == pytest.approx(4.0, abs=1e-9)


def test_ft_solve_hexagon_triangle(hexagon, unit_triangle):
    sol = ft_solve(hexagon, unit_triangle)
    assert sol.region.kind == "polygon"
    assert len(sol.region.vertices) == 3
    assert sol.objective == pytest.approx(2.0, abs=1e-9)
    for q in unit_triangle:
        assert any((v - q).norm() <= 1e-9 for v in sol.region.vertices)
    check_certificate(hexagon, unit_triangle, sol.certificate)


def test_far_and_large_triangles_on_hexagon(hexagon, unit_triangle):
    # the clipping square is sized from the instance, not fixed in the plane
    for move in (lambda q: q + Vec2(1e6, 1e6), lambda q: q * 1e6):
        tri = [move(q) for q in unit_triangle]
        sol = ft_solve(hexagon, tri)
        assert sol.region.kind == "polygon"
        assert len(sol.region.vertices) == 3
        tol = 1e-9 * max(abs(c) for q in tri for c in (q.x, q.y))
        for q in tri:
            assert any((v - q).norm() <= tol for v in sol.region.vertices)


def test_many_terminals_on_hexagon(hexagon):
    # no cap on the number of cone half-planes (two or three per terminal)
    for n in (40, 100):
        pts = random_terminals(n, seed=n)
        sol = ft_solve(hexagon, pts)
        check_certificate(hexagon, pts, sol.certificate)


def test_ft_solve_collinear_odd(diamond):
    sol = ft_solve(diamond, [Vec2(0, 0), Vec2(1, 0), Vec2(5, 0)])
    assert sol.region.kind == "point"
    assert (sol.region.vertices[0] - Vec2(1, 0)).norm() <= 1e-9


def test_every_ft_solve_path_checks_its_certificate(monkeypatch, diamond, hexagon,
                                                    unit_triangle):
    checked = []

    def spy(norm, points, cert, eps=DEFAULT_EPS):
        checked.append(cert)
        return check_certificate(norm, points, cert, eps)

    monkeypatch.setattr(solver, "check_certificate", spy)
    cases = [
        (diamond, [Vec2(0, 0), Vec2(1, 0), Vec2(5, 0)], "point"),  # collinear median
        (diamond, [Vec2(0, 0), Vec2(1, 0), Vec2(0, 1), Vec2(-1, 0), Vec2(0, -1)],
         "point"),  # a terminal
        (hexagon, unit_triangle, "polygon"),  # cones
    ]
    for norm, pts, kind in cases:
        checked.clear()
        sol = ft_solve(norm, pts)
        assert sol.region.kind == kind
        assert checked == [sol.certificate]


def test_ft_solve_single_and_pair(diamond):
    sol = ft_solve(diamond, [Vec2(2, 3)])
    assert sol.region.kind == "point" and sol.objective == 0.0

    sol = ft_solve(diamond, [Vec2(0, 0), Vec2(1, 0)])
    assert sol.region.kind == "segment"
    assert (sol.region.vertices[0] - Vec2(0, 0)).norm() <= 1e-9
    assert (sol.region.vertices[1] - Vec2(1, 0)).norm() <= 1e-9
    assert sol.objective == pytest.approx(1.0, abs=1e-12)


def test_ft_solve_pair_metric_rectangle(diamond):
    # both gauges add up to the separation on the whole coordinate rectangle
    sol = ft_solve(diamond, [Vec2(0, 0), Vec2(2, 1)])
    assert sol.region.kind == "polygon"
    assert sol.objective == pytest.approx(3.0, abs=1e-9)
    for corner in (Vec2(0, 0), Vec2(2, 0), Vec2(2, 1), Vec2(0, 1)):
        assert any((v - corner).norm() <= 1e-9 for v in sol.region.vertices)


def test_choice_independence_on_flat_pair(diamond):
    pts = [Vec2(0, 0), Vec2(1, 0)]
    sol = ft_solve(diamond, pts)
    sels = fibre_selections(diamond, pts, sol.certificate.base)
    assert len(sels) >= 2
    regions = []
    for sel in sels:
        cones = build_cones(diamond, pts, sel)
        regions.append(intersect_cones(cones, cone_radius(diamond, sol.objective)))
    for r in regions[1:]:
        assert regions_match(regions[0], r, tol=1e-9)


def test_equivariance_translation_and_scale():
    rng = Random(9)
    for _ in range(10):
        norm, pts = random_instance(rng)
        sol = ft_solve(norm, pts)
        shift = Vec2(rng.uniform(-3, 3), rng.uniform(-3, 3))
        scale = rng.uniform(0.5, 3.0)
        moved = ft_solve(norm, [q + shift for q in pts])
        assert moved.region.kind == sol.region.kind
        assert all((a + shift - b).norm() <= 1e-8
                   for a, b in zip(sol.region.vertices, moved.region.vertices))
        assert moved.objective == pytest.approx(sol.objective, abs=1e-8)
        scaled = ft_solve(norm, [q * scale for q in pts])
        assert scaled.region.kind == sol.region.kind
        assert all((a * scale - b).norm() <= 1e-7
                   for a, b in zip(sol.region.vertices, scaled.region.vertices))
        assert scaled.objective == pytest.approx(scale * sol.objective, abs=1e-7)


def test_odd_collinear_matches_generic_invariant():
    rng = Random(10)
    for _ in range(20):
        norm, _ = random_instance(rng)
        base = Vec2(rng.uniform(-2, 2), rng.uniform(-2, 2))
        ang = rng.uniform(0, 2 * math.pi)
        d = Vec2(math.cos(ang), math.sin(ang))
        ts = sorted(rng.uniform(-4, 4) for _ in range(5))
        pts = [base + d * t for t in ts]
        rng.shuffle(pts)
        med = collinear_median(pts)
        sol = ft_solve(norm, pts)
        assert med is not None
        assert sol.region.kind == "point"
        assert (sol.region.vertices[0] - med).norm() <= 1e-9


def even_collinear_sets(rng):
    """Even collinear sets, n = 2..10: integer points k (a, b) + (c, e), some
    with a repeated middle point, and points on a float line."""
    for n in range(2, 11, 2):
        a, b, c, e = (rng.randint(-3, 3) for _ in range(4))
        if (a, b) == (0, 0):
            a = 1
        ks = rng.sample(range(-6, 7), n)
        if n > 2 and rng.random() < 0.5:
            ks.sort()
            ks[n // 2] = ks[n // 2 - 1]  # the two middle points are equal
        yield [Vec2(c + a * k, e + b * k) for k in ks]
        ang = rng.uniform(0, 2 * math.pi)
        base = Vec2(rng.uniform(-2, 2), rng.uniform(-2, 2))
        yield [base + Vec2(math.cos(ang), math.sin(ang)) * rng.uniform(-4, 4) for _ in range(n)]


def test_even_collinear_sets_give_the_candidate_paths_region():
    # the median of an even set lies inside the median interval, a candidate
    # at one of its ends: the certificates differ, the region must not
    rng = Random(12)
    norms = [make_lambda_norm(lam).norm for lam in (2, 3, 4, 6, 24)]
    norms += [random_symmetric_norm(Random(seed)) for seed in range(10)]
    kinds = []
    for norm in norms * 2:
        for pts in even_collinear_sets(rng):
            pts = tuple(pts)
            med = collinear_median(pts)
            sol = ft_solve(norm, pts)
            assert med is not None and sol.certificate.base == med
            cands, value = candidate_minimize(norm, pts)
            p = cands[0] if len(cands) == 1 else Vec2(sum(c.x for c in cands) / len(cands),
                                                      sum(c.y for c in cands) / len(cands))
            ref = solver._certify(norm, pts, p, value, DEFAULT_EPS, cands)
            assert sol.objective == pytest.approx(ref.objective, rel=1e-15, abs=0)
            kinds.append(sol.region.kind)
            if med in pts:  # two equal middle points: the optimum is that terminal
                # the candidate path may keep a crossing a few ulps off it
                assert sol.region == Region.point(med)
                assert regions_match(sol.region, ref.region)
            else:
                assert sol.region == ref.region, (norm, pts)
    assert len(kinds) == 300 and set(kinds) == {"point", "segment", "polygon"}


def test_relaxed_certificate_on_many_sided_ball():
    # three vertex-direction pulls that nearly but not exactly cancel: the
    # optimum sits on the terminal and the relaxed peel must bound by all 64
    # facet normals of the dual ball without hitting any count limit
    from ftplane import make_lambda_norm

    norm = make_lambda_norm(32).norm
    v = norm.vertices
    pts = [Vec2(0, 0), v[0] * 2.0, v[21] * 1.5, v[43] * 1.8]
    sol = ft_solve(norm, pts)
    assert sol.region.kind == "point"
    assert sol.certificate.relaxed == (0,)
    check_certificate(norm, pts, sol.certificate)
    assert verify_ft_point(norm, pts, Vec2(0.5, 0.5)) is None


def test_relaxed_peel_agrees_with_the_lp_at_lattice_terminals(monkeypatch):
    # at every distinct terminal q, verify_ft_point certifies exactly the
    # optimal ones, by scipy's LP; a spy on _select counts the relaxed peels
    # that had generators to fix
    real, peels = solver._select, []

    def spy(sets, target, ball=None):
        peels.append(ball is not None and bool(solver._zonogon(sets)[2]))
        return real(sets, target, ball)

    monkeypatch.setattr(solver, "_select", spy)
    norms = [make_lambda_norm(lam).norm for lam in (2, 3, 4, 6)]
    rng = Random(8)
    optimal = other = 0
    for k in range(160):
        norm = norms[k % 4]
        pts = [Vec2(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(rng.randint(3, 8))]
        best = lp_minimum(norm, pts)
        for q in dict.fromkeys(pts):
            value, cert = objective(norm, pts, q), verify_ft_point(norm, pts, q)
            if value <= best + 1e-9 * max(1.0, best):
                optimal += 1
                assert cert is not None, (k, q)
                check_certificate(norm, pts, cert)
            elif value > best + 1e-6:
                other += 1
                assert cert is None, (k, q)
    assert optimal >= 100 and other >= 700 and sum(peels) >= 100, (optimal, other, sum(peels))


def test_thin_flat_region_far_from_origin_stays_polygon():
    # a cluster plus one far terminal makes the solution set a sliver
    # quadrilateral at coordinates ~2; the classification must not collapse
    # genuine width (1e-5 here) just because the coordinates are large
    norm = ft_make_cluster_norm()
    pts = [Vec2(2.169861288936294, -1.0848399595408844),
           Vec2(2.1686517094527907, -1.083977729420971),
           Vec2(2.1685491058345394, -1.0841693088612785),
           Vec2(2.1684447969130818, -1.0846063863048422),
           Vec2(2.16810440486481, -1.0845212517268489),
           Vec2(-0.9268009507034382, 0.9230204004547395)]
    sol = ft_solve(norm, pts)
    assert sol.region.kind == "polygon"
    diam = max((u - v).norm() for u in sol.region.vertices
               for v in sol.region.vertices)
    assert 1e-6 < diam < 1e-2  # genuinely thin, genuinely two-dimensional
    for v in sol.region.vertices:
        assert objective(norm, pts, v) == pytest.approx(sol.objective, abs=1e-9)
    report = probe_solution_set(norm, pts, sol.region, sol.objective, delta=1e-7)
    assert report.max_inside_deviation < 1e-9
    assert report.min_outside_excess > 0
    shift = Vec2(101.5, -47.25)
    moved = ft_solve(norm, [q + shift for q in pts])
    assert moved.region.kind == "polygon"
    assert all((a + shift - b).norm() <= 1e-7
               for a, b in zip(sol.region.vertices, moved.region.vertices))


def ft_make_cluster_norm():
    from ftplane import make_polygonal_norm
    return make_polygonal_norm([
        (-1.0537271509267356, 0.9232810529343599),
        (-0.9840100493006928, 0.26294853598856877),
        (-0.8969927397311774, -0.03478400273186377),
        (0.47599707695804444, -0.9763049008623391),
        (1.0537271509267356, -0.9232810529343599),
        (0.9840100493006928, -0.26294853598856877),
        (0.8969927397311774, 0.03478400273186377),
        (-0.47599707695804444, 0.9763049008623391),
    ])


def test_vertex_aligned_terminal_optimum_certifies():
    # displacements to the other terminals land exactly on unit-ball vertex
    # rays; the relaxed peel of the terminal optimum bounds by the degenerate
    # (single-generator) zonogon's end caps beside the dual ball's normals
    norm = ft_make_cluster_norm()
    pts = [Vec2(-1.2447069920299603, -0.3082205603771331),
           Vec2(-0.22915146656448182, -0.2688388746538604),
           Vec2(0.601019456622645, -1.9254553990562209)]
    sol = ft_solve(norm, pts)
    assert sol.region.kind == "point"
    assert sol.certificate.relaxed == (1,)
    check_certificate(norm, pts, sol.certificate)


def test_certificates_on_random_instances():
    rng = Random(11)
    for _ in range(25):
        norm, pts = random_instance(rng)
        sol = ft_solve(norm, pts)
        check_certificate(norm, pts, sol.certificate)
        # every region vertex attains the optimum
        for v in sol.region.vertices:
            assert objective(norm, pts, v) == pytest.approx(
                sol.objective, abs=1e-8)


@pytest.mark.parametrize("counts", [(7, 7, 8, 7), (25, 25, 25, 25)])
def test_plus_shape_solves_to_centre(diamond, counts):
    # every terminal lies in a vertex direction from the optimum, so each
    # one contributes a segment of norming functionals: 29 and 100 segments
    centre = Vec2(0.3, -0.7)
    pts = plus_shape(centre, counts, seed=sum(counts))
    sol = ft_solve(diamond, pts)
    assert sol.region.kind == "point"
    assert (sol.region.vertices[0] - centre).norm() <= 1e-9
    assert sol.certificate.relaxed == ()
    check_certificate(diamond, pts, sol.certificate)


def test_plus_shape_centre_terminal_takes_relaxed_path(diamond):
    centre = Vec2(0.3, -0.7)
    pts = [centre] + plus_shape(centre, (7, 7, 7, 7), seed=3)
    sol = ft_solve(diamond, pts)
    assert sol.region.kind == "point"
    assert (sol.region.vertices[0] - centre).norm() <= 1e-9
    assert sol.certificate.relaxed == (0,)
    check_certificate(diamond, pts, sol.certificate)


def test_plus_shape_enumerates_equivalent_selections(diamond):
    centre = Vec2(0.3, -0.7)
    pts = plus_shape(centre, (2, 1, 2, 1), seed=4)
    value = objective(diamond, pts, centre)
    sels = fibre_selections(diamond, pts, centre)
    assert len(sels) >= 2
    assert len(set(sels)) == len(sels)
    regions = []
    for sel in sels:
        check_certificate(diamond, pts, Certificate(centre, sel))
        cones = build_cones(diamond, pts, sel)
        regions.append(intersect_cones(cones, cone_radius(diamond, value)))
    assert regions[0].kind == "point"
    for r in regions[1:]:
        assert regions_match(regions[0], r, tol=1e-9)


@pytest.mark.parametrize("n", [40, 400])
def test_plus_shape_forms_each_grid_line_once(monkeypatch, diamond, n):
    # the terminals of two opposite arms share one grid line through the
    # centre, so the n live lines are two lines with one crossing; one copy
    # per terminal formed n^2 / 4 crossings (40,000 at n = 400)
    formed = []
    real = solver._crossing_blocks

    def spy(*args):
        for xs, ys in real(*args):
            formed.append(len(xs))
            yield xs, ys

    monkeypatch.setattr(solver, "_crossing_blocks", spy)
    pts = plus_shape(Vec2(0.3, -0.7), [n // 4] * 4, seed=n)
    sol = ft_solve(diamond, pts)
    assert formed == [1]
    (v,) = sol.region.vertices
    assert abs(v.x - 0.3) <= math.ulp(0.3) and abs(v.y + 0.7) <= math.ulp(0.7)
    mx, my = sorted(q.x for q in pts)[n // 2], sorted(q.y for q in pts)[n // 2]
    exact = sum(abs(Fraction(q.x) - Fraction(mx)) + abs(Fraction(q.y) - Fraction(my))
                for q in pts)
    assert abs(Fraction(sol.objective) - exact) <= 4 * n * Fraction(math.ulp(sol.objective))


def test_live_lines_weiszfeld_stops_on_a_terminal(diamond):
    # 21 terminals, above the guard: the centroid of this plus shape is
    # exactly its centre terminal, so the first Weiszfeld step stops there
    pts = [Vec2(0, 0)] + [arm * (0.5 * k) for arm in DIAMOND_ARMS for k in range(1, 6)]
    with line_runs((solver._live_lines, "break")) as runs:
        sol = ft_solve(diamond, pts)
    assert runs["break"] == 1 and sol.region == Region.point(Vec2(0, 0))


def zonogon_normals_with_duplicates(gens):
    """_zonogon_normals as it was before bit-identical normals were dropped,
    on (x, y) pairs."""
    out = []
    for gx, gy in gens:
        s = 1.0 / math.hypot(gx, gy)
        nx, ny = -gy * s, gx * s
        out += [(nx, ny), (-nx, -ny)]
    if not gens:
        return out
    (g0x, g0y), g0n = gens[0], math.hypot(*gens[0])
    if all(abs(gx * g0y - gy * g0x) <= 1e-12 * math.hypot(gx, gy) * g0n for gx, gy in gens):
        s = 1.0 / g0n
        out += [(g0x * s, g0y * s), (-(g0x * s), -(g0y * s))]
    return out


def test_zonogon_normals_drop_only_bit_identical_duplicates(monkeypatch, diamond):
    # a duplicated normal repeats a bound of the peel, so selections and
    # certificates stay the same
    rng = Random(21)
    cases = []
    for _ in range(40):
        centre = Vec2(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
        pts = plus_shape(centre, [rng.randint(0, 5) for _ in range(4)], rng.randrange(1000))
        cases.append((centre, pts + [centre] * rng.randint(0, 2)))
    centre = Vec2(0.3, -0.7)
    _, _, gens = solver._zonogon([norming_set(diamond, q - centre)
                                  for q in plus_shape(centre, (4, 3, 3, 3), seed=13)])
    # 26 raw normals, 8 distinct in their bits and 4 in value, which the peel bounds
    normals = solver._zonogon_normals(gens)
    assert (len(normals), len({(x.hex(), y.hex()) for x, y in normals}),
            len(dict.fromkeys(normals))) == (26, 8, 4)

    def answers():
        out = []
        for p, pts in cases:
            sets = [norming_set(diamond, q - p) for q in pts if q != p]
            out.append(repr(solver._select(sets, Vec2(0.0, 0.0))))
            out.append(repr(verify_ft_point(diamond, pts, p)))
        return out

    deduped = answers()
    monkeypatch.setattr(solver, "_zonogon_normals", zonogon_normals_with_duplicates)
    assert answers() == deduped
    assert sum("relaxed=()" not in a for a in deduped[1::2] if a != "None") >= 10


def peel_bounding_every_normal(gens, target):
    """_peel as it was before it bounded each normal value once, on (x, y) pairs."""
    normals = solver._zonogon_normals(gens)
    dots = [[nx * gx + ny * gy for gx, gy in gens] for nx, ny in normals]
    support = [sum(max(0.0, ng) for ng in row) for row in dots]
    levels = [nx * target[0] + ny * target[1] for nx, ny in normals]
    ts = []
    for j, (gx, gy) in enumerate(gens):
        lo, hi = 0.0, 1.0
        tiny = 1e-12 * math.hypot(gx, gy)
        for i, row in enumerate(dots):
            ng = row[j]
            support[i] -= max(0.0, ng)
            if abs(ng) <= tiny:
                continue
            bound = (levels[i] - support[i]) / ng
            if ng > 0:
                lo = max(lo, bound)
            else:
                hi = min(hi, bound)
        t = min(max(lo + 0.5 * (hi - lo), 0.0), 1.0)
        ts.append(t)
        levels = [level - t * row[j] for row, level in zip(dots, levels)]
    return ts


def test_peel_bounds_each_normal_value_once():
    # the same t to the bit as a peel that bounds every bit-distinct normal,
    # on generators with +-0.0 components (their normals differ only in the
    # sign of a zero), parallel families and scaled copies
    rng = Random(20)
    merged = 0
    comps = (0.0, -0.0, 0.0, -0.0, 1.0, -1.0, 2.0, -3.0)
    for _ in range(1000):
        if rng.random() < 0.3:
            d = rng.choice([(0.0, 1.0), (1.0, -0.0), (1.0, 2.0), (-3.0, 1.0)])
            raw = [(c * d[0], c * d[1]) for c in rng.choices((1.0, -1.0, 2.0, -0.5), k=4)]
        else:
            raw = [(rng.choice(comps), rng.choice(comps)) for _ in range(rng.randint(1, 6))]
        raw = [g for g in raw if g != (0.0, 0.0)] or [(1.0, -0.0)]
        ts = [rng.choice((0.0, 1.0, rng.random())) for _ in raw]
        aim = (sum(t * x for t, (x, _) in zip(ts, raw)), sum(t * y for t, (_, y) in zip(ts, raw)))
        if rng.random() < 0.3:
            aim = (aim[0] + rng.choice((0.0, -0.0, 0.5)), aim[1] + rng.choice((0.0, -0.0, -2.0)))
        for scale in (1.0, 0.1, 1 / 3, -1.0, 2.0 ** -30, 1e6):
            gens = [(x * scale, y * scale) for x, y in raw]
            target = (aim[0] * scale, aim[1] * scale)
            assert [t.hex() for t in solver._peel(gens, target)] == \
                [t.hex() for t in peel_bounding_every_normal(gens, target)], (gens, target)
            normals = solver._zonogon_normals(gens)
            merged += len(set(normals)) < len(normals)
            assert {(x.hex(), y.hex()) for x, y in normals} == \
                {(x.hex(), y.hex()) for x, y in zonogon_normals_with_duplicates(gens)}
    assert merged >= 1000, merged


def on_boundary(gens, r):
    """Whether the lattice point r lies on the boundary of the zonogon of the
    lattice generators (exact; each facet normal is the perp of a generator,
    and the end caps count when all generators are parallel)."""
    gens = [g for g in gens if g != (0, 0)]
    normals = [(s * gy, -s * gx) for gx, gy in gens for s in (1, -1)]
    if all(gx * hy == gy * hx for gx, gy in gens for hx, hy in gens):
        normals += [(s * gx, s * gy) for gx, gy in gens[:1] for s in (1, -1)]
    return any(nx * r[0] + ny * r[1] == sum(max(0, nx * gx + ny * gy) for gx, gy in gens)
               for nx, ny in normals)


def test_single_peel_decides_reachability_on_lattice_zonogons():
    # one midpoint peel finds a selection exactly when the exact fibre
    # {t in [0, 1]^k : sum t_j g_j = target - base} is non-empty, on integer
    # segment sets and targets and on their copies scaled by 0.1 and 1/3
    rng = Random(18)
    reachable = boundary = 0
    for _ in range(4000):
        ends = [tuple(rng.randint(-2, 2) for _ in range(4)) for _ in range(rng.randint(1, 7))]
        target = (rng.randint(-5, 5), rng.randint(-5, 5))
        gens = [(c - a, d - b) for a, b, c, d in ends]
        r = (target[0] - sum(e[0] for e in ends), target[1] - sum(e[1] for e in ends))
        exact = next(fibre_vertices(gens, r), None) is not None
        reachable += exact
        boundary += exact and on_boundary(gens, r)
        for scale in (1.0, 0.1, 1 / 3):
            sets = [Vec2(a * scale, b * scale) if (a, b) == (c, d) else
                    FunctionalSegment(Vec2(a * scale, b * scale), Vec2(c * scale, d * scale))
                    for a, b, c, d in ends]
            goal = Vec2(target[0] * scale, target[1] * scale)
            sel = solver._select(sets, goal)
            assert (sel is not None) == exact, (ends, target, scale)
            if sel is not None:
                total = Vec2(sum(f.x for f in sel), sum(f.y for f in sel))
                assert (total - goal).norm() <= 1e-8
    assert reachable >= 400 and boundary >= 100, (reachable, boundary)


def test_relaxed_centroid_hands_over_to_the_lowest_candidate(monkeypatch, diamond):
    # a faked argmin of two candidates averages onto the terminal at the
    # origin, where the certificate is relaxed: one optimum against two. The
    # pair is collinear, so ft_solve takes its median: _certify gets the
    # candidates and their centroid directly.
    pair = (Vec2(0, 0), Vec2(2, 0))
    expected = ft_solve(diamond, pair).region
    calls = []
    verify = solver.verify_ft_point

    def recording_verify(norm, pts, p, eps):
        cert = verify(norm, pts, p, eps)
        calls.append((p, None if cert is None else cert.relaxed))
        return cert

    monkeypatch.setattr(solver, "verify_ft_point", recording_verify)
    # the lowest candidate (1, 0) is an optimum and certifies the segment
    sol = solver._certify(diamond, pair, Vec2(0.0, 0.0), 2.0, DEFAULT_EPS,
                          [Vec2(1, 0), Vec2(-1, 0)])
    assert calls == [(Vec2(0.0, 0.0), (0,)), (Vec2(1, 0), ())]
    assert sol.certificate.base == Vec2(1, 0) and regions_match(sol.region, expected)
    assert expected.kind == "segment"
    # no candidate certifies: the documented error
    calls.clear()
    star = [Vec2(0, 0), Vec2(1, 0), Vec2(-1, 0), Vec2(0, 1), Vec2(0, -1)]
    monkeypatch.setattr(solver, "candidate_minimize",
                        lambda norm, pts, eps: ([Vec2(0.5, 0), Vec2(-0.5, 0)], 4.0))
    with pytest.raises(CertificateError, match="no norming selection sums to zero at p"):
        ft_solve(diamond, star)
    assert calls == [(Vec2(0.0, 0.0), (0,)), (Vec2(0.5, 0), None)]


def test_plus_layouts_clip_each_distinct_cone_side_once(monkeypatch, diamond):
    # every terminal of a plus shape gets a ray cone: its own apex cut and a
    # carrier line that the two arms of one axis share, each line taken in
    # both orientations, so n terminals give n + 4 distinct sides of 3n
    calls = []

    def counting(*args):
        calls.append(len(args[2]))
        return clip_polygon(*args)

    monkeypatch.setattr(solver, "clip_polygon", counting)
    centre = Vec2(0.3, -0.7)
    for counts, seed in (((3, 3, 4, 3), 5), ((100, 100, 100, 100), 9)):
        calls.clear()
        sol = ft_solve(diamond, plus_shape(centre, counts, seed))
        assert sol.region == Region.point(centre) and calls == [sum(counts) + 4]


def test_intersect_cones_of_repeated_cones_is_the_same_region():
    # the cones of the golden corpus's solve inputs, listed once and twice
    rng, rng48 = Random(7), Random(48)
    cases = [random_instance(rng) for _ in range(200)]
    cases += [(make_lambda_norm(24).norm, [Vec2(rng48.uniform(-5.0, 5.0), rng48.uniform(-5.0, 5.0))
                                           for _ in range(6)]) for _ in range(20)]
    clipped = 0
    for norm, pts in cases:
        sol = ft_solve(norm, pts)
        if sol.certificate.relaxed:
            continue
        cones = build_cones(norm, pts, sol.certificate.functionals)
        radius = 2.0 * sol.objective * norm._radius
        assert repr(intersect_cones(cones + cones, radius)) == \
            repr(intersect_cones(cones, radius)) == repr(sol.region)
        clipped += 1
    assert clipped >= 150, clipped


def float_bits(obj):
    """``obj`` with every float as float.hex, through dataclasses and sequences."""
    if isinstance(obj, float):
        return obj.hex()
    if dataclasses.is_dataclass(obj):
        return (type(obj).__name__,) + tuple(float_bits(getattr(obj, f.name))
                                             for f in dataclasses.fields(obj))
    if isinstance(obj, (tuple, list)):
        return tuple(map(float_bits, obj))
    return obj


def bits_or_error(call, *args):
    try:
        return float_bits(call(*args))
    except (InputError, CertificateError) as exc:
        return f"{type(exc).__name__}: {exc}"


def test_per_vertex_caches_give_the_same_bits_fresh_and_warm(diamond, hexagon):
    # one norm serves its dual edges and cone shapes from its per-vertex
    # caches, warmed by every call before; a fresh copy per call builds them
    eps, solved = DEFAULT_EPS, 0
    for warm, dirs, sets in near_vertex_sets(diamond, hexagon):
        def fresh():
            return make_polygonal_norm(list(warm.vertices))

        for _ in range(2):  # the second round finds every entry cached
            for u in dirs:
                ns = norming_set(warm, u, eps)
                assert float_bits(ns) == float_bits(norming_set(fresh(), u, eps))
                phis = [ns.lo, ns.at(0.5), ns.hi] if isinstance(ns, FunctionalSegment) else [ns]
                xs = [u] * len(phis)
                assert float_bits(build_cones(warm, xs, phis, eps)) == \
                    float_bits(build_cones(fresh(), xs, phis, eps))
            for pts, p in sets:
                got = bits_or_error(ft_solve, warm, pts)
                assert got == bits_or_error(ft_solve, fresh(), pts)
                solved += got[0] == "FTSolution"
                for q in p, pts[0]:
                    assert bits_or_error(verify_ft_point, warm, pts, q, eps) == \
                        bits_or_error(verify_ft_point, fresh(), pts, q, eps)
    # some sets have a terminal 2 eps off a vertex direction from the optimum,
    # where the certificate fails on both norms alike
    assert solved >= 180, solved


def test_per_vertex_caches_fill_only_what_a_solve_uses():
    # a fresh 2,002-gon: a 3-terminal solve builds the dual edge and the ray
    # shape of its three vertex directions, not one entry per vertex
    norm = make_lambda_norm(1001).norm
    v = norm.vertices
    sol = ft_solve(norm, [v[0] * 2.0, v[667] * 1.5, v[1335] * 1.8])
    assert sol.region.kind == "point"
    assert sorted((kind.__name__, k) for kind, k in norm._memo) == \
        [(kind, k) for kind in ("FunctionalSegment", "RayShape") for k in (0, 667, 1335)]
