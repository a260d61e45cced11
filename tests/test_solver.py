import gc
import math
import tracemalloc
import weakref
from random import Random

import numpy as np
import pytest

from ftplane import (
    AngleShape,
    Certificate,
    CertificateError,
    Cone,
    RayShape,
    Vec2,
    build_cone,
    candidate_minimize,
    check_certificate,
    collinear_median,
    dual_norm,
    dual_vertices,
    enumerate_selections,
    ft_solve,
    gauge,
    intersect_cones,
    make_polygonal_norm,
    objective,
    select_functionals,
    verify_ft_point,
)
from ftplane import solver
from ftplane.geometry import DEFAULT_EPS
from ftplane.lambda_planes import make_lambda_norm
from ftplane.norms import Functional, dual_norms, gauge_batch, norming_set
from ftplane.oracle import random_instance, random_symmetric_norm
from ftplane.uniqueness import uniqueness_verdict

from conftest import (
    COND2_OCTAGON,
    COND3_HEXAGON,
    SQRT3,
    cone_radius,
    random_terminals,
    regions_match,
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

    Returns the terminals and then every crossing, the pair (a, b) of line
    indices (terminal * m/2 + direction) of each crossing (None for a
    terminal), and the objective at each candidate.
    """
    pts = list(points)
    half = norm.m // 2
    lines = [(q, norm.vertices[k]) for q in pts for k in range(half)]
    cands, pairs = list(pts), [None] * len(pts)
    for i in range(len(lines)):
        p1, d1 = lines[i]
        for j in range(i + 1, len(lines)):
            p2, d2 = lines[j]
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
    # the distance screen squares coordinate differences: exact power-of-two
    # scalings where unscaled squares would overflow
    cases += [(norm, [q * 2.0 ** k for q in pts])
              for k in (509, 510) for norm, pts in cases[:20] + cases[100:150]]
    # whole blocks of crossings drop out of the screen: 30 terminals give 8
    # blocks on the 48-gon, and one of them has no candidate left to evaluate
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


def test_candidate_minimize_matches_lp_oracle():
    # 100 terminals on the 48-gon: 2,400 breaklines, 2.76 million crossings;
    # the 200 of seed 200 solve with a checked certificate
    norm = make_lambda_norm(24).norm
    for n in (100, 200):
        pts = random_terminals(n, seed=n)
        _, best = candidate_minimize(norm, pts)
        assert abs(best - lp_minimum(norm, pts)) <= DEFAULT_EPS * max(1.0, best)
    assert ft_solve(norm, pts).objective == best


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


@pytest.mark.parametrize("block, count", [(5, 1822), (720, 24)])
def test_candidate_minimize_block_shapes_match_loop_reference(
        monkeypatch, live_masks, diamond, hexagon, unit_triangle, block, count):
    # with all 144 lines of six terminals live, block 5 takes one row at a
    # time and splits its later lines into chunks of five; block 720 takes
    # five rows at a time, across terminals. Chunks that hold only lines of
    # the row's own terminal or parallel ones yield no block.
    monkeypatch.setattr(solver, "_PAIR_BLOCK", block)
    gon48 = make_lambda_norm(24).norm
    rng = Random(5)
    six = [Vec2(rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0)) for _ in range(6)]
    qx, qy = np.array([q.x for q in six]), np.array([q.y for q in six])
    assert sum(1 for _ in solver._crossing_blocks(
        qx, qy, *gon48._breaklines[2:], np.ones(6 * 24, dtype=bool))) == count
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


def greedy_dedup(cands, eps):
    """The pairwise loop that candidate_minimize's dedup replaces."""
    out = []
    for c in sorted(cands, key=Vec2.key):
        if all((c - kept).norm() > eps for kept in out):
            out.append(c)
    return out


def test_dedup_matches_greedy_loop():
    # clouds on lattices with spacings near eps, jittered below eps, with
    # repeated points and shared x coordinates
    rng = Random(3)
    eps = DEFAULT_EPS
    for _ in range(3000):
        sx, sy = (eps * rng.choice([0.3, 0.7, 0.999, 1.0, 1.001, 1.4]) for _ in "xy")
        x0, y0 = rng.uniform(-10.0, 10.0), rng.uniform(-10.0, 10.0)
        cloud = [Vec2(x0 + sx * rng.randint(0, 9) + eps * rng.uniform(-0.2, 0.2),
                      y0 + sy * rng.randint(0, 9)) for _ in range(rng.randint(1, 40))]
        cloud += rng.sample(cloud, len(cloud) // 4)
        assert [id(c) for c in solver._dedup(cloud, eps)] == \
            [id(c) for c in greedy_dedup(cloud, eps)]


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
    assert total.magnitude() <= 1e-9
    assert dual_norm(diamond, cert.functionals[1]) <= 1 + 1e-9


def test_select_functionals_diamond(diamond):
    pts = [Vec2(-2, 0), Vec2(2, 0), Vec2(0, 2)]
    phis = select_functionals(diamond, pts, Vec2(0, 0))
    total = Functional(0.0, 0.0)
    for phi, q in zip(phis, pts):
        total = total + phi
        assert phi(q) == pytest.approx(gauge(diamond, q), abs=1e-9)
        assert dual_norm(diamond, phi) == pytest.approx(1.0, abs=1e-9)
    assert total.magnitude() <= 1e-9


def test_select_functionals_hexagon_centroid(hexagon, unit_triangle):
    p = Vec2(0.5, SQRT3 / 6)
    phis = select_functionals(hexagon, unit_triangle, p)
    angles = sorted(math.degrees(math.atan2(f.b, f.a)) % 360 for f in phis)
    assert angles == pytest.approx([90.0, 210.0, 330.0], abs=1e-7)
    for f in phis:
        assert f.magnitude() == pytest.approx(2 / SQRT3, abs=1e-9)


def test_select_functionals_single_point_infeasible(diamond):
    with pytest.raises(CertificateError, match="no norming selection sums to zero at p"):
        select_functionals(diamond, [Vec2(3, 3)], Vec2(0, 0))


def test_build_cone_diamond(diamond):
    cone = build_cone(diamond, Vec2(3, 3), Functional(1, 1))
    assert isinstance(cone.shape, AngleShape)
    assert cone.vertex == Vec2(3, 3)
    assert (cone.shape.d1.x, cone.shape.d1.y) == (-1, 0)
    assert (cone.shape.d2.x, cone.shape.d2.y) == (0, -1)

    cone = build_cone(diamond, Vec2(2, 0), Functional(1, 0.5))
    assert isinstance(cone.shape, RayShape)
    assert (cone.shape.direction.x, cone.shape.direction.y) == (-1, 0)

    with pytest.raises(CertificateError, match="dual norm is 2.0, expected 1"):
        build_cone(diamond, Vec2(0, 0), Functional(2, 0))


def test_build_cone_hexagon(hexagon):
    cone = build_cone(hexagon, Vec2(0.5, SQRT3 / 2), Functional(0, 2 / SQRT3))
    assert isinstance(cone.shape, AngleShape)
    assert (cone.shape.d1 - Vec2(-0.5, -SQRT3 / 2)).norm() <= 1e-12
    assert (cone.shape.d2 - Vec2(0.5, -SQRT3 / 2)).norm() <= 1e-12


def scalar_contacts(norm, phi, eps=DEFAULT_EPS):
    """The loop over the vertices that the functional-by-vertex table
    replaces: phi's dual norm and contact set."""
    values = [phi(v) for v in norm.vertices]
    top = max(values)
    ctol = eps * max(1.0, phi.magnitude()) * 10
    return top, [k for k, val in enumerate(values) if val >= top - ctol]


def scalar_cone(norm, x, phi, eps=DEFAULT_EPS):
    """build_cone as a loop over the vertices: a Cone, or the error message."""
    top, contact = scalar_contacts(norm, phi, eps)
    scale = max(1.0, phi.magnitude())
    if not (math.isfinite(scale) and abs(top - 1.0) <= 100 * eps * scale):
        return f"dual norm is {top}, expected 1"
    m = norm.m
    if len(contact) == 1:
        return Cone(x, RayShape(-norm.vertices[contact[0]]))
    if len(contact) != 2:
        return "support line touches more than one edge"
    i, j = contact
    if j - i != 1 and (i, j) != (0, m - 1):
        return "support line touches non-adjacent vertices"
    k = i if j - i == 1 else m - 1
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
        want = [scalar_contacts(norm, phi) for phi in funcs]
        tops, _, contacts = solver._contact_sets(funcs, DEFAULT_EPS, *dual_norms(norm, funcs))
        assert [t.hex() for t in tops] == [top.hex() for top, _ in want]
        assert contacts == [c for _, c in want]
        for phi in funcs:
            try:
                got = build_cone(norm, Vec2(1, 2), phi)
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
        build_cone(diamond, Vec2(0, 0), Functional(nan, nan))
    # inf * 0 at the vertices on the y axis is NaN, as in Python floats,
    # and raises no RuntimeWarning
    with pytest.raises(CertificateError, match="dual norm is nan"):
        build_cone(diamond, Vec2(0, 0), Functional(math.inf, 0.0))
    # on the square the dual norm is inf with no NaN, and the unit test's
    # tolerance 100 eps |phi| would be inf too
    for phi in (Functional(math.inf, 0.0), Functional(0.0, -math.inf)):
        with pytest.raises(CertificateError, match="dual norm is inf"):
            build_cone(square, Vec2(0, 0), phi)


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
    phis = select_functionals(hexagon, unit_triangle, p)
    cones = [build_cone(hexagon, q, f) for q, f in zip(unit_triangle, phis)]
    radius = cone_radius(hexagon, objective(hexagon, unit_triangle, p))
    region = intersect_cones(cones, radius)
    assert region.kind == "polygon"
    for q in unit_triangle:
        assert any((v - q).norm() <= 1e-9 for v in region.vertices)


def test_collinear_median():
    assert collinear_median([Vec2(0, 0), Vec2(1, 0), Vec2(5, 0)]) == Vec2(1, 0)
    pts = [Vec2(0, 0), Vec2(1, 1), Vec2(2, 2), Vec2(3, 3), Vec2(10, 10)]
    assert collinear_median(pts) == Vec2(2, 2)
    assert collinear_median([Vec2(0, 0), Vec2(1, 0), Vec2(0, 1)]) is None
    assert collinear_median([Vec2(0, 0), Vec2(1, 0)]) is None


def test_collinear_median_near_vertical_line():
    # x jitter below eps must not hide the spread along y
    pts = [Vec2(5e-13, -1000.0), Vec2(0.0, 0.0), Vec2(1e-12, 1e-12)]
    med = collinear_median(pts)
    assert med is not None and (med - Vec2(0, 0)).norm() <= 1e-9
    assert collinear_median([Vec2(0, 7), Vec2(0, -3), Vec2(0, 1)]) == Vec2(0, 1)


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
    sels = enumerate_selections(diamond, pts, sol.certificate.base, limit=8)
    assert len(sels) >= 2
    regions = []
    for sel in sels:
        cones = [build_cone(diamond, q, f) for q, f in zip(pts, sel)]
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


def test_relaxed_certificate_on_many_sided_ball():
    # three vertex-direction pulls that nearly but not exactly cancel: the
    # optimum sits on the terminal and the relaxed test must clip the whole
    # 64-vertex dual ball without hitting any half-plane count limit
    from ftplane import make_lambda_norm

    norm = make_lambda_norm(32).norm
    v = norm.vertices
    pts = [Vec2(0, 0), v[0] * 2.0, v[21] * 1.5, v[43] * 1.8]
    sol = ft_solve(norm, pts)
    assert sol.region.kind == "point"
    assert sol.certificate.relaxed == (0,)
    check_certificate(norm, pts, sol.certificate)
    assert verify_ft_point(norm, pts, Vec2(0.5, 0.5)) is None


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
    from ftplane import probe_solution_set
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
    # rays; the terminal optimum needs the degenerate (single-generator)
    # zonogon end caps in the relaxed test
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


DIAMOND_ARMS = (Vec2(1, 0), Vec2(0, 1), Vec2(-1, 0), Vec2(0, -1))


def plus_shape(centre, counts, seed):
    """``counts[k]`` terminals on arm k of the diamond's vertex directions."""
    rng = Random(seed)
    return [centre + arm * rng.uniform(0.25, 3.0)
            for arm, many in zip(DIAMOND_ARMS, counts) for _ in range(many)]


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
    sels = enumerate_selections(diamond, pts, centre, limit=6)
    assert len(sels) >= 2
    assert len(set(sels)) == len(sels)
    regions = []
    for sel in sels:
        check_certificate(diamond, pts, Certificate(centre, sel))
        cones = [build_cone(diamond, q, f) for q, f in zip(pts, sel)]
        regions.append(intersect_cones(cones, cone_radius(diamond, value)))
    assert regions[0].kind == "point"
    for r in regions[1:]:
        assert regions_match(regions[0], r, tol=1e-9)


def zonogon_normals_with_duplicates(gens):
    """_zonogon_normals as it was before bit-identical normals were dropped."""
    out = []
    for g in gens:
        n = g.perp() * (1.0 / g.norm())
        out += [n, -n]
    if gens and all(abs(g.cross(gens[0])) <= 1e-12 * g.norm() * gens[0].norm()
                    for g in gens):
        u = gens[0] * (1.0 / gens[0].norm())
        out += [u, -u]
    return out


def test_zonogon_normals_drop_only_bit_identical_duplicates(monkeypatch, diamond):
    # a duplicated normal repeats a bound of the peel and a clip of the
    # relaxed target, so selections and certificates stay the same
    rng = Random(21)
    cases = []
    for _ in range(40):
        centre = Vec2(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
        pts = plus_shape(centre, [rng.randint(0, 5) for _ in range(4)], rng.randrange(1000))
        cases.append((centre, pts + [centre] * rng.randint(0, 2)))
    centre = Vec2(0.3, -0.7)
    _, _, gens = solver._zonogon([norming_set(diamond, q - centre)
                                  for q in plus_shape(centre, (4, 3, 3, 3), seed=13)])
    assert (len(zonogon_normals_with_duplicates(gens)), len(solver._zonogon_normals(gens))) \
        == (26, 8)

    def answers():
        out = []
        for p, pts in cases:
            sets = [norming_set(diamond, q - p) for q in pts if q != p]
            out.append(repr(solver._solve_selections(sets, Vec2(0.0, 0.0), limit=8)))
            out.append(repr(verify_ft_point(diamond, pts, p)))
        return out

    deduped = answers()
    monkeypatch.setattr(solver, "_zonogon_normals", zonogon_normals_with_duplicates)
    assert answers() == deduped
    assert sum("relaxed=()" not in a for a in deduped[1::2] if a != "None") >= 10
