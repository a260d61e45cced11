"""Acceptance suite: one test per shipping criterion, each printing a
PASS/FAIL line. Tolerances are fixed here and nowhere else."""

import math
from random import Random

import pytest

from ftplane import (
    Vec2,
    build_cones,
    check_condition1,
    check_condition2,
    check_condition3,
    classify_lambda,
    dual_norm,
    element_point,
    ft_solve,
    gauge,
    grid_minimize,
    intersect_cones,
    lambda_triangle_solution,
    make_lambda_norm,
    make_polygonal_norm,
    probe_solution_set,
    torricelli_point,
    uniqueness_verdict,
    verify_ft_point,
)
from ftplane.norms import Functional
from ftplane.oracle import final_cell_diameter, random_instance, random_symmetric_norm

from conftest import SQRT3, cone_radius, fibre_selections, hausdorff, regions_match

SEED = 7


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} - {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def corpus200():
    rng = Random(SEED)
    out = []
    for _ in range(200):
        norm, pts = random_instance(rng)
        out.append((norm, pts, ft_solve(norm, pts)))
    return out


def test_criterion_1_lambda_classification():
    mismatches = []
    for lam in range(2, 31):
        verdict = classify_lambda(lam)
        if verdict.unique != (lam % 3 != 0):
            mismatches.append(lam)
    _report(1, "lambda classification 2..30 follows the mod-3 rule",
            not mismatches, f"29/29 exact, mismatches={mismatches}")


def test_criterion_2_hexagon_triangle():
    norm = make_lambda_norm(3).norm
    tri = [Vec2(0, 0), Vec2(1, 0), Vec2(0.5, SQRT3 / 2)]
    sol = ft_solve(norm, tri)
    ok = sol.region.kind == "polygon" and hausdorff(sol.region.vertices, tri) <= 1e-9
    _report(2, "unit triangle on the hexagon plane solves to itself", ok,
            f"kind={sol.region.kind}")


def test_criterion_3_odd_collinear_sets():
    rng = Random(SEED + 1)
    norms = [random_symmetric_norm(rng) for _ in range(10)]
    failures = 0
    for i in range(50):
        norm = norms[i % 10]
        n = rng.choice([3, 5, 7, 9])
        base = Vec2(rng.uniform(-2, 2), rng.uniform(-2, 2))
        ang = rng.uniform(0, 2 * math.pi)
        d = Vec2(math.cos(ang), math.sin(ang))
        ts = sorted(rng.uniform(-4, 4) for _ in range(n))
        pts = [base + d * t for t in ts]
        expected = pts[n // 2]
        rng.shuffle(pts)
        sol = ft_solve(norm, pts)
        if sol.region.kind != "point" or \
                (sol.region.vertices[0] - expected).norm() > 1e-9:
            failures += 1
    _report(3, "odd collinear sets solve to the middle point", failures == 0,
            f"{50 - failures}/50 within 1e-9")


def test_criterion_4_certificate_soundness(corpus200):
    bad = 0
    for norm, pts, sol in corpus200:
        cert = sol.certificate
        total = Functional(0.0, 0.0)
        for f in cert.functionals:
            total = total + f
        ok = total.norm() <= 1e-8
        relaxed = set(cert.relaxed)
        for i, (q, f) in enumerate(zip(pts, cert.functionals)):
            if i in relaxed:
                ok = ok and dual_norm(norm, f) <= 1 + 1e-8
                continue
            g = gauge(norm, q - cert.base)
            ok = ok and abs(f.dot(q - cert.base) - g) <= 1e-8 * max(1.0, g)
            ok = ok and abs(dual_norm(norm, f) - 1.0) <= 1e-8
        if not ok:
            bad += 1
    _report(4, "certificates sum to zero and norm their vectors on 200 instances",
            bad == 0, f"{200 - bad}/200")


def test_criterion_5_oracle_equivalence(corpus200):
    bad = 0
    for norm, pts, sol in corpus200:
        _, gval = grid_minimize(norm, pts)
        bound = len(pts) * final_cell_diameter(norm, pts)
        ok = -1e-9 <= gval - sol.objective <= bound
        report = probe_solution_set(norm, pts, sol.region, sol.objective)
        ok = ok and report.max_inside_deviation < 1e-8
        ok = ok and report.min_outside_excess > 0
        if not ok:
            bad += 1
    _report(5, "grid oracle and region probe agree on 200 instances",
            bad == 0, f"{200 - bad}/200")


def test_criterion_6_choice_independence(corpus200):
    # flat fixture instances guarantee the multi-selection branch is exercised
    diamond = make_polygonal_norm([(1, 0), (0, 1), (-1, 0), (0, -1)])
    hexn = make_lambda_norm(3).norm
    center = Vec2(0.5, SQRT3 / 6)
    rot = []
    for p in (Vec2(0, 0), Vec2(1, 0), Vec2(0.5, SQRT3 / 2)):
        d = p - center
        c, s = math.cos(math.pi / 6), math.sin(math.pi / 6)
        rot.append(Vec2(center.x + d.x * c - d.y * s, center.y + d.x * s + d.y * c))
    extra = [
        (diamond, [Vec2(0, 0), Vec2(1, 0)]),
        (diamond, [Vec2(0, 0), Vec2(2, 1)]),
        (hexn, rot),
    ]
    cases = list(corpus200) + [(n, p, ft_solve(n, p)) for n, p in extra]

    multi_selection = 0
    multi_base = 0
    bad = 0
    for norm, pts, sol in cases:
        if sol.certificate.relaxed:
            continue
        p = sol.certificate.base
        radius = cone_radius(norm, sol.objective)
        regions = []
        for sel in fibre_selections(norm, pts, p):
            cones = build_cones(norm, pts, sel)
            regions.append(intersect_cones(cones, radius))
        if len(regions) >= 2:
            multi_selection += 1
        # the statement is also independent of which solution point is used
        if sol.region.kind != "point":
            vs = sol.region.vertices
            alts = []
            for w in ((0.5, 0.3), (0.25, 0.6)):
                weights = list(w) + [0.2] * (len(vs) - 2)
                total = sum(weights)
                alts.append(Vec2(sum(wt * v.x for wt, v in zip(weights, vs)) / total,
                                 sum(wt * v.y for wt, v in zip(weights, vs)) / total))
            for alt in alts:
                if any((alt - q).norm() <= 1e-9 for q in pts):
                    continue
                sel = verify_ft_point(norm, pts, alt).functionals
                cones = build_cones(norm, pts, sel)
                regions.append(intersect_cones(cones, radius))
            multi_base += 1
        for r in regions[1:]:
            if not regions_match(regions[0], r, tol=1e-9) or \
                    not regions_match(sol.region, r, tol=1e-9):
                bad += 1
                break
    ok = bad == 0 and multi_selection > 0 and multi_base > 0
    _report(6, "every valid selection and base point yields the same region", ok,
            f"multi-selection instances={multi_selection}, "
            f"multi-base instances={multi_base}, disagreements={bad}")


def test_criterion_7_witness_constructivity():
    rng = Random(SEED + 2)
    norms = [random_symmetric_norm(rng) for _ in range(100)]
    norms += [make_lambda_norm(lam).norm for lam in range(3, 31)]
    norms.append(make_polygonal_norm([
        (1, 0), (2 / 3, 2 / 3), (0, 1), (-2 / 3, 2 / 3),
        (-1, 0), (-2 / 3, -2 / 3), (0, -1), (2 / 3, -2 / 3)]))
    norms.append(make_polygonal_norm([
        (8, 0), (3, 1), (-3, 1), (-8, 0), (-3, -1), (3, -1)]))

    fired = {1: 0, 2: 0, 3: 0}
    bad = 0
    for norm in norms:
        for cond, checker in ((1, check_condition1), (2, check_condition2),
                              (3, check_condition3)):
            triple = checker(norm)
            if triple is None:
                continue
            fired[cond] += 1
            witness = [element_point(norm, e) for e in triple.elements]
            kind = ft_solve(norm, witness).region.kind
            ok = {1: kind == "polygon",
                  2: kind != "point",
                  3: kind == "segment"}[cond]
            if not ok:
                bad += 1
    ok = bad == 0 and fired[1] > 0 and fired[3] > 0
    _report(7, "every firing condition produces a witness of the right kind", ok,
            f"fired={fired}, wrong-kind={bad}")


def test_criterion_8_manhattan_uniqueness():
    diamond = make_polygonal_norm([(1, 0), (0, 1), (-1, 0), (0, -1)])
    verdict = uniqueness_verdict(diamond)
    rng = Random(SEED + 3)
    nonpoint = 0
    for _ in range(1000):
        pts = [Vec2(rng.uniform(-5, 5), rng.uniform(-5, 5)) for _ in range(3)]
        if ft_solve(diamond, pts).region.kind != "point":
            nonpoint += 1
    ok = verdict.unique and nonpoint == 0
    _report(8, "manhattan plane is unique for all triples", ok,
            f"verdict={'unique' if verdict.unique else 'nonunique'}, "
            f"non-point solutions={nonpoint}/1000")


def test_criterion_9_torricelli_and_triangle_solutions():
    rng = Random(SEED + 4)
    third = 2 * math.pi / 3
    triangles = []
    while len(triangles) < 100:
        pts = [Vec2(rng.uniform(-5, 5), rng.uniform(-5, 5)) for _ in range(3)]
        if torricelli_point(*pts) is not None:
            triangles.append(pts)

    angle_bad = 0
    for pts in triangles:
        t = torricelli_point(*pts)
        for i in range(3):
            u = pts[i] - t
            w = pts[(i + 1) % 3] - t
            ang = math.atan2(abs(u.cross(w)), u.dot(w))
            if abs(ang - third) > 1e-7:
                angle_bad += 1

    agree_bad = 0
    for pts in triangles:
        for lam in (3, 6, 9):
            sol = lambda_triangle_solution(lam, *pts)
            direct = ft_solve(make_lambda_norm(lam).norm, pts)
            if not regions_match(sol.region, direct.region, tol=1e-8):
                agree_bad += 1
    ok = angle_bad == 0 and agree_bad == 0
    _report(9, "120-degree points and triangle solutions verify", ok,
            f"angle failures={angle_bad}, agreement failures={agree_bad} "
            f"over 100 triangles x 3 planes")
