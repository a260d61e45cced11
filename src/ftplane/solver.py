"""Fermat-Torricelli solver for polygonal norms.

The objective x -> sum_i gauge(x - x_i) is piecewise linear; it is linear
on every cell of the arrangement of the lines through each terminal in each
unit-ball vertex direction. The extreme points of the solution set are
therefore arrangement vertices, which the solver enumerates outright
instead of descending iteratively.

Optimality at a point p outside the terminal set is certified by one
norming functional per displacement x_i - p whose sum is zero; the full
solution set is then the intersection of the cones these functionals span,
one per terminal. At a terminal the certificate is relaxed: the remaining
functionals need only sum to something of dual norm at most one.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    CertificateError,
    EmptyInputError,
    EmptyIntersectionError,
    InfeasibleError,
    NotUnitFunctionalError,
)
from .geometry import (
    DEFAULT_EPS,
    HalfPlane,
    Region,
    Vec2,
    clip_polygon,
    orient,
)
from .norms import (
    Functional,
    PolygonalNorm,
    UniqueFunctional,
    dual_norm,
    gauge,
    gauge_batch,
    norming_set,
)


@dataclass(frozen=True)
class RayShape:
    """Cone degenerated to a single ray."""

    direction: Vec2


@dataclass(frozen=True)
class AngleShape:
    """Cone spanned by d1 and d2, counterclockwise sweep strictly below pi."""

    d1: Vec2
    d2: Vec2


@dataclass(frozen=True)
class Cone:
    vertex: Vec2
    shape: RayShape | AngleShape


@dataclass(frozen=True)
class Certificate:
    """Optimality witness: functionals at base summing to zero.

    ``relaxed`` lists terminal indices coinciding with ``base``; their
    entries complete the sum to zero and have dual norm at most one instead
    of exactly one.
    """

    base: Vec2
    functionals: tuple[Functional, ...]
    relaxed: tuple[int, ...] = ()


@dataclass(frozen=True)
class FTSolution:
    """Full solution set, its objective value and the certificate."""

    region: Region
    objective: float
    certificate: Certificate


def objective(norm: PolygonalNorm, points: list[Vec2] | tuple[Vec2, ...],
              x: Vec2) -> float:
    """Sum of gauge distances from x to the terminals."""
    if not points:
        raise EmptyInputError("objective needs at least one terminal")
    return sum(gauge(norm, x - q) for q in points)


def _objective_batch(norm: PolygonalNorm, points, xs: np.ndarray) -> np.ndarray:
    total = np.zeros(len(xs))
    for q in points:
        total += gauge_batch(norm, xs[:, 0] - q.x, xs[:, 1] - q.y)
    return total


def candidate_minimize(norm: PolygonalNorm, points: list[Vec2] | tuple[Vec2, ...],
                       eps: float = DEFAULT_EPS) -> tuple[list[Vec2], float]:
    """Minimize over terminals plus all pairwise breakline intersections.

    Breaklines are the lines through each terminal in each unit-ball vertex
    direction; every extreme point of the solution set is such an
    intersection, so the minimum over candidates is the global minimum.
    Returns all minimizing candidates (deduplicated) and the value.
    """
    if not points:
        raise EmptyInputError("need at least one terminal")
    pts = list(points)
    half = norm.m // 2
    lines = [(q, norm.vertices[k]) for q in pts for k in range(half)]
    cands: list[Vec2] = list(pts)
    for i in range(len(lines)):
        p1, d1 = lines[i]
        for j in range(i + 1, len(lines)):
            p2, d2 = lines[j]
            den = d1.cross(d2)
            if abs(den) <= 1e-12 * d1.norm() * d2.norm():
                continue
            t = (p2 - p1).cross(d2) / den
            cands.append(p1 + d1 * t)

    arr = np.array([[c.x, c.y] for c in cands])
    vals = _objective_batch(norm, pts, arr)
    best = float(vals.min())
    vtol = eps * max(1.0, abs(best))
    arg = [cands[i] for i in np.flatnonzero(vals <= best + vtol)]
    arg.sort(key=Vec2.key)
    out: list[Vec2] = []
    for c in arg:
        if all((c - kept).norm() > eps for kept in out):
            out.append(c)
    return out, best


def collinear_median(points: list[Vec2] | tuple[Vec2, ...],
                     eps: float = DEFAULT_EPS) -> Vec2 | None:
    """Middle point of an odd collinear set (sorted along the line), else None."""
    pts = list(points)
    if not pts or len(pts) % 2 == 0:
        return None
    a = min(pts, key=Vec2.key)
    b = max(pts, key=lambda q: (q - a).norm())  # farthest: a true line extreme
    if (b - a).norm() <= eps:
        return sorted(pts, key=Vec2.key)[len(pts) // 2]
    if any(orient(a, b, q, eps) != 0 for q in pts):
        return None
    d = b - a
    ordered = sorted(pts, key=lambda q: (q - a).dot(d))
    return ordered[len(ordered) // 2]


# --- functional selection -------------------------------------------------

def _set_bounds(fset) -> tuple[Functional, Functional]:
    if isinstance(fset, UniqueFunctional):
        return fset.phi, fset.phi
    return fset.lo, fset.hi


def _selection_scale(sets) -> float:
    mags = [1.0]
    for s in sets:
        lo, hi = _set_bounds(s)
        mags.append(lo.magnitude())
        mags.append(hi.magnitude())
    return max(mags)


def _solve_selections(sets, target: Vec2, eps: float,
                      limit: int = 1) -> list[list[Functional]]:
    """Pick one functional per set so the picks sum to ``target``.

    With segment sets parameterized by t in [0, 1], this is two linear
    equations under box constraints. Assignments are tried endpoints first,
    then midpoints, then basic solutions with at most two free parameters
    (every vertex of the feasible polytope has that form, so the search is
    complete). Returns up to ``limit`` distinct solutions, in a fixed order.
    """
    base = Vec2(0.0, 0.0)
    gens: list[tuple[int, Vec2]] = []
    los: list[Functional] = []
    for idx, s in enumerate(sets):
        lo, hi = _set_bounds(s)
        los.append(lo)
        base = base + lo.as_vec()
        g = (hi - lo).as_vec()
        if g.norm() > 1e-12:
            gens.append((idx, g))
    t_target = target - base
    k = len(gens)
    rtol = 2e-9 * _selection_scale(sets) * max(1, len(sets))
    bt = 1e-9  # box slack before clamping

    found: list[tuple[float, ...]] = []

    def residual(ts: tuple[float, ...]) -> float:
        sx = sum(t * g.x for t, (_, g) in zip(ts, gens))
        sy = sum(t * g.y for t, (_, g) in zip(ts, gens))
        return math.hypot(sx - t_target.x, sy - t_target.y)

    def push(ts: tuple[float, ...]) -> bool:
        for prev in found:
            if max(abs(u - w) for u, w in zip(prev, ts)) <= 1e-9:
                return False
        found.append(ts)
        return len(found) >= limit

    if k == 0:
        if t_target.norm() <= rtol:
            found.append(())
    else:
        done = False
        for grid in ((0.0, 1.0), (0.0, 0.5, 1.0)):
            for ts in itertools.product(grid, repeat=k):
                if grid != (0.0, 1.0) and all(t in (0.0, 1.0) for t in ts):
                    continue
                if residual(ts) <= rtol and push(ts):
                    done = True
                    break
            if done:
                break
        if not done:
            done = _basic_solutions(gens, t_target, rtol, bt, residual, push)

    out: list[list[Functional]] = []
    for ts in found:
        sel = list(los)
        for t, (idx, _) in zip(ts, gens):
            lo, hi = _set_bounds(sets[idx])
            sel[idx] = Functional(lo.a + t * (hi.a - lo.a), lo.b + t * (hi.b - lo.b))
        out.append(sel)
    return out


def _basic_solutions(gens, t_target: Vec2, rtol: float, bt: float,
                     residual, push) -> bool:
    """Enumerate solutions with all but <= 2 parameters at their bounds."""
    k = len(gens)
    # one free parameter
    for i in range(k):
        others = [j for j in range(k) if j != i]
        gi = gens[i][1]
        gi2 = gi.dot(gi)
        for bounds in itertools.product((0.0, 1.0), repeat=k - 1):
            rest = Vec2(sum(b * gens[j][1].x for b, j in zip(bounds, others)),
                        sum(b * gens[j][1].y for b, j in zip(bounds, others)))
            rhs = t_target - rest
            ti = rhs.dot(gi) / gi2
            if not (-bt <= ti <= 1.0 + bt):
                continue
            ti = min(max(ti, 0.0), 1.0)
            ts = [0.0] * k
            for b, j in zip(bounds, others):
                ts[j] = b
            ts[i] = ti
            tst = tuple(ts)
            if residual(tst) <= rtol and push(tst):
                return True
    # two free parameters
    for i in range(k):
        gi = gens[i][1]
        for j in range(i + 1, k):
            gj = gens[j][1]
            det = gi.cross(gj)
            if abs(det) <= 1e-12 * gi.norm() * gj.norm():
                continue
            others = [l for l in range(k) if l != i and l != j]
            for bounds in itertools.product((0.0, 1.0), repeat=k - 2):
                rest = Vec2(sum(b * gens[l][1].x for b, l in zip(bounds, others)),
                            sum(b * gens[l][1].y for b, l in zip(bounds, others)))
                rhs = t_target - rest
                ti = rhs.cross(gj) / det
                tj = gi.cross(rhs) / det
                if not (-bt <= ti <= 1.0 + bt and -bt <= tj <= 1.0 + bt):
                    continue
                ti = min(max(ti, 0.0), 1.0)
                tj = min(max(tj, 0.0), 1.0)
                ts = [0.0] * k
                for b, l in zip(bounds, others):
                    ts[l] = b
                ts[i], ts[j] = ti, tj
                tst = tuple(ts)
                if residual(tst) <= rtol and push(tst):
                    return True
    return False


def select_functionals(norm: PolygonalNorm, points, p: Vec2,
                       eps: float = DEFAULT_EPS) -> tuple[Functional, ...]:
    """Concrete norming functionals at p (not a terminal) summing to zero."""
    for q in points:
        if (q - p).norm() <= eps:
            raise InfeasibleError("p coincides with a terminal")
    sets = [norming_set(norm, q - p, eps) for q in points]
    sols = _solve_selections(sets, Vec2(0.0, 0.0), eps, limit=1)
    if not sols:
        raise InfeasibleError("no norming selection sums to zero at p")
    return tuple(sols[0])


def enumerate_selections(norm: PolygonalNorm, points, p: Vec2,
                         eps: float = DEFAULT_EPS,
                         limit: int = 8) -> list[tuple[Functional, ...]]:
    """Up to ``limit`` distinct valid selections at p, deterministic order."""
    sets = [norming_set(norm, q - p, eps) for q in points]
    sols = _solve_selections(sets, Vec2(0.0, 0.0), eps, limit=limit)
    return [tuple(s) for s in sols]


def verify_ft_point(norm: PolygonalNorm, points, p: Vec2,
                    eps: float = DEFAULT_EPS) -> Certificate | None:
    """Certificate that p minimizes the objective, or None.

    Away from the terminals this is the zero-sum condition on norming
    functionals. At a terminal the condition relaxes: the other functionals
    must sum to something of dual norm at most one (at most d, when d
    terminals coincide there); the completing entries are stored at the
    relaxed indices so the certificate still sums to zero.
    """
    pts = list(points)
    omitted = tuple(i for i, q in enumerate(pts) if (q - p).norm() <= eps)
    if not omitted:
        sets = [norming_set(norm, q - p, eps) for q in pts]
        sols = _solve_selections(sets, Vec2(0.0, 0.0), eps, limit=1)
        if not sols:
            return None
        return Certificate(p, tuple(sols[0]), ())

    kept = [i for i in range(len(pts)) if i not in omitted]
    sets = [norming_set(norm, pts[i] - p, eps) for i in kept]
    d = len(omitted)
    psi = Vec2(0.0, 0.0)
    sols = _solve_selections(sets, psi, eps, limit=1)
    if not sols:
        psi_opt = _relaxed_target(norm, sets, d, eps)
        if psi_opt is None:
            return None
        psi = psi_opt
        sols = _solve_selections(sets, psi, eps, limit=1)
        if not sols:
            return None
    completion = Functional(-psi.x / d, -psi.y / d)
    funcs: list[Functional] = [completion] * len(pts)
    for i, phi in zip(kept, sols[0]):
        funcs[i] = phi
    return Certificate(p, tuple(funcs), omitted)


def _relaxed_target(norm: PolygonalNorm, sets, ball_scale: int,
                    eps: float) -> Vec2 | None:
    """A reachable functional sum with dual norm <= ball_scale, or None.

    The reachable sums form a zonogon; clipping the scaled dual ball (whose
    vertices are the edge functionals) by the zonogon's half-plane form and
    taking the centroid gives a concrete target that the box-constrained
    solver can then decompose.
    """
    base = Vec2(0.0, 0.0)
    gens: list[Vec2] = []
    for s in sets:
        lo, hi = _set_bounds(s)
        base = base + lo.as_vec()
        g = (hi - lo).as_vec()
        if g.norm() > 1e-12:
            gens.append(g)
    if not gens:
        if dual_norm(norm, Functional(base.x, base.y)) <= ball_scale + 10 * eps:
            return base
        return None
    center = base
    for g in gens:
        center = center + g * 0.5
    hps: list[HalfPlane] = []
    for g in gens:
        # facet normals of the zonogon are the generator perps; the end caps
        # along each generator direction matter when it degenerates (k = 1 or
        # parallel generators) and are redundant otherwise
        for n in (g.perp(), g):
            n = n * (1.0 / n.norm())
            spread = sum(abs(n.dot(h)) for h in gens) / 2.0
            hps.append(HalfPlane(n, n.dot(center) + spread))
            hps.append(HalfPlane(-n, -n.dot(center) + spread))
    duals = norm._duals
    m = norm.m
    scale = float(ball_scale)
    ball_verts = [f.as_vec() * scale for f in duals]
    # the edge from dual vertex k to k+1 lies on the support line of primal
    # vertex k+1
    ball_edges = [HalfPlane(norm.vertices[(k + 1) % m], scale) for k in range(m)]
    region = clip_polygon(ball_verts, ball_edges, hps, eps)
    if region.kind == "empty":
        return None
    sx = sum(v.x for v in region.vertices) / len(region.vertices)
    sy = sum(v.y for v in region.vertices) / len(region.vertices)
    return Vec2(sx, sy)


# --- cones ------------------------------------------------------------------

def build_cone(norm: PolygonalNorm, x: Vec2, phi: Functional,
               eps: float = DEFAULT_EPS) -> Cone:
    """Cone of points from which phi keeps norming the displacement to x.

    The level line phi = 1 touches the unit ball in a vertex (ray cone) or
    an edge (angle cone); the touching set is negated and translated to x.
    """
    values = [phi(v) for v in norm.vertices]
    top = max(values)
    if abs(top - 1.0) > 100 * eps * max(1.0, phi.magnitude()):
        raise NotUnitFunctionalError(f"dual norm is {top}, expected 1")
    ctol = eps * max(1.0, phi.magnitude()) * 10
    contact = [k for k, val in enumerate(values) if val >= top - ctol]
    if len(contact) == 1:
        return Cone(x, RayShape(-norm.vertices[contact[0]]))
    if len(contact) == 2:
        i, j = contact
        m = norm.m
        if j - i == 1:
            k = i
        elif i == 0 and j == m - 1:
            k = m - 1
        else:
            raise NotUnitFunctionalError("support line touches non-adjacent vertices")
        return Cone(x, AngleShape(-norm.vertices[k], -norm.vertices[(k + 1) % m]))
    raise NotUnitFunctionalError("support line touches more than one edge")


def _cone_halfplanes(cone: Cone, eps: float) -> list[HalfPlane]:
    v = cone.vertex
    if isinstance(cone.shape, AngleShape):
        d1, d2 = cone.shape.d1, cone.shape.d2
        if d1.cross(d2) <= eps * d1.norm() * d2.norm():
            raise ValueError("angle cone must sweep counterclockwise below pi")
        n1 = Vec2(d1.y, -d1.x)
        n2 = Vec2(-d2.y, d2.x)
        return [HalfPlane(n1, n1.dot(v)), HalfPlane(n2, n2.dot(v))]
    d = cone.shape.direction
    n = Vec2(d.y, -d.x)
    back = -d * (1.0 / d.norm())
    return [HalfPlane(n, n.dot(v)),
            HalfPlane(-n, -n.dot(v)),
            HalfPlane(back, back.dot(v))]


def intersect_cones(cones: list[Cone] | tuple[Cone, ...], radius: float,
                    eps: float = DEFAULT_EPS) -> Region:
    """Intersection of cones; must come out non-empty.

    Each angle contributes its two sides as half-planes and each ray its
    carrier line plus the cut at the apex, so one clip of a square covers
    every mixed case. The square has half-width ``radius`` and is centred on
    the first cone's apex; it must contain the whole intersection.
    """
    if not cones:
        raise EmptyInputError("need at least one cone")
    hps: list[HalfPlane] = []
    for cone in cones:
        hps.extend(_cone_halfplanes(cone, eps))
    c, r = cones[0].vertex, radius
    square = [Vec2(c.x - r, c.y - r), Vec2(c.x + r, c.y - r),
              Vec2(c.x + r, c.y + r), Vec2(c.x - r, c.y + r)]
    sides = [HalfPlane(Vec2(0.0, -1.0), r - c.y), HalfPlane(Vec2(1.0, 0.0), c.x + r),
             HalfPlane(Vec2(0.0, 1.0), c.y + r), HalfPlane(Vec2(-1.0, 0.0), r - c.x)]
    region = clip_polygon(square, sides, hps, eps)
    if region.kind == "empty":
        raise EmptyIntersectionError("cone intersection is empty")
    return region


# --- certificates and the full pipeline -------------------------------------

def check_certificate(norm: PolygonalNorm, points, cert: Certificate,
                      eps: float = DEFAULT_EPS) -> None:
    """Raise CertificateError unless the certificate verifies.

    Checks the zero sum, and for every non-relaxed entry that the
    functional norms its displacement and has dual norm one; relaxed
    entries only need dual norm at most one.
    """
    pts = list(points)
    if len(cert.functionals) != len(pts):
        raise CertificateError("certificate length mismatch")
    scale = max([1.0] + [f.magnitude() for f in cert.functionals])
    tol = 20 * eps * scale * max(1, len(pts))
    total = Functional(0.0, 0.0)
    for f in cert.functionals:
        total = total + f
    if total.magnitude() > tol:
        raise CertificateError(f"functionals sum to {total}, not zero")
    relaxed = set(cert.relaxed)
    for i, (q, f) in enumerate(zip(pts, cert.functionals)):
        dn = dual_norm(norm, f)
        if i in relaxed:
            if dn > 1.0 + tol:
                raise CertificateError(f"relaxed entry {i} has dual norm {dn}")
            continue
        if abs(dn - 1.0) > tol:
            raise CertificateError(f"entry {i} has dual norm {dn}, expected 1")
        g = gauge(norm, q - cert.base)
        if abs(f(q - cert.base) - g) > tol * max(1.0, g):
            raise CertificateError(f"entry {i} does not norm its displacement")


def ft_solve(norm: PolygonalNorm, points: list[Vec2] | tuple[Vec2, ...],
             eps: float = DEFAULT_EPS) -> FTSolution:
    """Full solution set of the Fermat-Torricelli problem.

    Pipeline: odd collinear shortcut; candidate minimization; a certified
    interior point of the solution set; cone intersection; cross-validation
    that every region vertex attains the optimal value.
    """
    if not points:
        raise EmptyInputError("need at least one terminal")
    pts = tuple(points)

    med = collinear_median(pts, eps)
    if med is not None:
        value = objective(norm, pts, med)
        cert = verify_ft_point(norm, pts, med, eps)
        if cert is None:
            raise CertificateError("odd collinear median failed to certify")
        return FTSolution(Region.point(med), value, cert)

    cands, value = candidate_minimize(norm, pts, eps)

    def near_terminal(c: Vec2) -> bool:
        return any((c - q).norm() <= eps for q in pts)

    if len(cands) == 1 and near_terminal(cands[0]):
        p = cands[0]
        cert = verify_ft_point(norm, pts, p, eps)
        if cert is None:
            raise CertificateError("terminal optimum failed to certify")
        check_certificate(norm, pts, cert, eps)
        return FTSolution(Region.point(p), value, cert)

    if len(cands) == 1:
        p = cands[0]
    else:
        p = Vec2(sum(c.x for c in cands) / len(cands),
                 sum(c.y for c in cands) / len(cands))
        if near_terminal(p):
            nonterm = [c for c in cands if not near_terminal(c)]
            if not nonterm:
                raise CertificateError("argmin average unexpectedly hit a terminal")
            p = nonterm[0]

    phis = select_functionals(norm, pts, p, eps)
    cert = Certificate(p, phis, ())
    check_certificate(norm, pts, cert, eps)
    cones = tuple(build_cone(norm, q, f, eps) for q, f in zip(pts, phis))
    # gauge(u) >= |u| / max_k |v_k|, so every optimum lies within
    # value * max_k |v_k| of the first terminal. Twice that keeps the square's
    # sides off the solution set; cones that reach them (a wrong certificate)
    # leave a vertex of objective >= 2 * value, which the check below rejects.
    radius = 2.0 * value * max(v.norm() for v in norm.vertices)
    region = intersect_cones(cones, radius, eps)
    vtol = 100 * eps * max(1.0, abs(value))
    for v in region.vertices:
        got = objective(norm, pts, v)
        if abs(got - value) > vtol:
            raise CertificateError(
                f"region vertex {v} attains {got}, optimum is {value}")
    return FTSolution(region, value, cert)
