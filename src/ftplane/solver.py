"""Fermat-Torricelli solver for polygonal norms.

The objective x -> sum_i gauge(x - x_i) is piecewise linear; it is linear
on every cell of the arrangement of the lines through each terminal in each
unit-ball vertex direction. The extreme points of the solution set are
therefore arrangement vertices, which the solver enumerates outright
instead of descending iteratively. The crossings are numpy arrays over
pairs of breaklines, in bounded blocks, computed with the operations of a
scalar loop over line pairs; lines through one terminal meet there and are
not paired. The unit ball lies between the discs of radius
1 / max_k |phi_k| and max_k |v_k|, so sums of Euclidean distances bound the
objective on both sides and screen out, before any gauge, the candidates
that cannot reach the optimum. What the screen keeps lies in a sublevel set
of the convex Euclidean distance sum; tangent cuts enclose that set in a
polygon, and only the breaklines that meet the polygon are paired.

Optimality at a point p outside the terminal set is certified by one
norming functional per displacement x_i - p whose sum is zero; the full
solution set is then the intersection of the cones these functionals span,
one per terminal. At a terminal the certificate is relaxed: the remaining
functionals need only sum to something of dual norm at most one. Dual norms
and cone contacts come from one functional-by-vertex table (``dual_norms``),
with the floats of a loop over the vertices.

Each terminal's norming functionals form a point or a segment, so the sums
of one pick per terminal form a zonogon. A selection peels it: each segment
parameter is fixed once, at the midpoint of the interval that keeps the rest
of the target reachable by the segments still free, in O(k^2) for k
segments (terminals in a vertex direction from p).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import takewhile
from operator import mul

import numpy as np

from .errors import CertificateError, InputError
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
    dual_norms,
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
        raise InputError("objective needs at least one terminal")
    return sum(gauge(norm, x - q) for q in points)


# Breakline pairs per block of candidate_minimize; fixes its working memory.
_PAIR_BLOCK = 1 << 15
# Terminal-candidate cells per broadcast call of _objective_batch and
# _distance_sums: a group of terminals shares one call.
_CELL_BLOCK = 1 << 13


def _terminal_groups(qx: np.ndarray, qy: np.ndarray, n_cands: int):
    """Column slices of the terminal coordinates, one per broadcast call."""
    rows = max(1, _CELL_BLOCK // max(1, n_cands))
    for lo in range(0, len(qx), rows):
        yield qx[lo:lo + rows, None], qy[lo:lo + rows, None]


def _objective_batch(norm: PolygonalNorm, qx: np.ndarray, qy: np.ndarray,
                     xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Objective at each (xs, ys); the terminals' gauges are added in order."""
    total = np.zeros(len(xs))
    for gx, gy in _terminal_groups(qx, qy, len(xs)):
        for row in gauge_batch(norm, xs - gx, ys - gy):
            total += row
    return total


def _distance_sums(qx: np.ndarray, qy: np.ndarray, xs: np.ndarray,
                   ys: np.ndarray) -> np.ndarray:
    """Sum of Euclidean distances from each (xs, ys) to the terminals.

    The coordinates are scaled by a power of two that brings every
    difference below 1, so the squares cannot overflow; the scaling is exact
    and is undone on the sums.
    """
    span = max(max(xs.max(), qx.max()) - min(xs.min(), qx.min()),
               max(ys.max(), qy.max()) - min(ys.min(), qy.min()))
    shift = math.frexp(span)[1] if 0.0 < span < math.inf else 0
    xs, ys = np.ldexp(xs, -shift), np.ldexp(ys, -shift)
    qx, qy = np.ldexp(qx, -shift), np.ldexp(qy, -shift)
    total = np.zeros(len(xs))
    for gx, gy in _terminal_groups(qx, qy, len(xs)):
        dx, dy = xs - gx, ys - gy
        dx *= dx
        dy *= dy
        dx += dy
        total += np.sqrt(dx, out=dx).sum(axis=0)
    return np.ldexp(total, shift)


# Where cuts are sought, per unit of terminal span: 8 directions, dyadic radii.
_CUT_STEPS = np.exp(0.25j * np.pi * np.arange(8))[:, None] * np.ldexp(1.0, np.arange(-11, 1))


def _clip_lines(gx: np.ndarray, gy: np.ndarray, bound: np.ndarray, qx: np.ndarray,
                qy: np.ndarray, dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """Mask over the lines x_i + d_k t, row-major in (i, k), that meet every
    g_c . x <= bound_c. A cut with g . d_k == 0 keeps a line whole if its
    offset is >= 0, else drops it (offset / 0 is no bound); a NaN keeps it."""
    off = (bound[:, None] - (gx[:, None] * qx + gy[:, None] * qy))[:, :, None]
    gd = (gx[:, None] * dx + gy[:, None] * dy)[:, None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        t = off / gd
    lo = np.fmax.reduce(np.where(gd < 0.0, t, -np.inf), axis=0, initial=-np.inf)
    hi = np.fmin.reduce(np.where(gd > 0.0, t, np.inf), axis=0, initial=np.inf)
    dropped = ((gd == 0.0) & (off < 0.0)).any(axis=0)
    return ((lo <= hi) & ~dropped).ravel()


def _live_lines(norm: PolygonalNorm, pts: list[Vec2], qx: np.ndarray, qy: np.ndarray,
                slack: float, shrink: float, eps: float) -> np.ndarray:
    """Mask over the breaklines, row-major in (terminal, direction), that meet
    a polygon around {D <= T}, D(c) = sum_j |c - x_j|, T from the objective at
    a Weiszfeld point p0 and the screen's slack and shrink. D is convex: at
    each y found around p0 with D(y) > T, a subgradient g gives the cut
    g . x <= g . y + T - D(y) + margin, which holds on {D <= T}."""
    _, _, dx, dy, _ = norm._breaklines
    n, h = len(pts), len(dx)
    every = np.ones(n * h, dtype=bool)  # below the guard, or without a cut
    xs, ys = qx.tolist(), qy.tolist()
    if (n * (n * (n - 1) // 2 * h * (h - 1)) <= _CELL_BLOCK or not shrink > 0.0
            or not 0.0 < (span := max(max(xs) - min(xs), max(ys) - min(ys))) < math.inf):
        return every
    px, py = sum(xs) / n, sum(ys) / n
    for _ in range(4):  # Weiszfeld steps; they stop on a terminal
        ws = [math.hypot(x - px, y - py) for x, y in zip(xs, ys)]
        if not 0.0 < min(ws) <= max(ws) < math.inf:
            break
        ws = [1.0 / w for w in ws]
        px, py = sum(map(mul, ws, xs)) / sum(ws), sum(map(mul, ws, ys)) / sum(ws)
    upper = objective(norm, pts, Vec2(px, py)) * (1.0 + slack + 1e-12)
    target = (upper + eps * max(1.0, upper)) / shrink * (1.0 + 1e-9)
    margin = 1e-9 * (target + n * (span + max(map(abs, xs + ys))))
    with np.errstate(over="ignore", invalid="ignore"):
        y = complex(px, py) + span * _CUT_STEPS
        ex, ey = y.real[:, :, None] - qx, y.imag[:, :, None] - qy
        d = np.hypot(ex, ey)
        dist = d.sum(axis=2)
        out = dist > target + margin  # all False if T or the margin is not finite
        if not (out.any(axis=1).all() and np.isfinite(dist).all()):
            return every
        pick = (np.arange(len(out)), out.argmax(axis=1))  # the smallest such radius
        d = np.where(d[pick] > 0.0, d[pick], np.inf)  # a zero term at a terminal
        gx, gy = (ex[pick] / d).sum(axis=1), (ey[pick] / d).sum(axis=1)
        bound = (gx * y.real[pick] + gy * y.imag[pick] + (target - dist[pick])
                 + margin * (1.0 + np.hypot(gx, gy)))
    return _clip_lines(gx, gy, bound, qx, qy, dx, dy)


def _crossing_blocks(qx: np.ndarray, qy: np.ndarray, dx: np.ndarray,
                     dy: np.ndarray, dn: np.ndarray, live: np.ndarray):
    """The terminals, then the crossings of live lines x_i + d_k t and x_j + d_l s
    (i < j) in the order (i, k, j, l), at most _PAIR_BLOCK line pairs a block:
    t = ((x_j - x_i) x d_l) / (d_k x d_l), unless |d_k x d_l| <= 1e-12 |d_k| |d_l|."""
    li, lk = np.nonzero(live.reshape(len(qx), len(dx)))
    lx, ly, ldx, ldy, ldn = qx[li], qy[li], dx[lk], dy[lk], dn[lk]
    head = (qx, qy)
    rows = max(1, _PAIR_BLOCK // max(1, len(li)))
    for a0 in range(0, len(li), rows):
        a = slice(a0, a0 + rows)
        for c0 in range(a0 + 1, len(li), _PAIR_BLOCK):
            b = slice(c0, c0 + _PAIR_BLOCK)
            den = ldx[a, None] * ldy[b] - ldy[a, None] * ldx[b]
            ra, rb = np.nonzero((li[a, None] < li[b])
                                & (np.abs(den) > 1e-12 * ldn[a, None] * ldn[b]))
            den, ra, rb = den[ra, rb], ra + a0, rb + c0
            t = ((lx[rb] - lx[ra]) * ldy[rb] - (ly[rb] - ly[ra]) * ldx[rb]) / den
            xs, ys = lx[ra] + ldx[ra] * t, ly[ra] + ldy[ra] * t
            if head is not None:
                xs, ys, head = np.concatenate([qx, xs]), np.concatenate([qy, ys]), None
            if len(xs):
                yield xs, ys
    if head is not None:  # no crossing
        yield head


def candidate_minimize(norm: PolygonalNorm, points: list[Vec2] | tuple[Vec2, ...],
                       eps: float = DEFAULT_EPS) -> tuple[list[Vec2], float]:
    """Minimize over terminals plus all pairwise breakline intersections.

    Breaklines are the lines through each terminal in each unit-ball vertex
    direction; every extreme point of the solution set is such an
    intersection, so the minimum over candidates is the global minimum.
    Returns all minimizing candidates (deduplicated) and the value.

    The crossings come from _crossing_blocks, each the same float as in a
    scalar loop over Vec2 line pairs, and in its order (i, k, j, l). Two lines
    through one terminal cross at it (t = +-0); it heads the first block, so
    the stable key sort and the dedup would drop that copy, which is not
    formed. The bounds sum_j |c - x_j| / r <= f(c) <= phi_max sum_j |c - x_j|
    (r = max_k |v_k|, phi_max = max_k |phi_k|) screen the candidates: only
    those whose lower bound, less a rounding slack, is within tolerance of
    the least upper bound or value so far get the gauge, in the same
    operations and order. Every candidate within tolerance of the optimum
    passes, so the minimum and minimizers are the same floats as without it.

    Only crossings of two live lines are formed: a candidate within
    tolerance of the optimum lies in a convex sublevel set of the lower
    bound, so on two lines that meet a polygon of tangent cuts around it
    (_live_lines; a parallel cut keeps or drops a line whole). Below the
    guard, where one broadcast call screens every crossing, all are live.
    """
    if not points:
        raise InputError("need at least one terminal")
    pts = list(points)
    qx = np.array([q.x for q in pts], dtype=float)
    qy = np.array([q.y for q in pts], dtype=float)
    r, phi_max, dx, dy, dn = norm._breaklines
    # |u| / r <= gauge(u) <= phi_max * |u|. The slack covers the rounding of
    # both sides: a few ulps per term, times r * phi_max where np.arctan2
    # puts a direction one sector off.
    slack = 1e-12 * len(pts) * r * phi_max
    shrink = max(0.0, 1.0 - slack) / r
    upper = math.inf
    live = _live_lines(norm, pts, qx, qy, slack, shrink, eps)

    blocks, mins = [], []
    for b, (xs, ys) in enumerate(_crossing_blocks(qx, qy, dx, dy, dn, live)):
        term = np.full(len(xs), -1)  # index of the terminal a candidate is
        if b == 0:
            term[:len(pts)] = np.arange(len(pts))
        dist = _distance_sums(qx, qy, xs, ys)
        upper = min(upper, float(dist.min()) * phi_max * (1.0 + slack))
        # a NaN bound compares false, so its candidate is kept
        keep = ~(dist * shrink > upper + eps * max(1.0, upper))
        if not keep.any():
            continue
        xs, ys, term = xs[keep], ys[keep], term[keep]
        vals = _objective_batch(norm, qx, qy, xs, ys)
        low = vals.min()
        upper = min(upper, float(low))
        near = vals <= low + eps * max(1.0, low)
        blocks.append((xs[near], ys[near], term[near], vals[near]))
        mins.append(low)

    best = float(np.min(mins))
    xs, ys, term, vals = (np.concatenate(a) for a in zip(*blocks))
    near = vals <= best + eps * max(1.0, abs(best))
    # a terminal is returned as the caller's own object (its coordinates may be ints)
    arg = [pts[k] if k >= 0 else Vec2(x, y) for x, y, k in
           zip(xs[near].tolist(), ys[near].tolist(), term[near].tolist())]
    return _dedup(arg, eps), best


def _dedup(cands: list[Vec2], eps: float) -> list[Vec2]:
    """``cands`` stably sorted by Vec2.key, less each one within eps of one kept."""
    out: list[Vec2] = []
    for c in sorted(cands, key=Vec2.key):
        # x never decreases along out, and |c - q| >= c.x - q.x: only kept
        # points at most eps left of c can lie within eps of it
        if all((c - q).norm() > eps for q in
               takewhile(lambda q: not c.x - q.x > eps, reversed(out))):
            out.append(c)
    return out


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


def _zonogon(sets) -> tuple[Vec2, list[int], list[Vec2]]:
    """Base and generators of the reachable sums of one pick per set.

    The base is the sum of the low ends; each segment set contributes the
    generator ``hi - lo``. Also returns the index of each generator's set.
    """
    base = Vec2(0.0, 0.0)
    idxs: list[int] = []
    gens: list[Vec2] = []
    for idx, s in enumerate(sets):
        lo, hi = _set_bounds(s)
        base = base + lo.as_vec()
        g = (hi - lo).as_vec()
        if g.norm() > 1e-12:
            idxs.append(idx)
            gens.append(g)
    return base, idxs, gens


def _zonogon_normals(gens: list[Vec2]) -> list[Vec2]:
    """Unit normals that cut out the zonogon of any subset of ``gens``.

    These are +-perp(g) for every generator g: they hold every facet normal
    of every such zonogon, and the perps of two independent directions also
    pin the ends of a segment and the point of the empty sum. Only when all
    generators are parallel are the end caps +-g/|g| added. A normal equal in
    every bit to an earlier one (+0.0 and -0.0 differ) repeats its bound.
    """
    perps = [g.perp() * (1.0 / g.norm()) for g in gens]
    out = list({(v.x.hex(), v.y.hex()): v for n in perps for v in (n, -n)}.values())
    if gens and all(abs(g.cross(gens[0])) <= 1e-12 * g.norm() * gens[0].norm()
                    for g in gens):
        u = gens[0] * (1.0 / gens[0].norm())
        out += [u, -u]
    return out


def _peel(gens: list[Vec2], target: Vec2, order: list[int],
          end: float) -> list[float]:
    """Box parameters t in [0, 1] with sum t_j g_j = target, if reachable.

    The generators are fixed one at a time in ``order``. Step j picks t_j in
    the interval that keeps ``target - sum t g`` inside the zonogon of the
    generators not yet fixed, at fraction ``end`` of that interval; the
    midpoint (0.5) keeps the remainder off that zonogon's boundary. The
    products n.g are tabulated once and each step updates every normal's
    support and level in O(1), so the peel costs O(k^2).
    """
    normals = _zonogon_normals(gens)
    dots = [[n.dot(g) for g in gens] for n in normals]
    support = [sum(max(0.0, ng) for ng in row) for row in dots]  # of the free gens
    levels = [n.dot(target) for n in normals]  # n . (target - sum t g)
    ts = [0.0] * len(gens)
    for j in order:
        lo, hi = 0.0, 1.0
        tiny = 1e-12 * gens[j].norm()
        for i, row in enumerate(dots):
            ng = row[j]
            support[i] -= max(0.0, ng)
            if abs(ng) <= tiny:
                continue  # this normal does not constrain t_j
            bound = (levels[i] - support[i]) / ng
            if ng > 0:
                lo = max(lo, bound)
            else:
                hi = min(hi, bound)
        t = min(max(lo + end * (hi - lo), 0.0), 1.0)
        ts[j] = t
        levels = [level - t * row[j] for row, level in zip(dots, levels)]
    return ts


def _solve_selections(sets, target: Vec2,
                      limit: int = 1) -> list[list[Functional]]:
    """Pick one functional per set so the picks sum to ``target``.

    With segment sets parameterized by t in [0, 1], the reachable sums form
    a zonogon: the base plus one generator per segment. The zonogon peel
    (``_peel``) decomposes ``target`` into box parameters in O(k^2) for k
    segments; a decomposition counts only if its residual is within a
    tolerance relative to the functionals' size. Further selections come
    from peeling in other orders and at interval ends. Returns up to
    ``limit`` distinct solutions, in a fixed order.
    """
    base, idxs, gens = _zonogon(sets)
    t_target = target - base
    scale = max([1.0] + [f.magnitude() for s in sets for f in _set_bounds(s)])
    rtol = 2e-9 * scale * max(1, len(sets))
    order = list(range(len(gens)))

    found: list[list[float]] = []
    # midpoints first; an interval end leaves the remainder on the boundary
    # of the next zonogon and may miss, so ends only add alternatives
    for end, steps in [(e, o) for e in (0.5, 0.0, 1.0) for o in (order, order[::-1])]:
        ts = _peel(gens, t_target, steps, end)
        sx = sum(t * g.x for t, g in zip(ts, gens))
        sy = sum(t * g.y for t, g in zip(ts, gens))
        if math.hypot(sx - t_target.x, sy - t_target.y) > rtol:
            continue
        if any(all(abs(u - w) <= 1e-9 for u, w in zip(prev, ts)) for prev in found):
            continue
        found.append(ts)
        if len(found) >= limit:
            break

    sels = [[_set_bounds(s)[0] for s in sets] for _ in found]
    for sel, ts in zip(sels, found):
        for t, idx in zip(ts, idxs):
            sel[idx] = sets[idx].at(t)
    return sels


def select_functionals(norm: PolygonalNorm, points, p: Vec2,
                       eps: float = DEFAULT_EPS) -> tuple[Functional, ...]:
    """Concrete norming functionals at p (not a terminal) summing to zero."""
    for q in points:
        if (q - p).norm() <= eps:
            raise CertificateError("p coincides with a terminal")
    sols = enumerate_selections(norm, points, p, eps, limit=1)
    if not sols:
        raise CertificateError("no norming selection sums to zero at p")
    return sols[0]


def enumerate_selections(norm: PolygonalNorm, points, p: Vec2,
                         eps: float = DEFAULT_EPS,
                         limit: int = 8) -> list[tuple[Functional, ...]]:
    """Up to ``limit`` distinct valid selections at p, deterministic order."""
    sets = [norming_set(norm, q - p, eps) for q in points]
    return [tuple(s) for s in _solve_selections(sets, Vec2(0.0, 0.0), limit)]


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
        sols = enumerate_selections(norm, pts, p, eps, limit=1)
        return Certificate(p, sols[0], ()) if sols else None

    kept = [i for i in range(len(pts)) if i not in omitted]
    sets = [norming_set(norm, pts[i] - p, eps) for i in kept]
    d = len(omitted)
    psi = Vec2(0.0, 0.0)
    sols = _solve_selections(sets, psi)
    if not sols:
        psi = _relaxed_target(norm, sets, d, eps)
        sols = [] if psi is None else _solve_selections(sets, psi)
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
    vertices are the edge functionals) by the zonogon's half-planes and
    taking the centroid gives a concrete target that the peel can then
    decompose.
    """
    base, _, gens = _zonogon(sets)
    if not gens:
        if dual_norm(norm, Functional(base.x, base.y)) <= ball_scale + 10 * eps:
            return base
        return None
    # the support of the zonogon in a unit direction n is n.base plus the
    # positive parts of n.g
    hps = [HalfPlane(n, n.dot(base) + sum(max(0.0, n.dot(g)) for g in gens))
           for n in _zonogon_normals(gens)]
    m, scale = norm.m, float(ball_scale)
    ball_verts = [f.as_vec() * scale for f in norm._duals]
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

def _contact_sets(phis, eps: float, table: np.ndarray,
                  tops: np.ndarray) -> tuple[list[float], list[float], list[list[int]]]:
    """Per functional: its dual norm ``top``, its scale s = max(1, |phi|) and
    its contacts {k : phi(v_k) >= top - 10 eps s}, read from its row of the
    vertex table (``dual_norms``) with the floats of a loop over the vertices."""
    tops = tops.tolist()
    scales = [max(1.0, phi.magnitude()) for phi in phis]
    floors = np.array([top - eps * s * 10 for top, s in zip(tops, scales)])
    rows, cols = np.nonzero(table >= floors[:, None])
    contacts: list[list[int]] = [[] for _ in scales]
    for i, k in zip(rows.tolist(), cols.tolist()):
        contacts[i].append(k)
    return tops, scales, contacts


def build_cones(norm: PolygonalNorm, points, phis, eps: float = DEFAULT_EPS,
                table: tuple[np.ndarray, np.ndarray] | None = None) -> tuple[Cone, ...]:
    """One cone per terminal x and functional phi: the points from which phi
    keeps norming the displacement to x.

    The level line phi = 1 touches the unit ball in a vertex (ray cone) or
    an edge (angle cone); the touching set is negated and translated to x.
    ``table`` is ``dual_norms(norm, phis)``, if the caller has it.
    """
    if table is None:
        table = dual_norms(norm, phis)
    m = norm.m
    cones = []
    for x, top, s, contact in zip(points, *_contact_sets(phis, eps, *table)):
        # an infinite functional would make the tolerance inf; a NaN fails the test
        if not (math.isfinite(s) and abs(top - 1.0) <= 100 * eps * s):
            raise CertificateError(f"dual norm is {top}, expected 1")
        if len(contact) == 1:
            cones.append(Cone(x, RayShape(-norm.vertices[contact[0]])))
            continue
        if len(contact) != 2:
            raise CertificateError("support line touches more than one edge")
        i, j = contact
        if j - i == 1:
            k = i
        elif i == 0 and j == m - 1:
            k = m - 1
        else:
            raise CertificateError("support line touches non-adjacent vertices")
        cones.append(Cone(x, AngleShape(-norm.vertices[k], -norm.vertices[(k + 1) % m])))
    return tuple(cones)


def build_cone(norm: PolygonalNorm, x: Vec2, phi: Functional,
               eps: float = DEFAULT_EPS) -> Cone:
    """Cone of points from which phi keeps norming the displacement to x
    (``build_cones`` for one terminal)."""
    return build_cones(norm, (x,), (phi,), eps)[0]


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
        raise InputError("need at least one cone")
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
        raise CertificateError("cone intersection is empty")
    return region


# --- certificates and the full pipeline -------------------------------------

def check_certificate(norm: PolygonalNorm, points, cert: Certificate,
                      eps: float = DEFAULT_EPS) -> tuple[np.ndarray, np.ndarray]:
    """Raise CertificateError unless the certificate verifies.

    Checks the zero sum, and for every non-relaxed entry that the
    functional norms its displacement and has dual norm one; relaxed
    entries only need dual norm at most one. Returns the functionals'
    ``dual_norms`` (vertex table and dual norms), for the cones.
    """
    pts = list(points)
    if len(cert.functionals) != len(pts):
        raise CertificateError("certificate length mismatch")
    scale = max([1.0] + [f.magnitude() for f in cert.functionals])
    if scale == math.inf:  # tol would be inf, and every test below would pass
        raise CertificateError("certificate holds an infinite functional")
    tol = 20 * eps * scale * max(1, len(pts))
    total = Functional(0.0, 0.0)
    for f in cert.functionals:
        total = total + f
    # each test is written so that a NaN fails it
    if not total.magnitude() <= tol:
        raise CertificateError(f"functionals sum to {total}, not zero")
    relaxed = set(cert.relaxed)
    table = dual_norms(norm, cert.functionals)
    for i, (q, f, dn) in enumerate(zip(pts, cert.functionals, table[1].tolist())):
        if i in relaxed:
            if not dn <= 1.0 + tol:
                raise CertificateError(f"relaxed entry {i} has dual norm {dn}")
            continue
        if not abs(dn - 1.0) <= tol:
            raise CertificateError(f"entry {i} has dual norm {dn}, expected 1")
        g = gauge(norm, q - cert.base)
        if not abs(f(q - cert.base) - g) <= tol * max(1.0, g):
            raise CertificateError(f"entry {i} does not norm its displacement")
    return table


def ft_solve(norm: PolygonalNorm, points: list[Vec2] | tuple[Vec2, ...],
             eps: float = DEFAULT_EPS) -> FTSolution:
    """Full solution set of the Fermat-Torricelli problem.

    A point p of the solution set comes first: the middle point of an odd
    collinear set, else the single minimizing candidate, else the centroid
    of the minimizing candidates (or the first of them off the terminals,
    if the centroid lands on one). One certify step follows on every path:
    ``verify_ft_point`` finds the certificate and ``check_certificate``
    checks it. A relaxed certificate means p is a terminal; only the first
    two sources give one, and there p is the whole solution set. Otherwise
    the solution set is the intersection of the certificate's cones, and
    every vertex of it must attain the optimal value.
    """
    if not points:
        raise InputError("need at least one terminal")
    pts = tuple(points)

    def near_terminal(c: Vec2) -> bool:
        return any((c - q).norm() <= eps for q in pts)

    p = collinear_median(pts, eps)
    if p is not None:
        value = objective(norm, pts, p)
    else:
        cands, value = candidate_minimize(norm, pts, eps)
        p = cands[0]
        if len(cands) > 1:
            p = Vec2(sum(c.x for c in cands) / len(cands),
                     sum(c.y for c in cands) / len(cands))
            if near_terminal(p):
                nonterm = [c for c in cands if not near_terminal(c)]
                if not nonterm:
                    raise CertificateError("argmin average unexpectedly hit a terminal")
                p = nonterm[0]

    cert = verify_ft_point(norm, pts, p, eps)
    if cert is None:
        raise CertificateError("no norming selection sums to zero at p")
    table = check_certificate(norm, pts, cert, eps)
    if cert.relaxed:
        return FTSolution(Region.point(p), value, cert)
    cones = build_cones(norm, pts, cert.functionals, eps, table)
    # gauge(u) >= |u| / max_k |v_k|, so every optimum lies within
    # value * max_k |v_k| of the first terminal. Twice that keeps the square's
    # sides off the solution set; cones that reach them (a wrong certificate)
    # leave a vertex of objective >= 2 * value, which the check below rejects.
    radius = 2.0 * value * norm._breaklines[0]
    region = intersect_cones(cones, radius, eps)
    vtol = 100 * eps * max(1.0, abs(value))
    for v in region.vertices:
        got = objective(norm, pts, v)
        if abs(got - value) > vtol:
            raise CertificateError(
                f"region vertex {v} attains {got}, optimum is {value}")
    return FTSolution(region, value, cert)
