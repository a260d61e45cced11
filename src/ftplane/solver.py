"""Fermat-Torricelli solver for polygonal norms.

The objective x -> sum_i gauge(x - x_i) is piecewise linear; it is linear
on every cell of the arrangement of the lines through each terminal in each
unit-ball vertex direction. The extreme points of the solution set are
therefore arrangement vertices, which the solver enumerates outright
instead of descending iteratively. The crossings are numpy arrays over
pairs of breaklines, in bounded blocks, computed with the operations of a
scalar loop over line pairs; lines through one terminal meet there and are
not paired, and a line through several terminals is formed once. Every
candidate within tolerance of the optimum lies in a sublevel set of the
objective; cuts by sums of unit functionals, one per terminal, enclose that
set in a polygon, and only the breaklines that meet the polygon are paired.
Each crossing formed gets the gauge; the terminals are scored in one call
with the first block of crossings, and keep their own slice of its values.

Optimality at a point p outside the terminal set is certified by one
norming functional per displacement x_i - p whose sum is zero; the full
solution set is then the intersection of the cones these functionals span,
one per terminal, and its vertices must attain the optimum. One path does
this for every p: a collinear set's median, a candidate, or an
optimum a caller knows (a uniqueness witness, at the origin). At a terminal
the certificate is relaxed: the remaining functionals need only sum to
something of dual norm at most one, and the terminal is the solution set.
When the centroid of several minimizing candidates does not certify, the
lowest-valued one is certified alone; several candidates mean several optima,
so there a relaxed entry of dual norm one gets its cone like any other
entry. The dual ball is a norm, the polar: a
functional's dual norm is its gauge there, and its face is its snap there,
the edge of a dual vertex it points along, else the vertex of its sector;
one sector lookup there gives both.

Each terminal's norming functionals form a point or a segment, so the sums
of one pick per terminal form a zonogon. One peel decides a selection: each
segment parameter is fixed once, in index order, at the midpoint of the
interval that keeps the rest of the target reachable by the segments still
free, in O(k^2) for k segments (terminals in a vertex direction from p).
It succeeds exactly when the target lies in the zonogon; with d times the
dual ball added (d terminals at p), the same peel decides the relaxed test.

Candidates are screened, scored and ranked on the gauge's array route alone
(``gauge_batch``, ``_edge_functionals``). The scalar route (``_gauge``), which
may differ in the last bit of an angle, values an optimum found without
candidates (a collinear set's median, a witness's origin) and, on purpose,
the checks: ``check_certificate`` and the vertex re-check compute apart.

The clip, peel, cone and check stages compute on plain floats, in the
operation order of the Vec2 arithmetic, and build Vec2 only for results.
A dual edge, its generator and lengths, and a cone shape are built on first
use, once per vertex or edge and norm, and a shape's side normals, lengths and
cross product once per shape; a side that cones share is clipped once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, takewhile
from operator import mul

import numpy as np

from .errors import CertificateError, InputError
from .geometry import (
    DEFAULT_EPS,
    Region,
    Vec2,
    check_eps,
    clip_polygon,
    finite_spans,
    orient,
)
from .norms import (
    Functional,
    FunctionalSegment,
    PolygonalNorm,
    _edge_functionals,
    _gauge,
    _polar_face,
    dual_norm,
    gauge_batch,
    norming_set,
)


@dataclass(frozen=True)
class RayShape:
    """Cone degenerated to a single ray."""

    direction: Vec2

    @cached_property
    def _back(self) -> tuple[float, float]:
        """-direction / |direction|, the normal of the cut at the apex."""
        dx, dy = self.direction.x, self.direction.y
        if dx == 0.0 and dy == 0.0:
            raise InputError("ray cone needs a nonzero direction")
        s = 1.0 / math.hypot(dx, dy)
        return -dx * s, -dy * s


@dataclass(frozen=True)
class AngleShape:
    """Cone spanned by d1 and d2, counterclockwise sweep strictly below pi."""

    d1: Vec2
    d2: Vec2

    @cached_property
    def _consts(self) -> tuple[float, float, float, float, float, float, float]:
        """The sides' normals (d1.y, -d1.x) and (-d2.y, d2.x), d1 x d2, |d1| and |d2|."""
        d1, d2 = self.d1, self.d2
        return d1.y, -d1.x, -d2.y, d2.x, d1.cross(d2), d1.norm(), d2.norm()


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
    return sum(_gauge(norm, x.x - q.x, x.y - q.y) for q in points)


# Breakline pairs per row block of candidate_minimize, unless one row is longer.
_PAIR_BLOCK = 1 << 15
# Terminal-candidate cells per broadcast call of _objective_batch: a group of
# terminals shares one call.
_CELL_BLOCK = 1 << 13


def _coords(points) -> tuple[np.ndarray, np.ndarray]:
    """The x and y coordinates of ``points`` as float arrays."""
    return (np.array([q.x for q in points], dtype=float),
            np.array([q.y for q in points], dtype=float))


def _objective_batch(norm: PolygonalNorm, qx: np.ndarray, qy: np.ndarray,
                     xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Objective at each (xs, ys); the terminals' gauges are added in order."""
    total = np.zeros(len(xs))
    rows = max(1, _CELL_BLOCK // max(1, len(xs)))  # terminals per broadcast call
    for lo in range(0, len(qx), rows):
        gx, gy = qx[lo:lo + rows, None], qy[lo:lo + rows, None]
        for row in gauge_batch(norm, xs - gx, ys - gy):
            total += row
    return total


# Where cuts are sought, per unit of terminal span from p0: p0 itself, then
# 8 directions at 12 dyadic radii each.
_CUT_STEPS = np.append(0.0, np.exp(0.25j * np.pi * np.arange(8))[:, None]
                       * np.ldexp(1.0, np.arange(-11, 1)))


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


def _live_lines(norm: PolygonalNorm, qx: np.ndarray, qy: np.ndarray,
                eps: float) -> np.ndarray:
    """Mask over the breaklines, row-major in (terminal, direction), that meet
    a polygon around {f <= T}, f the objective and T its value at a Weiszfeld
    point p0 plus tolerance. For any unit functionals phi_j,
    f(x) >= sum_j phi_j(x - x_j), so the cut g . x <= T + sum_j phi_j(x_j)
    + margin, g = sum_j phi_j, holds on {f <= T} whatever sectors give the
    phi_j. They are taken at p0 and, on 8 rays from it, at the first dyadic
    radius where f > T and at 4 and 16 times that radius (at most the span)."""
    r, (phi_max, dx, dy, _) = norm._radius, norm._breaklines
    n, h = len(qx), len(dx)
    every = np.ones(n * h, dtype=bool)  # below the guard, or without a cut
    xs, ys = qx.tolist(), qy.tolist()
    if (n * (n * (n - 1) // 2 * h * (h - 1)) <= _CELL_BLOCK
            or not 0.0 < (span := max(max(xs) - min(xs), max(ys) - min(ys))) < math.inf):
        return every
    px, py = sum(xs) / n, sum(ys) / n
    for _ in range(4):  # Weiszfeld steps; they stop on a terminal
        ws = [math.hypot(x - px, y - py) for x, y in zip(xs, ys)]
        if not 0.0 < min(ws) <= max(ws) < math.inf:
            break
        ws = [1.0 / w for w in ws]
        px, py = sum(map(mul, ws, xs)) / sum(ws), sum(map(mul, ws, ys)) / sum(ws)
    with np.errstate(over="ignore", invalid="ignore"):
        y = complex(px, py) + span * _CUT_STEPS  # p0, then the rays' radii
        ex, ey = y.real[:, None] - qx, y.imag[:, None] - qy
        fa, fb = _edge_functionals(norm, ex, ey)
        vals = np.maximum(fa * ex + fb * ey, 0.0).sum(axis=1)
        target = vals[0] + eps * max(1.0, vals[0])
        # rounding of f (a few ulps per term, times r * phi_max where
        # np.arctan2 puts a direction one sector off) and of the cuts' sums
        margin = 1e-9 * (r * phi_max * target
                         + n * phi_max * (span + max(map(abs, xs + ys))))
        out = (vals[1:] > target + margin).reshape(8, 12)  # all False if T is not finite
        if not (out.any(axis=1).all() and np.isfinite(vals).all()):
            return every
        first = out.argmax(axis=1)  # the smallest such radius, then 4 and 16 times it
        pick = np.append(0, 1 + 12 * np.arange(8) + np.minimum(first + [[0], [2], [4]], 11))
        fa, fb = fa[pick], fb[pick]
        bound = target + margin + (fa * qx + fb * qy).sum(axis=1)
    return _clip_lines(fa.sum(axis=1), fb.sum(axis=1), bound, qx, qy, dx, dy)


def _crossing_blocks(qx: np.ndarray, qy: np.ndarray, dx: np.ndarray,
                     dy: np.ndarray, dn: np.ndarray, live: np.ndarray):
    """The crossings of live lines x_i + d_k t and x_j + d_l s (i < j) in the
    order (i, k, j, l), in blocks of rows paired with all later lines, at most
    _PAIR_BLOCK pairs but for a longer row alone:
    t = ((x_j - x_i) x d_l) / (d_k x d_l), unless |d_k x d_l| <= 1e-12 |d_k| |d_l|.
    Live lines of one direction k and an equal finite offset x_i x d_k are one
    line, taken at its first terminal."""
    li, lk = np.nonzero(live.reshape(len(qx), len(dx)))
    off = qx[li] * dy[lk] - qy[li] * dx[lk]
    s = np.lexsort((off, lk))  # stable: each run of equal keys in (i, k) order
    before, after = s[:-1], s[1:]
    keep = np.ones(len(li), dtype=bool)
    keep[after] = (lk[after] != lk[before]) | (off[after] != off[before]) | ~np.isfinite(off[after])
    li, lk = li[keep], lk[keep]
    lx, ly, ldx, ldy, ldn = qx[li], qy[li], dx[lk], dy[lk], dn[lk]
    rows = max(1, _PAIR_BLOCK // max(1, len(li)))
    for a0 in range(0, len(li), rows):
        a, b = slice(a0, a0 + rows), slice(a0 + 1, None)
        den = ldx[a, None] * ldy[b] - ldy[a, None] * ldx[b]
        ra, rb = np.nonzero((li[a, None] < li[b])
                            & (np.abs(den) > 1e-12 * ldn[a, None] * ldn[b]))
        den, ra, rb = den[ra, rb], ra + a0, rb + a0 + 1
        t = ((lx[rb] - lx[ra]) * ldy[rb] - (ly[rb] - ly[ra]) * ldx[rb]) / den
        if len(t):
            yield lx[ra] + ldx[ra] * t, ly[ra] + ldy[ra] * t


def candidate_minimize(norm: PolygonalNorm, points: list[Vec2] | tuple[Vec2, ...],
                       eps: float = DEFAULT_EPS) -> tuple[list[Vec2], float]:
    """Minimize over terminals plus all pairwise breakline intersections.

    Breaklines are the lines through each terminal in each unit-ball vertex
    direction; every extreme point of the solution set is such an
    intersection, so the minimum over candidates is the global minimum.
    Returns all minimizing candidates (deduplicated) and the value; raises
    InputError when finite terminals give a least value of inf or NaN.
    ft_solve certifies their centroid, else the lowest-valued one.

    The terminals and the first block of crossings are scored in one
    _objective_batch call, as each call has a fixed cost, and later blocks in
    one call each; the terminals keep their own slice of the values, and the
    caller's objects (ints stay). The crossings come from _crossing_blocks,
    each the same float as in a scalar loop over Vec2 line pairs, and in its
    order (i, k, j, l); two lines through one terminal cross at it and are
    not paired. Every crossing formed gets the gauge, and those within
    tolerance of the least value so far are kept for the final filter.

    Only crossings of two live lines are formed: a candidate within
    tolerance of the optimum lies in the sublevel set {f <= T} of the
    objective f, so on two lines that meet a polygon of cuts around it
    (_live_lines; a parallel cut keeps or drops a line whole). Below the
    guard, where one broadcast call gauges every crossing, all are live.
    """
    check_eps(eps)
    if not points:
        raise InputError("need at least one terminal")
    pts = list(points)
    if not finite_spans(pts):
        raise InputError("coordinates and their spans must be finite")
    qx, qy = _coords(pts)
    _, dx, dy, dn = norm._breaklines
    live = _live_lines(norm, qx, qy, eps)

    kept, n = [], len(pts)
    blocks = _crossing_blocks(qx, qy, dx, dy, dn, live)
    with np.errstate(over="ignore", invalid="ignore"):
        # the first block shares the terminals' call, which has a fixed cost
        xs, ys = next(blocks, (qx[:0], qy[:0]))
        vals = _objective_batch(norm, qx, qy, np.concatenate((qx, xs)), np.concatenate((qy, ys)))
        at_terminals, vals = vals[:n], vals[n:]
        best = at_terminals.min()
        later = ((xs, ys, _objective_batch(norm, qx, qy, xs, ys)) for xs, ys in blocks)
        for xs, ys, vals in chain([(xs, ys, vals)] if len(xs) else [], later):
            best = np.minimum(best, vals.min())  # a NaN sticks, as in np.min
            near = np.flatnonzero(vals <= best + eps * max(1.0, best))
            kept.append((xs[near], ys[near], vals[near]))
    if not np.isfinite(best):
        raise InputError(f"the objective overflows: its least candidate value is {best}")
    best = float(best)
    # a terminal within eps of the least value, relative to it, outranks the
    # candidates within eps of it, which are it up to rounding
    low, top = best + eps * abs(best), best + eps * max(1.0, abs(best))
    firm = [q for q, v in zip(pts, at_terminals.tolist()) if v <= low]
    rest = [q for q, v in zip(pts, at_terminals.tolist()) if low < v <= top]
    for xs, ys, vals in kept:
        rest += map(Vec2, xs[vals <= top].tolist(), ys[vals <= top].tolist())
    return _dedup(rest, eps, _dedup(firm, eps)), best


def _dedup(cands: list[Vec2], eps: float, firm: list[Vec2] | tuple[()] = ()) -> list[Vec2]:
    """``cands`` stably sorted by Vec2.key, less each one within eps of a
    ``firm`` point or of one kept, merged in key order with ``firm`` (points
    more than eps apart, such as _dedup's own output)."""
    out: list[Vec2] = []
    for c in sorted(cands, key=Vec2.key):
        # x never decreases along out, and |c - q| >= c.x - q.x: only kept
        # points at most eps left of c can lie within eps of it
        if all((c - q).norm() > eps for q in
               chain(firm, takewhile(lambda q: not c.x - q.x > eps, reversed(out)))):
            out.append(c)
    return sorted([*firm, *out], key=Vec2.key) if firm else out


def collinear_median(points: list[Vec2] | tuple[Vec2, ...],
                     eps: float = DEFAULT_EPS) -> Vec2 | None:
    """A median of a collinear set sorted along its line, else None: the middle
    point of an odd set, the midpoint of an even set's two middle points (or
    that point if they are equal); the whole interval between them is optimal."""
    check_eps(eps)
    pts = list(points)
    if pts and not finite_spans(pts):
        raise InputError("coordinates and their spans must be finite")
    if not pts:
        return None
    a = min(pts, key=Vec2.key)
    b = max(pts, key=lambda q: math.hypot(q.x - a.x, q.y - a.y))  # farthest: a true line extreme
    if (b - a).norm() <= eps:
        ordered = sorted(pts, key=Vec2.key)
    elif any(orient(a, b, q, eps) != 0 for q in pts):
        return None
    else:
        d = b - a
        d = d * math.ldexp(1.0, -math.frexp(max(abs(d.x), abs(d.y)))[1])  # keys cannot overflow
        ordered = sorted(pts, key=lambda q: (q - a).dot(d))
    lo, hi = ordered[(len(pts) - 1) // 2], ordered[len(pts) // 2]
    return lo if lo == hi else lo + (hi - lo) * 0.5  # finite_spans: hi - lo is finite


# --- functional selection -------------------------------------------------

def _zonogon(sets) -> tuple[tuple[float, float], list[int], list[tuple[float, float]]]:
    """Base and generators, as (x, y) pairs, of the sums of one pick per set.

    The base is the sum of the low ends; each segment set contributes its
    generator ``hi - lo``. Also returns the index of each generator's set.
    """
    bx = by = 0.0
    idxs: list[int] = []
    gens: list[tuple[float, float]] = []
    for idx, s in enumerate(sets):
        lo = s.lo if isinstance(s, FunctionalSegment) else s
        bx, by = bx + lo.x, by + lo.y
        if lo is not s and s._consts[1] > 1e-12:
            idxs.append(idx)
            gens.append(s._consts[0])
    return (bx, by), idxs, gens


def _zonogon_normals(gens: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Unit normals that cut out the zonogon of any subset of ``gens``.

    These are +-perp(g) for every generator g: they hold every facet normal
    of every such zonogon, and the perps of two independent directions also
    pin the ends of a segment and the point of the empty sum. Only when all
    generators are parallel are the end caps +-g/|g| added. Copies stay: the
    peel bounds each value once."""
    lens = [math.hypot(gx, gy) for gx, gy in gens]
    perps = [(-gy * s, gx * s) for (gx, gy), n in zip(gens, lens) for s in (1.0 / n,)]
    out = [(x, y) for nx, ny in perps for x, y in ((nx, ny), (-nx, -ny))]
    if gens:
        (g0x, g0y), g0n = gens[0], lens[0]
        if all(abs(gx * g0y - gy * g0x) <= 1e-12 * n * g0n for (gx, gy), n in zip(gens, lens)):
            ux, uy = g0x * (1.0 / g0n), g0y * (1.0 / g0n)
            out += [(ux, uy), (-ux, -uy)]
    return out


def _peel(gens: list[tuple[float, float]], target: tuple[float, float],
          ball: tuple[PolygonalNorm, int] | None = None) -> list[float]:
    """Box parameters t in [0, 1] with sum t_j g_j = target, if reachable.

    The generators are fixed one at a time in index order. Step j takes t_j
    at the midpoint of the interval that keeps ``target - sum t g`` inside
    the zonogon of the generators not yet fixed; in exact arithmetic that
    interval is exactly the t_j that keep the rest reachable, so the peel
    succeeds exactly when the target lies in the zonogon. The products n.g
    are tabulated once and each step updates every normal's support and
    level in O(1), so the peel costs O(k^2). Normals equal in value give equal
    bounds, which max and min (first of equals) ignore, so each value counts once.

    With ``ball = (norm, d)`` the rest may also use d B*, B* the dual ball:
    its facet normals join and d gauge(n) adds to each support, exactly, as
    every facet normal of the sum is a normal of one of its terms.
    """
    if not gens:
        return []
    normals = _zonogon_normals(gens)
    if ball is not None:
        norm, d = ball
        normals += [(v.x / v.norm(), v.y / v.norm()) for v in norm.vertices]
    normals = dict.fromkeys(normals)
    dots = [[nx * gx + ny * gy for gx, gy in gens] for nx, ny in normals]
    # max(0.0, ng), max(lo, b), min(hi, b) as comparisons: the same floats, NaN too
    support = [sum([ng if ng > 0.0 else 0.0 for ng in row]) for row in dots]  # of the free gens
    if ball is not None:  # plus the ball's
        support = [h + d * _gauge(norm, nx, ny) for h, (nx, ny) in zip(support, normals)]
    levels = [nx * target[0] + ny * target[1] for nx, ny in normals]  # n . (target - sum t g)
    ts: list[float] = []
    for g, col in zip(gens, zip(*dots)):
        lo, hi = 0.0, 1.0
        tiny = 1e-12 * math.hypot(*g)
        for i, ng in enumerate(col):
            if ng > 0.0:
                support[i] -= ng
            if abs(ng) <= tiny:
                continue  # this normal does not constrain t_j
            bound = (levels[i] - support[i]) / ng
            if ng > 0.0:
                if bound > lo:
                    lo = bound
            elif bound < hi:
                hi = bound
        t = min(max(lo + 0.5 * (hi - lo), 0.0), 1.0)
        ts.append(t)
        levels = [level - t * ng for ng, level in zip(col, levels)]
    return ts


def _select(sets, target: Vec2, ball=None) -> list[Functional] | None:
    """One functional per set, the picks summing to ``target``, or None.

    With segment sets parameterized by t in [0, 1], the reachable sums form
    a zonogon: the base plus one generator per segment. The peel (``_peel``)
    finds box parameters in O(k^2) for k segments; they count only if the
    residual is within a tolerance relative to the functionals' size. With
    ``ball`` the peel aims at target + d B*, and the caller judges the sum.
    """
    (bx, by), idxs, gens = _zonogon(sets)
    tx, ty = target.x - bx, target.y - by
    scale = max([1.0] + [s._consts[2] if isinstance(s, FunctionalSegment) else s.norm()
                         for s in sets])
    rtol = 2e-9 * scale * max(1, len(sets))
    ts = _peel(gens, (tx, ty), ball)
    sx = sum(t * gx for t, (gx, _) in zip(ts, gens))
    sy = sum(t * gy for t, (_, gy) in zip(ts, gens))
    if ball is None and math.hypot(sx - tx, sy - ty) > rtol:
        return None
    sel = [s.lo if isinstance(s, FunctionalSegment) else s for s in sets]
    for t, idx in zip(ts, idxs):
        sel[idx] = sets[idx].at(t)
    return sel


def verify_ft_point(norm: PolygonalNorm, points, p: Vec2,
                    eps: float = DEFAULT_EPS) -> Certificate | None:
    """Certificate that p minimizes the objective, or None.

    One norming functional per terminal away from p must sum to zero. When
    none do and d terminals coincide with p, the condition relaxes: the
    others need only sum to some psi of dual norm at most d, and each of the
    d relaxed entries is -psi / d, so the certificate still sums to zero.
    One midpoint peel of the norming sets' zonogon (plus d B*) decides each.
    """
    check_eps(eps)
    pts = list(points)
    omitted = tuple(i for i, q in enumerate(pts) if math.hypot(q.x - p.x, q.y - p.y) <= eps)
    sets = [norming_set(norm, q - p, eps) for i, q in enumerate(pts) if i not in omitted]
    d = len(omitted)
    psi = Vec2(0.0, 0.0)
    funcs = _select(sets, psi)
    if funcs is None and omitted:
        funcs = _select(sets, psi, (norm, d))
        psi = Vec2(*_zonogon(funcs)[0])  # the picks' sum, in index order from 0.0
        if not dual_norm(norm, psi) <= d + 10 * eps:  # a NaN fails it
            return None
    if funcs is None:
        return None
    for i in omitted:  # ascending, so each lands at its own index
        funcs.insert(i, Vec2(-psi.x / d, -psi.y / d))
    return Certificate(p, tuple(funcs), omitted)


# --- cones ------------------------------------------------------------------

def build_cones(norm: PolygonalNorm, points, phis, eps: float = DEFAULT_EPS) -> tuple[Cone, ...]:
    """One cone per terminal x and functional phi: the points from which phi
    keeps norming the displacement to x.

    The level line phi = 1 touches the unit ball in a vertex (ray cone) or
    an edge (angle cone); the touching set is negated and translated to x.
    That face is phi's snap on the dual ball: edge c if phi points along its
    dual vertex d_c, c = k or k + 1 for phi's sector k there; else vertex k + 1.
    """
    check_eps(eps)
    if len(points) != len(phis):
        raise InputError(f"{len(points)} terminals but {len(phis)} functionals")
    verts, memo, m = norm.vertices, norm._memo, norm.m
    cones = []
    for x, phi in zip(points, phis):
        top, k, c = _polar_face(norm, phi, eps)
        s = max(1.0, phi.norm())
        # an infinite functional would make the tolerance inf; a NaN fails the test
        if not (math.isfinite(s) and abs(top - 1.0) <= 100 * eps * s):
            raise CertificateError(f"dual norm is {top}, expected 1")
        key = (RayShape, (k + 1) % m) if c is None else (AngleShape, c)
        shape = memo.get(key)
        if shape is None:
            kind, k = key
            ends = [-verts[k]] if kind is RayShape else [-verts[k], -verts[(k + 1) % m]]
            shape = memo.setdefault(key, kind(*ends))
        cones.append(Cone(x, shape))
    return tuple(cones)


def _cone_halfplanes(cone: Cone, eps: float) -> list[tuple[float, float, float]]:
    """An angle's sides, or a ray's carrier line and apex cut, as (nx, ny, offset)."""
    vx, vy, shape = cone.vertex.x, cone.vertex.y, cone.shape
    if isinstance(shape, AngleShape):
        n1x, n1y, n2x, n2y, cross, len1, len2 = shape._consts
        if cross <= eps * len1 * len2:
            raise InputError("angle cone must sweep counterclockwise below pi")
        return [(n1x, n1y, n1x * vx + n1y * vy), (n2x, n2y, n2x * vx + n2y * vy)]
    bx, by = shape._back
    dx, dy = shape.direction.x, shape.direction.y
    offset = dy * vx + -dx * vy  # the offset of -n is -(n . v), not (-n) . v
    return [(dy, -dx, offset), (-dy, dx, -offset), (bx, by, bx * vx + by * vy)]


def intersect_cones(cones: list[Cone] | tuple[Cone, ...], radius: float,
                    eps: float = DEFAULT_EPS) -> Region:
    """Intersection of cones; must come out non-empty.

    Each angle contributes its two sides as half-planes and each ray its
    carrier line plus the cut at the apex, so one clip of a square covers
    every mixed case; a side that several cones share is clipped once. The
    square has half-width ``radius`` and is centred on the first cone's apex;
    it must contain the whole intersection. The radius and the apexes must be
    finite.
    """
    check_eps(eps)
    if not cones:
        raise InputError("need at least one cone")
    if not 0.0 <= radius < math.inf:
        raise InputError(f"radius must be >= 0 and finite, got {radius}")
    if not all(cone.vertex.is_finite() for cone in cones):
        raise InputError("cone apexes must be finite")
    hps = list(dict.fromkeys(h for cone in cones for h in _cone_halfplanes(cone, eps)))
    c, r = cones[0].vertex, radius
    square = [(c.x - r, c.y - r), (c.x + r, c.y - r), (c.x + r, c.y + r), (c.x - r, c.y + r)]
    sides = [(0.0, -1.0, r - c.y), (1.0, 0.0, c.x + r), (0.0, 1.0, c.y + r), (-1.0, 0.0, r - c.x)]
    region = clip_polygon(square, sides, hps, eps)
    if region.kind == "empty":
        raise CertificateError("cone intersection is empty")
    return region


# --- certificates and the full pipeline -------------------------------------

def _check_tol(functionals, eps: float) -> tuple[float, float]:
    """The largest functional length (at least 1), and check_certificate's
    tolerance: 20 eps times it and the number of functionals."""
    scale = max([1.0] + [f.norm() for f in functionals])
    return scale, 20 * eps * scale * max(1, len(functionals))


def check_certificate(norm: PolygonalNorm, points, cert: Certificate,
                      eps: float = DEFAULT_EPS) -> None:
    """Raise CertificateError unless the certificate verifies.

    Checks the zero sum, and for every non-relaxed entry that the
    functional norms its displacement and has dual norm one; relaxed
    entries only need dual norm at most one.
    """
    check_eps(eps)
    pts = list(points)
    if len(cert.functionals) != len(pts):
        raise CertificateError("certificate length mismatch")
    scale, tol = _check_tol(cert.functionals, eps)
    if scale == math.inf:  # tol would be inf, and every test below would pass
        raise CertificateError("certificate holds an infinite functional")
    tx = ty = 0.0
    for f in cert.functionals:
        tx, ty = tx + f.x, ty + f.y
    # each test is written so that a NaN fails it
    if not math.hypot(tx, ty) <= tol:
        raise CertificateError(f"functionals sum to {Vec2(tx, ty)}, not zero")
    relaxed = set(cert.relaxed)
    for i, (q, f) in enumerate(zip(pts, cert.functionals)):
        dn = dual_norm(norm, f)
        if i in relaxed:
            if not dn <= 1.0 + tol:
                raise CertificateError(f"relaxed entry {i} has dual norm {dn}")
            continue
        if not abs(dn - 1.0) <= tol:
            raise CertificateError(f"entry {i} has dual norm {dn}, expected 1")
        dx, dy = q.x - cert.base.x, q.y - cert.base.y
        g = _gauge(norm, dx, dy)
        if not abs(f.x * dx + f.y * dy - g) <= tol * max(1.0, g):
            raise CertificateError(f"entry {i} does not norm its displacement")


def ft_solve(norm: PolygonalNorm, points: list[Vec2] | tuple[Vec2, ...],
             eps: float = DEFAULT_EPS) -> FTSolution:
    """Full solution set of the Fermat-Torricelli problem: an optimum p is
    a collinear set's median, else the single minimizing candidate, else the
    candidates' centroid, and ``_certify`` certifies it.
    """
    check_eps(eps)
    if not points:
        raise InputError("need at least one terminal")
    pts = tuple(points)

    p, cands = collinear_median(pts, eps), []  # it rejects non-finite coordinates
    if p is not None:
        value = objective(norm, pts, p)
        if not math.isfinite(value):  # a relaxed certificate would return it
            raise InputError(f"the objective overflows: its value at the median is {value}")
    else:
        cands, value = candidate_minimize(norm, pts, eps)
        p = cands[0]
        if len(cands) > 1:
            p = Vec2(sum(c.x for c in cands) / len(cands),
                     sum(c.y for c in cands) / len(cands))
    return _certify(norm, pts, p, value, eps, cands)


def _certify(norm: PolygonalNorm, pts: tuple[Vec2, ...], p: Vec2, value: float,
             eps: float, cands: list[Vec2] | tuple[Vec2, ...] = ()) -> FTSolution:
    """The certified solution set through p, an optimum of value ``value``.

    A relaxed certificate means p is a terminal and the whole solution set;
    else the solution set is where the cones meet, and each vertex must
    attain ``value``. When p, the centroid of several minimizing candidates
    ``cands``, gives no certificate, a relaxed one or a CertificateError, the
    lowest-valued candidate (the first on ties), on the floats that
    candidate_minimize kept it by, is certified alone. Several
    candidates mean more than one optimum, so there a relaxed entry of dual
    norm one, within check_certificate's tol, gets its cone like any other
    entry, and only one below one makes the region that point.
    """
    cert = verify_ft_point(norm, pts, p, eps)
    if len(cands) > 1:
        if cert is not None and not cert.relaxed:
            try:
                return _solution(norm, pts, cert, value, eps, point=False)
            except CertificateError:
                pass
        # candidate_minimize's floats: each cell's gauge depends only on its
        # displacement, and the terminals are added in order
        vals = _objective_batch(norm, *_coords(pts), *_coords(cands))
        cert = verify_ft_point(norm, pts, cands[int(vals.argmin())], eps)
    if cert is None:
        raise CertificateError("no norming selection sums to zero at p")
    point = bool(cert.relaxed)
    if point and len(cands) > 1:
        phi = cert.functionals[cert.relaxed[0]]  # every relaxed entry is this one
        point = not abs(dual_norm(norm, phi) - 1.0) <= _check_tol(cert.functionals, eps)[1]
    return _solution(norm, pts, cert, value, eps, point)


def _solution(norm: PolygonalNorm, pts: tuple[Vec2, ...], cert: Certificate, value: float,
              eps: float, point: bool) -> FTSolution:
    """Check ``cert``; its solution set is its base if ``point``, else where
    its cones meet, each vertex attaining ``value``."""
    check_certificate(norm, pts, cert, eps)
    if point:
        return FTSolution(Region.point(cert.base), value, cert)
    cones = build_cones(norm, pts, cert.functionals, eps)
    # gauge(u) >= |u| / max_k |v_k|, so every optimum lies within
    # value * max_k |v_k| of the first terminal. Twice that keeps the square's
    # sides off the solution set; cones that reach them (a wrong certificate)
    # leave a vertex of objective >= 2 * value, which the check below rejects.
    radius = 2.0 * value * norm._radius
    if not math.isfinite(radius):
        raise InputError(f"the cone radius 2 * {value} * {norm._radius} overflows")
    region = intersect_cones(cones, radius, eps)
    vtol = 100 * eps * max(1.0, abs(value))
    for v in region.vertices:
        got = objective(norm, pts, v)
        if not abs(got - value) <= vtol:  # a NaN fails it
            raise CertificateError(
                f"region vertex {v} attains {got}, optimum is {value}")
    return FTSolution(region, value, cert)
