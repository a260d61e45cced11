"""Non-uniqueness conditions and the uniqueness verdict for a norm.

Three unit-circle elements with support functionals summing to zero form a
consistent triple; support lines at vertices must touch the circle at that
vertex only. A triple made of three edge-interior elements (condition 1),
two edge-interior elements and a vertex (condition 2), or one edge-interior
element and an origin-symmetric vertex pair (condition 3) yields three
points whose solution set is a polygon or segment. A norm admits non-unique
three-point instances exactly when one of the conditions fires, and the
firing triple itself is the witness.

A verdict builds the norm's dual set-up once (the dual polygon, whose
vertices are the edge functionals, their lengths, the zero tolerance and
the window table) and
shares it between the conditions. Conditions 1 and 2 are decided together
in one pass over the edge pairs i < j that locates -(d_i + d_j) on the dual
polygon once per pair; condition 3 tests each edge functional against each
dual edge. Both are numpy array passes over blocks of bounded size that
repeat the scalar predicates' floating-point operations, so they return the
same triples as pair-by-pair loops in O(m) memory. Where a pass screens
cheaply first, the screen's survivors meet the scalar float tests as
gathered arrays; scalar code only judges the cells left after those and
builds the firing triple.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CertificateError
from .geometry import DEFAULT_EPS, Region, Vec2, check_eps, segment_interior_contains
from .norms import (
    EdgeElement,
    Functional,
    PolygonalNorm,
    UnitCircleElement,
    VertexElement,
    dual_vertices,
    element_point,
)
from .solver import ft_solve


@dataclass(frozen=True)
class ConsistentTriple:
    elements: tuple[UnitCircleElement, UnitCircleElement, UnitCircleElement]
    functionals: tuple[Functional, Functional, Functional]
    condition: int


@dataclass(frozen=True)
class Verdict:
    """Outcome of the three-point uniqueness test for a norm."""

    unique: bool
    triple: ConsistentTriple | None = None
    witness: tuple[Vec2, Vec2, Vec2] | None = None
    observed_kind: str | None = None
    region: Region | None = None  # the witness's solution set, as validated


# Edge pairs (conditions 1 and 2) or (j, k) cells (condition 3) per block of
# the array passes; fixes their working memory.
_BLOCK = 2048


@dataclass(frozen=True)
class _DualSetup:
    """What the three conditions read of one norm's dual, built once per verdict."""

    eps: float
    dual_polygon: PolygonalNorm  # vertex k is the edge functional d_k
    px: np.ndarray  # dual vertex coordinates
    py: np.ndarray
    ex: np.ndarray  # dual edge k, d_k - d_{k-1}
    ey: np.ndarray
    mags: list[float]  # |d_k|, with math.hypot
    tol: float  # condition 1's zero test
    # column s: the window of sector s, dual indices k = s - 1 .. s + 2 mod m
    windows: np.ndarray
    # column s, row by row: x of d_{s-2} .. d_{s+2}, y of d_{s-2} .. d_{s+2},
    # then x and y of the dual edges k = s - 1 .. s + 2
    window_table: np.ndarray

    @classmethod
    def build(cls, norm: PolygonalNorm, eps: float) -> "_DualSetup":
        check_eps(eps)
        duals = dual_vertices(norm)
        m = norm.m
        px, py = norm._dual_array[:, 0], norm._dual_array[:, 1]
        mags = [d.norm() for d in duals]
        w = (np.arange(-2, 3)[:, None] + np.arange(m)) % m
        ex, ey = px - px[w[1]], py - py[w[1]]
        return cls(
            eps=eps, dual_polygon=PolygonalNorm(duals),
            px=px, py=py, ex=ex, ey=ey, mags=mags,
            # functional magnitudes grow as the polygon thins, so scale the zero test
            tol=eps * max(1.0, max(mags)),
            windows=w[1:], window_table=np.concatenate([px[w], py[w], ex[w[1:]], ey[w[1:]]]),
        )


def _hits(mask: np.ndarray, k: np.ndarray) -> list[tuple[int, int]]:
    """A block's hits, window rows by pair columns, as (pair, dual index k) in
    pair order, then ascending k; the window ascends in k except where it
    wraps past m - 1."""
    return sorted(zip(np.nonzero(mask)[1].tolist(), k[mask].tolist()))


def _pair_pass(setup: _DualSetup,
               cond1: bool = True) -> tuple[ConsistentTriple | None, ConsistentTriple | None]:
    """First condition-1 and first condition-2 triple, in edge-pair order i < j, then ascending k.

    One pass decides both conditions. The pairs are numbered row by row and
    taken in blocks of ``_BLOCK``; psi = -(d_i + d_j) is located once per
    pair with ``PolygonalNorm.sector_batch``. Only the dual vertices and
    edges of its sector s and of s - 1, s + 1 and s + 2 can lie within eps
    of psi, and the window stays wide enough when the array route puts psi
    one sector off. The pass ends at the block holding the first condition-1
    triple, so the condition-2 triple it returns with one comes from an
    earlier block or is None; once condition 2 has fired, only condition 1
    is tested. ``cond1=False`` scans past condition-1 hits until condition 2
    fires.

    Condition 1 repeats the scalar zero test. Condition 2 compares orient's
    cross product with eps times 4 max_k |d_k|, a bound on orient's scale
    (every coordinate of psi is at most 2 max_k |d_k|, so every difference
    orient takes is at most 3 max_k |d_k| after rounding); its survivors are
    a superset of the pairs whose orient test passes. They are gathered and
    meet orient's zero test and the interior test 0 < (psi - d_{k-1}) . u <
    u . u of ``segment_interior_contains`` as arrays, with the same float
    operations, so only pairs that pass both reach the scalar predicate,
    which still judges the endpoints (its ``math.hypot`` is not numpy's).
    It takes them in order, and the triples are the ones a pair-by-pair
    loop finds.
    """
    duals, eps, tol = setup.dual_polygon.vertices, setup.eps, setup.tol
    m, px, py = len(duals), setup.px, setup.py
    cut = eps * 4.0 * max(setup.mags)
    rows = np.arange(m)
    row_start = rows * m - rows * (rows + 1) // 2
    n_pairs = m * (m - 1) // 2
    hit2 = None
    for start in range(0, n_pairs, _BLOCK):
        stop = min(start + _BLOCK, n_pairs)
        pair = np.arange(start, stop)
        r0, r1 = row_start.searchsorted((start, stop - 1), side="right") - 1
        i = row_start[r0 + 1:r1 + 1].searchsorted(pair, side="right") + r0
        j = pair - row_start[i] + i + 1
        qx, qy = -(px[i] + px[j]), -(py[i] + py[j])
        s = setup.dual_polygon.sector_batch(qx, qy)
        table = setup.window_table.take(s, axis=1)
        # d_w - psi is (d_i + d_j) + d_w bit for bit
        dx, dy = table[0:5] - qx, table[5:10] - qy
        if cond1:
            near = np.abs(dx[1:]) <= tol
            if near.any():
                k = setup.windows.take(s, axis=1)
                near &= (np.abs(dy[1:]) <= tol) & (k > j)
                hits = _hits(near, k)
                if hits:
                    col, k_ = hits[0]
                    i_, j_ = int(i[col]), int(j[col])
                    return ConsistentTriple(
                        (EdgeElement(i_, 0.5), EdgeElement(j_, 0.5), EdgeElement(k_, 0.5)),
                        (duals[i_], duals[j_], duals[k_]), condition=1), hit2
        if hit2 is not None:
            continue
        # |orient(d_{k-1}, d_k, psi)|'s cross product, bit for bit
        cross = np.abs(table[10:14] * dy[:-1] - table[14:18] * dx[:-1])
        close = cross <= cut
        if not close.any():
            continue
        # the survivors meet orient's zero test and the interior test of
        # segment_interior_contains as arrays, with its float operations
        w, col = np.nonzero(close)
        ux, uy = table[10 + w, col], table[14 + w, col]
        ax, ay = dx[w, col], dy[w, col]  # d_{k-1} - psi
        bx, by = dx[w + 1, col], dy[w + 1, col]  # d_k - psi
        scale = np.maximum.reduce([np.abs(v) for v in (ux, uy, ax, ay, bx, by)])
        t = -(ax * ux + ay * uy)  # (psi - d_{k-1}) . u, bit for bit
        close[w, col] = (cross[w, col] <= eps * scale) & (0.0 < t) & (t < ux * ux + uy * uy)
        for col, k_ in _hits(close, setup.windows.take(s, axis=1)):
            i_, j_ = int(i[col]), int(j[col])
            psi = -(duals[i_] + duals[j_])
            if segment_interior_contains(duals[k_ - 1], duals[k_], psi, eps):
                hit2 = ConsistentTriple((EdgeElement(i_, 0.5), EdgeElement(j_, 0.5),
                                         VertexElement(k_)),
                                        (duals[i_], duals[j_], psi),
                                        condition=2)
                break
        if hit2 is not None and not cond1:
            break
    return None, hit2


def _condition3(setup: _DualSetup) -> ConsistentTriple | None:
    """``check_condition3`` on a built set-up.

    The parallel test runs as arrays over blocks of rows j. Its survivors
    are gathered before any further arithmetic and meet the |t| margins as
    arrays, with the scalar float operations and ``math.hypot`` lengths, so
    the extra work grows with the survivors only; the first cell to pass,
    in (j, k) order, builds its triple with scalar ``Vec2`` arithmetic.
    """
    duals, eps = setup.dual_polygon.vertices, setup.eps
    m = len(duals)
    half = m // 2
    ua, ub = setup.ex, setup.ey
    u_len = np.array([math.hypot(a, b) for a, b in zip(ua.tolist(), ub.tolist())])
    # per dual edge: |u|^2 and the |t| margins 2 eps / |u| and 1 - 2 eps / |u|
    u_sq, lo = u_len * u_len, 2 * (eps / u_len)
    hi = 1.0 - lo
    bound = eps * np.array(setup.mags)
    pa, pb = setup.px[:, None], setup.py[:, None]
    per_block = max(1, _BLOCK // m)
    for start in range(0, m, per_block):
        rows = slice(start, start + per_block)
        parallel = ~(np.abs(pa[rows] * ub - pb[rows] * ua) > bound[rows, None] * u_len)
        j, k = np.nonzero(parallel)
        if not j.size:
            continue
        # the |t| margins on the survivors only, with the scalar float operations
        j += start
        t = np.abs((setup.px[j] * ua[k] + setup.py[j] * ub[k]) / u_sq[k])
        fits = np.flatnonzero((lo[k] < t) & (t < hi[k]))
        if fits.size:
            j, k = int(j[fits[0]]), int(k[fits[0]])
            phi, a = duals[j], duals[k - 1]
            u = duals[k] - a
            um = u.norm()
            t = phi.dot(u) / (um * um)
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


def check_condition1(norm: PolygonalNorm,
                     eps: float = DEFAULT_EPS) -> ConsistentTriple | None:
    """First edge triple (i < j < k) whose functionals sum to zero."""
    return _pair_pass(_DualSetup.build(norm, eps))[0]


def check_condition2(norm: PolygonalNorm,
                     eps: float = DEFAULT_EPS) -> ConsistentTriple | None:
    """Edge pair whose negated functional sum lands strictly inside a dual edge.

    The landing functional supports the circle at the paired vertex only,
    giving a triple of two edge-interior elements and one vertex. Landing on
    a dual-edge endpoint is excluded: that would be an edge functional and
    condition 1 territory. The first such pair is found whether or not
    condition 1 fires.
    """
    return _pair_pass(_DualSetup.build(norm, eps), cond1=False)[1]


def check_condition3(norm: PolygonalNorm,
                     eps: float = DEFAULT_EPS) -> ConsistentTriple | None:
    """Edge functional parallel to a dual edge and strictly shorter than it.

    Writing the edge functional as t times the dual-edge direction with
    0 < |t| < 1 lets the two vertex functionals sit strictly inside the dual
    edges at an origin-symmetric vertex pair while all three sum to zero.
    The parallel test and the |t| margins run as arrays; the first cell
    to pass both, in (j, k) order, gives the triple.
    """
    return _condition3(_DualSetup.build(norm, eps))


def uniqueness_verdict(norm: PolygonalNorm,
                       eps: float = DEFAULT_EPS) -> Verdict:
    """Take the first firing condition, in order 1, 2, 3, and validate its witness.

    The witness points are the triple's unit-circle elements themselves.
    Condition 1 must solve to a polygon, condition 3 to a segment;
    condition 2 must solve to something other than a point.
    """
    setup = _DualSetup.build(norm, eps)
    hit1, hit2 = _pair_pass(setup)
    triple = hit1 or hit2 or _condition3(setup)
    if triple is None:
        return Verdict(True)
    cond = triple.condition
    witness = tuple(element_point(norm, e) for e in triple.elements)
    expected = "polygon" if cond == 1 else "segment"
    region = ft_solve(norm, witness, eps).region
    observed = region.kind
    ok = observed == expected if cond in (1, 3) else observed != "point"
    if not ok:
        raise CertificateError(
            f"condition {cond} witness solved to {observed}, expected {expected}")
    return Verdict(False, triple, witness, observed, region)
