"""Non-uniqueness conditions and the uniqueness verdict for a norm.

Three unit-circle elements with support functionals summing to zero form a
consistent triple; support lines at vertices must touch the circle at that
vertex only. A triple made of three edge-interior elements (condition 1),
two edge-interior elements and a vertex (condition 2), or one edge-interior
element and an origin-symmetric vertex pair (condition 3) yields three
points whose solution set is a polygon or segment. A norm admits non-unique
three-point instances exactly when one of the conditions fires, and the
firing triple itself is the witness.

A verdict builds the dual set-up once for all three conditions: one
search finds, in every row of cells (an edge functional and a half turn),
the cell where a screened value changes sign. Only the cells around it meet
the exact tests, as arrays with the scalar predicates' floats, so the
triples are those of pair-by-pair loops, in O(m log m) time.
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
from .solver import _certify, objective


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
    region: Region | None = None  # the witness's solution set, as validated

    @property
    def observed_kind(self) -> str | None:
        """The witness's region kind; None for a unique norm."""
        return None if self.region is None else self.region.kind


# Cells one search round probes over its rows; one round covers m <= 90 whole.
_CELLS = 4096


def _runs(value, n: int, length: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows and offsets of the cells inside each row's final span lo < hi.

    Each of n rows holds cells x = 1 .. length - 1; ``value(r, x)``, for open
    rows r, ascending, gives v and b: a cell is above where v > b and below
    where v < -b, as offsets 0 and length count. A round probes F = max(3,
    _CELLS // rows) cells of each open span; for n probes above and n' below
    lo moves to the n-th probe and hi to the n'-th from the end, which loses
    no hit if v does not increase but by less than b's margin over any hit.
    A span probed whole, empty or unchanged is final; when the first round
    probes every cell, the sign counts give each row's span at once."""
    rows = np.arange(n)
    if length - 1 <= max(3, _CELLS // n):  # a NaN is neither above nor below
        v, b = value(rows, np.repeat(np.arange(1, length)[None], n, axis=0))
        lo, hi = (v > b).sum(axis=1), length - (v < -b).sum(axis=1)
    else:
        lo, hi, final = np.zeros(n, dtype=np.intp), np.full(n, length), []
        while True:
            gap = hi - lo - 1
            f = min(max(3, _CELLS // rows.size), int(gap.max()))
            probes = lo[:, None] + 1 + np.arange(f) * gap[:, None] // f  # all, if gap <= f
            xs = np.concatenate([lo[:, None], probes, hi[:, None]], axis=1)
            v, b = value(rows, xs[:, 1:-1])
            t = np.arange(rows.size)
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


def _sector_of_sum(dz: np.ndarray):
    """Lookup of psi = -(d_i + d_j) on P*, given the sums d_i + d_j as complex:
    the edge s of P* it meets, where d_i + d_j lies between -d_s and -d_{s+1}."""
    order = (angle := np.angle(-dz)).argsort()
    angle, order = angle[order], np.concatenate([order[-1:], order])
    return lambda qz: order[angle.searchsorted(np.arctan2(qz.imag, qz.real), side="right")]


@dataclass(frozen=True)
class _DualSetup:
    """What the three conditions read of one norm's dual, built once per verdict.

    ``build`` keeps the cells of one ``_runs`` search and the window around
    them that conditions 1 and 2 test. Row i < m/2 holds j =
    i + 1 .. i + m/2: psi = -(d_i + d_j) runs round P* - d_i (P* the dual
    polygon) from -2 d_i to 0 and g = |psi|* - 1 from 1 to -1, not increasing
    for a symmetric P* (the monotonicity lemma of normed planes). Row m/2 + j
    takes c(k) = d_j x (d_k - d_{k-1}) over k = j + 1 .. j + m/2; the edge
    directions turn once. As d_{k+m/2} = -d_k up to an asymmetry a, row
    i + m/2 repeats row i, and c the next half turn, negated; bounds allow a.
    """

    eps: float
    norm: PolygonalNorm
    ez: np.ndarray  # dual edge k, d_k - d_{k-1}, as complex
    mags: list[float]  # |d_k|, with math.hypot
    cells: tuple[np.ndarray, np.ndarray]  # the search's rows and offsets
    # pairs i < j, k = s - 1 .. s + 2 around psi's sector s on P*, psi, d_k - psi
    window: tuple[np.ndarray, ...] | None

    @classmethod
    def build(cls, norm: PolygonalNorm, eps: float) -> "_DualSetup":
        check_eps(eps)
        m, half = norm.m, norm.m // 2
        dz = norm._dual_array.view(np.complex128)[:, 0]  # complex sums are the float ones
        ez = dz - dz[np.arange(-1, m - 1)]
        mags = list(map(math.hypot, *norm._dual_array.T.tolist()))  # Vec2.norm
        big, tol = max(mags), eps * max(1.0, max(mags))  # tol: condition 1's zero test
        # -conj(v_{k+1}); vertex k + 1 is P*'s functional on its edge k
        wz = (norm._vertex_array[np.arange(1 - m, 1)] * [-1.0, 1.0j]).sum(axis=1)
        lip, u_len = max(np.abs(wz).tolist()), np.abs(ez)
        u_min, asym = min(u_len.tolist()), max(np.abs(dz[:half] + dz[half:]).tolist())
        # The bound on g. A hit puts psi within delta of P*'s boundary: sqrt(2)
        # tol of d_k, or by orient's |u x (d_{k-1} - psi)| <= eps scale 2 eps of
        # the edge when |u| >= 4 eps (scale <= |u| + dist) and 3 M eps / |u|
        # always (scale <= 3 M), 2^-46 M for rounding. |.|* is L-Lipschitz (L =
        # max |v_k|); the float g adds 2^-45 kappa L M (kappa = L M^2 / u_min >=
        # |d_s||d_{s+1}| / d_s x d_{s+1}), the asymmetry a = max |d_k + d_{k+m/2}|
        # 12 L a (its bend of g's monotony, and the mirrored rows' g).
        rnd = 2.0 ** -46 * big
        delta = max(1.5 * tol, 2.0 * (eps + rnd) if u_min >= 4.0 * eps
                    else 3.0 * big * (eps + rnd) / u_min)
        g_cut = lip * (delta + 12.0 * asym) + 2.0 ** -45 * lip * lip * big ** 3 / u_min
        # The bound on the sine c / (|d_j| |u_k|): eps, 2^-49 for rounding and
        # 8 a M / (min |d| u_min) for a. Past a right angle from the sign change
        # it exceeds its value at the half turn's ends, a dual edge line's
        # distance from the origin over |d_j|: 1 / (L M) - 2 a / min |d| or more.
        sin_cut = eps + 2.0 ** -49 + 8.0 * asym * big / (min(mags) * u_min)
        if (sin_cut + 2.0 * asym / min(mags)) * lip * big >= 0.5:
            sin_cut = math.inf  # keep every cell
        sector = _sector_of_sum(dz)
        pz2 = np.concatenate([dz, dz])
        unit_d = dz.conj() * (g_cut / sin_cut / np.abs(dz))  # one bound for all rows
        row_d, unit_u = np.concatenate([unit_d[half:], unit_d[:half]]), ez / u_len
        unit_u2 = np.concatenate([unit_u[half:], unit_u])  # k = row - m/2 + x

        def value(r, x):
            split = r.searchsorted(half)
            p, c = r[:split, None], r[split:, None]
            qz = dz[p] + pz2[p + x[:split]]
            s = sector(qz)
            return np.concatenate([(wz[s] * qz).real - 1.0,
                                   (row_d[c] * unit_u2[c + x[split:]]).imag]), g_cut

        cells = r, x = _runs(value, m, half + 1)
        window, pair = None, r < half
        if pair.any():
            i, j = r[pair], r[pair] + x[pair]
            a, b = np.concatenate([i, i + half]), np.concatenate([j, j + half]) % m
            i, j = np.minimum(a, b), np.maximum(a, b)
            qz = -(dz[i] + dz[j])  # complex sums and differences are the float ones
            k = (sector(-qz) + np.arange(-1, 3)[:, None]) % m
            bz = dz[k] - qz  # d_k - psi is (d_i + d_j) + d_k bit for bit
            window = i, j, k, qz.real, qz.imag, bz.real, bz.imag
        return cls(eps=eps, norm=norm, ez=ez, mags=mags, cells=cells, window=window)


def _condition1(setup: _DualSetup) -> ConsistentTriple | None:
    """The scalar zero test on the window, as arrays with its floats."""
    if setup.window is None:
        return None
    m, (i, j, k, _, _, bx, by) = len(setup.mags), setup.window
    tol = setup.eps * max(1.0, max(setup.mags))  # functional magnitudes grow as P thins
    near = (k > j) & (np.abs(bx) <= tol) & (np.abs(by) <= tol)
    if not near.any():
        return None
    duals = dual_vertices(setup.norm)
    i, j, k = map(int, np.unravel_index(((i * m + j) * m + k)[near].min(), (m, m, m)))
    return ConsistentTriple((EdgeElement(i, 0.5), EdgeElement(j, 0.5), EdgeElement(k, 0.5)),
                            (duals[i], duals[j], duals[k]), condition=1)


def _condition2(setup: _DualSetup) -> ConsistentTriple | None:
    """``segment_interior_contains`` on the window as arrays with its floats,
    then itself on the cells that pass, in order (math.hypot is not numpy's)."""
    if setup.window is None:
        return None
    eps, m = setup.eps, len(setup.mags)
    (px, py), (i, j, k, qx, qy, bx, by) = setup.norm._dual_array.T, setup.window
    ux, uy = setup.ez.real[k], setup.ez.imag[k]
    ax, ay = px[k - 1] - qx, py[k - 1] - qy  # d_{k-1} - psi
    cross = np.abs(ux * ay - uy * ax)
    scale = np.maximum.reduce([np.abs(v) for v in (ux, uy, ax, ay, bx, by)])
    t = -(ax * ux + ay * uy)  # (psi - d_{k-1}) . u
    close = (cross <= eps * scale) & (0.0 < t) & (t < ux * ux + uy * uy)
    end = eps * (1.0 - 2.0 ** -50)  # np.hypot may differ from math.hypot in the last bit
    close &= (np.hypot(ax, ay) > end) & (np.hypot(bx, by) > end)
    for cell in np.sort(((i * m + j) * m + k)[close]):
        i, j, k = map(int, np.unravel_index(cell, (m, m, m)))
        duals = dual_vertices(setup.norm)
        psi = -(duals[i] + duals[j])
        if segment_interior_contains(duals[k - 1], duals[k], psi, eps):
            return ConsistentTriple((EdgeElement(i, 0.5), EdgeElement(j, 0.5), VertexElement(k)),
                                    (duals[i], duals[j], psi), condition=2)
    return None


def _condition3(setup: _DualSetup) -> ConsistentTriple | None:
    """The parallel test and the |t| margins on the search's cells, as
    arrays with the scalar floats and ``math.hypot`` lengths; the first cell
    to pass, in (j, k) order, builds its triple with ``Vec2`` arithmetic."""
    eps, m, (r, x) = setup.eps, len(setup.mags), setup.cells
    half = m // 2
    three = r >= half
    if not three.any():
        return None
    (px, py), ua, ub = setup.norm._dual_array.T, setup.ez.real, setup.ez.imag
    j, k = r[three] - half, r[three] - half + x[three]  # and both moved by m/2
    j, k = np.concatenate([j, j, j + half, j + half]), np.concatenate([k, k + half] * 2) % m
    u_len = np.array(list(map(math.hypot, ua.tolist(), ub.tolist())))
    lo = 2 * (eps / u_len)  # the |t| margins 2 eps / |u| and 1 - 2 eps / |u|
    parallel = ~(np.abs(px[j] * ub[k] - py[j] * ua[k]) > eps * np.array(setup.mags)[j] * u_len[k])
    t = np.abs((px[j] * ua[k] + py[j] * ub[k]) / (u_len * u_len)[k])
    fits = parallel & (lo[k] < t) & (t < 1.0 - lo[k])
    if not fits.any():
        return None
    j, k = divmod(int((j * m + k)[fits].min()), m)
    duals = dual_vertices(setup.norm)
    phi, a = duals[j], duals[k - 1]
    u = duals[k] - a
    t = phi.dot(u) / (u.norm() * u.norm())
    return ConsistentTriple((EdgeElement(j, 0.5), VertexElement(k), VertexElement((k + half) % m)),
                            (phi, a + u * ((1.0 - t) / 2.0), -(a + u * ((1.0 + t) / 2.0))),
                            condition=3)


def check_condition1(norm: PolygonalNorm,
                     eps: float = DEFAULT_EPS) -> ConsistentTriple | None:
    """First edge triple (i < j < k) whose functionals sum to zero."""
    return _condition1(_DualSetup.build(norm, eps))


def check_condition2(norm: PolygonalNorm,
                     eps: float = DEFAULT_EPS) -> ConsistentTriple | None:
    """Edge pair whose negated functional sum lands strictly inside a dual edge.

    The landing functional supports the circle at the paired vertex only,
    giving a triple of two edge-interior elements and one vertex. Landing on
    a dual-edge endpoint, an edge functional, is condition 1's; the first
    cell in (i, j, k) order is found whether or not condition 1 fires.
    """
    return _condition2(_DualSetup.build(norm, eps))


def check_condition3(norm: PolygonalNorm,
                     eps: float = DEFAULT_EPS) -> ConsistentTriple | None:
    """Edge functional parallel to a dual edge and strictly shorter than it.

    Writing the edge functional as t times the dual-edge direction with
    0 < |t| < 1 lets the two vertex functionals sit strictly inside the dual
    edges at an origin-symmetric vertex pair while all three sum to zero.
    The first such cell in (j, k) order gives the triple.
    """
    return _condition3(_DualSetup.build(norm, eps))


def uniqueness_verdict(norm: PolygonalNorm,
                       eps: float = DEFAULT_EPS) -> Verdict:
    """Take the first firing condition, in order 1, 2, 3, and validate its witness.

    The witness points are the triple's unit-circle elements themselves, so
    the triple's functionals certify the origin as an optimum, without search.
    Condition 1 must solve to a polygon, condition 3 to a segment;
    condition 2 must solve to something other than a point.
    """
    setup = _DualSetup.build(norm, eps)
    triple = _condition1(setup) or _condition2(setup) or _condition3(setup)
    if triple is None:
        return Verdict(True)
    cond = triple.condition
    witness = tuple(element_point(norm, e) for e in triple.elements)
    expected = "polygon" if cond == 1 else "segment"
    origin = Vec2(0.0, 0.0)
    region = _certify(norm, witness, origin, objective(norm, witness, origin), eps).region
    observed = region.kind
    if not (observed == expected if cond in (1, 3) else observed != "point"):
        raise CertificateError(
            f"condition {cond} witness solved to {observed}, expected {expected}")
    return Verdict(False, triple, witness, region)
