"""Outside-in tracing of ftplane's public functions.

The package has no trace hooks of its own, so spans are recorded by
replacing functions at the module attributes where their callers look them
up; the package source is unchanged. A span's self time is its duration
minus the durations of its child spans.

``uniqueness_verdict`` binds its three condition checks into a tuple at
import, so wrapping the public ``check_condition1..3`` cannot see those
calls. After each traced verdict the tracer calls the public checks again,
in the verdict's order and stopping at the first that fires, records them
as children of the verdict span and subtracts them from its self time.
That replay, like every other piece of bookkeeping here, runs while the
clock of the enclosing spans is paused.
"""

from __future__ import annotations

import contextlib
import functools
import math
from collections import Counter
from time import perf_counter_ns

import ftplane.cli as cli
import ftplane.geometry as geometry
import ftplane.lambda_planes as lambda_planes
import ftplane.solver as solver
import ftplane.uniqueness as uniqueness
from ftplane.geometry import DEFAULT_EPS
from ftplane.norms import FunctionalSegment, norming_set
from ftplane.solver import AngleShape

# (module, attribute looked up by callers, span name). A span is named after
# the module that defines the function, except the verdict's witness solve.
WRAPPED = (
    (cli, "main", "cli.main"),
    (cli, "ft_solve", "solver.ft_solve"),
    (cli, "uniqueness_verdict", "uniqueness.uniqueness_verdict"),
    (lambda_planes, "classify_lambda", "lambda_planes.classify_lambda"),
    (lambda_planes, "make_lambda_norm", "lambda_planes.make_lambda_norm"),
    (lambda_planes, "uniqueness_verdict", "uniqueness.uniqueness_verdict"),
    (uniqueness, "ft_solve", "uniqueness.witness_solve"),
    (solver, "ft_solve", "solver.ft_solve"),
    (solver, "collinear_median", "solver.collinear_median"),
    (solver, "candidate_minimize", "solver.candidate_minimize"),
    (solver, "select_functionals", "solver.select_functionals"),
    (solver, "verify_ft_point", "solver.verify_ft_point"),
    (solver, "check_certificate", "solver.check_certificate"),
    (solver, "build_cone", "solver.build_cone"),
    (solver, "intersect_cones", "solver.intersect_cones"),
    (solver, "objective", "solver.objective"),
    (solver, "gauge_batch", "norms.gauge_batch"),
    (solver, "norming_set", "norms.norming_set"),
    (solver, "intersect_halfplanes", "geometry.intersect_halfplanes"),
    (solver, "clip_polygon", "geometry.clip_polygon"),
    (geometry, "convex_hull", "geometry.convex_hull"),
)
CONDITIONS = (
    ("uniqueness.check_condition1", uniqueness.check_condition1),
    ("uniqueness.check_condition2", uniqueness.check_condition2),
    ("uniqueness.check_condition3", uniqueness.check_condition3),
)
OP_SPAN = "bench.op"
SPAN_NAMES = tuple(dict.fromkeys(
    [name for _, _, name in WRAPPED] + [name for name, _ in CONDITIONS]))
COUNTS = (
    "solver.candidate_minimize.candidates",
    "solver.selection.vertex_terminals",
    "solver.intersect_cones.halfplanes",
    "uniqueness.fired.1",
    "uniqueness.fired.2",
    "uniqueness.fired.3",
    "solver.path.collinear",
    "solver.path.terminal",
    "solver.path.cones",
    "solver.region.point",
    "solver.region.segment",
    "solver.region.polygon",
)


def candidate_count(n: int, m: int) -> int:
    """Breakline candidates for n terminals on an m-gon: n + C(nm/2, 2) - (m/2) C(n, 2)."""
    half = m // 2
    return n + math.comb(n * half, 2) - half * math.comb(n, 2)


def _eps(args, kwargs, index: int) -> float:
    return args[index] if len(args) > index else kwargs.get("eps", DEFAULT_EPS)


class Tracer:
    """Spans and counts of the traced calls, kept in memory.

    A span is ``[name, op, start_ns, duration_ns, self_ns, parent_index]``;
    ``op`` is the index of the benchmark operation that caused it.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op = -1
        self._stack: list[list] = []  # [span index, start, paused at start, child ns]
        self._paused_ns = 0
        self._hits: Counter = Counter()  # path markers read by the ft_solve hook

    # -- spans -----------------------------------------------------------------

    def _open(self, name: str) -> None:
        parent = self._stack[-1][0] if self._stack else None
        self.spans.append([name, self.op, 0, 0, 0, parent])
        self._stack.append([len(self.spans) - 1, perf_counter_ns(), self._paused_ns, 0])

    def _close(self) -> int:
        end = perf_counter_ns()
        idx, start, paused_at_start, child_ns = self._stack.pop()
        duration = end - start - (self._paused_ns - paused_at_start)
        span = self.spans[idx]
        span[2], span[3], span[4] = start, duration, duration - child_ns
        if self._stack:
            self._stack[-1][3] += duration
        return idx

    @contextlib.contextmanager
    def _paused(self):
        start = perf_counter_ns()
        try:
            yield
        finally:
            self._paused_ns += perf_counter_ns() - start

    def run_op(self, op: int, fn):
        """Call ``fn`` under a root span; return (result, exception, duration_ns)."""
        self.op = op
        self._open(OP_SPAN)
        result = exc = None
        try:
            result = fn()
        except Exception as err:  # the harness records the failure and goes on
            exc = err
        idx = self._close()
        return result, exc, self.spans[idx][3]

    # -- wrapping --------------------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Wrap every function of WRAPPED for the duration of the block."""
        saved = []
        try:
            for module, attr, name in WRAPPED:
                fn = getattr(module, attr, None)
                if fn is not None:
                    saved.append((module, attr, fn))
                    setattr(module, attr, self._wrap(name, fn))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def _wrap(self, name: str, fn):
        hook = _HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            hits = (self._hits["collinear"], self._hits["cones"]) if hook else None
            self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                idx = self._close()
            if hook:
                with self._paused():
                    hook(self, idx, hits, args, kwargs, result)
            return result

        return traced

    # -- hooks -----------------------------------------------------------------

    def _after_candidates(self, idx, hits, args, kwargs, result):
        norm, points = args[0], args[1]
        self.counts["solver.candidate_minimize.candidates"] += \
            candidate_count(len(points), norm.m)

    def _after_collinear(self, idx, hits, args, kwargs, result):
        if result is not None:
            self._hits["collinear"] += 1

    def _after_cones(self, idx, hits, args, kwargs, result):
        self._hits["cones"] += 1
        self.counts["solver.intersect_cones.halfplanes"] += sum(
            2 if isinstance(c.shape, AngleShape) else 3 for c in args[0])

    def _after_solve(self, idx, hits, args, kwargs, result):
        if self._hits["collinear"] > hits[0]:
            path = "collinear"
        elif self._hits["cones"] > hits[1]:
            path = "cones"
        else:
            path = "terminal"
        self.counts[f"solver.path.{path}"] += 1
        self.counts[f"solver.region.{result.region.kind}"] += 1
        norm, points, eps = args[0], args[1], _eps(args, kwargs, 2)
        cert = result.certificate
        self.counts["solver.selection.vertex_terminals"] += sum(
            isinstance(norming_set(norm, q - cert.base, eps), FunctionalSegment)
            for i, q in enumerate(points) if i not in cert.relaxed)

    def _after_verdict(self, idx, hits, args, kwargs, result):
        if not result.unique:
            self.counts[f"uniqueness.fired.{result.triple.condition}"] += 1
        norm, eps = args[0], _eps(args, kwargs, 1)
        for name, check in CONDITIONS:
            start = perf_counter_ns()
            fired = check(norm, eps)
            duration = perf_counter_ns() - start
            self.spans.append([name, self.op, start, duration, duration, idx])
            self.spans[idx][4] -= duration
            if fired is not None:
                break


_HOOKS = {
    "solver.candidate_minimize": Tracer._after_candidates,
    "solver.collinear_median": Tracer._after_collinear,
    "solver.intersect_cones": Tracer._after_cones,
    "solver.ft_solve": Tracer._after_solve,
    "uniqueness.witness_solve": Tracer._after_solve,
    "uniqueness.uniqueness_verdict": Tracer._after_verdict,
}


def summarize(spans: list[list]) -> dict[str, tuple[int, int]]:
    """Per span name: (call count, total self ns)."""
    out: dict[str, list[int]] = {}
    for name, _, _, _, self_ns, _ in spans:
        entry = out.setdefault(name, [0, 0])
        entry[0] += 1
        entry[1] += self_ns
    return {name: (calls, ns) for name, (calls, ns) in out.items()}
