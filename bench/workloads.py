"""Seeded workloads for the ftplane benchmark.

A workload is a fixed list of operations built from the seed. An operation
is one call into the package through its public surface: one ``ft_solve``,
one ``classify_lambda`` or one ``ftplane.cli.main`` command. Each operation
comes with a check that runs outside the timed interval and raises
``CheckFailed`` when the answer is wrong.

Operations call through module attributes (``solver.ft_solve``, not a name
bound at import), so the tracer can wrap them. The checks use functions
bound here at import, before any wrapping, so checking is never traced.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from random import Random
from typing import Any, Callable, Hashable

import ftplane.cli as cli
import ftplane.lambda_planes as lambda_planes
import ftplane.solver as solver
from ftplane.geometry import DEFAULT_EPS, Vec2
from ftplane.lambda_planes import make_lambda_norm
from ftplane.norms import Functional, make_polygonal_norm
from ftplane.oracle import oracle_objective, random_instance
from ftplane.solver import Certificate, check_certificate, ft_solve
from ftplane.uniqueness import uniqueness_verdict

class CheckFailed(Exception):
    """An operation returned an answer that does not verify."""


@dataclass(frozen=True)
class Op:
    """One operation; operations with equal non-None keys have equal inputs."""

    run: Callable[[], Any]
    check: Callable[[Any], None]
    key: Hashable = None


def build(name: str, seed: int, workdir: Path, tiny: bool = False) -> list[Op]:
    """Operations of one pass over workload ``name``; same seed, same inputs.

    A full pass holds at least 100 operations, so that ten of them lie
    beyond the 90th latency percentile. ``tiny`` shrinks the pass for the
    benchmark's own tests. ``workdir`` must exist; only cli-small writes
    there (its norm and point files).
    """
    rng = Random(seed)
    if name == "cli-small":
        return _cli_small(rng, workdir, 4 if tiny else 200)
    if name == "dense-48gon":
        return _dense_48gon(rng, 2 if tiny else 100)
    if name == "plus-diamond":
        return _plus_diamond(rng, 5 if tiny else 100)
    if name == "lambda-sweep":
        return _lambda_sweep(rng, 8 if tiny else 25, 1 if tiny else 5)
    raise ValueError(f"unknown workload {name!r}")


# --- checks -----------------------------------------------------------------

def _check_region(norm, points, kind: str, vertices, value: float,
                  eps: float = DEFAULT_EPS) -> None:
    """Region shape is well formed and the oracle agrees at every vertex.

    The tolerance is the solver's own vertex re-check tolerance.
    """
    if kind == "polygon":
        shaped = len(vertices) >= 3
    else:
        shaped = len(vertices) == {"point": 1, "segment": 2}.get(kind)
    if not shaped:
        raise CheckFailed(f"{kind!r} region with {len(vertices)} vertices")
    vtol = 100 * eps * max(1.0, abs(value))
    for v in vertices:
        got = oracle_objective(norm, points, v)
        if abs(got - value) > vtol:
            raise CheckFailed(f"oracle objective {got} at {v}, solver reports {value}")


def check_solution(norm, points, sol, eps: float = DEFAULT_EPS) -> None:
    check_certificate(norm, points, sol.certificate, eps)
    _check_region(norm, points, sol.region.kind, sol.region.vertices,
                  sol.objective, eps)


def _check_witness(norm, condition: int, witness, kind: str) -> None:
    """Re-solve a non-uniqueness witness; its region must match the condition."""
    if len(witness) != 3:
        raise CheckFailed(f"witness has {len(witness)} points")
    sol = ft_solve(norm, witness)
    check_solution(norm, witness, sol)
    if sol.region.kind != kind:
        raise CheckFailed(f"witness solves to {sol.region.kind}, reported {kind}")
    ok = kind == "polygon" if condition == 1 else (
        kind == "segment" if condition == 3 else kind != "point")
    if not ok:
        raise CheckFailed(f"condition {condition} witness solves to {kind}")


def check_lambda(lam: int, verdict) -> None:
    if verdict.unique != (lam % 3 != 0):
        raise CheckFailed(f"plane {lam}: unique={verdict.unique} breaks the mod-3 rule")
    if not verdict.unique:
        _check_witness(make_lambda_norm(lam).norm, verdict.triple.condition,
                       verdict.witness, verdict.observed_kind)


def check_cli_solve(norm, points, result) -> None:
    code, text = result
    if code != 0:
        raise CheckFailed(f"solve exited with {code}")
    doc = json.loads(text)
    cert = doc["certificate"]
    base = Vec2(*cert["p"])
    funcs = tuple(Functional(a, b) for a, b in cert["functionals"])
    # The document omits the relaxed indices; they are the terminals at the
    # base (equal up to the 12-digit rounding of the output).
    relaxed = tuple(i for i, q in enumerate(points)
                    if (q - base).norm() <= 1e-9 * max(1.0, q.norm()))
    check_certificate(norm, points, Certificate(base, funcs, relaxed))
    _check_region(norm, points, doc["kind"],
                  [Vec2(x, y) for x, y in doc["vertices"]], doc["objective"])


def check_cli_uniqueness(norm, result) -> None:
    code, text = result
    if code != 0:
        raise CheckFailed(f"uniqueness exited with {code}")
    doc = json.loads(text)
    ref = uniqueness_verdict(norm)
    if doc["verdict"] != ("unique" if ref.unique else "nonunique"):
        raise CheckFailed(f"CLI verdict {doc['verdict']}, library unique={ref.unique}")
    if not ref.unique:
        if doc["condition"] != ref.triple.condition:
            raise CheckFailed(f"CLI condition {doc['condition']}, "
                              f"library {ref.triple.condition}")
        _check_witness(norm, doc["condition"],
                       [Vec2(x, y) for x, y in doc["witness"]], doc["region_kind"])


# --- workloads ----------------------------------------------------------------

def _call_cli(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def _write_json(path: Path, doc) -> None:
    # repr-exact floats, so the CLI reads back the very instance generated
    path.write_text(json.dumps(doc), encoding="utf-8")


def _cli_small(rng: Random, workdir: Path, count: int) -> list[Op]:
    """Acceptance-criterion-4 instances, one solve and one uniqueness each."""
    ops = []
    for i in range(count):
        norm, points = random_instance(rng)
        npath, ppath = workdir / f"norm{i}.json", workdir / f"points{i}.json"
        _write_json(npath, {"type": "polygon",
                            "vertices": [[v.x, v.y] for v in norm.vertices]})
        _write_json(ppath, {"points": [[q.x, q.y] for q in points]})
        solve = ["solve", "--norm", str(npath), "--points", str(ppath)]
        unique = ["uniqueness", "--norm", str(npath)]
        ops.append(Op(lambda a=solve: _call_cli(a),
                      lambda r, n=norm, p=points: check_cli_solve(n, p, r)))
        ops.append(Op(lambda a=unique: _call_cli(a),
                      lambda r, n=norm: check_cli_uniqueness(n, r)))
    return ops


def _solve_op(norm, points) -> Op:
    return Op(lambda: solver.ft_solve(norm, points),
              lambda sol: check_solution(norm, points, sol))


def _dense_48gon(rng: Random, count: int) -> list[Op]:
    """Six uniform terminals on the regular 48-gon plane."""
    norm = make_lambda_norm(24).norm
    return [_solve_op(norm, [Vec2(rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0))
                             for _ in range(6)])
            for _ in range(count)]


_ARMS = (Vec2(1.0, 0.0), Vec2(0.0, 1.0), Vec2(-1.0, 0.0), Vec2(0.0, -1.0))


def _plus_diamond(rng: Random, count: int) -> list[Op]:
    """Thirteen terminals on the four vertex directions of the l1 ball.

    Only the centre and the arm lengths are seeded: the arm counts and the
    terminal order fix where the selection grids find their answer, so each
    instance costs the same for every seed. No arm holds more than six
    terminals, so the optimum is the centre. One instance in four puts a
    terminal there and takes the relaxed certificate path. That share is
    deliberately not one half: the two kinds differ twentyfold in cost, and
    with half the median would sit on the gap between them; at a quarter it
    sits well inside the slower kind.
    """
    norm = make_polygonal_norm(list(_ARMS))
    ops = []
    for i in range(count):
        centre = Vec2(rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0))
        at_centre = i % 4 == 1
        points = [centre] if at_centre else []
        for arm, many in zip(_ARMS, (3, 3, 3, 3) if at_centre else (3, 3, 4, 3)):
            points += [centre + arm * rng.uniform(0.25, 3.0) for _ in range(many)]
        ops.append(_solve_op(norm, points))
    return ops


def _lambda_sweep(rng: Random, stop: int, copies: int) -> list[Op]:
    """Every plane 2..stop-1, ``copies`` times per pass, in seeded order.

    Whole permutations rather than draws with replacement: cost grows as
    k^3, so a pass of independent draws would vary by seed far more than by
    code.
    """
    lams = list(range(2, stop)) * copies
    rng.shuffle(lams)
    return [Op(lambda k=k: lambda_planes.classify_lambda(k),
               lambda v, k=k: check_lambda(k, v), key=k)
            for k in lams]

