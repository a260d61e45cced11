"""Command-line interface.

Commands: solve, uniqueness, lambda, witness. Norm documents are
JSON: {"type": "polygon", "vertices": [[x, y], ...]} or
{"type": "lambda", "lambda": k}; point documents are {"points": [[x, y], ...]}.
All numbers are serialized with 12 significant digits so outputs are
reproducible byte for byte.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .errors import CertificateError, InputError
from .geometry import DEFAULT_EPS, Vec2, check_eps, finite_spans
from .lambda_planes import classify_lambda, make_lambda_norm
from .norms import PolygonalNorm, make_polygonal_norm
from .render import render_svg
from .solver import FTSolution, build_cones, ft_solve
from .uniqueness import Verdict, uniqueness_verdict


def _round12(obj):
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _round12(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round12(v) for v in obj]
    return obj


def _emit(doc) -> None:
    print(json.dumps(_round12(doc), indent=2, sort_keys=True))


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: not valid JSON ({exc})") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text ({exc})") from exc


def _load_norm(args) -> PolygonalNorm:
    if args.lam is not None:
        return make_lambda_norm(args.lam).norm
    if args.norm is None:
        raise InputError("a norm is required: pass --norm FILE or --lambda K")
    doc = _load_json(args.norm)
    if not isinstance(doc, dict) or "type" not in doc:
        raise InputError(f"{args.norm}: expected an object with a 'type' key")
    if doc["type"] == "lambda":
        lam = doc.get("lambda")
        if not isinstance(lam, int) or isinstance(lam, bool):
            raise InputError(f"{args.norm}: 'lambda' must be an integer")
        return make_lambda_norm(lam).norm
    if doc["type"] == "polygon":
        verts = _pairs(doc.get("vertices"))
        if verts is None:
            raise InputError(f"{args.norm}: 'vertices' must be [[x, y], ...]")
        return make_polygonal_norm(verts, args.tol)
    raise InputError(f"{args.norm}: unknown norm type {doc['type']!r}")


def _load_points(path: str) -> list[Vec2]:
    doc = _load_json(path)
    out = _pairs(doc.get("points") if isinstance(doc, dict) else None)
    if not out:
        raise InputError(f"{path}: expected {{\"points\": [[x, y], ...]}}")
    if not finite_spans(out):
        raise InputError(f"{path}: coordinates and their spans must be finite")
    return out


def _pairs(items) -> list[Vec2] | None:
    """``[[x, y], ...]`` of JSON numbers (not bools) as points, else None."""
    if not isinstance(items, list) or not all(
            isinstance(p, list) and len(p) == 2 and all(
                isinstance(c, (int, float)) and not isinstance(c, bool) for c in p)
            for p in items):
        return None
    try:
        return [Vec2(float(x), float(y)) for x, y in items]
    except OverflowError:  # an integer beyond the float range
        return None


def _solution_doc(sol: FTSolution) -> dict:
    return {
        "kind": sol.region.kind,
        "vertices": [[v.x, v.y] for v in sol.region.vertices],
        "objective": sol.objective,
        "certificate": {
            "p": [sol.certificate.base.x, sol.certificate.base.y],
            "functionals": [[f.x, f.y] for f in sol.certificate.functionals],
        },
    }


def _verdict_doc(verdict: Verdict) -> dict:
    if verdict.unique:
        return {"verdict": "unique"}
    return {
        "verdict": "nonunique",
        "condition": verdict.triple.condition,
        "witness": [[w.x, w.y] for w in verdict.witness],
        "region_kind": verdict.region.kind,
    }


def cmd_solve(args) -> int:
    norm = _load_norm(args)
    points = _load_points(args.points)
    sol = ft_solve(norm, points, args.tol)
    if args.svg:  # before the solution, so a failed write prints only its error
        _write_svg(args.svg, norm, points, sol, args.tol)
    _emit(_solution_doc(sol))
    return 0


def _write_svg(path: str, norm, points, sol, eps) -> None:
    cones = ()
    if not sol.certificate.relaxed:
        cones = build_cones(norm, points, sol.certificate.functionals, eps)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(render_svg(norm, points, sol, cones))


def cmd_uniqueness(args) -> int:
    norm = _load_norm(args)
    _emit(_verdict_doc(uniqueness_verdict(norm, args.tol)))
    return 0


def cmd_witness(args) -> int:
    norm = _load_norm(args)
    verdict = uniqueness_verdict(norm, args.tol)
    if verdict.unique:
        _emit({"verdict": "unique"})
        return 0
    doc = _verdict_doc(verdict)
    doc["region"] = {
        "kind": verdict.region.kind,
        "vertices": [[v.x, v.y] for v in verdict.region.vertices],
    }
    _emit(doc)
    return 0


def cmd_lambda(args) -> int:
    if args.max >= 2:
        make_lambda_norm(args.max)  # a max past the accepted planes fails here, not at the end
    rows = []
    for lam in range(2, args.max + 1):
        verdict = classify_lambda(lam, args.tol)
        rows.append((lam, verdict))
    if args.json:
        docs = []
        for lam, verdict in rows:
            doc = _verdict_doc(verdict)
            doc["lambda"] = lam
            docs.append(doc)
        _emit(docs)
        return 0
    print(f"{'lambda':>6}  {'verdict':<10} {'condition':<10} witness")
    for lam, verdict in rows:
        if verdict.unique:
            print(f"{lam:>6}  {'unique':<10} {'-':<10} -")
        else:
            wit = " ".join(f"({w.x:.6g},{w.y:.6g})" for w in verdict.witness)
            print(f"{lam:>6}  {'nonunique':<10} {verdict.triple.condition:<10} {wit}")
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses, built once per process."""
    parser = argparse.ArgumentParser(
        prog="ftplane",
        description="Fermat-Torricelli solution sets on polygonal-norm planes")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--norm", help="norm document (JSON)")
        p.add_argument("--lambda", dest="lam", type=int,
                       help="use the regular 2k-gon norm instead of --norm")
        p.add_argument("--tol", type=float, default=DEFAULT_EPS,
                       help="comparison tolerance (default 1e-9)")

    p = sub.add_parser("solve", help="full solution set for a points document")
    common(p)
    p.add_argument("--points", required=True, help="points document (JSON)")
    p.add_argument("--svg", help="also write an SVG figure here")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("uniqueness", help="three-point uniqueness verdict for a norm")
    common(p)
    p.set_defaults(func=cmd_uniqueness)

    p = sub.add_parser("witness", help="non-uniqueness witness points and their solution")
    common(p)
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("lambda", help="classify regular-polygon planes 2..max")
    p.add_argument("--max", type=int, default=12)
    p.add_argument("--tol", type=float, default=DEFAULT_EPS)
    p.add_argument("--json", action="store_true", help="emit JSON instead of a table")
    p.set_defaults(func=cmd_lambda)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        check_eps(args.tol)
        return args.func(args)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except CertificateError as exc:
        print(f"certificate failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
