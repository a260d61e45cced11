"""Golden corpus: the exact stdout of the CLI on fixed inputs.

Each case is a list of CLI arguments; ``golden_sha256.json`` holds the
SHA-256 of what ``cli.main`` printed for it. The 573 cases are the 200
criterion-4 instances (``random_instance`` seeded with 7) under ``solve``
and ``uniqueness``, the lambda planes 2..60, 99, 100 and 101 under
``uniqueness`` and ``witness``, ``lambda --max 30 --json``, every vertex
rotation of the condition-2 octagon and the condition-3 hexagon under
``uniqueness`` and ``witness`` (the lambda planes fire only condition 1 or
none), and 20 ``solve --lambda 24`` cases with six seeded terminals in
[-5, 5]^2, which pin the breakline enumeration on the 48-gon. No output
depends on which valid functional selection a solver picks: the solve cases
have a unique one and witness prints regions only, so any correct solver
prints the same bytes.
"""

import hashlib
import json
from pathlib import Path
from random import Random

from ftplane.cli import main
from ftplane.oracle import random_instance

from conftest import COND2_OCTAGON, COND3_HEXAGON, rotations

GOLDEN = Path(__file__).with_name("golden_sha256.json")


def golden_cases(workdir: Path) -> dict[str, list[str]]:
    """Case name -> CLI arguments; input documents are written to workdir."""
    cases: dict[str, list[str]] = {}
    rng = Random(7)
    for i in range(200):
        norm, pts = random_instance(rng)
        norm_path = workdir / f"norm{i:03d}.json"
        pts_path = workdir / f"points{i:03d}.json"
        norm_path.write_text(json.dumps(
            {"type": "polygon", "vertices": [[v.x, v.y] for v in norm.vertices]}))
        pts_path.write_text(json.dumps({"points": [[p.x, p.y] for p in pts]}))
        cases[f"solve-{i:03d}"] = ["solve", "--norm", str(norm_path),
                                   "--points", str(pts_path)]
        cases[f"uniqueness-{i:03d}"] = ["uniqueness", "--norm", str(norm_path)]
    for lam in [*range(2, 61), 99, 100, 101]:
        cases[f"uniqueness-lambda-{lam:02d}"] = ["uniqueness", "--lambda", str(lam)]
        cases[f"witness-lambda-{lam:02d}"] = ["witness", "--lambda", str(lam)]
    cases["lambda-json-30"] = ["lambda", "--max", "30", "--json"]
    for name, verts in (("cond2-octagon", COND2_OCTAGON),
                        ("cond3-hexagon", COND3_HEXAGON)):
        for shift, rotated in enumerate(rotations(verts)):
            path = workdir / f"{name}-{shift}.json"
            path.write_text(json.dumps({"type": "polygon", "vertices": rotated}))
            for command in ("uniqueness", "witness"):
                cases[f"{command}-{name}-{shift}"] = [command, "--norm", str(path)]
    rng = Random(48)
    for i in range(20):
        path = workdir / f"points-48gon-{i:02d}.json"
        path.write_text(json.dumps({"points": [
            [rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0)] for _ in range(6)]}))
        cases[f"solve-48gon-{i:02d}"] = ["solve", "--lambda", "24", "--points", str(path)]
    return cases


def stdout_digest(capsys, argv: list[str]) -> str:
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0, (argv, code)
    return hashlib.sha256(out.encode("utf-8")).hexdigest()


def test_golden_corpus_bytes(tmp_path, capsys):
    want = json.loads(GOLDEN.read_text())
    cases = golden_cases(tmp_path)
    assert sorted(cases) == sorted(want)
    changed = [name for name, argv in cases.items()
               if stdout_digest(capsys, argv) != want[name]]
    assert not changed, f"{len(changed)} cases changed: {changed[:10]}"
