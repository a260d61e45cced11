"""Differential check: fixed solve and verdict sets, hashed per group.

Each answer is its ``repr``, or an error's class and message: a solve set
gives the lines of ``candidate_minimize`` and ``ft_solve``, a norm the line of
``uniqueness_verdict``. A group's SHA-256 over its newline-joined lines is
compared with ``differential_sha256.json``. Errors are answers too, so a group
whose failures turn into certified answers moves; a change that moves a group
says in CHANGES.md which answers moved and why.

The solve groups: 600 ``random_instance(Random(1))`` sets raw, scaled by 1e6,
2^20 and 2^-20, and shifted by (1e6, -3e6); 300 diamond plus shapes of 1..4
terminals per arm, every third with a terminal at the centre; the 360
lattice sets; the first 50, 100, 200 and 1,000 of 1,000 ``Random(9)`` points
in [-5, 5]^2 on the 48-gon; the 120 near-vertex sets. The norm groups: 476
verdict norms (lambda = 2..60, 99, 300 and 1,001, every rotation of the
condition-2 octagon and the condition-3 hexagon, and 400
``random_instance(Random(11))`` norms) and the 72 ``near_tolerance`` copies
of the condition-2 octagon.
"""

import hashlib
import json
from pathlib import Path
from random import Random

from ftplane import Vec2, candidate_minimize, ft_solve, make_polygonal_norm, uniqueness_verdict
from ftplane.lambda_planes import make_lambda_norm
from ftplane.oracle import random_instance

from conftest import (
    COND2_OCTAGON,
    COND3_HEXAGON,
    lattice_sets,
    near_tolerance,
    near_vertex_sets,
    outcome,
    plus_shape,
    rotations,
)

DIGESTS = Path(__file__).with_name("differential_sha256.json")


def solve_sets(diamond, hexagon) -> dict[str, list]:
    """Group name -> list of (norm, terminals)."""
    rng = Random(1)
    base = [random_instance(rng) for _ in range(600)]
    shift = Vec2(1e6, -3e6)
    groups = {"random1-raw": base}
    for name, move in (("random1-x1e6", lambda q: q * 1e6),
                       ("random1-x2p20", lambda q: q * 2.0 ** 20),
                       ("random1-x2m20", lambda q: q * 2.0 ** -20),
                       ("random1-shifted", lambda q: q + shift)):
        groups[name] = [(norm, [move(q) for q in pts]) for norm, pts in base]
    rng, centre, plus = Random(4), Vec2(0.3, -0.7), []
    for k in range(300):
        pts = plus_shape(centre, [rng.randint(1, 4) for _ in range(4)], seed=k)
        plus.append((diamond, [centre] * (k % 3 == 0) + pts))
    groups["plus-diamond"] = plus
    groups["lattice"] = lattice_sets()
    rng, gon48 = Random(9), make_lambda_norm(24).norm
    draw = [Vec2(rng.uniform(-5, 5), rng.uniform(-5, 5)) for _ in range(1000)]
    groups["gon48-prefixes"] = [(gon48, draw[:n]) for n in (50, 100, 200, 1000)]
    groups["near-vertex"] = [(norm, pts) for norm, _, sets in near_vertex_sets(diamond, hexagon)
                             for pts, _ in sets]
    return groups


def verdict_norms() -> dict[str, list]:
    """Group name -> list of norms."""
    norms = [make_lambda_norm(lam).norm for lam in [*range(2, 61), 99, 300, 1001]]
    norms += [make_polygonal_norm(r) for r in rotations(COND2_OCTAGON) + rotations(COND3_HEXAGON)]
    rng = Random(11)
    norms += [random_instance(rng)[0] for _ in range(400)]
    return {"verdict-norms": norms, "near-tolerance": near_tolerance(COND2_OCTAGON)}


def group_lines(diamond, hexagon) -> dict[str, list[str]]:
    lines = {name: [line for norm, pts in sets
                    for line in (outcome(candidate_minimize, norm, pts), outcome(ft_solve, norm, pts))]
             for name, sets in solve_sets(diamond, hexagon).items()}
    lines.update({name: [outcome(uniqueness_verdict, norm) for norm in norms]
                  for name, norms in verdict_norms().items()})
    return lines


def test_differential_digests(diamond, hexagon):
    want = json.loads(DIGESTS.read_text())
    got = {name: hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
           for name, lines in group_lines(diamond, hexagon).items()}
    assert sorted(got) == sorted(want)
    moved = [name for name in got if got[name] != want[name]]
    assert not moved, f"groups whose answers moved: {moved}"
