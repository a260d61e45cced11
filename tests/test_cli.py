import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path
from random import Random

import pytest

from ftplane import CertificateError, Vec2, ft_solve, make_lambda_norm
from ftplane.cli import main

from conftest import SQRT3, random_terminals


@pytest.fixture()
def hex_norm_file(tmp_path):
    path = tmp_path / "hex.json"
    path.write_text(json.dumps({"type": "lambda", "lambda": 3}))
    return str(path)


@pytest.fixture()
def diamond_norm_file(tmp_path):
    path = tmp_path / "diamond.json"
    path.write_text(json.dumps(
        {"type": "polygon", "vertices": [[1, 0], [0, 1], [-1, 0], [0, -1]]}))
    return str(path)


@pytest.fixture()
def triangle_points_file(tmp_path):
    path = tmp_path / "tri.json"
    path.write_text(json.dumps(
        {"points": [[0, 0], [1, 0], [0.5, SQRT3 / 2]]}))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_solve_document(capsys, hex_norm_file, triangle_points_file):
    code, out, _ = run(capsys, ["solve", "--norm", hex_norm_file,
                                "--points", triangle_points_file])
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "polygon"
    assert doc["objective"] == pytest.approx(2.0, abs=1e-9)
    assert len(doc["vertices"]) == 3
    sx = sum(f[0] for f in doc["certificate"]["functionals"])
    sy = sum(f[1] for f in doc["certificate"]["functionals"])
    assert abs(sx) <= 1e-9 and abs(sy) <= 1e-9


def test_solve_round_trip(capsys, hex_norm_file, triangle_points_file):
    code, out, _ = run(capsys, ["solve", "--norm", hex_norm_file,
                                "--points", triangle_points_file])
    doc = json.loads(out)
    norm = make_lambda_norm(3).norm
    sol = ft_solve(norm, [Vec2(0, 0), Vec2(1, 0), Vec2(0.5, SQRT3 / 2)])
    assert doc["kind"] == sol.region.kind
    assert doc["objective"] == pytest.approx(sol.objective, abs=1e-9)
    for got, want in zip(doc["vertices"], sol.region.vertices):
        assert got[0] == pytest.approx(want.x, abs=1e-9)
        assert got[1] == pytest.approx(want.y, abs=1e-9)
    assert doc["certificate"]["p"][0] == pytest.approx(sol.certificate.base.x, abs=1e-9)


def test_solve_deterministic_bytes(capsys, hex_norm_file, triangle_points_file):
    argv = ["solve", "--norm", hex_norm_file, "--points", triangle_points_file]
    _, out1, _ = run(capsys, argv)
    _, out2, _ = run(capsys, argv)
    assert out1 == out2


def test_solve_many_terminals(tmp_path, capsys, hex_norm_file):
    pts = tmp_path / "many.json"
    pts.write_text(json.dumps(
        {"points": [[q.x, q.y] for q in random_terminals(40, seed=40)]}))
    code, out, err = run(capsys, ["solve", "--norm", hex_norm_file,
                                  "--points", str(pts)])
    assert code == 0, err
    assert json.loads(out)["kind"] in ("point", "segment", "polygon")


def test_uniqueness_documents(capsys, diamond_norm_file, hex_norm_file):
    code, out, _ = run(capsys, ["uniqueness", "--norm", diamond_norm_file])
    assert code == 0
    assert json.loads(out) == {"verdict": "unique"}
    code, out, _ = run(capsys, ["uniqueness", "--norm", hex_norm_file])
    doc = json.loads(out)
    assert doc["verdict"] == "nonunique"
    assert doc["condition"] == 1
    assert doc["region_kind"] == "polygon"
    assert len(doc["witness"]) == 3


def test_lambda_table(capsys):
    code, out, _ = run(capsys, ["lambda", "--max", "12"])
    assert code == 0
    lines = [l for l in out.splitlines() if l.strip() and not l.startswith("lambda")]
    assert len(lines) == 11
    for line in lines:
        fields = line.split()
        lam = int(fields[0])
        want = "nonunique" if lam % 3 == 0 else "unique"
        assert fields[1] == want


def test_lambda_json(capsys):
    code, out, _ = run(capsys, ["lambda", "--max", "6", "--json"])
    docs = json.loads(out)
    assert [d["lambda"] for d in docs] == [2, 3, 4, 5, 6]
    assert [d["verdict"] for d in docs] == [
        "unique", "nonunique", "unique", "unique", "nonunique"]


def test_module_entry_matches_main(capsys):
    argv = ["lambda", "--max", "6", "--json"]
    code, out, _ = run(capsys, argv)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "ftplane", *argv],
                          capture_output=True, env=env, timeout=120)
    assert proc.returncode == code == 0
    assert proc.stdout == out.encode()


def test_witness_command(capsys, hex_norm_file, diamond_norm_file):
    code, out, _ = run(capsys, ["witness", "--norm", hex_norm_file])
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "nonunique"
    assert doc["region"]["kind"] == "polygon"
    code, out, _ = run(capsys, ["witness", "--norm", diamond_norm_file])
    assert json.loads(out) == {"verdict": "unique"}


def test_witness_solves_its_triple_once(capsys, monkeypatch, hex_norm_file):
    # the verdict certifies its witness at the origin, where the triple's
    # functionals sum to zero: one certification and no candidate search
    import ftplane.solver as solver
    import ftplane.uniqueness as uniqueness

    certified, searched = [], []

    def counted(fn, calls):
        def wrapper(*args, **kwargs):
            calls.append(args[1])
            return fn(*args, **kwargs)
        return wrapper

    # every certification goes through _certify: the verdict's own, and
    # ft_solve's, which looks it up in solver
    monkeypatch.setattr(uniqueness, "_certify", counted(uniqueness._certify, certified))
    monkeypatch.setattr(solver, "_certify", counted(solver._certify, certified))
    monkeypatch.setattr(solver, "candidate_minimize",
                        counted(solver.candidate_minimize, searched))
    code, out, _ = run(capsys, ["witness", "--norm", hex_norm_file])
    doc = json.loads(out)
    assert code == 0 and len(certified) == 1 and searched == []
    assert [c for w in certified[0] for c in (w.x, w.y)] == pytest.approx(
        [c for w in doc["witness"] for c in w], abs=1e-9)  # the output rounds
    assert doc["region"]["kind"] == "polygon"


def test_lambda_flag_replaces_norm_file(capsys, triangle_points_file):
    code, out, _ = run(capsys, ["solve", "--lambda", "3",
                                "--points", triangle_points_file])
    assert code == 0
    assert json.loads(out)["objective"] == pytest.approx(2.0, abs=1e-9)


def test_svg_structure(tmp_path, capsys, hex_norm_file, triangle_points_file):
    svg_path = tmp_path / "fig.svg"
    code, _, _ = run(capsys, ["solve", "--norm", hex_norm_file,
                              "--points", triangle_points_file,
                              "--svg", str(svg_path)])
    assert code == 0
    svg = svg_path.read_text()
    assert svg.count('class="norm"') == 1
    assert svg.count('class="terminal"') == 3
    assert svg.count('class="region"') == 1
    assert svg.count('class="cone"') == 3
    assert 'fill="#d33"' in svg  # region is filled


def test_svg_point_region_marker(tmp_path, capsys, diamond_norm_file):
    pts = tmp_path / "collinear.json"
    pts.write_text(json.dumps({"points": [[0, 0], [1, 0], [5, 0]]}))
    svg_path = tmp_path / "point.svg"
    code, _, _ = run(capsys, ["solve", "--norm", diamond_norm_file,
                              "--points", str(pts), "--svg", str(svg_path)])
    assert code == 0
    svg = svg_path.read_text()
    # relaxed certificate: no cones drawn, region is a circle marker
    assert svg.count('class="cone"') == 0
    assert '<circle class="region"' in svg
    assert svg.count('class="terminal"') == 3


def test_svg_ray_cones_and_segment_region(tmp_path, capsys, diamond_norm_file):
    # 13 terminals in the diamond's vertex directions from (0.3, -0.7): every
    # functional touches one vertex, so each cone is a ray, drawn as M ... L
    arms, lengths = ((1, 0), (0, 1), (-1, 0), (0, -1)), (0.5, 1.25, 2, 2.5)
    plus = tmp_path / "plus.json"
    plus.write_text(json.dumps({"points": [
        [0.3 + a * d, -0.7 + b * d]
        for (a, b), many in zip(arms, (3, 3, 4, 3)) for d in lengths[:many]]}))
    pair = tmp_path / "pair.json"
    pair.write_text(json.dumps({"points": [[0, 0], [2, 0]]}))
    svgs = []
    for pts in plus, pair:
        svg_path = tmp_path / "fig.svg"
        code, _, _ = run(capsys, ["solve", "--norm", diamond_norm_file,
                                  "--points", str(pts), "--svg", str(svg_path)])
        assert code == 0
        svgs.append(svg_path.read_text())
    cones = [line for line in svgs[0].splitlines() if 'class="cone"' in line]
    assert len(cones) == 13 and all(line.count(" L ") == 1 for line in cones)
    assert '<circle class="region" cx="0.3" cy="-0.7"' in svgs[0]
    # on the l1 plane the pair's solution set is the segment between them
    assert '<path class="region" d="M 0 0 L 2 0" fill="none"' in svgs[1]


def test_validation_exit_codes(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    code, _, err = run(capsys, ["uniqueness", "--norm", missing])
    assert code == 1 and err.strip()

    bad_norm = tmp_path / "bad.json"
    bad_norm.write_text(json.dumps(
        {"type": "polygon", "vertices": [[1, 0], [0, 1], [-1, 0]]}))
    code, _, err = run(capsys, ["uniqueness", "--norm", str(bad_norm)])
    assert code == 1 and "vertex" in err

    pts = tmp_path / "p.json"
    pts.write_text(json.dumps({"points": [[0, 0]]}))
    code, _, err = run(capsys, ["solve", "--lambda", "1", "--points", str(pts)])
    assert code == 1

    code, _, err = run(capsys, ["solve", "--lambda", "3", "--points", str(pts),
                                "--tol", "0.5"])
    assert code == 1 and "tolerance" in err

    nan_pts = tmp_path / "nan.json"
    nan_pts.write_text('{"points": [[0, 0], [NaN, 1]]}')
    code, _, err = run(capsys, ["solve", "--lambda", "3", "--points", str(nan_pts)])
    assert code == 1 and "finite" in err

    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe{\x00}")
    code, out, err = run(capsys, ["uniqueness", "--norm", str(binary)])
    assert code == 1 and out == "" and err.startswith("error: ") and str(binary) in err


@pytest.mark.parametrize("flag, doc", [
    ("--points", {"points": [1, 2]}),
    ("--points", {"points": [[None, 1], [2, 3]]}),
    ("--points", {"points": [[True, 1], [2, 3], [0, 1]]}),
    ("--points", {"points": [[10 ** 400, 1], [2, 3], [0, 1]]}),
    ("--norm", {"type": "polygon", "vertices": [1, 2, 3, 4]}),
    ("--norm", {"type": "polygon", "vertices": [[1, 0], [0, "1"], [-1, 0], [0, -1]]}),
    ("--norm", {"type": "lambda", "lambda": 2.7}),
    ("--norm", {"type": "lambda", "lambda": True}),
    ("--norm", {"type": "lambda"}),
])
def test_malformed_documents_are_validation_errors(tmp_path, capsys, flag, doc,
                                                    hex_norm_file,
                                                    triangle_points_file):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    files = {"--norm": hex_norm_file, "--points": triangle_points_file, flag: str(path)}
    code, out, err = run(capsys, ["solve", "--norm", files["--norm"],
                                  "--points", files["--points"]])
    assert code == 1 and out == ""
    assert err.startswith("error: ") and str(path) in err


@pytest.mark.parametrize("text, message", [
    ('{"type": "lambda",', "not valid JSON"),
    (None, "a norm is required: pass --norm FILE or --lambda K"),
    ('{"lambda": 3}', "expected an object with a 'type' key"),
    ('{"type": "circle"}', "unknown norm type 'circle'"),
])
def test_norm_document_errors(tmp_path, capsys, triangle_points_file, text, message):
    argv = ["solve", "--points", triangle_points_file]
    if text is not None:
        path = tmp_path / "norm.json"
        path.write_text(text)
        argv += ["--norm", str(path)]
    code, out, err = run(capsys, argv)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and message in err


def test_self_intersecting_unit_ball_is_validation_error(tmp_path, capsys):
    # a star whose vertex triples all turn left; solving on it once gave a
    # certificate that does not verify (exit 2)
    norm = tmp_path / "star.json"
    norm.write_text(json.dumps({"type": "polygon", "vertices": [
        [-2, 3], [-2, -3], [3, 0], [-3, 1], [2, -3], [2, 3], [-3, 0], [3, -1]]}))
    pts = tmp_path / "p.json"
    pts.write_text(json.dumps({"points": [[4, -3], [4, -3], [-2, 2]]}))
    code, out, err = run(capsys, ["solve", "--norm", str(norm), "--points", str(pts)])
    assert code == 1 and out == "" and "wind 3 times" in err


def test_huge_lambda_is_validation_error(tmp_path, capsys):
    path = tmp_path / "n.json"
    path.write_text(json.dumps({"type": "lambda", "lambda": 10 ** 11}))
    for argv in (["uniqueness", "--lambda", str(10 ** 11)],
                 ["uniqueness", "--norm", str(path)]):
        code, out, err = run(capsys, argv)
        assert code == 1 and out == "" and "parameter 100000000000" in err


def test_lambda_max_past_accepted_planes_is_validation_error(capsys):
    code, out, err = run(capsys, ["lambda", "--max", "75248"])
    assert code == 1 and out == "" and "parameter 75248" in err


def test_overflowing_coordinate_span_is_validation_error(tmp_path, capsys):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"points": [[1e308, 1e308], [-1e308, -1e308], [0, 1]]}))
    code, _, err = run(capsys, ["solve", "--lambda", "3", "--points", str(path)])
    assert code == 1 and str(path) in err and "finite" in err


def test_overflowing_cone_radius_is_validation_error(tmp_path, capsys):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"points": [[0, 0], [6e307, 0], [3e307, 5e307]]}))
    code, out, err = run(capsys, ["solve", "--lambda", "3", "--points", str(path)])
    assert (code, out) == (1, "") and "cone radius" in err and "overflows" in err


def test_overflowing_objective_is_one_line_validation_error(tmp_path, capsys):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"points": [[0, 0], [1.7e308, 0], [0, 1.7e308]]}))
    code, out, err = run(capsys, ["solve", "--lambda", "3", "--points", str(path)])
    assert (code, out) == (1, "")
    # (0, 0) and (1.7e308, 0) share one horizontal grid line, formed once; its
    # second copy through (1.7e308, 0) gave a NaN crossing
    assert err.splitlines() == ["error: the objective overflows: its least candidate value is inf"]


def test_unwritable_svg_is_one_line_validation_error(tmp_path, capsys, hex_norm_file,
                                                     triangle_points_file):
    # the figure is written before the solution is printed, so a failed
    # write leaves stdout empty
    svg = tmp_path / "missing" / "out.svg"
    code, out, err = run(capsys, ["solve", "--norm", hex_norm_file, "--points",
                                  triangle_points_file, "--svg", str(svg)])
    assert (code, out) == (1, "") and not svg.exists()
    assert len(err.splitlines()) == 1 and err.startswith("error: ") and str(svg) in err


def test_large_finite_coordinates_still_solve(tmp_path, capsys):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"points": [[1e200, 1e200], [-1e200, -1e200], [0, 1]]}))
    code, out, _ = run(capsys, ["solve", "--lambda", "3", "--points", str(path)])
    assert code == 0 and json.loads(out)["kind"] == "point"


def test_usage_error_is_validation(capsys):
    assert main(["solve"]) == 1  # missing required --points


def test_reused_parser_keeps_no_state(capsys, diamond_norm_file, hex_norm_file,
                                      triangle_points_file):
    # main parses every call with one parser per process; a usage error and
    # another command in between must not change the next solve's bytes
    solve = ["solve", "--norm", hex_norm_file, "--points", triangle_points_file]
    code, first, _ = run(capsys, solve)
    assert code == 0
    code, out, err = run(capsys, ["solve", "--norm", hex_norm_file])
    assert (code, out) == (1, "") and "--points" in err
    code, out, _ = run(capsys, ["uniqueness", "--norm", diamond_norm_file])
    assert (code, json.loads(out)) == (0, {"verdict": "unique"})
    code, again, _ = run(capsys, solve)
    assert code == 0 and again == first


def test_internal_failure_exit_code(monkeypatch, capsys, tmp_path,
                                    diamond_norm_file):
    pts = tmp_path / "p.json"
    pts.write_text(json.dumps({"points": [[0, 0], [2, 0], [0, 2]]}))

    import ftplane.cli as cli_mod

    def boom(*args, **kwargs):
        raise CertificateError("forced failure")

    monkeypatch.setattr(cli_mod, "ft_solve", boom)
    code, _, err = run(capsys, ["solve", "--norm", diamond_norm_file,
                                "--points", str(pts)])
    assert code == 2 and "certificate" in err


def test_internal_value_error_is_not_a_validation_error(monkeypatch, capsys, tmp_path,
                                                        diamond_norm_file):
    pts = tmp_path / "p.json"
    pts.write_text(json.dumps({"points": [[0, 0], [2, 0], [0, 2]]}))

    import ftplane.cli as cli_mod

    def boom(*args, **kwargs):
        raise ValueError("forced internal fault")

    monkeypatch.setattr(cli_mod, "ft_solve", boom)
    with pytest.raises(ValueError, match="forced internal fault"):
        main(["solve", "--norm", diamond_norm_file, "--points", str(pts)])
    assert "error:" not in capsys.readouterr().err


def test_svg_bytes_are_pinned(tmp_path, capsys, diamond_norm_file):
    # a plus-diamond instance (13 ray cones that share their carrier lines)
    # and a 48-gon instance: the figure's bytes, as SHA-256, whatever shape
    # objects the cones share
    rng = Random(26)
    cx, cy = rng.uniform(-5, 5), rng.uniform(-5, 5)
    plus = tmp_path / "plus.json"
    plus.write_text(json.dumps({"points": [
        [cx + a * d, cy + b * d]
        for (a, b), many in zip(((1, 0), (0, 1), (-1, 0), (0, -1)), (3, 3, 4, 3))
        for d in (rng.uniform(0.25, 3.0) for _ in range(many))]}))
    six = tmp_path / "six.json"
    six.write_text(json.dumps({"points": [[rng.uniform(-5, 5), rng.uniform(-5, 5)]
                                          for _ in range(6)]}))
    digests = []
    for norm_args, pts in ((["--norm", diamond_norm_file], plus), (["--lambda", "24"], six)):
        svg_path = tmp_path / "fig.svg"
        code, _, _ = run(capsys, ["solve", *norm_args, "--points", str(pts),
                                  "--svg", str(svg_path)])
        assert code == 0
        digests.append(hashlib.sha256(svg_path.read_bytes()).hexdigest())
    assert digests == [
        "18e81e7be740dd1b03ec369a13aac83063d8c3285f99cea1f5335dc1fd054b76",
        "fa09ad593e6e70cc1596a3cb536ac8b657eb46ed8061de37bb721c868b58b2f5"]
