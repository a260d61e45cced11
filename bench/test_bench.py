"""Tests of the benchmark itself.

Run from the repository root:

    python3 -m pytest bench/test_bench.py

They cover a tiny run of every workload, traced and untraced; counts that
repeat exactly on one seed; checks that reject wrong answers; the shape of
the command's last output line; and failure outside a full checkout.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from ftplane.lambda_planes import classify_lambda  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_spec_lists_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_full_pass_puts_ten_operations_beyond_p90(name, tmp_path):
    assert len(workloads.build(name, 0, tmp_path)) >= 100


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", run.WORKLOADS)
def test_tiny_run_reports_every_metric(name, trace):
    res = run.run_workload(name, 1, 0.01, trace, tiny=True, setup_repeats=1)
    assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0
    assert not res["reference_problems"]
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: unit for k, (_, unit) in res["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec}
    assert all(isinstance(v, (int, float)) for v, _ in res["metrics"].values())
    if trace:
        assert res["counts_repeat"] is True


def _traced_pass(name: str, seed: int, workdir: Path):
    workdir.mkdir()
    ops = workloads.build(name, seed, workdir, tiny=True)
    tracer = tracing.Tracer()
    results = []
    with tracer.installed():
        for i, op in enumerate(ops):
            result, exc, _ = tracer.run_op(i, op.run)
            assert exc is None
            results.append(result)
    for op, result in zip(ops, results):
        op.check(result)
    calls = {span: entry[0] for span, entry in tracing.summarize(tracer.spans).items()}
    return calls, dict(tracer.counts)


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_counts_repeat_exactly(name, tmp_path):
    first = _traced_pass(name, 5, tmp_path / "a")
    assert first == _traced_pass(name, 5, tmp_path / "b")
    assert sum(first[1].values()) > 0


def test_candidate_count_matches_the_breakline_formula():
    # 6 terminals on the 48-gon: 6 + C(144, 2) - 24 * C(6, 2)
    assert tracing.candidate_count(6, 48) == 6 + 10296 - 360


def test_checks_reject_wrong_answers(tmp_path):
    solve = workloads.build("dense-48gon", 0, tmp_path, tiny=True)[0]
    sol = solve.run()
    solve.check(sol)
    with pytest.raises(workloads.CheckFailed):
        solve.check(dataclasses.replace(sol, objective=sol.objective * 1.001))

    with pytest.raises(workloads.CheckFailed):
        workloads.check_lambda(4, classify_lambda(3))

    cli_solve, cli_unique = workloads.build("cli-small", 0, tmp_path, tiny=True)[:2]
    code, text = cli_solve.run()
    cli_solve.check((code, text))
    doc = json.loads(text)
    doc["objective"] *= 1.001
    with pytest.raises(workloads.CheckFailed):
        cli_solve.check((code, json.dumps(doc)))
    with pytest.raises(workloads.CheckFailed):
        cli_unique.check((1, ""))


def _command(cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cli-small", "--seed", "2",
         "--seconds", "0.01", "--trace", "0"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def test_command_ends_with_the_result_line():
    proc = _command(ROOT)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert all(set(m) == {"value", "unit"} for m in last["metrics"].values())


def test_command_fails_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _command(tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
