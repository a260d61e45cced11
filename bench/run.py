"""ftplane benchmark: one workload, one seed, one run.

Run from the repository root:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The package is imported from ``src/`` of the same checkout; without it the
run fails. Workloads, their reasons and the layer metrics each should move
are described in bench/RATIONALE.md.

A run is a closed loop with one client, in one process and one thread:

1. Set-up is timed in fresh processes, several times; ``setup_s`` is the
   median. It covers importing ftplane and building the workload's inputs.
2. One untimed reference pass over the workload's operations warms lazy
   state and checks every answer in full.
3. Timed passes repeat the same operations. Each answer must equal the
   checked reference answer; anything else, or an exception, is a failure.
   Whole passes run until about ``--seconds`` of operation time, and at
   least three of them. Durations are scaled by a calibration routine
   (calibration.py), and an operation's latency is the median over its
   executions.

With ``--trace 1`` untraced and traced passes alternate instead, and the
run reports per-layer self times and counts per pass, plus the tracing
overhead.

Human-readable lines come first on stdout; the last line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``. The full result,
with machine metadata, is written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter_ns

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("cli-small", "dense-48gon", "plus-diamond", "lambda-sweep")
SETUP_REPEATS = 9
MIN_PASSES = 3  # an operation's latency is the median over the passes
MIN_TRACED_PASSES = 2  # so that counts can be seen to repeat
_FAILED = object()  # reference of an operation whose first answer failed its check


class BenchError(Exception):
    """The benchmark cannot run here."""


def _import_package():
    if not (SRC / "ftplane" / "__init__.py").is_file():
        raise BenchError(f"{SRC / 'ftplane'} not found: run from a full checkout")
    sys.path.insert(0, str(SRC))
    import ftplane
    if Path(ftplane.__file__).resolve().parent != SRC / "ftplane":
        raise BenchError(f"imported ftplane from {ftplane.__file__}, not from {SRC}")


# --- set-up -------------------------------------------------------------------

def setup_probe(name: str, seed: int) -> int:
    """Nanoseconds to import ftplane and build the inputs, in this fresh process."""
    workdir = OUT / f"setup-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        start = perf_counter_ns()
        _import_package()
        import workloads
        workloads.build(name, seed, workdir)
        return perf_counter_ns() - start
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure_setup(name: str, seed: int, repeats: int) -> list[int]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(seed), "--setup-probe"]
    samples = []
    for _ in range(repeats):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed:\n{proc.stderr.strip()}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_ns"])
    return samples


# --- passes -------------------------------------------------------------------

def reference_pass(ops) -> tuple[list, list[str], int]:
    """Run and fully check every operation once; untimed apart from a total."""
    refs, problems, total_ns = [], [], 0
    for i, op in enumerate(ops):
        start = perf_counter_ns()
        try:
            result = op.run()
        except Exception as exc:  # recorded as a failure of this operation
            problems.append(f"op {i}: raised {type(exc).__name__}: {exc}")
            refs.append(_FAILED)
            continue
        finally:
            total_ns += perf_counter_ns() - start
        try:
            op.check(result)
        except Exception as exc:  # a wrong answer, or one the check cannot read
            problems.append(f"op {i}: check failed: {type(exc).__name__}: {exc}")
            refs.append(_FAILED)
            continue
        refs.append(result)
    return refs, problems, total_ns


class Samples:
    """Scaled durations of the operations of the pass, over the measured passes.

    Durations are scaled by the calibration clock (see calibration.py). An
    operation's latency is the median of the durations of every execution
    with the same inputs (same ``Op.key``) in the run, and a pass's
    throughput follows from those medians. A median over executions spread
    out in time sees past a short burst of load from other tenants.
    """

    def __init__(self, ops):
        self.keys = [("op", i) if op.key is None else op.key for i, op in enumerate(ops)]
        self.durations: dict = {key: [] for key in self.keys}
        self.failed_ops: set[int] = set()
        self.failed = 0
        self.passes = 0
        self.busy_ns = 0

    def add(self, op: int, result, exc, ref, duration_ns: int, clock) -> None:
        self.durations[self.keys[op]].append(clock.scale(duration_ns))
        self.busy_ns += duration_ns
        if exc is not None or ref is _FAILED or result != ref:
            self.failed += 1
            self.failed_ops.add(op)

    @property
    def attempted(self) -> int:
        return sum(len(d) for d in self.durations.values())

    def medians_ns(self) -> list[float]:
        """Latency of each operation of the pass, in pass order."""
        med = {key: statistics.median(d) for key, d in self.durations.items()}
        return [med[key] for key in self.keys]

    def ops_per_s(self) -> float:
        """Verified operations per second of a pass at median speed."""
        verified = len(self.keys) - len(self.failed_ops)
        return verified / (sum(self.medians_ns()) / 1e9)

    def percentile_ms(self, q: float) -> float:
        """Nearest-rank percentile of the operation latencies.

        A failed operation counts as exceeding every limit.
        """
        lat = [math.inf if i in self.failed_ops else ns
               for i, ns in enumerate(self.medians_ns())]
        lat.sort()
        return lat[max(0, math.ceil(q * len(lat)) - 1)] / 1e6


def plain_pass(ops, refs, samples: Samples, clock) -> int:
    start_busy = samples.busy_ns
    for i, (op, ref) in enumerate(zip(ops, refs)):
        clock.tick()
        result = exc = None
        start = perf_counter_ns()
        try:
            result = op.run()
        except Exception as err:  # counted as a failed operation
            exc = err
        samples.add(i, result, exc, ref, perf_counter_ns() - start, clock)
    samples.passes += 1
    return samples.busy_ns - start_busy


def traced_pass(ops, refs, samples: Samples, clock):
    from tracing import Tracer
    tracer = Tracer()
    start_busy = samples.busy_ns
    with tracer.installed():
        for i, (op, ref) in enumerate(zip(ops, refs)):
            clock.tick()
            result, exc, duration = tracer.run_op(i, op.run)
            samples.add(i, result, exc, ref, duration, clock)
    samples.passes += 1
    return samples.busy_ns - start_busy, tracer


# --- runs ---------------------------------------------------------------------

def timed_run(ops, refs, pass_ns: int, seconds: float, clock) -> dict:
    samples = Samples(ops)
    while samples.passes < MIN_PASSES or samples.busy_ns + pass_ns / 2 < seconds * 1e9:
        pass_ns = plain_pass(ops, refs, samples, clock)
    return {
        "samples": [samples],
        "metrics": {
            "ops_per_s": (samples.ops_per_s(), "1/s"),
            "latency_p50_ms": (samples.percentile_ms(0.5), "ms"),
            "latency_p90_ms": (samples.percentile_ms(0.9), "ms"),
        },
        "sample_counts": {k: f"{len(ops)} operations x {samples.passes} passes"
                          for k in ("ops_per_s", "latency_p50_ms", "latency_p90_ms")},
    }


def traced_run(ops, refs, pass_ns: int, seconds: float, clock) -> dict:
    """Alternate untraced and traced passes; per-layer figures are per pass.

    Self times are medians over the traced passes; calls and counts come
    from the first traced pass, and ``counts_repeat`` says whether every
    later pass reproduced them exactly.
    """
    from tracing import COUNTS, OP_SPAN, SPAN_NAMES, summarize
    plain, traced = Samples(ops), Samples(ops)
    passes, first_spans = [], None
    pair_ns = 2 * pass_ns
    while (len(passes) < MIN_TRACED_PASSES
           or plain.busy_ns + traced.busy_ns + pair_ns / 2 < seconds * 1e9):
        plain_ns = plain_pass(ops, refs, plain, clock)
        traced_ns, tracer = traced_pass(ops, refs, traced, clock)
        pair_ns = plain_ns + traced_ns
        passes.append((summarize(tracer.spans), dict(tracer.counts)))
        if first_spans is None:
            first_spans = tracer.spans
    first_summary, first_counts = passes[0]
    calls = {name: entry[0] for name, entry in first_summary.items()}
    repeats = all({name: entry[0] for name, entry in summary.items()} == calls
                  and counts == first_counts for summary, counts in passes)
    metrics = {}
    for name in (OP_SPAN,) + SPAN_NAMES:
        self_ns = statistics.median(summary.get(name, (0, 0))[1] for summary, _ in passes)
        metrics[f"{name}.self_s"] = (self_ns / 1e9, "s")
        metrics[f"{name}.calls"] = (calls.get(name, 0), "count")
    for name in COUNTS:
        metrics[name] = (first_counts.get(name, 0), "count")
    metrics["trace.pass_s"] = (traced.busy_ns / traced.passes / 1e9, "s")
    metrics["bench.calibration_ms"] = (statistics.median(clock.all) / 1e6, "ms")
    metrics["trace.ops_per_s"] = (traced.ops_per_s(), "1/s")
    metrics["trace.untraced_ops_per_s"] = (plain.ops_per_s(), "1/s")
    metrics["trace.overhead_pct"] = (
        100.0 * (sum(traced.medians_ns()) / sum(plain.medians_ns()) - 1.0), "%")
    return {
        "samples": [plain, traced],
        "metrics": metrics,
        "sample_counts": {"traced_passes": len(passes), "ops_per_pass": len(ops)},
        "counts_repeat": repeats,
        "spans": first_spans,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 tiny: bool = False, setup_repeats: int = SETUP_REPEATS) -> dict:
    """One benchmark run in this process; returns the full result."""
    if name not in WORKLOADS:
        raise BenchError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    setup = measure_setup(name, seed, setup_repeats)
    _import_package()
    import calibration
    import workloads
    clock = calibration.Clock()
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        ops = workloads.build(name, seed, workdir, tiny)
        refs, problems, pass_ns = reference_pass(ops)
        # Keep the harness's own objects (inputs, reference answers) out of
        # the collector, so that a collection costs what the package's own
        # garbage costs.
        gc.collect()
        gc.freeze()
        if trace:
            run = traced_run(ops, refs, pass_ns, seconds, clock)
        else:
            run = timed_run(ops, refs, pass_ns, seconds, clock)
    finally:
        gc.unfreeze()
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = sum(s.attempted for s in run["samples"])
    failed = sum(s.failed for s in run["samples"])
    if not trace:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        run["metrics"]["peak_rss_mb"] = (peak_mb, "MB")
        # Unscaled: set-up is mostly loading files and writing the CLI
        # inputs, whose time does not follow the calibration routine's.
        run["metrics"]["setup_s"] = (statistics.median(setup) / 1e9, "s")
        run["sample_counts"].update(peak_rss_mb="1 process",
                                    setup_s=f"{len(setup)} processes")
    return {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "seconds": seconds,
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "measured_s": sum(s.busy_ns for s in run["samples"]) / 1e9,
        "reference_problems": problems,
        "setup_samples_s": [ns / 1e9 for ns in setup],
        "unscaled": {
            "ops_per_s": (attempted - failed) / sum(s.busy_ns / 1e9 for s in run["samples"]),
            "calibration_ms": [ns / 1e6 for ns in clock.all],
        },
        "metrics": run["metrics"],
        "sample_counts": run["sample_counts"],
        "counts_repeat": run.get("counts_repeat"),
        "spans": run.get("spans"),
        "metadata": metadata(),
    }


# --- reporting ----------------------------------------------------------------

def metadata() -> dict:
    import numpy
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    lines = sum(1 for path in sorted((SRC / "ftplane").rglob("*.py"))
                for line in path.read_text(encoding="utf-8").splitlines() if line.strip())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": commit,
        "src_nonblank_lines": lines,
    }


def report_lines(res: dict) -> list[str]:
    meta = res["metadata"]
    out = [f"workload {res['workload']}  seed {res['seed']}  trace {int(res['trace'])}",
           f"machine: nproc {meta['nproc']}, {meta['cpu_model']}, python {meta['python']}, "
           f"numpy {meta['numpy']}, commit {meta['git_commit']}, "
           f"src/ftplane {meta['src_nonblank_lines']} non-blank lines",
           f"attempted {res['attempted']}  failed {res['failed']}  "
           f"fail_ratio {res['fail_ratio']:.6g}"]
    out += [f"  reference check: {p}" for p in res["reference_problems"]]
    metrics = res["metrics"]
    if res["trace"]:
        pass_s = metrics["trace.pass_s"][0]
        counts = res["sample_counts"]
        out.append(f"self time per traced pass (median of {counts['traced_passes']} passes, "
                   f"{counts['ops_per_pass']} operations each):")
        selfs = [(k[:-len(".self_s")], v[0]) for k, v in metrics.items() if k.endswith(".self_s")]
        for name, self_s in sorted(selfs, key=lambda kv: -kv[1]):
            calls = metrics[f"{name}.calls"][0]
            out.append(f"  {name:34s} {self_s:10.6f} s  {100 * self_s / pass_s:6.2f} %  "
                       f"{calls} calls")
        out.append(f"counts per pass (repeat exactly across passes: {res['counts_repeat']}):")
        out += [f"  {k:40s} {v[0]}" for k, v in metrics.items()
                if v[1] == "count" and not k.endswith(".calls")]
        out += [f"  {k:40s} {metrics[k][0]:.6g} {metrics[k][1]}"
                for k in ("trace.pass_s", "trace.ops_per_s", "trace.untraced_ops_per_s",
                          "trace.overhead_pct")]
    else:
        for k, (value, unit) in metrics.items():
            out.append(f"  {k:16s} {value:12.6g} {unit:4s} ({res['sample_counts'][k]})")
    unscaled = res["unscaled"]
    out.append(f"calibration routine median "
               f"{statistics.median(unscaled['calibration_ms']):.4g} ms; "
               f"unscaled ops_per_s {unscaled['ops_per_s']:.6g}")
    return out


def write_result(res: dict) -> Path:
    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{res['workload']}-seed{res['seed']}-trace{int(res['trace'])}"
    doc = {k: v for k, v in res.items() if k != "spans"}
    doc["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in res["metrics"].items()}
    path = OUT / f"{stem}.json"
    path.write_text(json.dumps(doc, indent=2), encoding="utf-8")
    if res["spans"] is not None:
        with open(OUT / f"{stem}-spans.jsonl", "w", encoding="utf-8") as fh:
            fh.write(json.dumps(["name", "op", "start_ns", "duration_ns", "self_ns",
                                 "parent"]) + "\n")
            for span in res["spans"]:
                fh.write(json.dumps(span) + "\n")
    return path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="ftplane benchmark, one run")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != "0":
        # String hashes decide where attribute names land in the interpreter's
        # lookup caches; a random hash seed per process moves the speed of
        # the same code by several per cent from run to run. The seed is read
        # at start-up, so the process re-executes itself (no new process).
        os.environ["PYTHONHASHSEED"] = "0"
        argv = sys.argv[1:] if argv is None else argv
        os.execv(sys.executable, [sys.executable, str(Path(__file__).resolve()), *argv])
    # One thread: numpy's BLAS would otherwise start a thread pool at import.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    try:
        if args.setup_probe:
            print(json.dumps({"setup_ns": setup_probe(args.workload, args.seed)}))
            return 0
        res = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for line in report_lines(res):
        print(line)
    print(f"result file: {write_result(res).relative_to(ROOT)}")
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in res["metrics"].items()}
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
