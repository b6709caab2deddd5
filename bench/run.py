"""Benchmark of susyband: one seeded workload per process.

    python3 bench/run.py --workload bands --seed 1 --seconds 10 --trace 0

Run from the repository root.  With ``--trace 0`` the run repeats the
seeded batch until ``--seconds`` have passed (at least once) and reports the
end-to-end metrics.  With ``--trace 1`` it runs the batch once untraced and
twice traced, checks that both traced passes give identical counts and
spans, and reports the per-layer metrics.  The last line of stdout is one
JSON object; the lines before it are the same numbers for people.  See
bench/README.md.
"""

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

# one BLAS thread on a 2-core machine; must be set before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# write no bytecode anywhere; see _import_program for reading it
sys.dont_write_bytecode = True

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# set-ups per untraced run: this process's own, the rest in fresh processes
SETUP_REPEATS = 3
# share of the traced wall time that may fall outside layer and benchmark time
UNATTRIBUTED_MAX = 0.01


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("bands", "transform", "verify"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="print this process's set-up time as JSON and exit; "
                        "untraced runs start such processes to repeat set-up")
    return p.parse_args(argv)


def _import_program(workdir: Path):
    """Import susyband and the benchmark modules; return (workloads, Tracer).

    susyband is always compiled from source: bytecode is looked up under an
    empty directory, so a ``src/**/__pycache__`` left by the test suite is
    never read.  numpy and scipy are imported first, from their installed
    bytecode, as any user of the package would.
    """
    import numpy  # noqa: F401
    import scipy.interpolate  # noqa: F401
    import scipy.optimize  # noqa: F401

    sys.path.insert(0, str(SRC))
    sys.pycache_prefix = str(workdir / "no-bytecode")
    try:
        import workloads
        from tracing import LAYERS, Tracer

        for layer in LAYERS:
            importlib.import_module("susyband." + layer)
    finally:
        sys.pycache_prefix = None
    return workloads, Tracer


def _fresh_setup(args) -> float:
    """Set-up time of the same workload and seed in a new process."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=150)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up process exited {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


@dataclass
class Pass:
    """One pass over the batch: wall time, per-request latencies, outcomes,
    and the benchmark's own time after each call (check, cleanup, report)."""

    wall: float = 0.0
    bench: float = 0.0
    latencies: list = field(default_factory=list)
    outcomes: list = field(default_factory=list)


def run_batch(batch, workdir, tracer=None):
    from workloads import Outcome

    clock = time.perf_counter
    result = Pass()
    start = clock()
    for i, request in enumerate(batch):
        out = workdir / f"request-{i}"
        if tracer is not None:
            tracer.request = i
        latency = None
        t0 = clock()
        try:
            value = request.call(out)
            latency = clock() - t0
            outcome = request.check(value, out)
        except Exception as exc:  # a failed request is counted, never fatal
            if latency is None:
                latency = clock() - t0
            traceback.print_exc()
            outcome = Outcome(failure=f"{type(exc).__name__}: {exc}")
        result.latencies.append(latency)
        if tracer is not None and out.exists():
            tracer.counts["cli.bytes_written"] += sum(
                f.stat().st_size for f in out.iterdir() if f.is_file())
        status = "ok" if outcome.failure is None else (
            f"{'WRONG' if outcome.wrong else 'failed'}: {outcome.failure}")
        print(f"{request.label}: {latency:.3f} s, {status}", file=sys.stderr)
        result.outcomes.append(outcome)
        shutil.rmtree(out, ignore_errors=True)
        result.bench += clock() - t0 - latency
    result.wall = clock() - start
    return result


def _accuracy(passes, names):
    """Largest error per accuracy metric; 0 where the workload has none."""
    values = dict.fromkeys(names, 0.0)
    for p in passes:
        for outcome in p.outcomes:
            for name, err in outcome.errors.items():
                values[name] = max(values[name], err)
    return values


def _emit(values, declared, correct, passes):
    """Print the declared metrics, by name with unit, then the JSON line."""
    outcomes = [o for p in passes for o in p.outcomes]
    failed = sum(o.failure is not None for o in outcomes)
    metrics = {d["name"]: {"value": values[d["name"]], "unit": d["unit"]} for d in declared}
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"requests attempted {len(outcomes)}, failed {failed}")
    doc = {
        "correct": correct and not any(o.wrong for o in outcomes),
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(doc))


def _traced(batch, workdir, baseline, workloads, Tracer):
    """Two traced passes; returns (per-layer metrics, self-checks passed, passes)."""
    passes, traces = [], []
    for _ in range(2):
        tracer = Tracer()
        tracer.install()
        try:
            passes.append(run_batch(batch, workdir, tracer))
        finally:
            tracer.uninstall()
        traces.append(tracer)
    ok = True
    first, second = (t.snapshot() for t in traces)
    if first != second:
        ok = False
        diff = sorted(k for k in first.keys() | second.keys() if first.get(k) != second.get(k))
        print(f"trace self-check failed: counts or spans differ in {diff}", file=sys.stderr)

    tracer, traced = traces[0], passes[0]
    inside = tracer.root_span_seconds()
    for i, request in enumerate(batch):
        print(f"{request.label}: {traced.latencies[i]:.3f} s, "
              f"{inside.get(i, 0.0):.3f} s in layer spans", file=sys.stderr)
    layers_s = sum(tracer.busy.values())
    unattributed = traced.wall - layers_s - traced.bench
    if abs(unattributed) > UNATTRIBUTED_MAX * traced.wall:
        ok = False
        print(f"trace self-check failed: {unattributed:.3f} s of {traced.wall:.3f} s "
              "is neither layer self time nor benchmark work", file=sys.stderr)

    metrics = tracer.layer_metrics()
    metrics["bench.busy_s"] = traced.bench
    metrics["trace.unattributed_s"] = unattributed
    metrics["trace.wall_s"] = traced.wall
    metrics["trace.overhead_frac"] = traced.wall / baseline.wall - 1.0
    return metrics, ok, passes


def main(argv=None):
    args = _parse(argv)
    if not (SRC / "susyband" / "__init__.py").is_file():
        print(f"bench: no susyband sources under {SRC}", file=sys.stderr)
        return 2
    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
    try:
        workloads, Tracer = _import_program(workdir)
        batch = workloads.WORKLOADS[args.workload]().setup(args.seed, workdir)
        setup_s = time.perf_counter() - _T_START
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())

        if not args.trace:
            setups = [setup_s] + [_fresh_setup(args) for _ in range(SETUP_REPEATS - 1)]
            passes = [run_batch(batch, workdir)]
            while sum(p.wall for p in passes) < args.seconds:
                passes.append(run_batch(batch, workdir))
            metrics = {
                "wall_s": statistics.median(p.wall for p in passes),
                "op_p50_s": statistics.median(t for p in passes for t in p.latencies),
                "setup_s": statistics.median(setups),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            _emit(metrics, declared["end_to_end"], True, passes)
            return 0

        baseline = run_batch(batch, workdir)
        metrics, ok, traced = _traced(batch, workdir, baseline, workloads, Tracer)
        passes = [baseline, *traced]
        metrics.update(_accuracy(passes, workloads.ACCURACY))
        outcomes = [o for p in passes for o in p.outcomes]
        metrics["failed_frac"] = sum(o.failure is not None for o in outcomes) / len(outcomes)
        _emit(metrics, declared["per_layer"], ok, passes)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if not any(scratch.iterdir()):
            scratch.rmdir()


if __name__ == "__main__":
    sys.exit(main())
