#!/usr/bin/env python3
"""dirkit end-to-end and per-layer benchmark.

    python3 perfbench/run.py                          # all workloads, 10 s each
    python3 perfbench/run.py --workload order-sweep --seed 3 --seconds 10 --trace 0

Run from the root of a dirkit checkout: the package is imported from its
`src/` directory and nowhere else. Each workload is a closed loop in one
process: the next operation starts when the previous one returns. Every
output is checked against an oracle computed apart from the program.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
metrics are the end-to-end ones; with `--trace 1` they are the per-layer
ones, from spans recorded around dirkit's functions (see tracing.py).
See README.md for the workloads and the metrics.
"""

import os

# Pin BLAS threads before numpy loads; the child processes inherit this.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from oracles import Mismatch  # noqa: E402
from tracing import Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("order-sweep", "offgrid-reads", "cli-pipeline")
SETUP_REPEATS = 5
PROBE_REPEATS = 5
MAX_REPORTED_ERRORS = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="operation time to measure per run, in whole rounds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics instead of end-to-end ones")
    return parser.parse_args(argv)


def import_dirkit():
    """Import dirkit from this checkout's src/ only; exit 2 when it is absent."""
    if not (SRC / "dirkit" / "__init__.py").is_file():
        sys.exit(f"perfbench: no dirkit package under {SRC}; run from a dirkit checkout")
    sys.path.insert(0, str(SRC))
    import dirkit

    if Path(dirkit.__file__).resolve().parent != SRC / "dirkit":
        sys.exit(f"perfbench: imported dirkit from {dirkit.__file__}, not {SRC}")


def environment():
    import scipy

    def imports(module):
        probe = subprocess.run(
            [sys.executable, "-c", f"import {module}"], capture_output=True, check=False
        )
        return probe.returncode == 0

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "numba_imports": imports("numba"),
        "h5py_imports": imports("h5py"),
    }


class Tally:
    """Operations attempted and failed, and whether any failure was unexpected."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def record(self, op, out):
        self.attempted += 1
        try:
            op.check(out)
        except Mismatch as exc:
            self.failed += 1
            if not exc.known:
                self.errors.append(f"{op.kind}: {exc}")
        except Exception:  # output the check could not even read
            self.failed += 1
            self.errors.append(f"{op.kind}: {traceback.format_exc(limit=3)}")

    def record_exception(self, op):
        self.attempted += 1
        self.failed += 1
        self.errors.append(f"{op.kind}: {traceback.format_exc(limit=3)}")

    @property
    def correct(self):
        return not self.errors


def run_ops(ops, tally, latencies, kinds=None):
    """Run each operation, timing `run` alone, then check its output."""
    for op in ops:
        start = time.perf_counter()
        try:
            out = op.run()
        except Exception:  # an operation that raises is a failed operation
            latencies.append(time.perf_counter() - start)
            tally.record_exception(op)
            continue
        elapsed = time.perf_counter() - start
        latencies.append(elapsed)
        if kinds is not None:
            kinds.setdefault(op.kind, []).append(elapsed)
        tally.record(op, out)


def timed_setup(workload, params):
    start = time.perf_counter()
    state = workload.setup(params)
    return state, time.perf_counter() - start


def make_workload(name, workdir, in_process):
    import workloads  # imports dirkit, so only after import_dirkit()

    if name == "order-sweep":
        return workloads.OrderSweep()
    if name == "offgrid-reads":
        return workloads.OffgridReads()
    return workloads.CliPipeline(workdir, child_env(), in_process=in_process)


def child_env():
    """The environment of dirkit subprocesses: this checkout's src/ first."""
    return dict(os.environ, PYTHONPATH=str(SRC))


def measure(name, seed, seconds, workdir):
    """Untraced run: end-to-end metrics."""
    workload = make_workload(name, workdir, in_process=False)
    rng = np.random.default_rng(seed)
    params = workload.params(rng)
    setup_s = []
    for _ in range(SETUP_REPEATS):
        state = None
        gc.collect()
        state, elapsed = timed_setup(workload, params)
        setup_s.append(elapsed)
    oracle = workload.prepare(params, state)

    tally, latencies = Tally(), []
    rounds = 0
    while rounds < workload.min_rounds or sum(latencies) < seconds:
        run_ops(workload.round(state, oracle, rng), tally, latencies)
        rounds += 1

    who = resource.RUSAGE_CHILDREN if name == "cli-pipeline" else resource.RUSAGE_SELF
    lat_ms = np.array(latencies) * 1e3
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "ops_per_s": (len(latencies) / sum(latencies), "1/s"),
        "op_ms_p50": (float(np.percentile(lat_ms, 50)), "ms"),
        "op_ms_p99": (float(np.percentile(lat_ms, 99)), "ms"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss * 1024 / 1e6, "MB"),
    }
    notes = {"rounds": rounds, "operations": len(latencies), "setup_repeats": SETUP_REPEATS}
    return tally, metrics, notes


def interpreter_probe(code, self_timed=False):
    """Median milliseconds over fresh interpreters running `code`: wall time,
    or, when `self_timed`, the seconds the child prints itself."""
    timings = []
    for _ in range(PROBE_REPEATS):
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-c", code], env=child_env(),
            capture_output=True, text=True, check=True,
        )
        elapsed = time.perf_counter() - start
        timings.append(float(done.stdout) if self_timed else elapsed)
    return statistics.median(timings) * 1e3


def measure_traced(name, seed, workdir):
    """Traced run: per-layer metrics over one set-up and a fixed number of
    rounds. The work runs three times: a warm-up, then without spans, then
    with them; the last two differ in wall time by the tracing overhead."""
    workload = make_workload(name, workdir, in_process=True)
    tally = Tally()
    oracle = None
    walls, per_command = {}, {}
    tracer = Tracer()
    cli = name == "cli-pipeline"
    for phase in ("warm-up", "untraced", "traced"):
        rng = np.random.default_rng(seed)
        params = workload.params(rng)
        gc.collect()
        if phase == "traced":
            tracer.install()
        try:
            state, setup_elapsed = timed_setup(workload, params)
            if oracle is None:
                oracle = workload.prepare(params, state)
            latencies = []
            kinds = per_command if cli and phase == "untraced" else None
            for _ in range(workload.trace_rounds):
                run_ops(workload.round(state, oracle, rng), tally, latencies, kinds)
        finally:
            tracer.uninstall()
        walls[phase] = setup_elapsed + sum(latencies)
        state = None

    metrics = tracer.metrics()
    commands = ("info", "fit", "diff", "sweep", "spectrum", "balloon", "extract-ir", "convert")
    metrics["cli.interpreter_ms"] = (interpreter_probe("pass") if cli else 0.0, "ms")
    import_code = (
        "import time; t = time.perf_counter(); import dirkit.cli; "
        "print(time.perf_counter() - t)"
    )
    metrics["cli.import_ms"] = (interpreter_probe(import_code, True) if cli else 0.0, "ms")
    for command in commands:
        # Per round: diff runs twice a round, so its two times add up.
        total = sum(per_command.get(command, [])) / workload.trace_rounds
        metrics[f"cli.{command}.ms"] = (total * 1e3, "ms")
    metrics["trace.overhead_ms"] = ((walls["traced"] - walls["untraced"]) * 1e3, "ms")
    return tally, metrics, {"trace_rounds": workload.trace_rounds}


def run_one(args):
    import_dirkit()
    env = environment()
    print("environment: " + json.dumps(env, sort_keys=True))
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            tally, metrics, notes = measure_traced(args.workload, args.seed, workdir)
        else:
            tally, metrics, notes = measure(args.workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    for message in tally.errors[:MAX_REPORTED_ERRORS]:
        print(f"unexpected failure: {message}", file=sys.stderr)
    print(f"workload {args.workload} (seed {args.seed}, {json.dumps(notes)}): "
          f"{tally.attempted} operations attempted, {tally.failed} failed")
    for key, (value, unit) in metrics.items():
        print(f"  {key} = {value:.6g} {unit}")
    result = {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args):
    """Each workload in its own process, so that peak memory is its own."""
    results = {}
    for name in WORKLOAD_NAMES:
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if child.returncode != 0 or not lines:
            print(f"workload {name} exited with code {child.returncode}", file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
