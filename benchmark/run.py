"""biphoton benchmark: one workload, one closed-loop client, in-process.

    python3 benchmark/run.py --workload scan --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from ./src.
Each command is a call of biphoton.cli.main(argv), made only after the
previous one returned.  After a warm-up round the benchmark issues whole
rounds (see workloads.py) until --seconds have passed, then checks every
output (see checks.py).  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end metrics of BENCHMARK.json; with --trace 1
rounds alternate untraced and traced and the metrics are the per-layer
ones (see tracing.py), plus the tracing overhead.  Spans are written to
benchmark/out/ when the run ends.

BLAS is pinned to one thread before numpy loads: the figures are a
single-threaded baseline.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import ctypes
import io
import json
import math
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

import checks
import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
SPEC_PATH = BENCH_DIR.parent / "BENCHMARK.json"
REFERENCE_PATH = BENCH_DIR / "reference.json"
OUT_DIR = BENCH_DIR / "out"

#: Fresh interpreters timed for setup_s, back to back before the warm-up,
#: while the benchmark process itself is idle.
SETUP_CHILDREN = 41
_SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); "
               "import biphoton.cli; biphoton.cli.list_presets()")

#: Tail percentile per workload, fixed so that runs of different speed
#: report the same statistic.  Each is the highest multiple of 5 that
#: keeps TAIL_MIN_BEYOND commands beyond it in a 30 s run even at half
#: the throughput measured when it was chosen (scan 3.3, classify 6.3,
#: oracle 9.5 commands/s on 2 vCPUs).  A run with fewer fails.
TAIL_PERCENTILE = {"scan": 75.0, "classify": 85.0, "oracle": 90.0}
TAIL_MIN_BEYOND = 10

#: The layers each workload is built to stress.
TARGET_LAYERS = {"scan": ("beamsplitter",), "classify": ("correlation", "symmetry"),
                 "oracle": ("oracle",)}


def import_program(root: Path):
    """Import biphoton.cli from root/src, and only from there."""
    src = (root / "src").resolve()
    if not (src / "biphoton" / "cli.py").is_file():
        raise SystemExit(f"benchmark: no biphoton sources under {src}")
    sys.path.insert(0, str(src))
    import biphoton.cli

    if src not in Path(biphoton.cli.__file__).resolve().parents:
        raise SystemExit(f"benchmark: imported biphoton from {biphoton.cli.__file__}")
    return src, biphoton.cli


def setup_times(src: Path, root: Path) -> list[float]:
    """Wall times of SETUP_CHILDREN fresh interpreters that import the CLI
    and list the presets.  One untimed child first compiles the bytecode,
    which users pay once."""

    def spawn() -> float:
        t0 = perf_counter()
        # No timeout: with one, the wait polls with sleeps up to 50 ms long
        # and the measured times snap to that grid.
        subprocess.run([sys.executable, "-c", _SETUP_CODE, str(src)], cwd=root,
                       check=True, stdout=subprocess.DEVNULL)
        return perf_counter() - t0

    spawn()
    return [spawn() for _ in range(SETUP_CHILDREN)]


def _getconf(name: str):
    try:
        done = subprocess.run(["getconf", name], capture_output=True, text=True, timeout=10)
        return int(done.stdout.strip())
    except (OSError, ValueError, subprocess.SubprocessError):
        return None


def _blas_threads():
    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib_path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(lib_path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return None


def run_context(workload: str, seed: int, seconds: float) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    n = workloads.GRID_POINTS[workload]
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "l2_cache_bytes": _getconf("LEVEL2_CACHE_SIZE"),
        "l3_cache_bytes": _getconf("LEVEL3_CACHE_SIZE"),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": _blas_threads(),
        "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"],
        "N": n,
        "K": workloads.ORACLE_BINS if workload == "oracle" else None,
        "tail_percentile": TAIL_PERCENTILE[workload],
        "bytes_per_amplitude_computed": 16 * n * n,
    }


class Runner:
    """Runs commands in-process and keeps their latencies and outputs."""

    def __init__(self, cli, references: dict, tracer: tracing.Tracer | None = None):
        self.cli = cli
        self.references = references
        self.tracer = tracer
        self.latencies: list[float] = []
        self.attempted = 0
        self.failures: list[str] = []

    def call(self, cmd: workloads.Command, traced: bool):
        out, err = io.StringIO(), io.StringIO()
        tracer = self.tracer if traced else None
        code = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if tracer is not None:
                tracer.command_id += 1
                span = tracer.open(tracing.ROOT)
            t0 = perf_counter()
            try:
                code = self.cli.main(list(cmd.argv))
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # a crash fails this command, not the run
                err.write(traceback.format_exc())
            elapsed = perf_counter() - t0
            if tracer is not None:
                tracer.close(span)
        return elapsed, code, out.getvalue(), err.getvalue()

    def check(self, cmd, code, stdout: str, stderr: str) -> None:
        self.attempted += 1
        if code != 0:
            problems = [f"exit code {code}: {stderr.strip()[-300:]}"]
        else:
            try:
                problems = checks.check(cmd, checks.collect(cmd, stdout), self.references)
            except (OSError, ValueError, KeyError) as exc:
                problems = [f"unreadable output: {exc!r}"]
        if problems:
            self.failures.append(f"{' '.join(cmd.argv)}: {'; '.join(problems)}")


def run_rounds(args, runner: Runner, work_dir: Path) -> dict:
    """Warm up, then issue whole rounds until the run length is used."""
    rng = random.Random(args.seed)
    round_index = 0

    def next_round():
        nonlocal round_index
        round_index += 1
        return workloads.make_round(args.workload, rng, work_dir, round_index)

    for cmd in next_round():  # warm-up: caches fill, lazy set-up finishes
        runner.call(cmd, traced=False)

    wall = {False: 0.0, True: 0.0}
    commands = {False: 0, True: 0}
    patches = []
    pending = []
    try:
        while wall[False] + wall[True] < args.seconds or (args.trace and commands[True] == 0):
            traced = bool(args.trace) and commands[False] > commands[True]
            if traced:
                patches = tracing.install(runner.tracer)
            batch = next_round()
            t0 = perf_counter()
            for cmd in batch:
                elapsed, code, stdout, stderr = runner.call(cmd, traced)
                pending.append((cmd, code, stdout, stderr))
                if not traced:
                    runner.latencies.append(elapsed)
            wall[traced] += perf_counter() - t0
            commands[traced] += len(batch)
            tracing.uninstall(patches)
            patches = []
    finally:
        tracing.uninstall(patches)
    for cmd, code, stdout, stderr in pending:
        runner.check(cmd, code, stdout, stderr)
    return {"wall": wall, "commands": commands, "rounds": round_index - 1}


def tail(latencies: list[float], percentile: float) -> float:
    """The nearest-rank percentile; fails with too few samples beyond it."""
    ordered = sorted(latencies)
    rank = math.ceil(percentile / 100.0 * len(ordered))
    if len(ordered) - rank < TAIL_MIN_BEYOND:
        raise SystemExit(f"benchmark: {len(ordered)} latencies leave fewer than "
                         f"{TAIL_MIN_BEYOND} beyond p{percentile:g}")
    return ordered[rank - 1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GRID_POINTS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    spec = json.loads(SPEC_PATH.read_text(encoding="utf-8"))
    src, cli = import_program(root)
    references = json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))
    setup = None if args.trace else setup_times(src, root)
    context = run_context(args.workload, args.seed, args.seconds)
    print("context " + json.dumps(context, sort_keys=True))

    runner = Runner(cli, references, tracing.Tracer() if args.trace else None)
    OUT_DIR.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"run-{args.workload}-", dir=OUT_DIR))
    try:
        summary = run_rounds(args, runner, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    wall, commands = summary["wall"], summary["commands"]
    throughput = commands[False] / wall[False]
    print(f"rounds = {summary['rounds']}, commands = {runner.attempted} "
          f"(timed untraced: {commands[False]} in {wall[False]:.3f} s)")
    for failure in runner.failures[:5]:
        print(f"FAILED {failure}")
    if args.trace:
        traced_throughput = commands[True] / wall[True]
        values = tracing.layer_metrics(runner.tracer)
        values["trace.overhead_frac"] = 1.0 - traced_throughput / throughput
        print(f"throughput untraced = {throughput:.4f} cmd/s, traced = "
              f"{traced_throughput:.4f} cmd/s, {commands[True]} traced commands")
        trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        trace_path.write_text(json.dumps({"context": context, **runner.tracer.to_json()}))
        print(f"spans = {trace_path}")
        target = TARGET_LAYERS[args.workload]
        print(f"target layers {'+'.join(target)}: "
              f"{tracing.inclusive_share(runner.tracer, target):.3f} of command time inside "
              f"their spans, {sum(values[f'{t}.share'] for t in target):.3f} in their own code")
        wanted = spec["per_layer"]
    else:
        percentile = TAIL_PERCENTILE[args.workload]
        tail_value = tail(runner.latencies, percentile)
        ok = runner.attempted - len(runner.failures)
        values = {
            "throughput_cmd_per_s": throughput,
            "latency_p50_s": statistics.median(runner.latencies),
            "latency_tail_s": tail_value,
            "ok_frac": ok / runner.attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
            "setup_s": statistics.median(setup),
        }
        print(f"latency samples = {len(runner.latencies)}, latency_tail_s is p{percentile:g}, "
              f"setup samples = {len(setup)}, fail_frac = {1 - values['ok_frac']:.6g}")
        wanted = spec["end_to_end"]

    metrics = {}
    for entry in wanted:
        name = entry["name"]
        if name in values:
            value = values[name]
        elif name.endswith(("_s", ".calls")):
            value = 0.0  # a span that never opened: the layer was not called
        else:
            raise KeyError(f"benchmark computes no metric {name!r}")
        metrics[name] = {"value": value, "unit": entry["unit"]}
        print(f"{name} = {value:.6g} {entry['unit']}")
    result = {"correct": not runner.failures, "attempted": runner.attempted,
              "failed": len(runner.failures), "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
