"""Benchmark of vstates, end to end and layer by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cold-solve --seed 1 --seconds 20 --trace 0

runs one workload in this process.  It builds the workload's inputs from
the seed, repeats whole rounds of its timed calls until --seconds have
passed, checks every output after the last round, and prints as its last
line one JSON object: whether the outputs were correct, how many
operations it attempted and how many failed, and the metrics.  With
--trace 0 those are the end-to-end metrics; with --trace 1 each call
into a layer is a span (see spans.py) and the metrics are per layer.
A line before it gives the context: backend, threads, versions, inputs.

Without --workload, every workload runs in a fresh process of its own,
in turn, and the results go to .bench_out/bench-seed<seed>[-trace].json.
"""

import time

_START = time.perf_counter()

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("cold-solve", "branch-sweep", "branch-end", "grid-refinement")

# Inputs are built this many times; setup_s counts the median build.
SETUP_REPEATS = 3

# numpy and scipy each load an OpenBLAS that starts a pool of nproc - 1
# threads, which would give a workload process more threads than cores.
# The workloads' only BLAS calls are small LU factorizations and
# matrix-vector products, so one BLAS thread each costs nothing.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}

END_TO_END = {"wall_s": "s", "states_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "calls": "count",
    "pairs": "count",
    "bytes": "B",
    "pairs_per_s": "1/s",
    "steps": "count",
    "wasted_steps": "count",
    "useful_ratio": "ratio",
    "attempts_per_state": "ratio",
    "minor_faults": "count",
}


def _layer_unit(name: str) -> str:
    last = name.rsplit(".", 1)[-1]
    if name == "kernels.kernel_sums.bytes":
        return "B-computed"
    return PER_LAYER_UNITS.get(last, "s")


def _context(workload) -> dict:
    import numpy
    import scipy

    import vstates.kernels

    threads = None
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("Threads:"):
                    threads = int(line.split()[1])
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload.name,
        "params": workload.params,
        "backend": vstates.kernels.active_backend(),
        "nproc": os.cpu_count(),
        "os_threads": threads,
        "thread_env": {
            name: os.environ.get(name)
            for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def _usage() -> tuple[float, float, int]:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime, usage.ru_stime, usage.ru_minflt


def _run_round(operations, round_result):
    """Call each operation once, in order, timing each."""
    data, times, states = [], [], 0
    for operation in operations:
        began = time.perf_counter()
        output, count = operation()
        times.append(time.perf_counter() - began)
        data.append(output)
        states += count
    return round_result(data, times, states)


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> int:
    for variable, value in BLAS_THREADS.items():
        os.environ.setdefault(variable, value)
    sys.path.insert(0, str(ROOT / "src"))
    import spans
    import workloads

    workload = workloads.WORKLOADS[name]
    imported = time.perf_counter() - _START
    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
    try:
        builds = []
        for _ in range(SETUP_REPEATS):
            began = time.perf_counter()
            inputs = workload.build(seed, tmp)
            builds.append(time.perf_counter() - began)
        setup_s = imported + statistics.median(builds)

        tracer = spans.Tracer() if traced else None
        if tracer is not None:
            tracer.install()
        operations = workload.operations(inputs)
        rounds, walls, usages = [], [], []
        began = time.perf_counter()
        while not rounds or time.perf_counter() - began < seconds:
            if tracer is not None:
                tracer.round = len(rounds)
            before = _usage()
            t0 = time.perf_counter()
            rounds.append(_run_round(operations, workloads.RoundResult))
            walls.append(time.perf_counter() - t0)
            usages.append([b - a for a, b in zip(before, _usage())])
        if tracer is not None:
            tracer.uninstall()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        context = _context(workload)

        errors = workload.check(inputs, rounds)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    for index, (result, wall) in enumerate(zip(rounds, walls)):
        print(
            f"{name} round {index}: {wall:.3f} s, {result.states} states, "
            f"{result.failed}/{len(result.data)} failed, operations "
            + " ".join(f"{t:.3f}" for t in result.times),
            file=sys.stderr,
        )
    for error in errors:
        print(f"{name}: check failed: {error}", file=sys.stderr)

    if tracer is None:
        # Identical work runs 10-20 % slower at times on a shared host, and
        # such noise only adds time: take each operation's fastest round.
        wall_s = sum(map(min, zip(*(result.times for result in rounds))))
        values = {
            "wall_s": wall_s,
            "states_per_s": statistics.median(result.states for result in rounds) / wall_s,
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {key: {"value": values[key], "unit": unit} for key, unit in END_TO_END.items()}
    else:
        tracer.write(str(OUT / f"trace-{name}-seed{seed}.jsonl"))
        per_round = []
        for index, wall in enumerate(walls):
            values = tracer.round_metrics(index, wall)
            user, system, faults = usages[index]
            values.update(
                {"process.cpu_user_s": user, "process.cpu_sys_s": system, "process.minor_faults": faults}
            )
            per_round.append(values)
        metrics = {
            key: {
                "value": statistics.median(values[key] for values in per_round),
                "unit": _layer_unit(key),
            }
            for key in per_round[0]
        }

    print(json.dumps({"context": context}))
    print(
        json.dumps(
            {
                "correct": not errors,
                "attempted": sum(len(result.data) for result in rounds),
                "failed": sum(result.failed for result in rounds),
                "metrics": metrics,
            }
        )
    )
    return 0


def run_all(seed: int, seconds: float, traced: bool) -> int:
    """Each workload in a fresh process; prints and saves every metric."""
    results = {}
    status = 0
    for name in WORKLOADS:
        command = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(traced)),
        ]
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or len(lines) < 2:
            print(f"{name}: exited with {done.returncode}", file=sys.stderr)
            status = 1
            continue
        result = json.loads(lines[-1])
        result["context"] = json.loads(lines[-2])["context"]
        results[name] = result
        if not result["correct"]:
            status = 1
        print(
            f"{name}: correct={result['correct']} "
            f"failed={result['failed']}/{result['attempted']}"
        )
        for metric, entry in result["metrics"].items():
            print(f"  {metric:<36} {entry['value']:>14.6g} {entry['unit']}")
    OUT.mkdir(exist_ok=True)
    path = OUT / f"bench-seed{seed}{'-trace' if traced else ''}.json"
    path.write_text(json.dumps(results, indent=1) + "\n")
    print(f"results in {path}")
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "vstates" / "__init__.py").is_file():
        print(f"no vstates sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload is None:
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
