"""Benchmark of the quditcorr discord pipeline, run against ``src/`` of this checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S] [--trace 0|1]

One process and one closed-loop caller make every call; there are no threads
or process pools, and BLAS threads are capped at the number of usable cores.
Set-up (input generation, file writes, one warm-up pass) runs several times
and reports its median. The run then makes whole passes over the workload's
ops for ``--seconds`` and checks every op's output outside the timed region.

With ``--trace 0`` the last line holds the end-to-end metrics. With
``--trace 1`` the run makes untraced passes for half the time, then the same
number of passes with spans around the package's public functions, and the
last line holds per-layer metrics per pass. ``--workload all`` runs every
workload in its own process and prints one table. NOTES.md explains the
workloads, metrics and checks.
"""

from __future__ import annotations

import argparse
import array
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
import time
from pathlib import Path

from spans import COUNTERS, LAYER_FIELDS, LAYERS, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
SETUP_MIN_REPEATS = 5
SETUP_MIN_SECONDS = 2.0
FAILURES_SHOWN = 5
TAIL_LADDER = (99.9, 99.0, 90.0, 50.0)
MIN_BEYOND_TAIL = 10
MAX_SPANS = 100_000  # keeps a traced run's memory and span file small
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_ops_s": "ops/s",
    "latency_p50_us": "us",
    "latency_tail_us": "us",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict:
    units = {}
    for layer in LAYERS:
        for field in LAYER_FIELDS:
            units[f"{layer}.{field}"] = "us/pass" if field.endswith("_us") else "count/pass"
    for name in COUNTERS:
        units[name] = "B/pass" if "bytes" in name else "count/pass"
    units["cli.main.known_defect_ops"] = "count/pass"
    units["trace.overhead_pct"] = "%"
    return units


def run_passes(wl, ops, stop):
    """Whole passes over ``ops`` until ``stop(passes done)`` is true.

    Only the call is timed. Returns per-op latencies in ns, the failed op
    count and the passes made. The latencies are a packed array, so that
    their memory hardly adds to ``peak_rss_mb`` however many ops fit.
    """
    clock = time.perf_counter_ns
    latencies, failed, done = array.array("q"), 0, 0
    gc.collect()
    while True:
        for op in ops:
            start = clock()
            try:
                out = op.run()
            except Exception as exc:  # a failed op is counted, not fatal
                latencies.append(clock() - start)
                problem = f"raised {exc!r}"
            else:
                latencies.append(clock() - start)
                if wl.check(op, out):
                    continue
                problem = "returned a wrong output"
            failed += 1
            if failed <= FAILURES_SHOWN:
                print(f"op {op.key[:2]!r} {problem}", file=sys.stderr)
        done += 1
        if stop(done):
            return latencies, failed, done


def for_seconds(seconds: float):
    deadline = time.perf_counter() + seconds
    return lambda done: time.perf_counter() >= deadline


def tail_latency(latencies, cap: float):
    """Highest ladder percentile, at most ``cap``, with ten samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    for pct in TAIL_LADDER:
        rank = math.ceil(pct / 100 * n)
        if pct <= cap and n - rank >= MIN_BEYOND_TAIL:
            break
    return pct, ordered[max(rank, 1) - 1]


def set_up(workload_cls, seed: int, workdir: Path):
    """Repeated set-up, so that its median rides out a stall of the machine.

    Returns the last workload, its ops and every set-up time.
    """
    times = []
    while len(times) < SETUP_MIN_REPEATS or sum(times) < SETUP_MIN_SECONDS:
        shutil.rmtree(workdir, ignore_errors=True)
        start = time.perf_counter()
        wl = workload_cls(seed, workdir)
        ops = wl.setup()
        for op in ops:
            try:
                op.run()
            except Exception:  # the measured passes count and report it
                pass
        times.append(time.perf_counter() - start)
    return wl, ops, times


def read_exponent(reads_by_dims: dict):
    import numpy as np

    square = sorted((da, n) for (da, db), n in reads_by_dims.items() if da == db)
    if len(square) < 3:
        return None
    d, n = np.array(square, dtype=float).T
    return float(np.polyfit(np.log(d), np.log(n), 1)[0])


def bench(workload_cls, seed: int, seconds: float, trace: bool):
    name = workload_cls.name
    workdir = OUT_DIR / f"work-{name}-{seed}-{os.getpid()}"
    try:
        wl, ops, setup_times = set_up(workload_cls, seed, workdir)
        wl.expect(ops)
        notes = {"setup_repeats": len(setup_times), "inputs_per_pass": len(ops)}
        if not trace:
            latencies, failed, passes = run_passes(wl, ops, for_seconds(seconds))
            pct, tail_ns = tail_latency(latencies, wl.tail_pct)
            metrics = {
                "setup_s": statistics.median(setup_times),
                "throughput_ops_s": len(latencies) / (sum(latencies) / 1e9),
                "latency_p50_us": statistics.median(latencies) / 1e3,
                "latency_tail_us": tail_ns / 1e3,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            notes.update(tail_percentile=pct, latency_samples=len(latencies), passes=passes)
            attempted, checked_passes = len(latencies), passes
        else:
            plain, failed_plain, plain_passes = run_passes(wl, ops, for_seconds(seconds / 2))
            tracer = Tracer()
            tracer.install()
            try:
                traced, failed_traced, passes = run_passes(
                    wl, ops, lambda done: done >= plain_passes or len(tracer.spans) >= MAX_SPANS
                )
            finally:
                tracer.uninstall()
            spans_path = OUT_DIR / f"spans-{name}-seed{seed}.csv"
            tracer.write_spans(spans_path)
            metrics = tracer.layer_values(passes)
            overhead = (sum(traced) / passes) / (sum(plain) / plain_passes) - 1
            metrics["trace.overhead_pct"] = overhead * 100
            failed = failed_plain + failed_traced
            attempted, checked_passes = len(plain) + len(traced), plain_passes + passes
            hs_busy = metrics["discord.discord_hs.busy_us"]
            notes.update(
                untraced_passes=plain_passes,
                traced_passes=passes,
                spans_file=str(spans_path.relative_to(ROOT)),
                spans=len(tracer.spans),
                eig_sym_share_of_discord_hs=(
                    metrics["linalg.eig_sym.busy_us"] / hs_busy if hs_busy else None
                ),
                corrmat_read_exponent=read_exponent(tracer.reads_by_dims),
            )
        metrics["cli.main.known_defect_ops"] = wl.known_defects / checked_passes
        notes.update(known_defect_ops=wl.known_defects)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return attempted, failed, metrics, notes


def run_all(args, names) -> int:
    """Every workload in a process of its own, printed as one table."""
    ok = True
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            ok = False
            continue
        result = json.loads(lines[-1])
        ok = ok and result["correct"]
        print(f"== {name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:45s} {entry['value']:>16.6g} {entry['unit']}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name, or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "quditcorr" / "__init__.py").is_file():
        print(f"error: no quditcorr package under {SRC}", file=sys.stderr)
        return 2
    # The cap must be in place before numpy loads its BLAS.
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:
        os.environ[var] = str(nproc)
    sys.path.insert(0, str(SRC))
    import numpy
    import quditcorr

    if not Path(quditcorr.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: quditcorr resolved to {quditcorr.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args, list(WORKLOADS))
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)} or all")
    OUT_DIR.mkdir(exist_ok=True)

    attempted, failed, values, notes = bench(
        WORKLOADS[args.workload], args.seed, args.seconds, args.trace
    )
    units = per_layer_units() if args.trace else END_TO_END_UNITS
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    for name, entry in metrics.items():
        print(f"{name:45s} {entry['value']:>16.6g} {entry['unit']}")
    env = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": nproc,
        "blas_threads": {var: os.environ[var] for var in BLAS_VARS},
    }
    print(json.dumps({"env": env, "notes": notes}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
