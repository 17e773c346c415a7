"""Benchmark harness for maxlindag: one workload per run, or all of them.

    python3 perfbench/run.py --workload identify-small --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the library is imported from its
``src`` directory.  Set-up (importing maxlindag and generating the
workload's inputs from the seed with the library) is repeated and its
median reported as ``setup_s``.  The known answers and input files are
then prepared once, untimed.  The timed phase then runs passes over the
inputs until ``--seconds`` are used up.  With ``--trace 0`` it prints the
end-to-end metrics; with ``--trace 1`` it spends half the time untraced and
half with every layer function wrapped, and prints the per-layer metrics.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import os

# One caller thread and a one-thread BLAS pool, so the whole run stays
# within two cores whatever the environment says.  Must happen before numpy
# is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import importlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 9

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "model_p50_ms": "ms",
    "model_p90_ms": "ms",
    "peak_rss_mb": "MB",
}
LAYER_UNITS = {
    "mlcm.ns_per_triple": "ns",
    "simulate.values_per_s": "1/s",
    "taildep.filter_pass_ratio": "ratio",
    "identify.leaf_yield": "ratio",
    "io.bytes_read": "B",
    "io.bytes_written": "B",
}


def layer_unit(name: str) -> str:
    return LAYER_UNITS.get(name, "s" if name.endswith("_s") else "count")


def import_library():
    """Import maxlindag afresh from this checkout's sources."""
    if not (SRC / "maxlindag" / "__init__.py").is_file():
        raise FileNotFoundError(f"no maxlindag sources under {SRC}")
    for name in [n for n in sys.modules if n == "maxlindag" or n.startswith("maxlindag.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    lib = importlib.import_module("maxlindag")
    importlib.import_module("maxlindag.cli")
    if Path(lib.__file__).resolve().parent != SRC / "maxlindag":
        raise ImportError(f"maxlindag imported from {lib.__file__}, not from {SRC}")
    return lib


def blas_threads() -> str:
    # Ask the loaded OpenBLAS itself; its symbol names depend on the build.
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:
        paths = set()
    for path in sorted(paths):
        try:
            blas = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(blas, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return "unknown (OPENBLAS_NUM_THREADS=" + os.environ.get("OPENBLAS_NUM_THREADS", "") + ")"


def machine_record() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
    }


def run_passes(workload, lib, inputs, gate, budget_s, min_passes):
    """Closed loop over passes until the budget is spent; item latencies per pass."""
    passes, walls = [], []
    start = time.perf_counter()
    while True:
        gate.new_pass()
        t0 = time.perf_counter()
        passes.append(workload.run_pass(lib, inputs, len(passes), gate))
        walls.append(time.perf_counter() - t0)
        spent = time.perf_counter() - start
        if len(passes) >= min_passes and spent + statistics.median(walls) > budget_s:
            return passes


def wall(passes) -> float:
    return statistics.median(sum(items) for items in passes)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = workloads.WORKLOADS[name]
    gate = workloads.Gate()
    import_library()  # fail before writing anything when the sources are missing
    state = ROOT / ".perfbench"
    state.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=state))
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            lib = import_library()
            generated = workload.generate(lib, seed)
            setups.append(time.perf_counter() - t0)
        inputs = workload.prepare(lib, generated, workdir)

        if not trace:
            passes = run_passes(workload, lib, inputs, gate, seconds, workload.min_passes)
            items = [t for p in passes for t in p]
            metrics = {
                "setup_s": statistics.median(setups),
                "wall_s": wall(passes),
                "model_p50_ms": float(np.quantile(items, 0.5)) * 1e3,
                "model_p90_ms": float(np.quantile(items, 0.9)) * 1e3,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            units = END_TO_END
            print(f"passes: {len(passes)}, items timed: {len(items)}")
        else:
            plain = run_passes(workload, lib, inputs, gate, seconds / 2, workload.min_passes)
            recorder = spans.Recorder()
            undo = spans.install(lib, recorder)
            try:
                traced = run_passes(workload, lib, inputs, gate, seconds / 2, 1)
            finally:
                spans.uninstall(undo)
            metrics = spans.layer_metrics(recorder.spans, len(traced))
            metrics["trace.passes"] = len(traced)
            metrics["trace.overhead_s"] = wall(traced) - wall(plain)
            units = {m: layer_unit(m) for m in metrics}
            print(f"passes: {len(plain)} untraced, {len(traced)} traced, "
                  f"spans: {len(recorder.spans)}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"failed_share: {gate.failed / max(gate.attempted, 1):.6g} "
          f"(failed {gate.failed} of attempted {gate.attempted})")
    for defect, count in sorted(gate.known.items()):
        print(f"known defect: {count} x {defect}")
    for failure in gate.unexplained[:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    for metric, value in metrics.items():
        print(f"{metric}: {value:.6g} {units[metric]}")
    return {
        "correct": gate.correct,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }


def run_all(args) -> dict:
    """Each workload in its own process, so peak_rss_mb stays per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        print(f"== {name}", flush=True)
        child = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if child.returncode != 0 or not lines:
            raise RuntimeError(f"workload {name} exited with code {child.returncode}")
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    record = machine_record()
    print("machine: " + ", ".join(f"{k}={v}" for k, v in record.items()))
    print(f"workload: {args.workload}, seed: {args.seed}, seconds: {args.seconds:g}, "
          f"trace: {args.trace}")
    try:
        if args.workload == "all":
            result = run_all(args)
        else:
            result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except (ImportError, FileNotFoundError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
