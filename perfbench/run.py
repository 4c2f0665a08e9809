"""Benchmark of qcablocks: one workload per run, in a fresh process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout that holds ``src/qcablocks`` and ``specs``.
The run builds its inputs from ``--seed``, runs a closed loop of tasks (one
caller; the next task starts when the previous one ends) until ``--seconds``
have passed and every input of the pool has run once, then checks every
task's output outside the timer.  It prints a record of the run (machine,
seed, per-task latencies, failures) and, as the last line, one JSON object
with the metrics:

* ``--trace 0``: the end-to-end metrics (``END_TO_END``), measured with no
  instrumentation.
* ``--trace 1``: the per-layer metrics (``PER_LAYER``).  The loop first runs
  untraced, then the same tasks again under the span recorder of
  ``tracer.py``; ``trace.overhead_s`` is the traced minus the untraced wall
  time, per task.  Peaks come from one more set-up and task under
  ``tracemalloc``, which is kept out of the timed spans.

``--size small`` selects the smallest inputs of each workload (for the
benchmark's own tests).  The exit code is 0 when the run completed, whether
or not tasks failed their checks; failures show in ``failed``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import zlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench-out"
SETUP_PROBES = 2  # extra fresh processes timed for setup_s

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "tasks_per_s": "1/s",
    "task_s.p50": "s",
    "task_s.tail": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "decompose.decompose_certified.self_s": "s",
    "decompose.cell_algebra_images.self_s": "s",
    "decompose.cell_algebra_images.peak_mb": "MB",
    "decompose.derive_v.self_s": "s",
    "decompose.derive_u.self_s": "s",
    "decompose.certify.self_s": "s",
    "decompose.certify.peak_mb": "MB",
    "algebra.span_algebra.self_s": "s",
    "algebra.span_algebra.peak_mb": "MB",
    "algebra.GeneratedAlgebra.projection_residual.self_s": "s",
    "algebra.GeneratedAlgebra.projection_residual.calls": "count",
    "algebra.close.self_s": "s",
    "algebra.close.calls": "count",
    "algebra.restrict.self_s": "s",
    "algebra.factor_pair.self_s": "s",
    "algebra.factor_one.self_s": "s",
    "verify.neighborhood.self_s": "s",
    "verify.neighborhood.peak_mb": "MB",
    "verify.check_inverse_locality.self_s": "s",
    "verify.fast_localization_residual.self_s": "s",
    "verify.fast_localization_residual.calls": "count",
    "verify.fast_localization_residual.calls_per_neighborhood": "count",
    "verify.check_unitary.self_s": "s",
    "verify.check_shift_invariance.self_s": "s",
    "verify.detect_signalling.self_s": "s",
    "verify.block_neighborhood.self_s": "s",
    "linalg.localization_residual.self_s": "s",
    "linalg.localization_residual.calls": "count",
    "linalg.partial_trace.self_s": "s",
    "linalg.partial_trace.calls": "count",
    "linalg.trace_distance.calls": "count",
    "model.apply_block.self_s": "s",
    "model.apply_block.calls": "count",
    "model.apply_block.peak_mb": "MB",
    "model.apply_block.terms_out": "count",
    "model.apply_block.useful_ratio": "ratio",
    "model.restrict_state.self_s": "s",
    "model.restrict_state.calls": "count",
    "model.apply_window.self_s": "s",
    "model.window_matrix.self_s": "s",
    "model.window_matrix.peak_mb": "MB",
    "model.quantize.self_s": "s",
    "serialize.load.self_s": "s",
    "serialize.qca_from_json.self_s": "s",
    "serialize.report_self_s": "s",
    "cli.main.self_s": "s",
    "trace.overhead_s": "s",
}


def single_blas_thread() -> None:
    """Run BLAS and OpenMP on one thread (at most nproc).  The benchmark is one
    caller in one process; on a 2-vCPU host, four evolve_block processes had
    medians of 1.73-2.39 s with two BLAS threads and 2.03-2.08 s with one.
    Must run before numpy is imported; the set-up probes inherit it."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "small"), default="full")
    ap.add_argument("--setup-probe", action="store_true",
                    help="only time set-up and print it (used for setup_s)")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    if args.seconds < 0:
        ap.error("--seconds must be nonnegative")
    return args


def import_program():
    """Import the benchmark's workloads and, through them, qcablocks from
    this checkout's ``src``; refuse any other copy."""
    if not (ROOT / "src" / "qcablocks" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no src/qcablocks under {ROOT}")
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    import qcablocks
    if Path(qcablocks.__file__).resolve().parent != ROOT / "src" / "qcablocks":
        raise SystemExit(f"perfbench: imported qcablocks from {qcablocks.__file__}")
    return workloads


def rng_for(seed: int, workload: str):
    """The workload's input generator: the seed plus a per-workload salt."""
    import numpy as np
    return np.random.default_rng([seed, zlib.crc32(workload.encode())])


def tail(samples: list[float]) -> dict:
    """The highest order statistic with at least ten samples above it, once
    that lies above the median (n >= 21); otherwise the maximum."""
    ordered = sorted(samples)
    n = len(ordered)
    k = n - 10 if n >= 21 else n  # 1-based rank
    return {"value": ordered[k - 1], "percentile": round(100.0 * k / n, 2),
            "samples": n, "samples_beyond": n - k}


def run_loop(wl, items, seconds: float, count: int | None = None,
             recorder=None) -> tuple[list, float]:
    """Closed loop: start the next task only after the previous one ended.
    Runs ``count`` tasks if given, else until ``seconds`` have passed and
    every item has run once, so each run measures the same mix.  A recorder
    gets each task's index as its span label.  Returns (records, wall s)."""
    records = []
    begin = time.perf_counter()
    while (len(records) < count) if count is not None else (
            len(records) < len(items) or time.perf_counter() - begin < seconds):
        index = len(records) % len(items)
        if recorder is not None:
            recorder.task = len(records)
        t0 = time.perf_counter()
        try:
            output, error = wl.task(items[index]), None
        except Exception as err:  # a raising task is a failed task
            output, error = None, f"{type(err).__name__}: {err}"
        records.append({"item": index, "s": time.perf_counter() - t0,
                        "output": output, "error": error})
    return records, time.perf_counter() - begin


def check_all(wl, items, records) -> list[dict]:
    """Attach each task's failures (exception, wrong verdict or gate)."""
    for rec in records:
        if rec["error"] is None:
            try:
                rec["failures"] = wl.check(items[rec["item"]], rec["output"])
            except Exception as err:  # a check that cannot run fails the task
                rec["failures"] = [f"check raised {type(err).__name__}: {err}"]
        else:
            rec["failures"] = [rec["error"]]
        rec.pop("output")
    return records


def setup_probe(args) -> float:
    """Time a set-up in a fresh process: this script with --setup-probe."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size, "--setup-probe"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def machine_record() -> dict:
    import numpy as np
    import scipy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = openblas_info()
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "ram_gb": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30, 2),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": blas.get("config", "unknown"),
        "blas_threads": blas.get("threads", os.environ.get("OPENBLAS_NUM_THREADS")),
        "git_commit": commit,
    }


def openblas_info() -> dict:
    """Version string and thread count of the OpenBLAS numpy loaded."""
    import ctypes
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return {}
    for path in paths:
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is not None and config is not None:
                    threads.restype, config.restype = ctypes.c_int, ctypes.c_char_p
                    return {"threads": threads(), "config": config().decode()}
    return {}


def metric(value, unit):
    return {"value": value, "unit": unit}


def run(args) -> tuple[dict, dict]:
    """One benchmark run.  Returns (record, summary); the summary is the
    result line."""
    t0 = time.perf_counter()
    workloads = import_program()
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload](ROOT, args.size)
    try:
        items = wl.build(rng_for(args.seed, args.workload))
        setup_s = time.perf_counter() - t0
        if args.setup_probe:
            return {}, {"setup_s": setup_s}
        if args.trace:
            return traced_run(args, wl, items)
        setups = [setup_s] + [setup_probe(args) for _ in range(SETUP_PROBES)]
        records, wall = run_loop(wl, items, args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        check_all(wl, items, records)
    finally:
        wl.close()
    latencies = [r["s"] for r in records]
    failed = sum(1 for r in records if r["failures"])
    passed = len(records) - failed
    tail_s = tail(latencies)
    metrics = {
        "setup_s": metric(statistics.median(setups), "s"),
        "tasks_per_s": metric(passed / wall, "1/s"),
        "task_s.p50": metric(statistics.median(latencies), "s"),
        "task_s.tail": metric(tail_s["value"], "s"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
    }
    record = base_record(args, records)
    record.update({
        "setup_s_samples": setups,
        "timed_wall_s": wall,
        "task_s.tail": tail_s,
        "fail_ratio": metric(failed / len(records), "ratio"),
        "metrics": metrics,
    })
    return record, summary(records, metrics)


def traced_run(args, wl, items) -> tuple[dict, dict]:
    """Untraced loop, then the same number of tasks under a timing recorder,
    then one set-up and one task under a memory (tracemalloc) recorder."""
    from tracer import Recorder
    plain, plain_wall = run_loop(wl, items, args.seconds)
    timing, memory = Recorder(), Recorder(memory=True)
    with timing.installed():
        timed_items = wl.build(rng_for(args.seed, args.workload))
        timed, timed_wall = run_loop(wl, timed_items, 0, count=len(plain), recorder=timing)
    with memory.installed():
        memory_items = wl.build(rng_for(args.seed, args.workload))
        measured, _ = run_loop(wl, memory_items, 0, count=1, recorder=memory)
    for batch, batch_items in ((plain, items), (timed, timed_items), (measured, memory_items)):
        check_all(wl, batch_items, batch)
    records = plain + timed + measured
    layers = timing.layer_metrics(len(timed), memory)
    metrics = {name: metric(layers[name], unit) for name, unit in PER_LAYER.items()
               if name != "trace.overhead_s"}
    metrics["trace.overhead_s"] = metric((timed_wall - plain_wall) / len(timed), "s")
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{args.workload}-{args.size}-seed{args.seed}.json"
    with open(spans_path, "w") as fh:
        json.dump({"columns": ["id", "name", "task", "parent", "start_s", "end_s",
                               "self_s", "peak_bytes", "counts"],
                   "timing": timing.rows(), "memory": memory.rows()}, fh)
    record = base_record(args, records)
    record.update({"untraced_wall_s": plain_wall, "traced_wall_s": timed_wall,
                   "traced_tasks": len(timed), "spans": len(timing.spans),
                   "spans_file": str(spans_path.relative_to(ROOT)),
                   "all_layer_figures": layers, "metrics": metrics})
    return record, summary(records, metrics)


def base_record(args, records) -> dict:
    return {
        "workload": args.workload,
        "size": args.size,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_record(),
        "tasks": [{"item": r["item"], "s": r["s"], "failures": r["failures"]}
                  for r in records],
    }


def summary(records, metrics) -> dict:
    return {"correct": not any(r["failures"] for r in records),
            "attempted": len(records),
            "failed": sum(1 for r in records if r["failures"]),
            "metrics": metrics}


def main(argv=None) -> int:
    args = parse_args(argv)
    single_blas_thread()
    record, result = run(args)
    if record:
        print(json.dumps(record, indent=1, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
