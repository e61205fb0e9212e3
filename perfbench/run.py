"""Run the rescale-lab benchmark.

    python3 perfbench/run.py                    # every workload, end-to-end metrics
    python3 perfbench/run.py --workload sweep --seed 3 --seconds 20 --trace 0
    python3 perfbench/run.py --workload sweep --trace 1     # per-layer metrics

Each metric is printed by name with its unit, followed by a ``# info`` line
recording the machine, versions, sizes and repeat counts.  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics, or with ``--trace 1`` the
per-layer ones.  Spans of a traced run and a record of every run go to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas_threads() -> int:
    """Pin BLAS to one thread; call before NumPy loads.

    The matrices here are small, so a second thread adds little speed, and
    a two-thread call waits for whichever CPU the host slowed, which made
    run-to-run timings less steady on a shared two-CPU machine.
    """
    threads = 1
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(threads)
    return threads


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def commit() -> str:
    """The checkout's commit from ``.git``, without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def source_digest(src: str) -> str:
    """SHA-256 over the library's source files, which identifies the code
    measured where there is no commit."""
    h = hashlib.sha256()
    package = os.path.join(src, "rescale_lab")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def blas_version(np) -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        return "unknown"


def machine_info(np, workloads, threads: int) -> dict:
    return {
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        "blas_threads": threads,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version(np),
        "commit": commit(),
        "source_sha256": source_digest(workloads.SRC),
        "batch_sizes": {"sweep": workloads.SWEEP_BATCH,
                        "finetune": workloads.TRAIN_BATCH,
                        "train_float": workloads.TRAIN_BATCH},
        "input_sizes": dataclasses.asdict(workloads.STANDARD),
        "probes": workloads.PROBES,
        "widths": list(workloads.WIDTHS),
    }


def report(result, info: dict, seed: int, seconds: float, trace: bool,
           out_dir: str) -> None:
    """Print one workload's metrics by name and write its record file."""
    print(f"workload {result.workload} seed {seed}: {result.rounds} rounds "
          f"({result.traced_rounds} traced), {result.attempted} operations, "
          f"{result.failed} failed, correct={result.correct}")
    for name, metric in result.metrics.items():
        print(f"  {result.workload}.{name} = {metric['value']!r} {metric['unit']}")
    for name, (value, unit) in result.figures.items():
        print(f"  {result.workload}.{name} = {value!r} {unit}  (figure)")
    if trace:
        print("  no layer has a wait time: the program is one process "
              "with no queues")
        print(f"  spans written to {result.trace_path}")
    for failure in result.failures:
        print(f"  FAILED {failure.rstrip()}")
    record = dict(info, workload=result.workload, seed=seed, seconds=seconds,
                  trace=trace, rounds=result.rounds,
                  traced_rounds=result.traced_rounds, correct=result.correct,
                  attempted=result.attempted, failed=result.failed,
                  metrics=result.metrics,
                  figures={k: {"value": v, "unit": u}
                           for k, (v, u) in result.figures.items()},
                  failures=result.failures)
    path = os.path.join(out_dir, f"result-{result.workload}-seed{seed}"
                                 f"-trace{int(trace)}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="rescale-lab benchmark")
    parser.add_argument("--workload", default="all",
                        help="train, sweep, finetune or all (default)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    threads = pin_blas_threads()
    try:
        import numpy as np
        import workloads
        import rescale_lab
    except ImportError as exc:
        print(f"error: cannot load rescale_lab from {ROOT}/src: {exc}",
              file=sys.stderr)
        return 2
    if not os.path.abspath(rescale_lab.__file__).startswith(workloads.SRC + os.sep):
        print(f"error: rescale_lab loaded from {rescale_lab.__file__}, "
              f"not from {workloads.SRC}", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    if any(name not in workloads.WORKLOADS for name in names):
        parser.error(f"unknown workload {args.workload!r}")

    info = machine_info(np, workloads, threads)
    out_dir = os.path.join(HERE, "out")
    results = []
    for name in names:
        result = workloads.run_workload(name, args.seed, args.seconds,
                                        bool(args.trace), out_dir=out_dir)
        report(result, info, args.seed, args.seconds, bool(args.trace), out_dir)
        if not result.metrics:
            print(f"error: workload {name} completed no round", file=sys.stderr)
            return 1
        results.append(result)
    info.update(seed=args.seed, seconds=args.seconds, trace=bool(args.trace),
                rounds={r.workload: r.rounds for r in results},
                traced_rounds={r.workload: r.traced_rounds for r in results})
    print("# info " + json.dumps(info, sort_keys=True))
    if len(results) == 1:
        metrics = results[0].metrics
    else:
        metrics = {f"{r.workload}.{k}": v for r in results for k, v in r.metrics.items()}
    print(json.dumps({
        "correct": all(r.correct for r in results),
        "attempted": sum(r.attempted for r in results),
        "failed": sum(r.failed for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
