"""Repository benchmark: TASER training and TGAT+TASER serving, wall clock.

Usage (from the repository root)::

    python3 perfbench/run.py --workload train-graphmixer-taser --seed 1 \\
        --seconds 20 --trace 0

Runs one workload in this process and prints, as the last line of standard
output, one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` they are its per-layer metrics, from a
run in which every other operation is traced.  The line before it records the
environment (cores, BLAS threads, numpy version, seed), every correctness
check and run details.

The program is imported from ``src/`` next to this directory; every
``REPRO_*`` variable is removed from the environment first, so the run uses
the default runtime settings.  Exit status: 0 when every check passed, 1 when
a check failed (the result is still printed), 2 when the program or the
benchmark definition cannot be found (nothing is printed).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _blas_threads() -> object:
    """OpenBLAS thread count of the loaded numpy, or "unknown"."""
    import ctypes
    try:
        with open("/proc/self/maps") as f:
            libs = sorted({line.split()[-1] for line in f if "openblas" in line})
    except OSError:
        return "unknown"
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    removed = sorted(k for k in os.environ if k.startswith("REPRO_"))
    for key in removed:
        del os.environ[key]
    # One BLAS thread: on a 2-core host a second BLAS thread competes with
    # the interpreter thread, which measured both slower and noisier.  Set
    # before numpy is imported, which is when OpenBLAS reads it.
    for key in BLAS_THREAD_VARS:
        os.environ[key] = "1"

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"perfbench: program sources not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as exc:
        print(f"perfbench: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2

    import numpy as np

    from workloads import WORKLOADS, run_workload

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = result.layers if args.trace else result.metrics
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise RuntimeError(f"workload did not report {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}

    record = {
        "env": {"workload": args.workload, "seed": args.seed,
                "seconds": args.seconds, "trace": args.trace,
                "nproc": os.cpu_count(),
                "cpu_affinity": len(os.sched_getaffinity(0)),
                "blas_threads": _blas_threads(),
                "numpy": np.__version__, "python": platform.python_version(),
                "repro_env_removed": removed},
        "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in result.checks],
        "info": result.info,
    }
    print(json.dumps(record))
    print(json.dumps({"correct": result.correct, "attempted": result.attempted,
                      "failed": result.failed, "metrics": metrics}))
    sys.stdout.flush()
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
