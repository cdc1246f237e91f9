"""Run one workload of the hazecast benchmark and print its metrics.

    python3 bench/run.py --workload train-ref --seed 1 --seconds 25 --trace 0

Run from anywhere inside a checkout of the repository: the benchmark imports
``hazecast`` from the checkout's ``src`` directory and works under
``.bench_work/`` at the checkout's root.  It generates a corpus from the
seed, drives the workload (see ``workloads.py``), checks the outputs and
prints a table followed, as the last line, by one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` they are the per-layer
ones, and the spans go to ``.bench_work/trace-<workload>-<seed>.json``.
The exit code is 0 only when every operation succeeded and every check
passed.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import shutil
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SOURCES = ROOT / "src"


def machine_info() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version', '')}".strip(),
        "blas_threads": blas_threads(),
    }


def blas_threads():
    """Thread count OpenBLAS reports, when numpy bundles OpenBLAS."""
    import numpy as np

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(handle, symbol, None)
            if getter is not None:
                getter.argtypes = []
                getter.restype = ctypes.c_int
                return getter()
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SOURCES / "hazecast" / "__init__.py").is_file():
        print(f"error: no hazecast sources under {SOURCES}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SOURCES), str(BENCH_DIR)]
    from workloads import WORKLOADS, Run

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    work = ROOT / ".bench_work"
    workdir = work / f"{args.workload}-{args.seed}-{os.getpid()}"
    run = Run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), workdir)
    try:
        run.run()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    info = machine_info()
    print("machine " + " ".join(f"{k}={v}" for k, v in info.items()))
    if args.trace:
        rows = {name: (value, unit, None) for name, (value, unit) in run.per_layer().items()}
        trace_file = work / f"trace-{args.workload}-{args.seed}.json"
        trace_file.write_text(json.dumps({"machine": info, "workload": args.workload,
                                          "seed": args.seed, "spans": run.spans()}))
        print(f"spans written to {trace_file}")
    else:
        rows = run.end_to_end()
    for name, (value, unit, count) in {**rows, **run.notes()}.items():
        print(f"{name:<36} {value:>14.6g} {unit:<6}" + (f" n={count}" if count else ""))
    correct = run.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in rows.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
