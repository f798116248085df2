"""One repetition of one workload, in a fresh interpreter.

The launcher (run.py) starts this with the BLAS thread variables already in
the environment and the spawn time in PERFBENCH_SPAWN.  Set-up runs from that
moment until scarforge, numpy and scipy are imported and the workload's
models are loaded; the workload's wall time runs from its first library
call to its last checked result.  The result is one JSON line on stdout.

    python3 perfbench/worker.py --workload series-pxp14 --seed 1 --trace 1
    python3 perfbench/worker.py --workload series-pxp14 --record

--record stores the workload's seed-independent outputs in reference.json
as the values later runs are checked against.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time


def blas_info() -> dict:
    """numpy's BLAS build and, for OpenBLAS, the thread count it runs with."""
    import ctypes
    import glob

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {"name": blas.get("name"), "version": blas.get("version"), "threads": None}
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                info["threads"] = fn()
                return info
    return info


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args()
    spawn = float(os.environ.get("PERFBENCH_SPAWN", time.time()))

    import numpy as np
    import scipy

    import workloads
    from scarforge.models import load_model
    from spec import WORKLOADS
    from tracing import Tracer

    models = {name: load_model(name) for name in WORKLOADS[args.workload]["models"]}
    out = {"setup_s": time.time() - spawn}
    if not args.setup_only:
        tracer = Tracer(f"{args.workload}/{args.seed}/{os.getpid()}", bool(args.trace))
        ledger = workloads.Ledger(workloads.load_reference(args.workload), record=args.record)
        rng = np.random.default_rng(args.seed)
        t0, c0 = time.perf_counter(), time.process_time()
        with tracer.span("workload." + args.workload):
            workloads.RUN[args.workload](tracer, ledger, models, rng)
        out.update(
            wall_s=time.perf_counter() - t0,
            cpu_s=time.process_time() - c0,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            attempted=ledger.attempted,
            failed=ledger.failed,
            wrong=ledger.wrong,
            errors=ledger.errors,
            refusals=ledger.refusals,
            spans=tracer.spans,
        )
        if args.record:
            data = json.loads(workloads.REFERENCE_PATH.read_text()) if workloads.REFERENCE_PATH.exists() else {}
            entry = data.setdefault(args.workload, {"rtol": 1e-8, "atol": 1e-12})
            entry["values"] = ledger.recorded
            workloads.REFERENCE_PATH.write_text(json.dumps(data, indent=1) + "\n")
    out["env"] = {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_info(),
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
