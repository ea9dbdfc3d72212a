"""One benchmark pass in a fresh interpreter.

    python qabbench/child.py [--trace] [--setup-only] [JOBS_JSON]

Caps its own address space at AS_LIMIT, imports qab, makes one warm-up call
and prints `ready`.  Unless `--setup-only`, it then runs each (suite, config) job of
JOBS_JSON through `qab.harness.run_suite`, serialises the report with
`qab.harness.emit_report`, and prints one JSON line with the pass's wall
time, CPU time, peak RSS, the reports (or the exception of a job that
raised), the environment and, with `--trace`, the recorded spans.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

#: Address-space cap of the child, below the machine's 8 GB.
AS_LIMIT = 6 * 1024**3


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _environment(np) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError, ValueError):
        blas = {"name": "unknown"}
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "QAB_THREADS": os.environ.get("QAB_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "address_space_cap_bytes": resource.getrlimit(resource.RLIMIT_AS)[0],
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("jobs", nargs="?", default="[]")
    args = parser.parse_args()
    # The cap applies to this process only, before numpy maps anything, so a
    # blow-up surfaces as MemoryError instead of waking the OOM killer.
    resource.setrlimit(resource.RLIMIT_AS, (AS_LIMIT, AS_LIMIT))

    import numpy as np
    from qab import harness
    from qab.representation import all_generators, build_basis

    params = harness.RunConfig().params()
    kin = harness.sample_kinematics(1, params, np.random.default_rng(0))
    all_generators(kin, params, build_basis(1))
    np.linalg.svd(np.ones((8, 4), dtype=complex))
    print("ready", flush=True)
    if args.setup_only:
        return 0

    recorder = None
    if args.trace:
        from tracer import Recorder, install

        recorder = install(Recorder())

    results = []
    cpu0, t0 = _cpu_s(), time.perf_counter()
    for suite, data in json.loads(args.jobs):
        t = time.perf_counter()
        try:
            report = harness.run_suite(suite, harness.load_config(data=data))
            entry = {"report": harness.emit_report(report, "json")}
        except Exception as exc:  # a failed operation, counted by run.py
            entry = {"error": type(exc).__name__, "message": str(exc)[:300]}
        entry["wall_s"] = time.perf_counter() - t
        results.append(entry)
    verify_s = time.perf_counter() - t0
    cpu_s = _cpu_s() - cpu0
    out = {
        "verify_s": verify_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "jobs": results,
        "environment": _environment(np),
    }
    if recorder is not None:
        out["spans"] = recorder.dump()
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
