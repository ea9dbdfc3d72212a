"""qab benchmark runner.

    python3 qabbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout (it imports `qab` from `src/`).
Each pass of a workload runs in a fresh child interpreter (`child.py`) that
executes the workload's qab configs through `qab.harness.run_suite`; the
configs are generated from `--seed`, one seed per pass.  Every report goes
through a correctness gate.  Passes repeat until `--seconds` is used up (the
last may run half a pass over) and the medians are reported.

With `--trace 0` the end-to-end metrics are printed; with `--trace 1` each
round runs one untraced pass, one traced pass and one serial pass
(`QAB_THREADS=1`, `OPENBLAS_NUM_THREADS=1`) and the per-layer metrics are
printed, with the tracing overhead and the pool's speed-up.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import statistics
import subprocess
import sys
import time
from collections import Counter
from itertools import product

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: A run must end within 180 s; children are killed past this point.
RUN_DEADLINE_S = 170.0
#: Set-up-only spawns before each pass.  One spawn's set-up time flips
#: between a fast and a slow mode that lasts seconds, so the samples are
#: spread over the whole run instead of taken in one burst.
SETUP_SPAWNS_PER_PASS = 3
PASS_METRICS = ("verify_s", "cpu_s", "peak_rss_mb")
M_SWEEP = list(range(1, 13))


def _job(suite, config, roundoff_from_M=None):
    return {"suite": suite, "config": config, "roundoff_from_M": roundoff_from_M}


# Why each workload exists is written up in README.md next to this file.
WORKLOADS = {
    "paper-default": lambda s: [_job("all", {"seed": s})],
    "solver-scale": lambda s: [
        _job("smatrix", {"M": [2], "seed": s}),
        _job("kmatrix", {"M": [3, 4], "seed": s}),
    ],
    "algebra-sweep": lambda s: [
        # Double precision at large M meets the known roundoff FAILs: over
        # 1200 rows per (q, M), q = 1.5 first failed at M = 5 and q = 1.1 at
        # M = 12, with q = 1.1, M = 11 reaching 0.97 of the threshold.  From
        # there on a FAIL lowers check_pass_ratio but does not make the run
        # incorrect; below it, and in the mpmath rows, a FAIL is a defect.
        _job("rep-check", {"q": 1.1, "M": M_SWEEP, "seed": s}, roundoff_from_M=11),
        _job("rep-check", {"q": 1.5, "M": M_SWEEP, "seed": s}, roundoff_from_M=5),
        _job("rep-check", {"q": 1.5, "M": [1, 2, 3], "samples": 1,
                           "precision": "high:106", "seed": s}),
        _job("unitarity", {"seed": s}),
        _job("limits", {"seed": s}),
        _job("coalgebra", {"seed": s}),
    ],
}

# ---------------------------------------------------------------- gate


def _rows(suite, M, samples):
    """Multiset of (suite, check, M) rows a report of `suite` must contain."""
    two = lambda keep: [p for p in product(M, repeat=2) if keep(p)]
    rows = []
    if suite == "rep-check":
        rows += [(suite, f"defining-relations[s{s}]", (m,)) for m in M for s in range(samples)]
    elif suite == "coalgebra":
        for m1, m2 in two(lambda p: max(p) <= 2)[:4] or [(1, 1)]:
            rows += [(suite, "coproduct-homomorphism", (m1, m2)),
                     (suite, "coideal-expansion", (m1, m2)),
                     (suite, "twisted-F1-raising", (m1,)),
                     (suite, "twisted-central-invariance", (m1,))]
    elif suite == "smatrix":
        for p in two(lambda p: True):
            rows += [(suite, "null-dimension", p), (suite, "intertwining", p)]
            if min(p) >= 2:
                rows.append((suite, "affine-ablation", p))
    elif suite == "ybe":
        ms = [m for m in M if m <= 2] or [1]
        rows += [(suite, "yang-baxter", t) for t in sorted(set(product(ms, repeat=3)))[:6]]
    elif suite == "kmatrix":
        for m in M:
            rows += [(suite, "closed-vs-intertwiner", (m,)), (suite, "invariance", (m,))]
            if m >= 2:
                rows += [(suite, "twisted-ablation", (m,)), (suite, "ck-covariance", (m,))]
    elif suite == "bybe":
        for p in two(lambda p: max(p) <= 2) or [(1, 1)]:
            rows.append((suite, "reflection-equation", p))
            if max(p) >= 2:
                rows.append((suite, "trivial-Ck-control", p))
    elif suite == "unitarity":
        rows += [(suite, "K(p)K(-p)=Id", (m,)) for m in M]
    elif suite == "limits":
        mr = max([m for m in M if m >= 2], default=2)
        rows += [(suite, "rational-coefficients[eps=0.001]", (mr,)),
                 (suite, "rational-coefficients[eps=0.0001]", (mr,)),
                 (suite, "rational-convergence-rate", (mr,)),
                 (suite, "fundamental-A1/A0", (1,))]
    elif suite == "all":
        for name in ("rep-check", "coalgebra", "smatrix", "ybe", "kmatrix",
                     "bybe", "unitarity", "limits"):
            rows += _rows(name, M, samples)
    return rows


NEGATIVE_CONTROLS = ("affine-ablation", "twisted-ablation", "trivial-Ck-control")


def gate(job, report):
    """Problems found in one job's parsed report; an empty list means it holds."""
    problems = []
    checks = report.get("checks", [])
    cfg = job["config"]
    expected = Counter(_rows(job["suite"], tuple(cfg.get("M", (1, 2))), cfg.get("samples", 3)))
    seen = Counter((c["suite"], c["check"], tuple(c["M"])) for c in checks)
    missing = expected - seen
    if missing:
        kind = "negative-control" if any(k[1] in NEGATIVE_CONTROLS for k in missing) else "expected"
        problems.append(f"{job['suite']}: {kind} rows missing: {sorted(missing)[:4]}")
    if job["suite"] == "limits" and not any(c["check"].startswith("yangian-cauchy") for c in checks):
        problems.append("limits: no yangian-cauchy rows")
    for c in checks:
        res, thr = c["residual"], c["threshold"]
        label = f"{c['suite']}/{c['check']}/M={c['M']}"
        if not (math.isfinite(res) and math.isfinite(thr)):
            problems.append(f"{label}: non-finite residual {res!r} or threshold {thr!r}")
            continue
        inverted = c.get("expected") == "above-threshold"
        if c["passed"] != (res > thr if inverted else res <= thr):
            problems.append(f"{label}: verdict {c['passed']} contradicts {res:.3g} vs {thr:.3g}")
        roundoff = job["roundoff_from_M"] is not None and min(c["M"]) >= job["roundoff_from_M"]
        if not c["passed"] and not roundoff:
            problems.append(f"{label}: FAIL with residual {res:.3g} > {thr:.3g}")
    if report.get("passed") != all(c["passed"] for c in checks):
        problems.append(f"{job['suite']}: report verdict disagrees with its rows")
    return problems


# ---------------------------------------------------------------- children


def _child_env(serial=False):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    if serial:
        env["QAB_THREADS"] = "1"
        env["OPENBLAS_NUM_THREADS"] = "1"
    return env


def spawn(deadline, jobs=None, trace=False, serial=False):
    """Run child.py; returns (setup seconds, parsed result or None)."""
    cmd = [sys.executable, os.path.join(HERE, "child.py")]
    if trace:
        cmd.append("--trace")
    cmd += ["--setup-only"] if jobs is None else [json.dumps([[j["suite"], j["config"]] for j in jobs])]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=_child_env(serial), cwd=ROOT, text=True)
    try:
        first = proc.stdout.readline()
        setup = time.perf_counter() - t0
        if first.strip() != "ready":
            proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
            raise RuntimeError(f"child did not start (exit {proc.returncode})")
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError("child passed the run deadline") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if jobs is None:
        return setup, None
    if proc.returncode != 0 or not out.strip():
        return setup, {"died": proc.returncode}
    return setup, json.loads(out.strip().splitlines()[-1])


class Tally:
    """Operations, report rows and gate problems over every pass of a run."""

    def __init__(self):
        self.attempted = self.failed = self.rows = self.rows_passed = 0
        self.errors = Counter()
        self.problems = []

    def add(self, jobs, result):
        """Count one pass; returns its (rows, rows passed, worst margin)."""
        self.attempted += len(jobs)
        if "died" in result:
            self.failed += len(jobs)
            self.rows += len(jobs)
            self.errors[f"child exit {result['died']}"] += len(jobs)
            self.problems.append(f"child exited with {result['died']} and no result")
            return len(jobs), 0, math.inf
        rows = passed = 0
        margins = []
        for job, entry in zip(jobs, result["jobs"]):
            if "error" in entry:
                # One attempted, failed row for the ratio; the run is incorrect.
                rows += 1
                self.failed += 1
                self.errors[entry["error"]] += 1
                self.problems.append(f"{job['suite']}: raised {entry['error']}: {entry['message']}")
                continue
            report = json.loads(entry["report"])
            self.problems += gate(job, report)
            checks = report["checks"]
            rows += len(checks)
            passed += sum(bool(c["passed"]) for c in checks)
            margins += [
                c["residual"] / c["threshold"]
                for c in checks
                if c.get("expected") != "above-threshold" and c["threshold"] > 0
            ]
        self.rows += rows
        self.rows_passed += passed
        return rows, passed, max(margins, default=0.0)

    @property
    def correct(self):
        return not self.problems


# ---------------------------------------------------------------- runs


def _git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def _passes(seed, seconds, start):
    """Pass seeds, while the next pass would likely end within half a pass of `seconds`.

    Without the allowance a run whose passes take about a third of it often
    stops after two passes, and its median rests on two values.
    """
    rng = random.Random(seed)
    while True:
        t = time.perf_counter()
        yield rng.randrange(2**31)
        if (time.perf_counter() - start) + (time.perf_counter() - t) / 2 > seconds:
            return


def measure(workload, seed, seconds, start):
    """End-to-end metrics: medians over passes, setup over every spawn."""
    deadline = start + RUN_DEADLINE_S
    tally, passes = Tally(), []
    spawn(deadline)  # fills the bytecode and file caches
    setups = []
    environment = {}
    for pass_seed in _passes(seed, seconds, start):
        setups += [spawn(deadline)[0] for _ in range(SETUP_SPAWNS_PER_PASS)]
        jobs = WORKLOADS[workload](pass_seed)
        setup, result = spawn(deadline, jobs)
        setups.append(setup)
        tally.add(jobs, result)
        if "died" not in result:
            environment = result["environment"]
            passes.append(result)
    values = {
        "setup_s": statistics.median(setups),
        "check_pass_ratio": tally.rows_passed / max(1, tally.rows),
        "samples": {"passes": len(passes), "setup_spawns": len(setups)},
    }
    for key in PASS_METRICS:
        values[key] = statistics.median(p[key] for p in passes) if passes else float("nan")
    return tally, values, environment


def measure_traced(workload, seed, seconds, start):
    """Per-layer metrics: medians over rounds of untraced, traced and serial passes."""
    from tracer import layer_metrics

    deadline = start + RUN_DEADLINE_S
    tally, rounds = Tally(), []
    spawn(deadline)
    environment = {}
    for pass_seed in _passes(seed, seconds, start):
        jobs = WORKLOADS[workload](pass_seed)
        base, traced, serial = (
            spawn(deadline, jobs, **kw)[1] for kw in ({}, {"trace": True}, {"serial": True})
        )
        counts = [tally.add(jobs, result) for result in (base, traced, serial)]
        if any("died" in r for r in (base, traced, serial)):
            continue
        environment = traced["environment"]
        row = layer_metrics(traced["spans"], traced["verify_s"])
        rows, passed, margin = counts[1]
        row["harness.checks"] = rows
        row["harness.checks_failed"] = rows - passed
        row["harness.worst_margin"] = margin
        row["trace.overhead_s"] = traced["verify_s"] - base["verify_s"]
        row["trace.overhead_ratio"] = row["trace.overhead_s"] / base["verify_s"]
        row["harness.parallel_speedup"] = serial["verify_s"] / base["verify_s"]
        row["verify_s.untraced"] = base["verify_s"]
        row["verify_s.traced"] = traced["verify_s"]
        row["verify_s.serial"] = serial["verify_s"]
        rounds.append(row)
    values = {key: statistics.median(r[key] for r in rounds) for key in (rounds[0] if rounds else {})}
    values["samples"] = {"rounds": len(rounds)}
    return tally, values, environment


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    start = time.perf_counter()
    if not os.path.isfile(os.path.join(SRC, "qab", "harness.py")):
        print(f"error: no qab source under {SRC}; run from the root of a qab checkout",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    try:
        run = measure_traced if args.trace else measure
        tally, values, environment = run(args.workload, args.seed, args.seconds, start)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: no value for {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    environment.update({
        "QAB_THREADS": os.environ.get("QAB_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "seed": args.seed,
        "commit": _git_commit(),
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
    })
    for name, m in metrics.items():
        print(f"{args.workload:14s} {name:36s} {m['value']:14.6g} {m['unit']}")
    print("medians over: " + json.dumps(values["samples"]))
    if tally.errors:
        print(f"failed operations: {dict(tally.errors)}")
    for problem in tally.problems[:20]:
        print(f"gate: {problem}")
    print("environment: " + json.dumps(environment, sort_keys=True))
    result = {"correct": tally.correct, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    print(json.dumps(result))
    return 0 if tally.correct else 1


if __name__ == "__main__":
    sys.exit(main())
