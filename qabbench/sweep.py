"""Run the benchmark over several seeds and record one trajectory point.

    python3 qabbench/sweep.py --seeds 1-10 [--workloads a,b] [--seconds S]
                              [--traced-seed N] [--out FILE]

For each workload, runs `run.py --trace 0` once per seed and reports, per
end-to-end metric, the median of the per-run values and their spread: the
distance between the first and third quartile (`statistics.quantiles`, n=4)
as a share of the median, next to the metric's bound from BENCHMARK.json.
With `--traced-seed`, one `--trace 1` run per workload adds the per-layer
table.  `--out` writes everything, every run included, as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _seeds(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def bench(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{workload} seed {seed}: no output (exit {proc.returncode})\n{proc.stderr}")
    result = json.loads(lines[-1])
    result["environment"] = next(
        (json.loads(ln.split(": ", 1)[1]) for ln in lines if ln.startswith("environment: ")), {}
    )
    result["exit"] = proc.returncode
    return result


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--traced-seed", type=int)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    point = {"seconds": args.seconds, "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in _seeds(args.seeds):
            res = bench(workload, seed, args.seconds, 0)
            runs.append({"seed": seed, "correct": res["correct"], "attempted": res["attempted"],
                         "failed": res["failed"],
                         **{k: v["value"] for k, v in res["metrics"].items()}})
            ok &= res["correct"] and res["exit"] == 0
            print(json.dumps({"workload": workload, **runs[-1]}), flush=True)
        summary = {}
        for name, bound in bounds.items():
            values = [r[name] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
            spread = (q3 - q1) / median if median else float("inf")
            summary[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                             "bound": bound, "unit": res["metrics"][name]["unit"]}
            verdict = "ok" if spread <= bound / 3 else "WIDE"
            print(f"{workload:14s} {name:18s} median {median:10.5g}  spread {spread:6.3f}"
                  f"  bound {bound}  {verdict}", flush=True)
        entry = {"end_to_end": summary, "runs": runs, "environment": res["environment"]}
        if args.traced_seed is not None:
            traced = bench(workload, args.traced_seed, args.seconds, 1)
            ok &= traced["correct"] and traced["exit"] == 0
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
            entry["per_layer_seed"] = args.traced_seed
        point["workloads"][workload] = entry
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(point, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
