"""Run the benchmark over several seeds and summarise each metric.

    python3 bench/collect.py --seeds 1-10 [--trace-seed 1] [--out FILE]

Run from the repository root.  Each run is a separate ``bench/run.py``
process, one after another, over every workload in ``BENCHMARK.json``.  For
every workload and end-to-end metric the summary gives the median, the
quartiles (``statistics.quantiles(n=4)``) and the spread, the distance
between the quartiles as a share of the median.  The exit code is 1 when
a spread is above a third of the metric's bound in ``BENCHMARK.json``.  With
``--trace-seed`` one traced run per workload adds the per-layer metrics.
With ``--out`` the summary, the environment and the git commit are written
as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seed_list(text: str) -> list:
    """Seeds ``lo`` to ``hi`` from the form ``lo-hi``."""
    lo, hi = text.split("-")
    return list(range(int(lo), int(hi) + 1))


def run_once(spec, workload: str, seed: int, trace: int) -> tuple:
    cmd = [sys.executable, *spec["command"][1:], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    detail = json.loads(lines[-2])
    detail["process_s"] = time.perf_counter() - start
    return detail, json.loads(lines[-1])


def summarise(values: list) -> dict:
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None,
            "values": values}


def git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--trace-seed", type=int, default=None)
    p.add_argument("--out", default=None)
    args = p.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary, env, steady = {}, None, True
    for name in names:
        runs = []
        for seed in seed_list(args.seeds):
            detail, result = run_once(spec, name, seed, 0)
            env = detail["environment"]
            runs.append({"seed": seed, "correct": result["correct"], "attempted": result["attempted"],
                         "failed": result["failed"], "output_digest": detail["output_digest"],
                         "decompositions_per_op": detail["decompositions_per_op"],
                         "op_p90_ms": detail["op_p90_ms"], "process_s": detail["process_s"],
                         "raw": detail["raw"], "speed_factor": detail["speed_factor"],
                         **{k: v["value"] for k, v in result["metrics"].items()}})
            print(f"{name} seed {seed}: " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
                + f" failed={result['failed']}/{result['attempted']} correct={result['correct']}"
                + f" ({detail['process_s']:.1f} s)",
                flush=True)
        stats = {m: summarise([r[m] for r in runs]) for m in bounds}
        raw_stats = {m: summarise([r["raw"][m] for r in runs]) for m in runs[0]["raw"]
                     if m in bounds}
        for m, st in stats.items():
            within = st["spread"] <= bounds[m] / 3
            steady &= within
            raw_note = f", raw {raw_stats[m]['spread']:.4f}" if m in raw_stats else ""
            print(f"  {name} {m}: median {st['median']:.6g} spread {st['spread']:.4f}{raw_note} "
                  f"(bound {bounds[m]}){'' if within else '  ABOVE A THIRD OF THE BOUND'}")
        entry = {"runs": runs, "stats": stats, "raw_stats": raw_stats}
        if args.trace_seed is not None:
            detail, result = run_once(spec, name, args.trace_seed, 1)
            entry["per_layer"] = {"seed": args.trace_seed, "process_s": detail["process_s"],
                                  **{k: v["value"] for k, v in result["metrics"].items()}}
        summary[name] = entry
    if args.out:
        doc = {"commit": git_commit(), "run_seconds": spec["run_seconds"],
               "seeds": seed_list(args.seeds), "environment": env, "workloads": summary}
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
