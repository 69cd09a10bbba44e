"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload cert_small --seed 1 --seconds 20 --trace 0

Run from the repository root.  The library is imported from ``src/``; the
run fails (exit code 2, no result line) when it is not there.  The workload
runs in this single process as a closed loop with one caller.

A run has four phases:

1. set-up (import of the library, input generation from ``--seed``,
   state-file writing), repeated at least ``SETUP_REPS`` times and until
   ``SETUP_MIN_S`` seconds of set-up have passed; ``setup_s`` is the median;
2. a reference pass over every input with call counters on, which also warms
   up; it gives the per-op decomposition counts and the reference output of
   each input.  The workload's checked inputs (see ``workloads.py``) run
   only here; their failures are reported apart from the timed ops';
3. the timed loop, whole cycles over the timed inputs until ``--seconds``
   have passed.  With ``--trace 0`` nothing is wrapped and the end-to-end
   metrics are reported.  With ``--trace 1`` untraced and traced cycles
   alternate: the traced cycles give the per-layer metrics, and the latency
   ratio of each op to the same input's op in the untraced cycle before it
   gives the tracing overhead;
4. a check pass that repeats the first inputs of both kinds with counters on.

A fixed numpy kernel (``speed.py``) is timed before every set-up and about
every ``SPEED_EVERY_S`` seconds between ops.  ``setup_s``, ``ops_per_s`` and
``op_p50_ms`` are reported at reference machine speed; the measured values
are under ``raw`` in the detail line.

The last line of stdout is the result:
``{"correct", "attempted", "failed", "metrics"}``.  ``attempted`` counts the
timed ops; ``failed`` counts those that raised a typed library error, exited
non-zero or failed an output check.  Failed checked inputs are counted in
``checked_failed`` in the detail line and in the ``checked.failed`` layer
metric.
``correct`` is the run-level check of the determinism contract: every op's
output bytes equal the reference pass's for the same input, and the check
pass repeats the reference pass's outputs and call counts exactly.  The line
before it is a JSON record with the details (failures by class, p90, raw
timings and speed factors, output digest, decomposition counts, environment).
"""

from __future__ import annotations

import os
import sys

# Pin BLAS threads before numpy is imported.  One thread never exceeds the
# core count, and keeps runs on a shared machine comparable.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402

import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
SETUP_REPS = 5
SETUP_MIN_S = 2.0
CHECK_PASS_OPS = 2
SPEED_EVERY_S = 0.5

# Failure classes reported as errors.<class>; any other class is "Other".
ERROR_CLASSES = (
    "FrameMismatchError",
    "ConsistencyError",
    "IllConditionedError",
    "NoConvergenceError",
    "NotHermitianError",
    "NotPsdError",
    "NotUnitaryError",
    "ZeroFidelityError",
    "LinAlgError",
    workloads.OUTPUT_CHECK,
    "Nondeterminism",
)

TIMED_GROUPS = {
    "matcore.cmjson_read_ms": {"states.read_state", "matcore.read_matrix", "matcore.cmjson_to_matrix"},
    "matcore.cmjson_write_ms": {
        "states.write_state",
        "matcore.write_matrix",
        "matcore.matrix_json_text",
        "matcore.matrix_to_cmjson",
    },
    **{
        f"{name}_ms": {name}
        for name in (
            "uhlmann.canonical_w",
            "uhlmann.spectral_gap_eta",
            "uhlmann.obliqueness_kappa",
            "uhlmann.rigidity_report",
            "uhlmann.three_form_deviation",
            "uhlmann.near_optimal_unitary",
            "certificate.build_certificate",
            "certificate.dual_bound",
            "certificate.psd_core_check",
            "certificate.primal_probe",
            "protocol.for_instance",
            "grouprep.stability_check",
            "grouprep.build_states",
        )
    },
}
SELF_LAYERS = ("cli", "matcore", "states", "uhlmann", "certificate", "protocol", "grouprep")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny: self-test inputs")
    return p.parse_args(argv)


def import_library() -> SimpleNamespace:
    """Import the package from src/ afresh (drops any earlier import)."""
    for name in [n for n in sys.modules if n == "uhlmann" or n.startswith("uhlmann.")]:
        del sys.modules[name]
    pkg = importlib.import_module("uhlmann")
    if not os.path.abspath(pkg.__file__).startswith(SRC + os.sep):
        raise ImportError(f"uhlmann was imported from {pkg.__file__}, not from {SRC}")
    mods = ("cli", "matcore", "states", "certificate", "protocol", "grouprep", "errors")
    lib = SimpleNamespace(**{m: importlib.import_module(f"uhlmann.{m}") for m in mods})
    lib.core = importlib.import_module("uhlmann.uhlmann")
    return lib


def src_lines() -> int:
    total = 0
    for base, _dirs, files in os.walk(os.path.join(SRC, "uhlmann")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(base, name), encoding="utf-8") as fh:
                    total += sum(1 for _ in fh)
    return total


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        blas = {}
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "src_lines": src_lines(),
    }


def counted_op(lib, wl, inp):
    """One op with call counters on: (output digest, counts, failures)."""
    rec = tracing.Recorder()
    with tracing.Instrumentation(lib, rec):
        res = wl.run_op(lib, inp)
    return hashlib.sha256(res.output).hexdigest(), rec.counts, res.failures


class Loop:
    """Runs input cycles and keeps latencies, failures and output checks."""

    def __init__(self, lib, wl, inputs, ref_digests, speed_ref: speed.Speed):
        self.lib, self.wl, self.inputs, self.ref = lib, wl, inputs, ref_digests
        self.speed = speed_ref
        self.latency_ns: list = []
        self.attempted = 0
        self.failed = 0
        self.classes: Counter = Counter()
        self.deterministic = True

    def cycle(self, rec: tracing.Recorder | None = None) -> tuple:
        """Run every input once; return the wall time in seconds and latencies.

        The speed kernel runs between ops; its time is left out.
        """
        start = time.perf_counter()
        kernel_before = self.speed.spent_s
        latencies = []
        for i, inp in enumerate(self.inputs):
            if rec is not None:
                rec.op = self.attempted
            t0 = time.perf_counter_ns()
            res = self.wl.run_op(self.lib, inp)
            latencies.append(time.perf_counter_ns() - t0)
            failures = set(res.failures)
            if hashlib.sha256(res.output).hexdigest() != self.ref[i]:
                failures.add("Nondeterminism")
                self.deterministic = False
            self.attempted += 1
            self.failed += bool(failures)
            self.classes.update(failures)
            self.speed.maybe_sample()
        self.latency_ns += latencies
        return time.perf_counter() - start - (self.speed.spent_s - kernel_before), latencies


def error_metrics(loop: Loop) -> dict:
    out = {f"errors.{c}": loop.classes[c] / loop.attempted for c in ERROR_CLASSES}
    other = sum(n for c, n in loop.classes.items() if c not in ERROR_CLASSES)
    out["errors.Other"] = other / loop.attempted
    return out


def layer_metrics(rec, loop, n_traced, counts_per_op, overhead_pct) -> dict:
    groups = {**TIMED_GROUPS, "run_protocol": {"protocol.run_protocol"}}
    tot = tracing.span_totals(rec.spans, groups)
    per_op_ms = lambda ns: ns / 1e6 / n_traced  # noqa: E731
    m = {f"{layer}.self_ms": per_op_ms(tot["self:" + layer]) for layer in SELF_LAYERS}
    m["cli.calls"] = counts_per_op["cli.main"]
    for d in tracing.DECOMPOSITIONS:
        m[f"matcore.{d}_calls"] = counts_per_op[f"linalg.{d}"]
    m["matcore.decomp_ms"] = per_op_ms(tot["self:linalg"])
    m["matcore.as_matrix_calls"] = counts_per_op["matcore.as_matrix"]
    m["states.overlap_calls"] = counts_per_op["states.overlap"]
    m.update({key: per_op_ms(tot["group:" + key]) for key in TIMED_GROUPS})
    walks = tot["calls:uhlmann.near_optimal_unitary"]
    m["uhlmann.overlap_evals_per_trial"] = tot["overlaps_in_walks"] / walks if walks else 0.0
    trials = tot["calls:protocol.run_protocol"]
    m["protocol.run_protocol_ms_per_trial"] = (
        tot["group:run_protocol"] / 1e6 / trials if trials else 0.0
    )
    m.update(error_metrics(loop))
    m["trace.overhead_pct"] = overhead_pct
    return m


def run(args, wl, workdir) -> int:
    setup_s = []
    setup_speed = speed.Speed(0.0)
    while len(setup_s) < SETUP_REPS or sum(setup_s) < SETUP_MIN_S:
        gc.collect()  # the previous set-up's import leaves cycles behind
        setup_speed.sample()
        t0 = time.perf_counter()
        lib = import_library()
        inputs, checked = wl.setup(lib, args.seed, workdir)
        setup_s.append(time.perf_counter() - t0)
    setup_speed.sample()

    reference = [counted_op(lib, wl, inp) for inp in inputs]
    ref_digests = [r[0] for r in reference]
    counts = sum((r[1] for r in reference), Counter())
    counts_per_op = Counter({k: v / len(inputs) for k, v in counts.items()})
    checked_ref = [counted_op(lib, wl, inp) for inp in checked]
    checked_classes = Counter(c for _d, _c, failures in checked_ref for c in set(failures))
    checked_failed = sum(1 for _d, _c, failures in checked_ref if failures)

    loop_speed = speed.Speed(SPEED_EVERY_S)
    loop = Loop(lib, wl, inputs, ref_digests, loop_speed)
    start = time.perf_counter()
    untraced, traced = [], []
    rec = tracing.Recorder()
    while True:
        untraced.append(loop.cycle())
        if args.trace:
            rec.spans_on = True
            with tracing.Instrumentation(lib, rec):
                traced.append(loop.cycle(rec))
            rec.spans_on = False
        if time.perf_counter() - start >= args.seconds:
            break
    wall = sum(w for w, _lat in untraced + traced)

    pairs = list(zip(inputs, reference))[:CHECK_PASS_OPS] + list(zip(checked, checked_ref))[:1]
    repeats_exactly = all(counted_op(lib, wl, inp)[:2] == ref[:2] for inp, ref in pairs)
    correct = loop.deterministic and repeats_exactly

    lat_ms = sorted(ns / 1e6 for ns in loop.latency_ns)
    raw = {
        "setup_s": statistics.median(setup_s),
        "ops_per_s": (loop.attempted - loop.failed) / wall,
        "op_p50_ms": statistics.median(lat_ms),
        "op_p90_ms": statistics.quantiles(lat_ms, n=10)[-1] if len(lat_ms) >= 100 else None,
    }
    f_setup, f_loop = setup_speed.factor(), loop_speed.factor()
    at_ref = {
        "setup_s": raw["setup_s"] * f_setup,
        "ops_per_s": raw["ops_per_s"] / f_loop,
        "op_p50_ms": raw["op_p50_ms"] * f_loop,
        "op_p90_ms": None if raw["op_p90_ms"] is None else raw["op_p90_ms"] * f_loop,
    }
    detail = {
        "workload": wl.name,
        "seed": args.seed,
        "trace": args.trace,
        "inputs": len(inputs),
        "checked_inputs": len(checked),
        "ops": loop.attempted,
        "fail_ratio": loop.failed / loop.attempted,
        "failures_by_class": dict(sorted(loop.classes.items())),
        "checked_failed": checked_failed,
        "checked_failures_by_class": dict(sorted(checked_classes.items())),
        "op_p90_ms": at_ref["op_p90_ms"],
        "raw": raw,
        "speed_factor": {"setup": f_setup, "loop": f_loop, "loop_samples": len(loop_speed.samples)},
        "wall_s": wall,
        "output_digest": hashlib.sha256(
            "".join(r[0] for r in reference + checked_ref).encode()
        ).hexdigest(),
        "deterministic": loop.deterministic,
        "check_pass_repeats": repeats_exactly,
        "decompositions_per_op": {d: counts_per_op[f"linalg.{d}"] for d in tracing.DECOMPOSITIONS},
        "setup_reps_s": setup_s,
        "environment": environment(),
    }

    if args.trace:
        n_traced = len(traced) * len(inputs)
        ratios = [t / u for (_w, lu), (_w2, lt) in zip(untraced, traced) for u, t in zip(lu, lt)]
        overhead = (statistics.median(ratios) - 1.0) * 100.0
        metrics = layer_metrics(rec, loop, n_traced, counts_per_op, overhead)
        metrics["checked.failed"] = checked_failed
        trace_path = os.path.join(OUT, f"trace-{wl.name}-seed{args.seed}.jsonl.gz")
        rec.write_spans(trace_path)
        detail["trace_file"] = os.path.relpath(trace_path, ROOT)
        detail["traced_ops"] = n_traced
    else:
        metrics = {k: at_ref[k] for k in ("setup_s", "ops_per_s", "op_p50_ms")}
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    units = load_units()
    print(json.dumps(detail, sort_keys=True))
    result = {
        "correct": bool(correct),
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def load_units() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "uhlmann", "__init__.py")):
        print(f"error: no library sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    wl = workloads.build(args.workload, tiny=args.size == "tiny")
    workdir = os.path.join(OUT, f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
    os.makedirs(workdir)
    try:
        return run(args, wl, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
