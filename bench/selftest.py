"""Self-test of the benchmark on tiny inputs.

    python3 bench/selftest.py

Run from the repository root; takes well under a minute.  It checks that

* every workload, traced and untraced, prints a result line with exactly
  the metrics and units that ``BENCHMARK.json`` declares;
* two processes with the same seed give the same output digest and the same
  decomposition counts;
* every output check is wired: a fault injected into the library (a wrong
  value or a typed error) makes the op fail with the expected class, and the
  same op passes without the fault;
* without ``src/`` the benchmark exits non-zero and prints no result.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys

import run  # sets the BLAS thread pin before numpy loads
import speed
import workloads

RESULT_KEYS = ["correct", "attempted", "failed", "metrics"]


class Checks:
    def __init__(self):
        self.failures = 0

    def expect(self, ok: bool, what: str) -> None:
        print(f"{'PASS' if ok else 'FAIL'}  {what}", flush=True)
        self.failures += not ok


def bench_process(args: list, cwd: str = run.ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, os.path.join("bench", "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180, check=False)


def tiny_run(name: str, seed: int, trace: int):
    proc = bench_process(["--workload", name, "--seed", str(seed), "--seconds", "1",
                          "--trace", str(trace), "--size", "tiny"])
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        return proc.returncode, None, None
    return proc.returncode, json.loads(lines[-2]), json.loads(lines[-1])


def check_emission(checks: Checks, spec: dict) -> None:
    declared = {0: spec["end_to_end"], 1: spec["per_layer"]}
    for w in spec["workloads"]:
        details = []
        for trace in (0, 1, 0):
            code, detail, result = tiny_run(w["name"], 7, trace)
            what = f"{w['name']} --trace {trace}"
            if result is None:
                checks.expect(False, f"{what}: exit {code}, result line printed")
                continue
            want = {m["name"]: m["unit"] for m in declared[trace]}
            got = {k: v.get("unit") for k, v in result["metrics"].items()}
            finite = all(isinstance(v["value"], (int, float)) and math.isfinite(v["value"])
                         for v in result["metrics"].values())
            checks.expect(
                list(result) == RESULT_KEYS and got == want and finite
                and result["attempted"] >= 1 and result["correct"] is True,
                f"{what}: result keys, {len(want)} metrics with units, correct run",
            )
            if trace == 0:
                details.append(detail)
        if len(details) == 2:
            a, b = details
            checks.expect(
                a["output_digest"] == b["output_digest"]
                and a["decompositions_per_op"] == b["decompositions_per_op"],
                f"{w['name']}: same seed in two processes repeats digest and decomposition counts",
            )


@contextlib.contextmanager
def patched(mod, attr, make):
    """Replace ``mod.attr`` by ``make(original)`` for the ``with`` block."""
    orig = getattr(mod, attr)
    setattr(mod, attr, make(orig))
    try:
        yield
    finally:
        setattr(mod, attr, orig)


def returning(change):
    return lambda orig: (lambda *a, **k: change(orig(*a, **k)))


def raising(exc_type):
    def make(_orig):
        def fail(*_a, **_k):
            raise exc_type("injected by the benchmark self-test")

        return fail

    return make


def check_wiring(checks: Checks) -> None:
    sys.path.insert(0, run.SRC)
    lib = run.import_library()
    err = lib.errors
    rep = dataclasses.replace
    faults = {
        "cert_small": [
            ("certificate feasible", lib.certificate, "build_certificate",
             returning(lambda c: rep(c, feasible=False)), "OutputCheck"),
            ("dual_bound vs delta_bound", lib.certificate, "dual_bound",
             returning(lambda v: v * (1 + 1e-6)), "OutputCheck"),
            ("three_form_deviation", lib.core, "three_form_deviation",
             returning(lambda v: 1.0), "OutputCheck"),
            ("psd_core_check value", lib.certificate, "psd_core_check",
             returning(lambda v: -1.0), "OutputCheck"),
            ("psd_core_check typed error", lib.certificate, "psd_core_check",
             raising(err.FrameMismatchError), "FrameMismatchError"),
            ("CLI non-zero exit", lib.core, "spectral_gap_eta",
             raising(err.IllConditionedError), "IllConditionedError"),
        ],
        "probe": [
            ("probe residual vs 2 kappa eps / eta", lib.certificate, "primal_probe",
             returning(lambda p: rep(p, best_residual=1e3)), "OutputCheck"),
        ],
        "montecarlo": [
            ("protocol completeness floor", lib.protocol, "run_protocol",
             returning(lambda o: rep(o, accepted=False)), "OutputCheck"),
            ("grouprep eta = kappa = 1", lib.grouprep, "stability_check",
             returning(lambda s: rep(s, eta=1.5)), "OutputCheck"),
            ("grouprep stability bound", lib.grouprep, "stability_check",
             returning(lambda s: rep(s, stability_distance=s.defect_epsilon + 1.0)), "OutputCheck"),
        ],
    }
    workdir = os.path.join(run.OUT, f"selftest-{os.getpid()}")
    os.makedirs(workdir)
    try:
        for name, cases in faults.items():
            wl = workloads.build(name, tiny=True)
            inp = wl.setup(lib, 7, workdir)[0][0]
            clean = wl.run_op(lib, inp)
            checks.expect(not clean.failures, f"{name}: op passes without a fault")
            for what, mod, attr, make, expected in cases:
                with patched(mod, attr, make):
                    res = wl.run_op(lib, inp)
                checks.expect(expected in res.failures, f"{name}: {what} -> {expected}")
        wl = workloads.build("cert_small", tiny=True)
        pair = wl.setup(lib, 7, workdir)[0][0]
        missing = dataclasses.replace(pair, c_path=os.path.join(workdir, "missing.json"))
        checks.expect("FileNotFoundError" in wl.run_op(lib, missing).failures,
                      "cert_small: unreadable state file -> CLI exit code counted")
        loop = run.Loop(lib, wl, [pair], ["not-the-reference-digest"], speed.Speed(0.0))
        loop.cycle()
        checks.expect(loop.failed == 1 and not loop.deterministic
                      and loop.classes["Nondeterminism"] == 1,
                      "output differing from the reference pass -> Nondeterminism, run not correct")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def check_without_sources(checks: Checks) -> None:
    bare = os.path.join(run.OUT, f"bare-{os.getpid()}")
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(os.path.join(run.ROOT, "bench"), os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench_process(["--workload", "cert_small", "--seed", "1", "--seconds", "1",
                              "--trace", "0"], cwd=bare)
        checks.expect(proc.returncode != 0 and not proc.stdout.strip(),
                      f"without src/: exit {proc.returncode}, no result printed")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    checks = Checks()
    check_emission(checks, spec)
    check_wiring(checks)
    check_without_sources(checks)
    print(f"{checks.failures} check(s) failed" if checks.failures else "all checks passed")
    return 1 if checks.failures else 0


if __name__ == "__main__":
    sys.exit(main())
