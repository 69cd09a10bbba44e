"""The four benchmark workloads: inputs from a seed, one op, output checks.

Every workload is a closed loop with one caller.  An op drives the library
only through its public entry points: in-process ``uhlmann.cli.main([...])``
and the public functions of ``certificate``, ``protocol`` and ``grouprep``.
An op never stops at its first failure: every step runs, so a failing op
does nearly the same work as a passing one, and each failure is recorded by
class.

``setup`` returns two lists of inputs.  The *timed* inputs are the ones the
loop measures and counts in the result's ``attempted`` and ``failed``; no op
on them fails at the seed commit.  The *checked* inputs run once, outside
the timed loop, with every output check; their failures are reported apart
(``checked_failed``).  They carry known defects, so fixing a defect cannot
show up as a change of speed or of ``failed``.

Output checks use the test suite's tolerances.  A failed check marks the op
as failed; it never aborts the run and never removes an input.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass, field

import numpy as np

OUTPUT_CHECK = "OutputCheck"
EPSILON = "0.01"


@dataclass
class OpResult:
    output: bytes
    failures: list = field(default_factory=list)


class Op:
    """Collects one op's outputs and failures."""

    def __init__(self, lib):
        self.lib = lib
        self.out: list = []
        self.failures: list = []

    def cli(self, argv: list) -> str | None:
        """Run ``cli.main`` in-process; stdout text, or None on non-zero exit."""
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = self.lib.cli.main(argv)
        text = stdout.getvalue()
        self.out.append(text.encode("ascii"))
        if code != 0:
            try:
                name = json.loads(stderr.getvalue())["error"]
            except (ValueError, KeyError, TypeError):
                name = "CliExit"
            self.failures.append(name)
            return None
        return text

    def call(self, fn, *args):
        """Call a library function; record a typed failure instead of raising."""
        try:
            return fn(*args)
        except (self.lib.errors.UhlmannError, np.linalg.LinAlgError) as exc:
            self.failures.append(type(exc).__name__)
            return None

    def check(self, ok: bool) -> None:
        if not ok:
            self.failures.append(OUTPUT_CHECK)

    def result(self) -> OpResult:
        return OpResult(output=b"".join(self.out), failures=self.failures)


# ---------------------------------------------------------------------------
# cert_small / cert_large: canonical + report + certificate through the CLI,
# then the library cross-checks (three-form W agreement and the PSD core).
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StatePair:
    c_path: str
    d_path: str
    c: object
    d: object


class Cert:
    def __init__(self, name: str, dims, pairs: int, full_rank_pairs: int = 0,
                 max_rank: int | None = None):
        self.name = name
        self.dims = dims
        self.pairs = pairs
        self.full_rank_pairs = full_rank_pairs
        self.max_rank = max_rank

    def setup(self, lib, seed: int, workdir: str) -> tuple:
        """Timed pairs with random ranks up to ``max_rank``; checked full-rank pairs."""
        rng = np.random.default_rng(seed)

        def pair(i: int, full: bool) -> StatePair:
            d = self.dims[i % len(self.dims)]
            if full:
                rank_c = rank_d = d
            else:
                # The draws random_instance makes itself, capped at max_rank.
                hi = min(d, self.max_rank or d)
                rank_c, rank_d = (int(rng.integers(1, hi + 1)) for _ in range(2))
            inst = lib.core.random_instance(d, rng, rank_c=rank_c, rank_d=rank_d)
            tag = f"{'f' if full else 'r'}{i}"
            c_path = os.path.join(workdir, f"c{tag}.json")
            d_path = os.path.join(workdir, f"d{tag}.json")
            lib.states.write_state(c_path, inst.c)
            lib.states.write_state(d_path, inst.d)
            return StatePair(c_path, d_path, inst.c, inst.d)

        timed = [pair(i, False) for i in range(self.pairs)]
        checked = [pair(i, True) for i in range(self.full_rank_pairs)]
        return timed, checked

    def run_op(self, lib, pair: StatePair) -> OpResult:
        op = Op(lib)
        files = ["--c", pair.c_path, "--d", pair.d_path]
        op.cli(["canonical", *files])
        report = op.cli(["report", *files, "--epsilon", EPSILON])
        cert = op.cli(["certificate", *files, "--epsilon", EPSILON])
        if cert is not None:
            cert = json.loads(cert)
            op.check(cert["feasible"] is True)
        if report is not None and cert is not None:
            bound = json.loads(report)["delta_bound"]
            op.check(abs(cert["dual_bound"] - bound) <= 1e-8 * abs(bound))
        inst = lib.core.UhlmannInstance.from_states(pair.c, pair.d)
        dev = op.call(lib.core.three_form_deviation, inst)
        if dev is not None:
            op.check(dev <= 1e-7)
        core_min = op.call(lib.certificate.psd_core_check, inst)
        if core_min is not None:
            op.check(core_min >= -1e-8)
        return op.result()


# ---------------------------------------------------------------------------
# probe: one primal_probe call per op (criterion 5 scaled down).
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProbeInput:
    c: object
    d: object
    epsilon: float
    seed: int
    bound: float  # 2 kappa eps / eta, the weak-duality ceiling


class Probe:
    name = "probe"
    EPSILONS = (1e-4, 1e-3, 1e-2)

    def __init__(self, shapes, trials: int):
        self.shapes = shapes  # (d, rank_c, rank_d); None ranks are drawn
        self.trials = trials

    def setup(self, lib, seed: int, workdir: str) -> tuple:
        rng = np.random.default_rng(seed)
        inputs = []
        for d, rank_c, rank_d in self.shapes:
            inst = lib.core.random_instance(d, rng, rank_c=rank_c, rank_d=rank_d)
            ratio = lib.core.obliqueness_kappa(inst) / lib.core.spectral_gap_eta(inst)
            for eps in self.EPSILONS:
                inputs.append(
                    ProbeInput(inst.c, inst.d, eps, seed * 1000 + len(inputs), 2 * ratio * eps)
                )
        return inputs, []

    def run_op(self, lib, inp: ProbeInput) -> OpResult:
        op = Op(lib)
        inst = lib.core.UhlmannInstance.from_states(inp.c, inp.d)
        probe = op.call(lib.certificate.primal_probe, inst, inp.epsilon, self.trials, inp.seed)
        if probe is not None:
            op.check(probe.best_residual <= inp.bound + 1e-6)
            op.out.append(f"{probe.best_residual!r} {probe.best_overlap!r}\n".encode("ascii"))
        return op.result()


# ---------------------------------------------------------------------------
# montecarlo: the protocol trial loop and a grouprep sweep, through the CLI.
# ---------------------------------------------------------------------------


class MonteCarlo:
    name = "montecarlo"

    def __init__(self, seeds: int, trials: int, count: int):
        self.seeds = seeds
        self.trials = trials
        self.count = count

    def setup(self, lib, seed: int, workdir: str) -> tuple:
        return [seed * 1000 + k for k in range(self.seeds)], []

    def run_op(self, lib, k: int) -> OpResult:
        op = Op(lib)
        prot = op.cli(
            ["protocol", "--n", "2", "--r", "2", "--trials", str(self.trials),
             "--seed", str(k), "--prover", "honest"]
        )
        if prot is not None:
            summary = json.loads(prot)
            rate = summary["acceptance_rate"]
            # Criterion 9: honest acceptance stays above 1 - 2^-n - 3 sigma.
            sigma = np.sqrt(max(rate * (1 - rate), 1e-9) / self.trials)
            op.check(summary["trials"] == self.trials and rate >= 1 - 2.0**-2 - 3 * sigma)
        group = op.cli(
            ["grouprep", "--group", "s3", "--scale", "0.3", "--count", str(self.count),
             "--seed", str(k)]
        )
        if group is not None:
            rows = [json.loads(line) for line in group.splitlines()]
            op.check(len(rows) == self.count)
            for row in rows:
                # Criterion 10: the stability bound and eta = kappa = 1.
                op.check(row["stability_distance"] <= row["defect_epsilon"] + 1e-6)
                op.check(abs(row["eta"] - 1) <= 1e-8 and abs(row["kappa"] - 1) <= 1e-8)
        return op.result()


def build(name: str, tiny: bool = False):
    """The workload ``name``; ``tiny`` shrinks it for the self-test."""
    if name == "cert_small":
        return Cert(name, dims=(2, 3, 4, 5, 6), pairs=5 if tiny else 20)
    if name == "cert_large":
        # Full-rank pairs (rank_c = rank_d = d) fail at d = 128 today, and so
        # can random ranks near d (ranks 100 and 123 raise NoConvergenceError).
        # The timed pairs keep ranks up to d/2, where the supports are well
        # conditioned; the full-rank pairs are checked, not timed.
        d = 12 if tiny else 128
        return Cert(name, dims=(d,), pairs=1 if tiny else 4,
                    full_rank_pairs=1 if tiny else 2, max_rank=d // 2)
    if name == "probe":
        shapes = [(d, None, None) for d in range(2, 7)] + [(5, 2, 3)]
        return Probe(shapes[:1] + shapes[-1:] if tiny else shapes, trials=5 if tiny else 100)
    if name == "montecarlo":
        return MonteCarlo(seeds=2, trials=10, count=1) if tiny else MonteCarlo(8, 100, 4)
    raise ValueError(f"unknown workload '{name}'")


NAMES = ("cert_small", "cert_large", "probe", "montecarlo")
